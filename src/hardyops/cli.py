"""Command-line front end: every result as one machine-readable record.

Subcommands, their kinds and the flags they read
------------------------------------------------
constant <family>       sharp-constant quadrature (lebesgue, morrey,
                        log-moment, cesaro-lebesgue, cesaro-log): --weight
                        --n --m --p --truncation --seed --tol; --lambda
                        (morrey, log-moment, cesaro-log); --axes --shift
                        (log-moment)
apply <operator>        pointwise operator value (hardy, cesaro,
                        hardy-comm, cesaro-comm, rl, weyl): --f --r --tol;
                        --weight --n --m (all but rl, weyl); --b
                        (hardy-comm, cesaro-comm; required); --alpha (rl,
                        weyl; required)
norm <kind>             radial norms (lp, morrey, cmo): --f --n; --p (lp,
                        morrey); --lambda --method (morrey); --q (cmo)
sharpness <experiment>  lebesgue, morrey, commutator, cesaro: --weight --n
                        --m --p --experiment-tol --tol --csv; --lambda
                        (morrey, commutator); --eps (lebesgue, cesaro)
counterexample          finite plain moment vs divergent log moment:
                        --alpha --n --p --delta --tol --csv
oscillation             Riemann-Lebesgue decay of the oscillatory
                        integral: --weight --axes --r --decay-tol --tol --csv

Kinds in parentheses are the only ones that read the flags before them
("required": they need them).  Any other use of a flag is a usage error,
and a record lists only the flags its kind read.  Every subcommand takes
`--params-file FILE` (`key=value` lines read as flag defaults); `--csv`
prints sweep rows `parameter,value,error`; `--seed` is only recorded
(other records have a null `seed`) and changes no result; a `norm`
record, whose norms take no `--tol`, has null `tolerances`.  Like
`constant` and `apply`, `norm` prints the library's `QuadratureResult`:
a sup-search norm is unconverged, with a null estimate.

Weight specs:   const:c[:m], rl:a, riesz:a:m, weyl:a, cesaro:a:m,
                counter:a:n:p
Function specs: power:a, cutpow:a:r0, log, osccut:r:R, plus the
                modifier @chi[:R] restricting a power to the ball of
                radius R (default 1), e.g. power:0@chi for the unit-ball
                indicator.

Output is a single JSON object on stdout.  Exit codes: 0 success or
experiment passed; 1 experiment verdict violated or inconclusive; 2
usage or parameter error; every numeric flag must be finite (`--tol`,
`--experiment-tol` and `--decay-tol` also >= 0), and an error names the
flag or parameter at fault.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .constants import _FAMILIES, ConstantSpec
from .experiments import (
    DEFAULT_DECAY_TOL,
    DEFAULT_DELTA_SEQUENCE,
    DEFAULT_R_SEQUENCE,
    SharpnessReport,
    cesaro_sharpness_sweep,
    commutator_pointwise_check,
    counterexample_report,
    lebesgue_sharpness_sweep,
    morrey_sharpness_check,
    oscillation_decay_check,
)
from .numerics import QuadratureResult, _CUBE_RTOL
from .operators import (
    OperatorRequest,
    cesaro_apply,
    cesaro_commutator_apply,
    hardy_apply,
    hardy_commutator_apply,
    riemann_liouville_apply,
    weyl_apply,
)
from .spaces import (
    ExponentConfig,
    _central_morrey_norm,
    _cmo_norm,
    _lebesgue_norm,
    parse_function_spec,
)
from .weights import parse_weight_spec

__all__ = ["main", "run"]

_AVERAGES = ("hardy", "cesaro", "hardy-comm", "cesaro-comm")


class _UsageError(Exception):
    pass


def _finite(text: str) -> float:
    """A float flag's value; argparse puts the flag's name before the error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


# Every flag declaration once, as (flag, where, argparse options), in the
# order of each subcommand's help.  `where` maps each subcommand that takes
# the flag to None, when all its kinds read it, or to the kinds that read
# it; _apply_kind_rules gives those kinds the default and the requirement
# and rejects the flag on the others.
_FLAGS = (
    ("--weight", {"constant": None}, dict(required=True, help="weight spec")),
    ("--weight", {"apply": _AVERAGES},
     dict(default="const:1", help="weight spec (hardy/cesaro families)")),
    ("--weight", {"sharpness": None, "oscillation": None}, dict(required=True)),
    ("--f", {"apply": None}, dict(nargs="+", required=True, help="input function specs")),
    ("--b", {"apply": _AVERAGES[2:]},
     dict(nargs="+", required=True, help="symbol specs (commutators)")),
    ("--r", {"apply": None}, dict(type=_finite, required=True, help="radius |x|")),
    ("--f", {"norm": None}, dict(required=True, help="function spec")),
    ("--p", {"norm": ("lp", "morrey")},
     dict(type=_finite, default=2.0, help="integrability exponent (lp, morrey)")),
    ("--q", {"norm": ("cmo",)},
     dict(type=_finite, default=2.0, help="oscillation exponent (cmo)")),
    ("--alpha", {"counterexample": None}, dict(type=_finite, required=True)),
    ("--n", {"constant": None, "sharpness": None},
     dict(type=int, default=1, help="ambient dimension")),
    ("--n", {"apply": _AVERAGES, "norm": None, "counterexample": None}, dict(type=int, default=1)),
    ("--m", {"constant": None, "apply": _AVERAGES, "sharpness": None},
     dict(type=int, help="weight arity (cross-checked; defaults a bare const:c)")),
    ("--p", {"constant": None, "sharpness": None},
     dict(type=_finite, nargs="+", required=True, metavar="P",
          help="integrability exponents p_i")),
    ("--lambda", {"constant": ("morrey", "log-moment", "cesaro-log"),
                  "sharpness": ("morrey", "commutator")},
     dict(dest="lam", type=_finite, nargs="+", metavar="L",
          help="Morrey exponents lambda_i (default -1/p_i)")),
    ("--axes", {"constant": ("log-moment",)},
     dict(type=int, nargs="+", help="log axes (log-moment family)")),
    ("--shift", {"constant": ("log-moment",)},
     dict(type=_finite, default=1.0, choices=(1.0, 2.0), help="log shift c in log(c/t)")),
    ("--truncation", {"constant": None},
     dict(type=_finite, default=0.0, help="restrict all axes to (delta, 1)")),
    ("--seed", {"constant": None},
     dict(type=int, default=0,
          help="recorded only; no constant reads it, so it changes no result")),
    ("--alpha", {"apply": ("rl", "weyl")},
     dict(type=_finite, required=True, help="fractional order (rl/weyl)")),
    ("--lambda", {"norm": ("morrey",)},
     dict(dest="lam", type=_finite, default=0.0, help="Morrey exponent (morrey)")),
    ("--method", {"norm": ("morrey",)},
     dict(choices=("auto", "closed", "grid"), default="auto", help="Morrey norm route (morrey)")),
    ("--p", {"counterexample": None}, dict(type=_finite, required=True)),
    ("--delta", {"counterexample": None},
     dict(type=_finite, nargs="+", default=DEFAULT_DELTA_SEQUENCE)),
    ("--eps", {"sharpness": ("lebesgue", "cesaro")},
     dict(type=_finite, nargs="+", help="sweep parameters (lebesgue/cesaro)")),
    ("--experiment-tol", {"sharpness": None},
     dict(type=_tolerance, help="verdict tolerance (default per experiment)")),
    ("--axes", {"oscillation": None}, dict(type=int, nargs="+", required=True)),
    # the radii are checked by the experiment, which names each bad one
    ("--r", {"oscillation": None}, dict(type=float, nargs="+", default=DEFAULT_R_SEQUENCE)),
    ("--decay-tol", {"oscillation": None}, dict(type=_tolerance, default=DEFAULT_DECAY_TOL)),
    ("--tol", dict.fromkeys(("constant", "apply", "sharpness", "counterexample", "oscillation")),
     dict(type=_tolerance, default=1e-10, help="absolute quadrature tolerance")),
    ("--csv", dict.fromkeys(("sharpness", "counterexample", "oscillation")),
     dict(action="store_true", help="emit sweep rows as CSV instead of JSON")),
    ("--params-file",
     dict.fromkeys(("constant", "apply", "norm", "sharpness", "counterexample", "oscillation")),
     dict(help="key=value file merged in as defaults")),
)


def _build_parser(only: Optional[str]) -> argparse.ArgumentParser:
    """Every subcommand, with flags on `only`'s subparser alone (if any)."""
    parser = argparse.ArgumentParser(
        prog="hardyops",
        description="weighted Hardy/Cesaro averaging operators: constants, "
        "norms, pointwise values and sharpness experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand gets its subparser: their names make the top-level
    # usage line, which argparse also prints for an unrecognized argument
    subparsers = {}
    for command, (text, positional, kinds, _) in _COMMANDS.items():
        subparsers[command] = sp = sub.add_parser(command, help=text)
        if positional:
            sp.add_argument(positional, choices=kinds)
    for flag, where, options in _FLAGS:
        for command, kinds in where.items():
            if command == only:
                # a flag that only some kinds read must show whether it was given
                subparsers[command].add_argument(flag, **(options if kinds is None else
                                                 {**options, "default": None, "required": False}))
    return parser


def _apply_kind_rules(args) -> None:
    """Give each flag its kind's default; reject a flag the kind does not read."""
    positional = _COMMANDS[args.command][1]
    for flag, where, options in _FLAGS:
        kinds = where.get(args.command)
        if kinds is None:
            continue
        kind, dest = getattr(args, positional), options.get("dest", flag[2:].replace("-", "_"))
        if getattr(args, dest) is not None:
            if kind not in kinds:
                raise _UsageError(f"{args.command} {kind} does not read {flag}")
        elif kind in kinds:
            if options.get("required"):
                raise _UsageError(f"{args.command} {kind} requires {flag}")
            setattr(args, dest, options.get("default"))


def _merge_params_file(argv: list[str]) -> list[str]:
    """Prepend key=value file entries as flags (explicit argv wins).

    Each key must be a flag that the subcommand, and the kind argv names,
    reads; an error names the file, the line and the key.
    """
    if "--params-file" not in argv or argv[0] not in _COMMANDS:
        return argv  # argparse names a bad subcommand
    # insert defaults right after the subcommand words so explicit flags win
    head = argv[:2] if len(argv) > 1 and not argv[1].startswith("-") else argv[:1]
    command, kind = head[0], head[-1] if head[-1] in _COMMANDS[head[0]][2] else None
    label = f"{command} {kind}" if kind else command
    reads = {flag: (where[command], options)
             for flag, where, options in _FLAGS if command in where}
    idx = argv.index("--params-file")
    if idx + 1 >= len(argv):
        raise _UsageError("--params-file requires a path")
    path = argv[idx + 1]
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read params file: {exc}") from exc
    extra: list[str] = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        at, flag = f"{path} line {number}", f"--{key.strip()}"
        kinds, options = reads.get(flag, (None, {}))
        if not eq:
            raise _UsageError(f"{at}: malformed params line {line!r}")
        if flag not in reads or kind and kinds is not None and kind not in kinds:
            raise _UsageError(f"{at}: {label} does not read {flag}")
        if value.strip() and options.get("action") == "store_true":
            raise _UsageError(f"{at}: {flag} takes no value")
        extra.append(flag)
        extra.extend(value.split())
    return list(head) + extra + argv[len(head):]


def _config_from_args(args) -> ExponentConfig:
    return ExponentConfig(args.n, tuple(args.p), tuple(args.lam or ()))


def _report_dict(rep: SharpnessReport) -> dict:
    def clean(x):
        if isinstance(x, float) and not math.isfinite(x):
            return None
        return x

    return {
        "target": clean(rep.target),
        "sweep": [[p, clean(v)] for p, v in rep.sweep],
        "sweep_errors": [clean(e) for e in rep.sweep_errors],
        "extrapolated": clean(rep.extrapolated),
        "relative_gap": clean(rep.relative_gap),
        "verdict": rep.verdict,
        "note": rep.note,
        "details": list(rep.details),
    }


def _quadrature_dict(res: QuadratureResult) -> dict:
    finite = math.isfinite(res.value)
    return {
        "value": res.value if finite else None,
        "divergent": res.diagnosis is not None and not finite,
        "diagnosis": res.diagnosis,
        "evaluations": res.evaluations,
    }


def _emit(record: dict) -> None:
    # strict JSON: a NaN or infinity raises (exit 2) instead of printing
    print(json.dumps(record, sort_keys=True, allow_nan=False))


def _record(args, result, error_estimate, converged, verdict=None) -> dict:
    tol = getattr(args, "tol", None)
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command",) and v is not None and not k.startswith("_")
    }
    return {
        "command": args.command,
        "parameters": params,
        "result": result,
        "error_estimate": error_estimate if (error_estimate is None or math.isfinite(error_estimate)) else None,
        "converged": converged,
        "verdict": verdict,
        "seed": getattr(args, "seed", None),
        "tolerances": {"abs": tol, "rel": None if tol is None else _CUBE_RTOL},
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit_quadrature(args, res: QuadratureResult) -> int:
    _emit(_record(args, _quadrature_dict(res), res.abs_error_estimate, res.converged))
    return 0


def _emit_report(args, rep: SharpnessReport) -> int:
    if args.csv:
        print("parameter,value,error")
        for i, (x, v) in enumerate(rep.sweep):
            err = rep.sweep_errors[i] if i < len(rep.sweep_errors) else None
            print(",".join("" if c is None else f"{c:.17g}" for c in (x, v, err)))
    else:
        # an inconclusive report whose limit and gap are unknown did not converge
        converged = not (math.isnan(rep.extrapolated) and math.isnan(rep.relative_gap))
        _emit(_record(args, _report_dict(rep), None, converged, rep.verdict))
    return 0 if rep.passed() else 1


def _parse_weight(args):
    weight = parse_weight_spec(args.weight, default_m=args.m)
    if args.m is not None and weight.arity != args.m:
        raise _UsageError(f"--m {args.m} conflicts with weight arity {weight.arity}")
    return weight


def _cmd_constant(args) -> int:
    weight = _parse_weight(args)
    config = _config_from_args(args)
    # only log-moment reads --axes and --shift; the other families fix both
    axes = tuple(args.axes or range(1, config.m + 1)) if args.family == "log-moment" else ()
    spec = ConstantSpec(weight, config, args.family, axes, args.shift or 1.0, args.truncation)
    return _emit_quadrature(args, spec.compute(tol=args.tol))


def _cmd_apply(args) -> int:
    funcs = tuple(parse_function_spec(s) for s in args.f)
    if args.operator in ("rl", "weyl"):
        if len(funcs) != 1:
            raise _UsageError("rl/weyl take exactly one input function")
        apply_fn = riemann_liouville_apply if args.operator == "rl" else weyl_apply
        res = apply_fn(args.alpha, funcs[0], args.r, tol=args.tol)
    else:
        weight = _parse_weight(args)
        symbols = tuple(parse_function_spec(s) for s in args.b) if args.b else None
        req = OperatorRequest(weight, funcs, args.r, args.n, symbols, args.tol)
        apply_fn = {
            "hardy": hardy_apply,
            "cesaro": cesaro_apply,
            "hardy-comm": hardy_commutator_apply,
            "cesaro-comm": cesaro_commutator_apply,
        }[args.operator]
        res = apply_fn(req)
    return _emit_quadrature(args, res)


def _cmd_norm(args) -> int:
    f = parse_function_spec(args.f)
    if args.kind == "lp":
        res = _lebesgue_norm(f, args.p, args.n)
    elif args.kind == "morrey":
        res = _central_morrey_norm(f, args.p, args.lam, args.n, args.method)
    else:
        res = _cmo_norm(f, args.q, args.n)
    return _emit_quadrature(args, res)


def _cmd_sharpness(args) -> int:
    # unset flags fall back to the experiment's own defaults; only the
    # lebesgue and cesaro sweeps read --eps
    extra = {} if args.experiment_tol is None else {"tol": args.experiment_tol}
    if args.eps is not None:
        extra["eps_sequence"] = tuple(args.eps)
    experiment = {
        "lebesgue": lebesgue_sharpness_sweep,
        "morrey": morrey_sharpness_check,
        "commutator": commutator_pointwise_check,
        "cesaro": cesaro_sharpness_sweep,
    }[args.experiment]
    rep = experiment(_parse_weight(args), _config_from_args(args), quad_tol=args.tol, **extra)
    return _emit_report(args, rep)


def _cmd_counterexample(args) -> int:
    rep = counterexample_report(args.alpha, args.n, args.p, tuple(args.delta),
                                quad_tol=args.tol)
    return _emit_report(args, rep)


def _cmd_oscillation(args) -> int:
    weight = parse_weight_spec(args.weight)
    rep = oscillation_decay_check(
        weight, tuple(args.axes), tuple(args.r), tol=args.decay_tol, quad_tol=args.tol,
    )
    return _emit_report(args, rep)


# each subcommand: its help, the positional naming its kind, the kinds, the handler
_COMMANDS = {
    "constant": ("compute a sharp constant", "family", tuple(_FAMILIES), _cmd_constant),
    "apply": ("evaluate an operator pointwise", "operator", (*_AVERAGES, "rl", "weyl"),
              _cmd_apply),
    "norm": ("compute a radial norm", "kind", ("lp", "morrey", "cmo"), _cmd_norm),
    "sharpness": ("run a sharpness experiment", "experiment",
                  ("lebesgue", "morrey", "commutator", "cesaro"), _cmd_sharpness),
    "counterexample": ("finite plain moment, divergent log moment", None, (),
                       _cmd_counterexample),
    "oscillation": ("Riemann-Lebesgue decay check", None, (), _cmd_oscillation),
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute, print one record; returns the exit code.

    Only the subcommand that argv[0] names gets its flags; the top-level
    parser reads no flag of a subcommand.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        argv = _merge_params_file(argv)
        args = parser.parse_args(argv)
        _apply_kind_rules(args)
        return _COMMANDS[args.command][3](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits with its own code; normalize usage failures to 2
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
