"""Command-line front end: every result as one machine-readable record.

Subcommands
-----------
constant <family>       sharp-constant quadrature (lebesgue, morrey,
                        log-moment, cesaro-lebesgue, cesaro-log)
apply <operator>        pointwise operator value (hardy, cesaro,
                        hardy-comm, cesaro-comm, rl, weyl)
norm <kind>             radial norms (lp, morrey, cmo)
sharpness <experiment>  lebesgue, morrey, commutator, cesaro
counterexample          finite plain moment vs divergent log moment
oscillation             Riemann-Lebesgue decay of the oscillatory integral

Weight specs:   const:c[:m], rl:a, riesz:a:m, weyl:a, cesaro:a:m,
                counter:a:n:p
Function specs: power:a, cutpow:a:r0, log, osccut:r:R, plus the
                modifier @chi[:R] restricting a power to the ball of
                radius R (default 1), e.g. power:0@chi for the unit-ball
                indicator.

Output is a single JSON object on stdout.  Exit codes: 0 success or
experiment passed; 1 experiment verdict violated or inconclusive; 2
usage or parameter error; every numeric flag must be finite (`--tol`
also >= 0), and an error names the flag or parameter at fault.  A flag
exists only where a computation reads it: `--tol` on all subcommands
but `norm` (whose record then has null `tolerances`), `--csv` (sweep
rows `parameter,value,error`) on the three experiment subcommands and
`--params-file FILE` (`key=value` defaults) everywhere.  `--seed` on
`constant` is only recorded (other records have a null `seed`); it
changes no result.
`norm` takes `--p` for `lp` and `morrey`, `--lambda` and `--method` for
`morrey` and `--q` for `cmo`; a kind rejects the others, and its record
lists only the ones it read.
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
    central_morrey_norm,
    cmo_norm,
    lebesgue_norm,
    parse_function_spec,
)
from .weights import parse_weight_spec

__all__ = ["main", "run"]

_OPERATORS = ("hardy", "cesaro", "hardy-comm", "cesaro-comm", "rl", "weyl")
_NORMS = ("lp", "morrey", "cmo")
_EXPERIMENTS = ("lebesgue", "morrey", "commutator", "cesaro")


class _UsageError(Exception):
    pass


# the `norm` flags that only some kinds read, as (flag, dest), and each
# kind's defaults for the ones it reads; it rejects the others
_NORM_FLAGS = (("--p", "p"), ("--q", "q"), ("--lambda", "lam"), ("--method", "method"))
_NORM_DEFAULTS = {
    "lp": {"p": 2.0},
    "morrey": {"p": 2.0, "lam": 0.0, "method": "auto"},
    "cmo": {"q": 2.0},
}


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyops",
        description="weighted Hardy/Cesaro averaging operators: constants, "
        "norms, pointwise values and sharpness experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=True, csv=False):
        if tol:
            sp.add_argument("--tol", type=_tolerance, default=1e-10,
                            help="absolute quadrature tolerance")
        if csv:
            sp.add_argument("--csv", action="store_true",
                            help="emit sweep rows as CSV instead of JSON")
        sp.add_argument("--params-file", type=str, default=None,
                        help="key=value file merged in as defaults")

    def exponents(sp, lam=True, q=False):
        sp.add_argument("--n", type=int, default=1, help="ambient dimension")
        sp.add_argument("--m", type=int, default=None,
                        help="weight arity (cross-checked; defaults a bare const:c)")
        sp.add_argument("--p", type=_finite, nargs="+", required=True,
                        metavar="P", help="integrability exponents p_i")
        if lam:
            sp.add_argument("--lambda", dest="lam", type=_finite, nargs="+",
                            default=None, metavar="L",
                            help="Morrey exponents lambda_i (default -1/p_i)")
        if q:
            sp.add_argument("--q", type=_finite, nargs="+", default=None,
                            metavar="Q", help="symbol exponents q_i")

    sp = sub.add_parser("constant", help="compute a sharp constant")
    sp.add_argument("family", choices=tuple(_FAMILIES))
    sp.add_argument("--weight", required=True, help="weight spec")
    exponents(sp, q=True)
    sp.add_argument("--axes", type=int, nargs="+", default=None,
                    help="log axes (log-moment family)")
    sp.add_argument("--shift", type=_finite, default=1.0, choices=(1.0, 2.0),
                    help="log shift c in log(c/t)")
    sp.add_argument("--truncation", type=_finite, default=0.0,
                    help="restrict all axes to (delta, 1)")
    sp.add_argument("--seed", type=int, default=0,
                    help="recorded only; no constant reads it, so it changes "
                    "no result")
    common(sp)

    sp = sub.add_parser("apply", help="evaluate an operator pointwise")
    sp.add_argument("operator", choices=_OPERATORS)
    sp.add_argument("--weight", default="const:1",
                    help="weight spec (hardy/cesaro families)")
    sp.add_argument("--f", nargs="+", required=True, help="input function specs")
    sp.add_argument("--b", nargs="+", default=None, help="symbol specs (commutators)")
    sp.add_argument("--r", type=_finite, required=True, help="radius |x|")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--m", type=int, default=None,
                    help="weight arity (cross-checked; defaults a bare const:c)")
    sp.add_argument("--alpha", type=_finite, default=None,
                    help="fractional order (rl/weyl)")
    common(sp)

    sp = sub.add_parser("norm", help="compute a radial norm")
    sp.add_argument("kind", choices=_NORMS)
    sp.add_argument("--f", required=True, help="function spec")
    # flags only some kinds read default to None; _cmd_norm applies
    # _NORM_DEFAULTS
    sp.add_argument("--p", type=_finite, default=None, help="integrability exponent (lp, morrey)")
    sp.add_argument("--q", type=_finite, default=None, help="oscillation exponent (cmo)")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=_finite, default=None,
                    help="Morrey exponent (morrey)")
    sp.add_argument("--method", choices=("auto", "closed", "grid"), default=None,
                    help="Morrey norm route (morrey)")
    common(sp, tol=False)

    sp = sub.add_parser("sharpness", help="run a sharpness experiment")
    sp.add_argument("experiment", choices=_EXPERIMENTS)
    sp.add_argument("--weight", required=True)
    exponents(sp)
    sp.add_argument("--eps", type=_finite, nargs="+", default=None,
                    help="sweep parameters (lebesgue/cesaro)")
    sp.add_argument("--experiment-tol", type=_finite, default=None,
                    help="verdict tolerance (default per experiment)")
    common(sp, csv=True)

    sp = sub.add_parser("counterexample",
                        help="finite plain moment, divergent log moment")
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--delta", type=_finite, nargs="+", default=DEFAULT_DELTA_SEQUENCE)
    common(sp, csv=True)

    sp = sub.add_parser("oscillation", help="Riemann-Lebesgue decay check")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--axes", type=int, nargs="+", required=True)
    # the radii are checked by the experiment, which names each bad one
    sp.add_argument("--r", type=float, nargs="+", default=DEFAULT_R_SEQUENCE)
    sp.add_argument("--decay-tol", type=_finite, default=DEFAULT_DECAY_TOL)
    common(sp, csv=True)
    return parser


def _merge_params_file(argv: list[str]) -> list[str]:
    """Prepend key=value file entries as flags (explicit argv wins)."""
    if "--params-file" not in argv:
        return argv
    idx = argv.index("--params-file")
    if idx + 1 >= len(argv):
        raise _UsageError("--params-file requires a path")
    path = argv[idx + 1]
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read params file: {exc}") from exc
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"malformed params line {line!r}")
        key, _, value = line.partition("=")
        extra.append(f"--{key.strip()}")
        extra.extend(value.strip().split())
    # insert defaults right after the subcommand words so explicit flags win
    head = argv[:2] if len(argv) > 1 and not argv[1].startswith("-") else argv[:1]
    return list(head) + extra + argv[len(head):]


def _config_from_args(args) -> ExponentConfig:
    lam = tuple(args.lam) if getattr(args, "lam", None) else ()
    q = tuple(args.q) if getattr(args, "q", None) else None
    return ExponentConfig(args.n, tuple(args.p), lam, q)


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
    weight = parse_weight_spec(args.weight, default_m=getattr(args, "m", None))
    if getattr(args, "m", None) is not None and weight.arity != args.m:
        raise _UsageError(
            f"--m {args.m} conflicts with weight arity {weight.arity}"
        )
    return weight


def _cmd_constant(args) -> int:
    weight = _parse_weight(args)
    config = _config_from_args(args)
    spec = ConstantSpec(
        weight,
        config,
        args.family,
        tuple(args.axes) if args.axes else
        (tuple(range(1, config.m + 1)) if args.family == "log-moment" else ()),
        args.shift,
        args.truncation,
    )
    return _emit_quadrature(args, spec.compute(tol=args.tol))


def _cmd_apply(args) -> int:
    funcs = tuple(parse_function_spec(s) for s in args.f)
    if args.operator in ("rl", "weyl"):
        if args.alpha is None:
            raise _UsageError("rl/weyl require --alpha")
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
    defaults = _NORM_DEFAULTS[args.kind]
    for flag, dest in _NORM_FLAGS:
        if dest in defaults:
            if getattr(args, dest) is None:
                setattr(args, dest, defaults[dest])
        elif getattr(args, dest) is not None:
            raise _UsageError(f"norm {args.kind} does not read {flag}")
    f = parse_function_spec(args.f)
    if args.kind == "lp":
        value = lebesgue_norm(f, args.p, args.n)
        # closed form for piecewise powers, 1e-12-tolerance quadrature else
        rel_bound = 1e-14 if f.descriptor is not None else 1e-9
    elif args.kind == "morrey":
        value = central_morrey_norm(f, args.p, args.lam, args.n, args.method)
        # a sup-search value is the largest bracket the climb from the best
        # of 61 grid radii finds on R in [1e-3, 1e3], a lower bound on the
        # norm; 1e-8 of it does not bound its distance to the norm.  A
        # piecewise power outside "grid" takes the exact closed form
        closed = f.descriptor is not None and args.method != "grid"
        rel_bound = 1e-14 if closed else 1e-8
    else:
        value = cmo_norm(f, args.q, args.n)
        # the same kind of sup-search lower bound for every symbol but log,
        # whose bracket is R-invariant and one half-line integral to 1e-13
        # relative; 1e-8 is recorded for both (e.g. osccut:1:2 with q = 2,
        # n = 1 gives 0.70680915170901 at R = 999.75, while the norm is
        # 1/sqrt(2))
        rel_bound = 1e-8
    finite = math.isfinite(value)
    record = _record(
        args,
        {"value": value if finite else None, "divergent": not finite},
        rel_bound * abs(value) if finite else None,
        True,
    )
    _emit(record)
    return 0


def _cmd_sharpness(args) -> int:
    weight = _parse_weight(args)
    config = _config_from_args(args)
    # unset flags fall back to the experiment's own defaults
    extra = {} if args.experiment_tol is None else {"tol": args.experiment_tol}
    if args.experiment in ("lebesgue", "cesaro"):
        sweep = (lebesgue_sharpness_sweep if args.experiment == "lebesgue"
                 else cesaro_sharpness_sweep)
        if args.eps is not None:
            extra["eps_sequence"] = tuple(args.eps)
        rep = sweep(weight, config, quad_tol=args.tol, **extra)
    else:
        check = (morrey_sharpness_check if args.experiment == "morrey"
                 else commutator_pointwise_check)
        rep = check(weight, config, quad_tol=args.tol, **extra)
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


_HANDLERS = {
    "constant": _cmd_constant,
    "apply": _cmd_apply,
    "norm": _cmd_norm,
    "sharpness": _cmd_sharpness,
    "counterexample": _cmd_counterexample,
    "oscillation": _cmd_oscillation,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute, print one record; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _merge_params_file(argv)
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
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
