"""CLI contract: JSON records, CSV sweeps, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from hardyops import cli
from hardyops.cli import run
from hardyops.experiments import (
    DEFAULT_DECAY_TOL,
    DEFAULT_DELTA_SEQUENCE,
    DEFAULT_R_SEQUENCE,
)


@pytest.fixture()
def invoke(capsys):
    def _invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


def readme_commands():
    """The `hardyops` lines of README.md's fenced blocks, `# ...` comments stripped."""
    commands, fenced = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        command = line.split("#")[0].strip()
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and command.startswith("hardyops "):
            commands.append(command)
    return commands


README_COMMANDS = readme_commands()


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


def record_of(out):
    """The one record `out` holds, parsed as strict JSON (no NaN or Infinity)."""
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 1, out
    return json.loads(lines[0], parse_constant=_no_constant)


class TestConstantCommand:
    def test_classical_hardy(self, invoke):
        code, out, _ = invoke(
            "constant", "lebesgue", "--weight", "const:1", "--n", "1", "--p", "2"
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["value"] == pytest.approx(2.0, abs=1e-8)
        assert rec["converged"] is True
        assert rec["version"]

    def test_fractional_weight(self, invoke):
        code, out, _ = invoke(
            "constant", "lebesgue", "--weight", "rl:0.5", "--n", "1", "--p", "2"
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["value"] == pytest.approx(1.772454, abs=1e-6)

    def test_divergent_reported_not_nan(self, invoke):
        code, out, _ = invoke(
            "constant", "cesaro-lebesgue", "--weight", "const:1", "--n", "2",
            "--p", "2",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["divergent"] is True
        assert rec["result"]["value"] is None
        assert rec["result"]["diagnosis"]


class TestApplyCommand:
    def test_classical_hardy_average(self, invoke):
        code, out, _ = invoke(
            "apply", "hardy", "--weight", "const:1", "--n", "1",
            "--f", "power:0@chi", "--r", "2",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["value"] == pytest.approx(0.5, abs=1e-10)

    def test_commutator(self, invoke):
        code, out, _ = invoke(
            "apply", "hardy-comm", "--weight", "const:1", "--f", "power:-0.25",
            "--b", "log", "--r", "1",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["value"] == pytest.approx(16.0 / 9.0, rel=1e-8)

    def test_weyl(self, invoke):
        code, out, _ = invoke(
            "apply", "weyl", "--alpha", "0.5", "--f", "power:0@chi", "--r", "0.25"
        )
        assert code == 0


class TestNormCommand:
    def test_morrey(self, invoke):
        code, out, _ = invoke(
            "norm", "morrey", "--f", "power:-0.25", "--p", "2",
            "--lambda", "-0.25", "--n", "1",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["result"]["value"] == pytest.approx(2.0**0.75, rel=1e-10)

    @pytest.mark.parametrize(
        "f, method, rel",
        [("power:-0.25", "auto", 1e-14), ("power:-0.25", "grid", 1e-8),
         ("cutpow:-0.25:1", "auto", 1e-14), ("cutpow:-0.25:1", "grid", 1e-8)],
    )
    def test_morrey_estimate_follows_the_route(self, invoke, f, method, rel):
        # a piecewise power outside "grid" takes the exact closed form (for
        # cutpow:-0.25:1 its R -> inf limit 2**0.75 = 1.68179); "grid" gets
        # the sup search's lower bound (1.65499, the bracket at R = 1e3)
        code, out, _ = invoke("norm", "morrey", "--f", f, "--p", "2",
                              "--lambda", "-0.25", "--method", method)
        assert code == 0
        rec = record_of(out)
        assert rec["error_estimate"] == rel * rec["result"]["value"]

    def test_cmo_log(self, invoke):
        code, out, _ = invoke("norm", "cmo", "--f", "log", "--q", "2", "--n", "1")
        assert code == 0
        assert record_of(out)["result"]["value"] == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("q", ["2", "1e308"])
    def test_cmo_log_is_a_closed_form(self, invoke, q):
        # the log symbol's norm is a closed form for every finite q > 1; at
        # q = 1e308 it is about q / e, still finite
        code, out, _ = invoke("norm", "cmo", "--f", "log", "--q", q)
        assert code == 0
        rec = record_of(out)
        value = rec["result"]["value"]
        assert math.isfinite(value) and value > 0.0
        assert rec["error_estimate"] == 1e-14 * value

    def test_cmo_unconverged_fails_with_reason(self, invoke):
        code, out, err = invoke("norm", "cmo", "--f", "osccut:200:2")
        assert code == 2 and out == ""
        assert "did not converge" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cmo", "--f", "log"),
            ("cmo", "--f", "osccut:1:2"),
            ("morrey", "--f", "power:-0.25", "--p", "2", "--lambda", "-0.25"),
        ],
        ids=["cmo-log", "cmo-osccut", "morrey"],
    )
    def test_dimension_below_one_is_a_usage_error(self, invoke, argv):
        code, out, err = invoke("norm", *argv, "--n", "0")
        assert code == 2 and out == ""
        assert "dimension n must be >= 1" in err

    def test_divergent_norm(self, invoke):
        code, out, _ = invoke("norm", "lp", "--f", "power:-0.25", "--p", "2")
        assert code == 0
        assert record_of(out)["result"]["divergent"] is True

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("lp", "--q", "3"),
            ("lp", "--lambda", "-0.1"),
            ("lp", "--method", "grid"),
            ("morrey", "--q", "3"),
            ("cmo", "--p", "7"),
            ("cmo", "--lambda", "-0.1"),
            ("cmo", "--method", "grid"),
        ],
    )
    def test_flag_of_another_kind_is_rejected(self, invoke, kind, flag, value):
        code, out, err = invoke("norm", kind, "--f", "power:0@chi", flag, value)
        assert code == 2 and out == ""
        assert f"norm {kind} does not read {flag}" in err

    def test_cmo_rejects_morrey_flags(self, invoke):
        code, out, err = invoke("norm", "cmo", "--f", "log", "--q", "2", "--p", "7",
                                "--lambda", "-0.1", "--method", "grid")
        assert code == 2 and out == ""
        assert "--p" in err

    @pytest.mark.parametrize(
        "kind, parameters",
        [
            ("lp", {"p": 2.0}),
            ("morrey", {"p": 2.0, "lam": 0.0, "method": "auto"}),
            ("cmo", {"q": 2.0}),
        ],
    )
    def test_record_lists_the_flags_the_kind_reads(self, invoke, kind, parameters):
        code, out, _ = invoke("norm", kind, "--f", "power:0@chi")
        assert code == 0
        expected = {"f": "power:0@chi", "kind": kind, "n": 1, **parameters}
        assert record_of(out)["parameters"] == expected


class TestSharpnessCommand:
    def test_morrey_passes(self, invoke):
        code, out, _ = invoke(
            "sharpness", "morrey", "--weight", "const:1:2", "--n", "1",
            "--p", "4", "4", "--lambda", "-0.125", "-0.125",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["verdict"] == "sharp-confirmed"
        assert rec["result"]["target"] == pytest.approx(64.0 / 49.0, rel=1e-8)

    def test_failing_verdict_exits_one(self, invoke):
        # demanding an absurd experiment tolerance forces "inconclusive"
        code, out, _ = invoke(
            "sharpness", "lebesgue", "--weight", "const:1:2", "--n", "1",
            "--p", "4", "4", "--eps", "0.1", "0.01",
            "--experiment-tol", "1e-12",
        )
        assert code == 1
        assert record_of(out)["verdict"] == "inconclusive"

    def test_converged_follows_the_report(self, invoke):
        # n/p = 3/2 makes the target diverge: limit and gap are unknown
        code, out, _ = invoke(
            "sharpness", "lebesgue", "--weight", "const:1", "--n", "3", "--p", "2",
        )
        assert code == 1
        rec = record_of(out)
        assert rec["verdict"] == "inconclusive"
        assert rec["result"]["extrapolated"] is None
        assert rec["result"]["relative_gap"] is None
        assert rec["converged"] is False
        # an inconclusive verdict with a known limit still converged
        code, out, _ = invoke(
            "sharpness", "lebesgue", "--weight", "const:1:2", "--n", "1",
            "--p", "4", "4", "--eps", "0.1", "0.01", "--experiment-tol", "1e-12",
        )
        rec = record_of(out)
        assert (code, rec["verdict"], rec["converged"]) == (1, "inconclusive", True)

    def test_csv_mode(self, invoke):
        code, out, _ = invoke(
            "sharpness", "lebesgue", "--weight", "const:1:2", "--n", "1",
            "--p", "4", "4", "--eps", "0.1", "0.01",
            "--experiment-tol", "0.5", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,value,error"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)


class TestCounterexampleCommand:
    def test_passes(self, invoke):
        code, out, _ = invoke(
            "counterexample", "--alpha", "0.5", "--n", "1", "--p", "2",
            "--delta", "1e-2", "1e-4",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["verdict"] == "sharp-confirmed"
        assert rec["result"]["target"] == pytest.approx(4.0)


class TestOscillationCommand:
    def test_passes(self, invoke):
        code, out, _ = invoke(
            "oscillation", "--weight", "const:1", "--axes", "1",
            "--r", "10", "100", "1000",
        )
        assert code == 0
        assert record_of(out)["verdict"] == "sharp-confirmed"

    @pytest.mark.parametrize(
        "radii, named",
        [(("inf",), "r = inf"), (("nan",), "r = nan"), ((), "--r"),
         (("10", "1e12"), "r = 1e+12")],
        ids=["inf", "nan", "empty", "1e12"],
    )
    def test_bad_radius_is_a_usage_error(self, invoke, radii, named):
        code, out, err = invoke("oscillation", "--weight", "const:1", "--axes", "1",
                                "--r", *radii)
        assert code == 2 and out == ""
        assert named in err


class TestProtocol:
    def test_usage_error_exits_two(self, invoke):
        code, _, err = invoke("constant", "lebesgue", "--weight", "bogus:1",
                              "--p", "2")
        assert code == 2
        assert "error" in err.lower()

    def test_unknown_subcommand_exits_two(self, invoke):
        assert invoke("frobnicate")[0] == 2

    def test_missing_required_exits_two(self, invoke):
        assert invoke("constant", "lebesgue", "--weight", "const:1")[0] == 2

    def test_json_round_trip(self, invoke):
        _, out, _ = invoke(
            "constant", "lebesgue", "--weight", "const:1", "--n", "1", "--p", "2"
        )
        line = out.strip()
        assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_byte_identical_modulo_timestamp(self, invoke):
        argv = ("constant", "lebesgue", "--weight", "rl:0.5", "--n", "1",
                "--p", "2", "--seed", "3")
        _, out1, _ = invoke(*argv)
        _, out2, _ = invoke(*argv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_module_runs_the_cli(self):
        src = Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "hardyops", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.strip() == cli.__version__

    def test_every_number_carries_an_error_estimate(self, invoke):
        _, out, _ = invoke(
            "constant", "lebesgue", "--weight", "rl:0.5", "--n", "1", "--p", "2"
        )
        rec = record_of(out)
        assert rec["error_estimate"] is not None
        assert rec["error_estimate"] >= 0
        _, out, _ = invoke("norm", "cmo", "--f", "log", "--q", "2", "--n", "1")
        rec = record_of(out)
        assert rec["error_estimate"] is not None
        # the bound must actually cover the deviation from the exact value
        assert abs(rec["result"]["value"] - 1.0) <= rec["error_estimate"]

    def test_params_file(self, invoke, tmp_path):
        pf = tmp_path / "sweep.params"
        pf.write_text("eps=0.1 0.01\nexperiment-tol=0.2\n")
        code, out, _ = invoke(
            "sharpness", "lebesgue", "--weight", "const:1:2", "--n", "1",
            "--p", "4", "4", "--params-file", str(pf),
        )
        assert code == 0
        rec = record_of(out)
        assert [e for e, _ in rec["result"]["sweep"]] == [0.1, 0.01]

    def test_seed_recorded(self, invoke):
        _, out, _ = invoke(
            "constant", "lebesgue", "--weight", "const:1", "--n", "1",
            "--p", "2", "--seed", "42",
        )
        assert record_of(out)["seed"] == 42


# a non-finite or negative number in a flag or function spec, or a flag
# value that is no number, and the name the error gives; each used to
# print NaN or Infinity, or to fail with an internal message
_NON_FINITE = [
    (("constant", "lebesgue", "--weight", "const:1", "--p", "abc"),
     "argument --p: not a number: 'abc'"),
    (("constant", "lebesgue", "--weight", "riesz:1.5:2", "--p", "4", "4", "--tol", "nan"),
     "argument --tol"),
    (("constant", "lebesgue", "--weight", "const:1", "--p", "2", "--tol", "inf"),
     "argument --tol"),
    (("constant", "lebesgue", "--weight", "const:1", "--p", "2", "--tol", "-1"),
     "argument --tol"),
    (("constant", "lebesgue", "--weight", "const:1:2", "--p", "4", "inf"), "argument --p"),
    (("constant", "morrey", "--weight", "const:1:2", "--p", "4", "4", "--lambda", "-0.1", "nan"),
     "argument --lambda"),
    (("apply", "hardy", "--weight", "const:1", "--f", "cutpow:-0.5:1", "--r", "inf"),
     "argument --r"),
    (("norm", "cmo", "--f", "osccut:1:2", "--q", "inf"), "argument --q"),
    (("norm", "lp", "--f", "power:-0.25", "--p", "inf"), "argument --p"),
    (("oscillation", "--weight", "const:1", "--axes", "1", "--decay-tol", "nan"),
     "argument --decay-tol"),
    (("norm", "lp", "--f", "power:nan", "--p", "2"), "invalid function spec 'power:nan'"),
    (("norm", "lp", "--f", "power:inf", "--p", "2"), "invalid function spec 'power:inf'"),
    (("norm", "lp", "--f", "cutpow:nan:1", "--p", "2"), "invalid function spec 'cutpow:nan:1'"),
    (("norm", "lp", "--f", "cutpow:-0.5:nan", "--p", "2"),
     "invalid function spec 'cutpow:-0.5:nan'"),
    (("norm", "lp", "--f", "power:0@chi:inf", "--p", "2"),
     "invalid function spec 'power:0@chi:inf'"),
    (("norm", "cmo", "--f", "osccut:inf:2", "--q", "2"), "invalid function spec 'osccut:inf:2'"),
    (("norm", "cmo", "--f", "osccut:1:nan", "--q", "2"), "invalid function spec 'osccut:1:nan'"),
]


# numbers at the edge of the double range, and the usage error each gives;
# each used to fail with an internal error
_EXTREME = [
    (("apply", "rl", "--alpha", "1e-300", "--f", "power:0@chi", "--r", "0.5"),
     "alpha must be at least 2**-53"),
    (("apply", "weyl", "--alpha", "1e-300", "--f", "power:0@chi", "--r", "0.5"),
     "alpha must be at least 2**-53"),
    (("counterexample", "--alpha", "1e-300", "--n", "1", "--p", "2"),
     "alpha must be at least 2**-53"),
    (("constant", "lebesgue", "--weight", "rl:1e-300", "--p", "2"),
     "alpha must be at least 2**-53"),
    (("apply", "hardy", "--f", "power:1e308", "--r", "2"),
     "integrand returned a non-finite value"),
]


@pytest.mark.parametrize("argv, named", _EXTREME, ids=[" ".join(argv) for argv, _ in _EXTREME])
def test_extreme_input_is_a_usage_error(invoke, argv, named):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert named in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, named", _NON_FINITE,
                             ids=[" ".join(argv) for argv, _ in _NON_FINITE])
    def test_is_a_usage_error_that_names_it(self, invoke, argv, named):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert named in err
        assert "Warning" not in err

    def test_params_file_values_are_checked_too(self, invoke, tmp_path):
        pf = tmp_path / "bad.params"
        pf.write_text("tol=nan\n")
        code, out, err = invoke(*_BASE["constant"], "--params-file", str(pf))
        assert code == 2 and out == ""
        assert "argument --tol" in err

    @pytest.mark.parametrize("via", ["argv", "params-file"])
    @pytest.mark.parametrize(
        "base, key",
        [(("sharpness", "lebesgue", "--weight", "const:1", "--p", "2"), "experiment-tol"),
         (("oscillation", "--weight", "const:1:2", "--axes", "1"), "decay-tol")],
        ids=["experiment-tol", "decay-tol"],
    )
    def test_negative_verdict_tolerance_is_a_usage_error(self, invoke, tmp_path, base, key,
                                                         via):
        # each used to run and exit 1 with a "violated" record
        if via == "argv":
            extra = (f"--{key}", "-1")
        else:
            pf = tmp_path / "neg.params"
            pf.write_text(f"{key}=-1\n")
            extra = ("--params-file", str(pf))
        code, out, err = invoke(*base, *extra)
        assert code == 2 and out == ""
        assert f"argument --{key}: must be >= 0, got '-1'" in err


# one minimal valid invocation per subcommand
_BASE = {
    "constant": ("constant", "lebesgue", "--weight", "const:1", "--p", "2"),
    "apply": ("apply", "hardy", "--f", "power:0@chi", "--r", "2"),
    "norm": ("norm", "lp", "--f", "power:0@chi"),
    "sharpness": ("sharpness", "lebesgue", "--weight", "const:1:2", "--p", "4", "4",
                  "--eps", "0.1", "0.01", "--experiment-tol", "0.5"),
    "counterexample": ("counterexample", "--alpha", "0.5", "--p", "2",
                       "--delta", "1e-2", "1e-4"),
    "oscillation": ("oscillation", "--weight", "const:1", "--axes", "1", "--r", "10"),
}

# the flags each subcommand declares no longer (15 slots)
_REMOVED = [(cmd, "--rtol", "1e-2") for cmd in _BASE] + [
    ("norm", "--tol", "1e-2"),
    # no constant family reads symbol exponents; --q 1.5 used to fail on a
    # derived p that no family uses
    ("constant", "--q", "1.5"),
    ("constant", "--csv", None),
    ("apply", "--csv", None),
    ("norm", "--csv", None),
    ("apply", "--seed", "7"),
    ("sharpness", "--seed", "7"),
    ("counterexample", "--seed", "7"),
    ("oscillation", "--seed", "7"),
]


class TestFlagSlots:
    @pytest.mark.parametrize("command, flag, value", _REMOVED)
    def test_unread_flag_is_rejected(self, invoke, command, flag, value):
        extra = (flag,) if value is None else (flag, value)
        code, out, err = invoke(*_BASE[command], *extra)
        assert code == 2 and out == ""
        assert flag in err

    @pytest.mark.parametrize("command", list(_BASE))
    def test_seed_and_tolerances(self, invoke, command):
        _, out, _ = invoke(*_BASE[command])
        rec = record_of(out)
        assert rec["seed"] == (0 if command == "constant" else None)
        if command == "norm":
            assert rec["tolerances"] == {"abs": None, "rel": None}
        else:
            assert rec["tolerances"] == {"abs": 1e-10, "rel": 1e-8}

    def test_oscillation_quadrature_gets_the_recorded_tol(self, invoke, monkeypatch):
        seen = []
        check = cli.oscillation_decay_check

        def spy(*args, **kwargs):
            seen.append(kwargs["quad_tol"])
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, "oscillation_decay_check", spy)
        _, out, _ = invoke(*_BASE["oscillation"], "--tol", "1e-12")
        assert seen == [record_of(out)["tolerances"]["abs"]] == [1e-12]

    def test_defaults_come_from_the_experiments(self, invoke):
        _, out, _ = invoke("counterexample", "--alpha", "0.5", "--p", "2")
        assert record_of(out)["parameters"]["delta"] == list(DEFAULT_DELTA_SEQUENCE)
        _, out, _ = invoke("oscillation", "--weight", "const:1", "--axes", "1")
        params = record_of(out)["parameters"]
        assert params["r"] == list(DEFAULT_R_SEQUENCE)
        assert params["decay_tol"] == DEFAULT_DECAY_TOL


# one valid invocation per kind that the kind rules below name
_KIND_BASE = {
    "apply rl": ("apply", "rl", "--alpha", "0.3", "--f", "power:0@chi", "--r", "2"),
    "apply weyl": ("apply", "weyl", "--alpha", "0.5", "--f", "power:0@chi", "--r", "0.25"),
    "apply hardy": _BASE["apply"],
    "apply cesaro": ("apply", "cesaro", "--f", "power:0@chi", "--r", "0.5"),
    "apply hardy-comm": ("apply", "hardy-comm", "--f", "power:-0.25", "--b", "log", "--r", "1"),
    "apply cesaro-comm": ("apply", "cesaro-comm", "--f", "power:-0.25", "--b", "log",
                          "--r", "1"),
    "constant lebesgue": _BASE["constant"],
    "constant cesaro-lebesgue": ("constant", "cesaro-lebesgue", "--weight", "const:1", "--p", "4"),
    "constant morrey": ("constant", "morrey", "--weight", "const:1", "--p", "4",
                        "--lambda", "-0.125"),
    "constant cesaro-log": ("constant", "cesaro-log", "--weight", "const:1", "--p", "4",
                            "--lambda", "-0.125"),
    "sharpness lebesgue": ("sharpness", "lebesgue", "--weight", "const:1", "--p", "2"),
    "sharpness cesaro": ("sharpness", "cesaro", "--weight", "const:1", "--p", "2"),
    "sharpness morrey": ("sharpness", "morrey", "--weight", "const:1:2", "--p", "4", "4",
                         "--lambda", "-0.125", "-0.125"),
    "sharpness commutator": ("sharpness", "commutator", "--weight", "const:1:2",
                             "--p", "4", "4", "--lambda", "-0.125", "-0.125"),
}

# a flag its subcommand declares, given to a kind that does not read it
_UNREAD = [
    *(("apply rl", flag, value) for flag, value in
      (("--weight", "riesz:1.5:2"), ("--m", "2"), ("--n", "3"), ("--b", "log"))),
    *(("apply weyl", flag, value) for flag, value in
      (("--weight", "const:1"), ("--m", "1"), ("--n", "1"), ("--b", "log"))),
    *((f"apply {op}", "--alpha", "0.3") for op in cli._AVERAGES),
    ("apply hardy", "--b", "log"),
    ("apply cesaro", "--b", "log"),
    *((base, flag, value) for base in ("constant lebesgue", "constant morrey",
                                       "constant cesaro-log")
      for flag, value in (("--axes", "1"), ("--shift", "2"))),
    ("sharpness morrey", "--eps", "0.3"),
    ("sharpness commutator", "--eps", "0.3"),
    # the Lebesgue-type exponents -n/p_i and -n(1 - 1/p_i) read no lambda_i
    ("constant lebesgue", "--lambda", "-0.3"),
    ("constant cesaro-lebesgue", "--lambda", "-0.3"),
    ("sharpness lebesgue", "--lambda", "-0.1"),
    ("sharpness cesaro", "--lambda", "-0.1"),
]


class TestKindRules:
    """A flag reaches only the kinds that read it, and only they record it."""

    @pytest.mark.parametrize("base, flag, value", _UNREAD)
    def test_unread_flag_is_a_usage_error(self, invoke, base, flag, value):
        code, out, err = invoke(*_KIND_BASE[base], flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {base} does not read {flag}\n"

    @pytest.mark.parametrize(
        "base, flag",
        [("apply rl", "--alpha"), ("apply weyl", "--alpha"),
         ("apply hardy-comm", "--b"), ("apply cesaro-comm", "--b")],
    )
    def test_required_flag_is_named(self, invoke, base, flag):
        argv = list(_KIND_BASE[base])
        del argv[argv.index(flag):argv.index(flag) + 2]
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert err == f"error: {base} requires {flag}\n"

    @pytest.mark.parametrize(
        "base, parameters",
        [
            ("apply rl", {"alpha": 0.3, "f": ["power:0@chi"], "operator": "rl", "r": 2.0}),
            ("apply hardy", {"f": ["power:0@chi"], "n": 1, "operator": "hardy", "r": 2.0,
                             "weight": "const:1"}),
            ("constant cesaro-log", {"family": "cesaro-log", "lam": [-0.125], "n": 1,
                                     "p": [4.0], "seed": 0, "truncation": 0.0,
                                     "weight": "const:1"}),
        ],
    )
    def test_record_lists_the_flags_the_kind_reads(self, invoke, base, parameters):
        code, out, _ = invoke(*_KIND_BASE[base])
        assert code == 0
        assert record_of(out)["parameters"] == {**parameters, "tol": 1e-10}

    def test_log_moment_defaults_its_axes_and_shift(self, invoke):
        code, out, _ = invoke("constant", "log-moment", "--weight", "const:1:2",
                              "--p", "4", "4", "--lambda", "-0.125", "-0.125")
        assert code == 0
        assert record_of(out)["parameters"]["shift"] == 1.0
        _, explicit, _ = invoke("constant", "log-moment", "--weight", "const:1:2",
                                "--p", "4", "4", "--lambda", "-0.125", "-0.125",
                                "--axes", "1", "2", "--shift", "1")
        assert record_of(explicit)["result"] == record_of(out)["result"]

    @pytest.mark.parametrize("family", list(cli._FAMILIES))
    def test_every_family_takes_the_seed(self, invoke, family):
        lam = ("--lambda", "-0.125") if family in ("morrey", "log-moment", "cesaro-log") else ()
        code, out, _ = invoke("constant", family, "--weight", "const:1", "--p", "4", *lam,
                              "--seed", "0")
        assert code == 0
        assert record_of(out)["seed"] == 0

    @pytest.mark.parametrize(
        "base, text, message",
        [
            ("norm", "p=3\n\ntol=1e-9\n", "line 3: norm lp does not read --tol"),
            ("norm", "q=3\n", "line 1: norm lp does not read --q"),
            ("constant", "# sweep\nfrob=1\n", "line 2: constant lebesgue does not read --frob"),
            ("sharpness", "csv=true\n", "line 1: --csv takes no value"),
            ("counterexample", "seed 1\n", "line 1: malformed params line 'seed 1'"),
        ],
        ids=["tol-on-norm", "q-on-lp", "unknown", "csv-value", "malformed"],
    )
    def test_params_file_error_names_file_line_and_key(self, invoke, tmp_path, base, text,
                                                       message):
        pf = tmp_path / "bad.params"
        pf.write_text(text)
        code, out, err = invoke(*_BASE[base], "--params-file", str(pf))
        assert code == 2 and out == ""
        assert err == f"error: {pf} {message}\n"

    def test_params_file_without_a_path(self, invoke):
        code, out, err = invoke(*_BASE["constant"], "--params-file")
        assert code == 2 and out == ""
        assert err == "error: --params-file requires a path\n"


def readme_flag_table():
    """{flag: {(subcommand, kind)}} from README.md's flag table (kind None: every kind)."""
    table = {}
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        cells = line.split(" | ")
        if len(cells) == 3 and cells[0].startswith("| `--"):
            flag = re.match(r"\| `(--[a-z-]+)", cells[0]).group(1)
            table[flag] = {
                (command, kind)
                for command, kinds in re.findall(r"`([a-z-]+)`(?: \(([^)]*)\))?", cells[1])
                for kind in (re.findall(r"`([a-z-]+)`", kinds) or [None])
            }
    return table


class TestReadmeFlagTable:
    def test_every_flag_is_read_where_the_table_says(self):
        declared = {}
        for flag, where, _ in cli._FLAGS:
            for command, kinds in where.items():
                declared.setdefault(flag, set()).update((command, k) for k in kinds or [None])
        assert readme_flag_table() == declared


CLI_HELP = Path(__file__).parent / "data" / "cli_help.json"

# the seven help screens, then invocations that fail before any computation
CLI_TEXT_ARGV = [
    ["--help"],
    *([command, "--help"] for command in
      ("constant", "apply", "norm", "sharpness", "counterexample", "oscillation")),
    [],
    ["frobnicate"],
    ["constant", "lebesgue", "--weight", "const:1"],
    ["constant", "lebesgue", "--weight", "const:1", "--p", "2", "--tol", "nan"],
    ["constant", "lebesgue", "--weight", "const:1:2", "--m", "3", "--p", "4", "4"],
    ["apply", "rl", "--f", "power:0@chi", "--r", "2"],
    ["apply", "hardy-comm", "--f", "power:-0.25", "--r", "1"],
    ["apply", "weyl", "--alpha", "0.5", "--f", "log", "log", "--r", "1"],
    ["norm", "cmo", "--f", "log", "--p", "7"],
    ["norm", "lp", "--f", "power:0@chi", "--rtol", "1e-2"],
    ["norm", "lp", "--f", "power:0@chi", "--params-file", "missing.params"],
    # the parser paths the per-subcommand build splits: no subcommand, a
    # flag after a subcommand, and a flag another subcommand declares
    ["--version"],
    ["--version", "constant"],
    ["constant", "lebesgue", "--weight", "const:1", "--p", "2", "--version"],
    ["constant", "lebesgue", "--weight", "const:1", "--p", "2", "--decay-tol", "1"],
]


def cli_text(argv):
    """Exit code, stdout and stderr of `run(argv)` on an 80-column terminal."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


class TestCliText:
    """Help screens and usage errors, byte for byte.

    `tests/data/cli_help.json` maps each argv of `CLI_TEXT_ARGV` to its
    exit code, stdout and stderr; it is regenerated with the README
    records (see `TestReadmeCommands`).
    """

    def test_all_pinned(self):
        pinned = json.loads(CLI_HELP.read_text())
        assert list(pinned) == [shlex.join(argv) for argv in CLI_TEXT_ARGV]

    @pytest.mark.parametrize("argv", CLI_TEXT_ARGV, ids=shlex.join)
    def test_text_is_pinned(self, argv):
        assert cli_text(argv) == json.loads(CLI_HELP.read_text())[shlex.join(argv)]


README_RECORDS = Path(__file__).parent / "data" / "readme_records.json"


def pinned_record(out):
    """The record `out` holds, without its `timestamp`."""
    rec = record_of(out)
    del rec["timestamp"]
    return rec


class TestReadmeCommands:
    """Each README command exits 0, converges and prints its pinned record.

    `tests/data/readme_records.json` maps every command line to its record
    without `timestamp`.  After a change that is meant to move a record,
    regenerate the file with ``PYTHONPATH=src python tests/test_cli.py``
    and list the moved fields in CHANGES.md.
    """

    def test_all_found(self):
        assert len(README_COMMANDS) == 18
        assert set(json.loads(README_RECORDS.read_text())) == set(README_COMMANDS)

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_documented_command_passes(self, invoke, line):
        code, out, err = invoke(*shlex.split(line)[1:])
        assert code == 0, err
        rec = pinned_record(out)
        assert rec.get("converged", True) is True
        assert rec == json.loads(README_RECORDS.read_text())[line]


if __name__ == "__main__":
    records = {}
    for line in README_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run(shlex.split(line)[1:])
        records[line] = pinned_record(out.getvalue())
    README_RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    texts = {shlex.join(argv): cli_text(argv) for argv in CLI_TEXT_ARGV}
    CLI_HELP.write_text(json.dumps(texts, indent=1) + "\n")
