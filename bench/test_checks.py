"""Self-tests of the benchmark's checks, tracer and output format.

    python3 -m pytest -q bench/test_checks.py

Runs every operation of the three workloads once (about 15 s), then
feeds the checks altered outputs: a value moved by a relative 1e-9 (or
by more than its own error estimate where that is larger), or an output
judged against another operation's reference, must fail.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hardyops  # noqa: E402
import pytest  # noqa: E402
import spans  # noqa: E402
from checks import Check  # noqa: E402
from hardyops import QuadratureResult, SharpnessReport  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@lru_cache(maxsize=None)
def outputs(workload: str):
    ops = WORKLOADS[workload](seed=7)
    return ops, [op.call() for op in ops]


def moved(output, factor: float):
    """The output with its values (the second one, for a pair) scaled by `factor`."""
    if isinstance(output, float):
        return output * factor
    if isinstance(output, QuadratureResult):
        return dataclasses.replace(output, value=output.value * factor)
    if isinstance(output, SharpnessReport):
        return dataclasses.replace(
            output, target=output.target * factor,
            sweep=tuple((x, v * factor) for x, v in output.sweep),
        )
    if isinstance(output[0], int):  # (exit code, CLI record)
        code, text = output
        record = json.loads(text)
        result = record["result"]
        if "extrapolated" in result:
            result["extrapolated"] *= factor
            result["sweep"] = [[x, v * factor] for x, v in result["sweep"]]
        else:
            result["value"] *= factor
        return code, json.dumps(record)
    return output[0], moved(output[1], factor)


def shift_for(op, output) -> float:
    """Relative shift the op's check must catch: 1e-9 unless its tolerance is wider."""
    if op.name.startswith("duality"):
        return 1e-5  # the pairing identity is checked to 1e-6
    if isinstance(output, tuple) and isinstance(output[0], int):
        record = json.loads(output[1])
        estimate, value = record["error_estimate"], record["result"].get("value")
        if estimate and value:
            return max(1e-9, 2.0 * estimate / abs(value))  # Monte Carlo
    return 1e-9


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_pass_and_moved_outputs_fail(workload):
    ops, outs = outputs(workload)
    for op, out in zip(ops, outs):
        assert op.check(out).ok != bool(op.known_fault), op.name
        for sign in (1.0, -1.0):
            assert not op.check(moved(out, 1.0 + sign * shift_for(op, out))).ok, op.name


def test_wrong_reference_fails():
    ops, outs = outputs("headline")
    for i, out in enumerate(outs):
        other = ops[(i + 1) % len(ops)]
        try:
            ok = other.check(out).ok
        except (KeyError, TypeError, ValueError):
            ok = False
        assert not ok, (ops[i].name, other.name)
    ops, outs = outputs("corner")
    by_name = dict(zip((op.name for op in ops), zip(ops, outs)))
    riesz2, _ = by_name["lebesgue riesz:1.5:2 p=4,4"]
    _, riesz3_out = by_name["lebesgue riesz:2.5:3 p=6,6,6"]
    assert not riesz2.check(riesz3_out).ok


def test_known_faults_are_the_two_named():
    faulty = [op.name for w in WORKLOADS for op in outputs(w)[0] if op.known_fault]
    assert sorted(faulty) == [
        "cesaro-log const:1:2",
        "oscillation_decay_check const:1:2 axes (1,) r=10,100,200",
    ]


def test_seed_changes_order_not_work():
    a = [op.name for op in WORKLOADS["headline"](1)]
    b = [op.name for op in WORKLOADS["headline"](2)]
    assert a != b and sorted(a) == sorted(b)


def test_check_digits_and_slack():
    chk = Check()
    chk.close("exact", 2.0, 2.0, 0.0)
    chk.close("estimate", 2.0 + 1e-12, 2.0, 2e-12)
    assert chk.ok and chk.digits[0] == 17.0 and 11.0 < chk.digits[1] < 13.0
    chk.close("no estimate", 2.0 * (1 + 1e-9), 2.0)
    assert not chk.ok


def test_tracer_patches_every_binding_and_restores_it():
    original = hardyops.numerics.integrate_unit_cube
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (hardyops.constants, hardyops.operators, hardyops.experiments):
            assert module.integrate_unit_cube.__wrapped__ is original
        assert hardyops.numerics._axis_rule.__wrapped__ is not None
        tracer.begin_pass()
        hardyops.lebesgue_constant(hardyops.constant_weight(1, 2),
                                   hardyops.ExponentConfig(1, (4.0, 4.0)))
        layers = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert hardyops.constants.integrate_unit_cube is original
    assert layers["constants.calls"] == 1 and layers["numerics.cube_calls"] == 1
    assert layers["numerics.rule_builds"] == 4  # two axes, two levels
    assert layers["numerics.evaluations"] == 643072


def _last_json(args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _last_json(["--workload", "headline", "--seed", "1", "--seconds", "0.1",
                             "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] * 12 == result["attempted"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
