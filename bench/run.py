"""Benchmark of hardyops: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload headline --seed 1 --seconds 30 --trace 0

The run is a closed loop with one caller: this process makes the
workload's calls one after another, in passes over the operation list,
until `--seconds` have elapsed (whole passes only); the first pass is a
warm-up and stays out of the timing medians.  Every output is
checked against an independent reference or a property the method must
have.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics (no wrappers installed); with ``--trace 1`` half the time runs
untraced and half traced, and it holds the per-layer metrics.  Raw
per-pass figures and the traced spans go to ``bench/out/``.

The package is imported from ``src/`` of the checkout this file sits
in; the run stops with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> unit of every end-to-end metric
END_TO_END = {
    "pass_s": "s",
    "cpu_s": "s",
    "digits_min": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_SAMPLES = 9

# A fresh interpreter imports the package and makes one small CLI call; it
# prints the monotonic clock (shared by all processes) when that returns.
_SETUP_CHILD = """
import contextlib, io, json, time
import hardyops, hardyops.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = hardyops.cli.run(["constant", "lebesgue", "--weight", "const:1", "--p", "2"])
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(json.dumps({"done": done, "code": code, "record": out.getvalue(),
                  "file": hardyops.__file__}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HARDYOPS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class SetupTimer:
    """Set-up samples spread over the run's passes.

    A sample is the time from spawning a fresh interpreter to its
    warm-up call returning.  Spreading the spawns over the run keeps one
    slow phase of the shared host from setting the median.  One extra
    first spawn is discarded: it may page in the interpreter and compile
    bytecode.
    """

    def __init__(self, samples: int, seconds: float):
        self.samples = samples
        self.interval = seconds / samples
        self.times: list[float] = []
        self._env = _child_env()
        self._spawn()
        self._last = -math.inf

    def _spawn(self) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], env=self._env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(report["record"])
        if (report["code"] != 0 or not _inside_src(report["file"])
                or abs(record["result"]["value"] - 2.0) > 1e-12):
            raise RuntimeError(f"set-up probe returned {report}")
        return report["done"] - start

    def between_passes(self, elapsed: float) -> None:
        if len(self.times) < self.samples and elapsed - self._last >= self.interval:
            self._last = elapsed
            self.times.append(self._spawn())

    def finish(self) -> list[float]:
        while len(self.times) < self.samples:
            self.times.append(self._spawn())
        return self.times


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def blas_facts() -> dict:
    """The BLAS library numpy uses and its thread count (read from OpenBLAS)."""
    import ctypes

    import numpy as np

    facts = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return facts
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def run_passes(ops, seconds: float, tracer=None, between_passes=None) -> list[dict]:
    """Whole passes over `ops` until `seconds` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if between_passes is not None:
            between_passes(time.perf_counter() - start)
        if tracer is not None:
            tracer.begin_pass()
        wall = cpu = 0.0
        outputs = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(f"{len(passes)}:{i}")
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                output, error = op.call(), None
            except Exception as exc:  # an operation that raises counts as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            outputs.append((output, error))
        record = {"wall_s": wall, "cpu_s": cpu, "outputs": outputs}
        if tracer is not None:
            record["layers"] = tracer.end_pass()
        passes.append(record)
    return passes


def timed(passes: list[dict]) -> list[dict]:
    """The passes that enter the medians: the first one warms up, when there are more."""
    return passes[1:] if len(passes) > 1 else passes


def judge(ops, passes) -> dict:
    """Check every output of every pass; repeats of an operation must be bit-identical."""
    attempted = failed = 0
    unexpected = []
    digits = []
    first_values = {}
    for record in passes:
        for i, (op, (output, error)) in enumerate(zip(ops, record["outputs"])):
            attempted += 1
            problems = [error] if error else []
            if not error:
                try:
                    chk = op.check(output)
                except Exception as exc:  # a malformed output fails its check
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
                else:
                    problems += chk.problems
                    digits += chk.digits
                    values = [repr(v) for v in chk.values]  # repr round-trips exactly
                    if first_values.setdefault(i, values) != values:
                        problems.append("repeat is not bit-identical")
            if problems:
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.name}: {'; '.join(problems)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": sorted(set(unexpected)),
        "digits_min": min(digits) if digits else math.nan,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("headline", "pairing", "corner"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hardyops" / "__init__.py").is_file():
        print(f"error: no hardyops package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HARDYOPS_THREADS", None)
    sys.path.insert(0, str(SRC))

    import hardyops

    if not _inside_src(hardyops.__file__):
        print(f"error: hardyops imported from {hardyops.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer, summarize
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    traced, setup = [], []
    if args.trace == 0:
        timer = SetupTimer(SETUP_SAMPLES, args.seconds)
        passes = run_passes(ops, args.seconds, between_passes=timer.between_passes)
        setup = timer.finish()
    else:
        passes = run_passes(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    verdict = judge(ops, passes + traced)
    pass_s = median(p["wall_s"] for p in timed(passes))
    if args.trace == 0:
        metrics = {
            "pass_s": pass_s,
            "cpu_s": median(p["cpu_s"] for p in timed(passes)),
            "digits_min": verdict["digits_min"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        overhead = median(p["wall_s"] for p in timed(traced)) - pass_s
        metrics = summarize([p["layers"] for p in timed(traced)], overhead)

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **blas_facts(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "args": vars(args),
        "facts": facts,
        "operations": [op.name for op in ops],
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"]} for p in passes],
        "traced_passes": [{"wall_s": p["wall_s"], **p["layers"]} for p in traced],
        "setup_s": setup,
        "unexpected_failures": verdict["unexpected"],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if traced:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "layer", "name", "start", "end"), span))) + "\n")
    for line in verdict["unexpected"]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict["unexpected"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
