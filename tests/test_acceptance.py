"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines with their runtimes.  Every tolerance is pinned here; the
stated runtime budgets are asserted as hard limits.
"""

import math
import random
import time

import numpy as np
import pytest

from hardyops.constants import (
    cesaro_lebesgue_constant,
    closed_form,
    lebesgue_constant,
    log_moment_constant,
)
from hardyops.experiments import (
    SHARP_CONFIRMED,
    _halfline_nodes,
    commutator_pointwise_check,
    counterexample_report,
    duality_check,
    lebesgue_sharpness_sweep,
    morrey_sharpness_check,
    oscillation_decay_check,
)
from hardyops.numerics import gamma, integrate_unit_cube, EndpointBehavior
from hardyops.operators import OperatorRequest, cesaro_apply, hardy_apply, weyl_apply
from hardyops.spaces import (
    ExponentConfig,
    central_morrey_norm,
    central_morrey_profile,
    cutoff_power,
    indicator_ball,
    lebesgue_norm,
    power,
    radial_from_callable,
    unit_sphere_volume,
)
from hardyops.weights import (
    constant_weight,
    counterexample_weight,
    multilinear_riesz_weight,
    riemann_liouville_weight,
    weyl_weight,
)

ONE = constant_weight(1, 1)
ONE2 = constant_weight(1, 2)


class _Clock:
    def __init__(self, criterion, description, limit):
        self.criterion = criterion
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[criterion {self.criterion:02d}] {status} "
            f"({elapsed:.2f}s / limit {self.limit:g}s) {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_01_hardy_sharp_constant():
    with _Clock(1, "classical Hardy constant p/(p-1) at p=2", 1.0):
        res = lebesgue_constant(ONE, ExponentConfig(1, (2.0,)))
        assert res.converged
        assert abs(res.value - 2.0) <= 1e-8


def test_criterion_02_fractional_integral_constant():
    with _Clock(2, "fractional averaging constant vs Gamma ratio", 5.0):
        for p, alpha in [(2.0, 0.5), (3.0, 0.25), (4.0, 0.75)]:
            res = lebesgue_constant(
                riemann_liouville_weight(alpha), ExponentConfig(1, (p,))
            )
            expect = gamma(1 - 1 / p) / gamma(1 + alpha - 1 / p)
            assert res.converged
            assert abs(res.value - expect) / expect <= 1e-6


def test_criterion_03_bilinear_lebesgue_constant():
    with _Clock(3, "bilinear flat-weight constant 16/9", 1.0):
        res = lebesgue_constant(ONE2, ExponentConfig(1, (4.0, 4.0)))
        assert res.converged
        assert abs(res.value - 16.0 / 9.0) <= 1e-8


def test_criterion_04_lebesgue_sharpness_sweep():
    with _Clock(4, "extremal-family lower bounds approach 16/9", 30.0):
        rep = lebesgue_sharpness_sweep(ONE2, ExponentConfig(1, (4.0, 4.0)))
        target = rep.target
        values = dict(rep.sweep)
        assert values[1e-3] >= 0.95 * target
        ordered = sorted(rep.sweep)  # ascending eps
        assert all(
            ordered[k][1] >= ordered[k + 1][1] for k in range(len(ordered) - 1)
        ), "lower bounds must grow as eps shrinks"
        assert all(v <= target * (1 + 1e-6) for _, v in rep.sweep)
        assert rep.verdict == SHARP_CONFIRMED


def test_criterion_05_morrey_sharpness_equality():
    with _Clock(5, "balanced Morrey norm ratio equals 64/49", 10.0):
        rep = morrey_sharpness_check(
            ONE2, ExponentConfig(1, (4.0, 4.0), (-0.125, -0.125))
        )
        assert abs(rep.target - 64.0 / 49.0) / (64.0 / 49.0) <= 1e-8
        assert rep.relative_gap <= 1e-6
        assert rep.verdict == SHARP_CONFIRMED


def test_criterion_06_power_morrey_norm():
    with _Clock(6, "power-function Morrey norm: closed form vs grid sup", 5.0):
        n, p, lam = 1, 4.0, -0.125
        f = power(n * lam)
        closed = (unit_sphere_volume(n) / n) ** (-lam) * (1 + lam * p) ** (-1 / p)
        assert central_morrey_norm(f, p, lam, n, method="closed") == pytest.approx(
            closed, rel=1e-12
        )
        grid = central_morrey_norm(f, p, lam, n, method="grid")
        assert abs(grid - closed) / closed <= 1e-6
        prof = central_morrey_profile(
            f, p, lam, n, np.logspace(-3, 3, 7), force_quadrature=True
        )
        vals = [v for _, v in prof]
        assert (max(vals) - min(vals)) / min(vals) <= 1e-9


def test_criterion_07_commutator_pointwise_identity():
    with _Clock(7, "log-symbol commutator reduces to r^(n lam) B2", 10.0):
        config = ExponentConfig(1, (4.0, 4.0), (-0.125, -0.125))
        rep = commutator_pointwise_check(ONE2, config)
        b2 = (64.0 / 49.0) ** 2
        assert abs(rep.target - b2) / b2 <= 1e-6
        assert {r for r, _ in rep.sweep} == {0.1, 1.0, 10.0}
        for _, v in rep.sweep:
            assert abs(v - rep.target) / rep.target <= 1e-6
        assert rep.verdict == SHARP_CONFIRMED


def test_criterion_08_shifted_log_moment_identity():
    with _Clock(8, "shifted log moment = plain*log2 + log moment", 10.0):
        cases = [
            (ONE, 0.0),
            (riemann_liouville_weight(0.5), 0.0),
            (counterexample_weight(0.5, 1, 2), 1e-6),
        ]
        config = ExponentConfig(1, (2.0,))
        for w, trunc in cases:
            a = log_moment_constant(w, config, (), truncation=trunc).value
            b = log_moment_constant(w, config, (1,), 1.0, truncation=trunc).value
            c = log_moment_constant(w, config, (1,), 2.0, truncation=trunc).value
            assert abs(c - (a * math.log(2.0) + b)) / c <= 1e-8, w.label


def test_criterion_09_counterexample():
    with _Clock(9, "finite plain moment, log moment grows per the law", 20.0):
        for alpha in (0.25, 0.5, 0.75):
            res = lebesgue_constant(
                counterexample_weight(alpha, 1, 2), ExponentConfig(1, (2.0,))
            )
            expect = closed_form("counterexample_A", alpha=alpha)
            assert abs(res.value - expect) / expect <= 1e-6
        rep = counterexample_report(0.5, 1, 2, delta_sequence=(1e-2, 1e-4, 1e-6))
        values = [v for _, v in rep.sweep]
        assert values == sorted(values), "truncated log moment must increase"
        assert rep.relative_gap <= 1e-2
        assert rep.verdict == SHARP_CONFIRMED


def test_criterion_10_riemann_lebesgue_decay():
    with _Clock(10, "oscillatory integrals decay along r", 10.0):
        rep1 = oscillation_decay_check(ONE, (1,), r_sequence=(10.0, 100.0, 1000.0))
        assert rep1.verdict == SHARP_CONFIRMED
        assert dict(rep1.sweep)[1000.0] <= 1e-3
        rep2 = oscillation_decay_check(
            ONE2, (1, 2), r_sequence=(10.0, 100.0), tol=1e-4, quad_tol=1e-8
        )
        assert rep2.verdict == SHARP_CONFIRMED
        assert dict(rep2.sweep)[100.0] <= 1e-4


def test_criterion_11_adjoint_duality():
    with _Clock(11, "Hardy/Cesaro adjoint pairing identity", 10.0):
        for weight in (ONE, riemann_liouville_weight(0.5)):
            for n in (1, 2):
                f = cutoff_power(-0.8 * n, 1.0)
                g = cutoff_power(-0.8 * n, 0.5)
                lhs, rhs = duality_check(weight, f, g, n)
                assert abs(lhs - rhs) / abs(rhs) <= 1e-6, (weight.label, n)


def test_criterion_12_cesaro_constant_and_reductions():
    with _Clock(12, "Cesaro constant, tail average, Weyl reduction", 10.0):
        res = cesaro_lebesgue_constant(ONE2, ExponentConfig(1, (4.0, 4.0)))
        assert abs(res.value - 16.0) / 16.0 <= 1e-6
        tail = cesaro_apply(OperatorRequest(ONE, (indicator_ball(1.0),), 0.5))
        assert abs(tail.value - math.log(2.0)) <= 1e-8
        w = weyl_weight(0.5)
        f = indicator_ball(1.0)
        for x in (0.25, 0.5):
            lhs = cesaro_apply(OperatorRequest(w, (f,), x)).value
            rhs = x**0.5 * weyl_apply(0.5, f, x).value
            assert abs(lhs - rhs) / abs(rhs) <= 1e-8


# ---------------------------------------------------------------------------
# criterion 13: randomized property suite
# ---------------------------------------------------------------------------


def _random_instance(rng):
    """One randomized operator instance with p-integrable cutoff powers."""
    m = 1 if rng.random() < 0.7 else 2
    n = rng.choice((1, 2)) if m == 1 else 1
    if m == 1:
        kind = rng.choice(("const", "rl", "weyl"))
        if kind == "const":
            weight = ONE
        elif kind == "rl":
            weight = riemann_liouville_weight(rng.uniform(0.2, 0.8))
        else:
            weight = weyl_weight(rng.uniform(0.2, 0.8))
        p_i = (rng.uniform(n + 0.3, 4.0),)
    else:
        weight = ONE2 if rng.random() < 0.6 else multilinear_riesz_weight(
            rng.uniform(0.8, 1.6), 2
        )
        p_i = (rng.uniform(2.2, 4.0), rng.uniform(2.2, 4.0))
    funcs = tuple(
        cutoff_power(-n / p - rng.uniform(0.1, 0.7), rng.uniform(0.2, 1.5))
        for p in p_i
    )
    radius = max(f.descriptor.r_min for f in funcs) + rng.uniform(0.5, 2.0)
    return weight, ExponentConfig(n, p_i), funcs, radius


def _hardy_profile_m1(weight, f, n, radii):
    return np.array(
        [
            hardy_apply(OperatorRequest(weight, (f,), float(r), n, tol=1e-10)).value
            for r in radii
        ]
    )


def _hardy_lp_norm(weight, config, funcs):
    """||H(f)||_p by an outer graded rule over operator profiles."""
    n, p = config.n, config.p
    lo = max(f.descriptor.r_min for f in funcs)
    tails = []
    for f, wb in zip(funcs, weight.behaviors):
        a = f.descriptor.exponent
        moment_rate = a + 1.0 + wb.exponent_at_zero
        tails.append(a if moment_rate > 0 else -(1.0 + wb.exponent_at_zero))
    tail = p * sum(tails) + n - 1.0
    radii, wts = _halfline_nodes(lo, tail, 12, 10)
    if len(funcs) == 1:
        profile = _hardy_profile_m1(weight, funcs[0], n, radii)
    else:
        # only the flat product weight takes this path: it factors across
        # slots (verified per instance where used)
        profile = _hardy_profile_m1(ONE, funcs[0], n, radii)
        profile = profile * _hardy_profile_m1(ONE, funcs[1], n, radii)
    vals = np.abs(profile) ** p * radii ** (n - 1)
    return (unit_sphere_volume(n) * float(vals @ wts)) ** (1.0 / p)


def test_criterion_13_property_suites():
    with _Clock(13, "randomized invariants on 50 cutoff-power instances", 60.0):
        rng = random.Random(20260810)
        coupled_hoelder_done = False
        for _ in range(50):
            weight, config, funcs, radius = _random_instance(rng)
            m, n = config.m, config.n
            req = OperatorRequest(weight, funcs, radius, n, tol=1e-10)
            value = hardy_apply(req).value

            # positivity
            assert value >= 0.0

            # determinism: identical calls are bit-identical
            assert hardy_apply(req).value == value

            # multilinearity in the first slot
            c = rng.uniform(0.5, 3.0)
            scaled = radial_from_callable(
                lambda r, _c=c, _f=funcs[0]: _c * _f.fn(r),
                breakpoints=funcs[0].breakpoints,
            )
            v_scaled = hardy_apply(
                OperatorRequest(weight, (scaled,) + funcs[1:], radius, n, tol=1e-10)
            ).value
            assert v_scaled == pytest.approx(c * value, rel=1e-9, abs=1e-12)

            # dilation covariance
            s = rng.uniform(0.4, 2.5)
            dilated = tuple(
                radial_from_callable(
                    lambda r, _s=s, _f=f: _f.fn(_s * r),
                    breakpoints=tuple(b / s for b in f.breakpoints),
                )
                for f in funcs
            )
            lhs = hardy_apply(
                OperatorRequest(weight, dilated, radius, n, tol=1e-10)
            ).value
            rhs = hardy_apply(
                OperatorRequest(weight, funcs, s * radius, n, tol=1e-10)
            ).value
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

            # Hoelder consistency against the sharp constant
            target = lebesgue_constant(weight, config, tol=1e-10)
            bound = target.value
            for f, p in zip(funcs, config.p_i):
                bound *= lebesgue_norm(f, p, n)
            if m == 1:
                norm = _hardy_lp_norm(weight, config, funcs)
                assert norm <= bound * (1 + 1e-6)
            elif weight is ONE2:
                # separability of the flat product weight, then fast profiles
                sep = (
                    hardy_apply(OperatorRequest(ONE, funcs[:1], radius, n)).value
                    * hardy_apply(OperatorRequest(ONE, funcs[1:], radius, n)).value
                )
                assert sep == pytest.approx(value, rel=1e-9, abs=1e-12)
                norm = _hardy_lp_norm(weight, config, funcs)
                assert norm <= bound * (1 + 1e-6)
            elif not coupled_hoelder_done:
                # one full nested check for a genuinely coupled weight
                radii, wts = _halfline_nodes(
                    max(f.descriptor.r_min for f in funcs), -2.5, 6, 6
                )
                prof = np.array(
                    [
                        hardy_apply(
                            OperatorRequest(weight, funcs, float(r), n, tol=1e-8)
                        ).value
                        for r in radii
                    ]
                )
                vals = np.abs(prof) ** config.p * radii ** (n - 1)
                norm = (unit_sphere_volume(n) * float(vals @ wts)) ** (1 / config.p)
                assert norm <= bound * (1 + 1e-6)
                coupled_hoelder_done = True

        # seeded stochastic rule is bit-identical too
        f4 = lambda a, b, c, d: a * b * c * d
        beh = [EndpointBehavior()] * 4
        mc1 = integrate_unit_cube(f4, beh, seed=5, budget=65536, tol=1e-2)
        mc2 = integrate_unit_cube(f4, beh, seed=5, budget=65536, tol=1e-2)
        assert mc1.value == mc2.value
