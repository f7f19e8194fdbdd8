"""Sharpness and necessity experiments: verdicts, guards, constructions."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from hardyops import experiments, operators
from hardyops.experiments import (
    SHARP_CONFIRMED,
    cesaro_sharpness_sweep,
    commutator_pointwise_check,
    counterexample_report,
    duality_check,
    lebesgue_sharpness_sweep,
    morrey_sharpness_check,
    oscillation_decay_check,
)
from hardyops.numerics import _cached_axis_rule, gamma
from hardyops.spaces import ExponentConfig, cutoff_power, indicator_ball, radial_from_callable
from hardyops.weights import (
    constant_weight,
    counterexample_weight,
    multilinear_riesz_weight,
    riemann_liouville_weight,
    weyl_weight,
)

ONE = constant_weight(1, 1)
ONE2 = constant_weight(1, 2)


def cfg(n, *p, lam=None):
    return ExponentConfig(n, tuple(p), tuple(lam) if lam else ())


class TestLebesgueSweep:
    def test_bilinear_flat_weight(self):
        rep = lebesgue_sharpness_sweep(ONE2, cfg(1, 4.0, 4.0))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(16.0 / 9.0, rel=1e-10)
        ratios = {eps: v / rep.target for eps, v in rep.sweep}
        assert ratios[1e-3] >= 0.95
        # monotone in shrinking eps, never past the target
        ordered = sorted(rep.sweep)
        assert all(
            ordered[k][1] >= ordered[k + 1][1] for k in range(len(ordered) - 1)
        )
        assert all(v <= rep.target * (1 + 1e-6) for _, v in rep.sweep)

    def test_zero_weight_trivial(self):
        rep = lebesgue_sharpness_sweep(constant_weight(0, 2), cfg(1, 4.0, 4.0))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == 0.0

    def test_fractional_weight_extrapolates(self):
        rep = lebesgue_sharpness_sweep(riemann_liouville_weight(0.5), cfg(1, 2.0))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert rep.relative_gap <= 0.02

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            lebesgue_sharpness_sweep(ONE2, cfg(1, 4.0, 4.0), eps_sequence=(0.7,))


class TestMorreyCheck:
    def test_balanced_flat_weight(self):
        rep = morrey_sharpness_check(ONE2, cfg(1, 4.0, 4.0, lam=(-0.125, -0.125)))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(64.0 / 49.0, rel=1e-10)
        assert rep.relative_gap <= 1e-8

    def test_boundary_exponents_rejected(self):
        with pytest.raises(ValueError):
            morrey_sharpness_check(ONE2, cfg(1, 4.0, 4.0))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            morrey_sharpness_check(
                ONE2, cfg(2, 4.0, 4.0, lam=(-0.125, -0.2))
            )

    def test_riesz_weight_self_consistency(self):
        w = multilinear_riesz_weight(1.0, 2)
        rep = morrey_sharpness_check(w, cfg(1, 4.0, 4.0, lam=(-0.125, -0.125)))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.relative_gap <= 1e-6


class TestCommutatorCheck:
    def test_bilinear_flat_weight(self):
        rep = commutator_pointwise_check(
            ONE2, cfg(1, 4.0, 4.0, lam=(-0.125, -0.125))
        )
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx((64.0 / 49.0) ** 2, rel=1e-9)
        assert rep.relative_gap <= 1e-6
        assert len(rep.sweep) == 3  # three decades of radius
        assert len(rep.details) == 1
        assert rep.details[0].startswith("balanced norm ratio")

    def test_unbalanced_has_no_norm_ratio(self):
        rep = commutator_pointwise_check(ONE2, cfg(1, 4.0, 4.0, lam=(-0.125, -0.1)))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.details == ()
        # int t^(-1/8) log(1/t) dt * int t^(-1/10) log(1/t) dt = (8/7)^2 (10/9)^2
        assert rep.target == pytest.approx((8.0 / 7.0) ** 2 * (10.0 / 9.0) ** 2, rel=1e-12)

    def test_fractional_weight_m1(self):
        rep = commutator_pointwise_check(
            riemann_liouville_weight(0.5), cfg(1, 3.0, lam=(-0.25,))
        )
        assert rep.verdict == SHARP_CONFIRMED

    def test_strictness_enforced(self):
        with pytest.raises(ValueError):
            commutator_pointwise_check(ONE2, cfg(1, 4.0, 4.0))


@pytest.mark.parametrize("check", [morrey_sharpness_check, commutator_pointwise_check])
def test_arity_mismatch_names_both_numbers(check):
    with pytest.raises(ValueError, match="arity 2 does not match config m=1"):
        check(ONE2, cfg(1, 4.0, lam=(-0.125,)))


class TestCounterexampleReport:
    def test_standard_case(self):
        rep = counterexample_report(0.5, 1, 2)
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(4.0)
        assert rep.relative_gap <= 1e-2
        values = [v for _, v in rep.sweep]
        assert values == sorted(values)  # deltas shrink, moments grow

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_other_orders(self, alpha):
        rep = counterexample_report(alpha, 1, 2, delta_sequence=(1e-2, 1e-4))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(2.0 / alpha)

    def test_growth_law_value(self):
        # A log2 + 1/(1+a) + (sqrt(log 1e4) - 1)/(1 - a) at a = 1/2
        rep = counterexample_report(0.5, 1, 2, delta_sequence=(1e-4,))
        c_val = rep.sweep[0][1]
        law = 4.0 * math.log(2.0) + 2.0 / 3.0 + 2.0 * (
            math.sqrt(math.log(1e4)) - 1.0
        )
        assert c_val == pytest.approx(law, rel=1e-6)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            counterexample_report(0.5, 1, 2, delta_sequence=(0.9,))


class TestOscillationDecay:
    def test_unary_flat_weight(self):
        rep = oscillation_decay_check(ONE, (1,))
        assert rep.verdict == SHARP_CONFIRMED
        # closed form (1 - cos(pi r))/(pi r) is bounded by 2/(pi r)
        assert dict(rep.sweep)[1000.0] <= 2.0 / (math.pi * 1000.0)

    def test_bilinear_flat_weight(self):
        rep = oscillation_decay_check(ONE2, (1, 2), r_sequence=(10.0, 100.0),
                                      tol=1e-4, quad_tol=1e-8)
        assert rep.verdict == SHARP_CONFIRMED
        assert dict(rep.sweep)[100.0] <= (2.0 / (math.pi * 100.0)) ** 2

    def test_odd_r_nonzero_values(self):
        # at odd r the closed form is 2/(pi r): a genuine decay chain
        rep = oscillation_decay_check(ONE, (1,), r_sequence=(11.0, 101.0, 1001.0))
        assert rep.verdict == SHARP_CONFIRMED
        vals = dict(rep.sweep)
        assert vals[11.0] == pytest.approx(2.0 / (math.pi * 11.0), rel=1e-8)
        assert vals[1001.0] == pytest.approx(2.0 / (math.pi * 1001.0), rel=1e-6)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            oscillation_decay_check(ONE, ())

    @pytest.mark.parametrize(
        "radii, named",
        [((10.0, math.inf), "r = inf"), ((10.0, math.nan), "r = nan"),
         ((), "r sequence must be nonempty"), ((10.0, 1e12), "r = 1e+12"),
         ((0.0, 10.0), "r = 0")],
        ids=["inf", "nan", "empty", "1e12", "zero"],
    )
    def test_bad_radii_rejected_before_any_grid(self, monkeypatch, radii, named):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before every radius was checked")

        monkeypatch.setattr(experiments, "_integrate_weighted", no_quadrature)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(named)):
                oscillation_decay_check(ONE, (1,), radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_early_stop_keeps_computed_errors(self):
        # I(12) = 0 exactly, so an absurd absolute tolerance cannot be met there
        rep = oscillation_decay_check(ONE, (1,), r_sequence=(11.0, 12.0), quad_tol=1e-300)
        assert rep.verdict == "inconclusive"
        assert "r=12" in rep.note
        assert [r for r, _ in rep.sweep] == [11.0]
        assert len(rep.sweep_errors) == 1
        assert abs(rep.sweep[0][1] - 2.0 / (math.pi * 11.0)) <= rep.sweep_errors[0] + 1e-15

    def test_log_form_weight(self):
        # I(r) in s = log(1/t), in mpmath (dps 25, split at every grid point);
        # the s**-1/2 branch at t = 1 slows the decay to ~ r**-1/2
        rep = oscillation_decay_check(counterexample_weight(0.5, 1, 2), (1,), (10.0, 100.0))
        assert rep.verdict == "violated"
        exact = [0.20015736057196076, 0.066130970988672079]
        for (_, value), err, ref in zip(rep.sweep, rep.sweep_errors, exact):
            assert abs(value - ref) <= err

    def test_fractional_weight(self):
        # the (1-t)^(-1/2) endpoint slows the decay to ~ r^(-1/2)
        rep = oscillation_decay_check(
            riemann_liouville_weight(0.5), (1,), r_sequence=(10.0, 100.0),
            tol=5e-2, quad_tol=1e-8,
        )
        assert rep.verdict == SHARP_CONFIRMED
        vals = dict(rep.sweep)
        assert vals[100.0] < vals[10.0]


class TestCesaroSweep:
    def test_classical_copson_constant(self):
        rep = cesaro_sharpness_sweep(ONE, cfg(1, 2.0))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(2.0, rel=1e-10)
        assert dict(rep.sweep)[1e-3] >= 0.95 * 2.0
        assert "reconstructed" in rep.note

    def test_zero_weight_trivial(self):
        rep = cesaro_sharpness_sweep(constant_weight(0, 1), cfg(1, 2.0))
        assert rep.verdict == SHARP_CONFIRMED

    def test_weyl_weight_target(self):
        # Beta closed form Gamma(1+1/p-a)/Gamma(1+1/p) = 2/sqrt(pi)
        rep = cesaro_sharpness_sweep(weyl_weight(0.5), cfg(1, 2.0))
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.target == pytest.approx(
            gamma(1.5 - 0.5) / gamma(1.5), rel=1e-10
        )
        assert rep.relative_gap <= 0.02

    def test_vanishing_weight_extrapolates(self):
        # the weight's own t^(m-a) zero shifts the deficit rate; the
        # Richardson exponent must account for it
        from hardyops.weights import multilinear_cesaro_weight

        w = multilinear_cesaro_weight(1.2, 2)
        rep = cesaro_sharpness_sweep(
            w, cfg(1, 4.0, 4.0), eps_sequence=(1e-1, 1e-2, 1e-3)
        )
        assert rep.verdict == SHARP_CONFIRMED
        assert rep.relative_gap <= 0.02


class TestDuality:
    def test_flat_weight_n1(self):
        lhs, rhs = duality_check(ONE, cutoff_power(-0.8, 1.0), cutoff_power(-0.8, 0.5))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            duality_check(ONE2, cutoff_power(-0.8, 1.0), cutoff_power(-0.8, 0.5))

    @pytest.mark.parametrize(
        "f, g, exact, tol",
        [
            # <1_{r<2}, H r**-0.75 1_{r>1}> = 2 int_1^2 4 (r**-0.75 - 1/r) dr
            (cutoff_power(-0.75, 1.0), indicator_ball(2.0),
             32.0 * (2.0**0.25 - 1.0) - 8.0 * math.log(2.0), 1e-10),
            # H 1_{r<1} = min(r, 1)/r and G 1_{r<2} = log(2/r) on r < 2
            (indicator_ball(1.0), indicator_ball(2.0), 2.0 * (1.0 + math.log(2.0)), 1e-8),
            # H 1_{r<1} = 1/r past r = 1, and G g = sqrt(2) on r < 2
            (indicator_ball(1.0), cutoff_power(-0.5, 2.0), 2.0 * math.sqrt(2.0), 1e-7),
            # disjoint supports: no outer piece is left on either side
            (cutoff_power(-2.0, 5.0), indicator_ball(1.0), 0.0, 0.0),
            # H r**4 1_{r<1} = 1/(5 r) past r = 1, read far out on the half
            # line where it is tiny next to the whole profile integral 1/5,
            # and G r**-1.5 1_{r>1} = 2/3 on r < 1
            (indicator_ball(1.0, 4.0), cutoff_power(-1.5, 1.0), 4.0 / 15.0, 1e-12),
        ],
    )
    def test_compact_support_pairings(self, f, g, exact, tol):
        # a finite support edge of the outer product hides the power tail
        lhs, rhs = duality_check(ONE, f, g)
        assert abs(lhs - exact) <= tol
        assert abs(rhs - exact) <= tol

    def test_divergent_pairing_names_exponents(self):
        msg = r"tail exponent -0\.75 \(f ~ r\*\*-0\.5, g ~ r\*\*-0\.25\)"
        with pytest.raises(ValueError, match=msg):
            duality_check(ONE, cutoff_power(-0.5, 1.0), cutoff_power(-0.25, 1.0))

    @pytest.mark.parametrize("n", [1, 2])
    def test_finite_edge_of_g_against_singular_weight(self, n):
        # G_w g behaves like sqrt(2 - r) at g's edge; the outer rule must
        # grade toward it
        lhs, rhs = duality_check(
            riemann_liouville_weight(0.5), cutoff_power(-0.75, 1.0), indicator_ball(2.0), n
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        if n == 2:
            # mpmath: 2 pi int_1^2 r**-0.75 (G_w g)(r) r dr
            exact = 2.0 * math.pi * 0.7478191291494550745
            assert abs(rhs - exact) <= 1e-12 * exact

    def test_log_form_weight_n2(self):
        # the Cesaro side used to stop on inf * 0 (t**-2 overflowing where
        # r**-1.6 / t**-1.6 underflows) deep in s = log(1/t); the two sides
        # are still 2.1e-4 apart, which is open (outer rule of the pairing)
        lhs, rhs = duality_check(
            counterexample_weight(0.5, 1, 2.0), cutoff_power(-1.6, 1.0),
            cutoff_power(-1.6, 0.5), 2,
        )
        assert 0.0 < lhs < math.inf and 0.0 < rhs < math.inf
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)

    def test_dimension_below_one_rejected_before_quadrature(self, monkeypatch):
        applies = []
        monkeypatch.setattr(experiments, "_apply_radii", lambda *a: applies.append(a))
        with pytest.raises(ValueError, match="^dimension n must be >= 1$"):
            duality_check(ONE, cutoff_power(-0.8, 1.0), cutoff_power(-0.8, 0.5), 0)
        assert applies == []

    def test_inputs_without_descriptor_rejected(self):
        # r**-0.8 on r > 1 without its descriptor: support and decay unknown
        f = radial_from_callable(
            lambda r: np.where(r > 1.0, np.maximum(r, 1.0) ** -0.8, 0.0), breakpoints=(1.0,)
        )
        with pytest.raises(ValueError, match="^f needs a piecewise power descriptor"):
            duality_check(ONE, f, cutoff_power(-0.8, 0.5))
        with pytest.raises(ValueError, match="^g needs a piecewise power descriptor"):
            duality_check(ONE, cutoff_power(-0.8, 1.0), f)

    def test_inner_values_are_batched_with_shared_rules(self, monkeypatch):
        scalar_calls = []
        monkeypatch.setattr(operators, "_apply", lambda *a, **k: scalar_calls.append(a))
        _cached_axis_rule.cache_clear()
        lhs, rhs = duality_check(
            riemann_liouville_weight(0.5), cutoff_power(-1.6, 1.0), cutoff_power(-1.6, 0.5), 2
        )
        assert _cached_axis_rule.misses <= 16
        assert scalar_calls == []
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


@pytest.mark.parametrize("axes", [(0,), (2,)])
def test_oscillation_axes_must_lie_in_the_weight(axes):
    with pytest.raises(ValueError, match=r"axes must lie in 1\.\.1"):
        oscillation_decay_check(ONE, axes)
