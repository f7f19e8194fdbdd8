"""Weight constructors: pointwise values, metadata, grammar."""

import math

import numpy as np
import pytest

from hardyops.constants import weighted_moment
from hardyops.numerics import EndpointBehavior, gamma
from hardyops.weights import (
    Weight,
    constant_weight,
    counterexample_weight,
    multilinear_cesaro_weight,
    multilinear_riesz_weight,
    parse_weight_spec,
    riemann_liouville_weight,
    weyl_weight,
)

SQRT_PI = math.sqrt(math.pi)


def loglog_slope(w, distances, at_one=False):
    """Two-point log-log slope of w against the distance to the endpoint."""
    d0, d1 = distances
    if at_one:
        v0, v1 = float(w(1.0 - d0)), float(w(1.0 - d1))
    else:
        v0, v1 = float(w(d0)), float(w(d1))
    return (math.log(v1) - math.log(v0)) / (math.log(d1) - math.log(d0))


class TestConstantWeight:
    def test_values(self):
        assert constant_weight(1, 1)(0.3) == pytest.approx(1.0)
        assert constant_weight(0, 2)(0.4, 0.9) == pytest.approx(0.0)
        assert constant_weight(2.5, 3)(0.1, 0.2, 0.9) == pytest.approx(2.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            constant_weight(-1.0, 1)


class TestRiemannLiouvilleWeight:
    def test_value_at_three_quarters(self):
        # 1/(Gamma(1/2) (1/4)^(1/2)) = 2/sqrt(pi)
        w = riemann_liouville_weight(0.5)
        assert float(w(0.75)) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_value_near_zero(self):
        for alpha in (0.25, 0.5, 0.9):
            w = riemann_liouville_weight(alpha)
            assert float(w(1e-14)) == pytest.approx(1.0 / gamma(alpha), rel=1e-12)

    def test_closed_form_is_eq_1_4(self):
        w = riemann_liouville_weight(0.5)
        cf = w.closed_forms["lebesgue_constant"]
        assert cf(2.0) == pytest.approx(SQRT_PI, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            riemann_liouville_weight(alpha)


class TestMultilinearRieszWeight:
    def test_value_at_origin_corner(self):
        w = multilinear_riesz_weight(1.0, 2)
        assert float(w(1e-30, 1e-30)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_flat_at_alpha_equals_m(self):
        w = multilinear_riesz_weight(2.0 - 1e-13, 2)
        assert float(w(0.3, 0.8)) == pytest.approx(1.0, rel=1e-10)

    def test_m1_matches_riemann_liouville(self):
        w1 = multilinear_riesz_weight(0.5, 1)
        w2 = riemann_liouville_weight(0.5)
        ts = np.linspace(0.01, 0.99, 47)
        assert np.max(np.abs(w1(ts) - w2(ts)) / w2(ts)) <= 1e-14

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            multilinear_riesz_weight(2.5, 2)


class TestWeylAndCesaroWeights:
    def test_value_at_half(self):
        w = weyl_weight(0.5)
        assert float(w(0.5)) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)

    def test_vanishes_at_zero_with_declared_slope(self):
        w = weyl_weight(0.5)
        slope = loglog_slope(w, (1e-9, 1e-7))
        assert slope == pytest.approx(0.5, abs=1e-6)

    def test_flat_bilinear_at_alpha_two(self):
        w = multilinear_cesaro_weight(2.0 - 1e-13, 2)
        assert float(w(0.3, 0.7)) == pytest.approx(1.0, rel=1e-10)

    def test_m1_matches_weyl(self):
        w1 = multilinear_cesaro_weight(0.5, 1)
        w2 = weyl_weight(0.5)
        ts = np.linspace(0.01, 0.99, 47)
        assert np.max(np.abs(w1(ts) - w2(ts)) / w2(ts)) <= 1e-14

    def test_cesaro_closed_form(self):
        # Beta reduction: Gamma(1+1/p-a)/Gamma(1+1/p); 2/sqrt(pi) at p=2, a=1/2
        w = weyl_weight(0.5)
        cf = w.closed_forms["cesaro_lebesgue_constant"]
        assert cf(2.0) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)


class TestCounterexampleWeight:
    def test_branch_value_at_s_equal_one(self):
        # s = 1 uses the first branch: exp(-(n/p - 1)) with n=1, p=2
        w = counterexample_weight(0.5, 1, 2)
        assert float(w(math.exp(-1.0))) == pytest.approx(math.exp(0.5), rel=1e-13)

    def test_zero_at_t_equal_one(self):
        w = counterexample_weight(0.5, 1, 2)
        assert float(w(1.0)) == 0.0

    def test_closed_form_plain_moment(self):
        for alpha in (0.25, 0.5, 0.75):
            w = counterexample_weight(alpha, 1, 2)
            assert w.closed_forms["lebesgue_constant"] == pytest.approx(2.0 / alpha)

    def test_log_form_metadata(self):
        w = counterexample_weight(0.5, 1, 2)
        lf = w.log_form
        assert lf is not None
        assert lf.rate_shift == pytest.approx(-0.5)
        assert lf.zero_exponent == pytest.approx(-0.5)
        assert lf.tail_exponent == pytest.approx(-1.5)

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            counterexample_weight(1.2, 1, 2)
        with pytest.raises(ValueError):
            counterexample_weight(0.5, 1, 0.9)


class TestDeclaredSlopes:
    """Log-log probe slopes match the declared exponents within 0.05."""

    @pytest.mark.parametrize(
        "w,expect0,expect1",
        [
            (riemann_liouville_weight(0.5), 0.0, -0.5),
            (weyl_weight(0.5), 0.5, -0.5),
            (weyl_weight(0.25), 0.75, -0.75),
        ],
    )
    def test_unary_slopes(self, w, expect0, expect1):
        if expect0 != 0.0:
            assert loglog_slope(w, (1e-9, 1e-7)) == pytest.approx(expect0, abs=0.05)
        assert loglog_slope(w, (1e-9, 1e-7), at_one=True) == pytest.approx(
            expect1, abs=0.05
        )

    def test_counterexample_slopes_deep_probe(self):
        # the power law carries 1/log(1/t) corrections, so the probe sits
        # very deep before the slope settles within 0.05
        w = counterexample_weight(0.5, 1, 2)
        assert loglog_slope(w, (1e-15, 1e-13)) == pytest.approx(-0.5, abs=0.05)
        assert loglog_slope(w, (1e-12, 1e-10), at_one=True) == pytest.approx(
            -0.5, abs=0.05
        )

    def test_bilinear_axis_slopes_flat(self):
        # away from the corner the per-axis slopes of the Riesz weight are 0
        w = multilinear_riesz_weight(1.0, 2)
        for t in (1e-6, 1e-4):
            lo = float(w(np.array([t]), np.array([0.5]))[0])
            hi = float(w(np.array([100 * t]), np.array([0.5]))[0])
            assert abs(math.log(hi / lo) / math.log(100.0)) <= 0.05


class TestNonnegativityGrid:
    @pytest.mark.parametrize(
        "spec",
        ["const:2.5", "rl:0.3", "riesz:1.2:2", "weyl:0.7", "cesaro:0.9:2",
         "counter:0.5:1:2"],
    )
    def test_thousand_point_grid(self, spec):
        w = parse_weight_spec(spec)
        if w.arity == 1:
            ts = np.linspace(1e-4, 1 - 1e-4, 1000)
            vals = w(ts)
        else:
            side = np.linspace(1e-3, 1 - 1e-3, 32)
            g = np.meshgrid(*([side] * w.arity))
            vals = w(*g)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0)


class TestGrammar:
    @pytest.mark.parametrize(
        "spec,label_prefix",
        [
            ("const:1", "const"),
            ("const:2:3", "const"),
            ("rl:0.5", "rl"),
            ("riesz:1:2", "riesz"),
            ("weyl:0.25", "weyl"),
            ("cesaro:1.5:2", "cesaro"),
            ("counter:0.5:1:2", "counter"),
        ],
    )
    def test_accepted(self, spec, label_prefix):
        w = parse_weight_spec(spec)
        assert w.label.startswith(label_prefix)

    @pytest.mark.parametrize(
        "spec", ["", "unknown:1", "rl", "rl:2", "riesz:1", "counter:0.5:1"]
    )
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_weight_spec(spec)


def _outcome(call):
    """The message a call raises, or else the diagnosis of its result."""
    try:
        return call().diagnosis
    except (TypeError, ValueError) as exc:
        return str(exc)


def _flat(ts, ss):
    return np.ones_like(ts[0])


class TestValidation:
    @pytest.mark.parametrize(
        "call, message",
        [(lambda: weighted_moment(counterexample_weight(0.5, 1, 2), [-1.0]),
          "exponentially growing substituted integrand"),
         (lambda: constant_weight(1.0)(0.5, 0.5), "const:1 takes 1 coordinates, got 2"),
         (lambda: Weight(0, _flat, (), "w"), "arity must be >= 1"),
         (lambda: Weight(1, _flat, (), "w"), "one EndpointBehavior per axis is required"),
         (lambda: Weight(2, _flat, (EndpointBehavior(),) * 2, "w",
                         factors=(constant_weight(1.0, 2),) * 2),
          "factors must be one unary weight per axis"),
         (lambda: Weight(1, lambda ts, ss: ts[0] * np.nan, (EndpointBehavior(),), "w"),
          "w: non-finite value on probe grid"),
         (lambda: Weight(1, lambda ts, ss: -ts[0], (EndpointBehavior(),), "w"),
          "w: negative value on probe grid"),
         (lambda: multilinear_riesz_weight(0.5, 0), "m must be >= 1"),
         (lambda: constant_weight(1.0, 0), "m must be >= 1"),
         (lambda: counterexample_weight(0.5, 0, 2), "n must be >= 1")],
        ids=["growing-tail", "coordinates", "arity", "behaviors", "factors", "non-finite",
             "negative", "order-m", "constant-m", "counter-n"],
    )
    def test_rejected_with_its_reason(self, call, message):
        assert _outcome(call) == message

    @pytest.mark.parametrize("make", [riemann_liouville_weight, weyl_weight,
                                      lambda a: multilinear_riesz_weight(a, 2),
                                      lambda a: counterexample_weight(a, 1, 2)],
                             ids=["rl", "weyl", "riesz", "counter"])
    def test_alpha_whose_exponent_rounds_to_minus_one(self, make):
        # alpha - m rounds to -m below 2**-53: the rl and weyl exponent -1 was
        # rejected by the endpoint map as "exponent_at_one must be > -1"
        with pytest.raises(ValueError, match=r"^alpha must be at least 2\*\*-53, got 1e-300$"):
            make(1e-300)
        make(2.0**-53)
