"""Weight constructors: pointwise values, metadata, grammar."""

import math

import numpy as np
import pytest

from hardyops.constants import lebesgue_constant, morrey_constant, weighted_moment
from hardyops.numerics import EndpointBehavior, gamma
from hardyops.operators import (
    OperatorRequest,
    cesaro_apply,
    cesaro_commutator_apply,
    hardy_apply,
    hardy_commutator_apply,
)
from hardyops.spaces import (
    ExponentConfig,
    cutoff_power,
    log_radial,
    oscillatory_cutoff,
    power,
    radial_from_callable,
)
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


class TestIntegralOwner:
    """`weights._integrate_weighted` decides the route and the verdict at t = 0 for every caller."""

    ONE = constant_weight(1.0)

    def test_constants_and_operators_share_the_diagnosis(self):
        # t**-1.5: -n/p for n = 3, p = 2, and the input r**-1.5 at r = 1; and
        # the border: n lambda for n = 3, lambda = -0.333..., and r**-0.999...,
        # both the rounding of -1
        for constant, f, e in [
            (lebesgue_constant(self.ONE, ExponentConfig(3, (2.0,))), power(-1.5), "-1.5"),
            (morrey_constant(self.ONE, ExponentConfig(3, (3.0,), (-0.3333333333333333,))),
             power(-0.9999999999999999), "-1"),
        ]:
            apply = hardy_apply(OperatorRequest(self.ONE, (f,), 1.0))
            assert constant.value == apply.value == math.inf
            diagnosis = f"axis 1 exponent {e} at t=0 is not integrable"
            assert constant.diagnosis == apply.diagnosis == diagnosis

    def test_divergence_names_its_axis(self):
        res = hardy_apply(OperatorRequest(
            parse_weight_spec("const:1:2"), (power(-0.5), power(-1.5)), 1.0))
        assert res.value == math.inf
        assert res.diagnosis == "axis 2 exponent -1.5 at t=0 is not integrable"

    def test_power_below_minus_one_off_zero_integrates(self):
        # int_0.1^1 t**-1.5 dt = 2 (sqrt(10) - 1)
        res = weighted_moment(self.ONE, [-1.5], truncation=0.1)
        exact = 2.0 * (math.sqrt(10.0) - 1.0)
        assert res.converged and abs(res.value - exact) <= res.abs_error_estimate

    @pytest.mark.parametrize("weight, fn, n, r, exact", [
        # r**-2 on r > 1: int_0^(1/2) (t/r)**2 t**-1 dt = 1/2 at r = 1/2
        ("const:1", lambda r: np.where(r > 1.0, 1.0 / r**2, 0.0), 1, 0.5, 0.5),
        # e**-r on a Cesaro mixture weight, which read divergent (scipy's
        # dblquad gives 0.1577139245461355 with error 3.5e-11)
        ("cesaro:1.3:2", lambda r: np.exp(-r), 2, 1.0, 0.1577139245461355),
        # int_0^1 e**(-1/t) t**-1 dt = E1(1): the hint, read as t**-0.9,
        # graded the rule, which stopped unconverged at 3e-8
        ("const:1", lambda r: np.exp(-r), 1, 1.0, lambda mpmath: mpmath.e1(1)),
        # int_0^1 t**-1 w(t) dt = Gamma(1/2): here the hint grades the rule
        ("weyl:0.5", np.ones_like, 1, 2.0, math.sqrt(math.pi)),
    ], ids=["const", "mixture", "decaying", "weyl"])
    def test_hint_is_never_divergent(self, weight, fn, n, r, exact):
        # an input without a descriptor: its hint t**-n at t = 0 is no verdict
        if callable(exact):
            exact = float(exact(pytest.importorskip("mpmath")))
        w = parse_weight_spec(weight)
        f = radial_from_callable(fn, breakpoints=(1.0,))
        res = cesaro_apply(OperatorRequest(w, (f,) * w.arity, r, n))
        assert res.converged and res.value == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("apply, f, b, exact", [
        # int_0^1 t**-0.5 (1 - t**-0.2) dt
        (hardy_commutator_apply, power(-0.5), power(-0.2), 2.0 - 1.0 / 0.3),
        # int_0^1 t**0.8 t**-1 (1 - t**-0.6) dt
        (cesaro_commutator_apply, cutoff_power(-0.8, 1.0), power(0.6), 1.25 - 5.0),
    ], ids=["hardy", "cesaro"])
    def test_symbol_power_is_declared(self, apply, f, b, exact):
        # a symbol's power at t = 0 adds to the input's; without it the
        # graded rule missed the symbol's growth and stopped unconverged
        res = apply(OperatorRequest(self.ONE, (f,), 1.0, symbols=(b,)))
        assert res.converged
        assert abs(res.value - exact) <= res.abs_error_estimate + 4 * math.ulp(exact)

    @pytest.mark.parametrize("weight, n, e", [("const:1", 1, "-1"), ("riesz:1.5:2", 2, "-2")],
                             ids=["cube", "mixture"])
    def test_log_input_declares_its_cesaro_power(self, weight, n, e):
        # log(r/t) t**-n grows like t**-n: no hint, a verdict (the mixture
        # route raised QuadratureError, the cube route read 41463.7 unconverged)
        w = parse_weight_spec(weight)
        res = cesaro_apply(OperatorRequest(w, (log_radial(),) * w.arity, 2.0, n))
        assert res.value == math.inf
        assert res.diagnosis == f"axis 1 exponent {e} at t=0 is not integrable"

    def test_bounded_symbol_on_the_log_route(self):
        # |b(3) - b(3t)| <= 2 adds no power of s, so the tail s**-1.5 of the
        # weight decides; it read "substituted tail exponent -0.5 is not
        # integrable".  In s = log(1/t) the value is 3**-0.5 times the
        # integral of (-1 - sin(1.5 pi e**-s) [s < log 3]) against the branch
        mpmath = pytest.importorskip("mpmath")
        res = hardy_commutator_apply(OperatorRequest(
            counterexample_weight(0.5, 1, 2), (power(-0.5),), 3.0,
            symbols=(oscillatory_cutoff(0.5, 2.0),)))
        with mpmath.workdps(30):
            exact = float(mpmath.quad(
                lambda s: (-1 - (mpmath.sin(1.5 * mpmath.pi * mpmath.exp(-s))
                                 if s < mpmath.log(3) else 0))
                * (s**-0.5 if s <= 1 else s**-1.5),
                [0, 1, mpmath.log(3), mpmath.inf]) / mpmath.sqrt(3))
        assert res.converged and abs(res.value - exact) <= res.abs_error_estimate

    def test_factored_product_past_the_float_range(self):
        # each axis integral is 1e200; the product read inf, converged
        f = radial_from_callable(lambda r: 1e200 * np.ones_like(r))
        with pytest.raises(ValueError, match="^the product of the 2 axis integrals exceeds "
                           "the float range$"):
            hardy_apply(OperatorRequest(constant_weight(1.0, 2), (f, f), 1.0))

    def test_symbol_power_can_make_the_integral_diverge(self):
        # t**-0.9 times 1 - t**-0.2: t**-1.1 at t = 0
        res = hardy_commutator_apply(OperatorRequest(
            self.ONE, (power(-0.9),), 1.0, symbols=(power(-0.2),)))
        assert res.value == math.inf
        assert res.diagnosis == "axis 1 exponent -1.1 at t=0 is not integrable"
