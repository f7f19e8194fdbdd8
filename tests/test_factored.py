"""Factored constant weights: products of unary integrals.

`constant_weight(c, m)` with m >= 2 factors into one unary weight per
axis, so every integral against it is a product of one-dimensional
integrals.  The oracle tests hold that route to the unfactored one, a
single `integrate_unit_cube` call on the whole product integrand, and
to closed forms; the calibration tests hold the constant families to
stdlib closed forms.
"""

import math

import numpy as np
import pytest

from hardyops.constants import (
    cesaro_lebesgue_constant,
    cesaro_log_constant,
    lebesgue_constant,
    log_moment_constant,
    morrey_constant,
    weighted_moment,
)
from hardyops.experiments import oscillation_decay_check
from hardyops.numerics import EndpointBehavior, integrate_unit_cube
from hardyops.operators import (
    OperatorRequest,
    cesaro_apply,
    hardy_apply,
    hardy_commutator_apply,
)
from hardyops.spaces import ExponentConfig, cutoff_power, log_radial, power
from hardyops.weights import constant_weight

P_AXES = (7.0, 8.0, 9.0, 10.0, 12.0, 14.0)


def log_term(shift):
    # log(shift/t), with log t read from the exact side as the weights do
    return lambda t, s: math.log(shift) - np.where(t <= 0.5, np.log(t), np.log1p(-s))


# family -> (constant function, per-axis exponent e(p, lam), log shift or None)
FAMILIES = {
    "lebesgue": (lebesgue_constant, lambda p, lam: -1.0 / p, None),
    "morrey": (morrey_constant, lambda p, lam: lam, None),
    "log-moment": (
        lambda w, c: log_moment_constant(w, c, range(1, c.m + 1), 2.0),
        lambda p, lam: lam,
        2.0,
    ),
    "cesaro-lebesgue": (cesaro_lebesgue_constant, lambda p, lam: -(1.0 - 1.0 / p), None),
    "cesaro-log": (cesaro_log_constant, lambda p, lam: -lam - 1.0, 2.0),
}


def config(m):
    p = P_AXES[:m]
    return ExponentConfig(1, p, tuple(-0.5 / pi for pi in p))


def tensor(weight, factors, behaviors, box=None, breakpoints=None):
    """The unfactored route: one cube integral of w * prod_i phi_i(t_i, s_i)."""

    def f_pair(ts, ss):
        acc = weight.pair(ts, ss)
        for i, phi in enumerate(factors):
            acc = acc * phi(ts[i], ss[i])
        return acc

    return integrate_unit_cube(
        None, behaviors, box=box, axis_breakpoints=breakpoints, f_pair=f_pair
    )


def assert_agree(factored, unfactored):
    # the m = 3 tensor rule runs out of budget on log factors (estimate
    # ~1e-4) but its estimate still bounds the gap
    assert factored.converged
    gap = abs(factored.value - unfactored.value)
    assert gap <= factored.abs_error_estimate + unfactored.abs_error_estimate


def assert_closed_form(value, estimate, weight, per_axis):
    """`value` is c * prod(per_axis) for const:c, within `estimate` + 4 ulp."""
    exact = float(weight(*[0.5] * weight.arity)) * math.prod(per_axis)
    assert abs(value - exact) <= estimate + 4 * math.ulp(exact)


@pytest.fixture(params=[(0.75, 2), (2.5, 3)], ids=["const:0.75:2", "const:2.5:3"])
def weight(request):
    c, m = request.param
    return constant_weight(c, m)


class TestOracle:
    """The factored route against one cube integral of the whole product.

    Each case but the constant families (see `TestCalibration`) is also
    held to its closed form, a product over axes times c.
    """

    @pytest.mark.parametrize("family", tuple(FAMILIES))
    def test_constant_families(self, weight, family):
        constant, exponent, shift = FAMILIES[family]
        cfg = config(weight.arity)
        exps = [exponent(p, lam) for p, lam in zip(cfg.p_i, cfg.lambda_i)]
        factors = [
            (lambda t, s, e=e: t**e * log_term(shift)(t, s)) if shift else
            (lambda t, s, e=e: t**e)
            for e in exps
        ]
        behaviors = [EndpointBehavior(e, 0.0) for e in exps]
        res = constant(weight, cfg)
        assert weight.factors is not None and res.evaluations < 100_000
        assert_agree(res, tensor(weight, factors, behaviors))

    def test_truncated_sweep_point(self, weight):
        m, cut = weight.arity, 0.01
        exps = [-0.25 - 0.01 * (i + 1) for i in range(m)]
        res = weighted_moment(weight, exps, truncation=cut)
        factors = [lambda t, s, e=e: t**e for e in exps]
        behaviors = [EndpointBehavior()] * m
        assert_agree(res, tensor(weight, factors, behaviors, box=([cut] * m, [1.0] * m)))
        assert_closed_form(res.value, res.abs_error_estimate, weight,
                           [(1.0 - cut ** (1.0 + e)) / (1.0 + e) for e in exps])

    def test_hardy_apply_cutoff_powers(self, weight):
        m, r, r0 = weight.arity, 2.0, 0.5
        exps = [-0.3 - 0.1 * i for i in range(m)]
        funcs = tuple(cutoff_power(a, r0) for a in exps)
        res = hardy_apply(OperatorRequest(weight, funcs, r))
        # f(t r) vanishes for t r <= r0
        factors = [lambda t, s, f=f: f.fn(t * r) for f in funcs]
        box = ([r0 / r] * m, [1.0] * m)
        assert_agree(res, tensor(weight, factors, [EndpointBehavior()] * m, box=box))
        assert_closed_form(res.value, res.abs_error_estimate, weight,
                           [r**a * (1.0 - (r0 / r) ** (1.0 + a)) / (1.0 + a) for a in exps])

    def test_cesaro_apply_cutoff_powers(self, weight):
        m, r, r0 = weight.arity, 0.4, 0.5
        exps = [-1.5 - 0.1 * i for i in range(m)]
        funcs = tuple(cutoff_power(a, r0) for a in exps)
        res = cesaro_apply(OperatorRequest(weight, funcs, r))
        # f(r/t) t^-1 vanishes for r/t <= r0 and behaves like t^(-a-1) at 0
        factors = [lambda t, s, f=f: f.fn(r / t) / t for f in funcs]
        behaviors = [EndpointBehavior(-a - 1.0, 0.0) for a in exps]
        box = ([0.0] * m, [r / r0] * m)
        assert_agree(res, tensor(weight, factors, behaviors, box=box))
        # r**a int_0^(r/r0) t**(-a-1) dt, for r <= r0
        assert_closed_form(res.value, res.abs_error_estimate, weight,
                           [r0**a / -a for a in exps])

    def test_log_symbol_commutator(self, weight):
        m, r = weight.arity, 3.0
        exps = [-0.125 - 0.05 * i for i in range(m)]
        funcs = tuple(power(a) for a in exps)
        b = log_radial()
        res = hardy_commutator_apply(OperatorRequest(weight, funcs, r, symbols=(b,) * m))
        factors = [
            lambda t, s, f=f: f.fn(t * r) * (b.fn(np.asarray(r)) - b.fn(t * r)) for f in funcs
        ]
        behaviors = [EndpointBehavior(a, 0.0) for a in exps]
        assert_agree(res, tensor(weight, factors, behaviors))
        # int_0^1 (t r)**a log(1/t) dt
        assert_closed_form(res.value, res.abs_error_estimate, weight,
                           [r**a / (1.0 + a) ** 2 for a in exps])

    @pytest.mark.parametrize("axes", ["one", "all"])
    def test_oscillation_integrand(self, weight, axes):
        m, r = weight.arity, 5.5
        axes = (1,) if axes == "one" else tuple(range(1, m + 1))
        rep = oscillation_decay_check(weight, axes, r_sequence=(r,), tol=1.0)
        assert rep.verdict == "sharp-confirmed"
        sine = lambda t, s: np.sin(math.pi * r * t)
        ones = lambda t, s: np.ones_like(t)
        factors = [sine if i in axes else ones for i in range(1, m + 1)]
        grid = tuple(np.linspace(0.0, 1.0, 9)[1:-1].tolist())
        breakpoints = [grid if i in axes else () for i in range(1, m + 1)]
        res = tensor(weight, factors, [EndpointBehavior()] * m, breakpoints=breakpoints)
        assert res.converged
        assert abs(rep.sweep[0][1] - abs(res.value)) <= (
            rep.sweep_errors[0] + res.abs_error_estimate
        )
        sine_axis = (1.0 - math.cos(math.pi * r)) / (math.pi * r)
        assert_closed_form(rep.sweep[0][1], rep.sweep_errors[0], weight,
                           [sine_axis if i in axes else 1.0 for i in range(1, m + 1)])


def axis_closed_form(e, shift):
    """int_0^1 t**e dt, times log(shift/t) when `shift` is set (Beta/log forms)."""
    k = 1.0 + e
    return 1.0 / k if shift is None else math.log(shift) / k + 1.0 / (k * k)


class TestCalibration:
    """const:c:m against products of unary closed forms, m = 2..6."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("family", tuple(FAMILIES))
    def test_within_estimate(self, family, m):
        constant, exponent, shift = FAMILIES[family]
        cfg, c = config(m), 1.5
        exact = c * math.prod(
            axis_closed_form(exponent(p, lam), shift) for p, lam in zip(cfg.p_i, cfg.lambda_i)
        )
        res = constant(constant_weight(c, m), cfg)
        assert res.converged
        assert abs(res.value - exact) <= res.abs_error_estimate + 4 * math.ulp(exact)
        assert repr(constant(constant_weight(c, m), cfg)) == repr(res)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_zero_weight_is_exact(self, m):
        res = lebesgue_constant(constant_weight(0, m), config(m))
        assert (res.value, res.abs_error_estimate, res.converged) == (0.0, 0.0, True)
