"""Riesz and Cesaro weights through their Gaussian mixture (Schwinger) form.

|v|**(a-m) / Gamma(a) = scale * int_0^inf prod_i exp(-x**(1/nu) v_i**2) dx
with nu = (m - a)/2, so every integral against these weights is one
x-integral of a product of one-dimensional integrals.  The stored mpmath
values of `tests/test_numerics.py` (`CORNER_CALIBRATION`) hold that route
to independent polar cubature; here, for m = 4, it is held to the Monte
Carlo rule of `integrate_unit_cube` on the plain product integrand, which
does not use the mixture.
"""

import io
import json
import math
from contextlib import redirect_stdout
from functools import partial

import numpy as np
import pytest
from test_numerics import CORNER_CALIBRATION

from hardyops import numerics, weights
from hardyops.cli import run
from hardyops.constants import cesaro_lebesgue_constant, lebesgue_constant, log_moment_constant
from hardyops.experiments import oscillation_decay_check
from hardyops.numerics import EndpointBehavior, QuadratureError, integrate_unit_cube
from hardyops.spaces import ExponentConfig
from hardyops.weights import constant_weight, parse_weight_spec


def power_product(ts, e):
    return math.prod(t**e for t in ts)


def test_riesz_m4_cli_agrees_with_monte_carlo():
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(["constant", "lebesgue", "--weight", "riesz:3.5:4", "--p", *["8"] * 4])
    assert code == 0
    record = json.loads(out.getvalue())
    assert record["converged"] is True
    value = record["result"]["value"]
    # the sigma-free generic m = 4 route on the same integrand; |s|**(-1/2)
    # is square integrable in four dimensions, so the variance is finite
    weight = parse_weight_spec("riesz:3.5:4")
    mc = integrate_unit_cube(
        None, [EndpointBehavior(-0.125, 0.0)] * 4, budget=2**18,
        f_pair=lambda ts, ss: weight.pair(ts, ss) * power_product(ts, -0.125),
    )
    assert abs(value - mc.value) <= 4.0 * mc.abs_error_estimate


def test_oscillation_reaches_every_radius():
    rep = oscillation_decay_check(parse_weight_spec("riesz:1.5:2"), (1,), (10.0, 100.0, 200.0))
    assert [r for r, _ in rep.sweep] == [10.0, 100.0, 200.0]
    assert rep.verdict != "inconclusive"
    assert max(rep.sweep_errors) <= 1e-9
    # the axes differ in uniform_panels, so each keeps its own exp matrix
    # and the bits of one matrix product per axis
    assert repr(rep.sweep) == (
        "((10.0, 0.03335347125654427), (100.0, 0.0036641168886689113), "
        "(200.0, 0.0018543392261593339))"
    )
    assert repr(rep.sweep_errors) == (
        "(6.05765437811101e-15, 3.345544327681971e-14, 6.83851846677852e-14)"
    )


def test_m3_log_moment_converges():
    weight = parse_weight_spec("riesz:2.5:3")
    config = ExponentConfig(1, (7.0, 8.0, 9.0), (-1 / 14, -1 / 16, -1 / 18))
    res = log_moment_constant(weight, config, (1, 2, 3), 2.0)
    assert res.converged and res.diagnosis is None
    assert res.abs_error_estimate <= 1e-10
    # axes with different p share no exp matrix: the bits of one per axis
    assert (repr(res.value), repr(res.abs_error_estimate)) == (
        "4.591659491730008", "4.405364961712621e-13"
    )


CALIBRATED = {(name, spec, p): exact for name, spec, p, exact in CORNER_CALIBRATION}


def _wide_case(rng):
    sigma = np.unique(np.r_[0.0, 1e-42, 1.0, 4.0**44, np.logspace(-42, 26.5, 1000)])
    gap2 = np.unique(np.r_[1e-30, 1e300, np.logspace(-30, 300, 600), rng.random(200)])
    return sigma, gap2, [1e-100, 1.0, 1e50, 1e100]


def _top_head_case(rng):
    # the largest sigma with a head and gaps up to 1/sigma, where the
    # moments of the higher orders underflow unless each column is scaled
    sigma = np.logspace(15.0, 16.2, 64)
    gap2 = np.logspace(-17.0, 0.0, 400)
    return sigma, gap2, [1e-300, 1e-100, 1.0, 1e300]


@pytest.mark.parametrize("case", [_wide_case, _top_head_case], ids=["wide", "top-head"])
def test_gaussian_sums_match_the_direct_product(case):
    rng = np.random.default_rng(7)
    sigma, gap2, scales = case(rng)
    # mixed signs, columns of very different sizes, one of a single sign
    cols = rng.standard_normal((gap2.size, len(scales))) * scales
    cols[:, 0] = np.abs(cols[:, 0])
    with np.errstate(all="raise"):
        sums, count = numerics._gaussian_sums(sigma, gap2, cols)
    with np.errstate(over="ignore", under="ignore"):
        direct = np.exp(-np.outer(sigma, gap2)) @ cols
    mass = np.abs(cols).sum(axis=0)
    truncation = numerics._HEAD_DELTA**numerics._HEAD_TERMS / math.factorial(numerics._HEAD_TERMS)
    assert truncation <= 2.0**-60
    assert np.all(np.abs(sums - direct) <= truncation * mass + 8 * np.spacing(mass))
    # some rows are summed from moments: fewer exp entries than the matrix
    assert 0 < count < sigma.size * gap2.size


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("pick", [np.argmin, np.argmax], ids=["head", "tail"])
def test_non_finite_column_raises(monkeypatch, bad, pick):
    original = numerics._mixture_integrate

    def poisoned(nu, scale, axes, tol, rtol):
        ax = axes[0]

        def f_pair(ts, ss):
            # the node of the smallest gap is in the head of every sigma
            # block, that of the largest in the tail of the first
            vals = np.array(ax.f_pair(ts, ss), dtype=float)
            vals[pick(ax.gap(ts[0], ss[0]))] = bad
            return vals

        return original(nu, scale, [ax._replace(f_pair=f_pair), *axes[1:]], tol, rtol)

    monkeypatch.setattr(weights, "_mixture_integrate", poisoned)
    with pytest.raises(QuadratureError, match="mixture axis"):
        lebesgue_constant(parse_weight_spec("riesz:1.5:2"), ExponentConfig(1, (4.0, 4.0)))


def test_taylor_head_halves_the_evaluations():
    res = lebesgue_constant(parse_weight_spec("riesz:1.5:2"), ExponentConfig(1, (4.0, 4.0)))
    # every entry computed as an exp took 1,617,664
    assert res.evaluations <= 808_832
    exact = CALIBRATED[("lebesgue_constant", "riesz:1.5:2", (4.0, 4.0))]
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error_estimate + 4 * math.ulp(exact)


SHARED_AXES = [
    (lebesgue_constant, "riesz:1.5:2", (4.0, 4.0)),
    (cesaro_lebesgue_constant, "cesaro:1.5:2", (4.0, 4.0)),
    (lebesgue_constant, "riesz:2.5:3", (6.0, 6.0, 6.0)),
    (lebesgue_constant, "riesz:3.5:4", (8.0,) * 4),
]


@pytest.mark.parametrize("family, spec, p", SHARED_AXES, ids=[s for _, s, _ in SHARED_AXES])
def test_identical_axes_share_one_exp_matrix(monkeypatch, family, spec, p):
    config = ExponentConfig(1, p)
    shared = family(parse_weight_spec(spec), config)
    original = numerics._mixture_integrate

    def unshared(nu, scale, axes, tol, rtol):
        # a distinct gap object per axis, so no two axes share a rule
        return original(nu, scale, [ax._replace(gap=partial(ax.gap)) for ax in axes], tol, rtol)

    monkeypatch.setattr(weights, "_mixture_integrate", unshared)
    alone = family(parse_weight_spec(spec), config)
    # the exp entries of m identical axes are computed once
    assert alone.evaluations == len(p) * shared.evaluations
    assert shared.converged and alone.converged
    assert abs(shared.value - alone.value) <= shared.abs_error_estimate + alone.abs_error_estimate
    exact = CALIBRATED.get((family.__name__, spec, p))  # none for m = 4
    if exact is not None:
        assert abs(shared.value - exact) <= shared.abs_error_estimate + 4 * math.ulp(exact)


def test_identical_axes_share_rules():
    numerics._cached_axis_rule.cache_clear()
    config = ExponentConfig(1, (10.0,) * 5)
    first = lebesgue_constant(constant_weight(1.0, 5), config)
    assert numerics._cached_axis_rule.cache_info().misses <= 2
    again = lebesgue_constant(constant_weight(1.0, 5), config)
    assert repr(first.value) == repr(again.value) == "1.6935087808430291"


def test_shared_rules_are_read_only():
    t, s, w = numerics._cached_axis_rule(EndpointBehavior(-0.5, 0.0), 8, 8)
    for a in (t, s, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
