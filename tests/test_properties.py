"""Property-based invariants over randomized parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyops import numerics
from hardyops.numerics import EndpointBehavior, gamma, integrate_unit_interval
from hardyops.operators import OperatorRequest, hardy_apply
from hardyops.spaces import cutoff_power, lebesgue_norm, radial_from_callable
from hardyops.weights import constant_weight, riemann_liouville_weight

LIGHT = settings(max_examples=25, deadline=None)


class TestGammaProperties:
    @LIGHT
    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @LIGHT
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_reflection(self, x):
        lhs = gamma(x) * gamma(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)


class TestRunningSums:
    @LIGHT
    @given(st.integers(1, 5_000), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_every_prefix_is_within_the_sum2_bound(self, size, rows, seed):
        # |sum - S| <= u |S| + gamma(k - 1)**2 sum |x| for every prefix of k
        # terms, u = 2**-53 and gamma(j) = j u / (1 - j u), checked in
        # integers: terms of magnitude 1e-8 to 1e8, and every sum and
        # rounding error of them, are whole multiples of 2**-80.  rows = 0
        # is one 1-D array, else a 2-D one summed along its rows
        rng = np.random.default_rng(seed)
        shape = (rows, size) if rows else (size,)
        terms = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        sums = numerics._running_sums(terms)
        unit = 2**53
        for xs, got in zip(np.atleast_2d(terms * 2.0**80).tolist(),
                           np.atleast_2d(sums * 2.0**80).tolist()):
            exact = mass = 0
            for j, (x, g) in enumerate(zip(xs, got)):
                assert g == int(g)
                exact += int(x)
                mass += abs(int(x))
                # times unit (unit - j)**2, both sides whole numbers
                assert (abs(int(g) - exact) * unit * (unit - j) ** 2
                        <= abs(exact) * (unit - j) ** 2 + j * j * mass * unit)


class TestQuadratureProperties:
    @LIGHT
    @given(st.floats(min_value=-0.95, max_value=2.0))
    def test_pure_power_moment(self, beta):
        res = integrate_unit_interval(
            lambda t: t**beta, EndpointBehavior(min(beta, 2.0), 0.0)
        )
        assert res.value == pytest.approx(1.0 / (1.0 + beta), rel=1e-9)

    @LIGHT
    @given(
        st.floats(min_value=-0.9, max_value=-0.1),
        st.floats(min_value=-0.9, max_value=-0.1),
    )
    def test_beta_integral_pair_form(self, b0, b1):
        res = integrate_unit_interval(
            None,
            EndpointBehavior(b0, b1),
            tol=1e-12,
            rtol=1e-11,
            f_pair=lambda t, s: t**b0 * s**b1,
        )
        expect = gamma(1 + b0) * gamma(1 + b1) / gamma(2 + b0 + b1)
        assert res.value == pytest.approx(expect, rel=1e-9)

    @LIGHT
    @given(
        st.floats(min_value=-0.9, max_value=-0.1),
        st.floats(min_value=-0.9, max_value=-0.1),
    )
    def test_beta_integral_plain_form_error_sound(self, b0, b1):
        # plain f(t) cannot resolve 1 - t below ~1e-16; the estimate
        # must cover whatever mass that truncates
        res = integrate_unit_interval(
            lambda t: t**b0 * (1 - t) ** b1, EndpointBehavior(b0, b1)
        )
        expect = gamma(1 + b0) * gamma(1 + b1) / gamma(2 + b0 + b1)
        assert abs(res.value - expect) <= 10.0 * res.abs_error_estimate + 1e-12


class TestNormProperties:
    @LIGHT
    @given(
        st.floats(min_value=-3.0, max_value=-1.2),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: abs(c) > 1e-3),
    )
    def test_lebesgue_homogeneity(self, a, r0, c):
        base = cutoff_power(a, r0)
        scaled = radial_from_callable(
            lambda r: c * base.fn(r), breakpoints=(r0,)
        )
        assert lebesgue_norm(scaled, 2.0, 1) == pytest.approx(
            abs(c) * lebesgue_norm(base, 2.0, 1), rel=1e-8
        )


class TestOperatorScaling:
    @LIGHT
    @given(
        st.floats(min_value=-0.9, max_value=-0.1),
        st.floats(min_value=0.3, max_value=1.2),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_hardy_dilation(self, a, r0, s):
        f = cutoff_power(a, r0)
        fs = radial_from_callable(
            lambda r, _s=s: f.fn(_s * r), breakpoints=(r0 / s,)
        )
        w = riemann_liouville_weight(0.5)
        radius = r0 + 1.0
        lhs = hardy_apply(OperatorRequest(w, (fs,), radius)).value
        rhs = hardy_apply(OperatorRequest(w, (f,), s * radius)).value
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @LIGHT
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_hardy_positivity(self, radius):
        w = constant_weight(1, 2)
        f1, f2 = cutoff_power(-0.4, 0.3), cutoff_power(-0.6, 0.5)
        assert hardy_apply(OperatorRequest(w, (f1, f2), radius)).value >= 0.0
