"""Radial norms and exponent bookkeeping."""

import math

import numpy as np
import pytest

from hardyops import numerics, spaces
from hardyops.numerics import QuadratureError
from hardyops.spaces import (
    ExponentConfig,
    central_morrey_norm,
    central_morrey_profile,
    cmo_norm,
    cutoff_power,
    indicator_ball,
    lebesgue_norm,
    log_radial,
    oscillatory_cutoff,
    parse_function_spec,
    power,
    radial_from_callable,
    unit_sphere_volume,
)

SQRT2 = math.sqrt(2.0)

# For osccut:1:2 with q = 2, n = 1 the CMO bracket has the closed form
# B(R)**2 = (R - 1)/(2R) - sin(2 pi R)/(4 pi R) - (1 + cos pi R)**2/(pi R)**2
# for R > 1; its maximum over the search window R <= 1000, by mpmath at
# dps 30, and where it lies
OSCCUT_WINDOW_SUP = 0.706809151709009218503
OSCCUT_WINDOW_ARGMAX = "999.749889324167588"


def osccut_bracket(radii):
    square = (radii - 1.0) / (2.0 * radii) - np.sin(2.0 * math.pi * radii) / (4.0 * math.pi * radii)
    return np.sqrt(square - (1.0 + np.cos(math.pi * radii)) ** 2 / (math.pi * radii) ** 2)


@pytest.fixture
def query_sizes(monkeypatch):
    """The number of radii of each panel-profile query, in call order."""
    sizes = []
    query = numerics._PanelProfile.integral

    def counted(self, phi, radii, *args, **kwargs):
        sizes.append(np.size(radii))
        return query(self, phi, radii, *args, **kwargs)

    monkeypatch.setattr(numerics._PanelProfile, "integral", counted)
    return sizes


class TestUnitSphereVolume:
    # n pi^(n/2)/Gamma(1+n/2): 2, 2pi, 4pi for n = 1, 2, 3
    @pytest.mark.parametrize(
        "n,expect", [(1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)]
    )
    def test_low_dimensions(self, n, expect):
        assert unit_sphere_volume(n) == pytest.approx(expect, rel=1e-13)


class TestLebesgueNorm:
    def test_extremal_family_norm(self):
        # w_n/(p2 eps) * (sqrt2/2)^(-p2 eps) with n=1, p1=p2=4, eps=0.01,
        # for the cutoff power r^(-1/4 - p2 eps/p1) outside radius sqrt2/2
        eps = 0.01
        f = cutoff_power(-0.25 - eps, SQRT2 / 2.0)
        expect = 2.0 / (4.0 * eps) * (SQRT2 / 2.0) ** (-4.0 * eps)
        assert lebesgue_norm(f, 4.0, 1) ** 4 == pytest.approx(expect, rel=1e-12)

    def test_zero_function(self):
        z = radial_from_callable(lambda r: np.zeros_like(r))
        assert lebesgue_norm(z, 1.0, 1) == 0.0

    def test_cutoff_inverse_square(self):
        # 2 * int_1^inf r^-2 dr = 2
        assert lebesgue_norm(cutoff_power(-2.0, 1.0), 1.0, 1) == pytest.approx(
            2.0, rel=1e-13
        )

    def test_divergent_is_inf(self):
        assert math.isinf(lebesgue_norm(power(-0.25), 2.0, 1))
        assert math.isinf(lebesgue_norm(cutoff_power(-0.1, 1.0), 2.0, 1))

    def test_quadrature_path_matches_closed_form(self):
        f = cutoff_power(-1.5, 0.7)
        g = radial_from_callable(f.fn, breakpoints=(0.7,))  # no descriptor
        assert lebesgue_norm(g, 2.0, 1) == pytest.approx(
            lebesgue_norm(f, 2.0, 1), rel=1e-9
        )


class TestCentralMorreyNorm:
    def test_pure_power_closed_form(self):
        # (w_n/n)^(-lam) (1+lam p)^(-1/p); direct integration gives the
        # same bracket at every R (verified in test_r_invariance)
        val = central_morrey_norm(power(-0.25), 2.0, -0.25, 1)
        assert val == pytest.approx(2.0**0.75, rel=1e-13)

    def test_zero_function(self):
        z = radial_from_callable(lambda r: np.zeros_like(r))
        assert central_morrey_norm(z, 2.0, -0.25, 1) == 0.0

    def test_closed_vs_grid(self):
        f = power(-0.125)
        closed = central_morrey_norm(f, 4.0, -0.125, 1, method="closed")
        grid = central_morrey_norm(f, 4.0, -0.125, 1, method="grid")
        assert grid == pytest.approx(closed, rel=1e-6)

    def test_r_invariance_seven_decades(self):
        prof = central_morrey_profile(
            power(-0.25), 2.0, -0.25, 1, np.logspace(-3, 3, 7),
            force_quadrature=True,
        )
        vals = [v for _, v in prof]
        assert (max(vals) - min(vals)) / min(vals) <= 1e-9

    def test_r_invariance_non_integer_profile_dimension(self):
        # |f|**2 r = r**-0.2 is singular at 0: the profile samples
        # f(v**1.25) in dimension 2.5 and is queried at R**0.8
        prof = central_morrey_profile(
            power(-0.6), 2.0, -0.3, 2, np.logspace(-3, 3, 7), force_quadrature=True,
        )
        exact = spaces._power_morrey_norm(-0.3, 2.0, 2)
        assert all(abs(v - exact) <= 1e-9 * exact for _, v in prof)

    def test_grid_is_one_batched_query(self, query_sizes):
        # the 61 grid radii are one query of f's profile; each probe of
        # the climb from the best grid point asks for one radius
        central_morrey_norm(oscillatory_cutoff(1.0, 2.0), 2.0, -0.25, 1)
        assert query_sizes[0] == 61
        assert set(query_sizes[1:]) == {1}
        assert len(query_sizes) - 1 <= spaces._MAX_PROBES

    def test_flat_bracket_stops_at_the_first_probe(self, query_sizes):
        # r**(n lam) has an R-invariant bracket: its slope at the best grid
        # point is zero within its error bound, and the climb ends there
        value = central_morrey_norm(power(-0.1), 3.0, -0.1, 1, method="grid")
        assert query_sizes == [61, 1]
        assert value == pytest.approx(spaces._power_morrey_norm(-0.1, 3.0, 1), rel=1e-13)

    def test_grid_shares_one_profile(self):
        # every ball average reads one panel table of f: sin(pi r) is
        # evaluated at 28,125 nodes, against 1,361,670 by independent
        # per-radius integrals
        f = oscillatory_cutoff(1.0, 2.0)
        calls = []

        def counted(r):
            calls.append(r.size)
            return f.fn(r)

        g = radial_from_callable(counted, breakpoints=f.breakpoints)
        assert central_morrey_norm(g, 2.0, -0.25, 1) == central_morrey_norm(f, 2.0, -0.25, 1)
        assert sum(calls) <= 100_000

    def test_window_sup_oracle(self):
        # for osccut:1:2 with p = 2, lam = -1/4, n = 1 the bracket is
        # (2R)**(1/4) ((R - 1)/(2R) - sin(2 pi R)/(4 pi R))**(1/2); it grows
        # like R**(1/4), and its largest local maximum in the window lies
        # at R = 999.8334125845729823 (mpmath at dps 30), past which it
        # falls to 4.7263430996091364 at R = 1000, the best grid point
        value = central_morrey_norm(oscillatory_cutoff(1.0, 2.0), 2.0, -0.25, 1)
        assert value == pytest.approx(4.72647183884984496563, rel=1e-13)

    @pytest.mark.parametrize(
        "p, lam, n, radii, message",
        [
            (1.0, -0.25, 1, [1.0], "p must exceed 1"),
            (2.0, -0.25, 0, [1.0], "dimension n must be >= 1"),
            (2.0, 0.5, 1, [1.0], "lam must lie in"),
            (2.0, -0.75, 1, [1.0], "lam must lie in"),
            (2.0, -0.25, 1, [-1.0], "radius must be positive and finite"),
            (2.0, -0.25, 1, [1.0, 0.0], "radius must be positive and finite"),
            (2.0, -0.25, 1, [math.inf], "radius must be positive and finite"),
            (2.0, -0.25, 1, [math.nan], "radius must be positive and finite"),
        ],
    )
    def test_profile_validates_like_the_norm(self, p, lam, n, radii, message):
        with pytest.raises(ValueError, match=message):
            central_morrey_profile(power(-0.25), p, lam, n, radii)

    def test_mismatched_power_is_inf(self):
        assert math.isinf(central_morrey_norm(power(-0.3), 2.0, -0.25, 1))

    def test_lebesgue_boundary_recovers_lp_norm(self):
        # lam = -1/q turns the Morrey norm into the L^q norm (steep decay
        # keeps the sup inside the search grid)
        f = cutoff_power(-2.0, 1.0)
        q = 4.0
        assert central_morrey_norm(f, q, -1.0 / q, 1) == pytest.approx(
            lebesgue_norm(f, q, 1), rel=1e-6
        )

    def test_out_of_range_lambda(self):
        with pytest.raises(ValueError):
            central_morrey_norm(power(-0.25), 2.0, -0.75, 1)
        with pytest.raises(ValueError):
            central_morrey_norm(power(-0.25), 2.0, 0.5, 1)


class TestPieceMorreyNorm:
    """The closed-form Morrey norm of r**a on (r0, r1) (p = 2, lam = -1/4 unless named).

    With kappa = p a + n and beta = n (1 + lam p) the bracket**p is
    n (w_n/n)**(-lam p) R**-beta int_{r0}^{min(R, r1)} r**(kappa-1) dr.
    """

    @pytest.mark.parametrize(
        "spec, n, argmax",
        [
            # a < n lam: the peak R* = r0 (beta/(beta - kappa))**(1/kappa),
            # 3e-5 for kappa = -1, beta = 1/2; below the search window
            ("cutpow:-1:1e-5", 1, 3e-5),
            ("cutpow:-1.2:0.5", 1, 0.5 * (0.5 / 1.9) ** (1.0 / -1.4)),
            # kappa = 0: R* = r0 e**(1/beta)
            ("cutpow:-0.5:2", 1, 2.0 * math.exp(2.0)),
            # kappa = -1, beta = 1 in two dimensions: R* = (1/2)**-1
            ("cutpow:-1.5:1", 2, 2.0),
            # R* past the outer edge: the sup sits at r1
            ("cutpow:-1:1e-5@chi:2e-5", 1, 2e-5),
            # a >= n lam with a finite r1: the bracket rises to r1
            ("power:0@chi:2", 2, 2.0),
            ("cutpow:-0.25:1@chi:3", 1, 3.0),
        ],
    )
    def test_sup_is_the_bracket_at_its_argmax(self, spec, n, argmax):
        f = parse_function_spec(spec)
        value = central_morrey_norm(f, 2.0, -0.25, n)
        (_, at_argmax), = central_morrey_profile(f, 2.0, -0.25, n, [argmax])
        assert value == pytest.approx(at_argmax, rel=1e-14, abs=0.0)
        near = argmax * (1.0 + np.linspace(-1e-3, 1e-3, 21))
        radii = np.concatenate([np.logspace(-7.0, 7.0, 281), near])
        brackets = [v for _, v in central_morrey_profile(f, 2.0, -0.25, n, radii)]
        assert max(brackets) <= value * (1.0 + 1e-14)

    def test_sup_past_the_window(self):
        # cutpow:-1:1e-5 peaks at R = 3e-5 with (2/3e-5)**(3/4); the search
        # keeps to R >= 1e-3 and returns about half of it
        f = parse_function_spec("cutpow:-1:1e-5")
        value = central_morrey_norm(f, 2.0, -0.25, 1)
        assert value == pytest.approx((2.0 / 3e-5) ** 0.75, rel=1e-14)
        assert central_morrey_norm(f, 2.0, -0.25, 1, method="grid") < 0.51 * value

    def test_limit_at_infinity(self):
        # a = n lam with r1 = inf: the bracket rises to the pure power's
        # norm (w_n/n)**(-lam) (1 + lam p)**(-1/p) = 2**(1/4) sqrt(2) and
        # never reaches it; the search returns the bracket at R = 1e3
        f = parse_function_spec("cutpow:-0.25:1")
        value = central_morrey_norm(f, 2.0, -0.25, 1)
        assert value == 2.0**0.25 * SQRT2
        (_, far), = central_morrey_profile(f, 2.0, -0.25, 1, [1e12])
        assert far < value and far == pytest.approx(value, rel=1e-6)
        assert central_morrey_norm(f, 2.0, -0.25, 1, method="grid") < 0.99 * value

    @pytest.mark.parametrize(
        "spec", ["cutpow:-0.1:1", "power:-0.5@chi", "cutpow:-0.5:0", "power:-1@chi"],
    )
    def test_unbounded_bracket_is_inf(self, spec):
        # a > n lam out to r1 = inf, or a < n lam down to r0 = 0
        assert central_morrey_norm(parse_function_spec(spec), 2.0, -0.25, 1) == math.inf

    def test_lebesgue_boundary(self):
        # lam = -1/p: the bracket rises to the L^p norm, (2 int_1e-5^inf r**-2)**(1/2)
        f = parse_function_spec("cutpow:-1:1e-5")
        assert central_morrey_norm(f, 2.0, -0.5, 1) == pytest.approx(math.sqrt(2e5), rel=1e-15)

    def test_closed_method_takes_piecewise_powers_only(self):
        f = parse_function_spec("cutpow:-1:1e-5")
        assert central_morrey_norm(f, 2.0, -0.25, 1, method="closed") == central_morrey_norm(
            f, 2.0, -0.25, 1)
        with pytest.raises(ValueError, match="closed form requires a piecewise power"):
            central_morrey_norm(oscillatory_cutoff(1.0, 2.0), 2.0, -0.25, 1, method="closed")


class TestDimensionValidation:
    # n = 0 used to raise ZeroDivisionError (log), print 0.0 (osccut) or
    # print "divergent" (Morrey)
    @pytest.mark.parametrize(
        "norm",
        [
            lambda: cmo_norm(log_radial(), 2.0, 0),
            lambda: cmo_norm(oscillatory_cutoff(1.0, 2.0), 2.0, 0),
            lambda: central_morrey_norm(power(-0.25), 2.0, -0.25, 0),
            lambda: central_morrey_norm(power(-0.25), 2.0, -0.25, -1, method="grid"),
        ],
        ids=["cmo-log", "cmo-osccut", "morrey", "morrey-grid"],
    )
    def test_dimension_below_one_rejected(self, norm):
        with pytest.raises(ValueError, match="^dimension n must be >= 1$"):
            norm()


class TestCmoNorm:
    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_q_must_be_finite(self, q):
        with pytest.raises(ValueError, match="q must exceed 1 and be finite"):
            cmo_norm(oscillatory_cutoff(1.0, 2.0), q, 1)

    def test_constant_symbol_vanishes(self):
        assert cmo_norm(power(0.0), 2.0, 1) <= 1e-12

    def test_log_n1_q2(self):
        # n int_0^1 |log u + 1|^2 du = 2 - 2 + 1 = 1
        assert cmo_norm(log_radial(), 2.0, 1) == pytest.approx(1.0, rel=1e-9)

    def test_log_n2_q2(self):
        # 2 int_0^1 u (log u + 1/2)^2 du = 1/4
        assert cmo_norm(log_radial(), 2.0, 2) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize(
        "q, n, exact",
        [
            # (int_0^inf exp(-x) |1 - x|**q dx)**(1/q) / n, mpmath at dps 20 and 30
            (10.0, 1, 4.09776319888765014),
            (10.0, 3, 1.36592106629588338),
            (40.0, 1, 15.379200703582680909),
            (40.0, 3, 5.1264002345275603028),
        ],
    )
    def test_log_large_q(self, q, n, exact):
        assert cmo_norm(log_radial(), q, n) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("q", [2.0, 3.0, 19.999999, 20.0, 40.0, 169.0, 200.0, 500.0,
                                   5000.0, 1e5, 1e7, 1e12, 1e300, 1.7976931348623157e308])
    def test_log_matches_mpmath(self, q):
        # past q ~ 169 the moment, about q!/e, exceeds the double range
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            # int_0^inf e^(-x) |1 - x|^q dx = (Gamma(q + 1) + int_0^1 e^y y^q dy) / e
            qm = mpmath.mpf(q)
            moment = mpmath.gamma(qm + 1) + mpmath.quad(lambda y: mpmath.exp(y) * y**qm, [0, 1])
            root = (moment / mpmath.e) ** (1 / qm)
        for n in (1, 3):
            exact = float(root / n)
            value = cmo_norm(log_radial(), q, n)
            assert abs(value - exact) <= 1e-13 / q * exact + 4 * math.ulp(exact)

    def test_log_takes_no_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the log symbol's norm is a closed form")

        monkeypatch.setattr(spaces, "integrate_halfline", forbidden)
        monkeypatch.setattr(spaces, "_PanelProfile", forbidden)
        assert cmo_norm(log_radial(), 2.0, 1) == pytest.approx(1.0, rel=1e-15)
        assert cmo_norm(log_radial(), 1e7, 3) > 0.0

    def test_oscillatory_cutoff_finite(self):
        val = cmo_norm(oscillatory_cutoff(1.0, 2.0), 2.0, 1)
        assert 0.0 < val < 2.0

    def test_unconverged_ball_integral_raises(self):
        # sin(200 pi r) outside r = 1 defeats the ball integrals at the
        # large grid radii; their values must not pass as a norm
        with pytest.raises(QuadratureError, match="radius .* did not converge"):
            cmo_norm(parse_function_spec("osccut:200:2"), 2.0, 1)

    def test_unconverged_raises_before_bisecting_noise(self):
        # rounding r moves the phase of sin(200 pi r) by about 1e-12 past
        # r = 10: the panels' rounding floors stop the refinement there
        b = parse_function_spec("osccut:200:2")
        calls = []

        def counted(r):
            calls.append(r.size)
            return b.fn(r)

        symbol = radial_from_callable(counted, breakpoints=b.breakpoints)
        with pytest.raises(QuadratureError, match="radius .* did not converge"):
            cmo_norm(symbol, 2.0, 1)
        assert sum(calls) < 400_000

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_singular_symbol_raises_without_bisecting_noise(self, q):
        # r**-0.2 near r = 0 makes |b - b_B|**q too steep for the smallest
        # ball's 1e-13 goal; once its panels' errors are down to the
        # rounding of their own sums they are not bisected further, so
        # the raise comes long before the 400,000-evaluation budget
        b = parse_function_spec("power:-0.2@chi:3")
        calls = []

        def counted(r):
            calls.append(r.size)
            return b.fn(r)

        symbol = radial_from_callable(counted, breakpoints=b.breakpoints)
        with pytest.raises(QuadratureError, match="radius 0.001 did not converge"):
            cmo_norm(symbol, q, 1)
        assert sum(calls) < 20_000

    def test_grid_is_two_batched_queries(self, query_sizes):
        # the 61 grid radii are one mean query and one oscillation query;
        # at q = 2 each probe of the climb asks for one radius twice (mean
        # and oscillation): the slope's tilt G is the ball mean of b - b_B,
        # which is zero, and is not queried
        cmo_norm(oscillatory_cutoff(1.0, 2.0), 2.0, 1)
        assert query_sizes[:2] == [61, 61]
        assert set(query_sizes[2:]) == {1}
        # 8 probes: one at R = 1000, three doubling steps down, four
        # regula falsi steps
        assert len(query_sizes) == 2 + 2 * 8

    def test_tilt_is_queried_when_q_is_not_two(self, query_sizes):
        # each probe asks for one radius three times: mean, oscillation
        # and the tilt G
        cmo_norm(oscillatory_cutoff(1.0, 2.0), 2.5, 1)
        assert query_sizes[:2] == [61, 61]
        assert set(query_sizes[2:]) == {1}
        assert len(query_sizes[2:]) % 3 == 0
        assert len(query_sizes[2:]) // 3 <= spaces._MAX_PROBES

    def test_flat_bracket_stops_at_the_first_probe(self, query_sizes):
        # 3 log r has an R-invariant bracket: its slope at the best grid
        # point is zero within its error bound, and the climb ends there
        value = cmo_norm(radial_from_callable(lambda r: 3.0 * np.log(r)), 3.0, 2)
        assert query_sizes == [61, 61, 1, 1, 1]
        assert value == pytest.approx(3.0 * cmo_norm(log_radial(), 3.0, 2), rel=1e-13)

    def test_shifted_symbol_climbs_to_the_same_radius(self, monkeypatch):
        # b and b + 3 have the same oscillations, so the climb must end at
        # the same radius with the same bracket
        b = oscillatory_cutoff(1.0, 2.0)
        shifted = radial_from_callable(lambda r: b.fn(r) + 3.0, breakpoints=b.breakpoints)
        search = spaces._grid_sup
        tops = []

        def recorded(probe):
            seen = []

            def logged(radii, slopes=False):
                values, rises = probe(radii, slopes)
                seen.extend(zip(np.atleast_1d(radii), values))
                return values, rises

            value = search(logged)
            tops.append(max(seen, key=lambda pair: pair[1]))
            return value

        monkeypatch.setattr(spaces, "_grid_sup", recorded)
        plain, moved = cmo_norm(b, 2.0, 1), cmo_norm(shifted, 2.0, 1)
        (radius, value), (moved_radius, moved_value) = tops
        assert (plain, moved) == (value, moved_value)
        assert moved_radius == pytest.approx(radius, rel=1e-10)
        assert moved == pytest.approx(plain, rel=1e-10)

    def test_ball_integrals_share_one_profile(self):
        # every ball integral reads one panel table of b: sin(pi r) is
        # evaluated at well under the 2,051,880 nodes of independent ones
        b = oscillatory_cutoff(1.0, 2.0)
        calls = []

        def counted(r):
            calls.append(r.size)
            return b.fn(r)

        symbol = radial_from_callable(counted, breakpoints=b.breakpoints)
        assert cmo_norm(symbol, 2.0, 1) == pytest.approx(OSCCUT_WINDOW_SUP, rel=1e-13)
        assert sum(calls) <= 100_000

    def test_window_sup_oracle(self):
        # the climb from the best grid point (R = 1000) ends at the window
        # maximum R = 999.7498..., below the norm 1/sqrt(2) = lim B(R)
        value = cmo_norm(oscillatory_cutoff(1.0, 2.0), 2.0, 1)
        assert abs(value - OSCCUT_WINDOW_SUP) <= 1e-13 * OSCCUT_WINDOW_SUP
        assert value < 1.0 / SQRT2
        # no radius of the window beats the stored maximum: the local
        # maxima of B(R) sit about 1/2 apart, so a 1e-3 scan comes within
        # B'' (1e-3)**2 ~ 1e-5 of each
        scan = osccut_bracket(np.linspace(1.0, 1000.0, 999_001)).max()
        assert OSCCUT_WINDOW_SUP - 1e-4 <= scan <= OSCCUT_WINDOW_SUP * (1.0 + 1e-15)

    def test_window_sup_matches_mpmath(self):
        # the stored radius is where the closed form's derivative vanishes;
        # its second derivative there is about -pi/R ~ -3e-3, so a slope
        # below 1e-15 pins R to about 3e-13
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            radius = mpmath.mpf(OSCCUT_WINDOW_ARGMAX)
            pi = mpmath.pi

            def square(R):
                return ((R - 1) / (2 * R) - mpmath.sin(2 * pi * R) / (4 * pi * R)
                        - (1 + mpmath.cos(pi * R)) ** 2 / (pi**2 * R**2))

            assert abs(mpmath.diff(square, radius)) < 1e-15
            assert float(mpmath.sqrt(square(radius))) == OSCCUT_WINDOW_SUP

    @pytest.mark.parametrize(
        "q, n, exact",
        [
            # the bracket at the returned radius R = 999.7633742225743, by
            # mpmath with the integrals split at the kinks sin(pi r) = b_B
            (1.5, 1, 0.67610914835552415211),
            # the same at R = 12.715108565971326
            (2.5, 3, 0.74197982746385838742),
        ],
    )
    def test_large_radius_oscillation(self, q, n, exact):
        # the grid runs to R = 1000 whichever radius wins, so every ball
        # integral up to there must converge
        assert cmo_norm(oscillatory_cutoff(1.0, 2.0), q, n) == pytest.approx(exact, rel=1e-11)

    def test_large_offset_keeps_the_norm(self):
        # at q = 2 the oscillations come from moments about a reference K
        # near the ball means, so an offset of 1e3 cancels in c - K, not in
        # the oscillation itself
        b = oscillatory_cutoff(1.0, 2.0)
        shifted = radial_from_callable(lambda r: b.fn(r) + 1e3, breakpoints=b.breakpoints)
        plain = cmo_norm(b, 2.0, 1)
        assert cmo_norm(shifted, 2.0, 1) == pytest.approx(plain, rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 3.0, 1e3])
    def test_square_oscillations_match_shifted_queries(self, offset):
        # the moment route at the 61 grid radii against one query shifted
        # by each radius's mean, within the sum of their estimates
        b = oscillatory_cutoff(1.0, 2.0)
        profile = numerics._PanelProfile(lambda r: b.fn(r) + offset, 1, b.breakpoints)
        radii = np.logspace(-3.0, 3.0, 61)

        def ball(phi, radii, shift=None):
            results = profile.integral(phi, radii, shift)
            assert all(res.converged for res in results)
            return np.array([[res.value, res.abs_error_estimate] for res in results]).T

        means, errs = ball(lambda v: v, radii)
        osc, osc_errs = spaces._square_oscillations(ball, radii, means, errs, 1e-13)
        ref, ref_errs = ball(np.square, radii, means)
        rounding = 8 * np.spacing(np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(osc - ref) <= osc_errs + ref_errs + rounding)

    def test_square_oscillations_take_a_subnormal_estimate(self):
        # tol / (2 e) overflows for e = 5e-324: the reach is inf, which
        # admits any reference, so both radii share one M2 query
        calls = []

        def ball(phi, radii, shift=None):
            calls.append((radii.size, shift))
            return np.ones(radii.size), np.zeros(radii.size)

        means, errs = np.array([0.5, 0.25]), np.array([5e-324, 1e-20])
        osc, osc_errs = spaces._square_oscillations(ball, np.array([1.0, 2.0]), means, errs,
                                                    1e-13)
        assert calls == [(2, 0.375)]
        assert osc.tolist() == [1.0 - 0.125**2] * 2
        assert np.all(osc_errs < 1e-16)

    def test_custom_log_symbol(self):
        # -2 log r without the closed-form branch: twice the log norm, 2
        b = radial_from_callable(lambda r: -2.0 * np.log(r))
        assert cmo_norm(b, 2.0, 1) == pytest.approx(2.0, rel=1e-13)

    def test_inf_over_constants_one_sided(self):
        # the inf-over-constants form never exceeds the mean-centered
        # norm: the ball mean is the exact L^2 minimizer, and every other
        # centering constant does worse
        b = log_radial()
        q, n, radius = 2.0, 1, 3.7

        def bracket(c):
            from hardyops.numerics import integrate_unit_interval

            res = integrate_unit_interval(
                lambda u: np.abs(np.log(radius * u) - c) ** q * u ** (n - 1),
                tol=1e-12,
            )
            return (n * res.value) ** (1.0 / q)

        mean = math.log(radius) - 1.0  # b_B for b = log on (0, R), n = 1
        at_mean = bracket(mean)
        assert at_mean <= cmo_norm(b, q, n) + 1e-9
        assert all(bracket(c) >= at_mean - 1e-12 for c in np.linspace(-3, 3, 21))


class TestHomogeneity:
    @pytest.mark.parametrize("c", [-2.0, 0.5])
    def test_all_three_norms(self, c):
        base = cutoff_power(-1.2, 0.5)
        scaled = radial_from_callable(
            lambda r: c * base.fn(r), breakpoints=(0.5,)
        )
        assert lebesgue_norm(scaled, 2.0, 1) == pytest.approx(
            abs(c) * lebesgue_norm(base, 2.0, 1), rel=1e-8
        )
        assert central_morrey_norm(scaled, 2.0, -0.25, 1) == pytest.approx(
            abs(c) * central_morrey_norm(base, 2.0, -0.25, 1), rel=1e-6
        )
        b = log_radial()
        shifted = radial_from_callable(lambda r: c * b.fn(r))
        assert cmo_norm(shifted, 2.0, 1) == pytest.approx(
            abs(c) * cmo_norm(b, 2.0, 1), rel=1e-6
        )


class TestHomogeneityFaults:
    """The norms scale exactly, ||c b|| = |c| ||b||, but the grid searches
    judge every ball integral against an absolute goal (n 1e-13), which does
    not scale with the symbol (ROADMAP item 3)."""

    @pytest.mark.xfail(strict=True, raises=(AssertionError, QuadratureError),
                       reason="absolute goal: small c stops early, c = 2**20 cannot meet it")
    @pytest.mark.parametrize("c", [2.0**-20, 1e-30, 1e-300, 2.0**20],
                             ids=["2**-20", "1e-30", "1e-300", "2**20"])
    def test_cmo_norm(self, c):
        b = oscillatory_cutoff(1.0, 2.0)
        scaled = radial_from_callable(lambda r: c * b.fn(r), breakpoints=b.breakpoints)
        assert cmo_norm(scaled, 2.0, 1) / c == pytest.approx(OSCCUT_WINDOW_SUP, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="absolute goal: 2.8% low at c = 1e-60")
    def test_central_morrey_norm(self):
        b = oscillatory_cutoff(1.0, 2.0)
        scaled = radial_from_callable(lambda r: 1e-60 * b.fn(r), breakpoints=b.breakpoints)
        assert central_morrey_norm(scaled, 2.0, -0.25, 1) / 1e-60 == pytest.approx(
            central_morrey_norm(b, 2.0, -0.25, 1), rel=1e-12)


class TestRadialFunctions:
    def test_descriptor_matches_eval(self):
        f = cutoff_power(-0.7, 0.3)
        rs = np.array([0.1, 0.3, 0.31, 1.0, 7.5])
        expect = np.where(rs > 0.3, rs**-0.7, 0.0)
        assert np.max(np.abs(f(rs) - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_indicator(self):
        chi = indicator_ball(1.0)
        assert float(chi(np.array([0.5]))[0]) == 1.0
        assert float(chi(np.array([1.5]))[0]) == 0.0

    def test_oscillatory_cutoff_values(self):
        b = oscillatory_cutoff(3.0, 2.0)  # zero inside radius 1
        assert float(b(np.array([0.5]))[0]) == 0.0
        r = 1.25
        assert float(b(np.array([r]))[0]) == pytest.approx(
            math.sin(math.pi * 3.0 * r)
        )

    def test_kinds(self):
        assert power(-1.0).kind == "power"
        assert cutoff_power(-1.0, 1.0).kind == "cutoff-power"
        assert log_radial().kind == "log"
        assert oscillatory_cutoff(1, 1).kind == "oscillatory-cutoff"


class TestFunctionGrammar:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("power:-0.25", "power"),
            ("cutpow:-1:0.5", "cutoff-power"),
            ("log", "log"),
            ("osccut:3:2", "oscillatory-cutoff"),
            ("power:0@chi", "cutoff-power"),
            ("cutpow:-0.3:0.2@chi:2", "cutoff-power"),
        ],
    )
    def test_accepted(self, spec, kind):
        assert parse_function_spec(spec).kind == kind

    def test_chi_modifier_restricts_support(self):
        f = parse_function_spec("power:0@chi")
        assert float(f(np.array([0.5]))[0]) == 1.0
        assert float(f(np.array([1.5]))[0]) == 0.0

    @pytest.mark.parametrize("spec", ["", "power", "log:1", "osccut:1", "log@chi"])
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_function_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["power:-0.25@chi:0", "power:-0.25@chi:x", "log@chi", "power:1@chi:1:2"]
    )
    def test_modifier_errors_name_the_spec(self, spec):
        with pytest.raises(ValueError, match=f"^invalid function spec '{spec}': "):
            parse_function_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        ["power:nan", "power:inf", "power:-inf", "cutpow:nan:1", "cutpow:-0.5:nan",
         "cutpow:-0.5:inf", "power:0@chi:inf", "power:0@chi:nan", "osccut:inf:2",
         "osccut:nan:2", "osccut:1:inf"],
    )
    def test_non_finite_numbers_are_rejected(self, spec):
        with pytest.raises(ValueError, match=f"^invalid function spec '{spec}': "):
            parse_function_spec(spec)

    @pytest.mark.parametrize(
        "args", [(math.nan,), (1.0, math.nan), (1.0, 0.0, math.nan), (1.0, math.inf)]
    )
    def test_piecewise_power_rejects_non_finite_numbers(self, args):
        with pytest.raises(ValueError):
            spaces.PiecewisePower(*args)


class TestExponentConfig:
    def test_target_exponent_sum(self):
        cfg = ExponentConfig(1, (4.0, 4.0))
        assert cfg.p == pytest.approx(2.0)
        assert cfg.m == 2
        assert cfg.lam == pytest.approx(-0.5)

    def test_balanced_flag(self):
        assert ExponentConfig(1, (4.0, 4.0), (-0.125, -0.125)).balanced
        assert ExponentConfig(1, (4.0, 2.0), (-0.125, -0.25)).balanced
        assert not ExponentConfig(2, (4.0, 4.0), (-0.125, -0.2)).balanced

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            ExponentConfig(1, (4.0,), (-0.3,))
        with pytest.raises(ValueError):
            ExponentConfig(1, (4.0,), (0.1,))

    def test_default_lambda_is_lebesgue_boundary(self):
        cfg = ExponentConfig(1, (4.0, 2.0))
        assert cfg.lambda_i == (-0.25, -0.5)

    def test_strict_regime(self):
        ExponentConfig(1, (4.0, 4.0), (-0.125, -0.125)).require_strict_morrey()
        with pytest.raises(ValueError):
            ExponentConfig(1, (4.0, 4.0)).require_strict_morrey()

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            ExponentConfig(1, (2.0, 2.0))  # derived p = 1

    def test_bad_p(self):
        with pytest.raises(ValueError):
            ExponentConfig(1, (1.0,))

    @pytest.mark.parametrize(
        "p_i, lambda_i, named",
        [((4.0, math.inf), None, "p_i = inf"), ((4.0, math.nan), None, "p_i = nan"),
         ((4.0,), (math.nan,), "lambda_i=nan")],
    )
    def test_exponents_must_be_finite(self, p_i, lambda_i, named):
        with pytest.raises(ValueError, match=named):
            ExponentConfig(1, p_i, lambda_i or ())


class TestValidation:
    @pytest.mark.parametrize(
        "call, message",
        [(lambda: ExponentConfig(0, (2.0,)), "dimension n must be >= 1"),
         (lambda: ExponentConfig(1, ()), "at least one integrability exponent p_i is required"),
         (lambda: ExponentConfig(1, (4.0, 4.0), (-0.125,)),
          "lambda_i and p_i must have equal length"),
         # 1/4 + 1e-300 rounds to 1/4, so the derived p equals p_1
         (lambda: ExponentConfig(1, (4.0, 1e300), (-0.125, -1e-301)).require_strict_morrey(),
          "strict regime needs p < p_i for every i"),
         (lambda: unit_sphere_volume(0), "n must be >= 1"),
         (lambda: lebesgue_norm(power(0.0), 0.0, 1), "p must be positive"),
         (lambda: central_morrey_norm(power(-0.25), 2.0, -0.25, 1, method="bogus"),
          "unknown method 'bogus'")],
        ids=["n", "p_i", "lambda_i", "strict-order", "sphere-n", "lp-p", "method"],
    )
    def test_rejected_with_its_reason(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
