"""Sharp-constant quadratures against closed forms and identities."""

import json
import math

import pytest

from hardyops.cli import run
from hardyops.constants import (
    _FAMILIES,
    ConstantSpec,
    cesaro_lebesgue_constant,
    cesaro_log_constant,
    closed_form,
    lebesgue_constant,
    log_moment_constant,
    morrey_constant,
    weighted_moment,
)
from hardyops.numerics import EndpointBehavior, gamma
from hardyops.spaces import ExponentConfig
from hardyops.weights import (
    Weight,
    constant_weight,
    counterexample_weight,
    multilinear_riesz_weight,
    riemann_liouville_weight,
    weyl_weight,
)

ONE = constant_weight(1, 1)
ONE2 = constant_weight(1, 2)
LOG2 = math.log(2.0)


def cfg(n, *p, lam=None):
    return ExponentConfig(n, tuple(p), tuple(lam) if lam else ())


class TestLebesgueConstant:
    def test_classical_sharp_constant(self):
        res = lebesgue_constant(ONE, cfg(1, 2.0))
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.converged

    def test_bilinear_separable(self):
        res = lebesgue_constant(ONE2, cfg(1, 4.0, 4.0))
        assert res.value == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_fractional_weight(self):
        res = lebesgue_constant(riemann_liouville_weight(0.5), cfg(1, 2.0))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_five_linear_monte_carlo(self):
        # separable, so the exact value is (8/7)^5; the m = 5 constant
        # must agree within its own reported error and be repeatable
        c = cfg(1, *([8.0] * 5))
        r1 = lebesgue_constant(constant_weight(1, 5), c, tol=1e-3)
        r2 = lebesgue_constant(constant_weight(1, 5), c, tol=1e-3)
        assert r1.value == r2.value
        expect = (8.0 / 7.0) ** 5
        assert abs(r1.value - expect) <= 10.0 * r1.abs_error_estimate

    def test_borderline_exponent_that_does_not_grow(self):
        # t**2 declared flat at 0 puts the axis exponent at -1, the border
        # of integrability; the integrand is t, so the truncated values
        # do not grow and the probe settles the constant, 1/2
        w = Weight(1, lambda ts, ss: ts[0] ** 2, (EndpointBehavior(0.0, 0.0),), "t^2 as flat")
        res = lebesgue_constant(w, cfg(2, 2.0))
        assert res.converged
        assert res.diagnosis == "borderline exponent settled by truncation probe"
        assert abs(res.value - 0.5) <= res.abs_error_estimate

    def test_divergent_exponent_flagged(self):
        # n/p = 1.5 makes the axis exponent -1.5
        res = lebesgue_constant(ONE, cfg(3, 2.0))
        assert not res.converged
        assert res.diagnosis is not None
        assert math.isinf(res.value)


class TestMorreyConstant:
    def test_bilinear_separable(self):
        res = morrey_constant(ONE2, cfg(1, 4.0, 4.0, lam=(-0.25, -0.25)))
        assert res.value == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_boundary_lambda_equals_lebesgue(self):
        c = cfg(1, 4.0, 4.0)  # lambda_i defaults to -1/p_i
        assert morrey_constant(ONE2, c).value == pytest.approx(
            lebesgue_constant(ONE2, c).value, rel=1e-14
        )

    def test_zero_weight(self):
        res = morrey_constant(constant_weight(0, 2), cfg(1, 4.0, 4.0, lam=(-0.25, -0.25)))
        assert res.value == 0.0


class TestLogMomentConstant:
    def test_single_axis_log(self):
        # int t^(-1/4) log(1/t) dt = (1 - 1/4)^(-2) = 16/9
        res = log_moment_constant(ONE, cfg(1, 3.0, lam=(-0.25,)), (1,), 1.0)
        assert res.value == pytest.approx(16.0 / 9.0, rel=1e-10)

    def test_empty_axes_is_plain_moment(self):
        c = cfg(1, 3.0, lam=(-0.25,))
        assert log_moment_constant(ONE, c, ()).value == pytest.approx(
            morrey_constant(ONE, c).value, rel=1e-14
        )

    def test_counterexample_truncated_closed_form(self):
        # substitution s = log(1/t): 1/(1+a) + (S^(1-a) - 1)/(1-a)
        w = counterexample_weight(0.5, 1, 2)
        c = cfg(1, 2.0)
        for delta in (1e-4, 1e-8):
            res = log_moment_constant(w, c, (1,), 1.0, truncation=delta)
            big_s = math.log(1.0 / delta)
            expect = 1.0 / 1.5 + (math.sqrt(big_s) - 1.0) / 0.5
            assert res.value == pytest.approx(expect, rel=1e-3)
            assert res.value == pytest.approx(expect, rel=1e-10)

    def test_axes_validation(self):
        with pytest.raises(ValueError):
            log_moment_constant(ONE, cfg(1, 2.0), (2,), 1.0)
        with pytest.raises(ValueError):
            log_moment_constant(ONE, cfg(1, 2.0), (1,), 3.0)


class TestCesaroConstants:
    def test_bilinear_separable(self):
        res = cesaro_lebesgue_constant(ONE2, cfg(1, 4.0, 4.0))
        assert res.value == pytest.approx(16.0, rel=1e-12)

    def test_boundary_exponent_divergence_flagged(self):
        # n(1 - 1/p) = 1 exactly: borderline, settled by truncation growth
        res = cesaro_lebesgue_constant(ONE, cfg(2, 2.0))
        assert not res.converged
        assert "grows" in (res.diagnosis or "")

    def test_weyl_weight_beta_closed_form(self):
        # Gamma(1 + 1/p - a)/Gamma(1 + 1/p) = 2/sqrt(pi) at p=2, a=1/2
        res = cesaro_lebesgue_constant(weyl_weight(0.5), cfg(1, 2.0))
        assert res.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_log_constant_m1(self):
        # int t^(-1/4) log(2/t) dt = (4/3) log 2 + 16/9
        res = cesaro_log_constant(ONE, cfg(1, 1.25, lam=(-0.75,)))
        assert res.value == pytest.approx((4.0 / 3.0) * LOG2 + 16.0 / 9.0, rel=1e-10)

    def test_log_constant_matches_weighted_moment(self):
        res = cesaro_log_constant(ONE, cfg(1, 1.25, lam=(-0.75,)))
        direct = weighted_moment(ONE, [-0.25], log_axes=(1,), log_shift=2.0)
        assert res.value == pytest.approx(direct.value, rel=1e-14)

    def test_zero_weight(self):
        res = cesaro_log_constant(constant_weight(0, 1), cfg(1, 1.25, lam=(-0.75,)))
        assert res.value == 0.0


class TestCounterexampleMoments:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_plain_moment_is_two_over_alpha(self, alpha):
        w = counterexample_weight(alpha, 1, 2)
        res = lebesgue_constant(w, cfg(1, 2.0))
        assert res.converged
        assert res.value == pytest.approx(2.0 / alpha, rel=1e-6)

    def test_log_moment_divergent(self):
        w = counterexample_weight(0.5, 1, 2)
        res = log_moment_constant(w, cfg(1, 2.0), (1,), 2.0)
        assert not res.converged
        assert math.isinf(res.value)


class TestIdentities:
    @pytest.mark.parametrize(
        "weight",
        [ONE, riemann_liouville_weight(0.5)],
        ids=["flat", "fractional"],
    )
    def test_shifted_log_moment_splits(self, weight):
        # full-range identity: C = A log2 + B
        c = cfg(1, 2.0)
        a = log_moment_constant(weight, c, ()).value
        b = log_moment_constant(weight, c, (1,), 1.0).value
        cc = log_moment_constant(weight, c, (1,), 2.0).value
        assert cc == pytest.approx(a * LOG2 + b, rel=1e-8)

    def test_shifted_log_moment_splits_truncated(self):
        w = counterexample_weight(0.5, 1, 2)
        c = cfg(1, 2.0)
        d = 1e-6
        a = log_moment_constant(w, c, (), truncation=d).value
        b = log_moment_constant(w, c, (1,), 1.0, truncation=d).value
        cc = log_moment_constant(w, c, (1,), 2.0, truncation=d).value
        assert cc == pytest.approx(a * LOG2 + b, rel=1e-8)

    def test_bilinear_expansion(self):
        # log(2/t1) log(2/t2) expands into four moments
        w = multilinear_riesz_weight(1.0, 2)
        c = cfg(1, 4.0, 4.0, lam=(-0.125, -0.125))
        c2 = log_moment_constant(w, c, (1, 2), 2.0).value
        a2 = morrey_constant(w, c).value
        d = log_moment_constant(w, c, (1,), 1.0).value
        e = log_moment_constant(w, c, (2,), 1.0).value
        b2 = log_moment_constant(w, c, (1, 2), 1.0).value
        assert c2 == pytest.approx(LOG2**2 * a2 + LOG2 * (d + e) + b2, rel=1e-8)

    def test_shifted_moment_dominates(self):
        # log(2/t) >= log 2 on (0,1), so C_m >= (log2)^m * morrey moment
        w = multilinear_riesz_weight(1.0, 2)
        c = cfg(1, 4.0, 4.0, lam=(-0.125, -0.125))
        c2 = log_moment_constant(w, c, (1, 2), 2.0).value
        a2 = morrey_constant(w, c).value
        assert c2 >= LOG2**2 * a2

    def test_quadrature_matches_closed_forms(self):
        assert lebesgue_constant(ONE, cfg(1, 2.0)).value == pytest.approx(
            closed_form("hardy", p=2.0), rel=1e-6
        )
        assert lebesgue_constant(
            riemann_liouville_weight(0.5), cfg(1, 2.0)
        ).value == pytest.approx(
            closed_form("riemann_liouville", p=2.0, alpha=0.5), rel=1e-6
        )


class TestClosedForm:
    def test_values(self):
        assert closed_form("hardy", p=2.0) == pytest.approx(2.0)
        assert closed_form("riemann_liouville", p=2.0, alpha=0.5) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14
        )
        assert closed_form("counterexample_A", alpha=0.5) == pytest.approx(4.0)

    def test_general_riemann_liouville(self):
        for p, a in [(3.0, 0.25), (4.0, 0.75)]:
            assert closed_form("riemann_liouville", p=p, alpha=a) == pytest.approx(
                gamma(1 - 1 / p) / gamma(1 + a - 1 / p), rel=1e-14
            )

    def test_rejections(self):
        with pytest.raises(ValueError):
            closed_form("hardy", p=1.0)
        with pytest.raises(ValueError):
            closed_form("riemann_liouville", p=2.0, alpha=1.5)
        with pytest.raises(ValueError):
            closed_form("unknown")


class TestConstantSpec:
    def test_dispatch(self):
        spec = ConstantSpec(ONE, cfg(1, 2.0), "lebesgue")
        assert spec.compute().value == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantSpec(ONE, cfg(1, 2.0), "bogus")
        with pytest.raises(ValueError):
            ConstantSpec(ONE2, cfg(1, 2.0), "lebesgue")  # arity mismatch
        with pytest.raises(ValueError):
            ConstantSpec(ONE, cfg(1, 2.0), "log-moment")  # no axes

    def test_log_moment_dispatch(self):
        spec = ConstantSpec(ONE, cfg(1, 3.0, lam=(-0.25,)), "log-moment", (1,), 1.0)
        assert spec.compute().value == pytest.approx(16.0 / 9.0, rel=1e-10)


# family -> (exponent e for n = 1, p = 4, lambda = -1/8; log shift or None)
FAMILY_CLOSED_FORMS = {
    "lebesgue": (-0.25, None),
    "morrey": (-0.125, None),
    "log-moment": (-0.125, 2.0),
    "cesaro-lebesgue": (-0.75, None),
    "cesaro-log": (-0.875, 2.0),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_family_table_matches_beta_closed_forms(family, capsys):
    # const:1 at m = 1: int t**e dt = B(e+1, 1), and
    # int t**e log(c/t) dt = log(c) B + B**2
    assert set(FAMILY_CLOSED_FORMS) == set(_FAMILIES)
    e, shift = FAMILY_CLOSED_FORMS[family]
    beta = math.gamma(e + 1.0) / math.gamma(e + 2.0)
    exact = beta if shift is None else math.log(shift) * beta + beta * beta
    slack = 4.0 * math.ulp(exact)
    axes = (1,) if family == "log-moment" else ()
    res = ConstantSpec(ONE, cfg(1, 4.0, lam=(-0.125,)), family, axes, 2.0).compute()
    assert res.converged
    assert abs(res.value - exact) <= res.abs_error_estimate + slack

    # the CLI takes --lambda only for the families whose exponent reads it
    argv = ["constant", family, "--weight", "const:1", "--p", "4"]
    if family in ("morrey", "log-moment", "cesaro-log"):
        argv += ["--lambda", "-0.125"]
    if family == "log-moment":
        argv += ["--axes", "1", "--shift", "2"]
    assert run(argv) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["converged"]
    assert rec["result"]["value"] == res.value
    assert abs(rec["result"]["value"] - exact) <= rec["error_estimate"] + slack


class TestMomentValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(weight=constant_weight(1.0, 2), exponents=[0.0]),
          "one exponent per weight coordinate is required"),
         (dict(weight=constant_weight(1.0), exponents=[0.0], truncation=1.0),
          r"truncation must lie in \[0, 1\)")],
        ids=["exponent-count", "truncation"],
    )
    def test_rejected_with_its_reason(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            weighted_moment(**kwargs)
