"""Sharp operator-norm constants as weighted moment integrals.

Every constant in this package is a cube integral of the form

    int_{(0,1)^m} prod_i t_i**e_i * w(t) * prod_{i in E} log(shift/t_i) dt

for a family-specific exponent vector, read from one family table:

* ``lebesgue_constant``:        e_i = -n/p_i        (L^p operator norm)
* ``morrey_constant``:          e_i = n*lambda_i    (central Morrey norm)
* ``log_moment_constant``:      e_i = n*lambda_i, log factors on E
* ``cesaro_lebesgue_constant``: e_i = -n(1 - 1/p_i)
* ``cesaro_log_constant``:      e_i = -n*lambda_i - n, log(2/t_i) on all axes

Each moment is one `weights._integrate_weighted` call, which picks the
route and returns a divergent verdict for an exponent that is not
integrable at 0.  Exponents within 1e-12 of that border (after adding
the weight's own exponent) are settled first by a truncation-growth probe
(the integral over (delta, 1) versus (delta/100, 1)).

`truncation` restricts every axis to (delta, 1); this is how divergent
log moments are reported as growing families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .numerics import QuadratureResult
from .spaces import ExponentConfig
from .weights import (
    Weight,
    _BORDER_EPS,
    _Axis,
    _LogFactor,
    _integrate_weighted,
    constant_weight,
    counterexample_weight,
    riemann_liouville_weight,
)

__all__ = [
    "ConstantSpec",
    "lebesgue_constant",
    "morrey_constant",
    "log_moment_constant",
    "cesaro_lebesgue_constant",
    "cesaro_log_constant",
    "closed_form",
    "weighted_moment",
]

# family -> (per-axis exponent e_i(n, p_i, lambda_i), log axes, log shift);
# "given" log axes and a None shift are the caller's
_FAMILIES = {
    "lebesgue": (lambda n, p, lam: -n / p, "none", 1.0),
    "morrey": (lambda n, p, lam: n * lam, "none", 1.0),
    "log-moment": (lambda n, p, lam: n * lam, "given", None),
    "cesaro-lebesgue": (lambda n, p, lam: -n * (1.0 - 1.0 / p), "none", 1.0),
    "cesaro-log": (lambda n, p, lam: -n * lam - n, "all", 2.0),
}


def weighted_moment(
    weight: Weight,
    exponents: Sequence[float],
    log_axes: Sequence[int] = (),
    log_shift: float = 1.0,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """The moment integral underlying every constant (axes are 1-based in E)."""
    m = weight.arity
    exponents = [float(e) for e in exponents]
    if len(exponents) != m:
        raise ValueError("one exponent per weight coordinate is required")
    log_axes = tuple(sorted(set(int(i) for i in log_axes)))
    if log_axes and (log_axes[0] < 1 or log_axes[-1] > m):
        raise ValueError(f"log axes must lie in 1..{m}")
    if not 0.0 <= truncation < 1.0:
        raise ValueError("truncation must lie in [0, 1)")
    if log_shift not in (1.0, 2.0):
        raise ValueError("log shift must be 1 or 2")

    layers = [
        [lambda t, s, e=e: t**e for e in exponents],
        [_LogFactor(math.log(log_shift), 1.0) if i in log_axes else None
         for i in range(1, m + 1)],
    ]
    # the first axis not clear of -1 decides: the probe settles it within _BORDER_EPS
    effs = [e + beh.exponent_at_zero for e, beh in zip(exponents, weight.behaviors)]
    edge = next((e for e in effs if not e > -1.0 + _BORDER_EPS), 0.0)
    if truncation == 0.0 and weight.log_form is None and abs(edge + 1.0) <= _BORDER_EPS:
        return _truncation_growth_probe(weight, layers, exponents, tol)
    return _plain_moment(weight, layers, exponents, truncation, tol)


def _plain_moment(weight, layers, exponents, truncation, tol):
    return _integrate_weighted(weight, layers, [_Axis(truncation, 1.0, e) for e in exponents], tol)


def _truncation_growth_probe(weight, layers, exponents, tol):
    """Settle a borderline exponent by comparing truncations delta, delta/100."""
    delta = 1e-5
    near = _plain_moment(weight, layers, exponents, delta, tol)
    far = _plain_moment(weight, layers, exponents, delta / 100.0, tol)
    growth = far.value - near.value
    evals = near.evaluations + far.evaluations
    if growth > 10.0 * max(tol, 1e-12 * abs(far.value)):
        return QuadratureResult.divergent(
            f"borderline exponent: truncated value grows by {growth:g} "
            f"from delta={delta:g} to delta={delta / 100:g}",
            evaluations=evals,
        )
    return QuadratureResult(
        far.value,
        max(far.abs_error_estimate, abs(growth)),
        evals,
        far.converged,
        "borderline exponent settled by truncation probe",
    )


def _check_arity(weight: Weight, config: ExponentConfig) -> None:
    if weight.arity != config.m:
        raise ValueError(
            f"weight arity {weight.arity} does not match config m={config.m}"
        )


def _family_exponents(family: str, config: ExponentConfig) -> list[float]:
    exponent = _FAMILIES[family][0]
    return [exponent(config.n, p, lam) for p, lam in zip(config.p_i, config.lambda_i)]


def _family_constant(family, weight, config, truncation, tol, log_axes=(), log_shift=1.0):
    """The moment of `family`, with the log axes and shift of its table row."""
    _check_arity(weight, config)
    _, axes, shift = _FAMILIES[family]
    return weighted_moment(
        weight,
        _family_exponents(family, config),
        log_axes={"none": (), "given": log_axes, "all": range(1, config.m + 1)}[axes],
        log_shift=log_shift if shift is None else shift,
        truncation=truncation,
        tol=tol,
    )


def lebesgue_constant(
    weight: Weight,
    config: ExponentConfig,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """L^p-product operator norm: int prod t_i**(-n/p_i) w(t) dt."""
    return _family_constant("lebesgue", weight, config, truncation, tol)


def morrey_constant(
    weight: Weight,
    config: ExponentConfig,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Central-Morrey operator norm: int prod t_i**(n*lambda_i) w(t) dt."""
    return _family_constant("morrey", weight, config, truncation, tol)


def log_moment_constant(
    weight: Weight,
    config: ExponentConfig,
    log_axes: Sequence[int],
    log_shift: float = 1.0,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Morrey moment with log(shift/t_i) factors on the axes in `log_axes`.

    Realizes the commutator constants: shift 1 on all axes gives the
    plain log moment, shift 2 the shifted one; a single axis gives the
    mixed moments that appear in the bilinear expansion.
    """
    return _family_constant("log-moment", weight, config, truncation, tol, log_axes, log_shift)


def cesaro_lebesgue_constant(
    weight: Weight,
    config: ExponentConfig,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Cesaro-side L^p operator norm: int prod t_i**(-n(1-1/p_i)) w(t) dt."""
    return _family_constant("cesaro-lebesgue", weight, config, truncation, tol)


def cesaro_log_constant(
    weight: Weight,
    config: ExponentConfig,
    truncation: float = 0.0,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Cesaro commutator constant: int prod t_i**(-n*lambda_i-n) w log(2/t_i)."""
    return _family_constant("cesaro-log", weight, config, truncation, tol)


# kind -> (the weight whose `closed_forms` holds it, built from alpha;
# whether the kind takes p; whether it takes alpha)
_CLOSED_FORMS = {
    "hardy": (lambda alpha: constant_weight(1.0), True, False),
    "riemann_liouville": (riemann_liouville_weight, True, True),
    "counterexample_A": (lambda alpha: counterexample_weight(alpha, 1, 2.0), False, True),
}


def closed_form(kind: str, *, p: Optional[float] = None,
                alpha: Optional[float] = None) -> float:
    """Exact reference values for the classically known cases.

    kinds: ``hardy`` -> p/(p-1); ``riemann_liouville`` ->
    Gamma(1-1/p)/Gamma(1+alpha-1/p); ``counterexample_A`` -> 2/alpha,
    each the ``lebesgue_constant`` entry of its weight's `closed_forms`.
    """
    if kind not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form kind {kind!r}")
    build, takes_p, takes_alpha = _CLOSED_FORMS[kind]
    if takes_p and (p is None or not p > 1.0):
        raise ValueError(f"{kind} closed form requires p > 1")
    if takes_alpha and (alpha is None or not 0.0 < alpha < 1.0):
        raise ValueError(f"{kind} closed form requires alpha in (0,1)")
    value = build(alpha).closed_forms["lebesgue_constant"]
    return value(p) if takes_p else value


@dataclass(frozen=True)
class ConstantSpec:
    """A fully described constant computation (used by the CLI)."""

    weight: Weight
    config: ExponentConfig
    family: str
    log_axes: tuple[int, ...] = ()
    log_shift: float = 1.0
    truncation: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {tuple(_FAMILIES)}")
        _check_arity(self.weight, self.config)
        if self.family == "log-moment" and not self.log_axes:
            raise ValueError("log-moment family requires at least one log axis")

    def compute(self, tol: float = 1e-10) -> QuadratureResult:
        return _family_constant(
            self.family, self.weight, self.config, self.truncation, tol,
            self.log_axes, self.log_shift,
        )
