"""Sharpness, necessity and decay experiments, packaged as pass/fail reports.

Each experiment reproduces one extremal construction at desk scale:

* `lebesgue_sharpness_sweep`: cutoff powers ``r**(-n/p_i - eps_i)``
  supported outside the ball of radius sqrt(2)/2 give lower bounds
  ``(sqrt(2) eps / 2)**(p_m eps / p) * int_{(c,1)^m} ...`` approaching
  the L^p operator norm as eps -> 0 (eps_i = (p_m/p_i) eps, so all input
  norms coincide).
* `morrey_sharpness_check`: with the balanced exponents
  ``lambda_1 p_1 = ... = lambda_m p_m`` the powers ``r**(n lambda_i)``
  attain the central Morrey operator norm exactly; the check compares
  the operator quadrature against the closed-form norm ratio.
* `commutator_pointwise_check`: logarithmic symbols reduce the
  commutator to ``r**(n lambda)`` times the plain log moment; checked
  pointwise across three decades of r and, when balanced, as a norm
  ratio.
* `counterexample_report`: the log-substituted weight has a finite
  plain moment 2/alpha while its truncated log moment grows like
  ``(log 1/delta)**(1-alpha)``; both facts are verified quantitatively.
* `oscillation_decay_check`: Riemann-Lebesgue decay of
  ``int w(t) prod_{i in E} sin(pi r t_i) dt`` along increasing r.
* `cesaro_sharpness_sweep`: the mirrored family ``r**(-n/p_i + eps_i)``
  supported inside the ball of radius sqrt(2)/2; the lower bound is
  ``eps**(p_m eps / p) * int_{(eps,1)^m} ...`` against the Cesaro
  constant.  This family is a reconstruction by duality of the Hardy
  one (the report is labeled accordingly).

Reports never let a lower bound exceed its target beyond 1e-6
relative; extrapolation to the eps -> 0 limit is a two-point Richardson
fit in ``eps**kappa`` with kappa = 1 - max_i(axis exponent magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constants import (
    _check_arity,
    _family_constant,
    _family_exponents,
    lebesgue_constant,
    log_moment_constant,
    morrey_constant,
    weighted_moment,
)
from .numerics import EndpointBehavior, QuadratureResult, _cached_axis_rule
from .operators import (
    OperatorRequest,
    _apply_radii,
    hardy_apply,
    hardy_commutator_apply,
)
from .spaces import (
    ExponentConfig,
    RadialFunction,
    _piece_morrey_norm,
    log_radial,
    power,
    unit_sphere_volume,
)
from .weights import Weight, _Axis, _integrate_weighted, counterexample_weight

__all__ = [
    "SharpnessReport",
    "lebesgue_sharpness_sweep",
    "morrey_sharpness_check",
    "commutator_pointwise_check",
    "counterexample_report",
    "oscillation_decay_check",
    "cesaro_sharpness_sweep",
    "duality_check",
]

DEFAULT_EPS_SEQUENCE = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_R_SEQUENCE = (10.0, 100.0, 1000.0)
DEFAULT_DELTA_SEQUENCE = (1e-2, 1e-4, 1e-6)
DEFAULT_DECAY_TOL = 1e-3
# the largest r of `oscillation_decay_check`, whose grids grow linearly in r
_MAX_DECAY_R = 1e4

_OVERSHOOT = 1e-6

SHARP_CONFIRMED = "sharp-confirmed"
INCONCLUSIVE = "inconclusive"
VIOLATED = "violated"


@dataclass(frozen=True)
class SharpnessReport:
    """Outcome of one experiment: target, sweep records, verdict."""

    target: float
    sweep: tuple[tuple[float, float], ...]
    extrapolated: float
    relative_gap: float
    verdict: str
    note: str = ""
    details: tuple[str, ...] = field(default=())
    sweep_errors: tuple[float, ...] = field(default=())

    def passed(self) -> bool:
        return self.verdict == SHARP_CONFIRMED


def _inconclusive(target: float, sweep, note: str, **extra) -> SharpnessReport:
    """A report whose limit and gap are unknown (NaN)."""
    return SharpnessReport(target, tuple(sweep), math.nan, math.nan, INCONCLUSIVE, note,
                           **extra)


def _richardson(entries: Sequence[tuple[float, float]], kappa: float) -> float:
    """Limit of value(eps) = L - C eps**kappa from the two smallest eps."""
    (e1, v1), (e2, v2) = sorted(entries)[:2]
    w1, w2 = e1**kappa, e2**kappa
    if w1 == w2:
        return v1
    return (v1 * w2 - v2 * w1) / (w2 - w1)


def _sweep_report(
    target: QuadratureResult,
    entries: Sequence[tuple[float, float, bool]],
    kappa: float,
    tol: float,
    note: str,
    errors: Sequence[float] = (),
) -> SharpnessReport:
    sweep = tuple((e, v) for e, v, _ in entries)
    errors = tuple(errors)
    if not target.converged or target.diagnosis is not None:
        return _inconclusive(target.value, sweep, note or "target constant did not converge",
                             sweep_errors=errors)
    tval = target.value
    if tval == 0.0:
        ok = all(v == 0.0 for _, v, _ in entries)
        return SharpnessReport(
            0.0, sweep, 0.0, 0.0 if ok else math.inf,
            SHARP_CONFIRMED if ok else VIOLATED, note, sweep_errors=errors,
        )
    if any(not conv for _, _, conv in entries):
        return _inconclusive(tval, sweep, note or "a sweep point did not converge",
                             sweep_errors=errors)
    if any(v > tval * (1.0 + _OVERSHOOT) for _, v, _ in entries):
        return SharpnessReport(
            tval, sweep, math.nan, math.inf, VIOLATED,
            note or "lower bound exceeded the target", sweep_errors=errors,
        )
    ordered = sorted(sweep)  # ascending eps; values must descend with eps
    monotone = all(
        ordered[k][1] >= ordered[k + 1][1] - 1e-12 * abs(tval)
        for k in range(len(ordered) - 1)
    )
    extrapolated = _richardson(sweep, kappa)
    gap = abs(extrapolated - tval) / tval
    verdict = SHARP_CONFIRMED if (monotone and gap <= tol) else INCONCLUSIVE
    return SharpnessReport(tval, sweep, extrapolated, gap, verdict, note,
                           sweep_errors=errors)


def _sharpness_sweep(
    family: str,
    cut_of: Callable[[float], float],
    note: str,
    weight: Weight,
    config: ExponentConfig,
    eps_sequence: Sequence[float],
    tol: float,
    quad_tol: float,
) -> SharpnessReport:
    """Lower-bound sweep against the `family` constant.

    For each eps the extremal family gives the bound ``c**(p_m eps/p) *
    int_{(c,1)^m} prod t_i**(e_i - eps_i) w dt`` with the family's
    exponents e_i, eps_i = (p_m/p_i) eps and the cut c = cut_of(eps).
    """
    _check_arity(weight, config)
    if any(not 0.0 < e < 0.5 for e in eps_sequence):
        raise ValueError("eps values must lie in (0, 1/2)")
    target = _family_constant(family, weight, config, 0.0, quad_tol)
    p, p_m = config.p, config.p_i[-1]
    exponents = _family_exponents(family, config)

    entries, errors = [], []
    for eps in sorted(eps_sequence, reverse=True):
        cut = cut_of(eps)
        expo = [e - (p_m / pi) * eps for e, pi in zip(exponents, config.p_i)]
        res = weighted_moment(weight, expo, truncation=cut, tol=quad_tol)
        prefactor = cut ** (p_m * eps / p)
        entries.append((eps, prefactor * res.value, res.converged))
        errors.append(prefactor * res.abs_error_estimate)
    # the domain-truncation deficit scales like eps**(1 + e_i + beta0_i)
    # per axis (the shift and prefactor contribute ~ eps log eps)
    kappa = min(1.0 + e + b.exponent_at_zero for e, b in zip(exponents, weight.behaviors))
    kappa = min(max(kappa, 0.05), 1.0)
    return _sweep_report(target, entries, kappa, tol, note, errors)


def lebesgue_sharpness_sweep(
    weight: Weight,
    config: ExponentConfig,
    eps_sequence: Sequence[float] = DEFAULT_EPS_SEQUENCE,
    tol: float = 2e-2,
    quad_tol: float = 1e-10,
) -> SharpnessReport:
    """Lower-bound sweep against the L^p-product operator norm.

    For each eps, the extremal cutoff powers give the bound
    ``(sqrt(2) eps/2)**(p_m eps/p) * int_{(c,1)^m} prod t**(-n/p_i-eps_i)
    w dt`` with c = sqrt(2) eps / 2 and eps_i = (p_m/p_i) eps.
    """
    return _sharpness_sweep(
        "lebesgue", lambda eps: math.sqrt(2.0) * eps / 2.0, "",
        weight, config, eps_sequence, tol, quad_tol,
    )


def cesaro_sharpness_sweep(
    weight: Weight,
    config: ExponentConfig,
    eps_sequence: Sequence[float] = DEFAULT_EPS_SEQUENCE,
    tol: float = 2e-2,
    quad_tol: float = 1e-10,
) -> SharpnessReport:
    """Lower-bound sweep against the Cesaro-side operator norm.

    Mirrors the Hardy sweep through the inversion duality: the family
    ``r**(-n/p_i + eps_i)`` restricted to the ball of radius sqrt(2)/2
    yields ``eps**(p_m eps/p) * int_{(eps,1)^m} prod
    t**(-n(1-1/p_i)-eps_i) w dt``.  The construction is a reconstruction
    (no closed extremal family is classical here) and the report says so.
    """
    return _sharpness_sweep(
        "cesaro-lebesgue", lambda eps: eps,
        "extremal family reconstructed by duality from the Hardy-side sweep",
        weight, config, eps_sequence, tol, quad_tol,
    )


def _power_family(apply, weight, config, target, radii, quad_tol, as_ratio, symbols=None):
    """Values of `apply` on the powers ``r**(n lambda_i)``, over ``r**(n lambda)``.

    For balanced exponents ``ratio(v)`` scales v by the quotient of the
    closed-form Morrey norms (else `ratio` is None); the entries hold
    ``ratio(v)`` when `as_ratio`.  Returns ``(entries, ratio, report)``,
    `report` being the inconclusive one when a quadrature did not converge.
    """
    n, ratio = config.n, None
    if config.balanced:
        numer = _piece_morrey_norm(power(n * config.lam), config.p, config.lam, n).value
        denom = math.prod(
            _piece_morrey_norm(power(n * lam), p, lam, n).value
            for lam, p in zip(config.lambda_i, config.p_i)
        )
        ratio = lambda v: v * numer / denom
    funcs = tuple(power(n * lam) for lam in config.lambda_i)
    entries, ok = [], target.converged
    for r in radii:
        res = apply(OperatorRequest(weight, funcs, r, n, symbols=symbols, tol=quad_tol))
        ok = ok and res.converged
        value = res.value / r ** (n * config.lam)
        entries.append((r, ratio(value) if as_ratio else value))
    report = None if ok else _inconclusive(target.value, entries, "quadrature did not converge")
    return entries, ratio, report


def morrey_sharpness_check(
    weight: Weight,
    config: ExponentConfig,
    tol: float = 1e-6,
    quad_tol: float = 1e-10,
    radii: Sequence[float] = (0.5, 1.0, 2.0),
) -> SharpnessReport:
    """Exact attainment of the central-Morrey operator norm.

    Requires the balanced exponents; with inputs ``r**(n lambda_i)`` the
    norm ratio computed through the operator quadrature and closed-form
    norms must coincide with the Morrey constant.
    """
    _check_arity(weight, config)
    config.require_strict_morrey()
    if not config.balanced:
        raise ValueError(
            "morrey sharpness requires the balanced exponents lambda_i p_i all equal"
        )
    target = morrey_constant(weight, config, tol=quad_tol)
    entries, _, report = _power_family(hardy_apply, weight, config, target, radii, quad_tol, True)
    if report is not None:
        return report
    gap = max(abs(v - target.value) / target.value for _, v in entries)
    verdict = SHARP_CONFIRMED if gap <= tol else INCONCLUSIVE
    if any(v > target.value * (1.0 + max(_OVERSHOOT, tol)) for _, v in entries):
        verdict = VIOLATED
    return SharpnessReport(
        target.value, tuple(entries), entries[-1][1], gap, verdict,
        "norm ratio of the power family across radii",
    )


def commutator_pointwise_check(
    weight: Weight,
    config: ExponentConfig,
    tol: float = 1e-6,
    quad_tol: float = 1e-10,
    radii: Sequence[float] = (0.1, 1.0, 10.0),
) -> SharpnessReport:
    """Log-symbol commutator reduces to the plain log moment.

    With b_i = log|x| and f_i = r**(n lambda_i) the commutator value at
    radius r is exactly ``r**(n lambda)`` times the log-moment constant;
    the identity is checked across the given radii, and (when balanced)
    the Morrey norm ratio must equal the same constant.
    """
    _check_arity(weight, config)
    config.require_strict_morrey()
    target = log_moment_constant(weight, config, range(1, config.m + 1), 1.0,
                                 tol=quad_tol)
    symbols = tuple(log_radial() for _ in range(config.m))
    entries, ratio, report = _power_family(
        hardy_commutator_apply, weight, config, target, radii, quad_tol, False, symbols
    )
    if report is not None:
        return report
    gap = max(abs(v - target.value) / target.value for _, v in entries)
    details = []
    if ratio is not None:
        balanced = ratio(entries[-1][1])
        gap = max(gap, abs(balanced - target.value) / target.value)
        details.append(f"balanced norm ratio {balanced:.12g}")
    verdict = SHARP_CONFIRMED if gap <= tol else INCONCLUSIVE
    return SharpnessReport(
        target.value, tuple(entries), entries[-1][1], gap, verdict,
        "pointwise log-symbol reduction", tuple(details),
    )


def counterexample_report(
    alpha: float,
    n: int,
    p: float,
    delta_sequence: Sequence[float] = DEFAULT_DELTA_SEQUENCE,
    tol: float = 1e-2,
    quad_tol: float = 1e-10,
) -> SharpnessReport:
    """Finite plain moment, divergent log moment, with the growth law.

    The plain moment must equal 2/alpha (within 1e-6); the regularized
    log moment ``C(delta) = A log 2 + B(delta)`` must increase along the
    truncations and match ``A log 2 + 1/(1+alpha) +
    ((log 1/delta)**(1-alpha) - 1)/(1-alpha)`` within `tol` relative.
    """
    deltas = sorted(delta_sequence, reverse=True)
    if any(not 0.0 < d < math.exp(-1.0) for d in deltas):
        raise ValueError("delta values must lie in (0, 1/e)")
    weight = counterexample_weight(alpha, n, p)
    config = ExponentConfig(n, (p,))
    a_res = lebesgue_constant(weight, config, tol=quad_tol)
    a_closed = weight.closed_forms["lebesgue_constant"]
    details = [f"plain moment {a_res.value:.10g} vs closed {a_closed:.10g}"]
    if not a_res.converged or abs(a_res.value - a_closed) / a_closed > 1e-6:
        return SharpnessReport(
            a_closed, (), math.nan, math.nan, VIOLATED,
            "plain moment failed its closed form", tuple(details),
        )
    entries = []
    law_gap = 0.0
    increasing = True
    prev = -math.inf
    for d in deltas:
        b_res = log_moment_constant(weight, config, (1,), 1.0, truncation=d,
                                    tol=quad_tol)
        if not b_res.converged:
            return _inconclusive(a_closed, entries, "truncated log moment did not converge",
                                 details=tuple(details))
        c_val = a_res.value * math.log(2.0) + b_res.value
        big_s = math.log(1.0 / d)
        law = (
            a_closed * math.log(2.0)
            + 1.0 / (1.0 + alpha)
            + (big_s ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
        )
        law_gap = max(law_gap, abs(c_val - law) / law)
        increasing = increasing and c_val > prev
        prev = c_val
        entries.append((d, c_val))
    verdict = SHARP_CONFIRMED if (increasing and law_gap <= tol) else (
        VIOLATED if not increasing else INCONCLUSIVE
    )
    details.append(f"max growth-law deviation {law_gap:.3g}")
    return SharpnessReport(
        a_closed, tuple(entries), a_res.value, law_gap, verdict,
        "regularized log moment: divergent part truncated at delta",
        tuple(details),
    )


def oscillation_decay_check(
    weight: Weight,
    axes: Sequence[int],
    r_sequence: Sequence[float] = DEFAULT_R_SEQUENCE,
    tol: float = DEFAULT_DECAY_TOL,
    quad_tol: float = 1e-9,
) -> SharpnessReport:
    """Riemann-Lebesgue decay of the oscillatory weight integral.

    Computes ``I(r) = int w(t) prod_{i in E} sin(pi r t_i) dt`` along
    increasing r; the verdict requires |I| at the largest r to be below
    `tol` and not to exceed the earlier magnitudes (within quadrature
    noise: at integer even r the exact value can be 0, so magnitudes are
    compared against error floors rather than strictly).  Each r must lie
    in (0, 1e4].
    """
    axes = tuple(sorted(set(int(i) for i in axes)))
    if not axes:
        raise ValueError("the oscillating axis set must be nonempty")
    m = weight.arity
    if axes[0] < 1 or axes[-1] > m:
        raise ValueError(f"axes must lie in 1..{m}")
    rs = sorted(float(r) for r in r_sequence)
    if not rs:
        raise ValueError("the r sequence must be nonempty")
    for r in rs:
        if not 0.0 < r <= _MAX_DECAY_R:
            raise ValueError(f"r values must lie in (0, {_MAX_DECAY_R:g}], got r = {r:g}")

    entries, errors = [], []
    for r in rs:
        sine = lambda t, s: np.sin(math.pi * r * t)
        # only the oscillating axes need panels on the scale 1/r
        grid = tuple(np.linspace(0.0, 1.0, max(8, math.ceil(r)) + 1)[1:-1].tolist())
        res = _integrate_weighted(
            weight,
            [[sine if i in axes else None for i in range(1, m + 1)]],
            [_Axis(0.0, 1.0, 0.0, grid if i in axes else ()) for i in range(1, m + 1)],
            quad_tol,
        )
        if not res.converged:
            return _inconclusive(
                0.0, entries, f"oscillatory quadrature did not converge at r={r:g}",
                sweep_errors=tuple(errors))
        entries.append((r, abs(res.value)))
        errors.append(res.abs_error_estimate)
    decreasing = all(
        entries[k + 1][1] <= entries[k][1] + 10.0 * (errors[k] + errors[k + 1]) + 1e-12
        for k in range(len(entries) - 1)
    )
    final = entries[-1][1]
    verdict = SHARP_CONFIRMED if (decreasing and final <= tol) else VIOLATED
    return SharpnessReport(
        0.0, tuple(entries), final, final, verdict,
        "magnitude of the oscillatory integral along increasing r",
        sweep_errors=tuple(errors),
    )


# ---------------------------------------------------------------------------
# adjoint pairing (used by the duality acceptance check)
# ---------------------------------------------------------------------------


def _radial_pairing(outer, inner, cesaro, weight, n, lo, tail, edges, quad_tol) -> float:
    """<outer, A inner> = w_n int_lo^inf outer(r) (A inner)(r) r^(n-1) dr.

    A is the Hardy average, or the Cesaro one when `cesaro`.  The outer
    integral is split at every finite support edge past `lo`: each
    finite piece takes a fixed rule graded toward both of its ends, and
    the unbounded last piece a fixed half-line rule graded toward the
    `tail` exponent, dropped when the tail is -inf (bounded support).
    The values of A at all outer nodes come from one profile integral.
    """
    ends = [lo] + sorted({x for x in edges if lo < x < math.inf})
    pieces = []
    for a, b in zip(ends, ends[1:]):
        t, _, w = _cached_axis_rule(EndpointBehavior(), 20, 14)
        pieces.append((a + (b - a) * t, (b - a) * w))
    if tail > -math.inf:
        pieces.append(_halfline_nodes(ends[-1], tail, 20, 14))
    if not pieces:
        return 0.0
    nodes = np.concatenate([r for r, _ in pieces])
    weights = np.concatenate([w for _, w in pieces])
    inner_values, _, _ = _apply_radii(weight, inner, nodes, n, quad_tol, cesaro)
    vals = outer.fn(nodes) * inner_values * nodes ** (n - 1)
    return unit_sphere_volume(n) * float(vals @ weights)


def _halfline_nodes(r_min: float, tail_exponent: float, depth: int, order: int):
    """Fixed composite rule for int_{r_min}^inf, via r = r_min + v/(1-v)."""
    b1 = -tail_exponent - 2.0  # raises below if the pairing is not integrable
    v, _, w = _cached_axis_rule(EndpointBehavior(0.0, b1), depth, order, ())
    om = 1.0 - v
    r = r_min + v / om
    return r, w / (om * om)


def duality_check(
    weight: Weight,
    f: RadialFunction,
    g: RadialFunction,
    n: int = 1,
    quad_tol: float = 1e-10,
) -> tuple[float, float]:
    """Both sides of the adjoint pairing <g, H_w f> = <f, G_w g>.

    Computed with nested quadrature (`_radial_pairing`): the outer
    radial integral is split at the finite support edges into fixed
    rules graded toward every edge.  The inner operator values at all
    outer nodes of a side share one profile integral over (0, 1)
    (`operators._apply_radii`).  f and g must be piecewise powers, whose
    descriptors give the support edges and decay exponents; an input
    without one, n < 1 or a non-integrable pairing raises ValueError.
    """
    if weight.arity != 1:
        raise ValueError("the adjoint pairing is a unary-weight identity")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    beta0 = weight.behaviors[0].exponent_at_zero

    def support(h: RadialFunction, name: str) -> tuple[float, float, float]:
        d = h.descriptor
        if d is None:
            raise ValueError(
                f"{name} needs a piecewise power descriptor: the pairing reads "
                f"its support and decay from it ({name} = {h.label or h.kind})"
            )
        return d.exponent, d.r_min, d.r_max

    (fa, f_lo, f_hi), (ga_, g_lo, g_hi) = support(f, "f"), support(g, "g")
    # decay exponents at r = inf; past a finite support edge nothing is left
    ft = fa if f_hi == math.inf else -math.inf
    gt = ga_ if g_hi == math.inf else -math.inf

    # H_w f inherits f's tail only while the weight moment int t^a w
    # converges at 0; past that the truncated moment takes over and the
    # average decays like r**(-1-beta0)
    h_tail = ft if ft + 1.0 + beta0 > 0.0 else -(1.0 + beta0)
    lhs_tail, rhs_tail = gt + h_tail + n - 1.0, ft + gt + n - 1.0
    # both pairings, and G_w g itself (an integral out to u = r/t = inf
    # of a term decaying like u**(a+n-beta0-2)), must decay faster than 1/r
    for tail in (lhs_tail, gt + n - beta0 - 2.0, rhs_tail):
        if not tail < -1.0:
            raise ValueError(
                f"pairing is not integrable: tail exponent {tail:g} "
                f"(f ~ r**{fa:g}, g ~ r**{ga_:g})"
            )

    # <g, H_w f>: the averaging window empties below f's lower edge, so
    # the integrand is supported on r > max(g_lo, f_lo)
    lo = max(g_lo, f_lo, 1e-12)
    lhs = _radial_pairing(g, f, False, weight, n, lo, lhs_tail, (f_lo, f_hi, g_hi),
                          quad_tol)

    # <f, G_w g>: supported on f's support; the Cesaro window kinks at
    # g's edges, and G_w g vanishes for r >= g_hi
    lo = max(f_lo, 1e-12)
    rhs = _radial_pairing(f, g, True, weight, n, lo, rhs_tail, (g_lo, g_hi, f_hi),
                          quad_tol)
    return lhs, rhs
