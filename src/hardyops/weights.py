"""Weight functions on the open unit cube, with singularity metadata.

A `Weight` bundles one nonnegative vectorized evaluator on ``(0,1)**m``
with the machine-readable facts the quadrature layer needs: per-axis
endpoint exponents, an optional Gaussian mixture form for weights
singular at the corner ``(1,...,1)``, an optional factorization into
unary weights, and an optional logarithmic substitution form for
weights whose natural variable is ``s = log(1/t)``.

The evaluator is in pair form, ``pair(ts, ss)``: it receives the nodes
together with their complements ``ss = 1 - ts`` (the quadrature maps
form both exactly) and takes every quantity from the side that is
exact, ``t`` where ``t <= 1/2`` and ``s`` above, so no value loses
precision next to either endpoint.  Calling a weight on plain
coordinates forms the complements first.

Constructors cover the families used throughout the package:

* ``constant_weight(c, m)``
* ``riemann_liouville_weight(alpha)``: ``1 / (Gamma(a) (1-t)**(1-a))``
* ``multilinear_riesz_weight(alpha, m)``:
  ``1 / (Gamma(a) |(1-t_1, ..., 1-t_m)|**(m-a))``
* ``weyl_weight(alpha)``: ``1 / (Gamma(a) (1/t - 1)**(1-a))`` and its
  multilinear counterpart ``multilinear_cesaro_weight(alpha, m)``
* ``counterexample_weight(alpha, n, p)``: the log-substituted weight
  with a finite plain-power moment but a divergent log moment.

Vector norms inside the multilinear Riesz and Cesaro weights are
Euclidean; the choice is recorded in the label.

Every integral against a weight, of a product of factor layers over a
box, goes through `_integrate_weighted`.  Its callers describe each axis
(an `_Axis`: the box, the power of t the layers carry at t = 0 and the
panel edges); it alone picks the route (log substitution, Gaussian
mixture, factored or cube) and decides whether the integral diverges at
t = 0.  A log-form weight is integrated in ``s = log(1/t)`` by
`_integrate_log_form`, the one route that reads its branch: there the
weight's logarithmic structure is a plain power of s, and a layer factor
``c0 + c1 log(1/t)`` (a `_LogFactor`) is evaluated from s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from operator import mul
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .numerics import (
    EndpointBehavior,
    MixtureAxis,
    QuadratureResult,
    _CUBE_RTOL,
    _mixture_integrate,
    _rounding_floor,
    gamma,
    integrate_halfline,
    integrate_unit_cube,
    integrate_unit_interval,
)

__all__ = [
    "Weight",
    "LogSubstitution",
    "GaussianMixture",
    "constant_weight",
    "riemann_liouville_weight",
    "multilinear_riesz_weight",
    "weyl_weight",
    "multilinear_cesaro_weight",
    "counterexample_weight",
    "parse_weight_spec",
]


@dataclass(frozen=True)
class LogSubstitution:
    """Weight written as ``w(t) = exp(-s*rate_shift) * branch(s)``, s = log(1/t).

    Integrals against it take `_integrate_log_form`; `zero_exponent` and
    `tail_exponent` describe ``branch`` at ``s -> 0`` and ``s -> inf``.
    """

    rate_shift: float
    branch: Callable[[np.ndarray], np.ndarray]
    zero_exponent: float
    tail_exponent: float


@dataclass(frozen=True)
class GaussianMixture:
    """Weight written as ``scale * int_0^inf prod_i exp(-x**(1/nu) gap(t_i, s_i)**2) dx``.

    This is the Schwinger identity |v|**(-2 nu) = Gamma(nu + 1)**-1
    int_0^inf exp(-x**(1/nu) |v|**2) dx with v_i = gap(t_i, s_i): every
    integral against the weight becomes one x-integral of a product of
    one-dimensional integrals.  `gap_at_zero` marks a gap that grows
    without bound as t -> 0.
    """

    nu: float
    gap: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scale: float
    gap_at_zero: bool


_BORDER_EPS = 1e-12


class _LogFactor(NamedTuple):
    """The layer factor c0 + c1 log(1/t); the log route takes it from s."""

    c0: float
    c1: float

    def __call__(self, t, s) -> np.ndarray:
        return self.c0 - self.c1 * _log_t(t, s)


class _Axis(NamedTuple):
    """One axis of `_integrate_weighted`: its box, the power of t the
    layers carry at t = 0 (not counting the weight's own exponent; it may
    be -1 or below) and its panel edges.  `certain` is False for a hint,
    a power that may grade a cube or factored rule but decides nothing.
    """

    lo: float
    hi: float
    power: float = 0.0
    breakpoints: tuple = ()
    certain: bool = True


def _integrate_log_form(
    weight: Weight, layers, axis: _Axis, tol: float, undeclared: int, t_power: float
) -> QuadratureResult:
    """int_lo^hi prod(layers) w(t) dt for a unary log-form weight, in s = log(1/t).

    With ``w(t) = exp(-s*rate_shift) branch(s)`` and dt = exp(-s) ds,
    layers that carry the power t**kappa at t = 0 (the axis power, never
    a hint) give

        int_{s_lo}^{s_hi} prod(layers) t**-kappa branch(s) exp(-rate*s) ds,

    rate = kappa + 1 + rate_shift, s_lo = log(1/hi), s_hi = log(1/lo).
    The weight's logarithmic structure becomes a plain power of s, and
    convergence at s = inf is decided on the rate: the integral diverges
    for a rate below 0 by more than the rounding of its three terms, and
    at a rate taken as 0 (up to _BORDER_EPS) converges only when the
    branch tail times s**k decays faster than 1/s, where k counts the
    `_LogFactor` layers and the `undeclared` ones that may add a power of s.

    t is frozen past s_cap, where exp(-s) would leave the float range of
    t**kappa or of a layer's own t**-t_power (the Cesaro side's t**-n,
    whose input factor underflows to 0 there, giving inf * 0).  Past it
    the layers over t**kappa are constant for power inputs and
    exponentially negligible otherwise; a `_LogFactor` is taken from s,
    so it keeps growing.  The axis's breakpoints are t-space panel edges.
    """
    lf, kappa = weight.log_form, axis.power
    s_lo = -math.log(axis.hi) if axis.hi < 1.0 else 0.0
    s_hi = -math.log(axis.lo) if axis.lo > 0.0 else math.inf
    rate = kappa + 1.0 + lf.rate_shift
    s_cap = 690.0 / max(1.0, 2.0 * abs(kappa), t_power)
    factors = [phi for layer in layers for phi in layer if phi is not None]
    log_powers = undeclared + sum(isinstance(phi, _LogFactor) for phi in factors)

    def g(s):
        t = np.exp(-np.minimum(s, s_cap))
        vals = [phi.c0 + phi.c1 * s if isinstance(phi, _LogFactor) else phi(t, 1.0 - t)
                for phi in factors]
        return reduce(mul, vals + [lf.branch(s)]) * t**-kappa * np.exp(-rate * s)

    zero = lf.zero_exponent if s_lo == 0.0 else 0.0
    # the branch's kink at s = 1 is always a panel edge
    bps = [1.0] + [-math.log(b) for b in axis.breakpoints if 0.0 < b < 1.0]
    if s_hi < math.inf:
        span = s_hi - s_lo
        return integrate_unit_interval(
            lambda u: g(s_lo + span * u) * span, EndpointBehavior(zero, 0.0), tol=tol,
            breakpoints=[(b - s_lo) / span for b in bps if s_lo < b < s_hi],
        )
    if rate < -_rounding_floor(1.0 + abs(kappa) + abs(lf.rate_shift)):
        return QuadratureResult.divergent("exponentially growing substituted integrand")
    tail_exponent = lf.tail_exponent + log_powers if rate <= _BORDER_EPS else None
    if tail_exponent is not None and tail_exponent >= -1.0:
        return QuadratureResult.divergent(
            f"substituted tail exponent {tail_exponent:g} is not integrable")
    return integrate_halfline(
        lambda u: g(u + s_lo), tol=tol, zero_exponent=zero, tail_exponent=tail_exponent,
        breakpoints=[b - s_lo for b in bps if b > s_lo],
    )


@dataclass(frozen=True)
class Weight:
    """Nonnegative weight on (0,1)**m with declared endpoint behavior.

    `pair(ts, ss)` is the only evaluator.  It receives the nodes and
    their complements ``ss = 1 - ts`` and reads each quantity from the
    exact side: from ``t`` where ``t <= 1/2``, from ``s`` above (for
    example ``log t`` is ``log(t)`` on the left half and ``log1p(-s)``
    on the right), so quadrature keeps full precision arbitrarily close
    to both endpoints.  ``w(*ts)`` forms ``ss`` itself.

    `factors`, when set, holds one unary weight per axis whose product
    is w; integrals against it then factor into unary ones.  `mixture`,
    when set, writes w as a Gaussian mixture, and integrals against it
    become one integral over the mixture of products of unary ones; the
    Riesz and Cesaro weights, singular at the corner (1,...,1), carry one.
    """

    arity: int
    pair: Callable[[tuple, tuple], np.ndarray]
    behaviors: tuple[EndpointBehavior, ...]
    label: str
    closed_forms: Mapping[str, object] = field(default_factory=dict)
    log_form: Optional[LogSubstitution] = None
    factors: Optional[tuple["Weight", ...]] = None
    mixture: Optional[GaussianMixture] = None

    def __call__(self, *ts) -> np.ndarray:
        if len(ts) != self.arity:
            raise TypeError(f"{self.label} takes {self.arity} coordinates, got {len(ts)}")
        ts = tuple(np.asarray(t, dtype=float) for t in ts)
        return self.pair(ts, tuple(1.0 - t for t in ts))

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if len(self.behaviors) != self.arity:
            raise ValueError("one EndpointBehavior per axis is required")
        if self.factors is not None and [w.arity for w in self.factors] != [1] * self.arity:
            raise ValueError("factors must be one unary weight per axis")
        if self.log_form is not None and self.arity != 1:
            raise ValueError("a log form is unary")
        self._coarse_check()

    def _coarse_check(self):
        # build-time sanity: finite and nonnegative on an interior probe grid
        pts = np.linspace(0.05, 0.95, 7)
        grids = list(np.meshgrid(*([pts] * min(self.arity, 3))))
        if self.arity > 3:
            grids += [np.full_like(grids[0], 0.5)] * (self.arity - 3)
        vals = self(*grids)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self.label}: non-finite value on probe grid")
        if np.any(vals < 0):
            raise ValueError(f"{self.label}: negative value on probe grid")


def _layer_product(layers, ts, ss, w_pair):
    """prod over `layers` of prod_i phi_i(t_i, s_i), times ``w_pair(ts, ss)``.

    A layer holds one factor phi(t, s), or None, per axis; each layer is
    multiplied out on its own, so the caller fixes the rounding order.
    `reduce` drops every term as soon as it is multiplied in, so no more
    grid-sized temporaries are alive at once than the product needs.
    """
    rows = [(layer, [i for i, phi in enumerate(layer) if phi is not None]) for layer in layers]
    rows = [(layer, axes) for layer, axes in rows if axes]
    if not rows:
        return w_pair(ts, ss)
    return reduce(mul, (
        reduce(mul, (layer[i](ts[i], ss[i]) for i in axes)) for layer, axes in rows
    )) * w_pair(ts, ss)


def _endpoint_verdict(power, beh: EndpointBehavior, at_zero, at_one):
    """(e, `EndpointBehavior`) of an axis whose layers carry t**power; e is power plus the
    weight's exponent at 0.  The behavior takes e at a box end on 0 (`at_zero`), the weight's
    at one on 1 (`at_one`), else 0; it is None, divergent, if an end on 0 has e <= -1 +
    _BORDER_EPS, the rounding of -1, which no quadrature can tell from -1.
    """
    e = power + beh.exponent_at_zero
    return e, (None if at_zero and not e > -1.0 + _BORDER_EPS else
               EndpointBehavior(e if at_zero else 0.0, beh.exponent_at_one if at_one else 0.0))


def _integrate_weighted(
    weight: Weight, layers, axes, tol: float = 1e-10, undeclared: int = 0,
    t_power: float = 0.0,
) -> QuadratureResult:
    """int prod(layers) * w over the product of the `axes`' boxes, one `_Axis` each.

    The one entry for an integral against a weight; an empty box gives 0.
    A hint (`_Axis.certain` False) keeps its power only on the cube and
    factored routes, where `_endpoint_verdict` accepts it, to grade the
    rule; it is 0 on every other axis, so it never decides a verdict.  A
    log-form weight takes `_integrate_log_form`, the only route that reads
    `undeclared` (layers that may add a power of s) and `t_power` (a
    layer's own power of 1/t).  Otherwise each axis takes its t = 0 verdict
    and endpoint behaviors from `_endpoint_verdict`.  A mixture weight
    gives one mixture integral (`numerics._mixture_integrate`) of per-axis
    unary integrals whose axes take the layers' power alone.  A factored
    weight gives the product of one unary integral per axis, each to a 1/m
    share of the tolerances, with the exact bound E <- E (|v_i| + e_i) +
    |V| e_i on the running product V plus its rounding; a product past the
    float range is a ValueError.  Any other weight gives one cube integral.
    """
    if any(ax.lo >= ax.hi for ax in axes):
        return QuadratureResult(0.0, 0.0, 1, True, "empty support")
    graded = weight.log_form is None and weight.mixture is None
    axes = [ax if ax.certain or graded and _endpoint_verdict(ax.power, beh, True, False)[1]
            else ax._replace(power=0.0) for ax, beh in zip(axes, weight.behaviors)]
    if weight.log_form is not None:
        return _integrate_log_form(weight, layers, axes[0], tol, undeclared, t_power)
    verdicts = [_endpoint_verdict(ax.power, beh, ax.lo == 0.0, ax.hi == 1.0)
                for ax, beh in zip(axes, weight.behaviors)]
    for i, (e, beh) in enumerate(verdicts, 1):
        if beh is None:
            return QuadratureResult.divergent(f"axis {i} exponent {e:g} at t=0 is not integrable")
    behaviors = [beh for _, beh in verdicts]
    if weight.mixture is not None:
        mix = weight.mixture
        return _mixture_integrate(mix.nu, mix.scale, [
            MixtureAxis(
                partial(_layer_product, [[layer[i]] for layer in layers], w_pair=_unit_pair),
                mix.gap, ax.power, 0.0, ax.lo, ax.hi, ax.breakpoints, mix.gap_at_zero,
            )
            for i, ax in enumerate(axes)
        ], tol, _CUBE_RTOL)
    if weight.factors is None:
        return integrate_unit_cube(
            None, behaviors, tol=tol, axis_breakpoints=[ax.breakpoints for ax in axes],
            box=None if all((ax.lo, ax.hi) == (0.0, 1.0) for ax in axes)
            else ([ax.lo for ax in axes], [ax.hi for ax in axes]),
            f_pair=lambda ts, ss: _layer_product(layers, ts, ss, weight.pair),
        )
    m, value, estimate, evaluations = weight.arity, 1.0, 0.0, 0
    for i, (w_i, ax) in enumerate(zip(weight.factors, axes)):
        res = integrate_unit_cube(
            None, [behaviors[i]], tol=tol / m, rtol=_CUBE_RTOL / m,
            box=None if (ax.lo, ax.hi) == (0.0, 1.0) else ([ax.lo], [ax.hi]),
            axis_breakpoints=[ax.breakpoints],
            f_pair=partial(_layer_product, [[layer[i]] for layer in layers], w_pair=w_i.pair),
        )
        estimate = (estimate * (abs(res.value) + res.abs_error_estimate)
                    + abs(value) * res.abs_error_estimate)
        value *= res.value
        evaluations += res.evaluations
    if not math.isfinite(value):
        raise ValueError(f"the product of the {m} axis integrals exceeds the float range")
    estimate += _rounding_floor(value)
    return QuadratureResult(value, estimate, evaluations,
                            estimate <= max(tol, _CUBE_RTOL * abs(value)))


def _unit_pair(ts, ss) -> float:
    return 1.0


def _euclid_arrays(vs) -> np.ndarray:
    return np.sqrt(sum(v * v for v in vs))


def _check_order(alpha: float, m: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < alpha < m:
        raise ValueError(f"alpha must lie in (0,{m}), got {alpha}")
    if alpha < 2.0**-53:
        # the weights' exponent alpha - m would round to -m
        raise ValueError(f"alpha must be at least 2**-53, got {alpha}")


def _log_t(t, s) -> np.ndarray:
    """log t from the exact side: log(t) for t <= 1/2, log1p(-s) above."""
    with np.errstate(divide="ignore"):
        return np.where(t <= 0.5, np.log(t), np.log1p(-s))


# the Schwinger gaps, one object each, so that every Riesz (Cesaro) weight
# names the same gap and the mixture engine's memo keys match across weights
def _riesz_gap(t, s) -> np.ndarray:
    """1 - t, from its exact complement."""
    return s


def _cesaro_gap(t, s) -> np.ndarray:
    """1/t - 1 = s/t."""
    return s / t


def constant_weight(c: float, m: int = 1) -> Weight:
    """w == c on (0,1)**m; all endpoint exponents are 0.

    For m = 1 the Hardy constant c p/(p-1) is stored in `closed_forms`
    as a function of p; for m >= 2 the weight factors as const:c times
    const:1 on every further axis.
    """
    if c < 0:
        raise ValueError("constant weight must be nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")
    c = float(c)

    def lebesgue_closed_form(p: float) -> float:
        if not p > 1.0:
            raise ValueError("p must exceed 1")
        return c * p / (p - 1.0)

    return Weight(
        arity=m,
        pair=lambda ts, ss: np.full(np.broadcast_shapes(*map(np.shape, ts)), c),
        behaviors=(EndpointBehavior(0.0, 0.0),) * m,
        label=f"const:{c:g}",
        closed_forms={"lebesgue_constant": lebesgue_closed_form} if m == 1 else {},
        factors=None if m == 1 else (constant_weight(c),) + (constant_weight(1.0),) * (m - 1),
    )


def riemann_liouville_weight(alpha: float) -> Weight:
    """w(t) = 1 / (Gamma(a) (1-t)**(1-a)), 0 < a < 1.

    Against the moment ``t**(-n/p)`` this weight reproduces the sharp
    fractional-averaging constant Gamma(1-1/p) / Gamma(1+a-1/p) (n = 1),
    stored in `closed_forms` as a function of p.
    """
    _check_order(alpha, 1)
    ga = gamma(alpha)

    def lebesgue_closed_form(p: float) -> float:
        if not p > 1.0:
            raise ValueError("p must exceed 1")
        return gamma(1.0 - 1.0 / p) / gamma(1.0 + alpha - 1.0 / p)

    return Weight(
        arity=1,
        pair=lambda ts, ss: ss[0] ** (alpha - 1.0) / ga,
        behaviors=(EndpointBehavior(0.0, alpha - 1.0),),
        label=f"rl:{alpha:g}",
        closed_forms={"lebesgue_constant": lebesgue_closed_form},
    )


def _schwinger(alpha: float, m: int, gap, gap_at_zero: bool) -> GaussianMixture:
    """|v|**(a-m) / Gamma(a) as a Gaussian mixture in v_i = gap(t_i, s_i)."""
    nu = (m - alpha) / 2.0
    return GaussianMixture(nu, gap, 1.0 / (gamma(alpha) * gamma(nu + 1.0)), gap_at_zero)


def multilinear_riesz_weight(alpha: float, m: int) -> Weight:
    """w(t) = 1 / (Gamma(a) |(1-t_1,...,1-t_m)|_2**(m-a)), 0 < a < m.

    For m = 1 this coincides pointwise with the Riemann-Liouville
    weight.  For m >= 2 the singularity lives at the single corner
    (1,...,1) with homogeneity a - m; per-axis slopes away from the
    corner are flat, so the declared axis exponents are 0.  Integrals
    against the weight use its Gaussian mixture (Schwinger) form with
    gaps v_i = 1 - t_i, for every m.
    """
    _check_order(alpha, m)
    if m == 1:
        return replace(riemann_liouville_weight(alpha), label=f"riesz:{alpha:g}:1")
    ga = gamma(alpha)
    expo = alpha - float(m)

    return Weight(
        arity=m,
        pair=lambda ts, ss: _euclid_arrays(ss) ** expo / ga,
        behaviors=(EndpointBehavior(0.0, 0.0),) * m,
        label=f"riesz:{alpha:g}:{m} (euclidean)",
        mixture=_schwinger(alpha, m, _riesz_gap, gap_at_zero=False),
    )


def weyl_weight(alpha: float) -> Weight:
    """w(t) = 1 / (Gamma(a) (1/t - 1)**(1-a)), 0 < a < 1.

    Vanishes like t**(1-a) at 0 and blows up like (1-t)**(a-1) at 1.
    The Cesaro-side sharp constant against ``t**(-(1-1/p))`` (n = 1) has
    the Beta closed form Gamma(1+1/p-a) / Gamma(1+1/p), stored in
    `closed_forms` as a function of p.
    """
    _check_order(alpha, 1)
    ga = gamma(alpha)

    def cesaro_closed_form(p: float) -> float:
        if not p > 1.0:
            raise ValueError("p must exceed 1")
        return gamma(1.0 + 1.0 / p - alpha) / gamma(1.0 + 1.0 / p)

    return Weight(
        arity=1,
        # 1/t - 1 = s/t
        pair=lambda ts, ss: (ss[0] / ts[0]) ** (alpha - 1.0) / ga,
        behaviors=(EndpointBehavior(1.0 - alpha, alpha - 1.0),),
        label=f"weyl:{alpha:g}",
        closed_forms={"cesaro_lebesgue_constant": cesaro_closed_form},
    )


def multilinear_cesaro_weight(alpha: float, m: int) -> Weight:
    """w(t) = 1 / (Gamma(a) |(1/t_1 - 1, ..., 1/t_m - 1)|_2**(m-a)).

    Same corner structure at (1,...,1) as the multilinear Riesz weight
    (1/t - 1 ~ 1 - t there); near any t_i = 0 the norm blows up, so the
    weight vanishes like t_i**(m-a) per axis.  Integrals against it use
    its Gaussian mixture form with gaps v_i = s_i / t_i, for every m.
    """
    _check_order(alpha, m)
    if m == 1:
        return replace(weyl_weight(alpha), label=f"cesaro:{alpha:g}:1")
    ga = gamma(alpha)
    expo = alpha - float(m)

    return Weight(
        arity=m,
        pair=lambda ts, ss: _euclid_arrays([s / t for s, t in zip(ss, ts)]) ** expo / ga,
        behaviors=(EndpointBehavior(float(m) - alpha, 0.0),) * m,
        label=f"cesaro:{alpha:g}:{m} (euclidean)",
        mixture=_schwinger(alpha, m, _cesaro_gap, gap_at_zero=True),
    )


def counterexample_weight(alpha: float, n: int, p: float) -> Weight:
    """Log-substituted weight separating plain and log moments.

    With ``s = log(1/t)``::

        w(t) = exp(-s (n/p - 1)) * s**(-1+a)   for 0 < s <= 1
               exp(-s (n/p - 1)) * s**(-1-a)   for s > 1

    (the boundary s = 1 uses the first branch; the value at t = 1 is 0).
    The moment against ``t**(-n/p)`` collapses to
    ``int_0^1 s**(a-1) ds + int_1^inf s**(-1-a) ds = 2/a`` and is stored
    in `closed_forms`, while the corresponding log moment diverges like
    ``(log 1/delta)**(1-a)`` under truncation at delta.
    """
    _check_order(alpha, 1)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    rate = n / p - 1.0

    def branch(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            lo = np.where(s > 0, s, 1.0) ** (alpha - 1.0)
            hi = s ** (-1.0 - alpha)
        return np.where(s == 0.0, 0.0, np.where(s <= 1.0, lo, hi))

    def pair(ts, ss):
        s_log = -_log_t(ts[0], ss[0])
        return np.exp(-s_log * rate) * branch(s_log)

    return Weight(
        arity=1,
        pair=pair,
        behaviors=(EndpointBehavior(rate, alpha - 1.0),),
        label=f"counter:{alpha:g}:{n}:{p:g}",
        closed_forms={"lebesgue_constant": 2.0 / alpha},
        log_form=LogSubstitution(
            rate_shift=rate,
            branch=branch,
            zero_exponent=alpha - 1.0,
            tail_exponent=-1.0 - alpha,
        ),
    )


def parse_weight_spec(spec: str, default_m: Optional[int] = None) -> Weight:
    """Build a weight from its CLI grammar.

    Grammar: ``const:c[:m]``, ``rl:alpha``, ``riesz:alpha:m``,
    ``weyl:alpha``, ``cesaro:alpha:m``, ``counter:alpha:n:p``.
    `default_m` supplies the arity of a bare ``const:c``.
    """
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "const" and len(args) in (1, 2):
            m = int(args[1]) if len(args) == 2 else (default_m or 1)
            return constant_weight(float(args[0]), m)
        if kind == "rl" and len(args) == 1:
            return riemann_liouville_weight(float(args[0]))
        if kind == "riesz" and len(args) == 2:
            return multilinear_riesz_weight(float(args[0]), int(args[1]))
        if kind == "weyl" and len(args) == 1:
            return weyl_weight(float(args[0]))
        if kind == "cesaro" and len(args) == 2:
            return multilinear_cesaro_weight(float(args[0]), int(args[1]))
        if kind == "counter" and len(args) == 3:
            return counterexample_weight(float(args[0]), int(args[1]), float(args[2]))
    except ValueError as exc:
        raise ValueError(f"invalid weight spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized weight spec {spec!r}")
