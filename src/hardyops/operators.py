"""Pointwise evaluation of the weighted averaging operators on radial inputs.

For radial inputs every operator value depends on ``r = |x|`` alone:

* Hardy type:   ``int_{(0,1)^m} prod_i f_i(t_i r) w(t) dt``
* Cesaro type:  ``int_{(0,1)^m} prod_i f_i(r/t_i) t_i^{-n} w(t) dt``
* commutators:  the same integrals with the extra factor
  ``prod_i (b_i(r) - b_i(t_i r))`` (resp. ``b_i(r) - b_i(r/t_i)``)

plus the unary fractional integrals

* left-sided:   ``I_a f(x) = Gamma(a)^-1 int_0^x f(t) (x-t)^(a-1) dt``
* right-sided:  ``J_a f(x) = Gamma(a)^-1 int_x^inf f(t) (t-x)^(a-1) dt/t``

evaluated by the same singular quadrature after mapping onto (0,1).

Cutoff supports of the inputs are turned into box restrictions of the
integration domain (never integrated across as jumps), and piecewise
power descriptors feed the per-axis endpoint exponents.  Products whose
per-axis exponent reaches -1 are reported as divergent, not ground
through the quadrature.

`_apply_radii` evaluates a unary Hardy or Cesaro average at many radii
at once, for the duality check's inner values: the radii whose boxes
need the same grading share one rule per refinement rung, and each rung
is one array evaluation over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .numerics import (
    EndpointBehavior,
    QuadratureResult,
    _integrate_boxes,
    gamma,
    integrate_unit_cube,
)
from .spaces import RadialFunction
from .weights import Weight, _integrate_in_s, _integrate_weighted, _layer_product

__all__ = [
    "OperatorRequest",
    "hardy_apply",
    "cesaro_apply",
    "hardy_commutator_apply",
    "cesaro_commutator_apply",
    "riemann_liouville_apply",
    "weyl_apply",
]


@dataclass(frozen=True)
class OperatorRequest:
    """One pointwise operator evaluation at radius r = |x|."""

    weight: Weight
    functions: tuple[RadialFunction, ...]
    radius: float
    n: int = 1
    symbols: Optional[tuple[RadialFunction, ...]] = None
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if len(self.functions) != self.weight.arity:
            raise ValueError("need one input function per weight coordinate")
        if self.symbols is not None:
            object.__setattr__(self, "symbols", tuple(self.symbols))
            if len(self.symbols) != self.weight.arity:
                raise ValueError("need one symbol per weight coordinate")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")


class _Axis(NamedTuple):
    """Integration data for one t_i axis: box edges, exponents, kinks.

    `certain` marks exponents derived from a descriptor; only those are
    allowed to short-circuit the evaluation as divergent (a custom input
    with unknown decay gets the benefit of the doubt and fails through
    quadrature non-convergence instead).
    """

    lo: float
    hi: float
    zero_exp: float
    one_exp: float
    breakpoints: tuple = ()
    certain: bool = True


def _pull(r: float, cesaro: bool):
    """x -> the t whose argument (t r, or r/t on the Cesaro side) is x."""
    if cesaro:
        return lambda x: r / x if x > 0.0 else math.inf
    return lambda x: x / r


def _axis(
    f: RadialFunction, r: float, n: float, weight_beh: EndpointBehavior, cesaro: bool
) -> _Axis:
    """Support and exponents of t -> f(t r), or f(r/t) t^-n, on the weight axis."""
    pull = _pull(r, cesaro)
    d = f.descriptor
    if d is None:
        bps = tuple(pull(b) for b in f.breakpoints if 0.0 < pull(b) < 1.0)
        if cesaro:
            # unknown decay of f at infinity: hint the raw t^-n growth capped
            # at an integrable exponent, and let the quadrature decide
            zero = max(weight_beh.exponent_at_zero - n, -0.9)
            return _Axis(0.0, 1.0, zero, weight_beh.exponent_at_one, bps, certain=False)
        return _Axis(0.0, 1.0, weight_beh.exponent_at_zero, weight_beh.exponent_at_one, bps)
    # r/t < r_max  <=>  t > r/r_max on the Cesaro side
    lo, hi = sorted(min(pull(b), 1.0) for b in (d.r_min, d.r_max))
    f_exp = (-d.exponent - n if cesaro else d.exponent) if lo == 0.0 else 0.0
    zero = weight_beh.exponent_at_zero + f_exp
    return _Axis(lo, hi, zero, weight_beh.exponent_at_one if hi == 1.0 else 0.0)


def _symbol_exponent(b: RadialFunction, r: float, cesaro: bool) -> Optional[float]:
    """Power of t that b(r) - b(argument) grows like as t -> 0 (0 when bounded).

    None for a symbol without a power descriptor (such as log), whose
    growth is not declared.
    """
    if b.descriptor is None:
        return None
    ax = _axis(b, r, 0, EndpointBehavior(), cesaro)
    return min(0.0, ax.zero_exp) if ax.lo == 0.0 else 0.0


def _integrate_log_axis(
    weight: Weight, ax: _Axis, layers, tol: float, symbol_exps: Sequence = ()
) -> QuadratureResult:
    """Unary log-form weights integrate in s = log(1/t).

    The weight's natural variable makes its slowly varying (logarithmic)
    structure a plain power in s, which the endpoint machinery then
    handles at full accuracy.  An input power t**kappa declared down to
    t = 0 joins the exponential, and so does a symbol growing like a
    negative power of t there (`symbol_exps`, from `_symbol_exponent`),
    so convergence at s = inf is decided on the exact rate; a bounded
    symbol adds nothing there, and one with undeclared growth (log) may
    add one power of s.
    """
    lf = weight.log_form
    s_lo = -math.log(ax.hi) if ax.hi < 1.0 else 0.0
    s_hi = -math.log(ax.lo) if ax.lo > 0.0 else math.inf
    kappa = ax.zero_exp - lf.rate_shift if (ax.certain and ax.lo == 0.0) else 0.0
    kappa += math.fsum(e for e in symbol_exps if e is not None)
    rate = 1.0 + lf.rate_shift + kappa
    # t is frozen where exp(-s) would leave the float range of t**kappa;
    # past that point the layers over t**kappa are constant for power
    # inputs, and exponentially negligible otherwise
    s_cap = 690.0 / max(1.0, 2.0 * abs(kappa))

    def g(s):
        t = np.exp(-np.minimum(s, s_cap))
        branch = _layer_product(layers, (t,), (1.0 - t,), lambda ts, ss: lf.branch(s))
        return branch * t ** -kappa * np.exp(-rate * s)

    bps = [1.0] + [-math.log(b) for b in ax.breakpoints if 0.0 < b < 1.0]
    log_powers = sum(e is None for e in symbol_exps)
    return _integrate_in_s(lf, g, s_lo, s_hi, tol, bps, rate, log_powers)


def _integrate_axes(
    weight: Weight, axes: Sequence[_Axis], layers, tol: float, symbol_exps: Sequence = ()
) -> QuadratureResult:
    """Integrate the factor `layers` times w(t) over the product of axis boxes."""
    if any(ax.lo >= ax.hi for ax in axes):
        return QuadratureResult(0.0, 0.0, 1, True, "empty support")
    if weight.arity == 1 and weight.log_form is not None:
        return _integrate_log_axis(weight, axes[0], layers, tol, symbol_exps)
    for ax in axes:
        if ax.certain and ax.lo == 0.0 and not ax.zero_exp > -1.0:
            return QuadratureResult.divergent(
                f"axis exponent {ax.zero_exp:g} at t=0 is not integrable"
            )

    behaviors = [EndpointBehavior(ax.zero_exp, ax.one_exp) for ax in axes]
    box = ([ax.lo for ax in axes], [ax.hi for ax in axes])
    if all(ax.lo == 0.0 and ax.hi == 1.0 for ax in axes):
        box = None
    return _integrate_weighted(
        weight, layers, behaviors, box, [ax.breakpoints for ax in axes], tol=tol
    )


def _apply(req: OperatorRequest, cesaro: bool, commutator: bool) -> QuadratureResult:
    """Shared body of the Hardy and Cesaro averages and their commutators.

    The two sides differ in the argument map (t r or r/t), the t^-n
    factor and the axis supports; a commutator multiplies in the symbol
    product ``prod_i (b_i(r) - b_i(argument_i))`` and pins its kinks.
    """
    if commutator and req.symbols is None:
        raise ValueError("commutator evaluation requires symbols")
    if not commutator and req.symbols is not None:
        side = "cesaro" if cesaro else "hardy"
        raise ValueError(f"symbols present; use {side}_commutator_apply")
    r, n = req.radius, req.n
    arg = (lambda t: r / t) if cesaro else (lambda t: t * r)
    pull = _pull(r, cesaro)
    axes = [
        _axis(f, r, n, b, cesaro) for f, b in zip(req.functions, req.weight.behaviors)
    ]
    if commutator:
        axes = [
            ax._replace(breakpoints=ax.breakpoints + tuple(
                pull(x) for x in b.breakpoints if ax.lo < pull(x) < ax.hi
            ))
            for ax, b in zip(axes, req.symbols)
        ]

    def term(f, t, s):
        return f.fn(arg(t)) * t ** (-float(n)) if cesaro else f.fn(arg(t))

    def symbol(b, t, s):
        return b.fn(np.asarray(r, dtype=float)) - b.fn(arg(t))

    layers = [[partial(term, f) for f in req.functions]]
    symbol_exps = ()
    if commutator:
        layers.append([partial(symbol, b) for b in req.symbols])
        symbol_exps = [_symbol_exponent(b, r, cesaro) for b in req.symbols]
    return _integrate_axes(req.weight, axes, layers, req.tol, symbol_exps)


def _apply_radii(
    weight: Weight, f: RadialFunction, radii, n: int, tol: float, cesaro: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unary `hardy_apply` (or `cesaro_apply`) at every radius, batched.

    Returns the arrays (values, estimates, converged), one entry per
    radius.  `f` must carry a descriptor.  Each radius gets its box,
    endpoint exponents and divergence test from `_axis`, as a scalar
    apply does; the nonempty convergent boxes are integrated together
    by `numerics._integrate_boxes`, which shares one rule per rung among
    the radii whose boxes need the same grading.  Log-form weights
    integrate in s = log(1/t) through the adaptive engine, one scalar
    apply per radius.
    """
    radii = np.asarray(radii, dtype=float)
    if weight.log_form is not None:
        results = [
            _apply(OperatorRequest(weight, (f,), float(r), n, tol=tol), cesaro, False)
            for r in radii
        ]
        return (
            np.array([res.value for res in results]),
            np.array([res.abs_error_estimate for res in results]),
            np.array([res.converged for res in results]),
        )
    values, estimates = np.zeros(radii.size), np.zeros(radii.size)
    converged = np.ones(radii.size, dtype=bool)
    axes = [_axis(f, float(r), n, weight.behaviors[0], cesaro) for r in radii]
    live = []
    for j, ax in enumerate(axes):
        if ax.lo >= ax.hi:
            continue  # empty support: exactly 0
        if ax.lo == 0.0 and not ax.zero_exp > -1.0:
            values[j] = estimates[j] = math.inf
            converged[j] = False
        else:
            live.append(j)
    live_radii = radii[live]

    def integrand(rows, ts, ss):
        r = live_radii[rows][:, None]
        term = f.fn(r / ts) * ts ** (-float(n)) if cesaro else f.fn(ts * r)
        return term * weight.pair((ts,), (ss,))

    if live:
        values[live], estimates[live], converged[live] = _integrate_boxes(
            integrand,
            [EndpointBehavior(axes[j].zero_exp, axes[j].one_exp) for j in live],
            [axes[j].lo for j in live], [axes[j].hi for j in live], tol,
        )
    return values, estimates, converged


def hardy_apply(req: OperatorRequest) -> QuadratureResult:
    """Weighted multilinear Hardy average at radius r.

    Returns ``int prod_i f_i(t_i r) w(t) dt`` over the unit cube.
    """
    return _apply(req, cesaro=False, commutator=False)


def cesaro_apply(req: OperatorRequest) -> QuadratureResult:
    """Weighted multilinear Cesaro average at radius r.

    Returns ``int prod_i f_i(r/t_i) t_i^-n w(t) dt`` over the unit cube.
    """
    return _apply(req, cesaro=True, commutator=False)


def hardy_commutator_apply(req: OperatorRequest) -> QuadratureResult:
    """Hardy average with symbol factors prod_i (b_i(r) - b_i(t_i r))."""
    return _apply(req, cesaro=False, commutator=True)


def cesaro_commutator_apply(req: OperatorRequest) -> QuadratureResult:
    """Cesaro average with symbol factors prod_i (b_i(r) - b_i(r/t_i))."""
    return _apply(req, cesaro=True, commutator=True)


def _fractional_apply(
    alpha: float, f: RadialFunction, x: float, tol: float, right: bool
) -> QuadratureResult:
    """Shared body of the left- and right-sided fractional integrals.

    Both become ``x**(a-k)/Gamma(a) * int_0^1 f(arg(u)) (1-u)**(a-1)
    u**(-k) du`` with arg(u) = x u, k = 0 on the left and arg(u) = x/u,
    k = a on the right.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if not x > 0.0:
        raise ValueError("x must be positive")
    ga = gamma(alpha)
    ax = _axis(f, x, 0, EndpointBehavior(0.0, alpha - 1.0), right)
    if ax.lo >= ax.hi:
        return QuadratureResult(0.0, 0.0, 1, True, "empty support")
    # the u**(-a) of the right side is part of the integrand at u = 0
    zero_exp = ax.zero_exp - alpha if right else ax.zero_exp
    if not zero_exp > -1.0:
        return QuadratureResult.divergent(
            "input tail not integrable against the kernel" if right
            else "input not integrable at the origin"
        )

    def integrand_pair(ts, ss):
        u = ts[0]
        val = f.fn(x / u if right else x * u) * ss[0] ** (alpha - 1.0)
        return (val * u ** (-alpha) if right else val) / ga

    res = integrate_unit_cube(
        None,
        [EndpointBehavior(zero_exp, ax.one_exp)],
        tol=tol,
        box=([ax.lo], [ax.hi]) if (ax.lo, ax.hi) != (0.0, 1.0) else None,
        axis_breakpoints=[ax.breakpoints],
        f_pair=integrand_pair,
    )
    scale = x ** (alpha - 1.0) if right else x**alpha
    return replace(
        res, value=res.value * scale, abs_error_estimate=res.abs_error_estimate * scale
    )


def riemann_liouville_apply(
    alpha: float, f: RadialFunction, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Left-sided fractional integral of order alpha at x > 0.

    Mapped as ``x**a / Gamma(a) * int_0^1 f(x u) (1-u)**(a-1) du``; the
    value satisfies ``I_a f(x) = x**a * (Hardy average with the
    fractional weight)``.
    """
    return _fractional_apply(alpha, f, x, tol, right=False)


def weyl_apply(
    alpha: float, f: RadialFunction, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Right-sided fractional integral (dt/t measure) at x > 0.

    Substituting t = x/u maps it onto the unit interval:

        J_a f(x) = x**(a-1)/Gamma(a) * int_0^1 f(x/u) (1-u)**(a-1) u**(-a) du

    so that ``(.)**(1-a) J_a f`` is the Cesaro average with the
    complementary fractional weight.
    """
    return _fractional_apply(alpha, f, x, tol, right=True)
