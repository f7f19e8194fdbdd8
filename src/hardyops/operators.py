"""Pointwise evaluation of the weighted averaging operators on radial inputs.

For radial inputs every operator value depends on ``r = |x|`` alone:

* Hardy type:   ``int_{(0,1)^m} prod_i f_i(t_i r) w(t) dt``
* Cesaro type:  ``int_{(0,1)^m} prod_i f_i(r/t_i) t_i^{-n} w(t) dt``
* commutators:  the same integrals with the extra factor
  ``prod_i (b_i(r) - b_i(t_i r))`` (resp. ``b_i(r) - b_i(r/t_i)``)

plus the unary fractional integrals, which are such averages scaled:

* left-sided:   ``I_a f(x) = Gamma(a)^-1 int_0^x f(t) (x-t)^(a-1) dt``,
  the Hardy average with the ``rl:a`` weight times ``x**a``
* right-sided:  ``J_a f(x) = Gamma(a)^-1 int_x^inf f(t) (t-x)^(a-1) dt/t``,
  the Cesaro average (n = 1) with the ``weyl:a`` weight times ``x**(a-1)``

Each value is one `weights._integrate_weighted` call, on axes that this
module only describes: cutoff supports of the inputs become box
restrictions of the integration domain (never integrated across as
jumps), and piecewise power descriptors give the power of t the layers
carry at t = 0, from which that call picks the route and the divergence
verdict.

`_apply_radii` evaluates a unary Hardy or Cesaro average at many radii
at once, for the duality check's inner values: on its box a piecewise
power input is ``r**a`` times a power of t, so all radii share one
profile integral, read off its prefix or suffix sums at each radius's
box ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .numerics import (
    QuadratureResult,
    _CUBE_RTOL,
    _ROUNDING_ULPS,
    _integrate_boxes,
    _running_sums,
)
from .spaces import RadialFunction
from .weights import Weight, _Axis, _LogFactor, _endpoint_verdict, _integrate_weighted
from .weights import riemann_liouville_weight, weyl_weight

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
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got r = {self.radius}")
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")


def _pull(r: float, cesaro: bool):
    """x -> the t whose argument (t r, or r/t on the Cesaro side) is x."""
    if cesaro:
        return lambda x: r / x if x > 0.0 else math.inf
    return lambda x: x / r


def _power_exponent(f: RadialFunction, n: float, cesaro: bool) -> float:
    """e with f(t r) = r**a t**e (or f(r/t) t^-n = r**a t**e) on f's support."""
    return -f.descriptor.exponent - n if cesaro else f.descriptor.exponent


def _axis(f: RadialFunction, r, n: float, cesaro: bool) -> _Axis:
    """Box and power at t = 0 of t -> f(t r), or f(r/t) t^-n, on the weight axis.

    For an f with a descriptor, `r` may be an array of radii; the box
    ends and powers are then arrays too, one entry per radius.  Without
    one the power is a hint: 0 on the Hardy side, and on the Cesaro side
    the raw t^-n growth, since f's decay at infinity is unknown.
    """
    d = f.descriptor
    if d is None:
        pull = _pull(r, cesaro)
        bps = tuple(pull(b) for b in f.breakpoints if 0.0 < pull(b) < 1.0)
        return _Axis(0.0, 1.0, -float(n) if cesaro else 0.0, bps, certain=not cesaro)
    # r/t < r_max  <=>  t > r/r_max on the Cesaro side
    if cesaro:
        # r * inf: the end r/0 without a divide warning
        ends = (r / d.r_max, r / d.r_min if d.r_min > 0.0 else r * math.inf)
    else:
        ends = (d.r_min / r, d.r_max / r)
    lo, hi = np.minimum(ends, 1.0)
    power = np.where(lo == 0.0, _power_exponent(f, n, cesaro), 0.0)
    if isinstance(r, np.ndarray):
        return _Axis(lo, hi, power)
    return _Axis(float(lo), float(hi), float(power))


def _symbol_exponent(b: RadialFunction, r: float, cesaro: bool) -> Optional[float]:
    """Power of t that b(r) - b(argument) grows like as t -> 0 (0 when bounded).

    0 for log, whose one power of s its `_LogFactor` layer declares; None
    for any other symbol without a power descriptor, whose growth is not
    declared.
    """
    if b.kind == "log":
        return 0.0
    if b.descriptor is None:
        return None
    return min(0.0, _axis(b, r, 0, cesaro).power)


def _apply(req: OperatorRequest, cesaro: bool, commutator: bool) -> QuadratureResult:
    """Shared body of the Hardy and Cesaro averages and their commutators.

    The two sides differ in the argument map (t r or r/t), the t^-n
    factor and the axis supports; a commutator multiplies in the symbol
    product ``prod_i (b_i(r) - b_i(argument_i))``, pins its kinks and adds
    each symbol's power at t = 0 to its axis.
    """
    if commutator and req.symbols is None:
        raise ValueError("commutator evaluation requires symbols")
    if not commutator and req.symbols is not None:
        side = "cesaro" if cesaro else "hardy"
        raise ValueError(f"symbols present; use {side}_commutator_apply")
    r, n = req.radius, req.n
    arg = (lambda t: r / t) if cesaro else (lambda t: t * r)
    pull = _pull(r, cesaro)
    axes = [_axis(f, r, n, cesaro) for f in req.functions]
    symbol_exps = [_symbol_exponent(b, r, cesaro) for b in req.symbols or ()]
    if commutator:
        axes = [
            ax._replace(power=ax.power + (e or 0.0), breakpoints=ax.breakpoints + tuple(
                pull(x) for x in b.breakpoints if ax.lo < pull(x) < ax.hi
            ))
            for ax, b, e in zip(axes, req.symbols, symbol_exps)
        ]

    def term(f, t, s):
        return f.fn(arg(t)) * t ** (-float(n)) if cesaro else f.fn(arg(t))

    def symbol(b, t, s):
        return b.fn(np.asarray(r, dtype=float)) - b.fn(arg(t))

    layers = [[partial(term, f) for f in req.functions]]
    if commutator:
        # on the log route the log symbol's b(r) - b(argument) is +-log(1/t)
        as_log = req.weight.log_form is not None
        layers.append([
            _LogFactor(0.0, -1.0 if cesaro else 1.0) if as_log and b.kind == "log"
            else partial(symbol, b) for b in req.symbols
        ])
    # a symbol of undeclared growth may add a power of s on the log route
    return _integrate_weighted(req.weight, layers, axes, req.tol, symbol_exps.count(None),
                               float(n) if cesaro else 0.0)


def _apply_radii(
    weight: Weight, f: RadialFunction, radii, n: int, tol: float, cesaro: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unary `hardy_apply` (or `cesaro_apply`) at every radius, batched.

    Returns the arrays (values, estimates, converged), one entry per
    radius.  `f` must carry a descriptor.  Each radius gets its box from
    `_axis`, as a scalar apply does, and on it f is an exact power: the
    value is ``r**a int_lo^hi t**e w(t) dt`` with e = a on the Hardy side
    and e = -a - n on the Cesaro side.  This one profile is integrated
    once (`numerics._integrate_boxes`) over the pieces between the
    distinct box ends.  A radius takes the difference, at its box ends,
    of the compensated prefix or suffix sums (`numerics._running_sums`;
    whichever has the smaller larger end, so a box at t = 0 or 1 reads
    its own sum), the same difference of the piece estimates plus the
    sums' rounding as its estimate, and is converged when all its pieces
    are and its estimate is within ``max(tol, _CUBE_RTOL |value|)``, as a
    scalar apply.
    Log-form weights take one scalar apply (in s = log(1/t)) per radius.
    """
    radii = np.asarray(radii, dtype=float)
    if weight.log_form is not None:
        results = [_apply(OperatorRequest(weight, (f,), float(r), n, tol=tol), cesaro, False)
                   for r in radii]
        return tuple(np.array([getattr(res, name) for res in results])
                     for name in ("value", "abs_error_estimate", "converged"))
    values, estimates = np.zeros(radii.size), np.zeros(radii.size)
    converged = np.ones(radii.size, dtype=bool)
    lows, highs = _axis(f, radii, n, cesaro)[:2]
    beh, e = weight.behaviors[0], _power_exponent(f, n, cesaro)
    # an empty box is exactly 0; one reaching t = 0 may diverge there
    at_zero = _endpoint_verdict(e, beh, True, False)[1]
    divergent = (lows == 0.0) & (lows < highs) & (at_zero is None)
    values[divergent] = estimates[divergent] = math.inf
    converged[divergent] = False
    live = (lows < highs) & ~divergent
    lows, highs = lows[live], highs[live]
    # the pieces at t = 0 and t = 1 take the exponents of the boxes there
    piece_beh = _endpoint_verdict(e, beh, np.any(lows == 0.0), np.any(highs == 1.0))[1]
    ends = np.unique(np.concatenate([lows, highs]))
    piece_values, piece_estimates, piece_converged = _integrate_boxes(
        lambda ts, ss: ts**e * weight.pair((ts,), (ss,)), piece_beh, ends[:-1], ends[1:], tol
    )

    i, k = np.searchsorted(ends, lows), np.searchsorted(ends, highs)
    # the pieces' values, estimates and unconverged flags, one row each,
    # after a 0: their compensated prefix and suffix sums at the box ends
    rows = np.zeros((3, ends.size))
    rows[:, 1:] = piece_values, piece_estimates, ~piece_converged
    prefix = _running_sums(rows)
    suffix = _running_sums(np.hstack([rows[:, :1], rows[:, :0:-1]]))[:, ::-1]
    p_lo, p_hi, s_lo, s_hi = prefix[:, i], prefix[:, k], suffix[:, i], suffix[:, k]
    big_p = np.maximum(abs(p_lo[0]), abs(p_hi[0]))
    big_s = np.maximum(abs(s_lo[0]), abs(s_hi[0]))
    # a box reads the sums whose larger end is smaller: one at t = 0 its
    # own prefix sum, one at t = 1 its own suffix sum
    box_sums = np.where(big_p <= big_s, p_hi - p_lo, s_lo - s_hi)
    rounding = _ROUNDING_ULPS * np.spacing(np.minimum(big_p, big_s))
    scale = radii[live] ** f.descriptor.exponent
    box_values = scale * box_sums[0]
    box_estimates = scale * (np.maximum(box_sums[1], 0.0) + rounding)
    goal = np.maximum(tol, _CUBE_RTOL * np.abs(box_values))
    converged[live] = (box_sums[2] == 0) & (box_estimates <= goal)
    values[live], estimates[live] = box_values, box_estimates
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


def _scaled(res: QuadratureResult, scale: float) -> QuadratureResult:
    """res with its value and estimate times scale."""
    return replace(
        res, value=res.value * scale, abs_error_estimate=res.abs_error_estimate * scale
    )


def _check_x(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got x = {x}")


def riemann_liouville_apply(
    alpha: float, f: RadialFunction, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Left-sided fractional integral of order alpha at x > 0.

    ``I_a f(x) = x**a * (Hardy average with the rl:a weight)``: with
    t = x u, ``I_a f(x) = x**a / Gamma(a) * int_0^1 f(x u) (1-u)**(a-1) du``.
    """
    weight = riemann_liouville_weight(alpha)
    _check_x(x)
    return _scaled(hardy_apply(OperatorRequest(weight, (f,), x, tol=tol)), x**alpha)


def weyl_apply(
    alpha: float, f: RadialFunction, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Right-sided fractional integral (dt/t measure) at x > 0.

    ``J_a f(x) = x**(a-1) * (Cesaro average with the weyl:a weight, n = 1)``:
    with t = x/u,

        J_a f(x) = x**(a-1)/Gamma(a) * int_0^1 f(x/u) (1-u)**(a-1) u**(-a) du
    """
    weight = weyl_weight(alpha)
    _check_x(x)
    return _scaled(cesaro_apply(OperatorRequest(weight, (f,), x, tol=tol)), x ** (alpha - 1.0))
