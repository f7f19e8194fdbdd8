"""Quadrature engines for endpoint-singular integrands.

Everything in this package reduces to integrals of three shapes:

* the open unit interval, with power-law behavior ``t**b0`` near 0 and
  ``(1-t)**b1`` near 1 (``b0, b1 > -1``),
* the open unit cube ``(0,1)**m``, with per-axis endpoint powers and,
  optionally, a single integrable corner singularity at ``(1,...,1)``,
* the half line ``(0, inf)``, reached through the compactifying
  substitution ``r = u/(1-u)``.

Endpoint singularities are removed *before* any quadrature rule sees the
integrand.  On the half of the interval adjacent to an endpoint with
nonzero exponent ``b`` we substitute

    t = (1/2) * (2u)**g,      g = 1/(1+b),

which turns ``t**b dt`` into ``g * du`` exactly: a pure power endpoint,
whether a singularity or a fractional zero, becomes a constant, and
``t**b * (smooth)`` becomes bounded with mild fractional remainders that
panel refinement mops up.

The interval and half-line integrators are adaptive: each panel is scored
by comparing its 15-point Gauss-Legendre value against the sum over its
two halves.  Each pass bisects every panel whose error exceeds its
width's share of the goal (the locally adaptive rule), or, when only
panels at the width floor do, the worst tier of the others.  A bisected
panel's half integrals become its children's whole-panel values, so only
the children's halves are evaluated.  The final sum is compensated
(``math.fsum``) in left-to-right panel order, so repeated calls are
bit-identical.

The cube integrator is a deterministic tensor product of per-axis
composite Gauss-Legendre rules on panels graded geometrically toward both
endpoints (after the same substitutions).  Each axis climbs its own
ladder of refinement rungs (dimension-adaptive, after Gerstner and
Griebel): a step raises each axis one rung on its own, the changes
estimate the per-axis errors, and only the axes whose change exceeds
their share of the tolerance go up.  The reported value comes from the
grid one rung finer on every axis that still changed, and the reported
error is the sum of the changes, never below the rounding error of the
sum.  For ``m >= 4`` it switches to Latin-hypercube Monte Carlo in
the substituted coordinates, which plays the role of importance sampling:
the map density matches the declared endpoint powers, so the weighted
integrand is bounded and the estimator has finite variance.  Only
generic integrands reach it: integrals against the package's product
weights factor into unary ones first, and those against its corner
weights go through the mixture engine below.

The mixture engine (`_mixture_integrate`) integrates
``int_0^inf prod_i F_i(x**(1/nu)) dx`` with
``F_i(sigma) = int f_i(t, s) exp(-sigma gap_i(t, s)**2) dt``, the
Schwinger form of the Riesz and Cesaro corner weights, for any m: one
batched matrix product per axis and rung, over all sigma nodes at once.

Integrands must accept numpy arrays (one per coordinate) and evaluate
elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iter_product
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "EndpointBehavior",
    "CornerBehavior",
    "QuadratureResult",
    "QuadratureError",
    "gamma",
    "integrate_unit_interval",
    "integrate_unit_cube",
    "integrate_halfline",
]


class QuadratureError(ValueError):
    """Raised when an integrand returns NaN/inf at an interior point."""


@dataclass(frozen=True)
class EndpointBehavior:
    """Declared power-law exponents of an integrand at 0 and 1.

    ``exponent_at_zero = b0`` means the integrand behaves like ``t**b0``
    as ``t -> 0+`` (up to slowly varying factors such as logarithms), and
    similarly ``exponent_at_one = b1`` for ``(1-t)**b1``.  Integrability
    requires both exponents to exceed -1.
    """

    exponent_at_zero: float = 0.0
    exponent_at_one: float = 0.0

    def __post_init__(self):
        if not (self.exponent_at_zero > -1.0):
            raise ValueError(
                f"exponent_at_zero must be > -1, got {self.exponent_at_zero}"
            )
        if not (self.exponent_at_one > -1.0):
            raise ValueError(
                f"exponent_at_one must be > -1, got {self.exponent_at_one}"
            )


@dataclass(frozen=True)
class CornerBehavior:
    """Integrable singularity of a cube integrand at the corner (1,...,1).

    The integrand factors near the corner as ``|s|**exponent * smooth``
    where ``s = (1-t_1, ..., 1-t_m)`` and ``|s|`` is the Euclidean norm.
    ``smooth_factor(*s)`` must return ``f(1-s) * |s|**(-exponent)``,
    bounded near ``s = 0``; supplying it in the ``s`` coordinates avoids
    the catastrophic cancellation of computing ``1 - t`` deep in the
    corner.  Integrability requires ``exponent > -m``.
    """

    exponent: float
    smooth_factor: Callable[..., np.ndarray]


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate and cost of a numerical integration."""

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool
    diagnosis: Optional[str] = None

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")

    @staticmethod
    def divergent(diagnosis: str, evaluations: int = 1) -> "QuadratureResult":
        """Structured verdict for an integral diagnosed as divergent."""
        return QuadratureResult(
            value=math.inf,
            abs_error_estimate=math.inf,
            evaluations=evaluations,
            converged=False,
            diagnosis=diagnosis,
        )


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------


def gamma(x: float) -> float:
    """Gamma function on the positive real axis (`math.gamma`).

    Raises ValueError for x <= 0 (poles and the negative axis are not
    supported; nothing here needs them).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Gauss-Legendre building blocks
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0,1), cached."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(order)
        rule = ((x + 1.0) / 2.0, w / 2.0)
        _GL_CACHE[order] = rule
    return rule


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"integrand returned a non-finite value ({where})")


# nodes mapped closer to an endpoint than these clamps carry negligible
# quadrature weight; clamping keeps integrands evaluable in (0,1)
_T_FLOOR = 1e-300
_T_CEIL = float(np.nextafter(1.0, 0.0))


class _UnitMap:
    """Two-sided desingularizing map u -> t on (0,1).

    Left half:  t = (1/2)(2u)^g0, right half: t = 1 - (1/2)(2(1-u))^g1,
    with g = 1/(1+b) for a nonzero endpoint exponent b (the map turns a
    pure power endpoint, singular or fractional zero alike, into a
    constant) and g = 1 for b = 0.  `pullback` maps t-space breakpoints
    to u-space so panel edges can be aligned with them.
    """

    def __init__(self, behavior: EndpointBehavior):
        b0 = behavior.exponent_at_zero
        b1 = behavior.exponent_at_one
        self.g0 = 1.0 / (1.0 + b0) if b0 != 0.0 else 1.0
        self.g1 = 1.0 / (1.0 + b1) if b1 != 0.0 else 1.0
        self.identity = self.g0 == 1.0 and self.g1 == 1.0

    def forward(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map u-nodes to (t, s, dt/du) with s = 1 - t computed exactly.

        Near t = 1 the complement s = (1/2)(2(1-u))**g1 is formed
        directly, never as 1 - t: pair-form integrands keep full
        relative precision where 1 - t itself is no longer resolvable
        in double precision.
        """
        if self.identity:
            return u, 1.0 - u, np.ones_like(u)
        t = np.empty_like(u)
        s = np.empty_like(u)
        dt = np.empty_like(u)
        left = u <= 0.5
        ul = u[left]
        t[left] = 0.5 * (2.0 * ul) ** self.g0
        s[left] = 1.0 - t[left]  # exact: t <= 1/2
        dt[left] = self.g0 * (2.0 * ul) ** (self.g0 - 1.0)
        ur = u[~left]
        v = 2.0 * (1.0 - ur)
        s[~left] = 0.5 * v ** self.g1
        t[~left] = 1.0 - s[~left]
        dt[~left] = self.g1 * v ** (self.g1 - 1.0)
        return (
            np.clip(t, _T_FLOOR, _T_CEIL),
            np.clip(s, _T_FLOOR, _T_CEIL),
            dt,
        )

    def pullback(self, t: float) -> float:
        if self.identity:
            return float(t)
        if t <= 0.5:
            return 0.5 * (2.0 * t) ** (1.0 / self.g0)
        return 1.0 - 0.5 * (2.0 * (1.0 - t)) ** (1.0 / self.g1)

    def max_depth_at_zero(self) -> int:
        # under/overflow is the only limit: t itself is exact at this end
        return max(1, int(900.0 / self.g0))

    def max_depth_at_one(self) -> int:
        # s is exact too (pair-form integrands), but plain integrands
        # recompute 1 - t, which saturates at the 2^-53 cancellation
        # cliff; stay above it
        return max(3, int(48.0 / self.g1) - 2)


def _adaptive_panels(
    F: Callable[[np.ndarray], np.ndarray],
    tol: float,
    rtol: float,
    max_evals: int,
    edges: Sequence[float],
) -> tuple[float, float, int, bool]:
    """Adaptive bisection on (0,1) for a vectorized integrand F.

    Panels start at `edges`.  A panel's value is the sum of the GL15
    integrals over its two halves; its error is |GL15(panel) - value|.
    Each refinement pass bisects every panel above the width floor whose
    error exceeds its width's share of the goal, error > goal * width
    (the panels tile (0,1), so the shares add up to the goal).  When no
    such panel qualifies, the pass bisects the worst tier of them
    instead (error at least half the largest).  A bisected panel's two
    half integrals are its children's whole-panel integrals, so a child
    costs only the 30 nodes of its own halves.
    """
    base_x, base_w = _gl(15)

    def score(lefts: np.ndarray, rights: np.ndarray, whole: Optional[np.ndarray]):
        # GL15 on both halves of every panel (and on the whole panel when
        # `whole` is not known yet), one batched evaluation
        mids = 0.5 * (lefts + rights)
        seg_l, seg_r = [lefts, mids], [mids, rights]
        if whole is None:
            seg_l, seg_r = [lefts] + seg_l, [rights] + seg_r
        seg_l = np.concatenate(seg_l)
        seg_r = np.concatenate(seg_r)
        widths = seg_r - seg_l
        nodes = seg_l[:, None] + widths[:, None] * base_x[None, :]
        vals = F(nodes.ravel()).reshape(nodes.shape)
        _check_finite(vals, "unit interval")
        integrals = (vals * base_w[None, :]).sum(axis=1) * widths
        k = lefts.size
        if whole is None:
            whole, integrals = integrals[:k], integrals[k:]
        half_l, half_r = integrals[:k], integrals[k:]
        err = np.abs(whole - (half_l + half_r))
        return (lefts, rights, half_l, half_r, err), nodes.size

    lefts = np.asarray(edges[:-1], dtype=float)
    rights = np.asarray(edges[1:], dtype=float)
    panels, used = score(lefts, rights, None)

    while True:
        lefts, rights, half_l, half_r, errors = panels
        total = float(np.sum(half_l + half_r))
        total_err = float(np.sum(errors))
        goal = max(tol, rtol * abs(total))
        if total_err <= goal:
            break
        if used >= max_evals:
            break
        # never bisect below the width floor: the map cannot resolve the
        # endpoint distance there anyway
        widths = rights - lefts
        wide = widths > 2.0**-48
        if not np.any(wide):
            break
        split = wide & (errors > goal * widths)
        if not np.any(split):
            split = wide & (errors >= 0.5 * float(np.max(errors[wide])))
        keep = ~split
        mids = 0.5 * (lefts[split] + rights[split])
        children, cost = score(
            np.concatenate([lefts[split], mids]),
            np.concatenate([mids, rights[split]]),
            np.concatenate([half_l[split], half_r[split]]),
        )
        panels = tuple(
            np.concatenate([old[keep], new]) for old, new in zip(panels, children)
        )
        used += cost

    lefts, rights, half_l, half_r, errors = panels
    order = np.argsort(lefts, kind="stable")
    value = math.fsum((half_l + half_r)[order].tolist())
    total_err = float(np.sum(errors))
    converged = total_err <= max(tol, rtol * abs(value))
    return value, total_err, used, converged


def integrate_unit_interval(
    f: Optional[Callable[[np.ndarray], np.ndarray]],
    behavior: Optional[EndpointBehavior] = None,
    tol: float = 1e-10,
    rtol: float = 1e-8,
    max_evals: int = 400_000,
    breakpoints: Sequence[float] = (),
    f_pair: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> QuadratureResult:
    """Integrate f over (0,1) with declared endpoint power behavior.

    The interior rule is 15-point Gauss-Legendre per panel (exact for
    polynomials up to degree 29 when both exponents are 0), wrapped in
    the desingularizing substitution described in the module docstring.
    `breakpoints` lists interior points (kinks, jumps) where panel edges
    are pinned.  Raises QuadratureError on NaN/inf at interior samples.

    An integrand singular at t = 1 evaluated through plain f(t) cannot
    see the mass within ~1e-16 of that endpoint (1 - t is no longer
    resolvable); that truncation is charged to the error estimate.
    Supplying `f_pair(t, s)` with the exact complement s = 1 - t removes
    the limitation entirely.
    """
    behavior = behavior or EndpointBehavior()
    umap = _UnitMap(behavior)
    fp = f_pair if f_pair is not None else (lambda t, s: f(t))

    def F(u: np.ndarray) -> np.ndarray:
        t, s, dt = umap.forward(u)
        return np.asarray(fp(t, s), dtype=float) * dt

    edges = {0.0, 0.5, 1.0}
    for bp in breakpoints:
        if 0.0 < bp < 1.0:
            edges.add(umap.pullback(float(bp)))
    value, err, used, converged = _adaptive_panels(
        F, tol, rtol, max_evals, sorted(edges)
    )
    b1 = behavior.exponent_at_one
    if f_pair is None and b1 < 0.0:
        # honest bound on the unresolvable endpoint mass: with the local
        # model c*(1-t)**b1, the region 1 - t < 2^-53 contributes about
        # c * (2^-53)**(1+b1) / (1+b1)
        s_probe = 2.0**-40
        sample = np.asarray(f(np.array([1.0 - s_probe])), dtype=float)
        coeff = abs(float(sample[0])) * s_probe ** (-b1)
        err += coeff * (2.0**-53) ** (1.0 + b1) / (1.0 + b1)
        converged = err <= max(tol, rtol * abs(value))
    return QuadratureResult(value, err, used, converged)


def integrate_halfline(
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    rtol: float = 1e-8,
    zero_exponent: float = 0.0,
    tail_exponent: Optional[float] = None,
    max_evals: int = 500_000,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate g over (0, inf) via the substitution r = u/(1-u).

    `zero_exponent` declares g ~ r**b near 0; `tail_exponent` declares
    g ~ r**b at infinity (requires b < -1) and sharpens the u -> 1
    endpoint handling.  Leave `tail_exponent` as None for integrands
    that decay faster than any power.  The transformed integrand is
    evaluated from the exact complement 1 - u, so slow tails lose no
    precision however deep the rule samples.
    """
    if tail_exponent is not None and not tail_exponent < -1.0:
        raise ValueError("tail_exponent must be < -1 for an integrable tail")
    # a tail r**b maps to (1-u)**(-b-2) at u = 1
    b1 = 0.0 if tail_exponent is None else -tail_exponent - 2.0
    behavior = EndpointBehavior(zero_exponent, b1)

    def h_pair(u: np.ndarray, om: np.ndarray) -> np.ndarray:
        r = u / om
        return np.asarray(g(r), dtype=float) / (om * om)

    bps = [r / (1.0 + r) for r in breakpoints if r > 0.0]
    return integrate_unit_interval(
        None, behavior, tol=tol, rtol=rtol, max_evals=max_evals,
        breakpoints=bps, f_pair=h_pair,
    )


# ---------------------------------------------------------------------------
# tensor-product cube integration (m <= 3)
# ---------------------------------------------------------------------------


def _axis_rule(
    behavior: EndpointBehavior,
    depth: int,
    order: int,
    uniform_panels: int,
    breakpoints: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite GL rule on (0,1) for one axis, after substitution.

    Panels are graded geometrically toward both endpoints in u-space
    (edges at 2^-j down to 2^-(depth+1), mirrored), optionally unioned
    with a uniform grid when the integrand oscillates.  Returns nodes t,
    exact complements s = 1 - t, and weights that already contain the
    substitution Jacobian.
    """
    umap = _UnitMap(behavior)
    edges = {0.0, 0.5, 1.0}
    # deeper grading than the map's cancellation floor is wasted: past it,
    # 1 - t (resp. t) is no longer resolvable in double precision
    depth0 = min(depth, umap.max_depth_at_zero())
    depth1 = min(depth, umap.max_depth_at_one())
    for j in range(1, depth0 + 2):
        edges.add(0.5 ** (j + 1))
    for j in range(1, depth1 + 2):
        edges.add(1.0 - 0.5 ** (j + 1))
    if uniform_panels > 1:
        edges.update(np.linspace(0.0, 1.0, uniform_panels + 1).tolist())
    for bp in breakpoints:
        if 0.0 < bp < 1.0:
            edges.add(umap.pullback(float(bp)))
    e = np.asarray(sorted(edges))
    lefts, widths = e[:-1], np.diff(e)
    x, w = _gl(order)
    u = (lefts[:, None] + widths[:, None] * x[None, :]).ravel()
    uw = (widths[:, None] * w[None, :]).ravel()
    t, s, dt = umap.forward(u)
    return t, s, uw * dt


@lru_cache(maxsize=64)
def _cached_axis_rule(
    behavior: EndpointBehavior,
    depth: int,
    order: int,
    uniform_panels: int = 0,
    breakpoints: tuple = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_axis_rule`, memoized on its arguments (breakpoints as a tuple).

    The arrays are shared between callers, so they are read-only.
    """
    rule = _axis_rule(behavior, depth, order, uniform_panels, breakpoints)
    for a in rule:
        a.flags.writeable = False
    return rule


# per-axis rung ladders (depth, order), coarse to fine, by dimension m
_AXIS_RUNGS = {
    1: ((16, 12), (24, 16), (30, 20)),
    2: ((8, 8), (14, 12), (20, 16), (26, 20)),
    3: ((4, 6), (8, 8), (12, 10), (15, 12)),
}

# nodes per m = 3 slab: a slab's temporaries (2 MiB each) stay on the heap
# of a warm process and are reused from slab to slab; 8 MiB and larger
# ones are mapped and faulted in again on every slab
_SLAB_NODES = 2**18

# the error estimate never goes below this many ulps of the absolute sum
_ROUNDING_ULPS = 4


# the default relative tolerance of `integrate_unit_cube`
_CUBE_RTOL = 1e-8


def _rounding_floor(mass: float) -> float:
    """Rounding error of a sum of absolute size `mass` (0 when every term is)."""
    return _ROUNDING_ULPS * math.ulp(mass) if mass else 0.0


def _tensor_value(
    fp: Callable[[tuple, tuple], np.ndarray],
    rules: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[float, float, int]:
    """Weighted tensor sum of a pair-form integrand fp(ts, ss).

    Returns the sum, the sum of absolute terms (the scale of its rounding
    error) and the node count.  The contractions stay on the calling
    thread, and m = 3 is evaluated in slabs of the first axis to bound
    memory.
    """
    m = len(rules)
    nodes = [r[0] for r in rules]
    comps = [r[1] for r in rules]
    weights = [r[2] for r in rules]
    if m == 1:
        vals = np.asarray(fp((nodes[0],), (comps[0],)), dtype=float)
        value = float(vals @ weights[0])
        mass = float(np.abs(vals) @ weights[0])
        count = vals.size
    elif m == 2:
        ts = (nodes[0][:, None], nodes[1][None, :])
        ss = (comps[0][:, None], comps[1][None, :])
        vals = np.asarray(fp(ts, ss), dtype=float)
        # einsum and numpy's own sums keep the contraction off the BLAS
        # threads
        rows = np.einsum("ij,j->i", vals, weights[1])
        abs_rows = np.einsum("ij,j->i", np.abs(vals), weights[1])
        value = float((weights[0] * rows).sum())
        mass = float((weights[0] * abs_rows).sum())
        count = vals.size
    else:
        value = mass = 0.0
        count = 0
        shape23 = (1, nodes[1].size, nodes[2].size)
        t2 = np.broadcast_to(nodes[1][None, :, None], shape23)
        t3 = np.broadcast_to(nodes[2][None, None, :], shape23)
        s2 = np.broadcast_to(comps[1][None, :, None], shape23)
        s3 = np.broadcast_to(comps[2][None, None, :], shape23)
        w23 = weights[1][:, None] * weights[2][None, :]
        chunk = max(1, _SLAB_NODES // (nodes[1].size * nodes[2].size))
        for start in range(0, nodes[0].size, chunk):
            t1 = nodes[0][start : start + chunk][:, None, None]
            s1 = comps[0][start : start + chunk][:, None, None]
            vals = np.asarray(fp((t1, t2, t3), (s1, s2, s3)), dtype=float)
            count += vals.size
            w1 = weights[0][start : start + chunk]
            value += float(w1 @ np.einsum("ijk,jk->i", vals, w23))
            mass += float(w1 @ np.einsum("ijk,jk->i", np.abs(vals), w23))
    # rule weights are positive: the absolute sum is finite exactly when
    # every integrand value is
    if not math.isfinite(mass):
        raise QuadratureError(f"integrand returned a non-finite value (m = {m} grid)")
    return value, mass, count


def _tensor_integrate(
    fp: Callable[[tuple, tuple], np.ndarray],
    behaviors: Sequence[EndpointBehavior],
    tol: float,
    rtol: float,
    budget: int,
    uniform_panels: Sequence[int],
    axis_breakpoints: Optional[Sequence[Sequence[float]]] = None,
) -> QuadratureResult:
    """Tensor rule escalated one axis at a time (dimension-adaptive).

    Every axis sits on a rung of `_AXIS_RUNGS[m]`.  A step evaluates, for
    each axis below the top rung, the grid with that axis one rung up;
    the change d_i is that axis's error estimate (an axis on its top rung
    keeps its last one).  Once sum(d_i) meets the goal, the value comes
    from the grid one rung up on every axis whose d_i is more than
    rounding noise, with sum(d_i) as its estimate, floored at the
    rounding error of that grid's sum.  Otherwise the axes whose d_i
    exceeds goal / m go one rung up and the step repeats.  With m = 1
    this is plain level escalation: the finer value, with its difference
    to the coarser one as the estimate.
    """
    m = len(behaviors)
    bps = axis_breakpoints or [()] * m
    ladder = _AXIS_RUNGS[m]
    top = len(ladder) - 1
    grids: dict[tuple[int, ...], tuple[float, float]] = {}
    used = 0

    def grid(level):
        """(value, absolute sum) on a rung vector; None when over budget."""
        nonlocal used
        known = grids.get(level)
        if known is not None:
            return known
        rules = [
            _cached_axis_rule(behaviors[i], *ladder[k], uniform_panels[i], tuple(bps[i]))
            for i, k in enumerate(level)
        ]
        if used > 0 and used + math.prod([r[0].size for r in rules]) > budget:
            return None
        value, mass, n = _tensor_value(fp, rules)
        used += n
        grids[level] = (value, mass)
        return grids[level]

    def up(level, axes):
        return tuple([k + 1 if i in axes else k for i, k in enumerate(level)])

    level = final = (0,) * m
    deltas = [math.inf] * m
    converged = False
    grid(level)
    while True:
        base = grids[level][0]
        tested = [i for i in range(m) if level[i] < top]
        finer = []
        for i in tested:
            g = grid(up(level, (i,)))
            if g is None:
                break
            finer.append(abs(g[0]))
            deltas[i] = abs(g[0] - base)
        if len(finer) < len(tested):
            break  # budget spent
        goal = max(tol, rtol * min(finer, default=abs(base)))
        if math.fsum(deltas) <= goal:
            converged = True
            # an axis whose d_i is rounding noise gains nothing one rung up;
            # when every axis is, the last test grid (already summed) serves
            noise = _ROUNDING_ULPS * math.ulp(grids[level][1])
            moved = up(level, [i for i in tested if deltas[i] > noise] or tested[-1:])
            if grid(moved) is not None:
                final = moved
            break
        raised = up(level, [i for i in tested if deltas[i] > goal / m])
        if raised == level or grid(raised) is None:
            break
        level = final = raised
    value, mass = grids[final]
    estimate = math.fsum(deltas)
    if not math.isfinite(estimate):
        estimate = abs(value)
    estimate = max(estimate, _rounding_floor(mass))
    if converged:
        converged = estimate <= max(tol, rtol * abs(value))
    return QuadratureResult(value, estimate, used, converged)


# ---------------------------------------------------------------------------
# box restriction
# ---------------------------------------------------------------------------


def _euclid_arrays(vs) -> np.ndarray:
    acc = vs[0] * vs[0]
    for v in vs[1:]:
        acc = acc + v * v
    return np.sqrt(acc)


def _box_axes(behaviors, axis_breakpoints, lows, highs):
    """Behaviors and breakpoints of the unit-cube axes that a sub-box maps to.

    Endpoint behaviors survive only on axes whose box edge coincides
    with the original endpoint.
    """
    m = len(behaviors)
    widths = [hi - lo for lo, hi in zip(lows, highs)]
    new_beh = tuple(
        EndpointBehavior(
            behaviors[i].exponent_at_zero if lows[i] == 0.0 else 0.0,
            behaviors[i].exponent_at_one if highs[i] == 1.0 else 0.0,
        )
        for i in range(m)
    )
    bps = axis_breakpoints or [()] * m
    new_bps = [
        [(bp - lo) / w for bp in bp_i if lo < bp < hi]
        for bp_i, lo, w, hi in zip(bps, lows, widths, highs)
    ]
    for i in range(m):
        extra = []
        lo_scale = lows[i] / widths[i]
        hi_scale = (1.0 - highs[i]) / widths[i]
        if 0.0 < lo_scale < 0.25:
            extra.extend(_edge_ladder(lo_scale))
        if 0.0 < hi_scale < 0.25:
            extra.extend(1.0 - e for e in _edge_ladder(hi_scale))
        if extra:
            new_bps[i] = list(new_bps[i]) + extra
    return new_beh, new_bps


def _edge_ladder(scale: float) -> list[float]:
    """Panel edges scale, 2 scale, 4 scale, ... below 1/4 (scale at least 2^-50).

    Integrands steep at the original endpoints vary on the u-scale lo/w
    near u = 0 (resp. (1-hi)/w near u = 1) inside a box of width w;
    pinning this ladder down to that scale lets the graded rule resolve it.
    """
    edges = []
    edge = max(scale, 2.0**-50)
    while edge < 0.25:
        edges.append(edge)
        edge *= 2.0
    return edges


def _apply_box(fp, behaviors, corner, axis_breakpoints, lows, highs):
    """Restrict a pair-form integrand to a sub-box on the unit cube.

    Behaviors and breakpoints follow `_box_axes`; a corner at (1,...,1)
    survives only if every upper edge is 1, with its smooth factor
    rescaled for the anisotropic change of variables.
    """
    lows = [float(x) for x in lows]
    highs = [float(x) for x in highs]
    for lo, hi in zip(lows, highs):
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"invalid box edge ({lo}, {hi})")
    widths = [hi - lo for lo, hi in zip(lows, highs)]
    gaps = [1.0 - hi for hi in highs]
    scale = math.prod(widths)

    def fb(us, sus):
        # rounding of lo + w*u can land exactly on a singular endpoint,
        # and s is propagated exactly: 1 - (lo + w*u) = gap + w*(1 - u)
        ts = tuple(
            np.clip(lo + w * u, _T_FLOOR, _T_CEIL)
            for lo, w, u in zip(lows, widths, us)
        )
        ss = tuple(
            np.clip(gap + w * su, _T_FLOOR, _T_CEIL)
            for gap, w, su in zip(gaps, widths, sus)
        )
        return fp(ts, ss) * scale

    new_beh, new_bps = _box_axes(behaviors, axis_breakpoints, lows, highs)
    new_corner = None
    if corner is not None and all(h == 1.0 for h in highs):
        ce = corner.exponent
        old_smooth = corner.smooth_factor

        def smooth(*ss):
            s_orig = tuple(w * s for w, s in zip(widths, ss))
            ratio = _euclid_arrays(s_orig) / _euclid_arrays(ss)
            return old_smooth(*s_orig) * ratio**ce * scale

        new_corner = CornerBehavior(ce, smooth)
    return fb, new_beh, new_corner, new_bps


# nodes per slab of `_integrate_boxes`: with 2^18-node slabs the 2-D
# temporaries raised the peak RSS of a process running the four
# benchmark duality checks from 35 to 44 MB
_BOX_SLAB_NODES = 2**16


def _integrate_boxes(fp, behaviors, lows, highs, tol: float):
    """Many one-axis box integrals of one integrand family, sharing rules.

    Row j is ``int_{lows[j]}^{highs[j]} fp(j, t, s) dt`` for an integrand
    with the endpoint powers `behaviors[j]`, computed as
    `integrate_unit_cube` computes it with m = 1 and that box: the box
    maps onto (0,1) as in `_apply_box`, the value comes from the finer
    of the first two rungs of `_AXIS_RUNGS[1]` that agree within
    ``max(tol, _CUBE_RTOL |value|)`` (else from the top rung), and the
    estimate is their difference, floored at the rounding error of the
    sum.

    Rows whose boxes keep the same endpoint behaviours and need an
    `_edge_ladder` at the same ends form a group with one rule per rung:
    its ladder is dyadic and reaches the group's smallest scale, so it
    resolves every row's.  A rung evaluates all the group's unfinished
    rows at once, in slabs of at most `_BOX_SLAB_NODES` nodes.

    `fp(rows, ts, ss)` receives an index array and 2-D nodes with their
    exact complements, one line per row, and evaluates elementwise.
    Every box must be nonempty and lie in [0, 1].  Returns the arrays
    (values, estimates, converged).
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    widths = highs - lows
    gaps = 1.0 - highs
    lo_scales, hi_scales = lows / widths, gaps / widths
    values = np.empty(lows.size)
    estimates = np.empty(lows.size)
    converged = np.empty(lows.size, dtype=bool)

    def row_sums(rows, rule):
        u, su, wts = rule
        value, mass = np.empty(rows.size), np.empty(rows.size)
        chunk = max(1, _BOX_SLAB_NODES // u.size)
        for start in range(0, rows.size, chunk):
            part = slice(start, start + chunk)
            j = rows[part]
            w = widths[j][:, None]
            # as in `_apply_box`: clipped nodes, complements propagated exactly
            ts = np.clip(lows[j][:, None] + w * u, _T_FLOOR, _T_CEIL)
            ss = np.clip(gaps[j][:, None] + w * su, _T_FLOOR, _T_CEIL)
            vals = np.asarray(fp(j, ts, ss), dtype=float) * w
            value[part] = np.einsum("ij,j->i", vals, wts)
            mass[part] = np.einsum("ij,j->i", np.abs(vals), wts)
        if not np.all(np.isfinite(mass)):
            raise QuadratureError("integrand returned a non-finite value (box rows)")
        return value, mass

    groups: dict[tuple, list[int]] = {}
    for j, b in enumerate(behaviors):
        beh = EndpointBehavior(
            b.exponent_at_zero if lows[j] == 0.0 else 0.0,
            b.exponent_at_one if highs[j] == 1.0 else 0.0,
        )
        key = (beh, 0.0 < lo_scales[j] < 0.25, 0.0 < hi_scales[j] < 0.25)
        groups.setdefault(key, []).append(j)

    ladder = _AXIS_RUNGS[1]
    for (beh, lo_ladder, hi_ladder), rows in groups.items():
        rows = np.array(rows)
        # an end's ladder starts at the group's smallest scale there,
        # rounded down to a power of two
        floor2 = lambda scales: math.ldexp(0.5, math.frexp(scales[rows].min())[1])
        bps = _edge_ladder(floor2(lo_scales)) if lo_ladder else []
        if hi_ladder:
            bps += [1.0 - e for e in _edge_ladder(floor2(hi_scales))]
        previous = None
        for k, rung in enumerate(ladder):
            value, mass = row_sums(rows, _cached_axis_rule(beh, *rung, 0, tuple(bps)))
            if previous is not None:
                delta = np.abs(value - previous)
                goal = np.maximum(tol, _CUBE_RTOL * np.abs(value))
                estimate = np.maximum(delta, [_rounding_floor(x) for x in mass])
                done = (delta <= goal) | (k == len(ladder) - 1)
                values[rows[done]] = value[done]
                estimates[rows[done]] = estimate[done]
                converged[rows[done]] = estimate[done] <= goal[done]
                rows, value = rows[~done], value[~done]
                if not rows.size:
                    break
            previous = value
    return values, estimates, converged


# ---------------------------------------------------------------------------
# corner decomposition (Duffy)
# ---------------------------------------------------------------------------


def _integrate_with_corner(
    fp,
    behaviors,
    corner: CornerBehavior,
    tol,
    rtol,
    budget,
    uniform_panels,
    axis_breakpoints=None,
) -> QuadratureResult:
    """Split the cube at 1/2 per axis; Duffy pieces cover the corner box.

    On the all-(1/2,1) box, the substitution s_i = 1 - t_i followed by the
    Duffy split (pivot coordinate rho = max s_i, others rho*sigma_j) turns
    the |s|**exponent corner into a one-dimensional rho**(exponent+m-1)
    endpoint power, which the per-axis machinery already handles.
    """
    m = len(behaviors)
    if not corner.exponent > -m:
        return QuadratureResult.divergent("corner exponent <= -m is not integrable")
    sub_tol = tol / (2**m + m - 1)
    parts: list[QuadratureResult] = []

    # off-corner boxes: at least one axis in (0, 1/2)
    for mask in _iter_product((0, 1), repeat=m):
        if all(mask):
            continue
        lows = [0.0 if v == 0 else 0.5 for v in mask]
        highs = [0.5 if v == 0 else 1.0 for v in mask]
        fb, beh, _, bps = _apply_box(fp, behaviors, None, axis_breakpoints, lows, highs)
        # the corner is excluded from every one of these boxes
        beh = tuple(EndpointBehavior(b.exponent_at_zero, 0.0) for b in beh)
        parts.append(
            _tensor_integrate(fb, beh, sub_tol, rtol, budget, uniform_panels, bps)
        )

    # corner box via Duffy pieces, one per pivot axis
    ce = corner.exponent
    for pivot in range(m):

        def piece(ts, ss, _pivot=pivot):
            v, sigmas = ts[0], ts[1:]
            rho = 0.5 * v
            s = [None] * m
            s[_pivot] = rho
            others = [i for i in range(m) if i != _pivot]
            norm_sq = np.ones_like(v)
            for i, sg in zip(others, sigmas):
                s[i] = rho * sg
                norm_sq = norm_sq + sg * sg
            unit_norm = np.sqrt(norm_sq)
            smooth = corner.smooth_factor(*s)
            # |s|**ce * rho**(m-1) * drho/dv, with |s| = rho * unit_norm
            return smooth * unit_norm**ce * rho ** (ce + m - 1) * 0.5

        beh = [EndpointBehavior(ce + m - 1.0, 0.0)] + [EndpointBehavior()] * (m - 1)
        # the Duffy coordinates mix the axes: every one takes the finest count
        parts.append(
            _tensor_integrate(
                piece, beh, sub_tol, rtol, budget, [max(uniform_panels)] * m
            )
        )

    value = math.fsum(p.value for p in parts)
    err = math.fsum(p.abs_error_estimate for p in parts)
    evals = sum(p.evaluations for p in parts)
    converged = all(p.converged for p in parts)
    return QuadratureResult(value, err, evals, converged)


# ---------------------------------------------------------------------------
# Gaussian mixtures (Schwinger reduction)
# ---------------------------------------------------------------------------


class MixtureAxis(NamedTuple):
    """One axis of a mixture integral: F(sigma) = int f(t, s) exp(-sigma gap(t, s)**2) dt.

    The integral runs over (lo, hi).  `zero_exp` and `one_exp` are the
    endpoint powers of f alone; `zero_exp` may reach -1 or below when
    `gap_at_zero` is set, because a gap that grows without bound as
    t -> 0 makes the Gaussian cut f off at t ~ sigma**(1/2) there.
    """

    f_pair: Callable[[tuple, tuple], np.ndarray]
    gap: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero_exp: float
    one_exp: float
    lo: float
    hi: float
    breakpoints: tuple
    uniform_panels: int
    gap_at_zero: bool


# rungs (inner depth, inner order, outer depth, outer order), coarse to fine;
# the inner rules grade to depth d toward t = 1, which resolves the layer
# exp(-sigma s**2) up to sigma = 4**d
_MIXTURE_RUNGS = ((36, 8, 20, 8), (40, 12, 26, 12), (44, 16, 32, 16))

# panel edges t = 2^-k, k < this, on an axis whose gap grows as t -> 0
_GAP_LADDER = 60

# gap**2 is capped here so that sigma * gap**2 is never inf * 0
_GAP2_MAX = 1e300

# exp(-x) underflows to exactly 0 for x above this
_EXP_ZERO = 750.0


def _mixture_inner(axis: MixtureAxis, depth: int, order: int):
    """Nodes t, complements s and weights of one axis's rule on (lo, hi)."""
    zero = axis.zero_exp if axis.zero_exp > -1.0 else 0.0
    (beh,), (bps,) = _box_axes(
        [EndpointBehavior(zero, axis.one_exp)], [axis.breakpoints], [axis.lo], [axis.hi]
    )
    if axis.gap_at_zero and axis.lo == 0.0:
        bps = bps + [2.0**-k for k in range(2, _GAP_LADDER)]
    # each half comes from a rule whose own coordinate is exact there: t on
    # the left, and on the right s, from the rule of the mirrored axis (the
    # layer exp(-sigma s**2) needs s to full relative precision)
    t_l, s_l, w_l = _cached_axis_rule(
        beh, depth, order, axis.uniform_panels, tuple(b for b in bps if b < 0.5)
    )
    s_r, t_r, w_r = _cached_axis_rule(
        EndpointBehavior(beh.exponent_at_one, beh.exponent_at_zero), depth, order,
        axis.uniform_panels, tuple(1.0 - b for b in bps if b > 0.5),
    )
    left, right = t_l < 0.5, s_r < 0.5
    u = np.concatenate([t_l[left], t_r[right]])
    su = np.concatenate([s_l[left], s_r[right]])
    wu = np.concatenate([w_l[left], w_r[right]])
    width = axis.hi - axis.lo
    t = np.clip(axis.lo + width * u, _T_FLOOR, _T_CEIL)
    s = np.clip((1.0 - axis.hi) + width * su, _T_FLOOR, _T_CEIL)
    return t, s, width * wu


def _mixture_outer(nu: float, lam: float, zeta: float, depth: int, order: int, cap: float):
    """Ascending nodes sigma, weights omega: int_0^inf G(x**(1/nu)) dx ~ sum omega G(sigma).

    G decays like sigma**-lam.  x in (0, 1) is integrated as it stands
    (G ~ x**(zeta) at 0); x in (1, inf) through sigma = y**(-1/mu),
    mu = lam - nu, which turns the power tail into a constant as y -> 0.
    Past `cap` the tail keeps its value at sigma = cap.
    """
    mu = lam - nu
    z, _, wz = _cached_axis_rule(EndpointBehavior(zeta, 0.0), depth, order)
    y, _, wy = _cached_axis_rule(EndpointBehavior(), depth, order)
    with np.errstate(over="ignore", under="ignore"):
        left = z ** (1.0 / nu)
        right = np.minimum(y ** (-1.0 / mu), cap)
    sigma = np.concatenate([left, right])
    order = np.argsort(sigma, kind="stable")
    return sigma[order], np.concatenate([wz, (nu / mu) * wy * right**lam])[order]


def _mixture_integrate(
    nu: float,
    scale: float,
    axes: Sequence[MixtureAxis],
    tol: float,
    rtol: float,
) -> QuadratureResult:
    """scale * int_0^inf prod_i F_i(x**(1/nu)) dx, rung by rung.

    Each F_i uses its own axis rule, and a rung evaluates all its sigma
    nodes at once as exp(-sigma gap**2) @ (weights * f), in slabs of at
    most `_SLAB_NODES` entries; with both sorted ascending, a slab skips
    the nodes whose exponent underflows to 0 for its smallest sigma.
    From the second rung on, the estimate is the change from the
    previous rung plus the rounding floor, and the finer value is
    reported once it meets the goal.
    """
    lam = math.fsum((1.0 + ax.one_exp) / 2.0 for ax in axes)
    zeta = math.fsum(
        min(0.0, (ax.zero_exp + 1.0) / (2.0 * nu))
        for ax in axes if ax.gap_at_zero and ax.lo == 0.0
    )
    if not lam > nu or not zeta > -1.0:
        return QuadratureResult.divergent("the Gaussian mixture integral diverges")
    used = 0
    previous = None
    slab = np.empty(_SLAB_NODES)
    for depth_in, order_in, depth_out, order_out in _MIXTURE_RUNGS:
        sigma, omega = _mixture_outer(nu, lam, zeta, depth_out, order_out, 4.0**depth_in)
        # columns: the integral and its absolute counterpart
        prod = np.stack([omega, omega], axis=1)
        for ax in axes:
            t, s, w = _mixture_inner(ax, depth_in, order_in)
            f = np.asarray(ax.f_pair((t,), (s,)), dtype=float) * w
            with np.errstate(over="ignore"):
                gap2 = np.minimum(np.asarray(ax.gap(t, s), dtype=float) ** 2, _GAP2_MAX)
            order = np.argsort(gap2, kind="stable")
            gap2 = gap2[order]
            cols = np.stack([f[order], np.abs(f[order])], axis=1)
            step = max(1, min(64, _SLAB_NODES // t.size))
            for a in range(0, sigma.size, step):
                rows = sigma[a : a + step]
                keep = gap2.size
                if rows[0] > 0.0:
                    keep = int(np.searchsorted(gap2, _EXP_ZERO / rows[0], side="right"))
                block = slab[: rows.size * keep].reshape(rows.size, keep)
                np.multiply(-rows[:, None], gap2[:keep], out=block)
                prod[a : a + step] *= np.exp(block, out=block) @ cols[:keep]
                used += block.size
        value = scale * math.fsum(prod[:, 0].tolist())
        mass = scale * math.fsum(prod[:, 1].tolist())
        if not math.isfinite(mass):
            raise QuadratureError("integrand returned a non-finite value (mixture axis)")
        if previous is not None:
            estimate = abs(value - previous) + _rounding_floor(mass)
            if estimate <= max(tol, rtol * abs(value)):
                return QuadratureResult(value, estimate, used, True)
        previous = value
    return QuadratureResult(value, estimate, used, False)


# ---------------------------------------------------------------------------
# Monte Carlo (m >= 4)
# ---------------------------------------------------------------------------


def _monte_carlo(
    fp,
    behaviors,
    tol,
    rtol,
    budget,
    seed,
) -> QuadratureResult:
    m = len(behaviors)
    n = max(16, int(budget))
    rng = np.random.Generator(np.random.PCG64(seed))
    maps = [_UnitMap(b) for b in behaviors]
    ts = []
    ss = []
    jac = np.ones(n)
    for axis in range(m):
        # Latin hypercube stratification per axis
        u = (rng.permutation(n) + rng.random(n)) / n
        u = np.clip(u, 1e-15, 1.0 - 1e-15)
        t, s, dt = maps[axis].forward(u)
        ts.append(t)
        ss.append(s)
        jac = jac * dt
    vals = np.asarray(fp(tuple(ts), tuple(ss)), dtype=float) * jac
    _check_finite(vals, "hypercube sample")
    value = float(np.mean(vals))
    err = float(np.std(vals) / math.sqrt(n))
    converged = err <= max(tol, rtol * abs(value))
    return QuadratureResult(value, err, n, converged)


def integrate_unit_cube(
    f: Optional[Callable[..., np.ndarray]],
    behaviors: Sequence[EndpointBehavior],
    tol: float = 1e-10,
    rtol: float = _CUBE_RTOL,
    budget: Optional[int] = None,
    seed: int = 0,
    corner: Optional[CornerBehavior] = None,
    uniform_panels: Union[int, Sequence[int]] = 0,
    box: Optional[tuple[Sequence[float], Sequence[float]]] = None,
    axis_breakpoints: Optional[Sequence[Sequence[float]]] = None,
    f_pair: Optional[Callable[[tuple, tuple], np.ndarray]] = None,
) -> QuadratureResult:
    """Integrate f over (0,1)**m with per-axis endpoint powers.

    f receives m broadcastable arrays.  For m <= 3 the deterministic
    tensor rule is used (per-axis substitutions, geometrically graded
    panels, per-axis rung escalation for the error estimate); `corner`
    routes an additional (1,...,1) singularity through a Duffy split,
    which the package's own weights no longer use (they integrate
    through their Gaussian mixture form) and which stays as an
    independent route for checking them.  For m >= 4 a seeded
    Latin-hypercube Monte Carlo estimate is returned; two calls with
    identical arguments are bit-identical.  No built-in weight reaches
    it: `const:c:m` integrals are products of m = 1 calls, and a
    `corner` with m >= 4 raises.

    `f_pair(ts, ss)`, when supplied, replaces f and receives both the
    nodes and their exact complements ``ss = 1 - ts``: integrands
    singular at t = 1 should use it, because recomputing ``1 - t`` from
    a double t cannot resolve the mass within ~1e-16 of the endpoint
    (for (1-t)**(-3/4) that truncates a full ~1e-4 of the integral).

    `box = (lows, highs)` restricts integration to a sub-box (useful for
    integrands supported there); `axis_breakpoints` pins panel edges at
    interior kinks, one list per axis; `uniform_panels` enforces at
    least that many equal panels on an axis, for integrands with interior
    oscillation of known scale: one count per axis, or an int for every
    axis.  Inside the corner box of a `corner` integrand every axis takes
    the largest count, because the Duffy coordinates mix the axes.
    Integrands that blow up on an interior manifold are out of contract.
    """
    m = len(behaviors)
    if m < 1:
        raise ValueError("need at least one axis")
    if isinstance(uniform_panels, int):
        uniform_panels = [uniform_panels] * m
    elif len(uniform_panels) != m:
        raise ValueError(
            f"uniform_panels has {len(uniform_panels)} counts for {m} axes"
        )
    fp = f_pair if f_pair is not None else (lambda ts, ss: f(*ts))
    if box is not None:
        fp, behaviors, corner, axis_breakpoints = _apply_box(
            fp, behaviors, corner, axis_breakpoints, box[0], box[1]
        )
    if m >= 4:
        if corner is not None:
            raise ValueError("corner handling is only implemented for m <= 3")
        return _monte_carlo(fp, behaviors, tol, rtol, budget or 2**20, seed)
    budget = budget or (2**23 if m <= 2 else 2**26)
    if corner is not None:
        return _integrate_with_corner(
            fp, behaviors, corner, tol, rtol, budget, uniform_panels, axis_breakpoints
        )
    return _tensor_integrate(
        fp, behaviors, tol, rtol, budget, uniform_panels, axis_breakpoints
    )
