"""Quadrature engines for endpoint-singular integrands.

Everything in this package reduces to integrals of three shapes:

* the open unit interval, with power-law behavior ``t**b0`` near 0 and
  ``(1-t)**b1`` near 1 (``b0, b1 > -1``),
* the open unit cube ``(0,1)**m``, with per-axis endpoint powers,
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

One adaptive panel engine (`_PanelProfile`) serves every interval and
ball integral.  It integrates ``R**-n int_0^R phi(b(r) - c) r**(n-1) dr``
of one function b, at many radii R, for several pointwise phi and a
shift c per radius, from one table of r-space panels, kept in r order,
that holds b's values at all three GL15 rules of each panel.  Each panel
is scored by comparing its 15-point Gauss-Legendre value against the sum
over its two halves.  Each pass bisects every panel whose error exceeds
its width's share of the goal (`_split_panels`, the one refinement rule
of both query paths).  A bisected panel's half values become its
children's whole-panel values, so only the children's halves are
evaluated.  One query takes any number of radii: it makes them all panel
edges with one call of b, so the panels under each R are a prefix of the
table, and refines those panels in passes shared by all its radii.  When
its radii share one shift (or none), each pass costs O(panels + radii):
a panel's rule sums are made once, every radius reads its value,
estimate and rounding floor off compensated prefix sums over the panels
(`_running_sums`, the package's one running sum), and each panel is
judged once, against the smallest goal among the radii above it.  A
shift per radius makes one row per (panel, radius) instead, judged
against its radius's goal.  Every refinement is kept for later
queries, so a query near earlier ones evaluates b at few new nodes.  A
panel whose error is within the rounding floor of its integral (the
change an ulp of r makes to it) is not bisected, and a radius whose
floors add up past its goal stops at once, so rounding noise in b is
never refined as error.  Rule sums are added in panel order, so a query
repeated on a fresh profile, such as `integrate_unit_interval` (one
query at R = 1 of a fresh profile, n = 1, of the substituted integrand),
is bit-identical.

The cube integrator is a deterministic tensor product of per-axis
composite Gauss-Legendre rules on panels graded geometrically toward both
endpoints (after the same substitutions), memoized up to 8 MiB
(`_cached_axis_rule`).  A sub-box maps onto the unit cube by one node
map and one end rule (`_box_nodes`, `_box_ends`).  Each axis climbs its
own ladder of refinement rungs (dimension-adaptive, after Gerstner and
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
weights factor into unary ones first, and those against its Riesz and
Cesaro weights, singular at the corner ``(1,...,1)``, go through the
mixture engine below.

The mixture engine (`_mixture_integrate`) integrates
``int_0^inf prod_i F_i(x**(1/nu)) dx`` with
``F_i(sigma) = int f_i(t, s) exp(-sigma gap_i(t, s)**2) dt``, the
Schwinger form of the Riesz and Cesaro corner weights, for any m: one
batched sum per distinct axis rule and rung, over all sigma nodes at
once.  The entries exp(-sigma gap**2) with sigma gap**2 <= 1 are
summed from Taylor moments of the gaps, as in the fast Gauss transform
(Greengard and Strain, 1991), and only the others are computed as exp.
All of a rung that the f_i do not change (the outer and inner rules, the
sorted gaps, and the blocks and Taylor tables of the sums) is memoized
per axis rule, nu, lambda, zeta and rung (`_mixture_setup`), up to 8 MiB
of read-only arrays, the least recently used dropped first.  A memo hit
does the same arithmetic as a fresh build, so values, estimates and
`evaluations` (the work of the sums, counted on every call) do not
depend on it.

Integrands must accept numpy arrays (one per coordinate) and evaluate
elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "EndpointBehavior",
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
class QuadratureResult:
    """Value, error estimate and cost of a numerical integration.

    `evaluations` counts the integrand evaluations the integral used.  A
    panel-profile query (`_PanelProfile.integral`) counts, per radius,
    the cached nodes of the panels it summed under that radius, fresh or
    not; its fresh evaluations of b, `_PanelProfile.fresh`, are what the
    interval and half-line integrators report.  A mixture integral
    (`_mixture_integrate`) counts the exp entries it computed plus, per
    sigma node whose near-one entries it summed from Taylor moments,
    the number of terms (`_HEAD_TERMS`).
    """

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

@lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0,1), cached."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


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


def _split_panels(errors: np.ndarray, widths: np.ndarray, thresholds: np.ndarray,
                  floors: np.ndarray) -> np.ndarray:
    """Mark the panels one refinement pass bisects.

    A panel is bisected when it is above the width floor, its error
    exceeds its rounding floor (`floors`), and its error exceeds its
    width's share of its threshold, error > threshold * width (`widths`
    are shares of the ball radius).  A radius with no marked panel cannot
    be refined further.
    """
    # never bisect below the width floor: the interval map cannot resolve
    # the endpoint distance there anyway, nor can r resolve a panel that
    # narrow next to the ball radius
    return (widths > 2.0**-48) & (errors > floors) & (errors > thresholds * widths)


def _scored(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's value, the sum of its halves' rule sums, and its error
    against its whole-panel rule sum, from rule sums as `_PanelProfile._rows`
    makes them.  Raises QuadratureError when any rule sum is NaN or inf,
    before an inf can meet another in a difference."""
    if not np.isfinite(parts).all():
        raise QuadratureError("integrand returned a non-finite value (panel profile)")
    halves = parts[:, 1] + parts[:, 2]
    return halves, np.abs(parts[:, 0] - halves)


# fresh evaluations one panel profile may make over its lifetime
_PROFILE_NODES = 2**22
# phi values a profile query holds at once
_PROFILE_SLAB = 2**14
# (panel, radius) rows a query with a shift per radius refines at once,
# about 12 MiB
_PROFILE_ROWS = 2**17
# binades a shared query's scale factor (top/R)**n may span
_SCALE_BITS = 128.0


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """The running sums of `terms` along their last axis, compensated.

    Each step's rounding error, recovered exactly (TwoSum), is added back
    as a second running sum: the k-th sum is Sum2 (Ogita, Rump and Oishi,
    "Accurate sum and dot product", 2005) of the first k terms, within
    u |S| + gamma(k - 1)**2 sum |x| of their exact sum S, u = 2**-53 and
    gamma(j) = j u / (1 - j u).  A NaN or inf term makes the rest NaN.
    """
    run = np.cumsum(terms, axis=-1)
    before = np.zeros_like(run)
    before[..., 1:] = run[..., :-1]
    back = run - before
    lost = (before - (run - back)) + (terms - back)
    return run + np.cumsum(lost, axis=-1)


class _PanelProfile:
    """Ball integrals of one radial function b from one shared panel table.

    This is the package's one adaptive panel engine (see the module
    docstring); the dimension n need not be an integer.  The table tiles
    (0, top] with r-space panels between the ascending `edges`, so the
    panels under any edge are a prefix of the table.  A panel's row of
    `values` holds b at the 45 nodes of its three GL15 rules (the whole
    panel and its two halves); its row of `meta` holds the widths of those
    rules and the least and the greatest of its values of b.  `integral`
    weighs any pointwise function of b at these values against
    ``r**(n-1) dr``, scores each panel by its whole-panel rule against the
    sum of its halves, refines the panels it needs by the width-share rule,
    and keeps the refinements for later queries.  Radii that share one
    shift of b (or none) read each panel's rule sums once, off running
    sums, and a pass judges each panel once (`_shared_query`: O(panels +
    radii) per pass); one radius, or a shift per radius, keeps a row per
    (panel, radius) (`_row_query`).  A bisected panel's half values become
    its children's whole-panel values, so a child costs 30 fresh
    evaluations of b.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n: float,
                 breakpoints: Sequence[float] = ()):
        self.fn, self.n = fn, n
        self.breakpoints = np.array(sorted(float(bp) for bp in breakpoints if bp > 0.0))
        self.edges = np.zeros(1)
        # the panels' rows, a window of `_store` with spare rows on each side
        self._store, self._low = (np.empty((0, 45)), np.empty((0, 5))), 0
        self.values, self.meta = self._store
        self.fresh = 0  # evaluations of b so far

    @staticmethod
    def _nodes(lefts, rights) -> tuple[np.ndarray, np.ndarray]:
        """Each panel's GL15 nodes, as (k, 3, 15), and the widths of its
        three rules, as (k, 3)."""
        mids = 0.5 * (lefts + rights)
        seg_l = np.array([lefts, lefts, mids]).T
        widths = np.array([rights, mids, rights]).T - seg_l
        return seg_l[..., None] + widths[..., None] * _gl(15)[0], widths

    def _insert(self, cuts: np.ndarray, radius: float, whole=None) -> None:
        """Make the ascending `cuts`, none of them an edge yet, panel edges.

        The panels they fall in are replaced by their pieces, and the table
        grows past its top to the last cut; b at the pieces' nodes comes
        from one call.  `whole` holds b at the pieces' whole-panel nodes
        when the pieces are the halves of bisected panels.  The table keeps
        spare rows at both ends, so only the panels below the first cut or
        those above the last one move, whichever are fewer: a one-radius
        query far below the table's top moves the few rows under it.
        """
        size = self.edges.size - 1
        pos = self.edges.searchsorted(cuts)
        at = pos + np.arange(cuts.size)  # the cuts' places among the new edges
        edges = np.empty(self.edges.size + cuts.size)
        kept = np.ones(edges.size, dtype=bool)
        kept[at] = False
        edges[at], edges[kept] = cuts, self.edges
        grown = edges.size - 1
        # the pieces: the panels on either side of a new edge, ascending
        pieces = np.column_stack([at - 1, at]).ravel()
        new = np.ones(pieces.size, dtype=bool)
        new[1:] = pieces[1:] != pieces[:-1]
        pieces = pieces[new & (pieces < grown)]
        nodes, widths = self._nodes(edges[pieces], edges[pieces + 1])
        fresh = nodes if whole is None else nodes[:, 1:]
        if self.fresh + fresh.size > _PROFILE_NODES:
            raise QuadratureError(
                f"ball profile at radius {radius:.6g} would pass "
                f"{_PROFILE_NODES} evaluations of the integrand"
            )
        vals = np.empty(nodes.shape)
        if whole is not None:
            vals[:, 0] = whole
        vals[:, 3 - fresh.shape[1]:] = np.asarray(
            self.fn(fresh.ravel()), dtype=float
        ).reshape(fresh.shape)
        self.fresh += fresh.size
        flat = vals.reshape(-1, 45)
        meta = np.empty((flat.shape[0], 5))
        meta[:, :3] = widths
        meta[:, 3] = flat.min(axis=1)
        meta[:, 4] = flat.max(axis=1)
        # place the new rows: the panels no cut falls in keep their order,
        # and those below the first cut stay put or those above the last
        # one do, whichever are more and fit the spare rows
        store, low = self._store, self._low
        first, last = int(pieces[0]), int(pieces[-1])
        if low < cuts.size and low + grown > store[0].shape[0]:
            # no end has room: a store half as large again, the rows centered
            cap = grown + grown // 2 + 64
            store = tuple(np.empty((cap, table.shape[1])) for table in store)
            for table, old in zip(store, self._store):
                table[(cap - grown) // 2:(cap - grown) // 2 + size] = old[low:low + size]
            low = (cap - grown) // 2
        if low >= cuts.size and (last < size - first or low + grown > store[0].shape[0]):
            start, moved = low - cuts.size, np.arange(last + 1)
        else:
            start, moved = low, np.arange(first, grown)
        stay = np.ones(moved.size, dtype=bool)
        stay[pieces - moved[0]] = False
        keep = moved[stay]
        src = low + keep - at.searchsorted(keep, side="right")
        for table, rows in zip(store, (flat, meta)):
            table[start + keep] = table[src]
            table[start + pieces] = rows
        self._store, self._low, self.edges = store, start, edges
        self.values = store[0][start:start + grown]
        self.meta = store[1][start:start + grown]

    def _sums(self, phi, span, shift) -> np.ndarray:
        """The whole, left-half and right-half GL15 sums per panel of `span`.

        `span` is a slice or ascending indices; the sums are of
        phi(b - shift) * (r/right)**(n-1), without the rule widths, and
        `shift` is None, one number, or one number per panel.  phi sees at
        most `_PROFILE_SLAB` values at a time.
        """
        is_slice = isinstance(span, slice)
        k = span.stop - span.start if is_slice else span.size
        out = []
        step = max(1, _PROFILE_SLAB // 45)
        for a in range(0, k, step):
            b = min(a + step, k)
            sub = slice(span.start + a, span.start + b) if is_slice else span[a:b]
            vals = self.values[sub]
            if shift is not None:
                vals = vals - (shift[a:b, None] if isinstance(shift, np.ndarray) else shift)
            vals = np.asarray(phi(vals), dtype=float).reshape(-1, 3, 15)
            if self.n > 1:
                # r**(n-1) as (r/right)**(n-1) * (right/R)**(n-1), so no
                # power of r leaves the float range
                rights = self.edges[1:][sub]
                nodes = self._nodes(self.edges[:-1][sub], rights)[0]
                vals = vals * (nodes / rights[:, None, None]) ** (self.n - 1)
            out.append(np.einsum("ijk,k->ij", vals, _gl(15)[1]))
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _rows(self, phi, panels, radius, shift) -> np.ndarray:
        """Rule sums of phi(b - shift) times R**-n per row, as (rows, 3).

        Row i is panel ``panels[i]`` (a slice or indices) under the ball of
        radius ``radius[i]``; `shift` is None, one number, or one per row.
        """
        sums = self._sums(phi, panels, shift)
        return sums * (self.meta[panels, :3] * self._scale(panels, radius)[:, None])

    def _scale(self, panels, radius) -> np.ndarray:
        """R**-n right**(n-1) per row, as (right/R)**(n-1) / R."""
        if self.n == 1:
            return 1.0 / radius
        return (self.edges[1:][panels] / radius) ** (self.n - 1) / radius

    def _floors(self, phi, panels, radius, shift, whole) -> np.ndarray:
        """The rounding floor of each row (as in `_rows`), whose sum is `whole`.

        This is the change of the row's integral when its nodes move by an
        ulp of r: ulp(right) times the change of phi(b - shift) between the
        panel's least and greatest b, times R**-n right**(n-1); plus the
        rounding of the sum itself, `_ROUNDING_ULPS` ulps of it (as
        `_rounding_floor` charges the tensor engine).
        """
        ends = self.meta[panels, 3:]
        if shift is not None:
            ends = ends - (shift[:, None] if isinstance(shift, np.ndarray) else shift)
        ends = np.asarray(phi(ends), dtype=float)
        scale = self._scale(panels, radius)
        moved = np.abs(ends[:, 1] - ends[:, 0]) * np.spacing(self.edges[1:][panels]) * scale
        return moved + _ROUNDING_ULPS * np.spacing(np.abs(whole))

    def integral(self, phi: Callable[[np.ndarray], np.ndarray], radii, shift=None,
                 tol: float = 1e-13, rtol: float = 1e-11, max_evals: int = 400_000):
        """``R**-n int_0^R phi(b(r) - shift) r**(n-1) dr`` for each radius R.

        `radii` is one radius, or an array of them in any order and with
        repeats; `shift` is None (no shift), one number shared by all
        radii, or one number per radius.  All radii become panel edges in
        one call of b: past the table's end the table grows to them, with
        b's breakpoints as edges; inside, the panels that straddle them are
        split there.  The panels under each radius are refined, in passes
        shared by all radii, until its estimate meets ``max(tol, rtol
        |value|)``, none of its panels can be bisected, or it has been
        charged `max_evals` fresh evaluations of b (the new edges, and the
        children of each panel it was the smallest radius to mark).  A
        panel whose estimate is within its rounding floor (`_floors`) is not
        bisected, since halving it cannot lower the rounding noise of b at
        its nodes, and a radius whose floors add up past its goal stops.

        Several radii sharing one shift (or none) take `_shared_query`,
        whose passes cost O(panels + radii); one radius, or a shift per
        radius, takes `_row_query`, one row per (panel, radius).  Returns
        one QuadratureResult for one radius, else a list in the order of
        `radii`; `evaluations` counts the nodes each radius summed.
        """
        scalar = np.ndim(radii) == 0
        radii = np.array(radii, dtype=float, ndmin=1)
        order = radii.argsort(kind="stable")
        big = radii[order]
        if shift is not None:
            shift = np.array(shift, dtype=float, ndmin=1)
            shift = shift[order] if shift.size > 1 else float(shift[0])
        start = self.fresh
        counts = self.edges.searchsorted(big)
        if big[-1] > self.edges[-1] or (self.edges[counts] != big).any():
            cuts = big if big.size == 1 else np.unique(big)
            cuts = cuts[self.edges.take(self.edges.searchsorted(cuts), mode="clip") != cuts]
            bps = self.breakpoints
            if big[-1] > self.edges[-1] and bps.size:
                cuts = np.union1d(cuts, bps[(bps > self.edges[-1]) & (bps < big[-1])])
            self._insert(cuts, big[-1])
        shared = big.size > 1 and not isinstance(shift, np.ndarray)
        query = self._shared_query if shared else self._row_query
        results = query(phi, big, shift, max_evals - (self.fresh - start), tol, rtol)
        if scalar:
            return results[0]
        ordered = [None] * big.size
        for i, res in zip(order.tolist(), results):
            ordered[i] = res
        return ordered

    def _shared_query(self, phi, big, shift, budget: int, tol: float, rtol: float) -> list:
        """`integral` at the ascending radii `big`, all shifted by `shift`
        (None or one number), in its order; `budget` is `max_evals` less the
        new edges.  Each pass costs O(panels + radii).

        Each panel's rule sums are made once, taken at the largest radius T
        as `_rows` takes them at R, and a radius R reads them times
        (T/R)**n.  Radii past `_SCALE_BITS` binades of that factor are
        queried in consecutive runs that stay within it, each charged the
        new edges as if they were its own, so no power of r leaves the
        float range.  Each radius reads its value, estimate and rounding
        floor off compensated running sums over the panels
        (`_running_sums`).  Both its estimate and its floor are charged the
        rounding of its value over k panels: the bound of those sums,
        u |value| + gamma(k - 1)**2 sum |halves| (u = 2**-53, gamma(j) =
        j u / (1 - j u)), plus `_ROUNDING_ULPS` ulps of sum |halves| for
        the panels' own rule sums.  A pass judges each panel once, at the
        smallest radius above it that is still refining, by `_split_panels`
        against the smallest goal among those radii; a radius with no
        marked panel under it stops.  Each bisection is charged to that
        smallest radius.
        """
        n = self.n
        logs = np.log2(big)
        run = int(logs.searchsorted(logs[0] + _SCALE_BITS / n, side="right"))
        if run < big.size:
            return (self._shared_query(phi, big[:run], shift, budget, tol, rtol)
                    + self._shared_query(phi, big[run:], shift, budget, tol, rtol))
        radii, inverse = np.unique(big, return_inverse=True)
        counts = self.edges.searchsorted(radii)
        # the rows each radius summed: the panels first under it, and both
        # children of each panel bisected under it since
        summed = counts.copy()
        scale = (radii[-1] / radii) ** n
        u = 2.0**-53

        def read(columns, at):
            """The prefix sums of `columns` (held at T, along their last
            axis) at the ascending radii `at`, each at its own scale."""
            return _running_sums(columns[..., :counts[at[-1]]])[..., counts[at] - 1] * scale[at]

        results = [None] * radii.size
        live = np.arange(radii.size)
        charged = np.zeros(radii.size, dtype=int)
        size = int(counts[-1])
        parts = self._rows(phi, slice(0, size), np.full(size, radii[-1]), shift)
        while True:
            halves, errors = _scored(parts)
            floors = self._floors(phi, slice(0, size), np.full(size, radii[-1]), shift,
                                  parts[:, 0])
            total, estimate, floor, mass = read(
                np.array([halves, errors, floors, np.abs(halves)]), live)
            # Sum2's bound on the running sums, and `_ROUNDING_ULPS` ulps of
            # the mass for the rounding of the panels' own rule sums
            gamma_k = (counts[live] - 1) * u / (1.0 - (counts[live] - 1) * u)
            rounding = u * np.abs(total) + gamma_k**2 * mass + _ROUNDING_ULPS * np.spacing(mass)
            estimate += rounding
            goal = np.maximum(tol, rtol * np.abs(total))
            # a radius whose rounding floor passes its goal cannot meet it
            asked = (estimate > goal) & (charged[live] < budget) & (floor + rounding <= goal)
            done = slice(None)
            if asked.any():
                ask = live[asked]
                top = counts[ask[-1]]
                # each panel is judged at the smallest asked radius above it
                place = counts[ask].searchsorted(np.arange(top), side="right")
                star = ask[place]
                least = np.minimum.accumulate(goal[asked][::-1])[::-1]
                split = _split_panels(errors[:top] * scale[star], self.meta[:top, 0] / radii[star],
                                      least[place], floors[:top] * scale[star])
                asked[asked] = np.cumsum(split)[counts[ask] - 1] > 0
                done = ~asked
            finished = live[done]
            for r, value, error, rows, converged in zip(
                    finished.tolist(), total[done].tolist(), estimate[done].tolist(),
                    summed[finished].tolist(), (estimate[done] <= goal[done]).tolist()):
                results[r] = QuadratureResult(value, error, 45 * rows, converged)
            if not asked.any():
                break
            live = live[asked]
            parents = np.flatnonzero(split)
            charged += 60 * np.bincount(star[parents], minlength=radii.size)
            mids = 0.5 * (self.edges[parents] + self.edges[parents + 1])
            self._insert(mids, radii[live[-1]], self.values[parents, 15:].reshape(-1, 15))
            # a kept panel moves past the children inserted before it
            kept = np.ones(size, dtype=bool)
            kept[parents] = False
            dest = np.arange(size) + parents.searchsorted(np.arange(size))
            added = parents.searchsorted(counts)
            counts += added
            summed += 2 * added
            children = ((parents + np.arange(parents.size))[:, None] + np.arange(2)).ravel()
            grown = np.empty((size + parents.size, 3))
            grown[dest[kept]] = parts[kept]
            grown[children] = self._rows(phi, children, np.full(children.size, radii[-1]), shift)
            size = int(counts[live[-1]])
            parts = grown[:size]
        return [results[i] for i in inverse]

    def _row_query(self, phi, big, shift, budget: int, tol: float, rtol: float) -> list:
        """`integral` at the ascending radii `big`, shifted by the matching
        `shift`, in its order, or at one radius with any shift; `budget` is
        `max_evals` less the new edges.

        Each (panel, radius) row keeps its rule sums, a bisected panel's rows
        pass to both its children, and each radius's panels are judged by
        `_split_panels`; one radius has one row per panel.  A query of more
        than `_PROFILE_ROWS` rows is made in consecutive chunks of its
        radii, each counted after the previous ones' refinement and charged
        the new edges as if they were its own.
        """
        counts = self.edges.searchsorted(big)
        each = isinstance(shift, np.ndarray)
        if big.size > 1 and counts.sum() > _PROFILE_ROWS:
            results, a = [], 0
            while a < big.size:
                rows = self.edges.searchsorted(big[a:]).cumsum()
                b = a + max(1, int(rows.searchsorted(_PROFILE_ROWS, side="right")))
                results += self.integral(phi, big[a:b], shift[a:b], tol, rtol, budget)
                a = b
            return results
        # the radii still refining, ascending (their places in `big`, the
        # fresh evaluations charged to them, the rows they summed), and
        # their rows, grouped by radius: the rows of radius R are the panels
        # under it, a prefix of the table
        act = list(range(big.size))
        charged = [0] * big.size
        summed = counts.tolist()
        offsets = counts.cumsum() - counts
        panels = np.arange(offsets[-1] + counts[-1]) - offsets.repeat(counts)
        radius = big.repeat(counts)
        # one radius's rows are the table's first panels: read them by a slice
        rows = slice(0, int(counts[-1])) if big.size == 1 else panels
        sums = self._rows(phi, rows, radius, shift.repeat(counts) if each else shift)
        results = [None] * big.size
        while True:
            halves, errors = _scored(sums)
            total = np.add.reduceat(halves, offsets).tolist()
            total_err = np.add.reduceat(errors, offsets).tolist()
            goal = [max(tol, rtol * abs(t)) for t in total]
            asked = [e > g and c < budget for e, g, c in zip(total_err, goal, charged)]
            if any(asked):
                group = np.arange(big.size).repeat(counts)
                rows = np.array(asked)[group].nonzero()[0]
                widths = self.meta[panels[rows], 0] / radius[rows]
                floors = np.zeros(panels.size)
                floors[rows] = self._floors(phi, panels[rows], radius[rows],
                                            shift[group[rows]] if each else shift, sums[rows, 0])
                # a radius whose rounding floor passes its goal cannot meet it
                reachable = np.add.reduceat(floors, offsets) <= np.array(goal)
                split = np.zeros(panels.size, dtype=bool)
                split[rows] = _split_panels(errors[rows], widths, np.array(goal)[group[rows]],
                                            floors[rows]) & reachable[group[rows]]
                asked = (np.add.reduceat(split, offsets) > 0).tolist()
            for i, refine in enumerate(asked):
                if not refine:
                    results[act[i]] = QuadratureResult(
                        total[i], total_err[i], 45 * summed[i], total_err[i] <= goal[i])
            if not any(asked):
                break
            if not all(asked):
                keep = np.array(asked)
                rows = keep.repeat(counts)
                panels, sums, split = panels[rows], sums[rows], split[rows]
                act, charged, summed = ([x for x, k in zip(xs, asked) if k]
                                        for xs in (act, charged, summed))
                big, counts = big[keep], counts[keep]
                if each:
                    shift = shift[keep]
                offsets = counts.cumsum() - counts
                group = np.arange(big.size).repeat(counts)
            # bisect each marked panel once, charged to the smallest radius
            # that marked it (the one that would have paid for it had the
            # radii been queried one at a time in ascending order); the
            # rows are grouped by ascending radius, so that radius marked
            # the panel's first marked row
            parents, first = np.unique(panels[split], return_index=True)
            payers = np.bincount(group[split][first], minlength=big.size).tolist()
            charged = [c + 60 * p for c, p in zip(charged, payers)]
            mids = 0.5 * (self.edges[parents] + self.edges[parents + 1])
            self._insert(mids, big[-1], self.values[parents, 15:].reshape(-1, 15))
            # each radius's rows are again the panels under it: a row moves
            # past the children inserted before it, and a parent's row
            # becomes the rows of both its children
            before = parents.searchsorted(panels)
            is_parent = parents.take(before, mode="clip") == panels
            grown = counts + parents.searchsorted(counts)
            summed = [s + 2 * (g - c) for s, g, c in zip(summed, grown.tolist(), counts.tolist())]
            dest = (grown.cumsum() - grown)[group] + panels + before
            kids = np.concatenate([dest[is_parent], dest[is_parent] + 1])
            counts = grown
            offsets = counts.cumsum() - counts
            panels = np.arange(offsets[-1] + counts[-1]) - offsets.repeat(counts)
            radius = big.repeat(counts)
            old = sums[~is_parent]
            sums = np.empty((panels.size, 3))
            sums[dest[~is_parent]] = old
            sums[kids] = self._rows(phi, panels[kids], radius[kids],
                                    shift.repeat(counts)[kids] if each else shift)
        return results


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
    The substituted integrand is one query, at R = 1, of a fresh panel
    profile (`_PanelProfile`) with n = 1, refined until its estimate meets
    ``max(tol, rtol |value|)`` or it has made `max_evals` evaluations.
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

    edges = [0.5] + [umap.pullback(float(bp)) for bp in breakpoints if 0.0 < bp < 1.0]
    profile = _PanelProfile(F, 1, edges)
    res = profile.integral(lambda v: v, 1.0, tol=tol, rtol=rtol, max_evals=max_evals)
    value, err, converged = res.value, res.abs_error_estimate, res.converged
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
    return QuadratureResult(value, err, profile.fresh, converged)


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
    breakpoints: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite GL rule on (0,1) for one axis, after substitution.

    Panels are graded geometrically toward both endpoints in u-space
    (edges at 2^-j down to 2^-(depth+1), mirrored), plus the pullbacks
    of the t-space breakpoints (kinks, or an oscillation's grid).
    Returns nodes t, exact complements s = 1 - t, and weights that
    already contain the substitution Jacobian.
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


class _Memo:
    """`build`, memoized on its arguments, least recently used first out.

    `build` returns a tuple of arrays and tuples (one level deep) of
    arrays and numbers.  The arrays are shared between callers, so they
    are read-only.  The entries kept hold at most `max_bytes` of arrays;
    an entry larger than that is returned but not kept.  `hits` and
    `misses` count the calls.
    """

    def __init__(self, build: Callable[..., tuple], max_bytes: int):
        self.build, self.max_bytes = build, max_bytes
        self.cache_clear()

    def cache_clear(self) -> None:
        self.entries: dict = {}  # key -> (value, bytes), oldest use first
        self.nbytes = self.hits = self.misses = 0

    def __call__(self, *key):
        entry = self.entries.pop(key, None)
        if entry is None:
            self.misses += 1
            value = self.build(*key)
            arrays = [a for v in value for a in (v if isinstance(v, tuple) else (v,))
                      if isinstance(a, np.ndarray)]
            for a in arrays:
                a.flags.writeable = False
            entry = (value, sum(a.nbytes for a in arrays))
            if entry[1] > self.max_bytes:
                return value
            self.nbytes += entry[1]
            while self.nbytes > self.max_bytes:
                self.nbytes -= self.entries.pop(next(iter(self.entries)))[1]
        else:
            self.hits += 1
        self.entries[key] = entry
        return entry[0]


# `_axis_rule` memoized on its arguments (breakpoints as a tuple), up to
# 8 MiB (an axis of a 1e4-radius oscillation check takes up to 4.6 MiB);
# a miss looks `_axis_rule` up anew, so a wrapper in its place sees it
_cached_axis_rule = _Memo(lambda *key: _axis_rule(*key), 8 * 2**20)


# per-axis rung ladders (depth, order), coarse to fine, by dimension m
_AXIS_RUNGS = {
    1: ((16, 12), (24, 16), (30, 20)),
    2: ((8, 8), (14, 12), (20, 16), (26, 20)),
    3: ((4, 6), (8, 8), (12, 10), (15, 12)),
}

# nodes per tensor slab (m >= 2): a slab's temporaries (2 MiB each) stay
# on the heap of a warm process and are reused from slab to slab; 8 MiB
# and larger ones are mapped and faulted in again on every slab
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
    thread, and m >= 2 is evaluated in slabs of the first axis to bound
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
    else:
        value = mass = 0.0
        count = 0
        # the other axes at full size, (1, n_2, ..., n_m), against a slab
        # of the first, so fp's values come out at full size
        shape = (1, *(x.size for x in nodes[1:]))

        def rest(axes):
            return [np.broadcast_to(x[None], shape)
                    for x in np.meshgrid(*axes[1:], indexing="ij", sparse=True)]

        ts, ss = rest(nodes), rest(comps)
        w_rest = math.prod(np.meshgrid(*weights[1:], indexing="ij", sparse=True))
        # einsum keeps the contraction off the BLAS threads
        contract = "ijk"[:m] + "," + "jk"[:m - 1] + "->i"
        chunk = max(1, _SLAB_NODES // w_rest.size)
        for start in range(0, nodes[0].size, chunk):
            lead = (slice(start, start + chunk),) + (None,) * (m - 1)
            vals = np.asarray(fp((nodes[0][lead], *ts), (comps[0][lead], *ss)), dtype=float)
            count += vals.size
            w1 = weights[0][start : start + chunk]
            value += float(w1 @ np.einsum(contract, vals, w_rest))
            mass += float(w1 @ np.einsum(contract, np.abs(vals), w_rest))
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
    budget: Optional[int],
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
    to the coarser one as the estimate.  `budget` is as in
    `integrate_unit_cube`.
    """
    m = len(behaviors)
    default = 2**23 if m <= 2 else 2**26
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
            _cached_axis_rule(behaviors[i], *ladder[k], tuple(bps[i]))
            for i, k in enumerate(level)
        ]
        size = math.prod([r[0].size for r in rules])
        if used + size > (budget or default):
            if used:
                return None
            if budget is not None:
                raise ValueError(f"budget {budget} is below the first grid's {size} nodes")
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


def _box_ends(behavior: EndpointBehavior, lo_scale: float, hi_scale: float):
    """The endpoint behavior and panel edges of an axis restricted to a box.

    The scales are the box's distances from t = 0 and t = 1 in units of its
    width w, lo/w and (1 - hi)/w.  A behavior survives only at a box end on
    the original endpoint (scale 0).  An integrand steep at an endpoint
    varies on the u-scale of a box end closer to it than w/4, so that end
    gets the dyadic ladder c, 2 c, 4 c, ... below 1/4 (c: its scale
    rounded down to 2^k >= 2^-50; mirrored at t = 1): the graded rule
    resolves it, and boxes of similar scales share their rules.
    """
    beh = EndpointBehavior(
        behavior.exponent_at_zero if lo_scale == 0.0 else 0.0,
        behavior.exponent_at_one if hi_scale == 0.0 else 0.0,
    )
    edges = []
    for scale, mirror in ((lo_scale, False), (hi_scale, True)):
        # a scale of 0 or at least 1/4 starts at or past 1/4: no ladder
        edge = max(math.ldexp(0.5, math.frexp(scale)[1]), 2.0**-50)
        while edge < 0.25:
            edges.append(1.0 - edge if mirror else edge)
            edge *= 2.0
    return beh, edges


def _box_nodes(lo, hi, u, su):
    """Nodes u of (0, 1), with complements su = 1 - u, mapped onto (lo, hi).

    Returns t = lo + w u and s = (1 - hi) + w su, both clipped into (0, 1)
    (rounding can land t on a singular end; s is exact, never 1 - t), and
    the width w = hi - lo.  The ends may be arrays that broadcast against
    the nodes.
    """
    w = hi - lo
    return (np.clip(lo + w * u, _T_FLOOR, _T_CEIL),
            np.clip((1.0 - hi) + w * su, _T_FLOOR, _T_CEIL), w)


def _box_axes(behaviors, axis_breakpoints, lows, highs):
    """Behaviors and breakpoints of the unit-cube axes that a sub-box maps to.

    Each axis keeps its breakpoints inside the box, mapped onto (0, 1),
    followed by its edge ladder, and its behavior follows `_box_ends`.
    """
    new_beh, new_bps = [], []
    for beh, bps, lo, hi in zip(behaviors, axis_breakpoints or [()] * len(behaviors),
                                lows, highs):
        w = hi - lo
        end_beh, ladder = _box_ends(beh, lo / w, (1.0 - hi) / w)
        new_beh.append(end_beh)
        new_bps.append([(bp - lo) / w for bp in bps if lo < bp < hi] + ladder)
    return tuple(new_beh), new_bps


def _apply_box(fp, behaviors, axis_breakpoints, lows, highs):
    """Restrict a pair-form integrand to a sub-box on the unit cube.

    Nodes map as in `_box_nodes`; behaviors and breakpoints follow
    `_box_axes`.
    """
    lows = [float(x) for x in lows]
    highs = [float(x) for x in highs]
    for lo, hi in zip(lows, highs):
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"invalid box edge ({lo}, {hi})")
    scale = math.prod(hi - lo for lo, hi in zip(lows, highs))

    def fb(us, sus):
        ts, ss, _ = zip(*map(_box_nodes, lows, highs, us, sus))
        return fp(ts, ss) * scale

    return (fb, *_box_axes(behaviors, axis_breakpoints, lows, highs))


# nodes per slab of `_integrate_boxes`: with 2^18-node slabs the 2-D
# temporaries raised the peak RSS of a process running the four
# benchmark duality checks from 35 to 44 MB
_BOX_SLAB_NODES = 2**16


def _integrate_boxes(fp, behavior: EndpointBehavior, lows, highs, tol: float):
    """Many one-axis box integrals of one integrand, sharing rules.

    Row j is ``int_{lows[j]}^{highs[j]} fp(t, s) dt`` for an integrand
    with the endpoint powers `behavior` at t = 0 and t = 1.  The box maps
    onto (0,1) as in `_box_nodes`; the value comes from the finer of the
    first two rungs of `_AXIS_RUNGS[1]` that agree within
    ``max(tol, _CUBE_RTOL |value|)`` (else from the top rung), and the
    estimate is their difference, floored at the rounding error of the
    sum.

    Rows alike at both ends (at 0 or 1, with an edge ladder of
    `_box_ends`, or neither) form a group with one rule per rung, whose
    ladders reach the group's smallest scales.  Rows with interior,
    ladder-free ends lie at least a quarter of their width from both
    singular ends, so their integrand is analytic in a Bernstein ellipse
    of parameter at least 1.5 + sqrt(1.25) about the box, and each rung
    is one Gauss-Legendre panel of its order (error about that parameter
    to the power -2 order: 1e-10 of the integrand's scale at order 12,
    4e-14 at 16).
    A rung evaluates a group's unfinished rows at once, in slabs of at
    most `_BOX_SLAB_NODES` nodes.  `fp(ts, ss)` receives 2-D nodes and
    their exact complements, one line per row, and evaluates
    elementwise.  Boxes must be nonempty and lie in [0, 1].  Returns the
    arrays (values, estimates, converged).
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    widths = highs - lows
    lo_scales, hi_scales = lows / widths, (1.0 - highs) / widths
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
            ts, ss, w = _box_nodes(lows[j][:, None], highs[j][:, None], u, su)
            vals = np.asarray(fp(ts, ss), dtype=float) * w
            value[part] = np.einsum("ij,j->i", vals, wts)
            mass[part] = np.einsum("ij,j->i", np.abs(vals), wts)
        if not np.all(np.isfinite(mass)):
            raise QuadratureError("integrand returned a non-finite value (box rows)")
        return value, mass

    # per end: at the endpoint, with a ladder, or neither; key 0 is the
    # smooth group, neither at both ends
    keys = ((lo_scales == 0.0) + 2 * (lo_scales < 0.25)
            + 4 * (hi_scales == 0.0) + 8 * (hi_scales < 0.25))
    ladder = _AXIS_RUNGS[1]
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        # an end's ladder starts at the group's smallest scale there
        beh, bps = _box_ends(behavior, lo_scales[rows].min(), hi_scales[rows].min())
        previous = None
        for k, (depth, order) in enumerate(ladder):
            if key:
                rule = _cached_axis_rule(beh, depth, order, tuple(bps))
            else:
                x, w = _gl(order)
                rule = x, 1.0 - x, w
            value, mass = row_sums(rows, rule)
            if previous is not None:
                delta = np.abs(value - previous)
                goal = np.maximum(tol, _CUBE_RTOL * np.abs(value))
                floor = np.where(mass > 0.0, _ROUNDING_ULPS * np.spacing(mass), 0.0)
                estimate = np.maximum(delta, floor)
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
# Gaussian mixtures (Schwinger reduction)
# ---------------------------------------------------------------------------


class MixtureAxis(NamedTuple):
    """One axis of a mixture integral: F(sigma) = int f(t, s) exp(-sigma gap(t, s)**2) dt.

    The integral runs over (lo, hi).  `zero_exp` and `one_exp` are the
    endpoint powers of f alone; `zero_exp` may reach -1 or below when
    `gap_at_zero` is set, because a gap that grows without bound as
    t -> 0 makes the Gaussian cut f off at t ~ sigma**(1/2) there.

    Every field but `f_pair` fixes the axis's nodes and gaps: axes equal
    in all of them (compared with ``==``, so `gap` must be the same
    object) share one rule and one exp(-sigma gap**2) matrix.
    """

    f_pair: Callable[[tuple, tuple], np.ndarray]
    gap: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero_exp: float
    one_exp: float
    lo: float
    hi: float
    breakpoints: tuple
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

# the Taylor head of `_gaussian_sums`: entries with sigma * gap**2 at most
# _HEAD_DELTA, summed to _HEAD_TERMS terms, the fewest whose truncation
# _HEAD_DELTA**K / K! is at most 2**-60
_HEAD_DELTA = 1.0
_HEAD_TERMS = next(
    k for k in range(1, 100) if _HEAD_DELTA**k / math.factorial(k) <= 2.0**-60
)

# head entries have gap**2 at most this, so that no moment of a column
# scaled to max |c| < 1 exceeds its length times 2**(32 (K - 1))
_HEAD_GAP2_MAX = 2.0**32

# rows with sigma above this (sigma**(K - 1) would overflow) get no head
_HEAD_SIGMA_MAX = 2.0 ** (1024.0 / (_HEAD_TERMS - 1))


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
    t_l, s_l, w_l = _cached_axis_rule(beh, depth, order, tuple(b for b in bps if b < 0.5))
    s_r, t_r, w_r = _cached_axis_rule(
        EndpointBehavior(beh.exponent_at_one, beh.exponent_at_zero), depth, order,
        tuple(1.0 - b for b in bps if b > 0.5),
    )
    left, right = t_l < 0.5, s_r < 0.5
    u = np.concatenate([t_l[left], t_r[right]])
    su = np.concatenate([s_l[left], s_r[right]])
    wu = np.concatenate([w_l[left], w_r[right]])
    t, s, w = _box_nodes(axis.lo, axis.hi, u, su)
    return t, s, w * wu


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


class _SumsPlan(NamedTuple):
    """The f-independent part of `_gaussian_sums` for one (sigma, gap2)."""

    step: int  # rows per block
    rows: int  # rows of the blocks with a head, a prefix
    segments: np.ndarray  # the first gap of each segment between distinct heads
    at: np.ndarray  # each head block's segment
    powers: np.ndarray  # g**m, m < _HEAD_TERMS, for the gaps of the longest head
    coef: np.ndarray  # (-sigma)**m / m!, as (blocks, _HEAD_TERMS, step)
    tail: tuple  # (first row, first gap, end gap) of each exp block
    count: int  # the work of one call


def _sums_plan(sigma: np.ndarray, gap2: np.ndarray) -> _SumsPlan:
    """Blocks, head and tail bounds and head tables of `_gaussian_sums`."""
    step = max(1, min(64, _SLAB_NODES // gap2.size))
    starts = np.arange(0, sigma.size, step)
    lasts = sigma[np.minimum(starts + step, sigma.size) - 1]
    with np.errstate(divide="ignore"):
        keeps = np.searchsorted(gap2, _EXP_ZERO / sigma[starts], side="right")
        heads = np.searchsorted(
            gap2, np.minimum(_HEAD_DELTA / lasts, _HEAD_GAP2_MAX), side="right"
        )
    # heads never grow from block to block, so the blocks with one are a prefix
    heads[lasts > _HEAD_SIGMA_MAX] = 0
    blocks = int(np.count_nonzero(heads))
    rows = min(blocks * step, sigma.size)
    edges, at = np.unique(heads[:blocks], return_inverse=True)
    top = int(edges[-1]) if blocks else 0
    powers = np.empty((_HEAD_TERMS, top))
    coef = np.zeros((_HEAD_TERMS, blocks * step))
    with np.errstate(under="ignore"):
        if blocks:
            powers[0] = 1.0
            coef[0] = 1.0
        for m in range(1, _HEAD_TERMS):
            np.multiply(powers[m - 1], gap2[:top], out=powers[m])
            np.multiply(coef[m - 1, :rows], sigma[:rows], out=coef[m, :rows])
            coef[m, :rows] *= -1.0 / m
    tail = tuple(
        (a, lo, hi)
        for a, lo, hi in zip(starts.tolist(), heads.tolist(), keeps.tolist()) if hi > lo
    )
    count = _HEAD_TERMS * rows + sum(
        (min(a + step, sigma.size) - a) * (hi - lo) for a, lo, hi in tail
    )
    coef = coef.reshape(_HEAD_TERMS, blocks, step).transpose(1, 0, 2)
    return _SumsPlan(step, rows, np.r_[0, edges[:-1]], at, powers, coef, tail, count)


def _gaussian_sums(sigma: np.ndarray, gap2: np.ndarray, cols: np.ndarray,
                   plan: Optional[_SumsPlan] = None):
    """exp(-outer(sigma, gap2)) @ cols, and the work it took.

    `sigma` and `gap2` are ascending, finite and >= 0.  The rows go in
    blocks of up to 64 (at most `_SLAB_NODES` entries), and a block
    splits the gaps g = gap**2 into three parts:

    * a head, g <= _HEAD_DELTA / sigma_last for the block's largest
      sigma, summed from Taylor moments:
      sum_j c_j exp(-sigma g_j) ~ sum_{m<K} (-sigma)**m / m! * M_m with
      M_m = sum_j c_j g_j**m and K = `_HEAD_TERMS`.  As sigma g_j <=
      _HEAD_DELTA, the truncation is at most _HEAD_DELTA**K / K! <=
      2**-60 of the head's sum |c_j|, per column.  The moments up to
      every block's head come from one table of segment sums, built once
      for all blocks and columns.  A head stops at g <= `_HEAD_GAP2_MAX`,
      and blocks with sigma past `_HEAD_SIGMA_MAX` have none, so that
      with each column in units of its max |c| no moment and no
      coefficient sigma**m / m! overflows, and the moments that
      underflow lose at most 2**-104 of that max per head gap;
    * a tail, up to the last gap whose exponent does not underflow to 0
      for the block's smallest sigma, evaluated as exp(-sigma g) @ c;
    * the rest, skipped.

    Everything but the columns (the blocks, their bounds and the tables
    g**m and (-sigma)**m / m!) is `plan`, made by `_sums_plan` when not
    given; a call then scales the columns, sums their head moments and
    computes the tail's exp entries.

    Returns the (sigma.size, cols.shape[1]) sums and the work, the same
    whether `plan` is given or not: the exp entries computed plus
    `_HEAD_TERMS` per row with a head.
    """
    if plan is None:
        plan = _sums_plan(sigma, gap2)
    step, rows = plan.step, plan.rows
    factor = np.zeros((sigma.size, cols.shape[1]))
    # a NaN or inf in a column reaches the sums, which the caller checks,
    # and moments and exps that underflow to 0 are within the bounds above
    with np.errstate(under="ignore", invalid="ignore"):
        if rows:
            # each column in units of its max |c| over the head, a power of 2
            c = np.ascontiguousarray(cols[: plan.powers.shape[1]].T)
            _, exps = np.frexp(np.abs(c).max(axis=1))
            c = np.ldexp(c, -exps[:, None])
            # the moments up to each distinct head: the sums over the
            # segments between them, then a running sum
            moments = np.add.reduceat(c[:, None, :] * plan.powers, plan.segments, axis=2)
            np.cumsum(moments, axis=2, out=moments)
            head = (moments[:, :, plan.at].transpose(2, 0, 1) @ plan.coef).transpose(0, 2, 1)
            factor[:rows] = np.ldexp(head.reshape(-1, cols.shape[1])[:rows], exps)
        slab = np.empty(min(_SLAB_NODES, step * gap2.size))
        # an exponent past the largest double is -inf, whose exp is 0
        with np.errstate(over="ignore"):
            for a, lo, hi in plan.tail:
                part = sigma[a : a + step]
                block = slab[: part.size * (hi - lo)].reshape(part.size, hi - lo)
                np.multiply(-part[:, None], gap2[lo:hi], out=block)
                factor[a : a + step] += np.exp(block, out=block) @ cols[lo:hi]
    return factor, plan.count


def _build_mixture_setup(rule: MixtureAxis, nu: float, lam: float, zeta: float, rung: int):
    """Everything of one rung of `_mixture_integrate` that f does not change.

    `rule` is an axis with `f_pair` None.  Returns the outer nodes sigma
    and weights omega, the inner nodes t, s and weights w, the order that
    sorts the gaps, the sorted gap**2 and the `_gaussian_sums` plan.
    """
    depth_in, order_in, depth_out, order_out = _MIXTURE_RUNGS[rung]
    sigma, omega = _mixture_outer(nu, lam, zeta, depth_out, order_out, 4.0**depth_in)
    t, s, w = _mixture_inner(rule, depth_in, order_in)
    with np.errstate(over="ignore"):
        gap2 = np.minimum(np.asarray(rule.gap(t, s), dtype=float) ** 2, _GAP2_MAX)
    order = np.argsort(gap2, kind="stable")
    gap2 = gap2[order]
    return sigma, omega, t, s, w, order, gap2, _sums_plan(sigma, gap2)


# the set-ups of the rules and rungs used last, up to 8 MiB of arrays: an
# entry of a Riesz or Cesaro weight on the unit box takes 0.22-0.42 MiB at
# rungs 1 and 2 and 0.59-0.65 MiB at rung 3; breakpoints add to it
_mixture_setup = _Memo(_build_mixture_setup, 8 * 2**20)


def _mixture_integrate(
    nu: float,
    scale: float,
    axes: Sequence[MixtureAxis],
    tol: float,
    rtol: float,
) -> QuadratureResult:
    """scale * int_0^inf prod_i F_i(x**(1/nu)) dx, rung by rung.

    Axes equal in every field but `f_pair` share one rule, and a rung
    evaluates the F_i of such a group at all its sigma nodes at once as
    exp(-sigma gap**2) @ (weights * [f_i, ...]) (`_gaussian_sums`: the
    entries with sigma gap**2 <= 1 from Taylor moments, the others as
    exp, skipping those that underflow to 0).  The F_i are multiplied
    in axis order, so axes that all differ give the same bits as one
    group per axis.  `evaluations` counts the work of `_gaussian_sums`,
    the exp entries plus `_HEAD_TERMS` per sigma node summed from
    moments, each shared group once, also when the group's nodes, gaps
    and sum plan come from the memo (`_mixture_setup`).
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
    # axes equal in everything but f_pair share their nodes and gaps
    groups = {}
    for j, ax in enumerate(axes):
        groups.setdefault(ax._replace(f_pair=None), []).append(j)
    used = 0
    previous = None
    for rung in range(len(_MIXTURE_RUNGS)):
        factors = [None] * len(axes)
        for rule, members in groups.items():
            sigma, omega, t, s, w, order, gap2, plan = _mixture_setup(rule, nu, lam, zeta, rung)
            # columns 2k, 2k + 1: member k's integral and its absolute counterpart
            cols = []
            for j in members:
                f = (np.asarray(axes[j].f_pair((t,), (s,)), dtype=float) * w)[order]
                cols += [f, np.abs(f)]
            cols = np.stack(cols, axis=1)
            factor, count = _gaussian_sums(sigma, gap2, cols, plan)
            used += count
            for k, j in enumerate(members):
                factors[j] = factor[:, 2 * k : 2 * k + 2]
        # multiplied in axis order, as when every axis has its own rule
        prod = np.stack([omega, omega], axis=1)
        for factor in factors:
            prod *= factor
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
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand returned a non-finite value (hypercube sample)")
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
    box: Optional[tuple[Sequence[float], Sequence[float]]] = None,
    axis_breakpoints: Optional[Sequence[Sequence[float]]] = None,
    f_pair: Optional[Callable[[tuple, tuple], np.ndarray]] = None,
) -> QuadratureResult:
    """Integrate f over (0,1)**m with per-axis endpoint powers.

    f receives m broadcastable arrays.  For m <= 3 the deterministic
    tensor rule is used (per-axis substitutions, geometrically graded
    panels, per-axis rung escalation for the error estimate).  For
    m >= 4 a seeded Latin-hypercube Monte Carlo estimate is returned;
    two calls with identical arguments are bit-identical.  No built-in
    weight reaches it: `const:c:m` integrals are products of m = 1
    calls, and the Riesz and Cesaro weights integrate through their
    Gaussian mixture form.

    `f_pair(ts, ss)`, when supplied, replaces f and receives both the
    nodes and their exact complements ``ss = 1 - ts``: integrands
    singular at t = 1 should use it, because recomputing ``1 - t`` from
    a double t cannot resolve the mass within ~1e-16 of the endpoint
    (for (1-t)**(-3/4) that truncates a full ~1e-4 of the integral).

    `box = (lows, highs)` restricts integration to a sub-box (useful for
    integrands supported there); `axis_breakpoints` pins panel edges at
    interior kinks, or a grid on the scale of an integrand's
    oscillation, one list per axis.  Integrands that blow up on an
    interior manifold are out of contract.

    `budget` caps the evaluations: for m <= 3 a budget below the first
    grid's nodes is a ValueError, and the result is unconverged when the
    next grid would pass it (by default, 2**23 or at m = 3 2**26 cap the
    grids after the first); for m >= 4 it is the sample count (default
    2**20, at least 16).  A budget below 1 is a ValueError.
    """
    m = len(behaviors)
    if m < 1:
        raise ValueError("need at least one axis")
    if axis_breakpoints is not None and len(axis_breakpoints) != m:
        raise ValueError(f"axis_breakpoints has {len(axis_breakpoints)} lists for {m} axes")
    if budget is not None and not budget >= 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    fp = f_pair if f_pair is not None else (lambda ts, ss: f(*ts))
    if box is not None:
        fp, behaviors, axis_breakpoints = _apply_box(
            fp, behaviors, axis_breakpoints, box[0], box[1]
        )
    if m >= 4:
        return _monte_carlo(fp, behaviors, tol, rtol, budget or 2**20, seed)
    return _tensor_integrate(fp, behaviors, tol, rtol, budget, axis_breakpoints)
