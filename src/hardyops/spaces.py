"""Radial function model and numerical norms on R^n.

All functions here are radial, so every n-dimensional integral reduces
to one dimension against the surface measure ``w_n r**(n-1) dr`` with
``w_n = n pi^(n/2) / Gamma(1 + n/2)``.

Three norms are provided, each the value of one internal function
(`_lebesgue_norm`, `_central_morrey_norm`, `_cmo_norm`) that returns a
`QuadratureResult`, which the CLI records:

* ``lebesgue_norm``: plain L^p, closed-form for piecewise powers,
  half-line quadrature otherwise;
* ``central_morrey_norm``: sup over R > 0 of the ball average
  ``(|B(0,R)|**-(1+lam*p) * int_{B(0,R)} |f|^p)**(1/p)``, exact for a
  piecewise power ``r**a`` on (r0, r1), whose sup has a closed form;
  otherwise the largest bracket a search of R in [1e-3, 1e3] finds
  (`_grid_sup`), a lower bound on the norm;
* ``cmo_norm``: sup over R of the central mean oscillation
  ``(|B|**-1 int_B |b - b_B|^q)**(1/q)``; for ``b = log|x|`` the bracket
  is R-invariant and takes its closed form, and for any other symbol it
  is the largest bracket the same search finds.

A search (`_grid_sup`) takes the bracket on a 61-point grid of R and
climbs from its best point on the bracket's exact slope in log R.  When
its ball integrals have no closed form it samples f, or the symbol,
once into a panel profile (`numerics._PanelProfile`), and every ball
integral of the search reads off it: the 61 grid radii take one batched
query per ball quantity (the Morrey averages; the CMO means, then their
oscillations, at q = 2 one query per block of radii that shares a
reference K, usually one block for all), and each probe of the climb one
query of each for one radius, plus, for the CMO slope at q != 2, one
loose query of the mean of sign(b - b_B) |b - b_B|**(q-1) (at q = 2 that
is the mean of b - b_B, which is zero).  A query of many radii costs
O(panels + radii) per refinement pass when they share one shift, as all
but the CMO oscillations at q != 2 do, and O(panels x radii) else.

A piecewise power's closed form is summed in logs, so that it holds
wherever the norm is a double, and carries the rounding bound of the
logs it sums (the CMO norm of log carries 1e-14), with one evaluation.
A divergent norm is ``math.inf``, never NaN, and only a
piecewise power's is: its result names the end where the mass is
infinite or the bracket unbounded.  A sup search's result is
unconverged, with an infinite estimate, since nothing bounds its
distance to the sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import QuadratureError, QuadratureResult, _PanelProfile, gamma, integrate_halfline

__all__ = [
    "ExponentConfig",
    "PiecewisePower",
    "RadialFunction",
    "power",
    "cutoff_power",
    "indicator_ball",
    "log_radial",
    "oscillatory_cutoff",
    "radial_from_callable",
    "parse_function_spec",
    "unit_sphere_volume",
    "lebesgue_norm",
    "central_morrey_norm",
    "central_morrey_profile",
    "cmo_norm",
]

# one-radius probes a sup search climbs with at most (`_grid_sup`)
_MAX_PROBES = 20
_EPS = np.finfo(float).eps
# Stirling's series: log Gamma(q + 1) = (q + 1/2) log q - q + log(2 pi) / 2
# + sum_j c_j q**(1 - 2j), c_j = B_2j / (2j (2j - 1)) (DLMF 5.11.1)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent tuple (n, p_i, lambda_i) with admissibility checks.

    The target exponent p is derived from ``1/p = sum 1/p_i``, and
    ``lam = sum lambda_i``.  When `lambda_i` is omitted it defaults to
    the Lebesgue boundary ``-1/p_i``.
    """

    n: int
    p_i: tuple[float, ...]
    lambda_i: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if not self.p_i:
            raise ValueError("at least one integrability exponent p_i is required")
        object.__setattr__(self, "p_i", tuple(float(p) for p in self.p_i))
        for p in self.p_i:
            if not 1.0 < p < math.inf:
                raise ValueError(f"every p_i must lie in (1, inf), got p_i = {p}")
        if not self.lambda_i:
            object.__setattr__(self, "lambda_i", tuple(-1.0 / p for p in self.p_i))
        else:
            object.__setattr__(self, "lambda_i", tuple(float(l) for l in self.lambda_i))
        if len(self.lambda_i) != len(self.p_i):
            raise ValueError("lambda_i and p_i must have equal length")
        for lam, p in zip(self.lambda_i, self.p_i):
            if not (-1.0 / p <= lam <= 0.0):
                raise ValueError(f"lambda_i={lam} outside [-1/p_i, 0] for p_i={p}")
        if not self.p > 1.0:
            raise ValueError("derived p must exceed 1; exponents too large")

    @property
    def m(self) -> int:
        return len(self.p_i)

    @property
    def p(self) -> float:
        return 1.0 / sum(1.0 / p for p in self.p_i)

    @property
    def lam(self) -> float:
        return sum(self.lambda_i)

    @property
    def balanced(self) -> bool:
        """True iff lambda_1 p_1 = ... = lambda_m p_m (within 1e-12)."""
        prods = [l * p for l, p in zip(self.lambda_i, self.p_i)]
        return max(prods) - min(prods) <= 1e-12

    def require_strict_morrey(self) -> None:
        """Enforce -1/p_i < lambda_i < 0, and p < p_i where that can hold.

        For m = 1, p equals p_1 by definition, so the strict ordering only
        binds for m >= 2.
        """
        for lam, p in zip(self.lambda_i, self.p_i):
            if not (-1.0 / p < lam < 0.0):
                raise ValueError(
                    f"strict regime needs -1/p_i < lambda_i < 0, got lambda_i={lam}, p_i={p}"
                )
        if self.m > 1 and any(not self.p < p for p in self.p_i):
            raise ValueError("strict regime needs p < p_i for every i")


# ---------------------------------------------------------------------------
# radial functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePower:
    """r**exponent on (r_min, r_max), zero outside."""

    exponent: float
    r_min: float = 0.0
    r_max: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, got {self.exponent}")
        # NaN fails both comparisons; r_max may be inf, r_min may not
        if not 0.0 <= self.r_min < self.r_max:
            raise ValueError(f"need 0 <= r_min < r_max, got ({self.r_min}, {self.r_max})")


@dataclass(frozen=True)
class RadialFunction:
    """Scalar radial function r -> f(r) on (0, inf)."""

    fn: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    descriptor: Optional[PiecewisePower] = None
    breakpoints: tuple[float, ...] = ()
    label: str = ""

    def __call__(self, r) -> np.ndarray:
        return self.fn(np.asarray(r, dtype=float))


def _power_eval(d: PiecewisePower) -> Callable[[np.ndarray], np.ndarray]:
    def fn(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        mask = (r > d.r_min) & (r < d.r_max)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.where(mask, r, 1.0) ** d.exponent
        return np.where(mask, vals, 0.0)

    return fn


def power(a: float) -> RadialFunction:
    """Pure power r**a on all of (0, inf)."""
    d = PiecewisePower(a)
    return RadialFunction(_power_eval(d), "power", d, (), f"power:{a:g}")


def cutoff_power(a: float, r0: float) -> RadialFunction:
    """r**a for r > r0, zero on (0, r0]."""
    d = PiecewisePower(a, r_min=r0)
    return RadialFunction(_power_eval(d), "cutoff-power", d, (r0,), f"cutpow:{a:g}:{r0:g}")


def indicator_ball(r1: float = 1.0, a: float = 0.0) -> RadialFunction:
    """r**a inside the ball of radius r1, zero outside."""
    d = PiecewisePower(a, r_max=r1)
    return RadialFunction(_power_eval(d), "cutoff-power", d, (r1,), f"ball:{a:g}:{r1:g}")


def log_radial() -> RadialFunction:
    return RadialFunction(np.log, "log", None, (), "log")


def oscillatory_cutoff(freq: float, big_r: float) -> RadialFunction:
    """sin(pi * freq * r) outside the ball of radius big_r / 2, zero inside."""
    if not (math.isfinite(freq) and math.isfinite(big_r)):
        raise ValueError(f"frequency and radius must be finite, got ({freq}, {big_r})")
    cut = big_r / 2.0

    def fn(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r > cut, np.sin(math.pi * freq * r), 0.0)

    return RadialFunction(fn, "oscillatory-cutoff", None, (cut,), f"osccut:{freq:g}:{big_r:g}")


def radial_from_callable(
    fn,
    label: str = "custom",
    breakpoints: Sequence[float] = (),
) -> RadialFunction:
    """Wrap a vectorized callable; declare its jump/kink radii as breakpoints."""
    return RadialFunction(fn, "custom", None, tuple(breakpoints), label)


def parse_function_spec(spec: str) -> RadialFunction:
    """Build a radial function from its CLI grammar.

    Grammar: ``power:a``, ``cutpow:a:r0``, ``log``, ``osccut:r:R``.
    A trailing ``@chi`` (or ``@chi:R``) modifier restricts a power to
    the ball of radius 1 (or R), e.g. ``power:0@chi`` is the indicator
    of the unit ball.
    """
    base, _, modifier = spec.partition("@")
    parts = base.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "power" and len(args) == 1:
            f = power(float(args[0]))
        elif kind == "cutpow" and len(args) == 2:
            f = cutoff_power(float(args[0]), float(args[1]))
        elif kind == "log" and not args:
            f = log_radial()
        elif kind == "osccut" and len(args) == 2:
            f = oscillatory_cutoff(float(args[0]), float(args[1]))
        else:
            raise ValueError("unknown function kind")
        if modifier:
            mparts = modifier.split(":")
            if mparts[0] != "chi" or len(mparts) > 2:
                raise ValueError(f"unknown function modifier {modifier!r}")
            r1 = float(mparts[1]) if len(mparts) == 2 else 1.0
            if not math.isfinite(r1):
                raise ValueError(f"@chi radius must be finite, got {r1}")
            if f.descriptor is None:
                raise ValueError("@chi applies to power-type functions only")
            d = PiecewisePower(f.descriptor.exponent, f.descriptor.r_min, r1)
            f = RadialFunction(_power_eval(d), "cutoff-power", d, f.breakpoints + (r1,),
                               f"{f.label}@chi:{r1:g}")
    except ValueError as exc:
        raise ValueError(f"invalid function spec {spec!r}: {exc}") from exc
    return f


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


# math.gamma(1 + n/2) overflows from this dimension on
_GAMMA_DIMS = 342


def unit_sphere_volume(n: int) -> float:
    """w_n = n pi^(n/2) / Gamma(1 + n/2), the measure of the unit sphere.

    This is the constant with ``int_{R^n} f(|x|) dx = w_n int_0^inf
    f(r) r^(n-1) dr``; w_1 = 2, w_2 = 2 pi, w_3 = 4 pi.  From n = 342 on
    it is the exp of `_log_sphere_terms`, a ValueError once that leaves the
    normal range (n >= 439), where it would lose digits and then read 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < _GAMMA_DIMS:
        return n * math.pi ** (n / 2.0) / gamma(1.0 + n / 2.0)
    wn = math.exp(math.fsum(_log_sphere_terms(n)))
    if wn < np.finfo(float).tiny:
        raise ValueError(f"w_n leaves the normal float range at n = {n}")
    return wn


def _log_sphere_terms(n: int, per_n: bool = False) -> list[float]:
    """log w_n, or log(w_n / n) if `per_n`, as terms to sum.

    From n = 342 on they are log n, (n/2) log pi and -lgamma(1 + n/2).
    Their inputs (pi**(n/2) and Gamma, or log pi) move w_n by at most
    4 + n ulps, and each term is within an ulp of its own value.
    """
    if n < _GAMMA_DIMS:
        return [math.log(unit_sphere_volume(n) / (n if per_n else 1))]
    return ([] if per_n else [math.log(n)]) + [n / 2.0 * math.log(math.pi),
                                              -math.lgamma(1.0 + n / 2.0)]


def _divergence(kappa: float, r_min: float, r_max: float) -> Optional[str]:
    """Why int_{r_min}^{r_max} r**(kappa-1) dr is infinite, naming each end; None if finite."""
    ends = [end for end, infinite in (("0", r_min == 0.0 and kappa <= 0.0),
                                      ("infinity", r_max == math.inf and kappa >= 0.0))
            if infinite]
    return f"r**{kappa - 1.0:g} is not integrable at {' or '.join(ends)}" if ends else None


def _mass_terms(pa: float, n: int, r_min: float, r_max: float) -> tuple[list[float], float]:
    """log int_{r_min}^{r_max} r**(pa + n - 1) dr as terms to sum, and their input error.

    The mass must be finite (`_divergence`).  With x = log r it is the
    integral of e**(kappa x), kappa = pa + n, over (x0, x1): log(x1 - x0)
    at kappa = 0, else ``kappa x_top + log(1 - e**(-|kappa| (x1 - x0))) -
    log|kappa|`` with x_top the end where e**(kappa x) is largest.  The
    error, over eps, counts what the inputs carry: kappa's rounding, within
    |pa| + n ulps, moves the log by the mean of x under e**(kappa x), at
    most the largest finite |x| (plus 1/|kappa| on a half line), per unit;
    each end's log moves it by at most |kappa| + 1/(x1 - x0) per unit; and
    the expm1 argument's two roundings add 2.
    """
    kappa = pa + n
    x0 = math.log(r_min) if r_min > 0.0 else -math.inf
    x1 = math.log(r_max)
    span = x1 - x0
    ends = [abs(x) for x in (x0, x1) if math.isfinite(x)]
    if kappa == 0.0:
        terms, drift = [math.log(span)], max(ends)
    else:
        terms = [kappa * (x1 if kappa > 0.0 else x0),
                 math.log(-math.expm1(-abs(kappa) * span)), -math.log(abs(kappa))]
        drift = max(ends) + (0.0 if math.isfinite(span) else 1.0 / abs(kappa))
    return terms, (abs(pa) + n) * drift + (abs(kappa) + 1.0 / span) * sum(ends) + 2.0


def _closed_form(terms: list[float], slack: float, p: float) -> QuadratureResult:
    """exp(sum(terms) / p), a norm summed in logs, with its rounding bound.

    `slack` eps bounds the error the terms carry from their inputs.  Each
    term adds two roundings of its magnitude (its last operation's and its
    share of the sum), the division by p one of the log, and exp an ulp of
    the value.  A norm past the float range is a ValueError.
    """
    log_value = math.fsum(terms) / p
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise ValueError(f"the norm, exp({log_value:.6g}), exceeds the float range") from None
    slack = (slack + 2.0 * sum(map(abs, terms))) / p + abs(log_value)
    return QuadratureResult(value, value * math.expm1(_EPS * slack) + math.ulp(value), 1, True)


def _lebesgue_norm(f: RadialFunction, p: float, n: int) -> QuadratureResult:
    """The result behind `lebesgue_norm`; an unconverged half line raises QuadratureError."""
    if not p > 0:
        raise ValueError("p must be positive")
    d = f.descriptor
    if d is not None:
        why = _divergence(p * d.exponent + n, d.r_min, d.r_max)
        if why:
            return QuadratureResult.divergent(f"|f|**p r**(n-1) = {why}")
        terms, slack = _mass_terms(p * d.exponent, n, d.r_min, d.r_max)
        return _closed_form(_log_sphere_terms(n) + terms, slack + 4.0 + n, p)

    def integrand(r):
        # r**(n - 1) alone overflows from n ~ 100 where |f|**p has underflowed to 0
        v = np.abs(f.fn(r))
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(v == 0.0, 0.0, (v * r ** ((n - 1) / p)) ** p)

    wn = unit_sphere_volume(n)
    res = integrate_halfline(
        integrand, tol=1e-12, rtol=1e-10, breakpoints=f.breakpoints
    )
    if not res.converged:
        raise QuadratureError(
            f"L^p half-line integral did not converge (value {res.value:.6g}, "
            f"error estimate {res.abs_error_estimate:.2g})"
        )
    mass, err = wn * max(res.value, 0.0), wn * res.abs_error_estimate
    value = mass ** (1.0 / p)
    # the root moves most at the interval's lower end
    estimate = (value * -math.expm1(math.log1p(-err / mass) / p) if err < mass
                else (mass + err) ** (1.0 / p))
    return QuadratureResult(value, estimate, res.evaluations, True)


def lebesgue_norm(f: RadialFunction, p: float, n: int) -> float:
    """||f||_{L^p(R^n)} for radial f; math.inf when divergent (`_lebesgue_norm`)."""
    return _lebesgue_norm(f, p, n).value


def _morrey_scale(p: float, lam: float, n: int) -> list[float]:
    """log(n (w_n/n)**(-lam p)) as terms; w_n/n is within 5 + n ulps and |lam p| <= 1."""
    return [math.log(n)] + [-lam * p * t for t in _log_sphere_terms(n, per_n=True)]


def _bracket_terms(d: PiecewisePower, p: float, lam: float, n: int,
                   radius: float) -> tuple[list[float], float]:
    """A piecewise power's bracket**p at `radius` > r_min as log terms, and their input error.

    The bracket**p is ``n (w_n/n)**(-lam p) R**-beta int_{r0}^{min(R, r1)}
    r**(kappa-1) dr`` with beta = n (1 + lam p), rounded from summands of
    magnitude n (1 + |lam p|); its mass must be finite.
    """
    x = math.log(radius)
    beta = n * (1.0 + lam * p)
    terms, slack = _mass_terms(p * d.exponent, n, d.r_min, min(d.r_max, radius))
    return (_morrey_scale(p, lam, n) + [-beta * x] + terms,
            slack + 5.0 + n + (n * (1.0 + abs(lam * p)) + beta) * abs(x))


def _morrey_brackets(
    f: RadialFunction, p: float, lam: float, n: int, force_quadrature: bool = False
) -> tuple[Callable[..., tuple[list[float], Optional[list[float]]]], Optional[_PanelProfile]]:
    """The ball expression ( |B|^-(1+lam p) int_B |f|^p )^(1/p) as a probe of radii.

    The probe maps radii to the bracket at each and, if asked, its slope
    in x = log R (see `_grid_sup`); it comes with the panel profile it
    reads, if any.  A piecewise power takes its exact bracket in logs
    (`_bracket_terms`), and no slopes, unless `force_quadrature` and its
    ball integrals are finite; otherwise f is sampled into one panel
    profile, and each call is one query with phi = |v|**p.  A power end
    ``|f|^p r^(n-1) ~ r**(kappa-1)`` at 0 with kappa = p a + n < 1 is
    sampled as b(v) = f(v**(1/kappa)), in dimension n/kappa and bounded at
    0, and queried at R**kappa, which gives kappa R**-n int_0^R.  A ball
    integral that does not converge raises QuadratureError.  With A the
    ball average of |f|^p, dA/dx = n (|f(R)|^p - A), so the bracket's log
    has the slope ``-n lam + (n/p) (|f(R)|^p - A) / A``.
    """
    d = f.descriptor
    # a power whose |f|^p r^(n-1) is not integrable at 0 has every bracket inf
    if d is not None and (not force_quadrature or d.r_min == 0.0 and p * d.exponent + n <= 0.0):
        def closed(radii, slopes: bool = False) -> tuple[list[float], None]:
            kappa = p * d.exponent + n
            return [0.0 if R <= d.r_min else math.inf if _divergence(kappa, d.r_min, R)
                    else _closed_form(*_bracket_terms(d, p, lam, n, R), p).value
                    for R in map(float, radii)], None

        return closed, None
    kappa = min(p * d.exponent + n, 1.0) if d is not None and d.r_min == 0.0 else 1.0
    profile = _PanelProfile(lambda v: f.fn(v ** (1.0 / kappa)), n / kappa,
                            [bp**kappa for bp in f.breakpoints])

    def averages(radii):
        results = profile.integral(lambda v: np.abs(v) ** p, np.asarray(radii) ** kappa)
        for radius, res in zip(radii, results):
            if not res.converged:
                raise QuadratureError(
                    f"Morrey ball integral at radius {radius:.6g} did not converge "
                    f"(value {res.value:.6g}, error estimate {res.abs_error_estimate:.2g})"
                )
        return [(n / kappa * max(res.value, 0.0), n / kappa * res.abs_error_estimate)
                for res in results]

    def probe(radii, slopes: bool = False) -> tuple[list[float], Optional[list[float]]]:
        # int_B |f|^p = |B| * avg, so the bracket is |B|^(-lam) * avg^(1/p),
        # summed in logs: |B| = (w_n/n) R**n leaves the float range from n ~ 100
        log_ball = math.fsum(_log_sphere_terms(n, per_n=True))
        avgs = averages(radii)
        with np.errstate(divide="ignore", over="ignore"):
            values = np.exp(-lam * (log_ball + n * np.log(radii))
                            + np.log([avg for avg, _ in avgs]) / p).tolist()
        if not slopes:
            return values, None
        rises = []
        for value, (avg, err), edge in zip(values, avgs, np.abs(f.fn(radii)) ** p):
            if not 0.0 < avg < math.inf:
                rises.append(0.0)
                continue
            ratio = edge / avg
            # the slope of the bracket's log, which times the bracket is its
            # slope; its error bound carries A's estimate, plus its rounding
            rise = n * (ratio - 1.0) / p - n * lam
            noise = n / p * ratio * err / avg + 4.0 * _EPS * n * ((ratio + 1.0) / p - lam)
            rises.append(value * rise if abs(rise) > noise else 0.0)
        return values, rises

    return probe, profile


def _square_oscillations(ball, radii: np.ndarray, means: np.ndarray, errs: np.ndarray,
                         tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The q = 2 central oscillations at `radii`, and their estimates.

    ``ball(phi, radii, shift)`` gives the ball means of phi(b - shift) and
    their estimates, as arrays; `means` and `errs` are the ball means c of
    b and theirs.  A block of consecutive radii shares a reference K, and
    M2, the mean of (b - K)**2, is one query for all of them, shifted by K
    alone; the oscillation is M2 - (c - K)**2.  A mean c_i with estimate e_i
    admits any K within tol / (2 e_i) of it, so that the cancellation
    2 |c_i - K| e_i stays within `tol`.  A block grows while the admitted
    intervals of its means still meet, and its K is the middle of its
    means, clipped into their common interval: a block of one radius takes
    its own mean, and M2 is the oscillation.  Each estimate adds the
    cancellation and the rounding of (c - K)**2 to M2's.
    """
    osc, osc_errs = np.empty(radii.size), np.empty(radii.size)
    # a zero or subnormal estimate admits any K: its reach is inf
    with np.errstate(divide="ignore", over="ignore"):
        reach = tol / (2.0 * errs)
    a = 0
    while a < radii.size:
        low, high, b = means[a] - reach[a], means[a] + reach[a], a + 1
        while (b < radii.size and max(low, means[b] - reach[b])
               <= min(high, means[b] + reach[b])):
            low, high, b = max(low, means[b] - reach[b]), min(high, means[b] + reach[b]), b + 1
        run = means[a:b]
        ref = min(max(0.5 * (run.min() + run.max()), low), high)
        m2, m2_errs = ball(np.square, radii[a:b], ref)
        gap = run - ref
        osc[a:b] = m2 - gap**2
        osc_errs[a:b] = m2_errs + 2.0 * np.abs(gap) * errs[a:b] + 4.0 * _EPS * gap**2
        a = b
    return osc, osc_errs


def _grid_sup(probe: Callable[..., tuple[list[float], Optional[list[float]]]],
              profile: Optional[_PanelProfile]) -> QuadratureResult:
    """The largest bracket found on R in [1e-3, 1e3]: a lower bound on the sup.

    ``probe(radii, slopes)`` maps an array of radii to the bracket at each
    and, if `slopes`, to the bracket's slope in x = log R at each (or any
    positive multiple of it), else None; a slope within its own error
    bound of zero is 0.  The search takes the bracket on a 61-point log
    grid in one call and climbs from its best point on the slope, one
    radius per call: doubling steps uphill, from 2**-12 of a grid cell
    and never past the neighbouring grid point, until the slope changes
    sign, then Illinois regula falsi (Dowell and Jarratt, 1971) on the
    slope until the sign change is pinned to 1e-10 in x.  A zero slope,
    an uphill slope at the neighbouring grid point, or `_MAX_PROBES`
    one-radius calls end the climb.  The result holds the largest bracket
    seen, grid points included, unconverged and with an infinite estimate,
    since nothing bounds its distance to the sup; its evaluations are the
    fresh ones of the `profile` the probe reads.

    The climb finds the local maximum next to the best grid point, not
    the sup over the window, and never looks past the window: for
    ``osccut:1:2`` with q = 2, n = 1 the CMO bracket approaches 1/sqrt(2)
    from below as R grows, and the search returns 0.70680915170901 at
    R = 999.75, the sup over the window.  An infinite bracket on the grid
    makes the result divergent.
    """
    radii = np.logspace(-3.0, 3.0, 61)
    xs = np.log(radii)
    values = [float(v) for v in probe(radii)[0]]
    if math.inf in values:
        radius = radii[values.index(math.inf)]
        return QuadratureResult.divergent(f"the bracket at R = {radius:.6g} is infinite")
    k = int(np.argmax(values))
    best, probes = values[k], 0

    def window() -> QuadratureResult:
        return QuadratureResult(best, math.inf, profile.fresh, False,
                                "the largest bracket on R in [1e-3, 1e3]: a lower bound on "
                                "the norm, with no bound on its distance to it")

    def at(radius: np.ndarray) -> float:
        nonlocal best, probes
        probes += 1
        value, slope = (float(v[0]) for v in probe(radius, True))
        best = max(best, value)
        # an infinite bracket is flat: the climb stops on it
        return 0.0 if math.isinf(value) else slope

    x = float(xs[k])
    slope = at(radii[k:k + 1])
    up = 1 if slope > 0.0 else -1
    if slope == 0.0 or not 0 <= k + up < radii.size:
        return window()
    neighbour = float(xs[k + up])
    # doubling steps uphill until the slope changes sign
    step = float(xs[1] - xs[0]) * 2.0**-12
    while True:
        nxt = neighbour if up * (x + up * step - neighbour) >= 0.0 else x + up * step
        nxt_slope = at(np.exp([nxt]))
        if nxt_slope * up < 0.0:
            break
        if nxt_slope == 0.0 or nxt == neighbour or probes >= _MAX_PROBES:
            return window()
        x, slope, step = nxt, nxt_slope, 2.0 * step
    # Illinois regula falsi on the slope over [a, b]: an end kept twice
    # in a row has its slope halved, so both ends close in
    a, fa, b, fb = x, slope, nxt, nxt_slope
    kept = 0
    while abs(b - a) > 1e-10 and probes < _MAX_PROBES:
        c = (a * fb - b * fa) / (fb - fa)
        fc = at(np.exp([c]))
        if fc == 0.0:
            break
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if kept < 0:
                fa *= 0.5
            kept = -1
        else:
            a, fa = c, fc
            if kept > 0:
                fb *= 0.5
            kept = 1
    return window()


def _check_morrey(p: float, lam: float, n: int) -> None:
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if not (-1.0 / p <= lam <= 0.0):
        raise ValueError(f"lam must lie in [-1/p, 0], got {lam}")


def _piece_morrey_norm(f: RadialFunction, p: float, lam: float, n: int) -> QuadratureResult:
    """Central Morrey norm of a piecewise power f = r**a on (r0, r1), in closed form.

    With kappa = p a + n and beta = n (1 + lam p) the bracket**p is
    ``n (w_n/n)**(-lam p) R**-beta int_{r0}^{min(R, r1)} r**(kappa-1) dr``.
    For beta = 0 (lam = -1/p) it rises to the L^p norm.  Otherwise it
    falls past r1, rises on all of (r0, r1) when a >= n lam, and else
    peaks at ``R* = r0 (beta/(beta - kappa))**(1/kappa)`` (r0 e**(1/beta)
    when kappa = 0), where the integral is r0**kappa / (beta - kappa).  So
    the sup is the bracket at min(R*, r1), summed in logs, or the R -> inf
    limit ``(w_n/n)**(-lam) (1 + lam p)**(-1/p)`` when a = n lam and
    r1 = inf; it is divergent when the bracket is unbounded (a > n lam
    with r1 = inf, or a < n lam with r0 = 0) or |f|**p is not integrable.
    """
    d = f.descriptor
    a, r0, r1 = d.exponent, d.r_min, d.r_max
    kappa, beta = p * a + n, n * (1.0 + lam * p)
    if beta <= 0.0:
        return _lebesgue_norm(f, p, n)
    # level within the rounding of n lam and of the decimal inputs
    level = abs(a - n * lam) <= 4.0 * math.ulp(n * lam)
    rising = level or a > n * lam  # on all of (r0, r1)
    if rising and r1 == math.inf:
        if not level:
            return QuadratureResult.divergent("the bracket grows without bound as R -> infinity")
        if n >= _GAMMA_DIMS:  # the limit n (w_n/n)**(-lam p) / beta, in logs
            slack = abs(lam * p) * (5.0 + n) + (abs(lam * p) + 1.0) / (1.0 + lam * p) + 1.0
            return _closed_form(_morrey_scale(p, lam, n) + [-math.log(beta)], slack, p)
        value = (unit_sphere_volume(n) / n) ** (-lam) * (1.0 + lam * p) ** (-1.0 / p)
        # two powers of rounded bases, w_n/n and 1 + lam p, and a product
        slack = abs(lam) * (5.0 + n) + (abs(lam * p) + 1.0) / (p * (1.0 + lam * p)) + 3.0
        return QuadratureResult(value, value * math.expm1(_EPS * slack), 1, True)
    if not rising:
        if r0 == 0.0:
            return QuadratureResult.divergent("the bracket grows without bound as R -> 0")
        x0, gap = math.log(r0), beta - kappa
        g = math.log1p(kappa / gap) / kappa if kappa else 1.0 / beta  # log(R* / r0)
        if x0 + g < math.log(r1):
            # at the peak the sup moves with kappa by the mean of log r over
            # (r0, R*), with beta by log R*, with log r0 by beta - kappa, and
            # with the roundings of g by 1 + beta |g|
            slack = ((abs(p * a) + n) * (abs(x0) + abs(g)) + n * (1.0 + abs(lam * p))
                     * abs(x0 + g) + gap * abs(x0) + 6.0 + n)
            return _closed_form(_morrey_scale(p, lam, n)
                                + [(kappa - beta) * x0, -beta * g, -math.log(gap)], slack, p)
    return _closed_form(*_bracket_terms(d, p, lam, n, r1), p)


def _central_morrey_norm(
    f: RadialFunction, p: float, lam: float, n: int, method: str = "auto"
) -> QuadratureResult:
    """The result behind `central_morrey_norm`: a closed form or a window sup."""
    _check_morrey(p, lam, n)
    d = f.descriptor
    if method not in ("auto", "closed", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and d is None:
        raise ValueError("closed form requires a piecewise power")
    if d is not None and method != "grid":
        return _piece_morrey_norm(f, p, lam, n)
    return _grid_sup(*_morrey_brackets(f, p, lam, n, method == "grid"))


def central_morrey_norm(
    f: RadialFunction, p: float, lam: float, n: int, method: str = "auto"
) -> float:
    """Central Morrey norm of radial f; a sup-search lower bound in general.

    Admissible range: -1/p <= lam <= 0 (the boundary lam = -1/p gives
    back the L^p norm).  `method` is one of "auto", "closed", "grid".  A
    piecewise power r**a on (r0, r1) takes its closed form
    (`_piece_morrey_norm`) unless "grid": for a pure power the bracket is
    R-invariant when a = n lam, with the value
    ``(w_n/n)**(-lam) * (1 + lam*p)**(-1/p)``, and any other pure power
    has an infinite norm.  Otherwise the value is the largest bracket
    `_grid_sup` finds on R in [1e-3, 1e3] (the best of 61 grid radii,
    then a climb on the exact slope of the bracket's log,
    ``-n lam + (n/p) (|f(R)|^p - A) / A`` with A the ball average of
    |f|^p), a lower bound on the sup over all R > 0, whose brackets read
    one panel profile of f (`_morrey_brackets`).
    """
    return _central_morrey_norm(f, p, lam, n, method).value


def central_morrey_profile(
    f: RadialFunction, p: float, lam: float, n: int, radii: Sequence[float],
    force_quadrature: bool = False,
) -> list[tuple[float, float]]:
    """The Morrey bracket at given positive, finite radii, to inspect a norm's sup."""
    _check_morrey(p, lam, n)
    radii = np.array(radii, dtype=float, ndmin=1)
    if not np.all((radii > 0.0) & np.isfinite(radii)):
        raise ValueError("every radius must be positive and finite")
    values = _morrey_brackets(f, p, lam, n, force_quadrature)[0](radii)[0]
    return [(float(R), v) for R, v in zip(radii, values)]


def cmo_norm(b: RadialFunction, q: float, n: int) -> float:
    """Central mean oscillation norm over origin-centered balls, or a lower bound.

    For ``b = log|x|`` the bracket is independent of R and reduces to
    ``(n int_0^1 u**(n-1) |log u + 1/n|**q du)**(1/q)``; the substitution
    u = exp(-x/n) makes it M**(1/q) / n with the moment
    ``M = int_0^inf exp(-x) |1 - x|**q dx = (Gamma(q + 1) + S) / e`` and
    ``S = int_0^1 exp(y) y**q dy = sum_k 1 / (k! (q + k + 1))``.  It is
    evaluated in logs, so that no q overflows: below q = 20 from lgamma
    and 20 terms of S, above it from Stirling's series for
    log Gamma(q + 1) with S dropped, within a few ulps for every finite
    q > 1.  Other symbols return the largest bracket `_grid_sup` finds on
    R in [1e-3, 1e3], a lower bound on the norm: for ``osccut:1:2`` with
    q = 2, n = 1 that is 0.70680915170901 at R = 999.75, the sup over the
    window, while the norm is 1/sqrt(2); a QuadratureError is raised
    when one of its integrals does not converge.  The generic ball
    integrals all read one panel profile of b (a table of b's values on
    r-space panels, refined as the radii need and kept across them), each
    to 1e-13 absolute or 1e-11 relative: for all radii of a probe at once,
    the means c = b_B with phi = identity, then the oscillations
    O = n R**-n int_B |b - c|**q.  At q != 2 they take phi = |v|**q
    shifted by each radius's c.  At q = 2 they take O = M2 - (c - K)**2,
    where M2 is the mean of (b - K)**2, one query for each block of radii
    sharing a reference K chosen from their means (`_square_oscillations`),
    so that no query needs a shift per radius.  The cancellation this
    costs, 2 |c - K| times the mean's estimate plus the rounding of
    (c - K)**2, is added to O's estimate and kept within the absolute goal
    by the choice of the blocks; a probe of one radius takes K = c, and M2
    is O.
    The climb steers by the slope in x = log R,

        dO/dx = n (|b(R) - c|**q - O) - q n (b(R) - c) G,

    where G is the ball mean of sign(b - c) |b - c|**(q-1).  G only
    steers, and its integrand has a cusp at b = c for q < 2, so it is
    queried to 1e-9 absolute or 1e-6 relative and never raises; at q = 2
    it is the ball mean of b - c, which is zero within the mean's own
    estimate, so it is not queried.  Every returned value comes from the
    mean and oscillation queries.
    """
    return _cmo_norm(b, q, n).value


def _cmo_norm(b: RadialFunction, q: float, n: int) -> QuadratureResult:
    """The result behind `cmo_norm`: the log symbol's closed form, or a window sup."""
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must exceed 1 and be finite, got q = {q}")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if b.kind == "log":
        if q < 20.0:
            # M = Gamma(q + 1) (1 + S / Gamma(q + 1)) / e; 20 terms of S leave
            # the rest below 2**-60 of it
            lg = math.lgamma(q + 1.0)
            s = math.fsum(1.0 / (math.factorial(k) * (q + k + 1.0)) for k in range(20))
            value = math.exp((lg + math.log1p(s * math.exp(-lg)) - 1.0) / q) / n
        else:
            # lgamma errs by an ulp of q log q, which the root keeps: Stirling's
            # series for log Gamma(q + 1) instead, whose first omitted term over
            # q and S / Gamma(q + 1) are below 2**-60 from q = 20; log 2 pi +
            # log q, since 2 pi q overflows near the top of the double range
            tail = sum(c * q ** (1 - 2 * j) for j, c in enumerate(_STIRLING, 1))
            value = q * math.exp((0.5 * (math.log(2.0 * math.pi) + math.log(q)) + tail - 1.0)
                                 / q - 1.0) / n
        return QuadratureResult(value, 1e-14 * value, 1, True)

    profile = _PanelProfile(b.fn, n, b.breakpoints)

    def ball(phi, radii: np.ndarray, shift=None) -> np.ndarray:
        """n R**-n int_B phi(b - shift) per radius: the values, then their estimates."""
        results = profile.integral(phi, radii, shift)
        for radius, res in zip(radii, results):
            if not res.converged:
                raise QuadratureError(
                    f"CMO ball integral at radius {radius:.6g} did not converge "
                    f"(value {res.value:.6g}, error estimate {res.abs_error_estimate:.2g})"
                )
        return n * np.array([[res.value, res.abs_error_estimate] for res in results]).T

    def probe(radii, slopes: bool = False) -> tuple[list[float], Optional[list[float]]]:
        means, mean_errs = ball(lambda v: v, radii)  # ball means c = b_B
        if q == 2.0:
            # the ball integrals' absolute goal bounds the cancellation
            osc, osc_errs = _square_oscillations(ball, radii, means, mean_errs, n * 1e-13)
        else:
            osc, osc_errs = ball(lambda v: np.abs(v) ** q, radii, means)
        values = [max(float(o), 0.0) ** (1.0 / q) for o in osc]
        if not slopes:
            return values, None
        # G only steers the climb: a loose goal, and no raise, since its
        # integrand has a cusp at b = c for q < 2; at q = 2 it is the ball
        # mean of b - c, zero within the mean's own estimate
        if q == 2.0:
            tilts = [(0.0, c_err) for c_err in mean_errs]
        else:
            tilts = [(n * res.value, n * res.abs_error_estimate) for res in profile.integral(
                lambda v: np.sign(v) * np.abs(v) ** (q - 1.0), radii, means,
                tol=1e-9, rtol=1e-6)]
        rises = []
        for o, gap, c_err, o_err, (g, g_err) in zip(osc, b.fn(radii) - means, mean_errs,
                                                    osc_errs, tilts):
            edge = abs(gap) ** q
            # dO/dx has the sign of the bracket O**(1/q)'s slope; its error
            # bound carries the queries' estimates, plus its own rounding
            rise = n * (edge - o) - q * n * gap * g
            noise = (n * (o_err + q * abs(gap) ** (q - 1.0) * c_err)
                     + q * n * (abs(gap) * g_err + abs(g) * c_err)
                     + 4.0 * _EPS * n * (edge + abs(o) + q * abs(gap * g)))
            rises.append(rise if abs(rise) > noise and o > 0.0 else 0.0)
        return values, rises

    return _grid_sup(probe, profile)
