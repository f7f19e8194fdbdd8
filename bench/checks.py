"""Independent references and the acceptance rule for benchmark outputs.

Closed forms use only the standard library (`math.gamma` here,
`fractions.Fraction` in workloads.py), never the package under test.  The corner
constants have no closed form; their mpmath values are read from
`references.json`, which `references.py` regenerates.

An output with its own error estimate passes when
``|value - reference| <= estimate + ULPS ulp(reference)``.  An output
without one (experiment reports, norms) is held to the package's default
absolute quadrature tolerance, ``TOL * max(1, |reference|)``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ULPS = 8
TOL = 1e-10
DIGITS_CAP = 17.0

_REFERENCE_FILE = Path(__file__).with_name("references.json")


def mpmath_reference(name: str) -> float:
    """A stored mpmath reference (see references.py)."""
    with open(_REFERENCE_FILE) as fh:
        return float(json.load(fh)["values"][name])


def digits(value: float, reference: float) -> float:
    """Correct significant digits of `value`, capped so an exact match stays finite."""
    if not math.isfinite(value):
        return 0.0
    rel = abs(value - reference) / abs(reference)
    if rel == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(rel)))


class Check:
    """Accumulates the problems and digit counts found in one operation's output."""

    def __init__(self):
        self.problems: list[str] = []
        self.digits: list[float] = []
        self.values: list[float] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, what: str) -> None:
        if not condition:
            self.problems.append(what)

    def close(self, label, value, reference, estimate=None, seeded=False) -> None:
        """Compare against a reference; seeded outputs stay out of digits_min."""
        value = float(value)
        self.values.append(value)
        slack = ULPS * math.ulp(reference)
        if estimate is None:
            slack += TOL * max(1.0, abs(reference))
        else:
            slack += float(estimate)
        if not (math.isfinite(value) and abs(value - reference) <= slack):
            self.problems.append(
                f"{label}: {value!r} vs reference {reference!r} (allowed {slack:.3g})"
            )
        if not seeded and reference != 0.0:
            self.digits.append(digits(value, reference))

    def agree(self, label, a, b, slack) -> None:
        """A property: two computed values that must coincide within `slack`."""
        a, b = float(a), float(b)
        self.values.extend((a, b))
        if not (math.isfinite(a) and math.isfinite(b) and abs(a - b) <= slack):
            self.problems.append(f"{label}: {a!r} vs {b!r} (allowed {slack:.3g})")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def gamma_ratio(x: float, y: float) -> float:
    return math.gamma(x) / math.gamma(y)


def power_morrey_norm(lam: float, p: float, n: int) -> float:
    """(w_n/n)^(-lam) (1 + lam p)^(-1/p), w_n = n pi^(n/2) / Gamma(1 + n/2)."""
    wn = n * math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)
    return (wn / n) ** (-lam) * (1.0 + lam * p) ** (-1.0 / p)


def truncated_flat_sweep_point(eps: float, p_i: tuple[float, ...], n: int = 1) -> float:
    """Lower bound of the Lebesgue sweep for the flat weight const:1:m.

    (c)^(p_m eps / p) * prod_i int_c^1 t^(-n/p_i - eps_i) dt with
    c = sqrt(2) eps / 2 and eps_i = (p_m / p_i) eps.
    """
    p = 1.0 / sum(1.0 / q for q in p_i)
    p_m = p_i[-1]
    cut = math.sqrt(2.0) * eps / 2.0
    value = cut ** (p_m * eps / p)
    for q in p_i:
        e = -n / q - (p_m / q) * eps
        value *= (1.0 - cut ** (1.0 + e)) / (1.0 + e)
    return value


def counterexample_law(alpha: float, delta: float) -> float:
    """C(delta) = (2/alpha) log 2 + 1/(1+alpha) + ((log 1/delta)^(1-alpha) - 1)/(1-alpha).

    Exact for the log-substituted weight: the truncated log moment is
    int_0^S s branch(s) ds with S = log(1/delta).
    """
    big_s = math.log(1.0 / delta)
    return (
        (2.0 / alpha) * math.log(2.0)
        + 1.0 / (1.0 + alpha)
        + (big_s ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    )


def flat_hardy_cutoff(a: float, r0: float, r: float) -> float:
    """H_1 of cutpow(a, r0) at r: int_lo^1 (t r)^a dt, lo = min(r0/r, 1)."""
    lo = min(r0 / r, 1.0)
    return r**a * (1.0 - lo ** (a + 1.0)) / (a + 1.0)


def flat_cesaro_cutoff(a: float, r0: float, r: float, n: int) -> float:
    """C_1 of cutpow(a, r0) at r: int_0^hi (r/t)^a t^(-n) dt, hi = min(r/r0, 1)."""
    hi = min(r / r0, 1.0)
    k = 1.0 - a - n
    return r**a * hi**k / k


def cmo_log_norm(q: int) -> float:
    """CMO norm of log|x| on R^1: (int_0^inf |1 - s|^q e^(-s) ds)^(1/q), q = 2 or 3."""
    closed = {2: 1.0, 3: 12.0 / math.e - 2.0}
    return closed[q] ** (1.0 / q)
