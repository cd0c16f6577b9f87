"""Chebyshev-weight density machinery.

The scan weight at a prime p for a family of m forms is

    U(p) = (1 + 3*(A_1(p) + ... + A_m(p)) + 5*A4_1(p))^2,

a perfect square, so nonnegative.  At a prime where every member
violates the Ramanujan bound, each A_j exceeds 3 and A4_1 exceeds 5, so
U(p) > (1 + 9m + 25)^2; for m = 2 that threshold is 44^2 = 1936.
Averaging U against its expansion through the Hecke identities converts
that pointwise largeness into the density bounds 1 - 1/(26 + 9m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import sieve
from .bounds import FormMeta, checked_coefficients
from .errors import CrossCheckError, DataGapError, InvalidInputError
from .satake import CoeffTriple

# primes with |lambda| within this guard of the closed boundary count as
# satisfying the Ramanujan bound in scans
RAMANUJAN_GUARD = 1e-9

TWO_FORM_THRESHOLD = 44 ** 2

REMARK_VARIANT_NOTE = "conditional: rests on an unestablished zero-free region"


@dataclass
class FormFamily:
    """Family of forms scanned together.

    The pairwise-distinctness hypothesis (no two members share their
    Ramanujan-exceptional prime set) cannot be decided from finite data;
    it is carried as a recorded assumption.
    """

    members: list[FormMeta]
    distinct_rp_assumed: bool = True

    def __post_init__(self):
        if len(self.members) < 2:
            raise InvalidInputError("a family needs at least 2 members")

    @property
    def m(self) -> int:
        return len(self.members)

    def assumptions(self) -> list[str]:
        out = []
        if self.distinct_rp_assumed:
            out.append("pairwise distinct Ramanujan-exceptional prime sets "
                       "(asserted, not verified from data)")
        return out


@dataclass
class DensityReport:
    """Outcome of an exceptional-prime scan up to X."""

    X: int
    pi_X: int
    exceptional_count: int
    running_mean_U: float
    implied_upper: float
    theory_bound: float
    assumptions: list[str] = field(default_factory=list)
    exceptional_primes: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "X": self.X,
            "pi_X": self.pi_X,
            "exceptional_count": self.exceptional_count,
            "running_mean_U": self.running_mean_U,
            "implied_upper": self.implied_upper,
            "theory_bound": self.theory_bound,
            "assumptions": self.assumptions,
        }, sort_keys=True)


def chebyshev_weight(coeffs: Sequence[CoeffTriple], m: int) -> float:
    """U = (1 + 3*sum_j A_j + 5*A4_1)^2 for a list of m coefficient triples."""
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")
    if len(coeffs) != m:
        raise InvalidInputError(
            f"expected {m} coefficient triples, got {len(coeffs)}")
    linear = 1.0 + 3.0 * sum(c.a2 for c in coeffs) + 5.0 * coeffs[0].a4
    return linear * linear


def expansion_residual(coeffs: tuple[CoeffTriple, CoeffTriple]) -> float:
    """|squared form - Hecke-identity expansion| for a pair of triples.

    The expansion substitutes A^2 = A4 + A + 1 for both members and
    A*A4 = |A3|^2 - 1 for the first, leaving
    -11 + 15 A1 + 15 A2 + 19 A4_1 + 9 A4_2 + 18 A1 A2 + 30 A4_1 A2
    + 30 |A3_1|^2 + 25 A4_1^2.
    """
    c1, c2 = coeffs
    for c in (c1, c2):
        r1, r2 = c.identity_residuals()
        if max(r1, r2) > 1e-10:
            raise InvalidInputError(
                f"coefficient triple violates the Hecke identities: "
                f"residuals ({r1}, {r2})")
    squared = chebyshev_weight((c1, c2), 2)
    expanded = (-11.0 + 15.0 * c1.a2 + 15.0 * c2.a2 + 19.0 * c1.a4
                + 9.0 * c2.a4 + 18.0 * c1.a2 * c2.a2 + 30.0 * c1.a4 * c2.a2
                + 30.0 * c1.a3_abs_sq + 25.0 * c1.a4 ** 2)
    return abs(squared - expanded)


def density_lower_bound(m: int, variant: str = "paper") -> Fraction:
    """Exact lower bound for the density of primes where some member
    satisfies the Ramanujan bound: 1 - 1/(26 + 9m), or the conditional
    variant 1 - 1/(1 + 9m + 25m^2)."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if variant == "paper":
        return 1 - Fraction(1, 26 + 9 * m)
    if variant == "remark":
        return 1 - Fraction(1, 1 + 9 * m + 25 * m * m)
    raise InvalidInputError(f"variant must be 'paper' or 'remark', got {variant!r}")


def pigeonhole_intersection(d1: Fraction, d2: Fraction) -> Fraction:
    """max(d1 + d2 - 1, 0): lower density of an intersection from two
    lower densities."""
    d1, d2 = Fraction(d1), Fraction(d2)
    for d in (d1, d2):
        if not 0 <= d <= 1:
            raise InvalidInputError(f"density out of [0, 1]: {d}")
    return max(d1 + d2 - 1, Fraction(0))


def _triples_from_eigenvalues(ps: np.ndarray, lams: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (A, |A3|^2, A4) from real eigenvalues via the literal
    parameter sums (trigonometric for tempered, hyperbolic beyond); the
    test oracle for the polynomial route of exceptional_scan."""
    mod = np.abs(lams)
    a2 = lams * lams - 1.0
    a3sq = np.empty_like(a2)
    a4 = np.empty_like(a2)

    t = mod <= 2.0
    # tempered: alpha/beta = e^{2i theta}, 2 cos(k theta) sums
    c2 = np.clip(mod[t] ** 2 / 2.0 - 1.0, -1.0, 1.0)     # cos(2 theta)
    two_theta = np.arccos(c2)
    a3 = 2.0 * np.cos(1.5 * two_theta) + 2.0 * np.cos(0.5 * two_theta)
    a3sq[t] = a3 * a3
    a4[t] = 2.0 * np.cos(2.0 * two_theta) + 2.0 * c2 + 1.0

    nt = ~t
    if np.any(nt):
        # non-tempered: alpha/beta = p^{2 nu}, hyperbolic sums in w = p^nu + p^-nu
        w = mod[nt]
        r = (w / 2.0 + np.sqrt(np.maximum(w * w / 4.0 - 1.0, 0.0))) ** 2
        a3w = w ** 3 - 2.0 * w
        a3sq[nt] = a3w * a3w
        a4[nt] = r * r + r + 1.0 + 1.0 / r + 1.0 / (r * r)
    return a2, a3sq, a4


def exceptional_scan(family: FormFamily, X: int) -> DensityReport:
    """Scan primes up to X, count those where every member violates the
    Ramanujan bound, and average the Chebyshev weight.

    Primes dividing any member's level are excluded.  Missing
    coefficients raise DataGapError listing the gaps, member by member
    in increasing p.  At every exceptional prime the weight is checked
    against the (1 + 9m + 25)^2 threshold.
    """
    if X < 2:
        raise InvalidInputError(f"X must be >= 2, got {X}")
    primes = sieve.primes_upto(X)
    # one mask per level: a product of the levels could overflow int64
    for mem in family.members:
        primes = primes[mem.level % primes != 0]

    rows = []
    gaps = []
    for mem in family.members:
        idx = np.searchsorted(mem.ps, primes)
        found = idx < mem.ps.size
        found[found] = mem.ps[idx[found]] == primes[found]
        gaps.extend((mem.label or f"level-{mem.level}", p)
                    for p in primes[~found].tolist())
        rows.append(mem.lams[idx[found]])
    if gaps:
        raise DataGapError(
            f"missing coefficients at {len(gaps)} primes "
            f"(first: {gaps[:5]})", gaps=gaps)

    # A = lam^2 - 1, and A^2 = A4 + A + 1 gives A4 = lam^4 - 3 lam^2 + 1
    squares = [lams * lams for lams in rows]
    a_sum = sum(sq - 1.0 for sq in squares)
    a4_first = squares[0] * squares[0] - 3.0 * squares[0] + 1.0
    linear = 1.0 + 3.0 * a_sum + 5.0 * a4_first
    u_vals = linear * linear

    non_rp_all = np.ones(primes.size, dtype=bool)
    for lams in rows:
        non_rp_all &= np.abs(lams) > 2.0 + RAMANUJAN_GUARD
    threshold = (1.0 + 9.0 * family.m + 25.0) ** 2
    exceptional = np.flatnonzero(non_rp_all)
    low = exceptional[u_vals[exceptional] <= threshold - 1e-6]
    if low.size:
        p, u_p = int(primes[low[0]]), float(u_vals[low[0]])
        raise CrossCheckError(
            f"exceptional prime {p} has U = {u_p} <= {threshold}")

    n = primes.size
    return DensityReport(
        X=X, pi_X=n, exceptional_count=exceptional.size,
        running_mean_U=float(np.sum(u_vals)) / n if n else float("nan"),
        implied_upper=exceptional.size / n if n else 0.0,
        theory_bound=1.0 / (26 + 9 * family.m),
        assumptions=family.assumptions(),
        exceptional_primes=primes[exceptional].tolist())


def pnt_trend(ps: np.ndarray, values: np.ndarray,
              x_grid: Sequence[int]) -> list[dict]:
    """Running averages sum_{p <= X} a_p / pi(X) along a grid of X values.

    ps and values are coefficient arrays (strictly increasing primes and
    the values a_p at them, checked by bounds.checked_coefficients) that
    must cover every prime up to max(x_grid).  Report-only: trends
    toward 0 for first moments of the symmetric-power coefficients and
    toward limits <= 1 for their normalized second moments are expected,
    not asserted.
    """
    ps, values = checked_coefficients(ps, values)
    x_max = max(x_grid)
    missing = np.setdiff1d(sieve.primes_upto(x_max), ps, assume_unique=True)
    if missing.size:
        raise InvalidInputError(
            f"stream must cover all primes <= {x_max}; missing "
            f"{missing.size} (first: {missing[:5].tolist()})")
    csum = np.cumsum(values)
    rows = []
    for X in x_grid:
        k = int(np.searchsorted(ps, X, side="right"))
        if k == 0:
            raise InvalidInputError(f"no primes <= {X} in stream")
        rows.append({"X": int(X), "pi_X": k, "ratio": float(csum[k - 1] / k)})
    return rows
