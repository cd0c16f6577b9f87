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

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import sieve
from .bounds import FormMeta, positions
from .errors import CrossCheckError, DataGapError, InvalidInputError

# primes with |lambda| within this guard of the closed boundary count as
# satisfying the Ramanujan bound in scans
RAMANUJAN_GUARD = 1e-9

REMARK_VARIANT_NOTE = "conditional: rests on an unestablished zero-free region"
# FormFamily's hypothesis, which every scan report records
DISTINCT_RP_ASSUMPTION = ("pairwise distinct Ramanujan-exceptional prime sets "
                          "(asserted, not verified from data)")


@dataclass
class FormFamily:
    """Family of forms scanned together.

    The pairwise-distinctness hypothesis (no two members share their
    Ramanujan-exceptional prime set) cannot be decided from finite data;
    every scan report records it as DISTINCT_RP_ASSUMPTION.  Labelled
    members must carry distinct labels: one form listed twice is not a
    family of two.
    """

    members: list[FormMeta]

    def __post_init__(self):
        if len(self.members) < 2:
            raise InvalidInputError("a family needs at least 2 members")
        labels = [m.label for m in self.members if m.label is not None]
        for i, lab in enumerate(labels):
            if lab in labels[:i]:
                raise InvalidInputError(f"two family members share the label {lab!r}")

    @property
    def m(self) -> int:
        return len(self.members)


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

    def to_json_dict(self) -> dict:
        return {
            "X": self.X,
            "pi_X": self.pi_X,
            "exceptional_count": self.exceptional_count,
            "running_mean_U": self.running_mean_U,
            "implied_upper": self.implied_upper,
            "theory_bound": self.theory_bound,
            "assumptions": self.assumptions,
        }


def chebyshev_weight(a_sum, a4_first):
    """U = (1 + 3*sum_j A_j + 5*A4_1)^2 from sum_j A_j and A4_1, given as
    floats or numpy arrays."""
    linear = 1.0 + 3.0 * a_sum + 5.0 * a4_first
    return linear * linear


def weight_residual(a2_1, a3_abs_sq_1, a4_1, a2_2, a4_2):
    """|U - expansion| for two members, given the first member's A, |A3|^2
    and A4 and the second's A and A4 (floats or numpy arrays).

    The expansion substitutes A^2 = A4 + A + 1 for both members and
    A*A4 = |A3|^2 - 1 for the first, leaving
    -11 + 15 A1 + 15 A2 + 19 A4_1 + 9 A4_2 + 18 A1 A2 + 30 A4_1 A2
    + 30 |A3_1|^2 + 25 A4_1^2.
    """
    expanded = (-11.0 + 15.0 * a2_1 + 15.0 * a2_2 + 19.0 * a4_1
                + 9.0 * a4_2 + 18.0 * a2_1 * a2_2 + 30.0 * a4_1 * a2_2
                + 30.0 * a3_abs_sq_1 + 25.0 * a4_1 ** 2)
    return abs(chebyshev_weight(a2_1 + a2_2, a4_1) - expanded)


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


def exceptional_scan(family: FormFamily, X: int) -> DensityReport:
    """Scan primes up to X, count those where every member violates the
    Ramanujan bound, and average the Chebyshev weight.

    Primes dividing any member's level are excluded; when that leaves no
    prime up to X, InvalidInputError names X and the levels.  Missing
    coefficients raise DataGapError listing the gaps, member by member
    in increasing p, and then a NaN or infinite eigenvalue, naming its
    member and prime.  At every exceptional prime the weight is checked
    against the (1 + 9m + 25)^2 threshold.
    """
    if X < 2:
        raise InvalidInputError(f"X must be >= 2, got {X}")
    primes = sieve.primes_upto(X)
    # one mask per level: a product of the levels could overflow int64
    for mem in family.members:
        primes = primes[mem.level % primes != 0]
    if not primes.size:
        raise InvalidInputError(
            f"every prime up to X = {X} divides one of the levels "
            f"{[mem.level for mem in family.members]}; nothing to scan")

    names = [mem.label or f"level-{mem.level}" for mem in family.members]
    rows = []
    gaps = []
    for name, mem in zip(names, family.members):
        idx, found = positions(mem.ps, primes)
        gaps.extend((name, p) for p in primes[~found].tolist())
        rows.append(mem.lams[idx[found]])
    if gaps:
        raise DataGapError(
            f"missing coefficients at {len(gaps)} primes "
            f"(first: {gaps[:5]})", gaps=gaps)
    for name, lams in zip(names, rows):
        bad = np.flatnonzero(~np.isfinite(lams))
        if bad.size:
            raise DataGapError(
                f"{name}: eigenvalue at p = {int(primes[bad[0]])} is not "
                f"finite ({float(lams[bad[0]])})")

    # A = lam^2 - 1, and A^2 = A4 + A + 1 gives A4 = lam^4 - 3 lam^2 + 1
    squares = [lams * lams for lams in rows]
    a_sum = sum(sq - 1.0 for sq in squares)
    a4_first = squares[0] * squares[0] - 3.0 * squares[0] + 1.0
    u_vals = chebyshev_weight(a_sum, a4_first)

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
        running_mean_U=float(np.sum(u_vals)) / n,
        implied_upper=exceptional.size / n,
        theory_bound=1.0 / (26 + 9 * family.m),
        assumptions=[DISTINCT_RP_ASSUMPTION],
        exceptional_primes=primes[exceptional].tolist())

