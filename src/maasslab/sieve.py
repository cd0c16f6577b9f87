"""Brute-force laboratory for squarefree-supported multiplicative functions.

Everything here is exact enumeration against a prime and squarefree
table: threshold weights h (chi0 on primes up to a cutoff y, chi1
beyond), coefficient tables, Dirichlet convolutions and their Moebius
inversions, the partial sums H(t), the log-weighted sums, the Euler
product constant c(a), and the local factor of the auxiliary Euler
product whose x^1 coefficient cancels identically.

Convolution identities are evaluated in exact rational arithmetic
(Fraction); enumerations use float64, whose sums stay exact for the
integer-valued weights and sizes handled here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import bounds, dde
from .errors import (CrossCheckError, InvalidInputError, PreconditionError,
                     ResourceLimitError)

LARGE_LIMIT = 10 ** 7      # table limits above this need allow_large=True
HARD_LIMIT = 2 * 10 ** 8
TRIAL_LIMIT = 10 ** 7      # largest trial divisor prime_factors tries
_BLOCK = 2 ** 18           # float64 entries per block of values_upto: 2 MiB, one L2


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (Eratosthenes over the odd numbers).

    flags[i] marks the odd number 2 i + 1 for i >= 1 and stands for the
    prime 2 at i = 0, so the sieve needs (n + 1) // 2 bytes.  n above
    HARD_LIMIT raises ResourceLimitError before anything is allocated."""
    if n > HARD_LIMIT:
        raise ResourceLimitError(
            f"primes up to {n} exceed the hard cap {HARD_LIMIT}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2::p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of the integer n >= 1, primes ascending.

    Trial division by 2 and then the odd numbers up to sqrt of the
    cofactor left; what remains above 1 is then prime.  A cofactor that
    would need a trial divisor above TRIAL_LIMIT (two prime factors above
    it, or one above its square) raises ResourceLimitError rather than
    being counted as one prime.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"n must be an integer >= 1, got {n!r}")
    x = int(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        if p > TRIAL_LIMIT:
            raise ResourceLimitError(
                f"factoring {n} needs trial divisors above {TRIAL_LIMIT}")
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if x > 1:
        out[x] = 1
    return out


def _squarefree_flags(limit: int, primes: np.ndarray) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in primes[primes <= math.isqrt(limit)]:
        flags[p * p::p * p] = False
    return flags


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Immutable prime and squarefree tables up to a limit.

    primes and squarefree are read-only arrays.  factor(n) is
    prime_factors(n) for n in [1, limit].
    """

    limit: int
    squarefree: np.ndarray
    primes: np.ndarray

    def __post_init__(self):
        self.squarefree.flags.writeable = False
        self.primes.flags.writeable = False

    def _in_range(self, n: int) -> int:
        n = int(n)
        if not 1 <= n <= self.limit:
            raise InvalidInputError(f"n must lie in [1, {self.limit}], got {n}")
        return n

    def factor(self, n: int) -> dict[int, int]:
        """Prime factorization {p: e}, primes ascending."""
        return prime_factors(self._in_range(n))

    def is_squarefree(self, n: int) -> bool:
        return bool(self.squarefree[self._in_range(n)])

    def prime_count(self, x: float) -> int:
        """pi(x) over the stored primes."""
        return int(np.searchsorted(self.primes, x, side="right"))


def build_table(limit: int, allow_large: bool = False) -> SieveTable:
    """Build the prime and squarefree tables up to limit.

    Limits above 10^7 need allow_large=True and are capped at 2*10^8.
    Nothing is segmented: the prime sieve's flags cover the odd numbers
    up to limit, (limit+1)/2 bytes, and the squarefree flags are a full
    limit+1 array.  At 2*10^8 the table holds 289 MB (200 MB of flags,
    89 MB of int64 primes) and building it peaks at 300 MB.
    """
    if limit < 2:
        raise InvalidInputError(f"limit must be >= 2, got {limit}")
    if limit > HARD_LIMIT:
        raise ResourceLimitError(
            f"limit {limit} exceeds the hard cap {HARD_LIMIT}")
    if limit > LARGE_LIMIT and not allow_large:
        raise ResourceLimitError(
            f"limit {limit} exceeds {LARGE_LIMIT}; pass allow_large=True")
    primes = primes_upto(limit)
    return SieveTable(limit=limit, squarefree=_squarefree_flags(limit, primes),
                      primes=primes)


@dataclass(frozen=True)
class MultFuncSpec:
    """A squarefree-supported multiplicative function.

    Kinds: threshold-weight (chi0 at primes <= y, chi1 beyond),
    coefficient-table (values at the primes of read-only sorted arrays
    ps and values, 0 at primes absent from ps) and moebius-quotient (the
    g with numerator = weight * g, so g(p) = numerator(p) - weight(p)).
    prime_values is the one definition of each kind's values at primes;
    the value at squarefree n is the product of the values at its prime
    factors, and non-squarefree n gives 0.  q is the default coprimality
    modulus: values at n with (n, q) > 1 are dropped by the summation
    operations.
    """

    kind: str
    y: int = 0
    chi0: float = 0.0
    chi1: float = 0.0
    ps: np.ndarray = field(default=(), compare=False)
    values: np.ndarray = field(default=(), compare=False)
    left: "MultFuncSpec | None" = None
    right: "MultFuncSpec | None" = None
    q: int = 1

    __eq__ = bounds.fields_equal

    @classmethod
    def threshold(cls, y: int, chi0: float, chi1: float, q: int = 1) -> "MultFuncSpec":
        if y < 2:
            raise InvalidInputError(f"threshold y must be >= 2, got {y}")
        return cls(kind="threshold-weight", y=int(y), chi0=float(chi0),
                   chi1=float(chi1), q=int(q))

    @classmethod
    def from_table(cls, values: Mapping[int, float], q: int = 1) -> "MultFuncSpec":
        """Coefficient table from a mapping prime -> value, held as the
        checked arrays of bounds.checked_coefficients."""
        primes = sorted(values)
        ps, vals = bounds.checked_coefficients(primes, [values[p] for p in primes])
        return cls(kind="coefficient-table", ps=ps, values=vals, q=int(q))

    @classmethod
    def moebius_quotient(cls, numerator: "MultFuncSpec", weight: "MultFuncSpec",
                         q: int = 1) -> "MultFuncSpec":
        return cls(kind="moebius-quotient", left=numerator, right=weight, q=int(q))

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        """Values at the primes ps (int64 array) as a float64 array."""
        ps = np.asarray(ps, dtype=np.int64)
        if self.kind == "threshold-weight":
            return np.where(ps <= self.y, self.chi0, self.chi1)
        if self.kind == "coefficient-table":
            idx = np.searchsorted(self.ps, ps)
            found = idx < self.ps.size
            found[found] = self.ps[idx[found]] == ps[found]
            out = np.zeros(ps.shape)
            out[found] = self.values[idx[found]]
            return out
        if self.kind == "moebius-quotient":
            return self.left.prime_values(ps) - self.right.prime_values(ps)
        raise InvalidInputError(f"unknown spec kind {self.kind!r}")

    def prime_value(self, p: int) -> float:
        return float(self.prime_values([p])[0])

    def prime_value_exact(self, p: int) -> Fraction:
        """The prime value as a rational; the quotient's difference is
        taken exactly rather than in float64."""
        if self.kind == "moebius-quotient":
            return self.left.prime_value_exact(p) - self.right.prime_value_exact(p)
        return Fraction(self.prime_value(p))

    def value(self, n: int, table: SieveTable) -> float:
        """Multiplicative value at n; 0 off the squarefree support."""
        if not table.is_squarefree(n):
            return 0.0
        factors = np.fromiter(table.factor(n), dtype=np.int64)
        return math.prod(self.prime_values(factors).tolist(), start=1.0)

    def value_exact(self, n: int, table: SieveTable) -> Fraction:
        if not table.is_squarefree(n):
            return Fraction(0)
        return math.prod(map(self.prime_value_exact, table.factor(n)),
                         start=Fraction(1))


def _coprimality_primes(q: int) -> list[int]:
    q = int(q)
    if q < 1:
        raise InvalidInputError(f"q must be >= 1, got {q}")
    return list(prime_factors(q))


def _checked_t(t: float, table: SieveTable) -> int:
    if not math.isfinite(t):
        raise InvalidInputError(f"t must lie in [1, {table.limit}], got {t}")
    t = int(t)
    if not 1 <= t <= table.limit:
        raise InvalidInputError(f"t must lie in [1, {table.limit}], got {t}")
    return t


def values_upto(spec: MultFuncSpec, t: float, q: int | None,
                table: SieveTable) -> np.ndarray:
    """Array v with v[n] = spec value at n for squarefree (n, q) = 1, else 0.

    v starts as the squarefree flags and every multiple of each prime p
    <= t is multiplied by the value at p, primes ascending: the same
    product, signed zeros included, as a loop over all primes.  The
    primes p <= sqrt(t) go first, one cache-sized block of _BLOCK entries
    at a time: the block takes its flags, then one strided multiply per
    prime from the first multiple of p in the block that is at least p,
    so v[0] is never multiplied.  A prime P > sqrt(t) divides n <= t at
    most once, and then n = j P with j <= isqrt(t): the primes of j are
    the primes <= sqrt(t) of n, and j is squarefree exactly when n is.
    So after the blocks v[j P] holds bit for bit the float v[j], and no
    large prime writes v[j].  The large primes go last, one cofactor j
    at a time: v[j * P] = v[j] * value(P) for all P <= t // j in one
    indexed write (the indices are distinct), the product v[j P] *
    value(P) without reading v[j P].  Where both factors are NaN it is
    v[j]'s NaN, as in the strided multiply of the per-prime loop.
    """
    t = _checked_t(t, table)
    q_primes = _coprimality_primes(spec.q if q is None else q)
    vals = np.empty(t + 1)
    ps = table.primes[:table.prime_count(t)]
    ws = spec.prime_values(ps)
    s = math.isqrt(t)
    k = table.prime_count(s)
    small = list(zip(ps[:k].tolist(), ws[:k].tolist()))
    for lo in range(0, t + 1, _BLOCK):
        blk = vals[lo:lo + _BLOCK]
        np.copyto(blk, table.squarefree[lo:lo + blk.size])
        for p, w in small:
            blk[max(p, -(-lo // p) * p) - lo::p] *= w
    big, big_ws = ps[k:], ws[k:]
    counts = np.searchsorted(big, t // np.arange(1, t // (s + 1) + 1), side="right")
    for j, n in enumerate(counts.tolist(), start=1):
        vals[j * big[:n]] = vals[j] * big_ws[:n]
    for p in q_primes:
        if p <= t:
            vals[p::p] = 0.0
    return vals


def h_sum(spec: MultFuncSpec, t: float, q: int | None, table: SieveTable) -> float:
    """Exact sum of spec values over squarefree n <= t with (n, q) = 1."""
    return float(np.sum(values_upto(spec, t, q, table)))


def log_weighted_sum(spec: MultFuncSpec, x: float, q: int | None,
                     table: SieveTable) -> float:
    """Sum of value(n) * log(x/n) over n <= x, computed two ways.

    The direct sum and the exact piecewise-constant integral of H(t)/t
    must agree to 1e-9 relative; disagreement raises CrossCheckError.
    """
    if not (math.isfinite(x) and x >= 1.0):
        raise InvalidInputError(f"x must be finite and >= 1, got {x}")
    if x == 1.0:
        return 0.0
    m = int(x)
    vals = values_upto(spec, m, q, table)
    logs = np.log(np.arange(1, m + 1, dtype=np.float64))   # log n, n = 1..m
    direct = float(np.dot(vals[1:], math.log(x) - logs))

    H = np.cumsum(vals)
    integral = float(np.dot(H[1:m], np.diff(logs)))   # log((k+1)/k), k = 1..m-1
    integral += float(H[m]) * (math.log(x) - math.log(m))

    scale = max(abs(direct), abs(integral), 1.0)
    if abs(direct - integral) > 1e-9 * scale:
        raise CrossCheckError(
            f"log-weighted sum routes disagree: {direct} vs {integral}")
    return direct


def _divisors(n: int, table: SieveTable) -> list[int]:
    divs = [1]
    for p, e in table.factor(n).items():
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in divs)
        divs.extend(new)
    return divs


def dirichlet_convolve(left: MultFuncSpec, right: MultFuncSpec, n: int,
                       table: SieveTable) -> Fraction:
    """Exact divisor-sum convolution sum_{d|n} left(d) * right(n/d)."""
    n = int(n)
    total = Fraction(0)
    for d in _divisors(n, table):
        total += left.value_exact(d, table) * right.value_exact(n // d, table)
    return total


def moebius_factor(b: MultFuncSpec, h: MultFuncSpec, n: int,
                   table: SieveTable) -> Fraction:
    """g(n) with b = h * g (Dirichlet); at primes g(p) = b(p) - h(p)."""
    if not table.is_squarefree(n):
        raise InvalidInputError(f"n must be squarefree, got {n}")
    return MultFuncSpec.moebius_quotient(b, h).value_exact(n, table)


def euler_constant_c(a: int, truncation: int) -> tuple[float, float]:
    """Truncated Euler product c(a) and a bound on its log tail.

    With T = truncation, returns c_T(a) = (phi(a)/a)^2 * prod_{p not
    dividing a, p <= T} (1 - 1/p)^2 (1 + 2/p) and the tail bound 3/T:
    |log c(a) - log c_T(a)| < 3/T for the infinite product c(a)
    (floating-point rounding of c_T(a) not counted).

    Proof.  (1 - 1/p)^2 (1 + 2/p) = 1 - 3/p^2 + 2/p^3 lies in (0, 1), so
    each omitted log factor is -log(1 - 3/p^2 + 2/p^3) > 0.  For p >= 3,
    e^{-s} < 1 - s + s^2/2 at s = 3/p^2 gives e^{-3/p^2} < 1 - 3/p^2 +
    9/(2 p^4) <= 1 - 3/p^2 + 2/p^3 (since p >= 9/4), so the factor is below
    3/p^2; for p = 2 it is log 2 < 3/4 = 3/p^2, as e^{3/4} > 1 + 3/4 +
    9/32 > 2.  Summing over the omitted primes p > T, a subset of the
    integers n > T: sum_{n > T} 3/n^2 < 3 * integral_T^inf dx/x^2 = 3/T,
    since 1/n^2 < integral_{n-1}^n dx/x^2.
    """
    if a < 1:
        raise InvalidInputError(f"a must be >= 1, got {a}")
    if truncation < 10 ** 3:
        raise InvalidInputError(f"truncation must be >= 10^3, got {truncation}")
    a_primes = prime_factors(a)
    ps = primes_upto(truncation)
    val = 1.0
    for p in a_primes:
        val *= (1.0 - 1.0 / p) ** 2
    mask = np.ones(ps.size, dtype=bool)
    for p in a_primes:
        mask &= ps != p
    psf = ps[mask].astype(np.float64)
    log_prod = float(np.sum(2.0 * np.log1p(-1.0 / psf) + np.log1p(2.0 / psf)))
    return val * math.exp(log_prod), 3.0 / truncation


def euler_constant_c_exact(a: int, truncation: int) -> Fraction:
    """c(a) as an exact rational of the truncated product (small truncations)."""
    if a < 1:
        raise InvalidInputError(f"a must be >= 1, got {a}")
    a_primes = prime_factors(a)
    ps = primes_upto(truncation)
    val = Fraction(1)
    for p in a_primes:
        val *= Fraction(p - 1, p) ** 2
    for p in ps.tolist():
        if p in a_primes:
            continue
        val *= Fraction(p - 1, p) ** 2 * Fraction(p + 2, p)
    return val


def asymptotic_report(y: int, u_grid: list[float], q: int,
                      weights: tuple[float, float], table: SieveTable,
                      c_truncation: int = 10 ** 6) -> list[dict]:
    """Exact H(y^u) against the mean-value prediction c(q)*sigma(u)*log(y)*y^u.

    Report-only: the error term of the asymptotic carries no rate, so the
    rows record the relative error without asserting a bound.
    """
    if y < 2:
        raise InvalidInputError(f"y must be >= 2, got {y}")
    if q < 1:
        raise InvalidInputError(f"q must be >= 1, got {q}")
    bad_u = [u for u in u_grid if not u >= 0]
    if bad_u:
        raise InvalidInputError(
            f"u must be >= 0, got u = {bad_u[0]} in the grid {u_grid}")
    chi0, chi1 = weights
    u_max = max(u_grid)
    if y ** u_max > table.limit:
        raise InvalidInputError(
            f"y^max(u) = {y ** u_max:.0f} exceeds table limit {table.limit}")
    spec = MultFuncSpec.threshold(y, chi0, chi1, q=q)
    c_q, _ = euler_constant_c(q, c_truncation)
    sol = dde.solve(dde.DdeSpec(chi0, chi1), max(u_max, 1.0), 1e-4)
    ts = [_checked_t(y ** u, table) for u in u_grid]
    # one fill at the largest t: its prefixes are the arrays of the smaller t
    vals = values_upto(spec, max(ts), q, table)
    rows = []
    for u, t in zip(u_grid, ts):
        exact = float(np.sum(vals[:t + 1]))
        sigma_u = sol.at(u) if u > 0 else 0.0
        predicted = c_q * sigma_u * math.log(y) * (y ** u)
        rel = abs(exact - predicted) / abs(predicted) if predicted != 0 else math.inf
        rows.append({"y": y, "u": u, "exact": exact,
                     "predicted": predicted, "rel_error": rel})
    return rows


def _partial_sums(base: np.ndarray, primes, length: int) -> np.ndarray:
    """H_r(t) for t < length: the running sum of base[:length] with the
    multiples of each prime of r zeroed."""
    vals = base[:length].copy()
    for p in primes:
        vals[p::p] = 0.0
    return np.cumsum(vals, out=vals)


def _sweep_margin(base: np.ndarray, ws: np.ndarray, z: int) -> float:
    """The margin M of lower_bound_check, or inf where the values ws of h
    leave the range in which it is proven."""
    k = z.bit_length()            # > log2 z >= the prime factors of any n <= z
    nonzero = np.abs(ws[ws != 0])
    if not np.all(np.isfinite(nonzero)):
        return math.inf
    w_max = float(np.max(nonzero, initial=1.0))      # W of the proof
    w_min = float(np.min(nonzero, initial=1.0))
    if (k + 1) * math.log2(w_max) > 900 or k * math.log2(w_min) < -900:
        return math.inf
    gamma = z * 2.0 ** -53 / (1 - z * 2.0 ** -53)
    return 9 * w_max * gamma * float(np.sum(np.abs(base))) + 2.0 ** -1074


def _children_minima(base: np.ndarray, s_primes: tuple, Ps: np.ndarray,
                     Ws: np.ndarray, z: int) -> np.ndarray:
    """min over 1 <= t <= z of the Buchstab estimate R_r(t) for each child
    r = s P of the parent s: P in Ps (ascending, above the primes of s)
    with h(P) in Ws.  See lower_bound_check."""
    H = _partial_sums(base, s_primes, z + 1)
    M = z // Ps
    # Ps ascends, so the children with P <= sqrt(z), and those with a
    # full block (2 P <= z), are prefixes
    n_small = int(np.searchsorted(Ps, math.isqrt(z), side="right"))
    n_full = int(np.searchsorted(Ps, z // 2, side="right"))
    # two buffers: prefix and suffix minima of H_s first, then the levels
    bufs = (np.empty(z + 1), np.empty(z + 1))
    # t < P, where R_r(t) = H_s(t)
    top = int(Ps[-1])
    est = np.minimum.accumulate(H[1:top], out=bufs[0][1:top])[Ps - 2]
    # the last block [M P, z], for P > sqrt(z) from suffix minima, with the
    # factor H_r(M) = H_s(M) as M < P
    suffix = np.minimum.accumulate(H[::-1], out=bufs[1][::-1])[::-1]
    big = slice(n_small, None)
    est[big] = np.minimum(
        est[big], suffix[M[big] * Ps[big]] - Ws[big] * H[M[big]])
    # the full blocks [m P, m P + P - 1], 0 < m < M: each is the union of
    # the two windows of width 2^k = 2^floor(log2 P) at its ends, and
    # level[i] = min H_s[i : i + 2^k] is built one k at a time, the two
    # buffers alternating
    level, n = H, z + 1
    for k in range(1, int(Ps[n_full - 1]).bit_length() if n_full else 1):
        width = 1 << k
        n -= width // 2
        level = np.minimum(level[:n], level[width // 2:width // 2 + n],
                           out=bufs[k % 2][:n])
        lo, hi = np.searchsorted(Ps, (width, 2 * width))
        # P <= sqrt(z): H_r(m), m <= M, from the partial sums of r
        for i in range(lo, min(hi, n_small)):
            p, w, m = int(Ps[i]), Ws[i], int(M[i])
            X = _partial_sums(base, s_primes + (p,), m + 1)
            blocks = np.minimum(level[p:m * p:p], level[2 * p - width::p][:m - 1])
            blocks -= w * X[1:m]
            # a NaN dropped by min leaves est[i] finite, below the
            # margin inf that a NaN in h forces
            est[i] = min(est[i], blocks.min(), H[m * p:].min() - w * X[m])
        # P > sqrt(z): H_r(m) = H_s(m), all blocks of the level at once
        lo, hi = max(lo, n_small), min(hi, n_full)
        if lo < hi:
            counts = M[lo:hi] - 1
            first = np.cumsum(counts) - counts
            owner = np.repeat(np.arange(lo, hi), counts)
            m = np.arange(owner.size) - first[owner - lo] + 1
            starts = Ps[owner] * m
            blocks = np.minimum(level[starts], level[starts + (Ps[owner] - width)])
            blocks -= Ws[owner] * H[m]
            est[lo:hi] = np.minimum(est[lo:hi], np.minimum.reduceat(blocks, first))
    return est


def _first_negative_modulus(base: np.ndarray, ps: np.ndarray, ws: np.ndarray,
                            z: int) -> int | None:
    """The smallest squarefree r <= z coprime to q with some H_r(t) < 0,
    or None; base is values_upto(h, z, q), ps the primes <= z coprime to
    q and ws the values of h there.  See lower_bound_check."""
    if _partial_sums(base, (), z + 1)[1:].min() < 0:
        return 1
    margin = _sweep_margin(base, ws, z)
    best = z + 1
    parents = [(1, ())]
    while parents:
        s, s_primes = heapq.heappop(parents)
        if s >= best:
            break
        lo = int(np.searchsorted(ps, s_primes[-1], side="right")) if s_primes else 0
        hi = int(np.searchsorted(ps, (best - 1) // s, side="right"))
        if lo >= hi:
            continue
        Ps = ps[lo:hi]
        est = _children_minima(base, s_primes, Ps, ws[lo:hi], z)
        # not est >= margin: a NaN estimate (NaN in H_s) is no proof
        for i in np.flatnonzero(~(est >= margin)).tolist():
            r_primes = s_primes + (int(Ps[i]),)
            if (est[i] < -margin
                    or _partial_sums(base, r_primes, z + 1)[1:].min() < 0):
                best = s * r_primes[-1]
                break
        # the children r = s P that are parents: r P' < best for the next
        # prime P' after P
        top = int(np.searchsorted(ps, math.isqrt(best // s), side="right")) + 1
        for p, p_next in zip(ps[lo:top].tolist(), ps[lo + 1:top + 1].tolist()):
            if s * p * p_next >= best:
                break
            heapq.heappush(parents, (s * p, s_primes + (p,)))
    return best if best <= z else None


def lower_bound_check(b: MultFuncSpec, h: MultFuncSpec, z: float, q: int,
                      table: SieveTable) -> bool:
    """Check S(z) >= sum of h(n) log(z/n) after verifying the preconditions.

    Preconditions (verified exactly, violations raise PreconditionError
    with a witness): g = b/h has g(p) >= 0 for all primes p <= z with p
    coprime to q, and the partial sums of h stay nonnegative for every
    coprimality modulus r*q with r <= z.  The partial sums are those of
    v = values_upto(h, z, q): H_r(t) = v[0] + ... + v[t] added in order
    in float64, with v[n] taken as 0 where (n, r) > 1.  The witness is
    (t, r) for the smallest squarefree r with min_t H_r(t) < 0 and the
    first t of that minimum, as an r-by-r scan would report it.  A prime
    of r that divides q changes nothing, so only r coprime to q are swept.

    Sweep.  Each such r > 1 is s P with P its largest prime, and in exact
    arithmetic the Buchstab identity H_r(t) = H_s(t) - h(P) H_r(floor(t/P))
    holds, as the squarefree n coprime to s and divisible by P are the P m
    with m squarefree and (m, r) = 1.  So H_r is H_s minus a constant on
    each block [m P, m P + P - 1], and min_t H_r(t) = min over m of (min of
    H_s over block m) - h(P) H_r(m), with H_r(0) = 0.  For P > sqrt(z),
    m <= z/P < P and H_r(m) = H_s(m); for P <= sqrt(z), H_r(m) is summed
    up to z // P.  The parents s (those with a child s P <= z) are visited
    in ascending order from a heap, each with H_s in full and the block
    minima of all its children from a doubling table of H_s built one
    level at a time: O(z log z) per parent, against O(z) per r for the
    scan.  Early exit: once s is at or above the smallest failing r
    found, every r left is larger.  In float64 the minimum over the
    blocks is an estimate R_r of min_t H_r(t) within a margin M (below):
    R_r >= M passes r, R_r < -M fails it, and r in between, or with R_r
    NaN (a NaN in H_s), takes its own partial sums.  The witness t is read
    off the partial sums of the failing r.

    Margin.  Let u = 2^-53, gamma = z u / (1 - z u), A = sum |v[n]|,
    W = max(1, |h(p)|) over the primes p <= z coprime to q, and
    K = bit_length(z) > the number of prime factors of any n <= z.  If
    every nonzero |h(p)| lies in [2^(-900/K), 2^(900/(K+1))], then
    |R_r(t) - H_r(t)| <= 8.01 W gamma A + 2^-1074 for every t, and M is
    9 W gamma A + 2^-1074 (its own few roundings stay inside the 9);
    otherwise M = inf and every r takes its own partial sums.  Proof.
    Let D_r(t) be the exact sum of the same floats v[n].  (a) A float
    sum of t + 1 terms added in order is within gamma_t <= gamma times the
    sum of their magnitudes, so |H_r(t) - D_r(t)| <= gamma A.  (b)
    values_upto multiplies the prime values of n in ascending order from
    1.0 (for n = j P with P > sqrt(z), v[n] = fl(v[j] h(P)) is the last
    step of that chain of roundings); every partial product lies between
    2^-900 and 2^900 or is 0, so nothing underflows or overflows and
    v[n] = e(n) (1 + theta) with |theta| <= gamma, e(n) the exact
    product.  Then |v[P m] - h(P) v[m]| <= 2 gamma |e(P m)| <= 2.001
    gamma |v[P m]|, and summing over m' <= m with (m', r) = 1, D_s(t) -
    D_r(t) = h(P) D_r(m) + E with |E| <= 2.001 gamma A.  (c) R_r(t) = fl(H_s(t) - fl(h(P) x)) with x = H_r(m) as
    summed, so |x - D_r(m)| <= gamma A by (a) and |x| <= (1 + gamma) A.
    The product's rounding costs at most u W (1 + gamma) A + 2^-1075
    (underflow), W |x - D_r(m)| <= W gamma A, and the subtraction (exact
    if subnormal) at most u (1 + gamma) (1 + W (1 + u)) A.  Adding (a)
    for H_s(t) and for H_r(t), E, and these gives at most
    (5.002 + 3.004 W) gamma A + 2^-1074 <= 8.01 W gamma A + 2^-1074,
    since u <= gamma <= 2^-24 for z <= 2^28.  The estimate is exactly
    min_t R_r(t): min is exact, and fl(a - c) is nondecreasing in a, so
    subtracting after the block minimum gives the minimum of the
    differences.  Hence min_t H_r(t) >= R_r - M >= 0 when R_r >= M, and
    H_r(t) <= R_r + M < 0 at the argmin when R_r < -M.
    """
    if not (math.isfinite(z) and 2 <= int(z) <= table.limit):
        raise InvalidInputError(f"z must lie in [2, {table.limit}], got {z}")
    z_int = int(z)
    ps = table.primes[table.primes <= z_int]
    ps = ps[~np.isin(ps, _coprimality_primes(q))]
    b_ps, h_ps = b.prime_values(ps), h.prime_values(ps)
    bad = np.flatnonzero(b_ps - h_ps < 0)
    if bad.size:
        i = bad[0]
        p = int(ps[i])
        raise PreconditionError(
            f"g(p) < 0 at p = {p}: b(p) = {float(b_ps[i])}, "
            f"h(p) = {float(h_ps[i])}", witness=("g", p))

    base = values_upto(h, z_int, q, table)
    r = _first_negative_modulus(base, ps, h_ps, z_int)
    if r is not None:
        H = _partial_sums(base, table.factor(r), z_int + 1)
        worst = int(np.argmin(H[1:])) + 1
        raise PreconditionError(
            f"partial sum of h negative at t = {worst} for r = {r}",
            witness=(worst, r))

    lhs = log_weighted_sum(b, z, q, table)
    rhs = log_weighted_sum(h, z, q, table)
    return lhs >= rhs - 1e-9 * max(1.0, abs(lhs), abs(rhs))


def local_factor_coeffs(a1: float, a2: float, p: int, order: int = 6) -> list[Fraction]:
    """Power-series coefficients of the auxiliary local Euler factor.

    Expands (1 - a1 x + a1 x^2 - x^3)(1 - a2 x + a2 x^2 - x^3)(1 + (a1+a2) x)
    in x = p^{-s}, exactly.  The x^1 coefficient cancels identically and
    the x^2 coefficient is a1*a2 + a1 + a2 - (a1+a2)^2.
    """
    if order < 0 or order > 6:
        raise InvalidInputError(f"order must lie in [0, 6], got {order}")
    if p < 2:
        raise InvalidInputError(f"p must be a prime >= 2, got {p}")
    f1 = Fraction(a1)
    f2 = Fraction(a2)
    poly1 = [Fraction(1), -f1, f1, Fraction(-1)]
    poly2 = [Fraction(1), -f2, f2, Fraction(-1)]
    poly3 = [Fraction(1), f1 + f2]
    prod = _poly_mul(_poly_mul(poly1, poly2), poly3)
    prod += [Fraction(0)] * (order + 1 - len(prod))
    return prod[:order + 1]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out
