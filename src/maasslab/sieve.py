"""Brute-force laboratory for squarefree-supported multiplicative functions.

Threshold weights h (chi0 on primes up to a cutoff y, chi1 beyond),
coefficient tables, Dirichlet convolutions and their Moebius
inversions, the values up to t, the partial sums H(t), the log-weighted
sums, the Euler product constant c(a), and the local factor of the
auxiliary Euler product whose x^1 coefficient cancels identically.
The values, the log-weighted sums, the convolutions and the positivity
check read a prime and squarefree table (SieveTable); H(t) reads none.

Convolution identities are evaluated in exact rational arithmetic
(Fraction).  values_upto enumerates the values in float64.  H(t) needs
no table: the prime-counting recursion runs from sums over the primes,
which come from prime counts at the points floor(t/k), themselves from
the same recursion seeded with the primes up to sqrt(t), so nothing is
sieved up to t; it is exact for the integer-valued weights and sizes
handled here (h_sum states the bound).  The recursion carries the
log-weighted sums from x = 5*10^4 on, from running sums over the
table's primes (log_weighted_sum states their bound); below that they
are read off the values."""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import bounds, dde
from .errors import (CrossCheckError, InvalidInputError, PreconditionError,
                     ResourceLimitError)

HARD_LIMIT = 2 * 10 ** 8
TRIAL_LIMIT = 10 ** 7      # largest trial divisor prime_factors tries
C_TRUNCATION = 10 ** 6     # truncation of c(q) in asymptotic_report
_CHUNK = 2 ** 16           # primes per chunk of the running prime sums of
                           # h_sum and log_weighted_sum
_LOG_RECURSION = 5 * 10 ** 4   # x from which log_weighted_sum takes the prime sums;
                               # below it the value array is faster


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


def build_table(limit: int) -> SieveTable:
    """Build the prime and squarefree tables up to limit, 2 <= limit.

    Nothing is segmented: the prime sieve's flags cover the odd numbers
    up to limit, (limit+1)/2 bytes, and the squarefree flags are a full
    limit+1 array.  primes_upto caps limit at HARD_LIMIT = 2*10^8 before
    anything is allocated; there the table holds 289 MB (200 MB of
    flags, 89 MB of int64 primes) and building it peaks at 300 MB.
    """
    if limit < 2:
        raise InvalidInputError(f"limit must be >= 2, got {limit}")
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
    operations.  Any other kind raises InvalidInputError at construction.
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

    def __post_init__(self):
        if self.kind not in ("threshold-weight", "coefficient-table",
                             "moebius-quotient"):
            raise InvalidInputError(f"unknown spec kind {self.kind!r}")

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
            idx, found = bounds.positions(self.ps, ps)
            out = np.zeros(ps.shape)
            out[found] = self.values[idx[found]]
            return out
        # moebius-quotient: __post_init__ admits no other kind
        return self.left.prime_values(ps) - self.right.prime_values(ps)

    def _steps(self) -> tuple[list[int], list[float]]:
        """(ys, cs), ys ascending: the value at a prime p that is no key of
        a coefficient table is cs[j] for ys[j - 1] < p <= ys[j], and cs[-1]
        above ys[-1], each as prime_values gives it."""
        if self.kind == "threshold-weight":
            return [self.y], [self.chi0, self.chi1]
        if self.kind == "coefficient-table":
            return [], [0.0]
        # moebius-quotient
        (ly, lc), (ry, rc) = self.left._steps(), self.right._steps()
        ys = sorted({*ly, *ry})
        # a point of each interval: its right end, and one past the last y
        ends = [*ys, ys[-1] + 1] if ys else [2]
        return ys, [lc[bisect.bisect_left(ly, x)] - rc[bisect.bisect_left(ry, x)]
                    for x in ends]

    def _keys(self) -> np.ndarray:
        """The keys of the spec's coefficient tables, ascending (int64)."""
        if self.kind == "coefficient-table":
            return self.ps
        if self.kind == "moebius-quotient":
            return np.union1d(self.left._keys(), self.right._keys())
        return np.empty(0, dtype=np.int64)

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


def _checked_t(t: float, table: SieveTable | None) -> int:
    """int(t) for t in [1, the table's limit]; with no table, t above
    HARD_LIMIT raises ResourceLimitError."""
    if table is None and math.isfinite(t) and int(t) > HARD_LIMIT:
        raise ResourceLimitError(f"t = {t} exceeds the hard cap {HARD_LIMIT}")
    limit = HARD_LIMIT if table is None else table.limit
    if not (math.isfinite(t) and 1 <= int(t) <= limit):
        raise InvalidInputError(f"t must lie in [1, {limit}], got {t}")
    return int(t)


def values_upto(spec: MultFuncSpec, t: float, q: int | None,
                table: SieveTable) -> np.ndarray:
    """Array v with v[n] = spec value at n for squarefree (n, q) = 1, else 0.

    Every entry is the product, signed zeros and NaNs included, that a
    loop over all primes p <= t gives when it multiplies each multiple of
    p by the value at p, primes ascending, and then sets the multiples of
    the primes of q to 0.0.  One pass over v[0..t] takes four steps.  (4)
    sets the multiples of the primes of q to 0.0 whatever (1)-(3) left
    there, so only n coprime to q need the proof.  (1) v takes the
    squarefree flags.  (2) One strided multiply per prime p <= sqrt(t)
    that does not divide q, from v[p] on, so v[0] is never multiplied.
    (3) A prime P > sqrt(t) divides n <= t at most once and is its largest
    prime, so after (2) v[n] holds the product of the loop up to P, and
    one np.multiply.at over all such n = j P (distinct, j <= t // P)
    multiplies v[n] by value(P) in place, element by element as the
    strided multiply does: where both are NaN it keeps v[n]'s, which
    numpy's contiguous multiply does not promise.  h_sum does not read
    these values; the sum of v[:t + 1] is its brute-force oracle.
    """
    t = _checked_t(t, table)
    q_primes = _coprimality_primes(spec.q if q is None else q)
    ps = table.primes[:table.prime_count(t)]
    ws = spec.prime_values(ps)
    k = table.prime_count(math.isqrt(t))
    vals = table.squarefree[:t + 1].astype(np.float64)
    for p, w in zip(ps[:k].tolist(), ws[:k].tolist()):
        if p not in q_primes:       # (4) zeroes the multiples of p
            vals[p::p] *= w
    m = t // ps[k:]                 # the cofactors j <= m of each P > sqrt(t)
    j = np.arange(1, m.sum() + 1)
    j -= np.repeat(np.cumsum(m) - m, m)     # j runs over 1..m for each P
    np.multiply.at(vals, np.repeat(ps[k:], m) * j, np.repeat(ws[k:], m))
    for p in q_primes:
        vals[p::p] = 0.0
    return vals


def _upto_sqrt(seed: np.ndarray, t: int) -> np.ndarray:
    return seed[:int(np.searchsorted(seed, math.isqrt(t), side="right"))]


def _points(t: int) -> np.ndarray:
    """V = (t // 1, ..., t // s, s, s - 1, ..., 1), s = isqrt(t): the
    points floor(t/k) descending, so that the v >= p^2 are a prefix, and
    u <= s at position 2 s - u."""
    s = math.isqrt(t)
    return np.concatenate((t // np.arange(1, s + 1), np.arange(s, 0, -1)))


def _sources(V: np.ndarray, ps: np.ndarray) -> list[np.ndarray]:
    """For each prime p of ps, all up to s = isqrt(t): the positions in V =
    _points(t) of floor(v/p) for the v >= p^2, which are V[:n], n the
    length."""
    t, s = int(V[0]), V.size // 2
    out = []
    for p in ps.tolist():
        # the v >= p^2 are t // k for k <= k_max and s, ..., p^2; u =
        # floor(v / p) is t // (k p) at a = k p - 1 for k p <= s, and
        # otherwise u <= s at a = 2 s - u
        k_max = min(s, t // (p * p))
        k_mid = min(k_max, s // p)
        n = k_max + max(0, s - p * p + 1)
        out.append(np.concatenate((np.arange(p - 1, k_mid * p, p),
                                   2 * s - V[k_mid:n] // p)))
    return out


def _prime_counts(V: np.ndarray, srcs: list[np.ndarray]) -> np.ndarray:
    """pi(v) at the points V = _points(t), srcs = _sources(V, the primes
    up to sqrt(t)), by Lucy's form of the prime-counting recursion
    (Lagarias, Miller and Odlyzko 1985; Deleglise and Rivat 1996).  S[v]
    = v - 1 first; for the i-th prime p (i = 0, 1, ...), ascending, S[v]
    -= S[floor(v/p)] - i for every v in V with v >= p^2, all right-hand
    sides read before any write.  After the primes up to p, S[v] counts
    the n in [2, v] that are prime or have no prime factor up to p: the
    step removes the n = p m with m in [p, v/p] free of primes below p,
    which S[floor(v/p)] counts together with the i primes below p.  Every
    entry is a count up to t, so the int64 rows are exact.  Cost: about
    t^(3/4) / log t vectorised updates, and no sieve up to t."""
    S = V - 1
    for i, src in enumerate(srcs):
        S[:src.size] -= S[src] - i
    return S


def _prime_count(x: int, seed: np.ndarray) -> int:
    """pi(x), seed holding the primes up to at least sqrt(x)."""
    V = _points(x)
    return int(_prime_counts(V, _sources(V, _upto_sqrt(seed, x)))[0])


def _prime_mask(ns: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Which of the ascending integers ns are prime, by trial division by
    seed, the primes up to at least sqrt(max(ns))."""
    mask = ns >= 2
    for p in seed.tolist():
        lo = int(np.searchsorted(ns, p * p))
        if lo == ns.size:
            break
        mask[lo:] &= ns[lo:] % p != 0
    return mask


def _prime_value_sums(spec: MultFuncSpec, V: np.ndarray, pi: np.ndarray,
                      q_primes: list[int], seed: np.ndarray) -> np.ndarray | None:
    """G(v) of h_sum at the points V = _points(t) from pi = pi(V): the sum
    of value(p) over the primes p <= v not dividing q, or None if value(p)
    is NaN or infinite at such a p <= t.  seed holds the primes up to at
    least sqrt(t).  The prime keys' sum comes first, then each interval's
    value times its count of the other primes (see h_sum)."""
    t = int(V[0])
    keys = spec._keys()
    keys = keys[:int(np.searchsorted(keys, t, side="right"))]
    keys = keys[_prime_mask(keys, seed)]
    G_keys, first_bad = _prime_sums(spec, keys, q_primes)
    if t >= first_bad:
        return None
    G = G_keys[np.searchsorted(keys, V, side="right")]
    q_apart = [p for p in q_primes if p not in keys]

    def others(x, pi_x):
        """pi(x) less the prime keys and the primes of q up to x."""
        return (pi_x - np.searchsorted(keys, x, side="right")
                - np.searchsorted(q_apart, x, side="right"))
    count = others(V, pi)
    below = 0
    ys, cs = spec._steps()
    for y, c in zip([*ys, t], cs):
        upto = count if y >= t else np.minimum(count, others(y, _prime_count(y, seed)))
        n = upto - below
        if not math.isfinite(c):
            if n[0]:                    # a prime up to t takes c
                return None
        else:
            G += c * n
        below = upto
    return G


def _prime_sums(spec: MultFuncSpec, ps: np.ndarray, q_primes: list[int],
                log_p: bool = False) -> tuple[np.ndarray, float]:
    """(G, first_bad): G[i] the sum of the values at the first i primes
    of ps (ascending), 0.0 at the primes of q, up to the first NaN or
    infinite value, which is at the prime first_bad (inf if none).  With
    log_p, each value is first multiplied by log p: the sums GL of
    log_weighted_sum.

    The running sum s (s_i = fl(s_(i-1) + x_i), in order) plus the
    running sum of its rounding errors, each found exactly by TwoSum:
    Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 2005) on every
    prefix, so |G[i] - sum x[:i]| <= u |sum x[:i]| + gamma_(i-1)^2
    sum |x[:i]| (their Prop. 4.5), u = 2^-53.  It runs over _CHUNK
    primes at a time, carrying both running sums."""
    n = ps.size
    q_arr = np.array(q_primes, dtype=np.int64)
    G = np.empty(n + 1)
    G[0] = s_last = c_last = 0.0
    for lo in range(0, n, _CHUNK):
        chunk = ps[lo:lo + _CHUNK]
        x = spec.prime_values(chunk)
        idx, found = bounds.positions(chunk, q_arr)
        x[idx[found]] = 0.0
        if log_p:
            x *= np.log(chunk)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            x = x[:bad[0]]
        run = np.empty(x.size + 1)
        run[0] = s_last
        run[1:] = x
        np.cumsum(run, out=run)
        a, s = run[:-1], run[1:]
        err = np.empty(x.size + 1)
        err[0] = c_last
        e = err[1:]
        np.subtract(s, a, out=e)        # TwoSum(a, x) = (s, e): bb = s - a
        x -= e                          # x - bb
        np.subtract(s, e, out=e)
        np.subtract(a, e, out=e)        # a - (s - bb)
        e += x
        np.cumsum(err, out=err)
        np.add(s, e, out=G[lo + 1:lo + 1 + x.size])
        s_last, c_last = run[-1], err[-1]
        if bad.size:
            return G[:lo + 1 + x.size], int(chunk[bad[0]])
    return G, math.inf


def _prime_recursion(V: np.ndarray, srcs: list[np.ndarray], ps: np.ndarray,
                     ws: np.ndarray, G: np.ndarray, q_primes: list[int],
                     GL: np.ndarray | None = None) -> list[float]:
    """[R_H[t]] of h_sum's recursion, and with GL (the sums of value(p)
    log p) [R_H[t], R_L[t]] of log_weighted_sum's: one pass over the
    primes carries both rows.  Each row R holds R[v] at R[a] for the
    points v = V[a] of V = _points(t); ps are the primes up to sqrt(t),
    srcs their _sources, ws the values there, and G and GL the prime sums
    at V."""
    s = V.size // 2
    H = G.copy()
    if GL is not None:
        log_v = np.log(V)
        L = H * log_v - GL
    for i in range(len(srcs) - 1, -1, -1):
        p = int(ps[i])
        if p in q_primes:
            continue
        src = srcs[i]
        n = src.size
        w, g = float(ws[i]), float(G[2 * s - p])        # G(p)
        # every right-hand side reads the rows as they were before this p
        dH = H[src] - g
        H[:n] += w * dH
        if GL is None:
            continue
        pu = V[src] * p
        L[:n] += w * ((L[src] - (g * log_v[src] - float(GL[2 * s - p])))
                      + np.log1p((V[:n] - pu) / pu) * dH)
    return [float(H[0])] if GL is None else [float(H[0]), float(L[0])]


def h_sum(spec: MultFuncSpec, t: float, q: int | None) -> float:
    """H(t): the sum of spec values over squarefree n <= t with (n, q) = 1.

    No value at a composite n is formed, and nothing is sieved up to t.
    With G(v) the sum of value(p) over the primes p <= v not dividing q,
    and R = G on V = {floor(t/k) : k >= 1}, at most 2 sqrt(t) points, each
    prime p <= sqrt(t) not dividing q, descending, makes R[v] += value(p)
    * (R[floor(v/p)] - G(p)) for every v in V with v >= p^2, all
    right-hand sides read before any write; then H(t) = 1 + R[t] (the
    recursion of prime counting: Lagarias, Miller and Odlyzko 1985;
    Deleglise and Rivat 1996).  After the primes above p, R[v] is the sum
    over the n in [2, v] that are primes or have all prime factors above
    p, since such a composite is at least the square of its least prime;
    the step adds the n = p m with m a prime above p or such a composite,
    m <= v/p.  G on V comes from pi on V (_prime_counts, the same
    recursion on counts, seeded with the primes up to sqrt(t)): on each
    interval of spec._steps() every prime that is no table key takes one
    value c_j, so G(v) is G_K(v), the compensated sum over the prime keys
    up to v (_prime_sums), plus fl(c_j n_j(v)) for each interval in turn,
    n_j(v) the count of its primes up to v that are no key and do not
    divide q (_prime_value_sums).  Cost: about t^(3/4) / log t vectorised
    updates for pi and as many for R, plus the keys' sum.

    H~(t).  Both bounds below use H~(t), the same recursion run in exact
    arithmetic on |value(p)| with the subtraction made an addition.
    Expanded, R[t] is a signed sum over paths: a product of step values
    value(p_1) ... value(p_j), p_1 < ... < p_j, times one G(x); H~(t) - 1
    is the sum of |value(p_1) ... value(p_j)| G~(x) over the same paths,
    G~(x) the sum of |value(p)| over the primes p <= x not dividing q.
    Expanded once more, H~(t) - 1 adds |f(m) value(p')| for pairs of a
    squarefree m = p_1 ... p_j and a prime p' <= x of G~(x), with m p'
    <= t; the chain fixes the path up to the choice of G(floor(t/m)) or
    G(p_j), so a pair occurs at most twice and H~(t) <= 1 + 2 S(t), S(t)
    the sum of |f(m) value(p)| over the squarefree m and primes p with
    m p <= t, both coprime to q.

    Exactness.  The counts are integers below t.  Every other exact
    intermediate (a product c_j n_j(v) and each partial sum of a G(v), a
    step of _prime_sums, an R[v], a difference, a product) is a signed
    sum of some of the terms that H~(t) - 1 adds up in absolute value, so
    it is at most H~(t) - 1 in magnitude.  For integer values with H~(t)
    <= 2^53 they are all integers that float64 holds, so every operation
    is exact and the result is H(t) exactly: bit for bit the sum of
    values_upto(spec, t, q, table)[:t + 1] in any order.

    Error.  For other values, if no product underflows and nothing
    overflows, |h_sum - H(t)| <= (e + (1 + e) gamma_D) H~(t), where H(t)
    is the exact sum of the exact products of the float values, u =
    2^-53, gamma_n = n u / (1 - n u), e = gamma_(m+1) + 2 gamma_N^2 with
    m the number of intervals of spec._steps() and N the number of prime
    keys up to t, and D = 3 pi(sqrt(t)) + 1.  Proof.  Each float G(x) is
    within e G~(x) of the exact one: its m + 1 terms are added in order
    from G_K, so fl(c_j n_j) carries its own rounding and at most m
    additions, and G_K, within u |G_K| + gamma_N^2 G~_K of its exact sum
    (_prime_sums), at most m additions, which gives at most
    gamma_(m+1) times the sum of the |c_j| n_j(x) plus (gamma_m + (1 +
    gamma_m) (u + gamma_N^2)) G~_K <= (gamma_(m+1) + 2 gamma_N^2) G~_K
    (Higham 2002, Lemmas 3.1 and 3.3).  With the float G as inputs, each
    path of the computed R[t] carries its own factor prod (1 + delta),
    |delta| <= u, one per rounding on it: three (subtract, multiply, add)
    or one (add) per prime step, and one for 1 + R[t], so the factor is
    1 + theta with |theta| <= gamma_D (Higham 2002, Lemma 3.1).  The
    result is then within gamma_D times the sum of the paths'
    magnitudes, at most (1 + e) H~(t), of the exact arithmetic on the
    float G, and that is within e (H~(t) - 1) of H(t), each path moving
    by at most |value(p_1) ... value(p_j)| e G~(x).  This covers the
    cancellation in R[floor(v/p)] - G(p): the primes up to p in both
    terms cancel in H(t) but carry their own rounding factors, so H~(t)
    counts them twice.

    Non-finite values.  If value(p) is NaN or +-inf at some prime p <= t
    not dividing q, some products of H(t) are infinite or undefined, and
    h_sum returns NaN.  Values at primes above t or dividing q, and at
    table keys that are not prime, are never read.  t above HARD_LIMIT
    raises ResourceLimitError.
    """
    t = _checked_t(t, None)
    q_primes = _coprimality_primes(spec.q if q is None else q)
    ps = primes_upto(math.isqrt(t))
    V = _points(t)
    srcs = _sources(V, ps)
    G = _prime_value_sums(spec, V, _prime_counts(V, srcs), q_primes, ps)
    if G is None:
        return math.nan
    return 1.0 + _prime_recursion(V, srcs, ps, spec.prime_values(ps), G, q_primes)[0]


def log_weighted_sum(spec: MultFuncSpec, x: float, q: int | None,
                     table: SieveTable) -> float:
    """L(x): the sum of value(n) log(x/n) over squarefree n <= x with
    (n, q) = 1, by one route on each side of x = _LOG_RECURSION.

    Below it, the direct sum of the terms t_n = v[n] (log x - log n), n
    = 1..m, m = floor(x), v = values_upto(spec, m, q, table).  From it
    on, no value at a composite n is formed: the recursion of h_sum over
    V = {floor(m/k)} carries one more row, from G(v) and GL(v), the
    compensated sums of value(p) and value(p) log p over the primes p <=
    v not dividing q (_prime_sums).  R_L[v] = G(v) log v - GL(v) first;
    for each prime p <= sqrt(m) not dividing q, descending, and each v
    in V with v >= p^2, with u = floor(v/p), dH = R_H[u] - G(p) and w =
    value(p), R_L[v] += w ((R_L[u] - (G(p) log u - GL(p))) + log(v/(p
    u)) dH), all right-hand sides read before any write; then L(x) = log
    m + R_L[m] + H(m) log(x/m).  After the primes above p, R_L[v] is the
    sum of f(n) log(v/n) over the n in [2, v] of R_H[v] (see h_sum); the
    step adds the n = p m', m' <= u, whose log(v/n) = log(u/m') +
    log(v/(p u)).  The log(v/(p u)) and log(x/m) are log1p of (v - p
    u)/(p u) and (x - m)/m, free of cancellation.  Cost: two prime sums
    over pi(m) primes and two rows of the recursion, a 2.8 MiB traced
    peak at x = 10^6, where the value array traced 30.5 MiB.

    Errors.  Both bounds are about L(x), the exact sum of the exact
    products of the float values, with u = 2^-53 and gamma_n = n u / (1
    - n u), and hold if no product underflows, nothing overflows and
    np.log, np.log1p and math.log are within one ulp (|delta| <= 2 u,
    two roundings below).

    Direct sum: within gamma_(K+6) log(x) sum |v[n]| + gamma_(m-1) sum
    |t_n|, K = bit_length(m), the sums over the computed v[n] and t_n.
    Proof.  (a) v[n] is a product of at most K - 1 prime values (j
    distinct primes multiply to at least 2^j, and m < 2^K), formed from
    1.0, so the exact product is v[n] (1 + theta_n), |theta_n| <=
    gamma_K (Higham 2002, Lemma 3.1).  (b) The two logs are within 2 u
    log x and 2 u log n <= 2 u log x, and their difference rounds once
    more, so it is within (5 u + 4 u^2) log x <= gamma_5 log x of
    log(x/n), as 0 <= log(x/n) <= log x.  (c) With delta the rounding of
    the product, t_n minus the exact term is v[n] (log(x/n) (delta -
    theta_n) + (1 + delta) times the error of (b)), at most (u + gamma_K
    + (1 + u) gamma_5) log(x) |v[n]| <= gamma_(K+6) log(x) |v[n]|
    (Lemma 3.3).  (d) np.sum adds the m terms in some order, two partial
    sums at a time, so each term passes at most m - 1 additions and the
    sum is within gamma_(m-1) sum |t_n| of the exact sum of the t_n, for
    any order (Higham 2002, section 4.2).

    Recursion: with H~(m) as in h_sum, e = 2 u + 2 gamma_N^2 (N = pi(m))
    and D = 4 pi(sqrt(m)) + 16, within (e + (1 + e) gamma_D) 2 log(x)
    H~(m).  Proof.  Expanded as in h_sum, the result is a signed sum
    over the paths of the H recursion, each with a log factor: log u,
    log p', log v or log(v/(p u)), and log m or log(x/m) at the end.
    Run in exact arithmetic on |value(p)| with every subtraction made an
    addition, the rows give R~_L[v] <= 2 log v R~_H[v], by induction
    over the primes: it holds for the first rows (GL~(v) <= log v
    G~(v)), and a step adds |w| (R~_H[u] + G~(p)) times at most 2 log u
    + log(v/(p u)) <= 2 log v, as GL~(p) <= log u G~(p).  So the
    magnitudes of all paths add up to at most log m + 2 log m (H~(m) -
    1) + log(x/m) H~(m) <= 2 log(x) H~(m).  Each path passes at most 4
    roundings per prime (subtract, add, multiply, add; its H part 3), as
    in h_sum each prime once, and at most 16 more at its leaf, its
    branch into H and the final sum: the logs, the quotients of log1p,
    the products with them, and the 3 of fl(value(p) fl(log p)) in GL.
    So each path carries its own 1 + theta, |theta| <= gamma_D (Higham
    2002, Lemmas 3.1 and 3.3), about the exact arithmetic on the float G
    and GL, which differ from theirs by at most e G~ and e GL~
    (_prime_sums, with sum |x| <= (1 + gamma_3) GL~ <= 2 GL~), and the
    bound follows as in h_sum.  At x = 10^6, D = 688 and the bound is
    below 1.6e-13 log(x) H~(m).

    Non-finite values.  If value(p) is NaN or +-inf at some prime p <= x
    not dividing q, log_weighted_sum returns NaN, as h_sum(spec, m, q)
    does.  Finite values whose products overflow raise CrossCheckError:
    a value(p) log p that is infinite, or a result that is not finite.
    """
    if not (math.isfinite(x) and x >= 1.0):
        raise InvalidInputError(f"x must be finite and >= 1, got {x}")
    if x == 1.0:
        return 0.0
    if x < _LOG_RECURSION:
        return _log_weighted_sum(values_upto(spec, int(x), q, table), x)
    m = _checked_t(x, table)
    q_primes = _coprimality_primes(spec.q if q is None else q)
    ps = table.primes[:table.prime_count(m)]
    G, first_bad = _prime_sums(spec, ps, q_primes)
    if m >= first_bad:
        return math.nan
    GL, first_bad = _prime_sums(spec, ps, q_primes, log_p=True)
    if m >= first_bad:
        raise CrossCheckError(
            f"log-weighted sum overflows: value(p) log p is infinite at p = {first_bad}")
    V = _points(m)
    at = np.searchsorted(ps, V, side="right")       # pi(v)
    small = _upto_sqrt(ps, m)
    r_h, r_l = _prime_recursion(V, _sources(V, small), small, spec.prime_values(small),
                                G[at], q_primes, GL[at])
    total = math.log(m) + r_l + (1.0 + r_h) * math.log1p((x - m) / m)
    if not math.isfinite(total):
        raise CrossCheckError(f"log-weighted sum overflows: {total} from finite values")
    return total


def _log_weighted_sum(vals: np.ndarray, x: float) -> float:
    """The direct sum of log_weighted_sum from vals = values_upto(spec,
    int(x), q, table), x > 1; vals is not written."""
    m = int(x)
    terms = math.log(x) - np.log(np.arange(1, m + 1, dtype=np.float64))
    terms *= vals[1:]
    # np.sum rather than the BLAS np.dot: the same on every host, where
    # np.dot's result depends on its thread count
    direct = float(np.sum(terms))
    if math.isfinite(direct):
        return direct
    # vals[p] is value(p) at each prime p <= m not dividing q, and a
    # non-finite one makes the sum NaN or infinite
    if not np.all(np.isfinite(vals[primes_upto(m)])):
        return math.nan
    raise CrossCheckError(f"log-weighted sum overflows: {direct} from finite values")


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


def asymptotic_report(y: int, u_grid: list[float], q: int,
                      weights: tuple[float, float],
                      limit: int | None = None) -> list[dict]:
    """Exact H(y^u) against the mean-value prediction c(q)*sigma(u)*log(y)*y^u.

    Report-only: the error term of the asymptotic carries no rate, so the
    rows record the relative error without asserting a bound.  Each
    exact H(y^u) is one call of h_sum at t = y^u: each row sieves the
    primes up to sqrt(t), pi at the points {floor(t/k)} and at y by
    Lucy's recursion gives the weights' prime sums G there, and the
    recursion of h_sum runs from them.  So a row holds O(sqrt(t)) entries
    and sieves nothing above sqrt(t).  For integer
    weights every intermediate is an integer of magnitude below H~(t),
    the recursion run on |chi0|, |chi1| with the subtraction made an
    addition, so while H~(t) <= 2^53 the row is exact, and equal to the
    sum of the values in any order.  For other weights the row is within
    (e + (1 + e) gamma_D) H~(t) of the exact sum of the exact products,
    e = gamma_3 and D = 3 pi(sqrt(t)) + 1; see h_sum for both proofs.
    With limit (the CLI's --limit), y^max(u) above it raises
    InvalidInputError; t above HARD_LIMIT raises ResourceLimitError.
    c(q) is truncated at C_TRUNCATION (euler_constant_c).
    """
    if y < 2:
        raise InvalidInputError(f"y must be >= 2, got {y}")
    if q < 1:
        raise InvalidInputError(f"q must be >= 1, got {q}")
    if not u_grid:
        raise InvalidInputError("the u grid is empty")
    bad_u = [u for u in u_grid if not u >= 0]
    if bad_u:
        raise InvalidInputError(
            f"u must be >= 0, got u = {bad_u[0]} in the grid {u_grid}")
    chi0, chi1 = weights
    u_max = max(u_grid)
    if limit is not None and y ** u_max > limit:
        raise InvalidInputError(
            f"y^max(u) = {y ** u_max:.0f} exceeds the limit {limit}")
    ts = [_checked_t(y ** u, None) for u in u_grid]
    spec = MultFuncSpec.threshold(y, chi0, chi1, q=q)
    c_q, _ = euler_constant_c(q, C_TRUNCATION)
    sol = dde.solve(dde.DdeSpec(chi0, chi1), max(u_max, 1.0), 1e-4)
    rows = []
    for u, t in zip(u_grid, ts):
        exact = h_sum(spec, t, q)
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

    This is the sieve lower-bound inequality that the paper's least-prime
    bounds rest on: for b = h * g (Dirichlet) with g(p) >= 0 and the
    partial sums of h nonnegative, S(z) = sum_{n <= z} b(n) log(z/n) is at
    least the same sum of h, whose mean value the delay equation's sigma
    governs (dde).  Library only: no CLI command runs it; the benchmark's
    positivity workload drives it.

    Preconditions (verified exactly, violations raise PreconditionError
    with a witness): g = b/h has g(p) >= 0 for all primes p <= z with p
    coprime to q, and the partial sums of h stay nonnegative for every
    coprimality modulus r*q with r <= z.  The partial sums are those of
    v = values_upto(h, z, q): H_r(t) = v[0] + ... + v[t] added in order
    in float64, with v[n] taken as 0 where (n, r) > 1.  The witness is
    (t, r) for the smallest squarefree r with min_t H_r(t) < 0 and the
    first t of that minimum, as an r-by-r scan would report it.  A prime
    of r that divides q changes nothing, so only r coprime to q are swept.
    After the sweep, a NaN or infinite b(p) or h(p) at a prime p <= z
    coprime to q raises InvalidInputError naming b or h, p and the value.

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
    idx, found = bounds.positions(
        ps, np.array(_coprimality_primes(q), dtype=np.int64))
    ps = np.delete(ps, idx[found])
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
    bad = ~np.isfinite(b_ps) | ~np.isfinite(h_ps)
    if bad.any():
        i = int(np.argmax(bad))
        name, value = ("b", b_ps[i]) if not np.isfinite(b_ps[i]) else ("h", h_ps[i])
        raise InvalidInputError(f"{name}({int(ps[i])}) = {float(value)} is not finite")

    # both sides take the route of z, so b = h gives lhs == rhs
    lhs = log_weighted_sum(b, z, q, table)
    rhs = (_log_weighted_sum(base, z) if z < _LOG_RECURSION
           else log_weighted_sum(h, z, q, table))
    return lhs >= rhs - 1e-9 * max(1.0, abs(lhs), abs(rhs))


def local_factor_coeffs(a1: float, a2: float) -> list[Fraction]:
    """Power-series coefficients of x^0, ..., x^6 of the auxiliary local
    Euler factor.

    Expands (1 - a1 x + a1 x^2 - x^3)(1 - a2 x + a2 x^2 - x^3)(1 + (a1+a2) x)
    in x = p^{-s}, exactly; the expansion is the same at every prime p.
    The x^1 coefficient cancels identically and the x^2 coefficient is
    a1*a2 + a1 + a2 - (a1+a2)^2.
    """
    f1 = Fraction(a1)
    f2 = Fraction(a2)
    poly1 = [Fraction(1), -f1, f1, Fraction(-1)]
    poly2 = [Fraction(1), -f2, f2, Fraction(-1)]
    poly3 = [Fraction(1), f1 + f2]
    return _poly_mul(_poly_mul(poly1, poly2), poly3)[:7]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out
