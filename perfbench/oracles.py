"""Reference values computed independently of the library's kernels.

Each workload checks every operation against one of these: an exact
published constant, an mpmath value, a brute-force sum through
MultFuncSpec.value, or a NumPy evaluation by a different route than the
library's (prime-factor counts instead of running products, the
polynomial form of the scan weight instead of its trigonometric form).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# first zero of the two-form equation, as published (7 decimals)
TWO_FORM_ZERO = 2.2352796
# first zero of the three-form equation is e^{1/4} exactly
THREE_FORM_ZERO = float(mpmath.exp(mpmath.mpf(1) / 4))
TWO_FORM_EXPONENT = 0.447374
THREE_FORM_EXPONENT = 0.778801


class Miss(Exception):
    """An operation's output missed its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Miss(message)


def expect_close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(float(got) - float(want)) <= tol:
        raise Miss(f"{what}: got {got!r}, want {want!r} +- {tol:g}")


def expect_rel(got: float, want: float, rel: float, what: str) -> None:
    scale = max(abs(float(want)), 1e-300)
    if not abs(float(got) - float(want)) <= rel * scale:
        raise Miss(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def primes(n: int) -> np.ndarray:
    """Primes <= n by a boolean sieve."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def squarefree(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for p in primes(math.isqrt(n)).tolist():
        flags[p * p::p * p] = False
    return flags


def threshold_values(n: int, y: int, chi0: float, chi1: float,
                     q: int) -> np.ndarray:
    """v[k] = chi0^a(k) * chi1^b(k) on squarefree k coprime to q, else 0,
    where a(k) and b(k) count the prime factors of k up to y and above y."""
    small = np.zeros(n + 1, dtype=np.int64)
    large = np.zeros(n + 1, dtype=np.int64)
    for p in primes(n).tolist():
        (small if p <= y else large)[p::p] += 1
    vals = np.where(squarefree(n), 1.0, 0.0)
    vals *= np.power(float(chi0), small) * np.power(float(chi1), large)
    for p in primes(q).tolist():
        if q % p == 0:
            vals[p::p] = 0.0
    return vals


def log_weighted(vals: np.ndarray, x: float) -> tuple[float, float]:
    """(sum v(k) log(x/k), sum |v(k) log(x/k)|) over 1 <= k <= x."""
    m = int(x)
    terms = vals[1:m + 1] * (math.log(x) - np.log(np.arange(1, m + 1)))
    return math.fsum(terms.tolist()), float(np.sum(np.abs(terms)))


def scan_weight_mean(lams: list[np.ndarray]) -> float:
    """Mean of U = (1 + 3 sum_j A_j + 5 A4_1)^2 with A = lam^2 - 1 and
    A4 = lam^4 - 3 lam^2 + 1 (the polynomial route)."""
    a_sum = sum(lam * lam - 1.0 for lam in lams)
    l2 = lams[0] * lams[0]
    a4 = l2 * l2 - 3.0 * l2 + 1.0
    linear = 1.0 + 3.0 * a_sum + 5.0 * a4
    return float(np.mean(linear * linear))


def eigenvalues_at(ps: np.ndarray, pairs: list) -> np.ndarray:
    """Eigenvalues of a schema-1 coefficient list at the primes ps."""
    have = np.array([p for p, _ in pairs], dtype=np.int64)
    vals = np.array([a for _, a in pairs], dtype=np.float64)
    idx = np.searchsorted(have, ps)
    if np.any(idx >= have.size) or np.any(have[np.minimum(idx, have.size - 1)] != ps):
        raise Miss("coefficient list does not cover the scanned primes")
    return vals[idx]


def sigma_two_form(u: np.ndarray) -> np.ndarray:
    """sigma for the weight pair (2, -2) on (0, 2]: u, then
    u (1 + k - k log u) - k with k = 4."""
    k = 4.0
    return np.where(u <= 1.0, u, u * (1.0 + k - k * np.log(np.maximum(u, 1.0))) - k)
