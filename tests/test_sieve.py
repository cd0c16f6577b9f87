import bisect
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maasslab import satake, sieve
from maasslab.errors import (CrossCheckError, InvalidInputError,
                             PreconditionError, ResourceLimitError)
from maasslab.sieve import MultFuncSpec
from oracles import SatakeLocal, euler_constant_c_exact, squarefree_flags


def recursive_h_sum(primes, t, q, prime_value):
    """Independent oracle: enumerate squarefree products of listed primes."""
    usable = [p for p in primes if p <= t and q % p != 0]
    total = 0.0
    stack = [(0, 1, 1.0)]
    while stack:
        idx, prod, val = stack.pop()
        total += val
        for i in range(idx, len(usable)):
            p = usable[i]
            if prod * p > t:
                continue
            stack.append((i + 1, prod * p, val * prime_value(p)))
    return total


def exact_threshold_sum(y, chi0, chi1, t, q, table):
    """H(t) of MultFuncSpec.threshold(y, chi0, chi1) in exact rationals:
    the squarefree n <= t coprime to q counted by how many of their
    primes are <= y (i) and > y (j), each adding chi0^i chi1^j."""
    a = sieve.values_upto(MultFuncSpec.threshold(y, 2, 1), t, q, table)
    b = sieve.values_upto(MultFuncSpec.threshold(y, 1, 2), t, q, table)
    keep = a != 0                                 # 2^i and 2^j are exact
    counts = np.bincount(64 * np.log2(a[keep]).astype(int)
                         + np.log2(b[keep]).astype(int))
    return sum(int(c) * Fraction(chi0) ** (k // 64) * Fraction(chi1) ** (k % 64)
               for k, c in enumerate(counts.tolist()) if c)


def absolute_recursion(spec, t, q, table):
    """An upper bound on H~(t) of the h_sum docstring: the recursion over
    {t // k} on |value(p)|, its subtraction made an addition, in float64.
    Every term is nonnegative and takes at most m = pi(t) + 3 pi(sqrt(t))
    roundings, so the float result is at least (1 - gamma_m) H~(t)."""
    ps = [p for p in table.primes[:table.prime_count(t)].tolist() if q % p]
    ws = np.abs(spec.prime_values(np.array(ps, dtype=np.int64)))
    G = [0.0, *np.cumsum(ws).tolist()]           # over the first i primes
    s = math.isqrt(t)
    vs = sorted({t // k for k in range(1, s + 1)} | set(range(1, s + 1)),
                reverse=True)
    R = {v: G[bisect.bisect_right(ps, v)] for v in vs}
    for i in reversed(range(bisect.bisect_right(ps, s))):
        for v in vs:       # descending: R[v // p] is read before its update
            if v < ps[i] ** 2:
                break
            R[v] += float(ws[i]) * (R[v // ps[i]] + G[i + 1])
    m = table.prime_count(t) + 3 * table.prime_count(s)
    return Fraction(1 + R[t]) / (1 - _gamma(m))


def _gamma(n):
    u = Fraction(1, 2 ** 53)
    return n * u / (1 - n * u)


def h_sum_error_bound(spec, t, q, table):
    """(e + (1 + e) gamma_D) H~(t), the proven bound of the h_sum docstring:
    e = gamma_3 and D = 3 pi(sqrt(t)) + 1."""
    e = _gamma(3)
    d = 3 * table.prime_count(math.isqrt(t)) + 1
    return (e + (1 + e) * _gamma(d)) * absolute_recursion(spec, t, q, table)


def values_upto_reference(spec, t, q, table):
    """The per-prime loop values_upto replaced: every multiple of each
    prime p <= t multiplied by the value at p, primes ascending."""
    vals = np.where(squarefree_flags(t), 1.0, 0.0)
    ps = table.primes[table.primes <= t]
    for p, w in zip(ps.tolist(), spec.prime_values(ps).tolist()):
        vals[p::p] *= w
    for p in ps.tolist():
        if q % p == 0:
            vals[p::p] = 0.0
    return vals


def is_prime_mr(n):
    """Independent oracle: Miller-Rabin with the bases 2, ..., 37,
    deterministic for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_build_table_small(table_small):
    first = table_small.primes[:10].tolist()
    assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert table_small.prime_count(30) == 10


def test_prime_counts_match_references(table_medium):
    assert table_medium.prime_count(10 ** 3) == 168
    assert table_medium.prime_count(10 ** 6) == 78498


def test_prime_count_against_trial_division(table_small):
    def naive(n):
        return sum(1 for k in range(2, n + 1)
                   if all(k % d for d in range(2, int(math.isqrt(k)) + 1)))
    assert table_small.prime_count(10 ** 3) == naive(10 ** 3)


def test_factor_and_squarefree_flags(table_small):
    assert table_small.factor(90) == {2: 1, 3: 2, 5: 1}
    assert min(table_small.factor(90)) == 2
    # the value at n is 0 off the squarefree support, read from factor(n)
    spec = MultFuncSpec.threshold(10, 2, -2)
    assert spec.value(90, table_small) == 0.0 and spec.value_exact(90, table_small) == 0
    assert spec.value(30, table_small) == 8.0 and spec.value_exact(30, table_small) == 8


def test_factor_smallest_prime_matches_naive_division(table_small):
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, table_small.limit)
        p = min(table_small.factor(n))
        assert n % p == 0
        assert all(n % d for d in range(2, p))


def test_build_table_resource_limits(no_huge_ones):
    # HARD_LIMIT is the one cap, met in primes_upto before any allocation
    for limit in (sieve.HARD_LIMIT + 1, 3 * 10 ** 8):
        with pytest.raises(ResourceLimitError, match="hard cap"):
            sieve.build_table(limit)
    with pytest.raises(InvalidInputError):
        sieve.build_table(1)


def test_primes_upto_capped_before_allocating(no_huge_ones):
    for call in (lambda: sieve.primes_upto(sieve.HARD_LIMIT + 1),
                 lambda: sieve.primes_upto(10 ** 12),
                 lambda: sieve.euler_constant_c(1, 10 ** 12)):
        with pytest.raises(ResourceLimitError, match="hard cap"):
            call()
    assert sieve.primes_upto(sieve.HARD_LIMIT // 10 ** 6).size == 46


def plain_eratosthenes(n):
    """Independent oracle: the primes <= n from a sieve over every integer
    0..n, int64."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


def test_primes_upto_matches_miller_rabin():
    primes = [n for n in range(3001) if is_prime_mr(n)]
    for n in range(3001):
        got = sieve.primes_upto(n)
        assert got.dtype == np.int64
        assert got.tolist() == primes[:bisect.bisect_right(primes, n)], n


def test_primes_upto_matches_plain_eratosthenes_1e6():
    got = sieve.primes_upto(10 ** 6)
    assert got.dtype == np.int64
    assert np.array_equal(got, plain_eratosthenes(10 ** 6))


def test_large_table_beyond_1e7(table_large):
    t = table_large
    assert t.prime_count(10 ** 6) == 78498
    assert t.factor(2 * 10 ** 7 - 1)
    assert MultFuncSpec.threshold(10, 2, -2).value(18 * 10 ** 6, t) == 0.0
    big = 19999999  # prime above 10^7
    assert t.factor(big) == {big: 1}


def test_coprimality_primes_beyond_table(table_small):
    # q lies beyond the table and 101 and 103 above sqrt(limit): q's
    # primes do not come from the table
    q = 2 * 101 * 103
    assert sieve._coprimality_primes(q) == [2, 101, 103]
    vals = sieve.values_upto(MultFuncSpec.threshold(10, 2, -2), 500, q, table_small)
    assert vals[101] == vals[103] == vals[303] == 0.0 and vals[107] == -2.0


def test_table_arrays_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.primes[0] = 4
    assert table_small.primes[0] == 2
    # the table holds its primes and nothing else
    assert [f.name for f in dataclasses.fields(table_small)] == ["limit", "primes"]


@given(st.one_of(st.integers(1, 10 ** 7), st.integers(10 ** 7 + 1, 2 * 10 ** 7)))
def test_factor_property_large_table(table_large, n):
    fac = table_large.factor(n)
    assert sorted(fac) == list(fac) and all(e >= 1 for e in fac.values())
    assert all(table_large.prime_count(p) - table_large.prime_count(p - 1) == 1
               for p in fac)
    assert math.prod(p ** e for p, e in fac.items()) == n
    assert sieve.prime_factors(n) == fac


@given(st.one_of(st.integers(1, 10 ** 4), st.integers(1, 10 ** 10)))
def test_prime_factors_property(n):
    fac = sieve.prime_factors(n)
    assert math.prod(p ** e for p, e in fac.items()) == n
    assert sorted(fac) == list(fac) and all(e >= 1 for e in fac.values())
    assert all(is_prime_mr(p) for p in fac)


def test_prime_factors_tries_every_prime_divisor():
    # p * q, q the prime after p, factors correctly only if p is tried
    # as a trial divisor; this covers every prime up to 10^4
    ps = sieve.primes_upto(10 ** 4 + 100).tolist()
    for p, q in zip(ps, ps[1:]):
        assert sieve.prime_factors(p * q) == {p: 1, q: 1}
        assert sieve.prime_factors(p * p * q) == {p: 2, q: 1}


def test_prime_factors_bounded_work():
    p1, p2 = 10000019, 10000079      # consecutive primes above TRIAL_LIMIT
    assert is_prime_mr(p1) and is_prime_mr(p2) and sieve.TRIAL_LIMIT < p1
    # no table's factor() reaches the cap
    assert math.isqrt(sieve.HARD_LIMIT) < sieve.TRIAL_LIMIT
    with pytest.raises(ResourceLimitError, match=str(p1 * p2)):
        sieve.prime_factors(p1 * p2)
    assert sieve.prime_factors(2 ** 70) == {2: 70}
    assert sieve.prime_factors(2 ** 40 * p1) == {2: 40, p1: 1}
    assert sieve.prime_factors(1) == {}
    assert sieve.prime_factors(np.int64(90)) == {2: 1, 3: 2, 5: 1}
    for bad in (0, -6, 6.0, "6"):
        with pytest.raises(InvalidInputError):
            sieve.prime_factors(bad)


def test_every_factoring_caller_is_capped(table_small, monkeypatch):
    # a low cap keeps the refusals cheap: 1009 * 1013 and the prime 10211
    # need trial divisors above 100
    monkeypatch.setattr(sieve, "TRIAL_LIMIT", 100)
    q = 1009 * 1013
    spec = MultFuncSpec.threshold(10, 2, -2)
    for n, call in ((q, lambda: sieve.values_upto(spec, 100, q, table_small)),
                    (q, lambda: sieve.lower_bound_check(spec, spec, 100, q,
                                                        table_small)),
                    (q, lambda: sieve.euler_constant_c(q, 10 ** 3)),
                    (q, lambda: euler_constant_c_exact(q, 10 ** 3)),
                    (10211, lambda: SatakeLocal.from_angle(10211, 1.0))):
        with pytest.raises(ResourceLimitError, match=str(n)):
            call()


def test_squarefree_reads_range_checked():
    # value and value_exact read squarefreeness from factor(n), which
    # checks n against the table's limit
    table = sieve.build_table(10)
    spec = MultFuncSpec.threshold(5, 2, -2)
    assert spec.value(10, table) == 4.0 and spec.value_exact(1, table) == 1
    for n in (-1, 0, 11):
        for read in (table.factor, lambda n: spec.value(n, table),
                     lambda n: spec.value_exact(n, table)):
            with pytest.raises(InvalidInputError, match=rf"\[1, 10\], got {n}$"):
                read(n)


# small specs of every kind, each with an independent prime-value oracle
# (the threshold rule or the dict itself) for brute-force comparisons
_threshold_specs = st.builds(
    lambda y, chi0, chi1: (MultFuncSpec.threshold(y, chi0, chi1),
                           lambda p: chi0 if p <= y else chi1),
    st.integers(2, 300), st.sampled_from([1.0, 2.0, 3.0, 0.5]),
    st.sampled_from([-1.0, -2.0, -3.0, -0.25]))
_table_specs = st.dictionaries(
    st.sampled_from(sieve.primes_upto(400).tolist() + [401, 9973]),
    st.floats(-4.0, 4.0, allow_nan=False), max_size=40).map(
    lambda d: (MultFuncSpec.from_table(d), lambda p: d.get(p, 0.0)))
_quotient_specs = st.tuples(_table_specs, _threshold_specs).map(
    lambda ab: (MultFuncSpec.moebius_quotient(ab[0][0], ab[1][0]),
                lambda p: ab[0][1](p) - ab[1][1](p)))


@given(st.one_of(_threshold_specs, _table_specs, _quotient_specs),
       st.sampled_from([1, 6, 30, 210]), st.integers(1, 3000))
def test_values_upto_property_matches_value(table_small, spec_oracle, q, t):
    spec, oracle = spec_oracle
    expected = [spec.value(n, table_small) if math.gcd(n, q) == 1 else 0.0
                for n in range(1, t + 1)]
    assert sieve.values_upto(spec, t, q, table_small)[1:].tolist() == expected
    ps = table_small.primes[:80]
    assert spec.prime_values(ps).tolist() == [oracle(p) for p in ps.tolist()]


# t where the sqrt(t) split of values_upto moves: around primes, prime
# squares and prime multiples of the coprimality moduli
_split_ts = sorted({n + d for p in sieve.primes_upto(100).tolist()
                    for n in (p * p, 6 * p, 30 * p, 210 * p) for d in (-1, 0, 1)
                    if n + d <= 10 ** 4})
_ts = st.one_of(st.integers(1, 10 ** 4), st.sampled_from(_split_ts),
                st.sampled_from(sieve.primes_upto(10 ** 4).tolist()))


@given(st.one_of(_threshold_specs, _table_specs, _quotient_specs),
       st.sampled_from([1, 6, 30, 210]), _ts)
def test_values_upto_bytes_match_per_prime_loop(table_small, spec_oracle, q, t):
    # tobytes tells -0.0 from 0.0, which tolist comparisons cannot
    spec, _ = spec_oracle
    assert sieve.values_upto(spec, t, q, table_small).tobytes() == \
        values_upto_reference(spec, t, q, table_small).tobytes()


def test_values_upto_bytes_match_per_prime_loop_1e6(table_medium):
    rng = np.random.default_rng(4)
    ps = table_medium.primes[::3].tolist()
    b = MultFuncSpec.from_table(dict(zip(ps, rng.choice([-2.0, -0.5, 0.0, 1.5], len(ps)))))
    spec = MultFuncSpec.moebius_quotient(b, MultFuncSpec.threshold(1000, 2, -2))
    for q in (1, 30):
        got = sieve.values_upto(spec, 10 ** 6, q, table_medium)
        assert got.tobytes() == values_upto_reference(spec, 10 ** 6, q, table_medium).tobytes()
        assert np.signbit(got[got == 0.0]).any()


# large t: k 2^18 + d
_block_ts = [k * 2 ** 18 + d for k in (1, 2, 3) for d in (-1, 0, 1)]


def test_values_upto_bytes_match_per_prime_loop_at_block_edges(table_medium):
    rng = np.random.default_rng(12)
    ps = table_medium.primes[::2].tolist()
    ws = rng.choice([-2.0, -0.5, 0.0, -0.0, 1.5, math.nan, math.inf, -math.inf], len(ps))
    spec = MultFuncSpec.from_table(dict(zip(ps, ws.tolist())))
    q = 30 * 997                  # 997 > sqrt(t) for every t of _block_ts
    # an entry of the per-prime loop does not depend on t, so the array at
    # the largest t holds those of the smaller t as prefixes
    with np.errstate(invalid="ignore"):           # 0 * inf
        ref = values_upto_reference(spec, max(_block_ts), q, table_medium)
        assert np.isnan(ref).any() and np.signbit(ref[ref == 0.0]).any()
        for t in _block_ts:
            got = sieve.values_upto(spec, t, q, table_medium)
            assert got.tobytes() == ref[:t + 1].tobytes(), t


def test_values_upto_nan_times_nan_is_the_cofactor_nan(table_small):
    # v[6] = inf * 0.0 is the default NaN, whose sign bit may differ from
    # that of math.nan, the value at every P > 100: each v[j P] with 6 | j
    # multiplies two NaNs, and the per-prime loop keeps v[j]'s
    ps = table_small.primes.tolist()
    spec = MultFuncSpec.from_table({2: math.inf, 3: 0.0,
                                    **{p: math.nan for p in ps if p > 100}})
    with np.errstate(invalid="ignore"):
        for t in (1000, 10 ** 4):
            assert sieve.values_upto(spec, t, 1, table_small).tobytes() == \
                values_upto_reference(spec, t, 1, table_small).tobytes(), t


def test_values_upto_entry_zero_is_positive_zero(table_medium):
    # w(2) < 0: a multiply of v[0] would leave -0.0 there
    spec = MultFuncSpec.threshold(10, -2.0, 1.0)
    for t in (1, 2, 3, 100, 2 ** 18 - 1, 2 ** 18 + 1):
        v0 = sieve.values_upto(spec, t, 1, table_medium)[0]
        assert v0 == 0.0 and not np.signbit(v0), t


@given(st.one_of(_threshold_specs, _table_specs),
       st.one_of(_threshold_specs, _table_specs),
       st.integers(2, 300), st.sampled_from([1, 2, 6, 35, 210]))
def test_lower_bound_check_g_witness_property(table_small, b_spec, h_spec, z, q):
    (b, b_at), (h, h_at) = b_spec, h_spec
    bad = [p for p in table_small.primes[table_small.primes <= z].tolist()
           if q % p != 0 and b_at(p) - h_at(p) < 0]
    try:
        sieve.lower_bound_check(b, h, z, q, table_small)
        witness = None
    except PreconditionError as exc:
        witness = exc.witness
    if bad:
        assert witness == ("g", bad[0])
    else:
        assert witness is None or witness[0] != "g"


def test_from_table_sorted_read_only_arrays():
    spec = MultFuncSpec.from_table({5: 0.5, 2: -1.0, 3: 2.0})
    assert spec.ps.tolist() == [2, 3, 5] and spec.values.tolist() == [-1.0, 2.0, 0.5]
    assert not spec.ps.flags.writeable and not spec.values.flags.writeable
    assert spec.prime_values([2, 3, 4, 5, 7]).tolist() == [-1.0, 2.0, 0.0, 0.5, 0.0]
    assert spec == MultFuncSpec.from_table({2: -1.0, 3: 2.0, 5: 0.5})
    assert spec != MultFuncSpec.from_table({2: -1.0, 3: 2.0, 5: 0.25})
    assert spec != MultFuncSpec.from_table({2: -1.0, 3: 2.0, 5: 0.5}, q=6)
    assert MultFuncSpec.from_table({}).prime_value(2) == 0.0
    with pytest.raises(InvalidInputError):
        MultFuncSpec.from_table({2: "x"})
    for bad in ({2.5: 1.0, 3: 2.0}, {True: 1.0, 3: 2.0}):   # not truncated to 2 or 1
        with pytest.raises(InvalidInputError, match="primes must be integers"):
            MultFuncSpec.from_table(bad)


def test_h_sum_hand_examples():
    spec = MultFuncSpec.threshold(10, 2, -2)
    assert sieve.h_sum(spec, 10, 1) == 17.0
    assert sieve.h_sum(spec, 10, 6) == 5.0
    assert sieve.h_sum(spec, 1, 1) == 1.0
    with pytest.raises(InvalidInputError, match="q must be >= 1, got 0$"):
        sieve.h_sum(spec, 10, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: MultFuncSpec(kind="foo"), "unknown spec kind 'foo'"),
    (lambda: MultFuncSpec.threshold(1, 2, -2), "threshold y must be >= 2, got 1"),
], ids=["unknown-kind", "threshold-y-below-2"])
def test_multfuncspec_checked_at_construction(build, message):
    # an unknown kind fails when built, not at its first use
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build()


def test_h_sum_against_recursive_oracle(table_small):
    rng = random.Random(11)
    primes = table_small.primes.tolist()
    for _ in range(25):
        y = rng.randint(3, 300)
        chi0 = rng.randint(1, 3)
        chi1 = -rng.randint(1, 3)
        q = rng.choice([1, 2, 6, 30, 77])
        t = rng.randint(2, 2000)
        spec = MultFuncSpec.threshold(y, chi0, chi1)
        expected = recursive_h_sum(primes, t, q, spec.prime_value)
        assert sieve.h_sum(spec, t, q) == pytest.approx(
            expected, abs=1e-9)


# t below 4 (no prime step), on both sides of prime squares, and large t
_h_sum_edge_ts = sorted({1, 2, 3, 4, *(p * p + d for p in (2, 3, 5, 7, 31, 997)
                                       for d in (-1, 0, 1)), *_block_ts})


def test_h_sum_edges_equal_array_sums(table_medium):
    # q: none, primes below sqrt(t), primes on both sides (997 and 1009
    # lie above sqrt(t) for t < 994009), and a prime beyond the table
    specs = (MultFuncSpec.threshold(30, 2, -3), MultFuncSpec.threshold(1000, -1, 2))
    for q in (1, 6, 30 * 997, 3 * 1009, 7 * 1000003):
        for spec in specs:
            vals = sieve.values_upto(spec, max(_h_sum_edge_ts), q, table_medium)
            for t in _h_sum_edge_ts:
                assert sieve.h_sum(spec, t, q) == \
                    float(np.sum(vals[:t + 1])), (spec, q, t)
            assert sieve.h_sum(spec, 1, q) == 1.0


_int_threshold_specs = st.builds(MultFuncSpec.threshold, st.integers(2, 10 ** 6),
                                 st.integers(-3, 3), st.integers(-3, 3))


@given(_int_threshold_specs, st.sampled_from([1, 6, 30, 210, 30 * 997]),
       st.one_of(st.integers(1, 10 ** 4), st.integers(1, 10 ** 6),
                 st.sampled_from(_h_sum_edge_ts)))
def test_h_sum_property_integer_values_equal_array_sum(table_medium, spec, q, t):
    # integer sums below 2^53 are exact in any order
    assert sieve.h_sum(spec, t, q) == \
        float(np.sum(sieve.values_upto(spec, t, q, table_medium)[:t + 1]))


# weights off the integers, no product of up to 11 of them underflowing
_weights = st.floats(-4.0, 4.0).filter(lambda c: abs(c) >= 2.0 ** -20
                                       and not c.is_integer())
_float_threshold_specs = st.builds(
    lambda y, chi0, chi1: (MultFuncSpec.threshold(y, chi0, chi1),
                           lambda p: chi0 if p <= y else chi1),
    st.integers(2, 3000), _weights, _weights)


@given(_float_threshold_specs, st.sampled_from([1, 6, 30, 210]), st.integers(1, 3000))
def test_h_sum_property_threshold_matches_recursive_oracle(table_small, spec_oracle,
                                                          q, t):
    # the oracle multiplies each term out and adds them in turn: at most
    # t + bit_length(t) roundings of each term
    spec, oracle = spec_oracle
    primes = table_small.primes.tolist()
    expected = recursive_h_sum(primes, t, q, oracle)
    scale = recursive_h_sum(primes, t, q, lambda p: abs(oracle(p)))
    tol = h_sum_error_bound(spec, t, q, table_small) \
        + _gamma(t + t.bit_length()) * Fraction(scale)
    assert abs(Fraction(sieve.h_sum(spec, t, q)) - Fraction(expected)) <= tol


def test_h_sum_non_finite_prime_values():
    for bad in (math.nan, math.inf, -math.inf):
        # bad above y = 10: NaN once t reaches 11, even where no 0 * inf
        # arises (the values_upto sum gives +-inf there)
        spec = MultFuncSpec.threshold(10, 2, bad)
        assert sieve.h_sum(spec, 10, 1) == 17.0
        for t in (11, 12, 43, 44, 1000):
            assert math.isnan(sieve.h_sum(spec, t, 1)), (bad, t)
        # never read when every prime that takes it divides q
        assert sieve.h_sum(spec, 12, 11) == 17.0
        spec = MultFuncSpec.threshold(10, bad, -1)
        assert math.isnan(sieve.h_sum(spec, 2, 1)), bad
        assert sieve.h_sum(spec, 2, 2) == 1.0


def test_h_sum_rejects_table_and_quotient_specs(monkeypatch):
    # the kind is checked first: before the hard cap on t, and before
    # anything is sieved
    def refuse(*args):
        raise AssertionError("sieved before the kind check")
    monkeypatch.setattr(sieve, "primes_upto", refuse)
    table = MultFuncSpec.from_table({2: -1.0, 3: 2.0})
    quotient = MultFuncSpec.moebius_quotient(table, MultFuncSpec.threshold(5, 1, -1))
    for spec in (table, quotient):
        for t in (28, sieve.HARD_LIMIT + 1):
            with pytest.raises(InvalidInputError, match=(
                    f"^h_sum takes a threshold-weight spec, got '{spec.kind}'$")):
                sieve.h_sum(spec, t, 1)


# pi(10^k), k = 0..9 (OEIS A006880)
_PI_POWERS_OF_TEN = [0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534]


def test_prime_counts_equal_sieve_counts():
    ps = sieve.primes_upto(10 ** 7)
    for t in (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 120, 121, 122, 997 * 997,
              10 ** 6, 10 ** 7 - 1, 10 ** 7):
        V = sieve._points(t)
        if t < 10 ** 4:
            assert set(V.tolist()) == {t // k for k in range(1, t + 1)}
        pi = sieve._prime_counts(V, sieve._sources(V, sieve._upto_sqrt(ps, t)))
        assert pi.tolist() == np.searchsorted(ps, V, side="right").tolist(), t
    seed = sieve.primes_upto(math.isqrt(10 ** 9))
    assert [sieve._prime_count(10 ** k, seed) for k in range(10)] == _PI_POWERS_OF_TEN


def _squarefree_count(t):
    """Q(t) = sum over d <= sqrt(t) of mu(d) floor(t / d^2)."""
    r = math.isqrt(t)
    mu = np.ones(r + 1, dtype=np.int64)
    for p in sieve.primes_upto(r).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    d = np.arange(1, r + 1)
    return int(np.sum(mu[1:] * (t // (d * d))))


# M(10^k), k = 0..8: the Mertens function at powers of ten (OEIS A084237)
_MERTENS_POWERS_OF_TEN = [1, -1, 1, 2, -23, -48, 212, 1037, 1928]


def test_h_sum_past_any_table(table_large):
    # chi0 = 1 at every prime up to y = t: H(t) counts the squarefree n
    for t in (10 ** 7 + 1, 3 * 10 ** 7 + 7, 10 ** 8, sieve.HARD_LIMIT):
        assert sieve.h_sum(MultFuncSpec.threshold(t, 1, -1), t, 1) == \
            _squarefree_count(t), t
    # chi0 = -1: H(t) is the Mertens function, against the sums of
    # values_upto up to 10^7
    mu = sieve.values_upto(MultFuncSpec.threshold(10 ** 7, -1, 1), 10 ** 7, 1,
                           table_large)
    for k, want in enumerate(_MERTENS_POWERS_OF_TEN):
        t = 10 ** k
        assert sieve.h_sum(MultFuncSpec.threshold(max(t, 2), -1, 1), t, 1) == want, k
        if k <= 7:
            assert float(np.sum(mu[:t + 1])) == want, k


def test_prime_sums_within_sum2_bound(table_medium, monkeypatch):
    # a plain running sum of 1.3, -0.7 and the like drifts by about
    # n u |sum|, far past the compensated bound u |sum| + gamma_n^2 sum |x|;
    # the 78498 primes span two chunks, and chunks of 7 give the same bytes
    ps = table_medium.primes.tolist()
    rng = np.random.default_rng(5)
    x = np.where(rng.random(len(ps)) < 0.1, 1.3, -0.7) * rng.choice([1.0, 3.0, 1e-3], len(ps))
    x[[1, 5]] = 0.0                                     # the primes of q = 3 * 13
    spec = MultFuncSpec.from_table(dict(zip(ps, x.tolist())))
    got, first_bad = sieve._prime_sums(spec, table_medium.primes, [3, 13])
    assert first_bad == math.inf and got.size == len(ps) + 1
    exact = [Fraction(0), *itertools.accumulate(map(Fraction, x.tolist()))]
    total = [Fraction(0), *itertools.accumulate(map(Fraction, np.abs(x).tolist()))]
    assert got[0] == 0.0 and not np.signbit(got[0])
    u = Fraction(1, 2 ** 53)
    edge = sieve._CHUNK
    for i in [*range(0, len(ps) + 1, 97), edge - 1, edge, edge + 1, len(ps)]:
        assert abs(Fraction(got[i]) - exact[i]) <= u * abs(exact[i]) + \
            _gamma(i) ** 2 * total[i], i
    monkeypatch.setattr(sieve, "_CHUNK", 7)
    assert sieve._prime_sums(spec, table_medium.primes, [3, 13])[0].tobytes() == \
        got.tobytes()
    # a NaN or infinite value ends G before its prime, also as a chunk's
    # first entry
    for i in (0, 3, 7, 30):
        for bad in (math.nan, math.inf, -math.inf):
            y = x.copy()
            y[i] = bad
            spec = MultFuncSpec.from_table(dict(zip(ps[:40], y[:40].tolist())))
            G, first_bad = sieve._prime_sums(spec, table_medium.primes[:40], [3, 13])
            assert first_bad == ps[i] and G.tobytes() == got[:i + 1].tobytes(), (i, bad)


def test_log_weighted_sum_trivial(table_small):
    spec = MultFuncSpec.threshold(10, 2, -2)
    assert sieve.log_weighted_sum(spec, 1.0, 1, table_small) == 0.0


def test_log_weighted_sum_hand_enumeration(table_small):
    spec = MultFuncSpec.threshold(10, 2, -2)
    ns = [1, 2, 3, 5, 6, 7, 10]
    hs = [1, 2, 2, 2, 4, 2, 4]
    expected = sum(h * math.log(10 / n) for n, h in zip(ns, hs))
    assert sieve.log_weighted_sum(spec, 10.0, 1, table_small) == pytest.approx(
        expected, rel=1e-12)


def test_log_weighted_sum_unit_table(table_small):
    ones = MultFuncSpec.from_table(
        {int(p): 1.0 for p in table_small.primes[table_small.primes <= 30]})
    expected = sum(math.log(30 / n) for n in np.flatnonzero(squarefree_flags(30)).tolist())
    assert sieve.log_weighted_sum(ones, 30.0, 1, table_small) == pytest.approx(
        expected, rel=1e-12)


def test_log_weighted_direct_sum_random(table_small):
    # below the crossover: the direct sum within its proven bound
    rng = random.Random(3)
    for _ in range(100):
        y = rng.randint(2, 500)
        chi0 = float(rng.randint(1, 4))
        chi1 = -float(rng.randint(1, 4))
        x = rng.uniform(2, 5000)
        spec = MultFuncSpec.threshold(y, chi0, chi1)
        assert_log_weighted_within_bound(spec, x, rng.choice([1, 6, 30, 210]), table_small)


@given(st.one_of(_threshold_specs, _table_specs, _quotient_specs),
       st.sampled_from([1, 6, 30, 210]), st.floats(1.0, 3000.0))
def test_log_weighted_sum_property_brute_force(table_small, spec_oracle, q, x):
    spec, _ = spec_oracle
    terms = [spec.value(n, table_small) * math.log(x / n)
             for n in range(1, int(x) + 1) if math.gcd(n, q) == 1]
    scale = sum(map(abs, terms)) + 1.0
    assert sieve.log_weighted_sum(spec, x, q, table_small) == pytest.approx(
        math.fsum(terms), rel=0, abs=1e-12 * scale)


def test_log_weighted_sum_same_for_any_blas_thread_count():
    # np.dot's BLAS ddot splits the sum by thread, so its last bits moved
    # with the thread count
    src = str(Path(sieve.__file__).resolve().parents[1])
    code = ("from maasslab import sieve; t = sieve.build_table(10 ** 6); "
            "print(repr(sieve.log_weighted_sum("
            "sieve.MultFuncSpec.threshold(17609, 3, -2), 1e6, 1, t)))")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        outs.append(subprocess.run([sys.executable, "-c", code], check=True,
                                   capture_output=True, text=True, env=env).stdout)
    assert outs[0] == outs[1] and float(outs[0]) > 0


def brute_log_weighted(spec, x, q, table):
    """(want, err, v, terms): want the math.fsum of the terms v[n] (log x
    - log n), n <= x, where v is values_upto at q = 1 with the n sharing
    a prime with q set to 0 here, and err a bound on the distance of want
    from L(x): each v[n] is within gamma_K of the exact product, K =
    bit_length(x) (one rounding per prime), log x - log n within 5 u log
    x, and fsum is correctly rounded."""
    m = int(x)
    q = spec.q if q is None else q
    vals = sieve.values_upto(spec, m, 1, table)[1:]
    vals[np.gcd(np.arange(1, m + 1), q) > 1] = 0.0
    terms = vals * (math.log(x) - np.log(np.arange(1, m + 1)))
    got = math.fsum(terms.tolist())
    err = _gamma(m.bit_length() + 8) * Fraction(
        float(np.sum(np.abs(terms))) + math.log(x) * float(np.sum(np.abs(vals))))
    return got, err + Fraction(1, 2 ** 53) * abs(Fraction(got)), vals, terms


def log_weighted_error_bound(spec, x, q, table, vals, terms):
    """The proven bound of log_weighted_sum, m = floor(x).  Below the
    crossover that of the direct sum, gamma_(K+6) log(x) sum |v[n]| +
    gamma_(m-1) sum |terms|, K = bit_length(m), from the brute force's v
    and terms, which are the direct sum's floats; from it on, (e + (1 +
    e) gamma_D) 2 log(x) H~(m) of the recursion."""
    m = int(x)
    u = Fraction(1, 2 ** 53)
    if x < sieve._LOG_RECURSION:
        # fsum is correctly rounded: the exact sum is at most fsum / (1 - u)
        v_abs, t_abs = (Fraction(math.fsum(np.abs(a).tolist())) / (1 - u)
                        for a in (vals, terms))
        return _gamma(m.bit_length() + 6) * Fraction(math.log(x)) * v_abs + \
            _gamma(m - 1) * t_abs
    e = 2 * u + 2 * _gamma(table.prime_count(m)) ** 2
    d = 4 * table.prime_count(math.isqrt(m)) + 16
    return (e + (1 + e) * _gamma(d)) * 2 * Fraction(math.log(x)) * \
        absolute_recursion(spec, m, q, table)


def assert_log_weighted_within_bound(spec, x, q, table):
    got = sieve.log_weighted_sum(spec, x, q, table)
    want, oracle_err, vals, terms = brute_log_weighted(spec, x, q, table)
    assert abs(Fraction(got) - Fraction(want)) <= \
        log_weighted_error_bound(spec, x, q, table, vals, terms) + oracle_err, \
        (spec, x, q, got, want)


_medium_threshold_specs = st.builds(
    MultFuncSpec.threshold, st.integers(2, 10 ** 6),
    st.sampled_from([1.0, 2.0, 3.0, 1.3, 0.5]), st.sampled_from([-1.0, -2.0, -0.7, 0.25]))
_medium_table_specs = st.dictionaries(
    st.sampled_from(sieve.primes_upto(2000).tolist() + [50021, 65537, 199999]),
    st.floats(-4.0, 4.0, allow_nan=False), max_size=60).map(MultFuncSpec.from_table)


@settings(max_examples=25)
@given(st.one_of(_medium_threshold_specs, _medium_table_specs,
                 st.builds(MultFuncSpec.moebius_quotient, _medium_table_specs,
                           _medium_threshold_specs)),
       st.sampled_from([1, 6, 30, 210]),
       st.tuples(st.integers(sieve._LOG_RECURSION, 2 * 10 ** 5),
                 st.floats(0.001, 0.999)).map(sum))
def test_log_weighted_sum_recursion_within_bound(table_medium, spec, q, x):
    assert_log_weighted_within_bound(spec, x, q, table_medium)


def test_log_weighted_sum_recursion_edges(table_medium, monkeypatch):
    # the crossover and one either side of it, both sides of the squares
    # of 227 (the first prime whose square is past the crossover) and of
    # 997 (the largest prime below 1000), and x = 10^6
    c = sieve._LOG_RECURSION
    xs = [c - 1, c - 0.5, c, c + 0.5, c + 1,
          *(p * p + d for p in (227, 997) for d in (-1, 0, 1)), 10 ** 6]
    specs = (MultFuncSpec.threshold(17609, 3, -2), MultFuncSpec.threshold(500, 1.3, -0.7),
             MultFuncSpec.from_table({2: -1.0, 3: 2.5, 227: 3.0, 997: -1.5, 50021: 2.0}))
    real = sieve.values_upto
    fills = []
    monkeypatch.setattr(sieve, "values_upto",
                        lambda *args: fills.append(args[1]) or real(*args))
    for spec in specs:
        for q in (1, 30):
            for x in xs:
                fills.clear()
                assert_log_weighted_within_bound(spec, x, q, table_medium)
                # the brute force fills once, the array route once more
                assert len(fills) == (2 if x < c else 1), (x, fills)


def test_log_weighted_sum_recursion_peak_memory(table_medium):
    # the value array route held five float arrays of 10^6 entries and
    # traced a 30.5 MiB peak here
    spec = MultFuncSpec.threshold(17609, 3, -2)
    tracemalloc.start()
    try:
        sieve.log_weighted_sum(spec, 1e6, 30, table_medium)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_log_weighted_sum_non_finite_prime_values(table_small, table_medium):
    # the non-finite and overflowing products are the point here
    with np.errstate(over="ignore", invalid="ignore"):
        c = sieve._LOG_RECURSION
        ok = MultFuncSpec.from_table({2: -1.0, 3: 2.0})
        for bad in (math.nan, math.inf, -math.inf):
            # NaN as h_sum is, also where bad = inf leaves the direct sum
            # +inf (x = 30)
            spec = MultFuncSpec.threshold(10, 2, bad)
            assert sieve.log_weighted_sum(spec, 10.5, 1, table_small) == \
                sieve.log_weighted_sum(MultFuncSpec.threshold(10, 2, 0), 10.5, 1, table_small)
            for x in (11, 30, 100, 9999.5):
                assert math.isnan(sieve.log_weighted_sum(spec, x, 1, table_small)), (bad, x)
            for x in (c - 1, c, 10 ** 6):
                assert math.isnan(sieve.log_weighted_sum(spec, x, 1, table_medium)), (bad, x)
            # bad at the prime 50021, just past the crossover: read from x =
            # 50021 on, never when it divides q
            spec = MultFuncSpec.from_table({2: -1.0, 3: 2.0, 50021: bad})
            for x in (c - 1, c, 50020.5):
                assert sieve.log_weighted_sum(spec, x, 1, table_medium) == \
                    sieve.log_weighted_sum(ok, x, 1, table_medium), (bad, x)
            for x in (50021, 50021.5, 10 ** 6):
                assert math.isnan(sieve.log_weighted_sum(spec, x, 1, table_medium)), (bad, x)
                assert sieve.log_weighted_sum(spec, x, 50021, table_medium) == \
                    sieve.log_weighted_sum(ok, x, 50021, table_medium), (bad, x)
        # finite values whose products overflow are no NaN: the result's
        # finiteness test is loud, on both sides of the crossover
        huge = MultFuncSpec.from_table({2: 1e300, 3: 1e300})
        for x in (100, c, 10 ** 6):
            with pytest.raises(CrossCheckError):
                sieve.log_weighted_sum(huge, x, 1, table_medium)
        with pytest.raises(CrossCheckError, match="infinite at p = 3"):
            sieve.log_weighted_sum(MultFuncSpec.from_table({3: 1.7e308}), c, 1, table_medium)


def test_dirichlet_convolve_at_prime(table_small):
    a1 = MultFuncSpec.from_table({2: 1.5, 3: -0.5})
    a2 = MultFuncSpec.from_table({2: 0.25, 3: 2.0})
    conv = sieve.dirichlet_convolve(a1, a2, 3, table_small)
    assert conv == Fraction(-0.5) + Fraction(2.0)
    assert sieve.dirichlet_convolve(a1, a2, 1, table_small) == 1


def test_dirichlet_convolve_multiplicative(table_small):
    a1 = MultFuncSpec.from_table({2: 1.5, 3: -0.5})
    a2 = MultFuncSpec.from_table({2: 0.25, 3: 2.0})
    b6 = sieve.dirichlet_convolve(a1, a2, 6, table_small)
    b2 = sieve.dirichlet_convolve(a1, a2, 2, table_small)
    b3 = sieve.dirichlet_convolve(a1, a2, 3, table_small)
    assert b6 == b2 * b3
    # explicit 4-term divisor sum
    v1 = {1: Fraction(1), 2: Fraction(1.5), 3: Fraction(-0.5),
          6: Fraction(1.5) * Fraction(-0.5)}
    v2 = {1: Fraction(1), 2: Fraction(0.25), 3: Fraction(2.0),
          6: Fraction(0.25) * Fraction(2.0)}
    assert b6 == sum(v1[d] * v2[6 // d] for d in (1, 2, 3, 6))


def test_moebius_factor_examples(table_small):
    # g with b = h * g (Dirichlet): g(p) = b(p) - h(p), g(1) = 1, and g
    # is supported on the squarefree n
    g = MultFuncSpec.moebius_quotient(MultFuncSpec.from_table({2: 5.0, 3: 1.0}),
                                      MultFuncSpec.threshold(10, 2, -2))
    assert g.value_exact(2, table_small) == 3
    assert g.value_exact(1, table_small) == 1
    assert g.value_exact(4, table_small) == 0


def test_moebius_roundtrip_small(table_small):
    b = MultFuncSpec.from_table({2: 5.0, 3: 1.0, 5: 0.75})
    h = MultFuncSpec.threshold(4, 2, -2)
    g = MultFuncSpec.moebius_quotient(b, h)
    g6 = g.value_exact(6, table_small)
    total = sum(h.value_exact(d, table_small) * g.value_exact(6 // d, table_small)
                for d in (1, 2, 3, 6))
    assert total == b.value_exact(6, table_small)
    assert g6 == (b.prime_value_exact(2) - h.prime_value_exact(2)) * \
        (b.prime_value_exact(3) - h.prime_value_exact(3))


def test_moebius_roundtrip_all_squarefree(table_small):
    # B from two seeded coefficient streams; exact rational round-trip
    a_stream, _, _ = satake.sample_coeff_triples(1300, "sato-tate", 17)
    b_stream, _, _ = satake.sample_coeff_triples(1300, "sato-tate", 18)
    ps = table_small.primes[:1300].tolist()
    b = MultFuncSpec.from_table(
        {p: float(x + y) for p, x, y in zip(ps, a_stream, b_stream)})
    h = MultFuncSpec.threshold(50, 2, -2)
    g = MultFuncSpec.moebius_quotient(b, h)
    for n in np.flatnonzero(squarefree_flags(10 ** 4)).tolist():
        assert sieve.dirichlet_convolve(h, g, n, table_small) == \
            b.value_exact(n, table_small)


def test_euler_constant_ratio_c2_over_c1():
    e1 = euler_constant_c_exact(1, 10 ** 3)
    e2 = euler_constant_c_exact(2, 10 ** 3)
    assert e2 / e1 == Fraction(1, 2)


def test_euler_constant_matches_exact_product():
    # the float route (a sum of log1p terms) against the exact rational of
    # the same truncated product; 6e-16 relative at worst here
    for a in (1, 2, 30, 97, 210, 1001):
        c, _ = sieve.euler_constant_c(a, 10 ** 3)
        assert c == pytest.approx(float(euler_constant_c_exact(a, 10 ** 3)), rel=1e-12)


def test_euler_constant_truncation_stability():
    c5, tail5 = sieve.euler_constant_c(1, 10 ** 5)
    c6, tail6 = sieve.euler_constant_c(1, 10 ** 6)
    assert abs(c5 - c6) < 1e-6
    assert 0 < tail6 < tail5


def test_euler_tail_factor_bound_mpmath():
    # the proven per-prime bound behind the 3/T tail:
    # -log((1 - 1/p)^2 (1 + 2/p)) < 3/p^2
    with mpmath.workdps(40):
        for p in sieve.primes_upto(10 ** 4).tolist():
            factor = -mpmath.log(1 - mpmath.mpf(3) / p ** 2 + mpmath.mpf(2) / p ** 3)
            assert 0 < factor < mpmath.mpf(3) / p ** 2


def test_euler_tail_bounds_tenfold_truncation():
    for trunc in (10 ** 3, 10 ** 4):
        c, tail = sieve.euler_constant_c(1, trunc)
        c10, _ = sieve.euler_constant_c(1, 10 * trunc)
        assert tail == 3 / trunc
        assert 0 < math.log(c) - math.log(c10) <= tail


def test_euler_constant_exact_ratio_law():
    rng = random.Random(23)
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(20):
        p = rng.choice(small_primes)
        a = rng.randint(1, 100)
        while a % p == 0:
            a = rng.randint(1, 100)
        ca = euler_constant_c_exact(a, 10 ** 3)
        cap = euler_constant_c_exact(a * p, 10 ** 3)
        assert cap / ca == Fraction(p, p + 2)


def test_euler_constant_primorial_scan():
    # c(a) * (log log a)^2 stays bounded away from 0 on primorials
    a = 1
    worst = math.inf
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        a *= p
        c, _ = sieve.euler_constant_c(a, 10 ** 4)
        assert c > 0
        if a > 15:
            worst = min(worst, c * math.log(math.log(a)) ** 2)
    assert worst > 0


def test_euler_constant_rejects_bad_args():
    with pytest.raises(InvalidInputError):
        sieve.euler_constant_c(0, 10 ** 4)
    with pytest.raises(InvalidInputError):
        sieve.euler_constant_c(1, 100)


def test_asymptotic_report_trend():
    rows_1000 = sieve.asymptotic_report(1000, [0.5, 1.0, 1.5], 1, (2.0, -2.0))
    rows_100 = sieve.asymptotic_report(100, [1.5], 1, (2.0, -2.0))
    for r in rows_1000 + rows_100:
        assert math.isfinite(r["rel_error"])
    err_100 = rows_100[0]["rel_error"]
    err_1000 = rows_1000[2]["rel_error"]
    assert err_1000 < err_100


def test_asymptotic_report_rows_equal_h_sum(monkeypatch):
    # each row is one h_sum call at t = y^u
    real_h_sum, ts = sieve.h_sum, []
    monkeypatch.setattr(sieve, "h_sum", lambda spec, t, q: ts.append(t) or
                        real_h_sum(spec, t, q))
    for y, weights, q in ((1000, (2.0, -2.0), 1), (997, (1.5, -0.75), 30),
                          (50, (1.3, -2.7), 6)):
        grid = [0.0, 0.5, 1.0, 1.25, 1.9] if y < 100 else [0.5, 1.0, 1.9]
        ts.clear()
        rows = sieve.asymptotic_report(y, grid, q, weights)
        assert ts == [int(y ** u) for u in grid]
        spec = MultFuncSpec.threshold(y, *weights)
        assert [r["exact"] for r in rows] == [
            sieve.h_sum(spec, y ** u, q) for u in grid]
    for grid, bad in (([-0.5, 1.0], "-0.5"), ([1.0, float("nan")], "nan")):
        with pytest.raises(InvalidInputError, match=f"u = {bad} in the grid"):
            sieve.asymptotic_report(100, grid, 1, (2.0, -2.0))


def _u_landing_on(y, t):
    """A u with int(y ** u) == t."""
    u = math.log(t) / math.log(y)
    while int(y ** u) < t:
        u = math.nextafter(u, math.inf)
    while int(y ** u) > t:
        u = math.nextafter(u, -math.inf)
    assert int(y ** u) == t
    return u


# rows at large t, out of order and one twice
_edge_ts = [_block_ts[4], *_block_ts, 10 ** 6 - 1, _block_ts[0]]


def test_asymptotic_report_integer_rows_equal_array_sums(table_medium):
    # integer sums below 2^53 are exact, so the blocked order of the
    # report adds to the sum over the whole array bit for bit
    y = 997
    grid = [_u_landing_on(y, t) for t in _edge_ts]
    for weights, q in (((2.0, -2.0), 1), ((3.0, -1.0), 30), ((1.0, -3.0), 7)):
        rows = sieve.asymptotic_report(y, grid, q, weights)
        spec = MultFuncSpec.threshold(y, *weights)
        vals = sieve.values_upto(spec, 10 ** 6, q, table_medium)
        assert [r["exact"] for r in rows] == [
            float(np.sum(vals[:t + 1])) for t in _edge_ts]


def test_asymptotic_report_rows_within_gamma_n_of_exact_sum(table_medium):
    # any order of adding n floats v is within gamma_{n-1} sum |v| of the
    # exact sum (Higham 2002, sec. 4.2), and fsum rounds that once more
    y = 997
    grid = [_u_landing_on(y, t) for t in _edge_ts]
    for weights, q in (((1.3, -0.7), 1), ((1.1, -2.9), 30)):
        rows = sieve.asymptotic_report(y, grid, q, weights)
        spec = MultFuncSpec.threshold(y, *weights)
        vals = sieve.values_upto(spec, 10 ** 6, q, table_medium)
        for t, row in zip(_edge_ts, rows):
            n = t + 1
            gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
            exact = math.fsum(vals[:n].tolist())
            assert abs(row["exact"] - exact) <= gamma * float(np.sum(np.abs(vals[:n])))
            assert row["exact"] == sieve.h_sum(spec, t, q), t
            # the proven bound of h_sum, against the exact sum of the
            # exact products
            err = Fraction(row["exact"]) - exact_threshold_sum(y, *weights, t, q,
                                                               table_medium)
            assert abs(err) <= h_sum_error_bound(spec, t, q, table_medium), t


def test_asymptotic_report_holds_no_value_array():
    # t = 10^(4 * 1.8) = 1.58 * 10^7: the values up to t take 127 MB and a
    # table up to t 24 MB; the report holds neither.  Its traced peak read
    # 3.07 MiB (numpy 2, CPython 3), set by the sieve to 10^6 of
    # euler_constant_c; the recursion at t alone peaked at 1.85 MiB
    tracemalloc.start()
    try:
        rows = sieve.asymptotic_report(10 ** 4, [0.5, 1.0, 1.5, 1.8], 30,
                                       (2.0, -2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(10 ** (4 * 1.8)) > 1.58e7
    assert [r["exact"] for r in rows] == [53.0, 8253.0, 368387.0, 395645.0]
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


def test_asymptotic_positive_increasing_below_one():
    spec = MultFuncSpec.threshold(1000, 2, -2)
    values = [sieve.h_sum(spec, 1000 ** u, 1)
              for u in (0.25, 0.5, 0.75, 1.0)]
    assert all(v > 0 for v in values)
    assert values == sorted(values)


def test_asymptotic_report_range_error():
    with pytest.raises(InvalidInputError, match="exceeds the limit 10000$"):
        sieve.asymptotic_report(1000, [2.0], 1, (2.0, -2.0), limit=10 ** 4)
    with pytest.raises(ResourceLimitError, match="hard cap"):
        sieve.asymptotic_report(10 ** 4, [0.5, 2.1], 1, (2.0, -2.0))
    # an empty grid is no bare ValueError from max()
    with pytest.raises(InvalidInputError, match="u grid is empty"):
        sieve.asymptotic_report(10, [], 1, (2, -2))
    with pytest.raises(InvalidInputError, match="y must be >= 2, got 1$"):
        sieve.asymptotic_report(1, [1.0], 1, (2, -2))


def _exceptional_below_convolution(table, y, seed):
    """B = A_1 + A_2 at primes, with member 1 violating the Ramanujan
    bound at every p <= y (the scenario the lower-bound inequality sieves)."""
    ps = table.primes.tolist()
    rng = np.random.default_rng(seed)
    a2_st, _, _ = satake.sample_coeff_triples(len(ps), "sato-tate", seed)
    values = {}
    for i, p in enumerate(ps):
        if p <= y:
            nu = (7 / 64) * (1.0 - rng.random())
            a1 = p ** (2 * nu) + 1.0 + p ** (-2 * nu)   # adjoint value > 3
        else:
            a1 = float(a2_st[i])
        a2 = float(a2_st[len(ps) - 1 - i])
        values[p] = a1 + a2
    return MultFuncSpec.from_table(values)


def test_lower_bound_check_exceptional_stream(table_small):
    # preconditions verified to hold at y = 500, z = 10^4; smaller y
    # breaks the partial-sum positivity at this z
    y = 500
    b = _exceptional_below_convolution(table_small, y, 5)
    h = MultFuncSpec.threshold(y, 2, -2)
    assert sieve.lower_bound_check(b, h, 10 ** 4, 1, table_small)


def test_lower_bound_check_equality_when_h_is_b(table_small):
    h = MultFuncSpec.threshold(500, 2, -2)
    assert sieve.lower_bound_check(h, h, 10 ** 4, 1, table_small)
    # g = b/h is supported at 1 only, so the two sides coincide
    g = MultFuncSpec.moebius_quotient(h, h)
    for p in (2, 3, 499, 503):
        assert g.value_exact(p, table_small) == 0


def test_lower_bound_check_fills_h_once(table_small, monkeypatch):
    # the sweep's values of h also feed the right-hand log-weighted sum
    h = MultFuncSpec.threshold(500, 2, -2)
    b = MultFuncSpec.from_table({int(p): h.prime_value(int(p)) + 0.5
                                 for p in table_small.primes[:200]})
    fills = []
    real = sieve.values_upto

    def spy(spec, t, q, table):
        fills.append((spec, t))
        return real(spec, t, q, table)
    monkeypatch.setattr(sieve, "values_upto", spy)
    for z, q in ((4000, 1), (2500.5, 6)):
        fills.clear()
        assert sieve.lower_bound_check(b, h, z, q, table_small)
        assert [t for spec, t in fills if spec is h] == [int(z)]
        assert [t for spec, t in fills if spec is b] == [int(z)]
        # the right-hand side is log_weighted_sum(h, z, q) bit for bit
        assert sieve._log_weighted_sum(real(h, int(z), q, table_small), z) == \
            sieve.log_weighted_sum(h, z, q, table_small)


def test_lower_bound_check_recursion_route_fills_h_once(table_medium, monkeypatch):
    # above the crossover both sides are prime-sum recursions: the sweep
    # fills h once and b is never filled
    h = MultFuncSpec.threshold(3000, 2, -2)
    b = MultFuncSpec.threshold(3000, 2.5, -2)
    fills = []
    real = sieve.values_upto

    def spy(spec, t, q, table):
        fills.append((spec, t))
        return real(spec, t, q, table)
    monkeypatch.setattr(sieve, "values_upto", spy)
    for z, q in ((sieve._LOG_RECURSION, 1), (60000.5, 6)):
        fills.clear()
        assert sieve.lower_bound_check(b, h, z, q, table_medium)
        assert fills == [(h, int(z))]
    # b = h: both sides are the same log_weighted_sum, bit for bit
    sums = []
    real_sum = sieve.log_weighted_sum
    monkeypatch.setattr(sieve, "log_weighted_sum",
                        lambda *args: sums.append(real_sum(*args)) or sums[-1])
    assert sieve.lower_bound_check(h, h, 60000.5, 6, table_medium)
    assert len(sums) == 2 and sums[0] == sums[1], sums


def test_lower_bound_check_h_positivity_witness(table_small):
    # at y = 50 the partial sums of h go negative before z = 10^4
    h = MultFuncSpec.threshold(50, 2, -2)
    b = _exceptional_below_convolution(table_small, 50, 9)
    with pytest.raises(PreconditionError) as exc:
        sieve.lower_bound_check(b, h, 10 ** 4, 1, table_small)
    t, r = exc.value.witness
    vals = sieve.values_upto(h, 10 ** 4, r, table_small)
    assert float(np.sum(vals[:t + 1])) < 0


def test_lower_bound_check_witness_on_violation(table_small):
    # B(2) < h(2) breaks nonnegativity of g at p = 2
    b = MultFuncSpec.from_table({int(p): 1.0 for p in table_small.primes[:100]})
    h = MultFuncSpec.threshold(50, 2, -2)
    with pytest.raises(PreconditionError) as exc:
        sieve.lower_bound_check(b, h, 500, 1, table_small)
    assert exc.value.witness == ("g", 2)


def test_lower_bound_check_rejects_non_finite_prime_values():
    # the g check and the sweep pass these, and both sums would be NaN
    table = sieve.build_table(2000)
    h = MultFuncSpec.threshold(500, 2, -2)
    values = dict(zip(table.primes.tolist(), h.prime_values(table.primes).tolist()))
    for b, h_bad, message in (
            (MultFuncSpec.from_table({**values, 3: math.nan}), h, r"b\(3\) = nan"),
            (h, MultFuncSpec.from_table({**values, 997: math.nan}), r"h\(997\) = nan"),
            (MultFuncSpec.from_table({**values, 3: math.inf}), h, r"b\(3\) = inf")):
        with pytest.raises(InvalidInputError, match=message + " is not finite"):
            sieve.lower_bound_check(b, h_bad, 1000, 1, table)


def positivity_sweep_reference(h, z, q, table):
    """The r-by-r scan lower_bound_check replaced: for every squarefree
    r <= z, the running sum of h's values with the multiples of r's
    primes zeroed.  Returns the first (t, r) witness with its message, or
    None."""
    base = sieve.values_upto(h, z, q, table)
    for r in np.flatnonzero(squarefree_flags(z)).tolist():
        vals = base.copy()
        for p in table.factor(r):
            if q % p != 0:
                vals[p::p] = 0.0
        H = np.cumsum(vals)
        worst = int(np.argmin(H[1:])) + 1
        if H[worst] < 0:
            return ((worst, r),
                    f"partial sum of h negative at t = {worst} for r = {r}")
    return None


def sweep_outcome(h, z, q, table):
    """The positivity verdict of lower_bound_check(h, h, ...), whose g
    check passes: the witness and message it raises, or None."""
    try:
        sieve.lower_bound_check(h, h, z, q, table)
    except PreconditionError as exc:
        return exc.witness, str(exc)
    except (CrossCheckError, InvalidInputError):    # raised after the sweep passed
        pass
    return None


# thresholds up to y = 3000 pass the sweep at some z <= 3000, so the
# parents and block minima are reached, not only r = 1
_sweep_thresholds = st.builds(
    lambda y, chi0, chi1, q: (MultFuncSpec.threshold(y, chi0, chi1), q),
    st.integers(2, 3000), st.sampled_from([1.0, 2.0, 3.0, 0.5]),
    st.sampled_from([-1.0, -2.0, -3.0, -0.25]), st.just(1))


@settings(deadline=None, max_examples=60)
@given(st.one_of(_threshold_specs, _table_specs, _quotient_specs,
                 _sweep_thresholds),
       st.sampled_from([1, 2, 6, 30, 210]), st.integers(2, 3000))
def test_positivity_sweep_matches_reference(table_small, spec_oracle, q, z):
    spec = spec_oracle[0]
    assert sweep_outcome(spec, z, q, table_small) == \
        positivity_sweep_reference(spec, z, q, table_small)


def test_positivity_sweep_matches_reference_grid(table_small):
    # thresholds around the y where the sweep starts to pass at z = 3000,
    # and non-integer tables that fail at deep r or pass
    rng = np.random.default_rng(11)
    ps = sieve.primes_upto(3000).tolist()
    specs = [MultFuncSpec.threshold(y, chi0, -2.0)
             for y in (100, 200, 300, 500) for chi0 in (2.0, 1.5)]
    specs += [MultFuncSpec.from_table(dict(zip(ps, rng.choice(vals, len(ps)))))
              for vals in ([1.5, 0.25, -0.75, 2.0], [0.3, 0.7, 1.1, -0.1])]
    for spec in specs:
        for q in (1, 2, 6, 30, 210):
            assert sweep_outcome(spec, 3000, q, table_small) == \
                positivity_sweep_reference(spec, 3000, q, table_small)


def test_children_minima_equal_direct_estimate(table_small):
    # the prefix, block and suffix minima give exactly the minimum over
    # 1 <= t <= z of fl(H_s(t) - fl(h(P) H_r(t // P))), taken here t by t
    # from the r-by-r partial sums
    rng = np.random.default_rng(5)
    primes = sieve.primes_upto(3000)
    # threshold weights, one with non-integer noise, whose partial sums
    # dip late: the minima sit below P, in the full blocks and in the last
    # block, for P on both sides of sqrt(z)
    noisy = np.where(primes <= 230, rng.choice([1.25, 1.75], primes.size),
                     rng.choice([-1.75, -2.25], primes.size))
    specs = (MultFuncSpec.from_table(dict(zip(primes.tolist(), noisy))),
             MultFuncSpec.threshold(230, 1.5, -2.0))

    def partial_sums(base, r_primes):
        vals = base.copy()
        for p in r_primes:
            vals[p::p] = 0.0
        return np.cumsum(vals)
    for h, (z, q) in itertools.product(specs, ((3000, 1), (2047, 35), (1024, 6))):
        base = sieve.values_upto(h, z, q, table_small)
        ps = primes[(primes <= z) & (q % primes != 0)]
        for s_primes in ((), (2,), (3,), (2, 5), (2, 5, 7), (5, 7)):
            if any(q % p == 0 for p in s_primes):
                continue
            s = math.prod(s_primes)
            Ps = ps[(ps > max(s_primes, default=1)) & (ps <= z // s)]
            Ws = h.prime_values(Ps)
            H_s = partial_sums(base, s_primes)
            want = [float(np.min((H_s - w * partial_sums(base, s_primes + (P,))[
                        np.arange(z + 1) // P])[1:]))
                    for P, w in zip(Ps.tolist(), Ws)]
            got = sieve._children_minima(base, s_primes, Ps, Ws, z)
            assert got.tolist() == want


def test_positivity_sweep_pinned_1e5(monkeypatch):
    table = sieve.build_table(10 ** 5)
    h = MultFuncSpec.threshold(500, 2, -2)
    for z in (4000, 8000, 16000):
        assert sieve.lower_bound_check(h, h, z, 1, table) is True
    witness = ((23993, 210), "partial sum of h negative at t = 23993 for r = 210")
    assert positivity_sweep_reference(h, 24000, 1, table) == witness
    # early exit: the parents ascend, so only those below the witness get
    # their full partial sums, and then the witness itself
    full = []
    real = sieve._partial_sums

    def spy(base, primes, length):
        if length == 24001:
            full.append(math.prod(primes))
        return real(base, primes, length)
    monkeypatch.setattr(sieve, "_partial_sums", spy)
    assert sweep_outcome(h, 24000, 1, table) == witness
    assert full[-1] == 210 and max(full[:-1]) < 210


def test_positivity_sweep_margin_fallback(table_small, monkeypatch):
    full = []    # the r that get their own partial sums up to z
    real = sieve._partial_sums

    def spy(base, primes, length):
        if length == len(base):
            full.append(math.prod(primes))
        return real(base, primes, length)
    monkeypatch.setattr(sieve, "_partial_sums", spy)
    # h(2) = -1 and h(p) = 1/2 at odd p: for odd r, H_r(t) = G(t) - G(t/2)
    # with G increasing over the odd n, so min H_r = H_r(2) = 0 exactly,
    # inside the float margin; even r have min H_r = 1
    z = 2000
    h = MultFuncSpec.from_table(
        {p: (-1.0 if p == 2 else 0.5) for p in sieve.primes_upto(z).tolist()})
    assert sweep_outcome(h, z, 1, table_small) is None
    assert positivity_sweep_reference(h, z, 1, table_small) is None
    assert 1999 in full               # no parent: its own sums, via the margin
    assert 2 * 997 not in full        # certified by its estimate
    # prime values outside the proven range (a NaN, one near 2^-1074):
    # every r below the witness takes its own sums, with the scan's verdict
    for h, q in itertools.product(
            (MultFuncSpec.from_table({5: math.nan, 7: -5.0, 11: 1.0}),
             MultFuncSpec.from_table({2: -5.0, 29: math.nan}),
             MultFuncSpec.from_table({2: 0.5, 5: 5e-324})), (1, 6)):
        full.clear()
        got = sweep_outcome(h, 400, q, table_small)
        assert got == positivity_sweep_reference(h, 400, q, table_small)
        below = got[0][1] if got else 401
        assert set(full) >= {r for r in np.flatnonzero(squarefree_flags(below - 1)).tolist()
                             if math.gcd(r, q) == 1}
    # a NaN at p = 29 > sqrt(z) makes H_s NaN at the multiples of 29, but
    # H_29 is finite with minimum -4: the NaN estimate is no proof
    h = MultFuncSpec.from_table({2: -5.0, 29: math.nan})
    assert sweep_outcome(h, 400, 1, table_small) == (
        (2, 29), "partial sum of h negative at t = 2 for r = 29")


def test_non_finite_arguments_rejected(table_small):
    h = MultFuncSpec.threshold(10, 2, -2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="z must lie"):
            sieve.lower_bound_check(h, h, bad, 1, table_small)
        with pytest.raises(InvalidInputError, match="x must be finite"):
            sieve.log_weighted_sum(h, bad, 1, table_small)
        # h_sum reads no table: inf is past the hard cap, like any t above it
        exc, match = ((ResourceLimitError, "hard cap") if bad == math.inf
                      else (InvalidInputError, "t must lie"))
        with pytest.raises(exc, match=match):
            sieve.h_sum(h, bad, 1)
        with pytest.raises(InvalidInputError, match="t must lie"):
            sieve.values_upto(h, bad, 1, table_small)
    # below 1: the message names the t passed, not int(t)
    with pytest.raises(InvalidInputError, match=r"t must lie in \[1, 10000\], got 0\.5$"):
        sieve.values_upto(h, 0.5, 1, table_small)
    with pytest.raises(InvalidInputError, match=r"t must lie in \[1, 200000000\], got 0\.5$"):
        sieve.h_sum(h, 0.5, 1)
    # h_sum reads no table: only the hard cap bounds t
    with pytest.raises(ResourceLimitError, match="hard cap"):
        sieve.h_sum(h, sieve.HARD_LIMIT + 1, 1)
    # past the table on both routes: the recursion reads no values_upto
    for x in (10 ** 4 + 1, sieve._LOG_RECURSION + 0.5):
        with pytest.raises(InvalidInputError, match="t must lie"):
            sieve.log_weighted_sum(h, x, 1, table_small)


def test_local_factor_cancellation_examples():
    coeffs = sieve.local_factor_coeffs(3.0, 3.0)
    assert coeffs[1] == 0
    coeffs = sieve.local_factor_coeffs(3.0, -1.0)
    assert coeffs[1] == 0
    assert coeffs[2] == Fraction(-5)
    # x^0..x^6 of the integer product, the same at every prime
    want = np.convolve(np.convolve([1, -3, 3, -1], [1, 1, -1, -1]), [1, 2])
    assert coeffs == want[:7].tolist()
    with pytest.raises(TypeError):
        sieve.local_factor_coeffs(3.0, -1.0, 101)


def test_local_factor_cancellation_random():
    rng = random.Random(31)
    for _ in range(1000):
        a1 = rng.uniform(-5, 5)
        a2 = rng.uniform(-5, 5)
        coeffs = sieve.local_factor_coeffs(a1, a2)
        assert coeffs[1] == 0
        assert coeffs[2] == Fraction(a1) * Fraction(a2) + Fraction(a1) \
            + Fraction(a2) - (Fraction(a1) + Fraction(a2)) ** 2


def test_local_factor_envelope_bound():
    # x^2 coefficient bounded by 5 * (adjoint envelope)^2; the bare
    # power-law form without the envelope cross terms fails at p = 101
    p = 101
    a_bound = p ** (7 / 32) + p ** (-7 / 32) + 1.0    # E(p), the bound on |A|
    for a1 in (a_bound, -a_bound):
        for a2 in (a_bound, -a_bound):
            c2 = sieve.local_factor_coeffs(a1, a2)[2]
            assert abs(c2) <= 5 * Fraction(a_bound) ** 2


def test_multfuncspec_coprimality_default():
    spec = MultFuncSpec.threshold(10, 2, -2, q=6)
    assert sieve.h_sum(spec, 10, None) == 5.0


@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([11, 13, 17, 19]))
def test_value_multiplicative_on_coprime_squarefree(p1, p2):
    table = sieve.build_table(1000)
    spec = MultFuncSpec.threshold(12, 2, -2)
    assert spec.value(p1 * p2, table) == spec.value(p1, table) * spec.value(p2, table)
