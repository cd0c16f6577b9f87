import bisect
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maasslab import satake, sieve
from maasslab.errors import (CrossCheckError, InvalidInputError,
                             PreconditionError, ResourceLimitError)
from maasslab.sieve import MultFuncSpec


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


def values_upto_reference(spec, t, q, table):
    """The per-prime loop values_upto replaced: every multiple of each
    prime p <= t multiplied by the value at p, primes ascending."""
    vals = np.where(table.squarefree[:t + 1], 1.0, 0.0)
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
    assert not table_small.is_squarefree(90)
    assert table_small.is_squarefree(30)


def test_factor_smallest_prime_matches_naive_division(table_small):
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, table_small.limit)
        p = min(table_small.factor(n))
        assert n % p == 0
        assert all(n % d for d in range(2, p))


def test_build_table_resource_limits():
    with pytest.raises(ResourceLimitError):
        sieve.build_table(10 ** 7 + 1)
    with pytest.raises(ResourceLimitError):
        sieve.build_table(3 * 10 ** 8, allow_large=True)
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
    assert t.factor(2 * 10 ** 7 - 1) and not t.is_squarefree(18 * 10 ** 6)
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
    with pytest.raises(ValueError):
        table_small.squarefree[4] = True
    assert table_small.primes[0] == 2 and not table_small.squarefree[4]


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
                    (q, lambda: sieve.euler_constant_c_exact(q, 10 ** 3)),
                    (10211, lambda: satake.SatakeLocal.from_angle(10211, 1.0))):
        with pytest.raises(ResourceLimitError, match=str(n)):
            call()


def test_is_squarefree_range_checked():
    table = sieve.build_table(10)
    assert table.is_squarefree(10) and table.is_squarefree(1)
    for n in (-1, 0, 11):
        with pytest.raises(InvalidInputError, match=rf"\[1, 10\], got {n}$"):
            table.is_squarefree(n)
    with pytest.raises(InvalidInputError):
        MultFuncSpec.threshold(5, 2, -2).value(-2, table)


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


# t on either side of the first block edges of values_upto
_block_ts = [k * sieve._BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


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


def test_values_upto_entry_zero_is_positive_zero(table_medium):
    # w(2) < 0: a multiply of v[0] would leave -0.0 there
    spec = MultFuncSpec.threshold(10, -2.0, 1.0)
    for t in (1, 2, 3, 100, sieve._BLOCK - 1, sieve._BLOCK + 1):
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


def test_h_sum_hand_examples(table_small):
    spec = MultFuncSpec.threshold(10, 2, -2)
    assert sieve.h_sum(spec, 10, 1, table_small) == 17.0
    assert sieve.h_sum(spec, 10, 6, table_small) == 5.0
    assert sieve.h_sum(spec, 1, 1, table_small) == 1.0


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
        assert sieve.h_sum(spec, t, q, table_small) == pytest.approx(
            expected, abs=1e-9)


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
    expected = sum(math.log(30 / n) for n in range(1, 31)
                   if table_small.is_squarefree(n))
    assert sieve.log_weighted_sum(ones, 30.0, 1, table_small) == pytest.approx(
        expected, rel=1e-12)


def test_log_weighted_dual_routes_random(table_small):
    rng = random.Random(3)
    for _ in range(100):
        y = rng.randint(2, 500)
        chi0 = float(rng.randint(1, 4))
        chi1 = -float(rng.randint(1, 4))
        x = rng.uniform(2, 5000)
        spec = MultFuncSpec.threshold(y, chi0, chi1)
        sieve.log_weighted_sum(spec, x, 1, table_small)  # raises on mismatch


@given(st.one_of(_threshold_specs, _table_specs, _quotient_specs),
       st.sampled_from([1, 6, 30, 210]), st.floats(1.0, 3000.0))
def test_log_weighted_sum_property_brute_force(table_small, spec_oracle, q, x):
    spec, _ = spec_oracle
    terms = [spec.value(n, table_small) * math.log(x / n)
             for n in range(1, int(x) + 1) if math.gcd(n, q) == 1]
    scale = sum(map(abs, terms)) + 1.0
    assert sieve.log_weighted_sum(spec, x, q, table_small) == pytest.approx(
        math.fsum(terms), rel=0, abs=1e-12 * scale)


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
    b = MultFuncSpec.from_table({2: 5.0, 3: 1.0})
    h = MultFuncSpec.threshold(10, 2, -2)
    assert sieve.moebius_factor(b, h, 2, table_small) == 3
    assert sieve.moebius_factor(b, h, 1, table_small) == 1
    with pytest.raises(InvalidInputError):
        sieve.moebius_factor(b, h, 4, table_small)


def test_moebius_roundtrip_small(table_small):
    b = MultFuncSpec.from_table({2: 5.0, 3: 1.0, 5: 0.75})
    h = MultFuncSpec.threshold(4, 2, -2)
    g6 = sieve.moebius_factor(b, h, 6, table_small)
    total = sum(h.value_exact(d, table_small)
                * sieve.moebius_factor(b, h, 6 // d, table_small)
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
    for n in range(1, 10 ** 4 + 1):
        if not table_small.is_squarefree(n):
            continue
        assert sieve.dirichlet_convolve(h, g, n, table_small) == \
            b.value_exact(n, table_small)


def test_euler_constant_ratio_c2_over_c1():
    e1 = sieve.euler_constant_c_exact(1, 10 ** 3)
    e2 = sieve.euler_constant_c_exact(2, 10 ** 3)
    assert e2 / e1 == Fraction(1, 2)


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
        ca = sieve.euler_constant_c_exact(a, 10 ** 3)
        cap = sieve.euler_constant_c_exact(a * p, 10 ** 3)
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


def test_asymptotic_report_trend(table_medium):
    rows_1000 = sieve.asymptotic_report(1000, [0.5, 1.0, 1.5], 1, (2.0, -2.0),
                                        table_medium)
    rows_100 = sieve.asymptotic_report(100, [1.5], 1, (2.0, -2.0), table_medium)
    for r in rows_1000 + rows_100:
        assert math.isfinite(r["rel_error"])
    err_100 = rows_100[0]["rel_error"]
    err_1000 = rows_1000[2]["rel_error"]
    assert err_1000 < err_100


def test_asymptotic_report_rows_equal_h_sum(table_medium):
    # one fill at the largest t serves every row, bit for bit
    for y, weights, q in ((1000, (2.0, -2.0), 1), (997, (1.5, -0.75), 30),
                          (50, (1.3, -2.7), 6)):
        grid = [0.0, 0.5, 1.0, 1.25, 1.9] if y < 100 else [0.5, 1.0, 1.9]
        rows = sieve.asymptotic_report(y, grid, q, weights, table_medium)
        spec = MultFuncSpec.threshold(y, *weights)
        assert [r["exact"] for r in rows] == [
            sieve.h_sum(spec, y ** u, q, table_medium) for u in grid]
    for grid, bad in (([-0.5, 1.0], "-0.5"), ([1.0, float("nan")], "nan")):
        with pytest.raises(InvalidInputError, match=f"u = {bad} in the grid"):
            sieve.asymptotic_report(100, grid, 1, (2.0, -2.0), table_medium)


def test_asymptotic_positive_increasing_below_one(table_medium):
    spec = MultFuncSpec.threshold(1000, 2, -2)
    values = [sieve.h_sum(spec, 1000 ** u, 1, table_medium)
              for u in (0.25, 0.5, 0.75, 1.0)]
    assert all(v > 0 for v in values)
    assert values == sorted(values)


def test_asymptotic_report_range_error(table_small):
    with pytest.raises(InvalidInputError):
        sieve.asymptotic_report(1000, [2.0], 1, (2.0, -2.0), table_small)


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
    for p in (2, 3, 499, 503):
        assert sieve.moebius_factor(h, h, p, table_small) == 0


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


def positivity_sweep_reference(h, z, q, table):
    """The r-by-r scan lower_bound_check replaced: for every squarefree
    r <= z, the running sum of h's values with the multiples of r's
    primes zeroed.  Returns the first (t, r) witness with its message, or
    None."""
    base = sieve.values_upto(h, z, q, table)
    for r in np.flatnonzero(table.squarefree[:z + 1]).tolist():
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
    except CrossCheckError:    # raised after the sweep passed
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
        assert set(full) >= {r for r in range(1, below) if math.gcd(r, q) == 1
                             and table_small.is_squarefree(r)}
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
        with pytest.raises(InvalidInputError, match="t must lie"):
            sieve.h_sum(h, bad, 1, table_small)
        with pytest.raises(InvalidInputError, match="t must lie"):
            sieve.values_upto(h, bad, 1, table_small)


def test_local_factor_cancellation_examples():
    coeffs = sieve.local_factor_coeffs(3.0, 3.0, 7)
    assert coeffs[1] == 0
    coeffs = sieve.local_factor_coeffs(3.0, -1.0, 7)
    assert coeffs[1] == 0
    assert coeffs[2] == Fraction(-5)


def test_local_factor_cancellation_random():
    rng = random.Random(31)
    for _ in range(1000):
        a1 = rng.uniform(-5, 5)
        a2 = rng.uniform(-5, 5)
        coeffs = sieve.local_factor_coeffs(a1, a2, 101)
        assert coeffs[1] == 0
        assert coeffs[2] == Fraction(a1) * Fraction(a2) + Fraction(a1) \
            + Fraction(a2) - (Fraction(a1) + Fraction(a2)) ** 2


def test_local_factor_envelope_bound():
    # x^2 coefficient bounded by 5 * (adjoint envelope)^2; the bare
    # power-law form without the envelope cross terms fails at p = 101
    p = 101
    _, a_bound = satake.kim_sarnak_envelope(p)
    for a1 in (a_bound, -a_bound):
        for a2 in (a_bound, -a_bound):
            c2 = sieve.local_factor_coeffs(a1, a2, p)[2]
            assert abs(c2) <= 5 * Fraction(a_bound) ** 2


def test_multfuncspec_coprimality_default(table_small):
    spec = MultFuncSpec.threshold(10, 2, -2, q=6)
    assert sieve.h_sum(spec, 10, None, table_small) == 5.0


@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([11, 13, 17, 19]))
def test_value_multiplicative_on_coprime_squarefree(p1, p2):
    table = sieve.build_table(1000)
    spec = MultFuncSpec.threshold(12, 2, -2)
    assert spec.value(p1 * p2, table) == spec.value(p1, table) * spec.value(p2, table)
