import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maasslab import satake, sieve
from maasslab.errors import InvalidInputError, ResourceLimitError
from maasslab.satake import KIM_SARNAK_NU
from oracles import (EIGENVALUE_TOL, UNIT_MODULUS_TOL, CoeffTriple, SatakeLocal,
                     sample_satake, sym_coeffs)


def _adjoint(s):
    """A = |lambda|^2 - 1, read from the eigenvalue alone, as the scan
    reads it; the parameter sum sym_coeffs(s).a2 is its oracle."""
    return abs(s.lam) ** 2 - 1.0


def test_adjoint_at_boundary_eigenvalue():
    s = SatakeLocal.from_angle(2, 0.0)
    assert _adjoint(s) == pytest.approx(3.0, abs=1e-12)


def test_adjoint_at_zero_eigenvalue():
    s = SatakeLocal.from_angle(2, math.pi / 2)
    assert _adjoint(s) == pytest.approx(-1.0, abs=1e-12)


def test_adjoint_at_envelope_eigenvalue():
    # direct evaluation at p = 2: lambda = 2^{7/64} + 2^{-7/64}
    lam = 2 ** (7 / 64) + 2 ** (-7 / 64)
    s = SatakeLocal.from_eigenvalue(2, lam)
    assert _adjoint(s) == pytest.approx(lam * lam - 1.0, abs=1e-12)
    assert lam == pytest.approx(2.005750, abs=1e-6)


def test_from_angle_accepts_exactly_the_primes():
    primes = set(sieve.primes_upto(10 ** 4).tolist())
    for p in range(10 ** 4 + 1):
        for arg in (p, np.int64(p)):
            if p in primes:
                assert SatakeLocal.from_angle(arg, 1.0).p == p
            else:
                with pytest.raises(InvalidInputError, match="must be prime"):
                    SatakeLocal.from_angle(arg, 1.0)
    for bad in (True, False, 7.0, np.float64(7.0), "7"):
        with pytest.raises(InvalidInputError, match="must be prime"):
            SatakeLocal.from_angle(bad, 1.0)
    assert SatakeLocal.from_angle(np.int32(9973), 1.0).p == 9973


def test_adjoint_rejects_malformed_pair():
    with pytest.raises(InvalidInputError):
        _adjoint(
            SatakeLocal(p=5, lam=2.0, u=1.3 + 0j, tempered=True, theta_or_nu=0.0))


def test_sym_coeffs_at_angle_zero():
    t = sym_coeffs(SatakeLocal.from_angle(3, 0.0))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((3.0, 16.0, 5.0), abs=1e-12)


def test_sym_coeffs_at_right_angle():
    t = sym_coeffs(SatakeLocal.from_angle(3, math.pi / 2))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)


def test_sym_coeffs_at_third_of_pi():
    # c = 1/2: closed forms give (4c^2-1, (8c^3-4c)^2, 16c^4-12c^2+1) = (0, 1, -1)
    t = sym_coeffs(SatakeLocal.from_angle(5, math.pi / 3))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((0.0, 1.0, -1.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi / 2, 1.234, math.pi])
def test_sym_coeffs_match_closed_forms_tempered(theta):
    c = math.cos(theta)
    t = sym_coeffs(SatakeLocal.from_angle(7, theta))
    assert t.a2 == pytest.approx(4 * c * c - 1, abs=1e-10)
    assert t.a3_abs_sq == pytest.approx((8 * c ** 3 - 4 * c) ** 2, abs=1e-10)
    assert t.a4 == pytest.approx(16 * c ** 4 - 12 * c ** 2 + 1, abs=1e-10)


def test_hecke_identities_examples():
    for s in (SatakeLocal.from_angle(2, math.pi / 3),
              SatakeLocal.from_angle(2, 0.0),
              SatakeLocal.from_deviation(5, 7 / 64)):
        r1, r2 = sym_coeffs(s).identity_residuals()
        assert r1 < 1e-10 and r2 < 1e-10


def test_is_ramanujan_boundary_included():
    # theta = 0 gives |lambda| = 2 exactly, on the closed Ramanujan boundary
    assert abs(SatakeLocal.from_angle(11, 0.0).lam) == 2.0
    assert abs(SatakeLocal.from_angle(11, math.pi / 2).lam) <= 2.0


def test_is_ramanujan_false_forces_large_coeffs():
    s = SatakeLocal.from_deviation(7, 1 / 32)
    assert abs(s.lam) > 2.0
    a = _adjoint(s)
    assert a > 3.0
    assert a == pytest.approx(1 + 7 ** (1 / 16) + 7 ** (-1 / 16), abs=1e-12)
    assert sym_coeffs(s).a4 > 5.0


def test_kim_sarnak_envelope_values():
    lam_b = satake.kim_sarnak_envelope(2)
    assert lam_b == pytest.approx(2 ** (7 / 64) + 2 ** (-7 / 64), abs=1e-14)
    a_b = 2 ** (7 / 32) + 2 ** (-7 / 32) + 1.0    # E(p), the bound on |A|
    assert a_b == pytest.approx(lam_b * lam_b - 1.0, abs=1e-12)
    ps = np.array([2, 3, 101])
    assert satake.kim_sarnak_envelope(ps).tolist() == \
        [satake.kim_sarnak_envelope(p) for p in ps.tolist()]
    for bad in (2.0, np.array([2, 1])):     # not an integer; an entry below 2
        with pytest.raises(InvalidInputError, match="^p must be a prime >= 2, got "):
            satake.kim_sarnak_envelope(bad)


def test_kim_sarnak_envelope_monotone():
    vals = [satake.kim_sarnak_envelope(p) for p in (2, 3, 5, 101, 10007)]
    assert vals == sorted(vals)
    assert vals[-1] > vals[0]


def test_tempered_respects_envelope():
    lam_b = satake.kim_sarnak_envelope(2)
    assert abs(SatakeLocal.from_angle(2, 0.3).lam) <= 2.0 <= lam_b


def test_from_eigenvalue_roundtrip_tempered():
    for lam in (1.3, -1.99, 0.0, 2.0):
        s = SatakeLocal.from_eigenvalue(13, lam)
        assert s.tempered
        assert abs(s.lam - (s.alpha + s.beta)) < 1e-12


def test_from_eigenvalue_roundtrip_non_tempered():
    lam = 7 ** 0.05 + 7 ** -0.05
    s = SatakeLocal.from_eigenvalue(7, lam)
    assert not s.tempered
    assert s.theta_or_nu == pytest.approx(0.05, abs=1e-12)


def test_from_eigenvalue_rejects_envelope_violation():
    with pytest.raises(InvalidInputError):
        SatakeLocal.from_eigenvalue(2, 2.1)


def test_nontrivial_character_keeps_identities():
    u = cmath.exp(0.7j)
    s = SatakeLocal.from_angle(5, 1.1, u=u)
    r1, r2 = sym_coeffs(s).identity_residuals()
    assert r1 < 1e-10 and r2 < 1e-10
    assert abs(s.u * s.u - u * u) < 1e-14


def test_sample_sato_tate_mean_adjoint():
    a2, _, _ = satake.sample_coeff_triples(1000, "sato-tate", 42)
    assert abs(float(np.mean(a2))) < 4 / math.sqrt(1000)


def test_sample_non_tempered_all_exceptional():
    samples = sample_satake(10, "non-tempered", 1)
    assert all(abs(s.lam) > 2.0 for s in samples)


def test_sample_matches_vectorized_triples():
    samples = sample_satake(64, "sato-tate", 99)
    a2, a3sq, a4 = satake.sample_coeff_triples(64, "sato-tate", 99)
    for i in (0, 7, 31, 63):
        t = sym_coeffs(samples[i])
        assert t.a2 == pytest.approx(float(a2[i]), abs=1e-10)
        assert t.a3_abs_sq == pytest.approx(float(a3sq[i]), abs=1e-10)
        assert t.a4 == pytest.approx(float(a4[i]), abs=1e-10)


@pytest.mark.parametrize("mode", satake.SAMPLE_MODES)
def test_sample_satake_keeps_the_drawn_parameters(mode):
    samples = sample_satake(300, mode, 11)
    rng = np.random.default_rng(11)
    if mode == "sato-tate":
        drawn = satake.sato_tate_angles(rng, 300)
    else:
        drawn = KIM_SARNAK_NU * (1.0 - rng.random(300))
    assert [s.theta_or_nu for s in samples] == drawn.tolist()
    assert {s.tempered for s in samples} == {mode != "non-tempered"}
    pool = satake._SAMPLE_PRIMES
    assert [s.p for s in samples] == [pool[i % len(pool)] for i in range(300)]
    a2, a3sq, a4 = satake.sample_coeff_triples(300, mode, 11)
    for s, want in zip(samples, zip(a2, a3sq, a4)):
        t = sym_coeffs(s)
        assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mode", satake.SAMPLE_MODES)
@pytest.mark.parametrize("count", [satake._CHUNK - 1, satake._CHUNK,
                                   satake._CHUNK + 1, 50000])
def test_coeff_triples_bytes_match_one_pass(mode, count):
    # the chunked sums against _coeff_sums on all the draws at once
    draws = satake._sample_parameters(count, mode, 5)
    if mode == "non-tempered":
        pf = np.resize(np.array(satake._SAMPLE_PRIMES, dtype=np.float64), count)
        want = satake._coeff_sums(pf ** draws + 0j, pf ** (-draws) + 0j)
    else:
        want = satake._coeff_sums(np.exp(1j * draws), np.exp(-1j * draws))
    got = satake.sample_coeff_triples(count, mode, 5)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("mode", satake.SAMPLE_MODES)
def test_coeff_triples_peak_memory(traced_peak, mode):
    # the draws and the (3, count) result take 1.5 MiB, and the sato-tate
    # rejection sampler's candidates about 1.2 MiB more (2.77 and 2.59 MiB
    # traced); the complex temporaries of one pass over all 50000 samples
    # took 5 MiB more, and a whole-length int64 prime array 0.38 MiB.  The
    # first draw in a process imports what numpy.random loads lazily (0.7
    # MiB), so a small draw comes first
    satake.sample_coeff_triples(1, mode, 1)
    mib = {"sato-tate": 3.0, "non-tempered": 2.8}[mode]
    assert traced_peak(satake.sample_coeff_triples, 50000, mode, 1) < mib * 2 ** 20


def test_identity_residuals_take_floats_and_arrays():
    assert satake.identity_residuals(3.0, 16.0, 5.0) == (0.0, 0.0)
    assert satake.identity_residuals(0.0, 1.0, 0.0) == (1.0, 0.0)
    r1, r2 = satake.identity_residuals(np.array([3.0, 0.0]),
                                       np.array([16.0, 2.0]),
                                       np.array([5.0, -1.0]))
    assert r1.tolist() == [0.0, 0.0] and r2.tolist() == [0.0, 1.0]


def test_sample_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        sample_satake(0, "sato-tate", 1)
    with pytest.raises(InvalidInputError):
        sample_satake(5, "bogus", 1)
    # the deviations fill the Kim-Sarnak range (0, 7/64], whose end is fixed
    with pytest.raises(TypeError, match="nu_max"):
        sample_satake(5, "non-tempered", 1, nu_max=0.1)
    with pytest.raises(TypeError, match="nu_max"):
        satake.sample_coeff_triples(5, "non-tempered", 1, nu_max=0.1)
    with pytest.raises(InvalidInputError, match="got 'uniform-angle'$"):
        satake.sample_coeff_triples(5, "uniform-angle", 1)


def test_negative_seed_raises_before_any_draw():
    # numpy's default_rng refuses it with a bare ValueError
    for draw in (satake.sample_coeff_triples, sample_satake):
        for mode in satake.SAMPLE_MODES:
            with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
                draw(10, mode, -1)
    assert len(sample_satake(3, "sato-tate", 0)) == 3


def test_sample_count_above_the_cap_raises_before_allocating():
    # refused before any draw: 10^20 is past the largest array numpy can
    # make, and the count just past the cap would take over 300 MiB
    tracemalloc.start()
    try:
        for count in (satake.MAX_SAMPLES + 1, 10 ** 20):
            for draw in (satake.sample_coeff_triples, sample_satake):
                with pytest.raises(ResourceLimitError, match=(
                        f"^count {count} exceeds the cap of 5000000 samples per draw$")):
                    draw(count, "sato-tate", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_bulk_identity_sweep():
    # >= 10^5 mixed samples; residual budget covers double roundoff only
    for mode in ("sato-tate", "non-tempered"):
        a2, a3sq, a4 = satake.sample_coeff_triples(50000, mode, 2024)
        assert float(np.max(np.abs(a2 * a2 - (a4 + a2 + 1)))) < 1e-10
        assert float(np.max(np.abs(a2 * a4 - (a3sq - 1)))) < 1e-10
        assert float(np.min(a2)) >= -1.0 - 1e-12
        # sharp lower bound of the twisted fourth-power coefficient is -5/4
        assert float(np.min(a4)) >= -1.25 - 1e-12
        ps = np.array(satake._SAMPLE_PRIMES, dtype=np.float64)[
            np.arange(50000) % len(satake._SAMPLE_PRIMES)]
        lam_bound = ps ** KIM_SARNAK_NU + ps ** (-KIM_SARNAK_NU)
        a_bound = lam_bound * lam_bound - 1.0
        assert np.all(np.abs(a2) <= a_bound + 1e-12)


@given(st.floats(min_value=0.0, max_value=math.pi))
def test_identities_hold_for_any_angle(theta):
    s = SatakeLocal.from_angle(11, theta)
    r1, r2 = sym_coeffs(s).identity_residuals()
    assert r1 < 1e-10 and r2 < 1e-10


@given(st.sampled_from([2, 3, 5, 17, 97]),
       st.floats(min_value=1e-6, max_value=7 / 64))
def test_identities_hold_for_any_deviation(p, nu):
    s = SatakeLocal.from_deviation(p, nu)
    r1, r2 = sym_coeffs(s).identity_residuals()
    assert r1 < 1e-10 and r2 < 1e-10
    assert _adjoint(s) > 3.0
    assert sym_coeffs(s).a4 > 5.0


def test_coeff_triple_residuals():
    assert CoeffTriple(3.0, 16.0, 5.0).identity_residuals() == (0.0, 0.0)


def _assert_accessors_accept(s):
    """Every accessor takes s.  _adjoint agrees with the parameter
    route sym_coeffs().a2 as far as validate's tolerances allow: with
    |alpha*beta| = |u|^2 = m, |alpha + beta|^2 - 1 exceeds A by (m - 1)(A + 1),
    a lam off alpha + beta by d moves |lam|^2 by at most d(2|lam| + d), and
    |A3|^2 scales as m^3 while A*A4 does not."""
    t = sym_coeffs(s)
    a = _adjoint(s)
    assert abs(a - t.a2) <= (UNIT_MODULUS_TOL * (t.a2 + 1.0)
                             + EIGENVALUE_TOL * (2.0 * abs(s.lam) + 1.0) + 1e-13)
    r1, r2 = t.identity_residuals()
    assert r1 < 1e-10 and r2 <= 4.0 * UNIT_MODULUS_TOL * t.a3_abs_sq + 1e-10


_PRIMES = st.sampled_from([2, 3, 5, 7, 97, 10007, 999983])
_UNITS = st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a))


def _made_data():
    """Data from each constructor, from_eigenvalue on both sides of the
    envelope included; None where from_eigenvalue raised InvalidInputError."""
    def eigenvalue(p, mod, u):
        try:
            return SatakeLocal.from_eigenvalue(p, u * mod)
        except InvalidInputError:
            return None
    envelope = _PRIMES.flatmap(lambda p: st.tuples(
        st.just(p), st.floats(-2e-12, 2e-12).map(
            lambda d: satake.kim_sarnak_envelope(p) * (1.0 + d)), _UNITS))
    inside = st.tuples(_PRIMES, st.floats(0.0, 2.0057), _UNITS)
    return st.one_of(
        st.builds(SatakeLocal.from_angle, _PRIMES, st.floats(0.0, math.pi), _UNITS),
        st.builds(SatakeLocal.from_deviation, _PRIMES,
                  st.floats(0.0, KIM_SARNAK_NU, exclude_min=True), _UNITS),
        st.one_of(envelope, inside).map(lambda args: eigenvalue(*args)))


@given(_made_data())
def test_every_made_datum_passes_every_accessor(s):
    if s is not None:
        _assert_accessors_accept(s)


@given(st.integers(1, 40), st.sampled_from(satake.SAMPLE_MODES),
       st.integers(0, 2 ** 32))
def test_every_sampled_datum_passes_every_accessor(count, mode, seed):
    for s in sample_satake(count, mode, seed):
        _assert_accessors_accept(s)


@pytest.mark.parametrize("nu_max", [5e-324, 2.0 ** -1022, 2.0 ** -1021])
def test_samplers_agree_at_a_tiny_nu_max(monkeypatch, nu_max):
    # every deviation pinned at a tiny nu, down to the least subnormal float:
    # p^nu + p^-nu rounds to 2, yet both samplers build valid data and agree
    real = satake._sample_parameters

    def tiny(count, mode, seed):
        return np.full_like(real(count, mode, seed), nu_max)

    monkeypatch.setattr(satake, "_sample_parameters", tiny)
    samples = sample_satake(200, "non-tempered", 0)
    assert {s.theta_or_nu for s in samples} == {nu_max}
    a2, a3sq, a4 = satake.sample_coeff_triples(200, "non-tempered", 0)
    for s, want in zip(samples, zip(a2, a3sq, a4)):
        t = sym_coeffs(s)
        assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx(want, abs=1e-12)


def test_samplers_agree_at_the_smallest_deviation(monkeypatch):
    # random() < 1, so its largest value 1 - 2^-53 gives the least
    # deviation 7/64 * 2^-53: positive, and valid for both samplers
    class Largest:
        def random(self, count):
            return np.full(count, 1.0 - 2.0 ** -53)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Largest())
    samples = sample_satake(200, "non-tempered", 0)
    assert {s.theta_or_nu for s in samples} == {KIM_SARNAK_NU * 2.0 ** -53}
    a2, a3sq, a4 = satake.sample_coeff_triples(200, "non-tempered", 0)
    for s, want in zip(samples, zip(a2, a3sq, a4)):
        t = sym_coeffs(s)
        assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx(want, abs=1e-12)


_PRIMES_UPTO_10_6 = set(sieve.primes_upto(10 ** 6).tolist())


def _consistent(p, lam, u, tempered, theta_or_nu):
    """validate's conditions, computed without SatakeLocal and loosened by
    1e-14 for the rounding of its formulas, so that a datum they reject is
    inconsistent beyond doubt."""
    if not (type(p) is int and p in _PRIMES_UPTO_10_6):
        return False
    x = theta_or_nu
    if not (0.0 <= x <= math.pi if tempered else 0.0 < x <= KIM_SARNAK_NU + 1e-15):
        return False
    if not abs(abs(u) ** 2 - 1.0) <= UNIT_MODULUS_TOL + 1e-14:
        return False
    pair = 2.0 * u * math.cos(x) if tempered else u * (p ** x + p ** -x)
    return abs(lam - pair) <= EIGENVALUE_TOL + 1e-14


def _fields():
    """Arbitrary fields, and fields near those of a valid datum."""
    arbitrary = st.fixed_dictionaries({
        "p": st.one_of(st.integers(-3, 10 ** 6), st.sampled_from([2.0, True, "7"])),
        "lam": st.complex_numbers(), "u": st.complex_numbers(),
        "tempered": st.booleans(), "theta_or_nu": st.floats()})
    small = st.complex_numbers(max_magnitude=3e-9)

    def near(s, field, dz):
        value = getattr(s, field)
        if field == "theta_or_nu":
            value += dz.real
        elif field == "p":
            value += int(dz.real * 1e9)
        else:
            value = value + dz if field == "lam" else value * (1.0 + dz)
        return {**dataclasses.asdict(s), field: value}
    close = st.builds(near, _made_data().filter(lambda s: s is not None),
                      st.sampled_from(["p", "lam", "u", "theta_or_nu"]),
                      st.one_of(small, small.map(lambda z: z * 1e-3)))
    return st.one_of(arbitrary, close)


@given(_fields(), st.booleans())
def test_inconsistent_data_raise_at_construction(fields, by_replace):
    """Construction, directly or through dataclasses.replace of a valid
    datum, gives a datum every accessor takes or raises InvalidInputError;
    a datum that is inconsistent beyond rounding always raises."""
    try:
        if by_replace:
            s = dataclasses.replace(SatakeLocal.from_angle(2, 1.0), **fields)
        else:
            s = SatakeLocal(**fields)
    except InvalidInputError:
        return
    assert _consistent(**fields)
    _assert_accessors_accept(s)


@pytest.mark.parametrize("make, match", [
    (lambda: SatakeLocal.from_angle(2, -0.1), "theta out of"),
    (lambda: SatakeLocal.from_angle(2, math.inf), "theta out of"),
    (lambda: SatakeLocal.from_angle(2, math.nan), "theta out of"),
    (lambda: SatakeLocal.from_deviation(2, 0.0), "nu out of"),
    (lambda: SatakeLocal.from_deviation(2, 2000.0), "nu out of"),
    (lambda: SatakeLocal.from_deviation(2, -math.inf), "nu out of"),
    (lambda: SatakeLocal.from_deviation("7", 0.05), "must be prime"),
    (lambda: SatakeLocal.from_deviation(9, 0.05), "must be prime"),
    (lambda: SatakeLocal.from_angle(2, 1.0, u=1.3), "modulus"),
    (lambda: SatakeLocal.from_angle(2, 1.0, u=complex(math.nan, 0.0)), "modulus"),
    (lambda: SatakeLocal(p=2, lam=math.nan, u=1, tempered=True, theta_or_nu=0.0),
     "stored eigenvalue"),
], ids=["negative-theta", "infinite-theta", "nan-theta", "zero-nu",
        "nu-overflowing-p-to-the-nu", "minus-infinite-nu", "string-p", "composite-p",
        "unit-of-modulus-1.3", "nan-unit", "nan-eigenvalue"])
def test_constructors_raise_with_validates_messages(make, match):
    with pytest.raises(InvalidInputError, match=match):
        make()


def test_adjoint_reads_the_eigenvalue_alone():
    # lam is within EIGENVALUE_TOL of alpha + beta = 2, so the datum is
    # valid, and |lam|^2 - 1 is 4e-12 above the parameter route's 3
    s = SatakeLocal(p=7, lam=2.0 + 0.99e-12, u=1, tempered=True, theta_or_nu=0.0)
    assert _adjoint(s) == abs(s.lam) ** 2 - 1.0 > 3.0
    t = sym_coeffs(s)
    assert (t.a2, t.a3_abs_sq, t.a4) == (3.0, 16.0, 5.0)


def test_from_eigenvalue_just_past_the_envelope_raises_at_construction():
    # nu above 7/64 by less than 1e-12 (relative) is clamped to 7/64, and
    # the clamped alpha + beta then misses lam by more than EIGENVALUE_TOL
    p = 999983
    e = satake.kim_sarnak_envelope(p)
    with pytest.raises(InvalidInputError, match="does not match alpha"):
        SatakeLocal.from_eigenvalue(p, e * (1 + 5e-13))
    _assert_accessors_accept(SatakeLocal.from_eigenvalue(p, e * (1 + 1e-13)))
