import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maasslab import satake, sieve
from maasslab.errors import InvalidInputError
from maasslab.satake import KIM_SARNAK_NU, CoeffTriple, SatakeLocal


def test_adjoint_at_boundary_eigenvalue():
    s = SatakeLocal.from_angle(2, 0.0)
    assert satake.adjoint_coeff(s) == pytest.approx(3.0, abs=1e-12)


def test_adjoint_at_zero_eigenvalue():
    s = SatakeLocal.from_angle(2, math.pi / 2)
    assert satake.adjoint_coeff(s) == pytest.approx(-1.0, abs=1e-12)


def test_adjoint_at_envelope_eigenvalue():
    # direct evaluation at p = 2: lambda = 2^{7/64} + 2^{-7/64}
    lam = 2 ** (7 / 64) + 2 ** (-7 / 64)
    s = SatakeLocal.from_eigenvalue(2, lam)
    assert satake.adjoint_coeff(s) == pytest.approx(lam * lam - 1.0, abs=1e-12)
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
    bad = SatakeLocal(p=5, lam=2.0, u=1.3 + 0j, tempered=True, theta_or_nu=0.0)
    with pytest.raises(InvalidInputError):
        satake.adjoint_coeff(bad)


def test_sym_coeffs_at_angle_zero():
    t = satake.sym_coeffs(SatakeLocal.from_angle(3, 0.0))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((3.0, 16.0, 5.0), abs=1e-12)


def test_sym_coeffs_at_right_angle():
    t = satake.sym_coeffs(SatakeLocal.from_angle(3, math.pi / 2))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)


def test_sym_coeffs_at_third_of_pi():
    # c = 1/2: closed forms give (4c^2-1, (8c^3-4c)^2, 16c^4-12c^2+1) = (0, 1, -1)
    t = satake.sym_coeffs(SatakeLocal.from_angle(5, math.pi / 3))
    assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx((0.0, 1.0, -1.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi / 2, 1.234, math.pi])
def test_sym_coeffs_match_closed_forms_tempered(theta):
    c = math.cos(theta)
    t = satake.sym_coeffs(SatakeLocal.from_angle(7, theta))
    assert t.a2 == pytest.approx(4 * c * c - 1, abs=1e-10)
    assert t.a3_abs_sq == pytest.approx((8 * c ** 3 - 4 * c) ** 2, abs=1e-10)
    assert t.a4 == pytest.approx(16 * c ** 4 - 12 * c ** 2 + 1, abs=1e-10)


def test_hecke_identities_examples():
    for s in (SatakeLocal.from_angle(2, math.pi / 3),
              SatakeLocal.from_angle(2, 0.0),
              SatakeLocal.from_deviation(5, 7 / 64)):
        r1, r2 = satake.check_hecke_identities(s)
        assert r1 < 1e-10 and r2 < 1e-10


def test_is_ramanujan_boundary_included():
    assert satake.is_ramanujan_local(SatakeLocal.from_angle(11, 0.0))
    assert satake.is_ramanujan_local(SatakeLocal.from_angle(11, math.pi / 2))


def test_is_ramanujan_false_forces_large_coeffs():
    s = SatakeLocal.from_deviation(7, 1 / 32)
    assert not satake.is_ramanujan_local(s)
    a = satake.adjoint_coeff(s)
    assert a > 3.0
    assert a == pytest.approx(1 + 7 ** (1 / 16) + 7 ** (-1 / 16), abs=1e-12)
    assert satake.sym_coeffs(s).a4 > 5.0


def test_kim_sarnak_envelope_values():
    lam_b = satake.kim_sarnak_envelope(2)
    assert lam_b == pytest.approx(2 ** (7 / 64) + 2 ** (-7 / 64), abs=1e-14)
    a_b = 2 ** (7 / 32) + 2 ** (-7 / 32) + 1.0    # E(p), the bound on |A|
    assert a_b == pytest.approx(lam_b * lam_b - 1.0, abs=1e-12)
    ps = np.array([2, 3, 101])
    assert satake.kim_sarnak_envelope(ps).tolist() == \
        [satake.kim_sarnak_envelope(p) for p in ps.tolist()]


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
    r1, r2 = satake.check_hecke_identities(s)
    assert r1 < 1e-10 and r2 < 1e-10
    assert abs(s.chi - u * u) < 1e-14


def test_sample_sato_tate_mean_adjoint():
    a2, _, _ = satake.sample_coeff_triples(1000, "sato-tate", 42)
    assert abs(float(np.mean(a2))) < 4 / math.sqrt(1000)


def test_sample_non_tempered_all_exceptional():
    samples = satake.sample_satake(10, "non-tempered", 1)
    assert all(not satake.is_ramanujan_local(s) for s in samples)


def test_sample_uniform_angle_deterministic():
    a = satake.sample_satake(5, "uniform-angle", 7)
    b = satake.sample_satake(5, "uniform-angle", 7)
    assert a == b


def test_sample_matches_vectorized_triples():
    samples = satake.sample_satake(64, "sato-tate", 99)
    a2, a3sq, a4 = satake.sample_coeff_triples(64, "sato-tate", 99)
    for i in (0, 7, 31, 63):
        t = satake.sym_coeffs(samples[i])
        assert t.a2 == pytest.approx(float(a2[i]), abs=1e-10)
        assert t.a3_abs_sq == pytest.approx(float(a3sq[i]), abs=1e-10)
        assert t.a4 == pytest.approx(float(a4[i]), abs=1e-10)


@pytest.mark.parametrize("mode", satake.SAMPLE_MODES)
def test_sample_satake_keeps_the_drawn_parameters(mode):
    samples = satake.sample_satake(300, mode, 11, nu_max=0.1)
    rng = np.random.default_rng(11)
    if mode == "sato-tate":
        drawn = satake.sato_tate_angles(rng, 300)
    elif mode == "uniform-angle":
        drawn = rng.random(300) * math.pi
    else:
        drawn = 0.1 * (1.0 - rng.random(300))
    assert [s.theta_or_nu for s in samples] == drawn.tolist()
    assert {s.tempered for s in samples} == {mode != "non-tempered"}
    pool = satake._SAMPLE_PRIMES
    assert [s.p for s in samples] == [pool[i % len(pool)] for i in range(300)]
    a2, a3sq, a4 = satake.sample_coeff_triples(300, mode, 11, nu_max=0.1)
    for s, want in zip(samples, zip(a2, a3sq, a4)):
        t = satake.sym_coeffs(s)
        assert (t.a2, t.a3_abs_sq, t.a4) == pytest.approx(want, abs=1e-12)


def test_identity_residuals_take_floats_and_arrays():
    assert satake.identity_residuals(3.0, 16.0, 5.0) == (0.0, 0.0)
    assert satake.identity_residuals(0.0, 1.0, 0.0) == (1.0, 0.0)
    r1, r2 = satake.identity_residuals(np.array([3.0, 0.0]),
                                       np.array([16.0, 2.0]),
                                       np.array([5.0, -1.0]))
    assert r1.tolist() == [0.0, 0.0] and r2.tolist() == [0.0, 1.0]


def test_sample_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        satake.sample_satake(0, "sato-tate", 1)
    with pytest.raises(InvalidInputError):
        satake.sample_satake(5, "bogus", 1)
    with pytest.raises(InvalidInputError):
        satake.sample_satake(5, "non-tempered", 1, nu_max=0.2)


def test_bulk_identity_sweep():
    # >= 10^5 mixed samples; residual budget covers double roundoff only
    for mode in ("sato-tate", "uniform-angle", "non-tempered"):
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
    r1, r2 = satake.check_hecke_identities(s)
    assert r1 < 1e-10 and r2 < 1e-10


@given(st.sampled_from([2, 3, 5, 17, 97]),
       st.floats(min_value=1e-6, max_value=7 / 64))
def test_identities_hold_for_any_deviation(p, nu):
    s = SatakeLocal.from_deviation(p, nu)
    r1, r2 = satake.check_hecke_identities(s)
    assert r1 < 1e-10 and r2 < 1e-10
    assert satake.adjoint_coeff(s) > 3.0
    assert satake.sym_coeffs(s).a4 > 5.0


def test_coeff_triple_residuals():
    assert CoeffTriple(3.0, 16.0, 5.0).identity_residuals() == (0.0, 0.0)
