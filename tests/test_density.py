import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from maasslab import density, ingest, satake, sieve
from maasslab.bounds import FormMeta
from maasslab.density import FormFamily
from maasslab.errors import DataGapError, InvalidInputError
from oracles import CoeffTriple, SatakeLocal, sym_coeffs

BOUNDARY = CoeffTriple(3.0, 16.0, 5.0)
ZERO_EIGENVALUE = CoeffTriple(-1.0, 0.0, 1.0)
THIRD_PI = CoeffTriple(0.0, 1.0, -1.0)


def _weight(*triples):
    """chebyshev_weight of a family given by one triple per member."""
    return density.chebyshev_weight(sum(t.a2 for t in triples), triples[0].a4)


def _residual(t1, t2):
    return density.weight_residual(t1.a2, t1.a3_abs_sq, t1.a4, t2.a2, t2.a4)


def test_chebyshev_weight_boundary():
    assert _weight(BOUNDARY, BOUNDARY) == 1936.0


def test_chebyshev_weight_zero_point():
    assert _weight(ZERO_EIGENVALUE, ZERO_EIGENVALUE) == 0.0


def test_chebyshev_weight_three_members():
    assert _weight(BOUNDARY, BOUNDARY, BOUNDARY) == 53.0 ** 2


def test_chebyshev_weight_nonnegative_random():
    a2, _, a4 = satake.sample_coeff_triples(2000, "sato-tate", 4)
    b2, b3, b4 = satake.sample_coeff_triples(2000, "uniform-angle", 5)
    weights = density.chebyshev_weight(a2 + b2, a4)
    assert float(np.min(weights)) >= 0.0
    # the array route and the scalar route give the same float
    for i in range(0, 2000, 199):
        assert density.chebyshev_weight(float(a2[i]) + float(b2[i]),
                                        float(a4[i])) == weights[i]


def test_expansion_residual_examples():
    assert _residual(THIRD_PI, THIRD_PI) < 1e-12
    assert _residual(BOUNDARY, BOUNDARY) == 0.0


def test_expansion_residual_bulk_sweep():
    a2, a3, a4 = satake.sample_coeff_triples(50000, "sato-tate", 12)
    b2, b3, b4 = satake.sample_coeff_triples(50000, "non-tempered", 13)
    residual = density.weight_residual(a2, a3, a4, b2, b4)
    assert float(np.max(residual)) < 1e-9
    # the array route and the per-pair route give the same float
    for i in range(0, 50000, 4999):
        pair = (CoeffTriple(float(a2[i]), float(a3[i]), float(a4[i])),
                CoeffTriple(float(b2[i]), float(b3[i]), float(b4[i])))
        assert _residual(*pair) == residual[i]


def test_weight_residual_off_the_identities():
    # (1 + 3*4 + 5)^2 = 324 against the expansion's 312, exactly
    assert density.weight_residual(1.0, 1.0, 1.0, 3.0, 5.0) == 12.0
    columns = [np.array([x, x]) for x in (1.0, 1.0, 1.0, 3.0, 5.0)]
    assert density.weight_residual(*columns).tolist() == [12.0, 12.0]


def test_density_lower_bound_values():
    assert density.density_lower_bound(1, "paper") == Fraction(34, 35)
    assert density.density_lower_bound(2, "paper") == Fraction(43, 44)
    assert density.density_lower_bound(2, "remark") == Fraction(118, 119)


def test_density_lower_bound_monotone_to_one():
    vals = [density.density_lower_bound(m) for m in range(1, 60)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 1 - vals[-1] == Fraction(1, 26 + 9 * 59)


def test_density_lower_bound_rejects_bad_args():
    with pytest.raises(InvalidInputError):
        density.density_lower_bound(0)
    with pytest.raises(InvalidInputError):
        density.density_lower_bound(2, "bogus")


def test_pigeonhole_display_value():
    assert density.pigeonhole_intersection(
        Fraction(34, 35), Fraction(34, 35)) == Fraction(33, 35)


def test_pigeonhole_identity_and_clamp():
    assert density.pigeonhole_intersection(Fraction(1), Fraction(3, 7)) == Fraction(3, 7)
    assert density.pigeonhole_intersection(Fraction(1, 2), Fraction(1, 3)) == 0


def test_pigeonhole_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        density.pigeonhole_intersection(Fraction(3, 2), Fraction(1, 2))


def _family_from_eigenvalues(streams, levels=(1, 1)):
    members = []
    for lab, (lvl, (ps, lams)) in enumerate(zip(levels, streams)):
        members.append(FormMeta(level=lvl, spectral_parameter=1.0 + lab,
                                ps=ps, lams=lams, label=f"m{lab}"))
    return FormFamily(members)


def _tempered_stream(ps, seed):
    """(ps, lams) with Sato-Tate eigenvalues; lams is a fresh writable copy."""
    rng = np.random.default_rng(seed)
    return ps, 2.0 * np.cos(satake.sato_tate_angles(rng, len(ps)))


def _parameter_route(ps, lams):
    """(A, A4) arrays through the per-prime parameter route
    sym_coeffs(SatakeLocal.from_eigenvalue(p, lam)), independent of the
    polynomial route of exceptional_scan."""
    triples = [sym_coeffs(SatakeLocal.from_eigenvalue(p, lam))
               for p, lam in zip(ps.tolist(), lams.tolist())]
    return (np.array([t.a2 for t in triples]),
            np.array([t.a4 for t in triples]))


def test_exceptional_scan_all_tempered():
    ps = sieve.primes_upto(10 ** 4)
    fam = _family_from_eigenvalues(
        [_tempered_stream(ps, 1), _tempered_stream(ps, 2)])
    rep = density.exceptional_scan(fam, 10 ** 4)
    assert rep.exceptional_count == 0
    assert rep.implied_upper == 0.0
    assert rep.pi_X == len(ps)


def test_exceptional_scan_constructed_pair():
    ps = sieve.primes_upto(10 ** 4)
    _, l1 = _tempered_stream(ps, 3)
    _, l2 = _tempered_stream(ps, 4)
    for p in (11, 101):
        i = int(np.searchsorted(ps, p))
        l1[i] = p ** 0.1 + p ** -0.1
        l2[i] = -(p ** 0.09 + p ** -0.09)
    fam = _family_from_eigenvalues([(ps, l1), (ps, l2)])
    rep = density.exceptional_scan(fam, 10 ** 4)
    assert rep.exceptional_primes == [11, 101]
    assert rep.exceptional_count == 2
    # the scan itself verifies U > 44^2 at each; recompute independently
    for p in (11, 101):
        i = int(np.searchsorted(ps, p))
        t1 = sym_coeffs(SatakeLocal.from_eigenvalue(p, l1[i]))
        t2 = sym_coeffs(SatakeLocal.from_eigenvalue(p, l2[i]))
        assert _weight(t1, t2) > 1936.0


def test_exceptional_scan_respects_levels():
    ps = sieve.primes_upto(1000)
    s1 = _tempered_stream(ps, 5)
    s2 = _tempered_stream(ps, 6)
    fam = _family_from_eigenvalues([s1, s2], levels=(6, 35))
    rep = density.exceptional_scan(fam, 1000)
    excluded = {2, 3, 5, 7}
    assert rep.pi_X == len([p for p in ps if int(p) not in excluded])


@pytest.mark.parametrize("X", [1, 2, 3, 6, 7])
def test_exceptional_scan_rejects_a_scan_with_no_prime(X):
    # levels 6 and 35 leave no prime up to X < 11: no mean to report; below
    # 2 there is no prime at all
    ps = sieve.primes_upto(1000)
    fam = _family_from_eigenvalues(
        [_tempered_stream(ps, 5), _tempered_stream(ps, 6)], levels=(6, 35))
    with pytest.raises(InvalidInputError) as exc:
        density.exceptional_scan(fam, X)
    assert str(exc.value) == ("X must be >= 2, got 1" if X < 2 else
                              f"every prime up to X = {X} divides one of the "
                              "levels [6, 35]; nothing to scan")
    assert density.exceptional_scan(fam, 11).pi_X == 1


def test_exceptional_scan_mean_matches_quadrature_oracle():
    # E[U] under two independent tempered draws, by numerical integration
    st_density = lambda t: (2 / mpmath.pi) * mpmath.sin(t) ** 2
    x2 = lambda t: 4 * mpmath.cos(t) ** 2 - 1
    x4 = lambda t: 16 * mpmath.cos(t) ** 4 - 12 * mpmath.cos(t) ** 2 + 1
    m = {}
    for name, f in (("a", x2), ("a_sq", lambda t: x2(t) ** 2),
                    ("a4", x4), ("a4_sq", lambda t: x4(t) ** 2),
                    ("a_a4", lambda t: x2(t) * x4(t))):
        m[name] = float(mpmath.quad(lambda t: f(t) * st_density(t), [0, mpmath.pi]))
    mean_u = (1 + 9 * m["a_sq"] + 9 * m["a_sq"] + 25 * m["a4_sq"]
              + 6 * m["a"] + 6 * m["a"] + 10 * m["a4"] + 18 * m["a"] * m["a"]
              + 30 * m["a_a4"] + 30 * m["a"] * m["a4"])
    assert mean_u == pytest.approx(44.0, abs=1e-9)

    ps = sieve.primes_upto(10 ** 5)
    fam = _family_from_eigenvalues(
        [_tempered_stream(ps, 7), _tempered_stream(ps, 8)])
    rep = density.exceptional_scan(fam, 10 ** 5)
    a2, a4 = _parameter_route(ps, fam.members[0].lams)
    b2, _ = _parameter_route(ps, fam.members[1].lams)
    u_vals = (1 + 3 * a2 + 3 * b2 + 5 * a4) ** 2
    tol = 4 * float(np.std(u_vals)) / math.sqrt(len(ps))
    assert abs(rep.running_mean_U - mean_u) < tol


def test_exceptional_scan_reports_gaps():
    ps = sieve.primes_upto(1000)
    _, l1 = _tempered_stream(ps, 9)
    keep = (ps != 997) & (ps != 13)
    _, l2 = _tempered_stream(ps, 10)
    fam = _family_from_eigenvalues([(ps[keep], l1[keep]), (ps[:-1], l2[:-1])])
    with pytest.raises(DataGapError) as exc:
        density.exceptional_scan(fam, 1000)
    assert exc.value.gaps == [("m0", 13), ("m0", 997), ("m1", 997)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("member", [0, 1])
def test_exceptional_scan_rejects_non_finite_eigenvalue(tmp_path, bad, member):
    # the mixed fixtures with lams[5] (p = 19) non-finite in one member or
    # both: the scan names the first such member and prime
    recs = [ingest.fetch(lab, coverage=10 ** 4, cache_dir=tmp_path)
            for lab in ("fixture-mixed-1", "fixture-mixed-2")]
    metas = []
    for i, rec in enumerate(recs):
        lams = rec.lams.copy()
        if i >= member:
            lams[5] = bad
        lams[-1] = math.nan      # p = 9973 lies past the scan limit
        metas.append(FormMeta(level=rec.level, spectral_parameter=rec.spectral_parameter,
                              ps=rec.ps, lams=lams, label=f"nan-{i}"))
    assert [r.ps[5] for r in recs] == [19, 19] and recs[0].ps[-1] > 9000
    with pytest.raises(DataGapError) as exc:
        density.exceptional_scan(FormFamily(metas), 9000)
    assert str(exc.value) == f"nan-{member}: eigenvalue at p = 19 is not finite ({bad})"
    assert exc.value.gaps == []


def test_exceptional_scan_levels_beyond_int64_product():
    # the product of these levels overflows int64; only 2 and 3 divide any
    ps = sieve.primes_upto(1000)
    big = 2 ** 62
    fam = _family_from_eigenvalues(
        [_tempered_stream(ps, 11), _tempered_stream(ps, 12)],
        levels=(big, 3 * 2 ** 40))
    rep = density.exceptional_scan(fam, 1000)
    assert rep.pi_X == len(ps) - 2


def test_exceptional_scan_polynomial_route_matches_oracle(tmp_path):
    # the fixture pair has non-tempered primes 11, 101, 499 and 997
    recs = [ingest.fetch(lab, cache_dir=tmp_path)
            for lab in ("fixture-mixed-1", "fixture-mixed-2")]
    fam = FormFamily([r.to_form_meta() for r in recs])
    rep = density.exceptional_scan(fam, 10 ** 4)
    ps = sieve.primes_upto(10 ** 4)
    ps = ps[(6 % ps != 0) & (10 % ps != 0)]
    lams = [r.lams[np.searchsorted(r.ps, ps)] for r in recs]
    assert any(np.abs(lam).max() > 2.0 for lam in lams)
    a2, a4 = _parameter_route(ps, lams[0])
    b2, _ = _parameter_route(ps, lams[1])
    oracle = float(np.mean((1 + 3 * a2 + 3 * b2 + 5 * a4) ** 2))
    assert rep.pi_X == len(ps)
    assert rep.running_mean_U == pytest.approx(oracle, rel=1e-13)


def test_density_report_json_schema():
    rep = density.DensityReport(X=10, pi_X=4, exceptional_count=0,
                                running_mean_U=1.0, implied_upper=0.0,
                                theory_bound=1 / 44, assumptions=["x"])
    doc = rep.to_json_dict()
    assert set(doc) == {"X", "pi_X", "exceptional_count", "running_mean_U",
                        "implied_upper", "theory_bound", "assumptions"}


def test_family_assumption_recorded():
    ps = sieve.primes_upto(100)
    fam = _family_from_eigenvalues(
        [_tempered_stream(ps, 1), _tempered_stream(ps, 2)])
    report = density.exceptional_scan(fam, 100)
    assert report.assumptions == [density.DISTINCT_RP_ASSUMPTION]
    assert "distinct" in density.DISTINCT_RP_ASSUMPTION


def test_family_needs_two_members():
    meta = ingest.generate_fixture("fixture-mixed-1", 1000).to_form_meta()
    with pytest.raises(InvalidInputError, match="^a family needs at least 2 members$"):
        FormFamily([meta])


def test_family_rejects_members_sharing_a_label():
    meta = ingest.generate_fixture("fixture-mixed-1", 1000).to_form_meta()
    with pytest.raises(InvalidInputError, match="'fixture-mixed-1'"):
        FormFamily([meta, meta])
    other = ingest.generate_fixture("fixture-mixed-2", 1000).to_form_meta()
    assert FormFamily([meta, other, FormMeta(level=1, spectral_parameter=1.0),
                       FormMeta(level=1, spectral_parameter=1.0)]).m == 4
