"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from maasslab import bounds, dde, density, ingest, satake, sieve
from maasslab.dde import DdeSpec
from maasslab.sieve import MultFuncSpec
from oracles import (SatakeLocal, euler_constant_c_exact, sample_satake,
                     sym_coeffs)

TWO_FORM = DdeSpec(2.0, -2.0)
THREE_FORM = DdeSpec(1.0, -3.0)


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_01_first_zero():
    t0 = time.perf_counter()
    zero = dde.first_zero(TWO_FORM, tol=1e-6, initial_step=1e-5)
    elapsed = time.perf_counter() - t0
    ok = abs(zero - 2.23528) < 1e-4 and elapsed < 5.0
    _report(1, "first zero of the two-form equation", ok,
            f"zero={zero:.7f}, {elapsed:.2f}s at step 1e-5")


def test_criterion_02_exponents():
    e2 = bounds.least_prime_exponent(2)
    e3 = bounds.least_prime_exponent(3)
    z3 = dde.first_zero(THREE_FORM, tol=1e-7)
    ok = (round(e2, 6) == 0.447374
          and abs(e3 - 0.778798) <= 5e-6
          and abs(z3 - math.exp(0.25)) < 1e-6)
    _report(2, "least-prime exponents", ok,
            f"two-form={e2:.6f}, three-form={e3:.6f}, "
            f"|zero - e^(1/4)|={abs(z3 - math.exp(0.25)):.2e}")


def test_criterion_03_oracle_equivalence():
    worst = 0.0
    for spec in (TWO_FORM, THREE_FORM):
        sol = dde.solve(spec, 2.0, 1e-5)
        for u in np.linspace(1.001, 2.0, 211):
            worst = max(worst, abs(sol.at(float(u))
                                   - dde.analytic_segment(spec, float(u))))
    sol = dde.solve(TWO_FORM, 3.0, 1e-5)
    for u in np.linspace(2.001, 3.0, 211):
        worst = max(worst, abs(sol.at(float(u))
                               - dde.analytic_segment(TWO_FORM, float(u))))
    ok = worst < 1e-8
    _report(3, "numeric vs closed-form segments", ok, f"max|err|={worst:.2e}")


def test_criterion_04_hecke_identity_suite():
    t0 = time.perf_counter()
    n_half = 50000
    worst = 0.0
    for mode in ("sato-tate", "non-tempered"):
        samples = sample_satake(n_half, mode, 42)
        a2, a3sq, a4 = satake.sample_coeff_triples(n_half, mode, 42)
        worst = max(worst,
                    float(np.max(np.abs(a2 * a2 - (a4 + a2 + 1)))),
                    float(np.max(np.abs(a2 * a4 - (a3sq - 1)))))
        for i in range(0, n_half, n_half // 100):
            t = sym_coeffs(samples[i])  # object path agrees
            worst = max(worst, abs(t.a2 - float(a2[i])),
                        abs(t.a4 - float(a4[i])))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 2.0
    _report(4, "Hecke identities over 1e5 samples", ok,
            f"max residual={worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_weight_expansion():
    a2, a3sq, a4 = satake.sample_coeff_triples(50000, "sato-tate", 42)
    b2, b3sq, b4 = satake.sample_coeff_triples(50000, "non-tempered", 43)
    worst = 0.0
    for x2, x3, x4, y2, y4 in ((a2, a3sq, a4, b2, b4), (b2, b3sq, b4, a2, a4)):
        u_sq = (1 + 3 * x2 + 3 * y2 + 5 * x4) ** 2
        u_exp = (-11 + 15 * x2 + 15 * y2 + 19 * x4 + 9 * y4 + 18 * x2 * y2
                 + 30 * x4 * y2 + 30 * x3 + 25 * x4 ** 2)
        worst = max(worst, float(np.max(np.abs(u_sq - u_exp))))
    # A = 3, |A3|^2 = 16, A4 = 5 for both members at the Ramanujan boundary
    squared = density.chebyshev_weight(3.0 + 3.0, 5.0)
    residual = density.weight_residual(3.0, 16.0, 5.0, 3.0, 5.0)
    ok = worst < 1e-9 and squared == 1936.0 and residual == 0.0
    _report(5, "weight expansion via Hecke identities", ok,
            f"max residual={worst:.2e}, boundary={squared}")


def test_criterion_06_density_constants():
    vals = [density.density_lower_bound(m) for m in range(1, 40)]
    ok = (vals[0] == Fraction(34, 35)
          and vals[1] == Fraction(43, 44)
          and all(b > a for a, b in zip(vals, vals[1:]))
          and 1 - vals[-1] == Fraction(1, 26 + 9 * 39)
          and density.pigeonhole_intersection(
              Fraction(34, 35), Fraction(34, 35)) == Fraction(33, 35))
    _report(6, "density constants as exact rationals", ok,
            f"m=1: {vals[0]}, m=2: {vals[1]}")


def test_criterion_07_sieve_brute_force(table_small):
    spec10 = MultFuncSpec.threshold(10, 2, -2)
    ok_hand = (sieve.h_sum(spec10, 10, 1) == 17.0
               and sieve.h_sum(spec10, 10, 6) == 5.0)

    # log-weighted sums against math.fsum of the values_upto terms, within
    # the direct-sum bound of the log_weighted_sum docstring, whose
    # gamma_(K+6) part also covers the rounding of fsum and np.sum
    def gamma(n):
        return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)

    rng = random.Random(7)
    ok_brute = True
    for _ in range(100):
        spec = MultFuncSpec.threshold(rng.randint(2, 400),
                                      float(rng.randint(1, 4)),
                                      -float(rng.randint(1, 4)))
        x = rng.uniform(2, 5000)
        m = int(x)
        vals = sieve.values_upto(spec, m, 1, table_small)[1:]
        terms = vals * (math.log(x) - np.log(np.arange(1, m + 1)))
        bound = (gamma(m.bit_length() + 6) * math.log(x) * float(np.sum(np.abs(vals)))
                 + gamma(m - 1) * float(np.sum(np.abs(terms))))
        got = sieve.log_weighted_sum(spec, x, 1, table_small)
        ok_brute = ok_brute and abs(got - math.fsum(terms.tolist())) <= bound

    a_s, _, _ = satake.sample_coeff_triples(1300, "sato-tate", 70)
    b_s, _, _ = satake.sample_coeff_triples(1300, "sato-tate", 71)
    ps = table_small.primes[:1300].tolist()
    b = MultFuncSpec.from_table(
        {p: float(x + y) for p, x, y in zip(ps, a_s, b_s)})
    h = MultFuncSpec.threshold(50, 2, -2)
    g = MultFuncSpec.moebius_quotient(b, h)
    ok_round = all(
        sieve.dirichlet_convolve(h, g, n, table_small)
        == b.value_exact(n, table_small)
        for n in range(1, 10 ** 4 + 1) if table_small.is_squarefree(n))
    ok = ok_hand and ok_brute and ok_round
    _report(7, "sieve brute force", ok,
            "hand sums, log-weighted sums within the proven bound of "
            "brute force, exact convolution round-trip")


def test_criterion_08_local_factor_cancellation():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        a1 = rng.uniform(-6, 6)
        a2 = rng.uniform(-6, 6)
        if sieve.local_factor_coeffs(a1, a2)[1] != 0:
            ok = False
            break
    _report(8, "local-factor x^1 cancellation", ok,
            "exact rational expansion, 1000 random pairs")


def test_criterion_09_asymptotic_report():
    t0 = time.perf_counter()
    rows = sieve.asymptotic_report(1000, [0.5, 1.0, 1.5], 1, (2.0, -2.0))
    rows_small = sieve.asymptotic_report(100, [1.5], 1, (2.0, -2.0))
    elapsed = time.perf_counter() - t0
    finite = all(math.isfinite(r["rel_error"]) for r in rows + rows_small)
    decreasing = rows[2]["rel_error"] < rows_small[0]["rel_error"]
    ok = finite and decreasing and elapsed < 60.0
    detail = ", ".join(f"u={r['u']}: {r['rel_error']:.3f}" for r in rows)
    _report(9, "asymptotic report", ok,
            f"{detail}; y=100 u=1.5: {rows_small[0]['rel_error']:.3f}; "
            f"{elapsed:.1f}s")


def test_criterion_10_exceptional_prime_logic(tmp_path):
    recs = [ingest.fetch(lab, cache_dir=tmp_path)
            for lab in ("fixture-mixed-1", "fixture-mixed-2")]
    fam = density.FormFamily([r.to_form_meta() for r in recs])
    rep = density.exceptional_scan(fam, 10 ** 4)
    manifest_common = sorted(
        set(ingest.FIXTURE_MANIFEST["fixture-mixed-1"]["nontempered"])
        & set(ingest.FIXTURE_MANIFEST["fixture-mixed-2"]["nontempered"]))
    ok_mixed = rep.exceptional_primes == manifest_common
    for p in rep.exceptional_primes:
        triples = [sym_coeffs(SatakeLocal.from_eigenvalue(
            p, float(r.lams[np.searchsorted(r.ps, p)]))) for r in recs]
        weight = density.chebyshev_weight(sum(t.a2 for t in triples),
                                          triples[0].a4)
        ok_mixed = ok_mixed and weight > 1936.0

    temps = [ingest.fetch(lab, cache_dir=tmp_path)
             for lab in ("fixture-tempered-1", "fixture-tempered-2")]
    fam_t = density.FormFamily([r.to_form_meta() for r in temps])
    rep_t = density.exceptional_scan(fam_t, 10 ** 4)
    ok = ok_mixed and rep_t.implied_upper == 0.0
    _report(10, "exceptional-prime logic", ok,
            f"mixed scan found {rep.exceptional_primes}, "
            f"tempered implied upper {rep_t.implied_upper}")


def test_criterion_11_euler_constant_machinery():
    exact1 = euler_constant_c_exact(1, 10 ** 3)
    exact2 = euler_constant_c_exact(2, 10 ** 3)
    ok_half = exact2 / exact1 == Fraction(1, 2)

    c3, _ = sieve.euler_constant_c(1, 10 ** 3)
    ok_exact = abs(c3 - float(exact1)) <= 1e-12 * float(exact1)

    c5, _ = sieve.euler_constant_c(1, 10 ** 5)
    c6, _ = sieve.euler_constant_c(1, 10 ** 6)
    ok_stable = abs(c5 - c6) < 1e-6

    rng = random.Random(11)
    ok_ratio = True
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
        a = rng.randint(1, 200)
        while a % p == 0:
            a = rng.randint(1, 200)
        ca = euler_constant_c_exact(a, 10 ** 3)
        cap = euler_constant_c_exact(a * p, 10 ** 3)
        ok_ratio = ok_ratio and cap / ca == Fraction(p, p + 2)
    ok = ok_half and ok_exact and ok_stable and ok_ratio
    _report(11, "Euler product constant machinery", ok,
            f"c(2)/c(1)={exact2 / exact1}, |c@1e5 - c@1e6|={abs(c5 - c6):.2e}")
