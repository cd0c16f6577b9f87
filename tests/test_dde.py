import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from maasslab import dde
from maasslab.dde import DdeSpec
from maasslab.errors import (InvalidInputError, NotConvergedError,
                             SignChangeNotFoundError, UnsupportedRangeError)

TWO_FORM = DdeSpec(2.0, -2.0)
THREE_FORM = DdeSpec(1.0, -3.0)


def test_spec_derived_quantities():
    assert TWO_FORM.delay_coefficient == 4.0
    assert TWO_FORM.initial_exponent == 1.0
    assert THREE_FORM.delay_coefficient == 4.0
    assert THREE_FORM.initial_exponent == 0.0


def test_spec_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        DdeSpec(-1.0, -2.0)
    with pytest.raises(InvalidInputError):
        DdeSpec(2.0, 1.0)


def test_initial_segment_value():
    sol = dde.solve(TWO_FORM, 2.0, 1e-3)
    assert sol.at(1.0) == pytest.approx(1.0, abs=1e-12)
    assert sol.at(0.5) == pytest.approx(0.5, abs=1e-12)


def test_two_form_value_at_two():
    sol = dde.solve(TWO_FORM, 2.0, 1e-4)
    assert sol.at(2.0) == pytest.approx(6 - 8 * math.log(2), abs=1e-8)


def test_three_form_value_inside_first_segment():
    sol = dde.solve(THREE_FORM, 2.0, 1e-4)
    assert sol.at(1.2) == pytest.approx(1 - 4 * math.log(1.2), abs=1e-8)


def test_solve_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        dde.solve(TWO_FORM, 0.5, 1e-3)
    with pytest.raises(InvalidInputError):
        dde.solve(TWO_FORM, 2.0, 1e-8)
    with pytest.raises(InvalidInputError):
        dde.solve(TWO_FORM, 2.0, 0.5)


def test_solve_bitwise_deterministic():
    a = dde.solve(TWO_FORM, 3.0, 1e-3)
    b = dde.solve(TWO_FORM, 3.0, 1e-3)
    for sa, sb in zip(a.segments, b.segments):
        assert np.array_equal(sa, sb)


def test_segments_continuous_at_breakpoints():
    sol = dde.solve(TWO_FORM, 3.0, 1e-3)
    for k in range(1, len(sol.segments)):
        assert sol.segments[k - 1][-1] == sol.segments[k][0]
    assert abs(sol.at(2.0) - sol.segments[1][-1]) < 1e-9


def test_analytic_segment_examples():
    assert dde.analytic_segment(TWO_FORM, 1.5) == pytest.approx(
        1.5 * (5 - 4 * math.log(1.5)) - 4, abs=1e-14)
    assert dde.analytic_segment(TWO_FORM, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert dde.analytic_segment(THREE_FORM, 2.0) == pytest.approx(
        1 - 4 * math.log(2), abs=1e-14)


def test_analytic_segment_range_errors():
    with pytest.raises(UnsupportedRangeError):
        dde.analytic_segment(TWO_FORM, 3.5)
    with pytest.raises(UnsupportedRangeError):
        dde.analytic_segment(TWO_FORM, 0.0)
    with pytest.raises(UnsupportedRangeError):
        dde.analytic_segment(DdeSpec(2.5, -1.0), 1.5)


def test_analytic_third_segment_against_quadrature():
    # independent check of the dilogarithm closed form on (2, 3]
    for spec in (TWO_FORM, THREE_FORM):
        kappa = spec.delay_coefficient
        e0 = int(spec.initial_exponent)
        for u in (2.2, 2.7, 3.0):
            if e0 == 1:
                f = lambda t: ((t - 1) * (1 + kappa - kappa * math.log(t - 1))
                               - kappa) / t ** 2
                val, _ = integrate.quad(f, 2.0, u, epsabs=1e-13, epsrel=1e-13)
                f2 = (2 * (1 + kappa - kappa * math.log(2)) - kappa) / 2
                expected = u * (f2 - kappa * val)
            else:
                f = lambda t: (1 - kappa * math.log(t - 1)) / t
                val, _ = integrate.quad(f, 2.0, u, epsabs=1e-13, epsrel=1e-13)
                expected = (1 - kappa * math.log(2)) - kappa * val
            assert dde.analytic_segment(spec, u) == pytest.approx(
                expected, abs=1e-12)


def test_dilogarithm_series_against_mpmath():
    for t in np.linspace(2.0, 3.0, 101):
        x = 1.0 / float(t)
        ref = float(mpmath.polylog(2, x))
        assert abs(dde._li2(x) - ref) <= 1e-15 * ref


def test_import_loads_no_scipy():
    src = str(Path(dde.__file__).resolve().parents[1])
    code = ("import sys, maasslab; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("spec", [TWO_FORM, THREE_FORM])
def test_numeric_matches_closed_form_on_second_segment(spec):
    sol = dde.solve(spec, 2.0, 1e-5)
    us = np.linspace(1.0 + 1e-3, 2.0, 157)
    errs = [abs(sol.at(float(u)) - dde.analytic_segment(spec, float(u)))
            for u in us]
    assert max(errs) < 1e-8


def test_numeric_matches_closed_form_on_third_segment():
    sol = dde.solve(TWO_FORM, 3.0, 1e-5)
    us = np.linspace(2.0 + 1e-3, 3.0, 157)
    errs = [abs(sol.at(float(u)) - dde.analytic_segment(TWO_FORM, float(u)))
            for u in us]
    assert max(errs) < 1e-8


def test_first_zero_two_form():
    z = dde.first_zero(TWO_FORM, tol=1e-6)
    assert z == pytest.approx(2.23528, abs=1e-4)
    assert z == pytest.approx(2.2352795913785237, abs=1e-15)   # pinned bisection


def test_first_zero_three_form_matches_closed_form():
    z = dde.first_zero(THREE_FORM, tol=1e-7)
    assert z == pytest.approx(math.exp(0.25), abs=1e-5)
    assert z == pytest.approx(1.28402541668774, abs=1e-15)   # pinned bisection


def test_first_zero_kappa_two():
    z = dde.first_zero(DdeSpec(1.0, -1.0), tol=1e-7)
    assert z == pytest.approx(math.exp(0.5), abs=1e-5)


def test_first_zero_step_halving_stability():
    a = dde.solve(TWO_FORM, 3.0, 1e-5).first_zero
    b = dde.solve(TWO_FORM, 3.0, 5e-6).first_zero
    assert abs(a - b) < 1e-8


def test_sigma2_positive_before_zero():
    sol = dde.solve(TWO_FORM, 2.5, 1e-4)
    us = np.arange(0.01, 2.235, 0.01)
    assert all(sol.at(float(u)) > 0 for u in us)
    assert sol.first_zero > 2.235


def test_exponent_reciprocal_brackets():
    z2 = dde.first_zero(TWO_FORM, tol=1e-7)
    z3 = dde.first_zero(THREE_FORM, tol=1e-7)
    assert 0.44737 <= 1 / z2 <= 0.44738
    assert 0.77879 <= 1 / z3 <= 0.77881


def test_first_zero_not_found_below_cap():
    with pytest.raises(SignChangeNotFoundError):
        dde.first_zero(TWO_FORM, tol=1e-6, u_cap=2.0)


def test_first_zero_rejects_tiny_tol():
    with pytest.raises(InvalidInputError):
        dde.first_zero(TWO_FORM, tol=1e-12)


def test_first_zero_unconverged_raises(monkeypatch):
    # one solve at the smallest step: nothing to compare it with
    monkeypatch.setattr(dde, "STEP_MIN", 1e-3)
    with pytest.raises(NotConvergedError,
                       match=r"\[2\.2352795\d*\], the last at step 0\.001"):
        dde.first_zero(TWO_FORM, tol=1e-9, initial_step=1e-3)
    # two solves that differ by more than tol
    monkeypatch.setattr(dde, "STEP_MIN", 5e-3)
    with pytest.raises(NotConvergedError,
                       match=r"\[2\.235\d*, 2\.235\d*\], the last at step 0\.005"):
        dde.first_zero(TWO_FORM, tol=1e-9, initial_step=1e-2)


def test_closed_form_first_zero_values():
    assert dde.closed_form_first_zero(THREE_FORM) == pytest.approx(
        math.exp(0.25), abs=1e-12)
    z = dde.closed_form_first_zero(TWO_FORM)
    assert dde.analytic_segment(TWO_FORM, z) == pytest.approx(0.0, abs=1e-12)
    assert z == pytest.approx(2.2352795913785175, abs=1e-15)   # pinned bisection


def test_nodes_stream_monotone():
    sol = dde.solve(TWO_FORM, 2.0, 1e-2)
    us = [u for u, _ in sol.nodes()]
    assert us == sorted(us)
    assert len(us) == len(set(us))
