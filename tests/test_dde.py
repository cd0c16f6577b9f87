import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maasslab import dde
from maasslab.dde import DdeSpec
from maasslab.errors import (InvalidInputError, NotConvergedError,
                             ResourceLimitError, SignChangeNotFoundError,
                             UnsupportedRangeError)
from oracles import grid_nodes

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
    for u in (0.0, 2.5):        # the stored grid covers (0, 2]
        with pytest.raises(InvalidInputError, match=rf"^u must lie in \(0, 2\], got {u}$"):
            sol.at(u)


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
    with pytest.raises(InvalidInputError, match="integrator requires chi0 >= 1"):
        dde.solve(DdeSpec(0.5, -1.0), 2.0, 1e-3)


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
                f = lambda t: ((t - 1) * (1 + kappa - kappa * mpmath.log(t - 1))
                               - kappa) / t ** 2
                val = float(mpmath.quad(f, [2.0, u]))
                f2 = (2 * (1 + kappa - kappa * math.log(2)) - kappa) / 2
                expected = u * (f2 - kappa * val)
            else:
                f = lambda t: (1 - kappa * mpmath.log(t - 1)) / t
                val = float(mpmath.quad(f, [2.0, u]))
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
    a, b = (locate_zero_reference(sol.segments, sol.grid_step)
            for sol in (dde.solve(TWO_FORM, 3.0, 1e-5), dde.solve(TWO_FORM, 3.0, 5e-6)))
    assert abs(a - b) < 1e-8


def test_sigma2_positive_before_zero():
    sol = dde.solve(TWO_FORM, 2.5, 1e-4)
    us = np.arange(0.01, 2.235, 0.01)
    assert all(sol.at(float(u)) > 0 for u in us)
    assert locate_zero_reference(sol.segments, sol.grid_step) > 2.235


def test_exponent_reciprocal_brackets():
    z2 = dde.first_zero(TWO_FORM, tol=1e-7)
    z3 = dde.first_zero(THREE_FORM, tol=1e-7)
    assert 0.44737 <= 1 / z2 <= 0.44738
    assert 0.77879 <= 1 / z3 <= 0.77881


def test_first_zero_not_found_below_cap():
    # sigma of (10, -0.5) keeps its sign up to the cap u = 10
    with pytest.raises(SignChangeNotFoundError,
                       match=r"^no sign change of sigma below u = 10 at step 0\.001$"):
        dde.first_zero(DdeSpec(10.0, -0.5), tol=1e-6)


def test_first_zero_cap_is_fixed():
    with pytest.raises(TypeError, match="u_cap"):
        dde.first_zero(TWO_FORM, u_cap=20.0)


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
    # (2, -0.1) keeps its sign on (1, 3]
    with pytest.raises(SignChangeNotFoundError,
                       match=r"^no closed-form sign change on \(1, 3\]$"):
        dde.closed_form_first_zero(DdeSpec(2.0, -0.1))


def _nodes(sol):
    """The CLI's walk over the grid, every node."""
    return [sol._node(i) for i in range(sol._node_count())]


def test_nodes_stream_monotone():
    sol = dde.solve(TWO_FORM, 2.0, 1e-2)
    us = [u for u, _ in _nodes(sol)]
    assert us == sorted(us)
    assert len(us) == len(set(us))


# The full-grid route that first_zero replaced, kept as the oracle:
# integrate every segment up to U_CAP, then scan all of them for the first
# sign change (walking every node in order is oracles.grid_nodes).

def midpoints_reference(seg):
    """Cubic interpolation at the half-grid points, one-sided at the ends;
    linear below 4 nodes."""
    n = seg.size - 1
    if n < 3:
        return 0.5 * (seg[:-1] + seg[1:])
    mid = np.empty(n)
    mid[1:-1] = (-seg[:-3] + 9.0 * seg[1:-2] + 9.0 * seg[2:-1] - seg[3:]) / 16.0
    mid[0] = (5.0 * seg[0] + 15.0 * seg[1] - 5.0 * seg[2] + seg[3]) / 16.0
    mid[-1] = (seg[-4] - 5.0 * seg[-3] + 15.0 * seg[-2] + 5.0 * seg[-1]) / 16.0
    return mid


def solve_reference(spec, u_max, step):
    """Segments and grid step of the one-pass method-of-steps loop."""
    n = max(int(round(1.0 / step)), 2)
    h = 1.0 / n
    e0 = spec.initial_exponent
    kappa = spec.delay_coefficient
    xs0 = np.arange(n + 1) * h
    segments = [xs0 ** e0 if e0 != 0.0 else np.ones(n + 1)]
    n_seg = max(1, math.ceil(u_max) - 1) + 1
    for k in range(1, n_seg):
        prev = segments[k - 1]
        us = k + np.arange(n + 1) * h
        g_nodes = -kappa * prev / us ** (e0 + 1.0)
        g_mid = -kappa * midpoints_reference(prev) / (us[:-1] + 0.5 * h) ** (e0 + 1.0)
        incr = (h / 6.0) * (g_nodes[:-1] + 4.0 * g_mid + g_nodes[1:])
        f = np.empty(n + 1)
        f[0] = prev[-1] / float(k) ** e0
        f[1:] = f[0] + np.cumsum(incr)
        sigma = us ** e0 * f
        sigma[0] = prev[-1]
        segments.append(sigma)
    return segments, h


def locate_zero_reference(segments, h):
    for k, seg in enumerate(segments):
        if k == 0:
            continue
        sign_flip = np.nonzero(np.signbit(seg[1:]) != np.signbit(seg[:-1]))[0]
        if sign_flip.size:
            j = int(sign_flip[0])
            return dde._bisect(lambda u: dde._eval_cubic(segments, h, u),
                               k + j * h, k + (j + 1) * h)
    return None


def first_zero_reference(spec, tol, initial_step):
    step = initial_step
    estimates = []
    while True:
        est = locate_zero_reference(*solve_reference(spec, dde.U_CAP, step))
        if est is None:
            raise SignChangeNotFoundError(
                f"no sign change of sigma below u = {dde.U_CAP} at step {step}")
        if estimates and abs(est - estimates[-1]) < tol:
            return est
        estimates.append(est)
        if step / 2.0 < dde.STEP_MIN:
            raise NotConvergedError(
                f"first zero not within tol {tol}: last estimates "
                f"{estimates[-2:]}, the last at step {step}; halving would go "
                f"below STEP_MIN = {dde.STEP_MIN}")
        step /= 2.0


def _outcome(fn, *args):
    try:
        return float.hex(fn(*args))
    except (SignChangeNotFoundError, NotConvergedError) as exc:
        return type(exc).__name__, str(exc)


_SPECS = [TWO_FORM, THREE_FORM, DdeSpec(1.5, -2.5), DdeSpec(3.0, -1.0),
          DdeSpec(2.0, -0.5)]


@pytest.mark.parametrize("spec,u_max,step", [
    pytest.param(_SPECS[i], u_max, step, id=f"{u_max}-{step}-spec{i}")
    for u_max, step in [(1.0, 1e-2), (2.5, 1e-3), (3.0, 3e-3), (4.2, 1e-3),
                        (3.0, 1e-5)]
    for i in range(len(_SPECS))] + [
    # n nodes per unit step at the edges of _segments' blocks, for an
    # integer and a non-integer initial exponent
    pytest.param(_SPECS[i], 3.0, 1.0 / n, id=f"3.0-n{n}-spec{i}")
    for i in (0, 2) for n in (dde._BLOCK - 1, dde._BLOCK, dde._BLOCK + 1,
                              2 * dde._BLOCK + 1)])
def test_solve_bytes_match_reference(spec, u_max, step):
    sol = dde.solve(spec, u_max, step)
    segments, h = solve_reference(spec, u_max, step)
    assert sol.grid_step == h and len(sol.segments) == len(segments)
    for got, want in zip(sol.segments, segments):
        assert got.tobytes() == want.tobytes()
    # first_zero's per-segment search finds the full-grid scan's zero
    zeros = (dde._zero_in_last(sol.segments[:k + 1], h)
             for k in range(1, len(sol.segments)))
    got_zero = next((z for z in zeros if z is not None), None)
    want_zero = locate_zero_reference(segments, h)
    assert (got_zero is None and want_zero is None) or \
        float.hex(got_zero) == float.hex(want_zero)
    assert [(float.hex(u), float.hex(v)) for u, v in _nodes(sol)] == \
        [(float.hex(u), float.hex(v)) for u, v in grid_nodes(sol)]


@settings(max_examples=60, deadline=None)
@given(chi0=st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0]),
       chi1=st.floats(-4.0, -0.25),
       tol=st.sampled_from([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3]),
       initial_step=st.floats(1e-4, 1e-2))
def test_first_zero_bytes_match_full_grid_ladder(chi0, chi1, tol, initial_step):
    spec = DdeSpec(chi0, chi1)
    # a coarser floor keeps every grid small; small tols then end unconverged
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde, "STEP_MIN", 1e-4)
        assert _outcome(dde.first_zero, spec, tol, initial_step) == \
            _outcome(first_zero_reference, spec, tol, initial_step)


def test_first_zero_stops_at_first_sign_change(monkeypatch):
    taken = []
    segments = dde._segments

    def counted(spec, n, count):
        taken.append(0)
        for seg in segments(spec, n, count):
            taken[-1] += 1
            yield seg
    monkeypatch.setattr(dde, "_segments", counted)
    zero = dde.first_zero(TWO_FORM, tol=1e-6, initial_step=1e-5)
    assert float.hex(zero) == float.hex(
        first_zero_reference(TWO_FORM, 1e-6, 1e-5))
    assert len(taken) >= 2 and set(taken) == {3}   # sigma on [0, 3), not to 10


def test_first_zero_holds_two_segments(traced_peak):
    # the last solve steps 1/200,000: its last two segments, plus 2 MiB
    # for the blocks of _segments and the bisection
    peak = traced_peak(dde.first_zero, TWO_FORM, 1e-6, 1e-5)
    assert peak < 2 * 200_001 * 8 + 2 * 2 ** 20


@pytest.mark.parametrize("call,name", [
    (lambda v: dde.solve(TWO_FORM, v, 1e-3), "u_max"),
    (lambda v: dde.first_zero(TWO_FORM, initial_step=v), "initial_step"),
    (lambda v: dde.first_zero(TWO_FORM, tol=v), "tol"),
    (lambda v: DdeSpec(v, -2.0), "weights"),
    (lambda v: DdeSpec(2.0, -v), "weights"),
])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_arguments_rejected(call, name, value):
    with pytest.raises(InvalidInputError, match=name):
        call(value)


def test_grid_capped_before_allocating(no_dde_grid):
    with pytest.raises(ResourceLimitError,
                       match=r"= 1000000100000 nodes exceeds the cap 200000000"):
        dde.solve(TWO_FORM, 1e5, 1e-7)


def test_first_zero_grid_fits_the_node_cap():
    # first_zero holds at most U_CAP segments of 1/STEP_MIN + 1 nodes, so
    # its solves never meet the ResourceLimitError of the cap
    n = dde._grid_size("step", dde.STEP_MIN)
    assert n == round(1 / dde.STEP_MIN) == 10 ** 7
    assert dde.U_CAP * (n + 1) == 100_000_010 <= dde.NODE_LIMIT
