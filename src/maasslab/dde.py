"""Method-of-steps integrator for the sieve delay differential equations.

The family solved here is parametrized by a weight pair (chi0, chi1) with
chi0 > 0 > chi1.  Writing e0 = chi0 - 1 and kappa = chi0 - chi1, the
solution sigma satisfies

    sigma(u) = u^e0                                   on (0, 1],
    (u^{-e0} sigma(u))' = -kappa * sigma(u-1) / u^{e0+1}   for u > 1.

The weight pair (2, -2) gives (u^{-1} sigma)' = -(4/u^2) sigma(u-1) with
sigma(u) = u initially; (1, -3) gives sigma' = -(4/u) sigma(u-1) with
sigma = 1 initially.  Within each unit interval the right-hand side
depends only on the previous segment, so each step is composite Simpson
quadrature of a known function (what RK4 reduces to here); the delayed
value at half-grid points is obtained by cubic interpolation on the
stored previous segment.  Breakpoints at integers are respected exactly.

This is fourth order only where the integrand is smooth.  For a
non-integer e0 it is not: the cubic interpolates u^e0 near u = 0, and
Simpson meets (u - 1)^e0 near u = 1, so the error of the first zero
falls only as h^(1 + e0) (measured against mpmath roots at e0 = 0.2,
0.5 and 1.5 for steps 10^-3 to 10^-6).  The paper's pairs have e0 = 1
and e0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, NotConvergedError, ResourceLimitError,
                     SignChangeNotFoundError, UnsupportedRangeError)

STEP_MIN = 1e-7
STEP_MAX = 1e-2
DEFAULT_FIRST_ZERO_TOL = 1e-6
U_CAP = 10                   # first_zero's give-up point, far above the paper's zeros
NODE_LIMIT = 2 * 10 ** 8     # grid nodes one call may hold: 1.6 GB of float64
_BLOCK = 2 ** 14             # intervals stepped at once: 128 KiB temporaries


@dataclass(frozen=True)
class DdeSpec:
    """Weight pair defining one delay differential equation instance."""

    chi0: float
    chi1: float

    def __post_init__(self):
        if not (math.inf > self.chi0 > 0.0 > self.chi1 > -math.inf):
            raise InvalidInputError(
                "weights must be finite with chi0 > 0 > chi1, "
                f"got ({self.chi0}, {self.chi1})")

    @property
    def initial_exponent(self) -> float:
        """Exponent e0 = chi0 - 1 of the initial segment u^e0."""
        return self.chi0 - 1.0

    @property
    def delay_coefficient(self) -> float:
        """Coefficient kappa = chi0 - chi1 of the delayed term."""
        return self.chi0 - self.chi1


@dataclass
class PiecewiseSolution:
    """Numeric solution stored per unit interval on a uniform grid."""

    spec: DdeSpec
    grid_step: float
    segments: list[np.ndarray]     # segment k holds sigma at k + j*grid_step

    def at(self, u: float) -> float:
        """Evaluate sigma(u) by cubic interpolation on the stored grid."""
        if not 0.0 < u <= len(self.segments):
            raise InvalidInputError(
                f"u must lie in (0, {len(self.segments)}], got {u}")
        return _eval_cubic(self.segments, self.grid_step, u)

    def _node_count(self) -> int:
        return 1 + (self.segments[0].size - 1) * len(self.segments)

    def _node(self, i: int) -> tuple[float, float]:
        """Grid pair (u, sigma(u)) number i in increasing u, without
        duplicates: node 0 of segment 0, then nodes 1..n of each segment k
        (node 0 of segment k > 0 repeats the end of segment k - 1)."""
        n = self.segments[0].size - 1
        k, j = divmod(i - 1, n) if i else (0, -1)
        return k + (j + 1) * self.grid_step, float(self.segments[k][j + 1])


def _eval_cubic(segments: list[np.ndarray], h: float, u: float) -> float:
    k = min(int(u), len(segments) - 1)
    if u == k and k > 0:
        k -= 1                           # integer point: shared boundary node
    seg = segments[k]
    n = seg.size - 1
    x = (u - k) / h
    j = min(max(int(x) - 1, 0), n - 3)
    t = x - j
    # Lagrange cubic on nodes j..j+3
    w0 = -(t - 1) * (t - 2) * (t - 3) / 6.0
    w1 = t * (t - 2) * (t - 3) / 2.0
    w2 = -t * (t - 1) * (t - 3) / 2.0
    w3 = t * (t - 1) * (t - 2) / 6.0
    return float(w0 * seg[j] + w1 * seg[j + 1] + w2 * seg[j + 2] + w3 * seg[j + 3])


def _midpoints(seg: np.ndarray, a: int, b: int) -> np.ndarray:
    """Cubic interpolation at the half-grid points a + 1/2, ..., b - 1/2
    of a uniform segment of at least 4 nodes (_grid_size gives 101 or
    more), one-sided at the first and last interval."""
    lo, hi = max(a, 1), min(b, seg.size - 2)
    mid = np.empty(b - a)
    mid[lo - a:hi - a] = (-seg[lo - 1:hi - 1] + 9.0 * seg[lo:hi]
                          + 9.0 * seg[lo + 1:hi + 1] - seg[lo + 2:hi + 2]) / 16.0
    if a == 0:
        mid[0] = (5.0 * seg[0] + 15.0 * seg[1] - 5.0 * seg[2] + seg[3]) / 16.0
    if b == seg.size - 1:
        mid[-1] = (seg[-4] - 5.0 * seg[-3] + 15.0 * seg[-2] + 5.0 * seg[-1]) / 16.0
    return mid


def _checked_end(name: str, u_end: float) -> int:
    """Number of unit segments covering (0, u_end], at least two."""
    if not 1.0 <= u_end < math.inf:
        raise InvalidInputError(f"{name} must be finite and >= 1, got {u_end}")
    return max(2, math.ceil(u_end))


def _segments(spec: DdeSpec, n: int, count: int):
    """Yield sigma on the grid k + j/n, j = 0..n, of the unit segments
    k = 0, 1, ..., count - 1, each computed from the one before.

    Each segment is stepped in blocks of _BLOCK intervals, so that every
    temporary is one block long, with the bytes of a whole-segment step:
    each node meets the same float operations on the same operands, and
    the running sum enters a block through its first increment, which is
    the addition a sequential cumsum over the whole segment makes there.

    The caller may hold all count segments, so count * (n + 1) nodes
    above NODE_LIMIT raise ResourceLimitError before any is allocated.
    """
    if spec.chi0 < 1.0:
        raise InvalidInputError(
            "integrator requires chi0 >= 1 (bounded initial segment)")
    if count * (n + 1) > NODE_LIMIT:
        raise ResourceLimitError(
            f"DDE grid of {count} segments x {n + 1} nodes = {count * (n + 1)} "
            f"nodes exceeds the cap {NODE_LIMIT}")
    h = 1.0 / n
    e0 = spec.initial_exponent
    kappa = spec.delay_coefficient

    prev = (np.arange(n + 1) * h) ** e0 if e0 != 0.0 else np.ones(n + 1)
    yield prev
    for k in range(1, count):
        # f = u^{-e0} sigma;  f' = g known, so RK4 collapses to Simpson steps
        f0 = prev[-1] / float(k) ** e0
        sigma = np.empty(n + 1)
        sigma[0] = prev[-1]              # exact continuity at the breakpoint
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
            us = k + np.arange(a, b + 1) * h
            g_nodes = -kappa * prev[a:b + 1] / us ** (e0 + 1.0)
            g_mid = -kappa * _midpoints(prev, a, b) / (us[:-1] + 0.5 * h) ** (e0 + 1.0)
            cs = (h / 6.0) * (g_nodes[:-1] + 4.0 * g_mid + g_nodes[1:])
            if a:
                cs[0] += carry
            np.cumsum(cs, out=cs)
            carry = cs[-1]
            sigma[a + 1:b + 1] = us[1:] ** e0 * (f0 + cs)
        yield sigma
        prev = sigma


def _grid_size(name: str, step: float) -> int:
    """Nodes per unit interval: the step snapped to 1/n, so that integer
    breakpoints are grid nodes; n >= 1/STEP_MAX = 100."""
    if not STEP_MIN <= step <= STEP_MAX:
        raise InvalidInputError(
            f"{name} must lie in [{STEP_MIN}, {STEP_MAX}], got {step}")
    return int(round(1.0 / step))


def solve(spec: DdeSpec, u_max: float, step: float) -> PiecewiseSolution:
    """Integrate sigma up to u_max with the given grid step.

    The step is snapped to 1/n so that integer breakpoints are grid
    nodes.  Output is reproducible bit-for-bit for a fixed step.
    """
    count = _checked_end("u_max", u_max)
    n = _grid_size("step", step)
    return PiecewiseSolution(spec=spec, grid_step=1.0 / n,
                             segments=list(_segments(spec, n, count)))


def _bisect(f, lo: float, hi: float) -> float:
    """Zero of f on [lo, hi], where f(lo) = 0 or f changes sign, by
    bisection down to an interval of 1e-15."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < 1e-15:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _zero_in_last(segments: list[np.ndarray], h: float) -> float | None:
    """First sign change among the grid nodes of the last segment k >= 1,
    refined by bisection; None when its nodes keep one sign.  The
    bisection reads only segment k and, at u = k, the end of segment
    k - 1, so later segments cannot move the zero: it is the zero of a
    scan of the whole grid (the tests' locate_zero_reference)."""
    k = len(segments) - 1
    if k == 0:
        return None
    seg = segments[k]
    sign_flip = np.nonzero(np.signbit(seg[1:]) != np.signbit(seg[:-1]))[0]
    if not sign_flip.size:
        return None
    j = int(sign_flip[0])
    return _bisect(lambda u: _eval_cubic(segments, h, u),
                   k + j * h, k + (j + 1) * h)


def first_zero(spec: DdeSpec, tol: float = DEFAULT_FIRST_ZERO_TOL,
               initial_step: float = 1e-3) -> float:
    """Smallest u > 1 with sigma(u) = 0, to tolerance tol.

    Successive solves with halved integration steps are compared until
    two estimates differ by less than tol; NotConvergedError is raised
    when the next halving would take the step below STEP_MIN first.
    This stop is a heuristic: two estimates within tol of each other do
    not prove that the returned one is within tol of the true zero, and
    for a non-integer e0, whose error falls only as h^(1 + e0) (see the
    module docstring), nothing bounds the gap.
    Each solve integrates one unit segment at a time and stops at the
    first segment whose nodes change sign: the zero is, to the last bit,
    the one a scan of the whole grid up to U_CAP finds (the tests'
    full-grid reference ladder).  SignChangeNotFoundError is raised when
    sigma keeps its sign up to U_CAP.

    A solve holds its last two segments (the bisection reads the end of
    the earlier one) and _segments' blocks.  Even all U_CAP segments
    stay below NODE_LIMIT: every step is at least STEP_MIN = 1e-7, so a
    segment holds at most 10^7 + 1 nodes and U_CAP of them
    10 * (10^7 + 1) = 100,000,010 < 2 * 10^8 nodes.
    """
    if not 1e-9 <= tol < math.inf:
        raise InvalidInputError(f"tol must be finite and >= 1e-9, got {tol}")
    n = _grid_size("initial_step", initial_step)
    step = initial_step
    estimates = []
    while True:
        segments: list[np.ndarray | None] = []
        est = None
        for seg in _segments(spec, n, U_CAP):
            segments.append(seg)
            est = _zero_in_last(segments, 1.0 / n)
            if est is not None:
                break
            if len(segments) > 1:
                segments[-2] = None
        if est is None:
            raise SignChangeNotFoundError(
                f"no sign change of sigma below u = {U_CAP} at step {step}")
        if estimates and abs(est - estimates[-1]) < tol:
            return est
        estimates.append(est)
        if step / 2.0 < STEP_MIN:
            raise NotConvergedError(
                f"first zero not within tol {tol}: last estimates "
                f"{estimates[-2:]}, the last at step {step}; halving would go "
                f"below STEP_MIN = {STEP_MIN}")
        step /= 2.0
        n = _grid_size("step", step)


_LI2_COEFFS = tuple(1.0 / (k * k) for k in range(60, 0, -1))


def _li2(x: float) -> float:
    """Dilogarithm sum_{k<=60} x^k/k^2 by Horner's rule, for x = 1/t in
    [1/3, 1/2]: the omitted tail is below 2^-60/60^2."""
    s = 0.0
    for c in _LI2_COEFFS:
        s = s * x + c
    return s * x


def analytic_segment(spec: DdeSpec, u: float) -> float:
    """Closed-form sigma(u), available on (0, 2] for integer initial
    exponents 0 and 1, and on (2, 3] as well via one further exact
    integration (dilogarithm terms).

    An independent oracle for the numeric integrator: no production
    route calls it.
    """
    e0 = spec.initial_exponent
    kappa = spec.delay_coefficient
    if abs(e0 - round(e0)) > 1e-12 or round(e0) not in (0, 1):
        raise UnsupportedRangeError(
            f"closed forms implemented for initial exponents 0 and 1, got {e0}")
    e0 = int(round(e0))
    if not 0.0 < u <= 3.0:
        raise UnsupportedRangeError(f"u must lie in (0, 3], got {u}")
    if u <= 1.0:
        return u ** e0 if e0 else 1.0
    if u <= 2.0:
        if e0 == 1:
            return u * (1.0 + kappa - kappa * math.log(u)) - kappa
        return 1.0 - kappa * math.log(u)
    if e0 == 1:
        # f = sigma/u;  f(u) = f(2) - kappa * (I(u) - I(2)) with
        # I the antiderivative of [(t-1)(1+kappa-kappa*ln(t-1)) - kappa]/t^2
        def J(t: float) -> float:
            return (math.log(t) ** 2 / 2.0 + _li2(1.0 / t)
                    + math.log(t - 1.0) / t - math.log(t - 1.0) + math.log(t))

        def I(t: float) -> float:
            return ((1.0 + kappa) * (math.log(t) + 1.0 / t)
                    - kappa * J(t) + kappa / t)

        f2 = (2.0 * (1.0 + kappa - kappa * math.log(2.0)) - kappa) / 2.0
        return u * (f2 - kappa * (I(u) - I(2.0)))
    # e0 == 0: sigma(u) = sigma(2) - kappa * int_2^u (1 - kappa*ln(t-1))/t dt
    def G(t: float) -> float:
        return math.log(t) ** 2 / 2.0 + _li2(1.0 / t)

    sigma2 = 1.0 - kappa * math.log(2.0)
    return (sigma2 - kappa * (math.log(u) - math.log(2.0))
            + kappa ** 2 * (G(u) - G(2.0)))


def closed_form_first_zero(spec: DdeSpec) -> float:
    """First zero of the closed-form segments by bisection on (1, 3]: an oracle."""
    grid = np.linspace(1.0, 3.0, 4001).tolist()
    fa = analytic_segment(spec, grid[0])
    for a, b in zip(grid[:-1], grid[1:]):
        fb = analytic_segment(spec, b)
        if fa == 0.0 or (fa > 0) != (fb > 0):
            return _bisect(lambda u: analytic_segment(spec, u), a, b)
        fa = fb
    raise SignChangeNotFoundError("no closed-form sign change on (1, 3]")
