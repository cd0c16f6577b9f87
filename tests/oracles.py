"""Independent routes the tests compare the library against.

None of these is on a production path, and nothing under src/ imports
this module.  It needs only the runtime dependencies (numpy and
maasslab), so CI's runtime-only job can build references with it too.

- SatakeLocal, CoeffTriple, sym_coeffs and sample_satake: the per-datum
  object path, one validated Satake parameter pair at a time, against
  which the vectorised satake.sample_coeff_triples and the polynomial
  route of density.exceptional_scan are checked.
- euler_constant_c_exact: the truncated Euler product c(a) as an exact
  rational, the reference for sieve.euler_constant_c.
- record_json_dict: a CoeffRecord as a JSON object, the reference whose
  sorted json.dumps CoeffRecord.json_pieces must equal byte for byte.
- grid_nodes: every (u, sigma(u)) node of a dde.PiecewiseSolution in
  increasing u, read off the segments, the reference for the CLI's walk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from maasslab import satake, sieve
from maasslab.errors import InvalidInputError
from maasslab.ingest import SCHEMA_VERSION, CoeffRecord
from maasslab.satake import KIM_SARNAK_NU

# residual tolerances: ~10 float multiplications of O(10) quantities
EIGENVALUE_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-9


@dataclass(frozen=True)
class SatakeLocal:
    """Local Hecke datum of one form at one prime, validated when made."""

    p: int
    lam: complex              # Hecke eigenvalue at p
    u: complex                # unit factor; u^2 = central character value
    tempered: bool
    theta_or_nu: float        # angle theta in [0, pi] or deviation nu in (0, 7/64]

    @property
    def alpha(self) -> complex:
        if self.tempered:
            return self.u * cmath.exp(1j * self.theta_or_nu)
        return self.u * self.p ** self.theta_or_nu

    @property
    def beta(self) -> complex:
        if self.tempered:
            return self.u * cmath.exp(-1j * self.theta_or_nu)
        return self.u * self.p ** (-self.theta_or_nu)

    @classmethod
    def from_angle(cls, p: int, theta: float, u: complex = 1.0 + 0.0j) -> "SatakeLocal":
        """Tempered datum with parameters u*e^{+-i*theta}."""
        # 2u*cos(theta) to the bit, but NaN rather than a raise at theta = +-inf
        lam = u * (cmath.exp(1j * theta) + cmath.exp(-1j * theta))
        return cls(p=p, lam=lam, u=complex(u), tempered=True, theta_or_nu=float(theta))

    @classmethod
    def from_deviation(cls, p: int, nu: float, u: complex = 1.0 + 0.0j) -> "SatakeLocal":
        """Non-tempered datum with parameters u*p^{+-nu}."""
        try:
            lam = u * (p ** nu + p ** (-nu))
        except (TypeError, OverflowError):      # validate names the bad p or nu
            lam = math.nan
        return cls(p=p, lam=lam, u=complex(u), tempered=False, theta_or_nu=float(nu))

    @classmethod
    def from_eigenvalue(cls, p: int, lam: complex) -> "SatakeLocal":
        """Reconstruct the parameter pair from a stored eigenvalue.

        |lam| <= 2 yields a tempered datum; otherwise the deviation nu is
        solved from p^nu + p^{-nu} = |lam| and must respect the 7/64 cap.
        The unit factor is lam/|lam| (1 for lam = 0).
        """
        _require_prime(p)
        lam = complex(lam)
        mod = abs(lam)
        u = lam / mod if mod > 0 else 1.0 + 0.0j
        if mod <= 2.0:
            theta = math.acos(mod / 2.0)
            return cls(p=p, lam=lam, u=u, tempered=True, theta_or_nu=theta)
        nu = math.acosh(mod / 2.0) / math.log(p)
        if nu > KIM_SARNAK_NU * (1.0 + 1e-12):
            raise InvalidInputError(
                f"|lambda| = {mod} at p = {p} exceeds the Kim-Sarnak envelope")
        return cls(p=p, lam=lam, u=u, tempered=False, theta_or_nu=min(nu, KIM_SARNAK_NU))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise InvalidInputError unless the fields are consistent (a NaN never is)."""
        _require_prime(self.p)
        if self.tempered:
            if not 0.0 <= self.theta_or_nu <= math.pi:
                raise InvalidInputError(f"theta out of [0, pi]: {self.theta_or_nu}")
        elif not 0.0 < self.theta_or_nu <= KIM_SARNAK_NU + 1e-15:
            raise InvalidInputError(f"nu out of (0, 7/64]: {self.theta_or_nu}")
        ab = self.alpha * self.beta
        if not math.isclose(abs(ab), 1.0, rel_tol=0.0, abs_tol=UNIT_MODULUS_TOL):
            raise InvalidInputError(f"alpha*beta has modulus {abs(ab)}, expected 1")
        if not cmath.isclose(self.lam, self.alpha + self.beta, rel_tol=0.0,
                             abs_tol=EIGENVALUE_TOL):
            raise InvalidInputError(
                f"stored eigenvalue {self.lam} does not match alpha + beta")


@dataclass(frozen=True)
class CoeffTriple:
    """Adjoint, |sym-cube|^2 and twisted sym-fourth coefficient at one prime."""

    a2: float
    a3_abs_sq: float
    a4: float

    def identity_residuals(self) -> tuple[float, float]:
        return satake.identity_residuals(self.a2, self.a3_abs_sq, self.a4)


def _require_prime(p: int) -> None:
    if not (isinstance(p, (int, np.integer)) and p >= 2
            and sieve.prime_factors(p) == {p: 1}):
        raise InvalidInputError(f"p must be prime, got {p!r}")


def sym_coeffs(s: SatakeLocal) -> CoeffTriple:
    """Coefficient triple (A, |A3|^2, A4) from the literal parameter sums."""
    return CoeffTriple(*satake._coeff_sums(s.alpha, s.beta))


def sample_satake(count: int, mode: str, seed: int) -> list[SatakeLocal]:
    """Deterministic sample of local data, one object per draw of
    satake.sample_coeff_triples (same count, mode and seed).

    sato-tate draws tempered angles with density (2/pi) sin^2(theta);
    uniform-angle draws theta uniformly on [0, pi]; non-tempered draws
    nu uniformly on (0, 7/64], the Kim-Sarnak range.  The unit factor
    is 1 throughout.
    """
    ps, draws = satake._sample_parameters(count, mode, seed)
    make = (SatakeLocal.from_deviation if mode == "non-tempered"
            else SatakeLocal.from_angle)
    return [make(p, x) for p, x in zip(ps.tolist(), draws.tolist())]


def euler_constant_c_exact(a: int, truncation: int) -> Fraction:
    """c(a) as an exact rational of the truncated product (small truncations)."""
    if a < 1:
        raise InvalidInputError(f"a must be >= 1, got {a}")
    a_primes = sieve.prime_factors(a)
    ps = sieve.primes_upto(truncation)
    val = Fraction(1)
    for p in a_primes:
        val *= Fraction(p - 1, p) ** 2
    for p in ps.tolist():
        if p in a_primes:
            continue
        val *= Fraction(p - 1, p) ** 2 * Fraction(p + 2, p)
    return val


def record_json_dict(record: CoeffRecord) -> dict:
    """The record as a JSON object.  The library prints and writes
    records through json_pieces alone, whose pieces join to json.dumps
    of this with sorted keys."""
    return {
        "schema": SCHEMA_VERSION,
        "label": record.label,
        "level": record.level,
        "spectral_parameter": record.spectral_parameter,
        "coefficients": [[p, a] for p, a in
                         zip(record.ps.tolist(), record.lams.tolist())],
        "fetched_at": record.fetched_at,
        "source": record.source,
    }


def grid_nodes(sol):
    """Yield the grid pairs (u, sigma(u)) of a solution in increasing u,
    without duplicates: node 0 of segment 0, then nodes 1..n of each
    segment k."""
    for k, seg in enumerate(sol.segments):
        for j in range(1 if k > 0 else 0, seg.size):
            yield k + j * sol.grid_step, float(seg[j])
