"""Exact algebra of local Hecke data at an unramified prime.

A local datum is a Satake parameter pair (alpha, beta) with
alpha*beta of modulus 1.  Two shapes occur:

  tempered:      alpha = u*e^{i*theta}, beta = u*e^{-i*theta},  0 <= theta <= pi
  non-tempered:  alpha = u*p^{nu},      beta = u*p^{-nu},       0 < nu <= 7/64

where |u| = 1 and u^2 is the central character value at p.  The Hecke
eigenvalue is lambda = alpha + beta, so |lambda| <= 2 exactly in the
tempered case and |lambda| = p^nu + p^{-nu} > 2 otherwise.  The cap
nu <= 7/64 is the Kim-Sarnak bound.

From the parameter pair we form the coefficient sums of the adjoint
square, the symmetric cube and the character-twisted symmetric fourth
power:

  A      = alpha/beta + 1 + beta/alpha
  A3     = alpha^3 + alpha^2*beta + alpha*beta^2 + beta^3
  A4     = (alpha/beta)^2 + alpha/beta + 1 + beta/alpha + (beta/alpha)^2

A and A4 are real; only |A3|^2 enters the identities used downstream:

  A^2    = A4 + A + 1
  A * A4 = |A3|^2 - 1

Both are polynomial identities in the parameter pair and hold for every
well-formed datum, tempered or not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sieve import prime_factors

KIM_SARNAK_NU = 7.0 / 64.0

# residual tolerances: ~10 float multiplications of O(10) quantities
EIGENVALUE_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-9

SAMPLE_MODES = ("sato-tate", "uniform-angle", "non-tempered")

# prime pool cycled through by the samplers
_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclass(frozen=True)
class SatakeLocal:
    """Local Hecke datum of one form at one prime."""

    p: int
    lam: complex              # Hecke eigenvalue at p
    u: complex                # unit factor; u^2 = central character value
    tempered: bool
    theta_or_nu: float        # angle theta in [0, pi] or deviation nu in (0, 7/64]

    @property
    def chi(self) -> complex:
        return self.u * self.u

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
        _require_prime(p)
        if not 0.0 <= theta <= math.pi:
            raise InvalidInputError(f"theta must lie in [0, pi], got {theta}")
        _require_unit(u)
        lam = 2.0 * u * math.cos(theta)
        return cls(p=p, lam=lam, u=complex(u), tempered=True, theta_or_nu=float(theta))

    @classmethod
    def from_deviation(cls, p: int, nu: float, u: complex = 1.0 + 0.0j) -> "SatakeLocal":
        """Non-tempered datum with parameters u*p^{+-nu}."""
        _require_prime(p)
        if not 0.0 < nu <= KIM_SARNAK_NU:
            raise InvalidInputError(f"nu must lie in (0, 7/64], got {nu}")
        _require_unit(u)
        lam = u * (p ** nu + p ** (-nu))
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

    def validate(self) -> None:
        """Raise InvalidInputError unless the stored fields are consistent."""
        _require_prime(self.p)
        ab = self.alpha * self.beta
        if abs(abs(ab) - 1.0) > UNIT_MODULUS_TOL:
            raise InvalidInputError(
                f"alpha*beta has modulus {abs(ab)}, expected 1")
        if self.tempered:
            if not 0.0 <= self.theta_or_nu <= math.pi:
                raise InvalidInputError(f"theta out of [0, pi]: {self.theta_or_nu}")
        else:
            if not 0.0 < self.theta_or_nu <= KIM_SARNAK_NU + 1e-15:
                raise InvalidInputError(f"nu out of (0, 7/64]: {self.theta_or_nu}")
        if abs(self.lam - (self.alpha + self.beta)) > EIGENVALUE_TOL:
            raise InvalidInputError(
                f"stored eigenvalue {self.lam} does not match alpha + beta")


@dataclass(frozen=True)
class CoeffTriple:
    """Adjoint, |sym-cube|^2 and twisted sym-fourth coefficient at one prime."""

    a2: float
    a3_abs_sq: float
    a4: float

    def identity_residuals(self) -> tuple[float, float]:
        return identity_residuals(self.a2, self.a3_abs_sq, self.a4)


def identity_residuals(a2, a3_abs_sq, a4):
    """Residuals |A^2 - (A4 + A + 1)| and |A*A4 - (|A3|^2 - 1)| of the two
    Hecke identities; the arguments are floats or numpy arrays."""
    return (abs(a2 * a2 - (a4 + a2 + 1.0)),
            abs(a2 * a4 - (a3_abs_sq - 1.0)))


def _coeff_sums(alpha, beta):
    """(A, |A3|^2, A4) of the pair (alpha, beta): complex scalars or arrays."""
    r = alpha / beta
    a2 = (r + 1.0 + 1.0 / r).real
    a3 = alpha ** 3 + alpha ** 2 * beta + alpha * beta ** 2 + beta ** 3
    a4 = (r * r + r + 1.0 + 1.0 / r + 1.0 / (r * r)).real
    return a2, abs(a3) ** 2, a4


def _require_prime(p: int) -> None:
    if not (isinstance(p, (int, np.integer)) and p >= 2
            and prime_factors(p) == {p: 1}):
        raise InvalidInputError(f"p must be prime, got {p!r}")


def _require_unit(u: complex) -> None:
    if abs(abs(complex(u)) - 1.0) > UNIT_MODULUS_TOL:
        raise InvalidInputError(f"unit factor has modulus {abs(complex(u))}")


def adjoint_coeff(s: SatakeLocal) -> float:
    """Adjoint-square coefficient A = |lambda|^2 - 1.

    Cross-checked against the parameter-side sum alpha/beta + 1 + beta/alpha;
    the two routes must agree to 1e-12.
    """
    s.validate()
    from_eigenvalue = abs(s.lam) ** 2 - 1.0
    from_params = _coeff_sums(s.alpha, s.beta)[0]
    if abs(from_eigenvalue - from_params) > 1e-12 * max(1.0, abs(from_params)):
        raise InvalidInputError(
            f"eigenvalue route {from_eigenvalue} and parameter route "
            f"{from_params} disagree")
    return from_eigenvalue


def sym_coeffs(s: SatakeLocal) -> CoeffTriple:
    """Coefficient triple (A, |A3|^2, A4) from the literal parameter sums."""
    s.validate()
    return CoeffTriple(*_coeff_sums(s.alpha, s.beta))


def check_hecke_identities(s: SatakeLocal) -> tuple[float, float]:
    """Residuals of A^2 = A4 + A + 1 and A*A4 = |A3|^2 - 1."""
    return sym_coeffs(s).identity_residuals()


def is_ramanujan_local(s: SatakeLocal) -> bool:
    """True iff |lambda| <= 2 at this prime (boundary included)."""
    s.validate()
    return abs(s.lam) <= 2.0


def kim_sarnak_envelope(p):
    """Bound p^{7/64} + p^{-7/64} on |lambda| at p.

    p is an int or an int array; an array gives a float64 array.  The
    bound on |A| is its square minus 1, p^{7/32} + p^{-7/32} + 1.
    """
    if not np.issubdtype(np.asarray(p).dtype, np.integer) or np.any(p < 2):
        raise InvalidInputError(f"p must be a prime >= 2, got {p!r}")
    return p ** KIM_SARNAK_NU + p ** (-KIM_SARNAK_NU)


def sato_tate_angles(rng: np.random.Generator, count: int) -> np.ndarray:
    """Rejection-sample angles with density (2/pi) sin^2(theta) on [0, pi]."""
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        cand = rng.random(2 * need + 16) * math.pi
        acc = rng.random(cand.size) < np.sin(cand) ** 2
        take = cand[acc][:need]
        out[filled:filled + take.size] = take
        filled += take.size
    return out


def _sample_parameters(count: int, mode: str, seed: int,
                       nu_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw the primes and the angles theta (tempered modes) or the
    deviations nu (non-tempered) for the requested mode."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    if mode not in SAMPLE_MODES:
        raise InvalidInputError(f"mode must be one of {SAMPLE_MODES}, got {mode!r}")
    if not 0.0 < nu_max <= KIM_SARNAK_NU:
        raise InvalidInputError(f"nu_max must lie in (0, 7/64], got {nu_max}")
    rng = np.random.default_rng(seed)
    ps = np.array(_SAMPLE_PRIMES, dtype=np.int64)[
        np.arange(count) % len(_SAMPLE_PRIMES)]
    if mode == "non-tempered":
        # 1 - random() is in (0, 1], keeping nu strictly positive
        return ps, nu_max * (1.0 - rng.random(count))
    if mode == "sato-tate":
        return ps, sato_tate_angles(rng, count)
    return ps, rng.random(count) * math.pi


def sample_satake(count: int, mode: str, seed: int,
                  nu_max: float = KIM_SARNAK_NU) -> list[SatakeLocal]:
    """Deterministic sample of local data; see SAMPLE_MODES.

    sato-tate draws tempered angles with density (2/pi) sin^2(theta);
    uniform-angle draws theta uniformly on [0, pi]; non-tempered draws
    nu uniformly on (0, nu_max].  The unit factor is 1 throughout.
    """
    ps, draws = _sample_parameters(count, mode, seed, nu_max)
    make = (SatakeLocal.from_deviation if mode == "non-tempered"
            else SatakeLocal.from_angle)
    return [make(p, x) for p, x in zip(ps.tolist(), draws.tolist())]


def sample_coeff_triples(count: int, mode: str, seed: int,
                         nu_max: float = KIM_SARNAK_NU
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (A, |A3|^2, A4) arrays from the literal parameter sums.

    Same draws as sample_satake; used for bulk identity sweeps where
    constructing objects would dominate runtime.
    """
    ps, draws = _sample_parameters(count, mode, seed, nu_max)
    if mode == "non-tempered":
        pf = ps.astype(np.float64)
        return _coeff_sums(pf ** draws + 0j, pf ** (-draws) + 0j)
    return _coeff_sums(np.exp(1j * draws), np.exp(-1j * draws))
