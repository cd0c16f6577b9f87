"""Local Hecke data at an unramified prime, in bulk: seeded samplers of
Satake parameter pairs, their coefficient sums as arrays, the identity
residuals and the Kim-Sarnak envelope.

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
well-formed datum, tempered or not.  The tests check the array sums
against a validated object per datum (tests/oracles.py).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

KIM_SARNAK_NU = 7.0 / 64.0

SAMPLE_MODES = ("sato-tate", "non-tempered")
_CHUNK = 2 ** 13             # samples per pass of sample_coeff_triples
MAX_SAMPLES = 5 * 10 ** 6    # samples per draw; at the cap one sato-tate call
                             # peaks at 313 MiB RSS and identity-check --samples
                             # 10^7 at 619 MiB (numpy 2.4, x86-64 Linux)

# prime pool cycled through by the samplers
_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


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


def _sample_parameters(count: int, mode: str, seed: int) -> np.ndarray:
    """Draw the Sato-Tate angles theta (sato-tate) or the deviations nu
    (non-tempered); sample i is at the prime _SAMPLE_PRIMES[i % 25].  A
    count above MAX_SAMPLES raises ResourceLimitError, and a negative
    seed InvalidInputError, before anything is allocated."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    if count > MAX_SAMPLES:
        raise ResourceLimitError(
            f"count {count} exceeds the cap of {MAX_SAMPLES} samples per draw")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if mode not in SAMPLE_MODES:
        raise InvalidInputError(f"mode must be one of {SAMPLE_MODES}, got {mode!r}")
    rng = np.random.default_rng(seed)
    if mode == "non-tempered":
        # 1 - random() lies in [2^-53, 1], so nu >= 7/64 * 2^-53 > 0
        return KIM_SARNAK_NU * (1.0 - rng.random(count))
    return sato_tate_angles(rng, count)


def sample_coeff_triples(count: int, mode: str, seed: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (A, |A3|^2, A4) arrays from the literal parameter sums.

    Used for bulk identity sweeps, where constructing an object per
    sample would dominate runtime.  The sums fill the rows
    of one (3, count) array _CHUNK samples at a time, so that besides the
    draws it holds the complex temporaries of one chunk; each sample meets
    the float operations of one whole-array pass, and gets its bytes.
    Only the non-tempered sums read the primes, one chunk at a time.
    """
    draws = _sample_parameters(count, mode, seed)
    out = np.empty((3, count))
    pool = np.array(_SAMPLE_PRIMES, dtype=np.float64)
    for a in range(0, count, _CHUNK):
        x = draws[a:a + _CHUNK]
        if mode == "non-tempered":
            pf = pool[np.arange(a, a + x.size) % pool.size]
            out[:, a:a + _CHUNK] = _coeff_sums(pf ** x + 0j, pf ** (-x) + 0j)
        else:
            out[:, a:a + _CHUNK] = _coeff_sums(np.exp(1j * x), np.exp(-1j * x))
    return tuple(out)
