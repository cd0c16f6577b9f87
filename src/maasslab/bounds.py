"""Exponent bookkeeping for the least-prime bounds, and the one form of
coefficient data.

The least-prime exponents come from first zeros of the sieve delay
differential equations: the two-form weight pair (2, -2) and the
three-form pair (1, -3).  Bounds are emitted as (base, exponent) pairs;
the multiplicative constant in front is not extracted, and the payload
says so explicitly.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import dde
from .errors import InvalidInputError

# weight pairs backing the two supported form counts
_WEIGHTS = {2: (2.0, -2.0), 3: (1.0, -3.0)}


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:       # a copy: never freeze an array the caller holds
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _integer_primes(ps):
    """ps as given if its entries are integers; bools and floats raise
    TypeError instead of being truncated by the int64 conversion, and
    unsigned entries above 2^63 - 1 raise OverflowError instead of
    wrapping to negatives."""
    if isinstance(ps, np.ndarray):
        kinds = {ps.dtype.type} if ps.size else set()
    else:
        kinds = set(map(type, ps))
    bad = sorted(t.__name__ for t in kinds if not issubclass(t, numbers.Integral)
                 or issubclass(t, (bool, np.bool_)))
    if bad:
        raise TypeError(f"primes must be integers, got {', '.join(bad)}")
    if isinstance(ps, np.ndarray) and ps.dtype.kind == "u" and ps.size:
        big = ps[ps > np.iinfo(np.int64).max]
        if big.size:
            raise OverflowError(f"prime {int(big.flat[0])} exceeds 2^63 - 1")
    return ps


def checked_coefficients(ps, lams) -> tuple[np.ndarray, np.ndarray]:
    """Check and freeze a pair of coefficient arrays.

    This is the one form of coefficient data: read-only arrays of
    strictly increasing int64 primes ps and the float64 values lams at
    them.  Arrays already in this form are returned as they are; bad
    input raises InvalidInputError.
    """
    try:
        ps = _frozen(_integer_primes(ps), np.int64)
        lams = _frozen(lams, np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad coefficient arrays: {exc}") from exc
    if ps.ndim != 1 or lams.shape != ps.shape:
        raise InvalidInputError(
            f"ps and lams must be 1-d of equal length, got shapes "
            f"{ps.shape} and {lams.shape}")
    steps = np.flatnonzero(np.diff(ps) <= 0)
    if steps.size:
        raise InvalidInputError(
            f"primes not strictly increasing at {int(ps[steps[0] + 1])}")
    return ps, lams


def positions(ps: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, found) for the strictly increasing int64 array ps: found[i]
    is true when query[i] is an entry of ps, and then ps[idx[i]] ==
    query[i]; idx[i] is unspecified, possibly ps.size, where it is false."""
    idx = np.searchsorted(ps, query)
    found = idx < ps.size
    found[found] = ps[idx[found]] == query[found]
    return idx, found


# the scalar fields FormMeta and CoeffRecord share: name -> (type, test,
# requirement); the level meets int64 prime arrays in the scans' level masks
_FIELD_CHECKS = {
    "level": (int, lambda n: 1 <= n <= np.iinfo(np.int64).max, "lie in [1, 2^63 - 1]"),
    "spectral_parameter": (float, lambda t: abs(t) <= sys.float_info.max, "be finite"),
}


def check_field(name: str, value):
    """value as the named field of a form stores it, an int level or a
    float spectral parameter.  InvalidInputError unless it is valid: a
    bool, or a level that is not integral (2.5, 3.0), is refused rather
    than converted."""
    kind, test, requirement = _FIELD_CHECKS[name]
    abstract = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, abstract) or isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(
            f"{name} must be {'an integer' if kind is int else 'a real number'}, "
            f"got {value!r} of type {type(value).__name__}")
    try:
        stored = kind(value)
    except OverflowError:       # an int past the float range
        stored = math.inf
    if not test(stored):
        raise InvalidInputError(f"{name} must {requirement}, got {value}")
    return stored


def check_form_fields(obj) -> None:
    """__post_init__ of FormMeta and CoeffRecord: check the level and the
    spectral parameter and store them as int and float, then check and
    freeze ps/lams; a record and the FormMeta built from it share their
    data."""
    for name in _FIELD_CHECKS:
        object.__setattr__(obj, name, check_field(name, getattr(obj, name)))
    ps, lams = checked_coefficients(obj.ps, obj.lams)
    object.__setattr__(obj, "ps", ps)
    object.__setattr__(obj, "lams", lams)


def fields_equal(a, b):
    """Dataclass value equality that compares array fields elementwise."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a))


@dataclass(frozen=True)
class FormMeta:
    """Level, spectral parameter and optional coefficient arrays of a form."""

    level: int
    spectral_parameter: float
    ps: np.ndarray = field(default=(), compare=False)
    lams: np.ndarray = field(default=(), compare=False)
    label: str | None = None

    __eq__ = fields_equal
    __post_init__ = check_form_fields


@dataclass(frozen=True)
class ExponentDetail:
    """How a least-prime exponent was derived from a first zero."""

    num_forms: int
    zero: float                 # numeric first zero of the weight pair's DDE
    u_used: float               # value of 1/exponent actually exported
    exponent: float             # rounded up at the 6th decimal


def _round_up_6(x: float) -> float:
    """k / 10^6 for the smallest integer k with k / 10^6 >= x, where x is
    taken exactly (as a Fraction); the double nearest k / 10^6 is then
    >= x too, since x is a double."""
    return math.ceil(Fraction(x) * 10 ** 6) / 1e6


def exponent_detail(num_forms: int) -> ExponentDetail:
    """Exponent derivation for 2 or 3 forms.

    Two forms: the first zero (~2.2352796) is truncated at the 5th
    decimal to 2.23527, and the exponent is 1/U rounded up at the 6th
    decimal, giving 0.447374.  Three forms: the zero equals e^{1/4} in
    closed form; the 5-decimal truncation is too coarse there (it moves
    the exponent by 7e-6), so the exponent is taken from the zero itself
    with the same upward rounding, giving 0.778801.  The bound is valid
    as exponent * U* >= 1 at the true zero U*: Fraction(exponent) *
    Fraction(u_used) >= 1 exactly, u_used lies 9.6e-6 below U* for two
    forms, and for three it lies 2 ulp above U* = e^{1/4}, where
    0.778801 * e^{1/4} - 1 = 2.8e-7 at 50 digits.
    """
    if num_forms not in _WEIGHTS:
        raise InvalidInputError(f"num_forms must be 2 or 3, got {num_forms}")
    spec = dde.DdeSpec(*_WEIGHTS[num_forms])
    zero = dde.first_zero(spec, tol=1e-8, initial_step=1e-4)
    if num_forms == 2:
        u_used = math.floor(zero * 1e5) / 1e5
    else:
        u_used = zero
    exponent = _round_up_6(1.0 / u_used)
    return ExponentDetail(num_forms=num_forms, zero=zero, u_used=u_used,
                          exponent=exponent)


def least_prime_exponent(num_forms: int) -> float:
    """Exported least-prime exponent: 0.447374 (two forms), 0.778801 (three)."""
    return exponent_detail(num_forms).exponent


@dataclass(frozen=True)
class BoundResult:
    """A least-prime bound of the shape constant * base^exponent."""

    base: float
    exponent: float
    source_zero: float
    u_used: float
    implied_constant: str = "unspecified"

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "exponent": self.exponent,
            "implied_constant": self.implied_constant,
            "source_zero": self.source_zero,
            "U_used": self.u_used,
        }


def least_prime_bound(metas: list[FormMeta]) -> BoundResult:
    """Bound pair for 2 or 3 forms: base = prod N_i (1 + |t_i|), which
    must be finite in float64."""
    if len(metas) not in _WEIGHTS:
        raise InvalidInputError(
            f"expected 2 or 3 forms, got {len(metas)}")
    base = 1.0
    for m in metas:
        base *= m.level * (1.0 + abs(m.spectral_parameter))
    if not math.isfinite(base):
        raise InvalidInputError(
            f"the base prod N_i (1 + |t_i|) overflows float64 for the levels "
            f"{[m.level for m in metas]} and spectral parameters "
            f"{[m.spectral_parameter for m in metas]}")
    det = exponent_detail(len(metas))
    return BoundResult(base=base, exponent=det.exponent,
                       source_zero=det.zero, u_used=det.u_used)
