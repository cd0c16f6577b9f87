import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from maasslab import bounds, dde
from maasslab.bounds import FormMeta
from maasslab.errors import InvalidInputError


def _conductor_product(*metas):
    """The square of least_prime_bound's base: the product of the
    analytic conductors N^2 (1 + |t|)^2 of the forms."""
    return bounds.least_prime_bound(list(metas)).base ** 2


def test_conductor_examples():
    one = FormMeta(1, 0.0)
    assert _conductor_product(one, FormMeta(1, 0.0)) == 1.0
    assert _conductor_product(one, FormMeta(5, 0.0)) == 25.0
    assert _conductor_product(one, FormMeta(2, 3.0)) == 64.0


def test_conductor_scales_quadratically_in_level():
    t = 2.75
    base = _conductor_product(FormMeta(1, 0.0), FormMeta(3, t))
    assert _conductor_product(FormMeta(1, 0.0), FormMeta(9, t)) == \
        pytest.approx(9 * base, rel=1e-14)


def test_conductor_uses_absolute_spectral_parameter():
    assert _conductor_product(FormMeta(1, 0.0), FormMeta(2, -3.0)) == 64.0


def test_form_meta_rejects_bad_level():
    with pytest.raises(InvalidInputError):
        FormMeta(0, 1.0)
    with pytest.raises(InvalidInputError):
        FormMeta(2 ** 63, 1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-float-range"])
def test_form_meta_rejects_non_finite_spectral_parameter(t):
    with pytest.raises(InvalidInputError, match="spectral_parameter must be finite"):
        FormMeta(5, t)


def test_checked_coefficients_rejects_bool_and_float_primes():
    # the int64 conversion would truncate these to [2, 5], [1, 3], ...
    for ps in ([2.7, 5], [True, 3], [2, np.bool_(True)], np.array([2.0, 5.0]),
               np.array([True, False]), np.array([2, 5], dtype=object), ["2", 5]):
        with pytest.raises(InvalidInputError, match="primes must be integers"):
            bounds.checked_coefficients(ps, [1.0, 2.0])
    # integers of any width pass; p = 1 is left to ingest.validate to report
    ps, lams = bounds.checked_coefficients([1, np.int64(2), np.uint8(5)], [1, 2, 3])
    assert ps.tolist() == [1, 2, 5] and ps.dtype == np.int64
    assert bounds.checked_coefficients(ps, lams)[0] is ps    # no copy
    assert FormMeta(1, 1.0, ps=np.array([2, 3], dtype=np.int32), lams=[1, 2]).ps.tolist() == [2, 3]


def test_checked_coefficients_rejects_uint64_above_int64():
    # the int64 conversion would wrap 2^63 + 5 to -9223372036854775803
    with pytest.raises(InvalidInputError, match="9223372036854775813"):
        bounds.checked_coefficients(np.array([2 ** 63 + 5], dtype=np.uint64), [1.0])
    ps, _ = bounds.checked_coefficients(np.array([2, 2 ** 63 - 1], dtype=np.uint64),
                                        [1.0, 2.0])
    assert ps.tolist() == [2, 2 ** 63 - 1]


@given(st.lists(st.integers(-50, 50), unique=True).map(sorted),
       st.lists(st.integers(-60, 60)))
def test_positions_matches_a_dict_lookup(ps, query):
    # negative entries included: a record may hold them until validate
    idx, found = bounds.positions(np.array(ps, dtype=np.int64),
                                  np.array(query, dtype=np.int64))
    where = {p: i for i, p in enumerate(ps)}
    assert found.tolist() == [q in where for q in query]
    assert idx[found].tolist() == [where[q] for q in query if q in where]


def test_two_form_exponent_exact():
    assert bounds.least_prime_exponent(2) == 0.447374


def test_three_form_exponent_near_published_value():
    assert abs(bounds.least_prime_exponent(3) - 0.778798) <= 5e-6


def test_three_form_exponent_closed_form_cross_check():
    det = bounds.exponent_detail(3)
    assert abs(det.zero - math.exp(0.25)) < 1e-6


@pytest.mark.parametrize("m,weights", [(2, (2.0, -2.0)), (3, (1.0, -3.0))])
def test_exponent_zero_matches_closed_form(m, weights):
    # the closed form is the oracle of the numeric zero the bound uses
    det = bounds.exponent_detail(m)
    closed = dde.closed_form_first_zero(dde.DdeSpec(*weights))
    assert abs(det.zero - closed) < 1e-8
    assert det.exponent * closed >= 1.0      # the exponent is valid at the oracle's zero
    if m == 2:                               # U truncated at the 5th decimal
        assert det.u_used <= closed
    else:                                    # U is the numeric zero, 2 ulp above
        assert det.u_used == det.zero and det.u_used - closed < 1e-15


def test_exponent_times_u_is_valid_upper_bound():
    for m in (2, 3):
        det = bounds.exponent_detail(m)
        assert Fraction(det.exponent) * Fraction(det.u_used) >= 1
        assert det.u_used <= det.zero


def test_three_form_exponent_valid_at_exact_zero():
    # u_used is the numeric zero, 2 ulp above U* = e^{1/4}: the guarantee
    # is exponent * e^{1/4} >= 1 itself, here with a margin of about 2.8e-7
    det = bounds.exponent_detail(3)
    with mpmath.workdps(50):
        u_star = mpmath.exp(mpmath.mpf(1) / 4)
        margin = mpmath.mpf(det.exponent) * u_star - 1
    assert det.u_used == math.nextafter(math.nextafter(float(u_star), 2), 2)
    assert 2.7e-7 < margin < 2.9e-7


def test_two_form_u_truncation():
    det = bounds.exponent_detail(2)
    assert det.u_used == 2.23527
    assert 2.23527 < det.zero < 2.23528


def test_round_up_6_never_rounds_down():
    # the first ulps above the double 0.447374, which lies below the
    # decimal, are above the grid point k / 10^6 = 0.447374
    x = 0.447374
    for _ in range(8):
        x = math.nextafter(x, 1.0)
        assert bounds._round_up_6(x) == 0.447375 >= x
    for on_grid in (0.447374, 0.778801, 0.5, 1.0):
        assert bounds._round_up_6(on_grid) == on_grid
    assert bounds._round_up_6(math.nextafter(0.447374, 0.0)) == 0.447374
    for m in (2, 3):
        det = bounds.exponent_detail(m)
        assert det.exponent == (0.447374, 0.778801)[m - 2]
        assert Fraction(det.exponent) * Fraction(det.u_used) >= 1


def test_exponent_detail_rejects_bad_count():
    with pytest.raises(InvalidInputError):
        bounds.least_prime_exponent(4)


def test_least_prime_bound_trivial_forms():
    res = bounds.least_prime_bound([FormMeta(1, 0.0), FormMeta(1, 0.0)])
    assert res.base == 1.0
    assert res.exponent == 0.447374
    assert res.implied_constant == "unspecified"


def test_least_prime_bound_conductor_identity():
    metas = [FormMeta(3, 1.5), FormMeta(7, 0.25)]
    res = bounds.least_prime_bound(metas)
    q_product = math.prod(m.level ** 2 * (1.0 + abs(m.spectral_parameter)) ** 2
                          for m in metas)
    u = res.u_used
    assert q_product ** (1 / (2 * u)) == pytest.approx(res.base ** (1 / u),
                                                       rel=1e-12)


def test_least_prime_bound_three_forms():
    metas = [FormMeta(2, 1.0), FormMeta(3, 0.0), FormMeta(1, 2.0)]
    res = bounds.least_prime_bound(metas)
    assert res.base == 36.0
    assert abs(res.exponent - 0.778798) <= 5e-6
    assert 0.0 < res.exponent < 1.0


def test_least_prime_bound_rejects_a_base_past_float_range():
    # 5 (1 + 1e308) overflows: the base was inf, printed as Infinity
    with pytest.raises(InvalidInputError, match=r"^the base prod N_i \(1 \+ \|t_i\|\) "
                       r"overflows float64 for the levels \[5, 7\]"):
        bounds.least_prime_bound([FormMeta(5, 1e308), FormMeta(7, 1e308)])
    assert bounds.least_prime_bound([FormMeta(1, 1e308), FormMeta(1, 0.0)]).base == 1e308


def test_least_prime_bound_rejects_wrong_count():
    with pytest.raises(InvalidInputError):
        bounds.least_prime_bound([FormMeta(1, 0.0)])


def test_bound_json_payload():
    res = bounds.least_prime_bound([FormMeta(1, 0.0), FormMeta(1, 0.0)])
    doc = res.to_json_dict()
    assert doc["implied_constant"] == "unspecified"
    assert set(doc) == {"base", "exponent", "implied_constant",
                        "source_zero", "U_used"}
