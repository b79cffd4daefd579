"""Truncated bigraded series arithmetic, theta products, the character oracle."""

import pytest
from fractions import Fraction

from chiralg.qseries import (
    SeriesError,
    TruncatedSeries,
    chi_closed_form,
    compare,
    theta,
)


def geometric_check(qmax=3, zmax=8):
    one_minus_z = TruncatedSeries(qmax, {0: {0: 1, 1: -1}}, supp_min=0)
    inv = one_minus_z.invert(zmax)
    return one_minus_z, inv


def test_geometric_inverse():
    s, inv = geometric_check()
    # 1/(1-z) expands as the nonnegative geometric series
    assert inv.rows[0] == {e: 1 for e in range(9)}
    prod = s.mul(inv)
    for e in range(8):
        assert prod.coeff(0, e) == (1 if e == 0 else 0)


def test_theta_low_rows():
    th = theta(5)
    assert th.rows[0] == {0: 1, 1: -1}  # 1 - z
    assert th.rows[1] == {-1: -1, 0: 1, 1: -1, 2: 1}  # 1 + z^2 - z - 1/z


def test_substitute_z():
    s = TruncatedSeries(2, {0: {0: 1, 1: -1}}, supp_min=0)
    assert s.substitute_z(2).rows[0] == {0: 1, 2: -1}


def test_theta_inversion_identity():
    """theta_q(1/z) = -z^{-1} theta_q(z), coefficientwise to q^5."""
    th = theta(5)
    lhs = th.substitute_z(-1)
    rhs = th.shift(z_shift=-1, coeff=-1)
    assert compare(lhs, rhs, zwindow=(-8, 8))


def test_theta_times_inverse_is_one():
    th = theta(4)
    inv = th.invert(6)
    prod = th.mul(inv)
    hi = prod.exact_max
    assert hi is not None and hi >= 0
    for j in range(5):
        for e in range(prod.supp_min, hi + 1):
            assert prod.coeff(j, e) == (1 if j == 0 and e == 0 else 0)


def test_chi_closed_form_q0_rows():
    for d in (1, 2, 3):
        cf = chi_closed_form(d, 3, (-3 * d - 4, 4))
        assert cf.rows[0] == {e: -1 for e in range(-d, 0)}


def test_chi_closed_form_d1_is_bare_pole():
    cf = chi_closed_form(1, 6, (-8, 6))
    assert cf.rows == {0: {-1: -1}}


def test_chi_closed_form_d2_q1_row():
    # frozen from the brute-force graded-dimension enumeration
    cf = chi_closed_form(2, 2, (-8, 4))
    assert cf.rows[1] == {-4: 1, -2: -1, -1: -1, 1: 1}


def test_compare_reports():
    th = theta(3)
    assert compare(th, th)
    rows = {j: dict(r) for j, r in th.rows.items()}
    rows[1][3] = rows[1].get(3, 0) + 1
    other = TruncatedSeries(3, rows, supp_min=th.supp_min)
    report = compare(th, other, zwindow=(-4, 4))
    assert not report
    assert report.first_mismatch == (1, 3, 0, 1)
    narrow = compare(th, th, zwindow=(-2, 1))
    assert narrow.zwindow == (-2, 1)


def test_compare_empty_intersection():
    a = theta(2).clip(zwindow=(-1, 0))
    b = theta(2).clip(zwindow=(2, 3))
    with pytest.raises(SeriesError):
        compare(a, b)


def test_integer_coefficients_enforced():
    with pytest.raises(SeriesError):
        TruncatedSeries(1, {0: {0: Fraction(1, 2)}})


def test_invert_requires_unit_lead():
    s = TruncatedSeries(1, {0: {0: 2}}, supp_min=0)
    with pytest.raises(SeriesError):
        s.invert(3)
    z = TruncatedSeries(1, {1: {0: 1}}, supp_min=0)
    with pytest.raises(SeriesError):
        z.invert(3)  # q^0 row is zero


def test_mul_requires_support_bounds():
    th = theta(2)
    clipped = th.clip(zwindow=(-1, 1))
    with pytest.raises(SeriesError):
        clipped.mul(th)


def test_validity_window_is_honest():
    th = theta(3)
    inv = th.invert(4)
    assert inv.exact_max == 4
    with pytest.raises(SeriesError):
        inv.coeff(0, 5)
    # below the support the series is known to vanish
    assert inv.coeff(0, inv.supp_min - 3) == 0


def test_json_round_trip():
    th = theta(4)
    doc = th.to_json_dict((-4, 4))
    assert all(isinstance(v, str) for row in doc["rows"].values() for v in row.values())
    back = {int(j): {int(e): int(v) for e, v in r.items()} for j, r in doc["rows"].items()}
    assert back == {
        j: {e: v for e, v in th.rows.get(j, {}).items() if -4 <= e <= 4}
        for j in range(th.qmax + 1)
    }


def test_shift_and_negate():
    th = theta(2)
    assert th.shift(z_shift=1).rows[0] == {1: 1, 2: -1}
    assert th.shift(coeff=-1).rows[0] == {0: -1, 1: 1}


def test_chi_closed_form_rejects_bad_degree():
    with pytest.raises(SeriesError):
        chi_closed_form(0, 2, (-2, 2))
