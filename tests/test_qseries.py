"""Truncated bigraded series arithmetic, theta products, the character oracle."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as hst

from chiralg.charges import Potential, default_torus_weights
from chiralg.cohomology import euler_series
from chiralg.fock import Side, make_space
from chiralg.qseries import SeriesError, TruncatedSeries, chi_closed_form, compare
from mode_oracle import reduced_theta, reference_chi_closed_form

OMEGA1 = make_space(Side.OMEGA, 1)
ONE_MINUS_Z = TruncatedSeries(5, {0: {0: 1, 1: -1}})

# z-Laurent rows with small exponents and coefficients
ROWS = hst.dictionaries(hst.integers(-3, 3), hst.integers(-2, 2), max_size=4)


@hst.composite
def unit_series(draw):
    """A series whose q^0 row is 1, so that it has a q-adic inverse."""
    qmax = draw(hst.integers(0, 4))
    rows = {j: draw(ROWS) for j in range(1, qmax + 1)}
    rows[0] = {0: 1}
    return TruncatedSeries(qmax, rows)


def test_geometric_inverse():
    # 1/(1 - q z) = sum_j q^j z^j
    inv = TruncatedSeries(4, {0: {0: 1}, 1: {1: -1}}).invert()
    assert inv.rows == {j: {j: 1} for j in range(5)}


def test_theta_low_rows():
    # theta(z) = (1 - z) P(z)
    th = ONE_MINUS_Z.mul(reduced_theta(5, 1))
    assert th.rows[0] == {0: 1, 1: -1}  # 1 - z
    assert th.rows[1] == {-1: -1, 0: 1, 1: -1, 2: 1}  # 1 + z^2 - z - 1/z


def test_theta_times_inverse_is_one():
    for step in (1, 2, 3):
        p = reduced_theta(4, step)
        assert p.mul(p.invert()).rows == {0: {0: 1}}


@settings(max_examples=200, deadline=None)
@given(unit_series())
def test_product_with_q_adic_inverse_is_one(s):
    assert s.mul(s.invert()).rows == {0: {0: 1}}
    assert s.invert().mul(s).rows == {0: {0: 1}}


@given(ROWS.filter(lambda r: {e: v for e, v in r.items() if v} != {0: 1}))
def test_invert_refuses_q0_row_other_than_one(row):
    with pytest.raises(SeriesError):
        TruncatedSeries(2, {0: row, 1: {1: 1}}).invert()


def test_chi_closed_form_q0_rows():
    for d in (1, 2, 3):
        cf = chi_closed_form(d, 3)
        assert cf.rows[0] == {e: -1 for e in range(-d, 0)}


def test_chi_closed_form_d1_is_bare_pole():
    cf = chi_closed_form(1, 6)
    assert cf.rows == {0: {-1: -1}}


def test_chi_closed_form_d2_q1_row():
    # frozen from the brute-force graded-dimension enumeration
    cf = chi_closed_form(2, 2)
    assert cf.rows[1] == {-4: 1, -2: -1, -1: -1, 1: 1}


def test_chi_closed_form_matches_brute_force_on_full_support():
    """Row q^j of the closed form lies in z^{-d-jd} .. z^{jd-1}, so a
    brute-force window covering that range compares every coefficient."""
    qmax = 4
    for d in range(1, 5):
        cf = chi_closed_form(d, qmax)
        for j, row in cf.rows.items():
            assert -d - j * d <= min(row) and max(row) <= j * d - 1
        window = (-d - qmax * d, qmax * d - 1)
        tw = default_torus_weights(Potential.single_variable(d + 1))
        brute = euler_series(OMEGA1, qmax, window, tw)
        report = compare(brute, cf)
        assert report, report.first_mismatch
        assert report.zwindow == window


def test_euler_series_matches_closed_form_at_q_max_10():
    """The brute-force Euler series of f = z^(d+1) equals the closed form on
    its full support through q^10, for d = 2, 3."""
    qmax = 10
    for d in (2, 3):
        window = (-d - qmax * d, qmax * d - 1)
        tw = default_torus_weights(Potential.single_variable(d + 1))
        report = compare(euler_series(OMEGA1, qmax, window, tw), chi_closed_form(d, qmax))
        assert report, report.first_mismatch


def test_compare_reports():
    p = reduced_theta(3, 1)
    assert compare(p, p)
    rows = {j: dict(r) for j, r in p.rows.items()}
    rows[1][3] = rows[1].get(3, 0) + 1
    other = TruncatedSeries(3, rows)
    report = compare(p, other, zwindow=(-4, 4))
    assert not report
    assert report.first_mismatch == (1, 3, 0, 1)
    narrow = compare(p, p, zwindow=(-2, 1))
    assert narrow.zwindow == (-2, 1)


def test_compare_empty_intersection():
    a = TruncatedSeries(2, {0: {0: 1}}, zwindow=(-1, 0))
    b = TruncatedSeries(2, {0: {2: 1}}, zwindow=(2, 3))
    with pytest.raises(SeriesError):
        compare(a, b)


def test_integer_coefficients_enforced():
    with pytest.raises(SeriesError):
        TruncatedSeries(1, {0: {0: Fraction(1, 2)}})


def test_invert_requires_unit_lead():
    for row in ({0: 2}, {0: -1}, {1: 1}, {0: 1, 1: -1}):
        with pytest.raises(SeriesError):
            TruncatedSeries(1, {0: row}).invert()
    with pytest.raises(SeriesError):
        TruncatedSeries(1, {1: {0: 1}}).invert()  # q^0 row is zero


def test_mul_requires_support_bounds():
    # a series exact only on a window has unknown support outside it
    windowed = TruncatedSeries(2, {0: {0: 1}}, zwindow=(-1, 1))
    with pytest.raises(SeriesError):
        windowed.mul(ONE_MINUS_Z)
    with pytest.raises(SeriesError):
        ONE_MINUS_Z.mul(windowed)
    with pytest.raises(SeriesError):
        windowed.invert()


def test_validity_window_is_honest():
    s = TruncatedSeries(3, {0: {-2: 1, 0: 4}}, zwindow=(-2, 2))
    assert s.to_json_dict((-1, 2))["rows"]["0"] == {"0": "4"}
    for outside in ((-3, 0), (0, 3)):
        with pytest.raises(SeriesError):
            s.to_json_dict(outside)


def test_json_round_trip():
    p = reduced_theta(4, 1)
    doc = p.to_json_dict((-4, 4))
    assert all(isinstance(v, str) for row in doc["rows"].values() for v in row.values())
    back = {int(j): {int(e): int(v) for e, v in r.items()} for j, r in doc["rows"].items()}
    assert back == {
        j: {e: v for e, v in p.rows.get(j, {}).items() if -4 <= e <= 4}
        for j in range(p.qmax + 1)
    }


@pytest.mark.parametrize("d", range(1, 7))
def test_chi_closed_form_matches_the_q_adic_inverse(d):
    """The factors swept into the head row in place give the series of the
    product with P(z^d) and the q-adic inverse of P(z), row for row."""
    for qmax in range(11):
        got = chi_closed_form(d, qmax)
        want = reference_chi_closed_form(d, qmax)
        assert got == want, qmax


def test_chi_closed_form_rejects_bad_degree():
    with pytest.raises(SeriesError):
        chi_closed_form(0, 2)
