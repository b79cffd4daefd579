"""Fock space basics: spaces, normalization, grading, basis enumeration."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as hst

from chiralg.fock import (
    Family,
    FockError,
    ModeKey,
    Side,
    State,
    TorusWeights,
    UnboundedBasisError,
    _creator_classes,
    _creator_multisets,
    enumerate_basis,
    make_space,
    monomial_key,
    monomial_text,
    normalize,
    torus_window_counts,
    torus_window_euler,
)
from chiralg.cohomology import euler_series
from conftest import X, Y, PHI, PSI, degree, partition_gf_coeffs, st, weight
from mode_oracle import (
    enumerate_torus_window,
    reference_basis,
    reference_euler_series,
    reference_torus_window,
)

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)


def torus(mono, tw):
    """The torus value of a monomial: the sum over its letters."""
    return sum(tw.of_mode(m) for m in mono)


def test_make_space_rejects_bad_dim():
    with pytest.raises(FockError):
        make_space(Side.THETA, 0)


def test_theta_creator_thresholds():
    assert THETA1.is_creator(X(0))
    assert not THETA1.is_creator(X(-1))
    assert THETA1.is_creator(Y(1)) and not THETA1.is_creator(Y(0))
    assert THETA1.is_creator(PSI(0)) and not THETA1.is_creator(PSI(-1))
    assert THETA1.is_creator(PHI(1)) and not THETA1.is_creator(PHI(0))


def test_omega_creator_thresholds():
    assert OMEGA1.is_creator(PHI(0)) and not OMEGA1.is_creator(PHI(-1))
    assert OMEGA1.is_creator(PSI(1)) and not OMEGA1.is_creator(PSI(0))
    assert OMEGA1.is_creator(X(0)) and OMEGA1.is_creator(Y(1))


def test_theta2_has_two_direction_copies():
    space = make_space(Side.THETA, 2)
    assert space.is_creator(ModeKey(Family.X, 2, 0))
    with pytest.raises(FockError):
        space.check_direction(ModeKey(Family.X, 3, 0))


def test_basis_weight2_cap0_no_zero_fermion():
    basis = enumerate_basis(
        THETA1, 2, x0_cap=0, zero_fermion_allowed=False
    )
    texts = {monomial_text(m) for m in basis}
    assert texts == {
        "x_1 x_1", "x_1 y_1", "y_1 y_1", "x_1 psi_1", "x_1 phi_1",
        "y_1 psi_1", "y_1 phi_1", "psi_1 phi_1", "x_2", "y_2",
        "psi_2", "phi_2",
    }
    assert len(basis) == 12


def test_basis_weight0_cap2():
    basis = enumerate_basis(THETA1, 0, x0_cap=2)
    assert {monomial_text(m) for m in basis} == {
        "1", "x_0", "x_0 x_0", "psi_0", "x_0 psi_0", "x_0 x_0 psi_0"
    }
    assert len(basis) == 6


def test_basis_omega_torus_regularized():
    tw = TorusWeights((1,), (-2,))
    window = enumerate_torus_window(OMEGA1, 0, tw, (-1, -1))
    assert [(t, k, monomial_text(m)) for t, k, m in window] == [(-1, 1, "x_0 phi_0")]


def test_normalize_fermion_swap():
    out = st(THETA1, PHI(2), PHI(1))
    assert out == st(THETA1, PHI(1), PHI(2), coeff=-1)


def test_normalize_fermion_square_is_zero():
    assert st(THETA1, PSI(0), PSI(0)).is_zero()


def test_normalize_bosons_commute():
    assert st(THETA1, X(1), X(0)) == st(THETA1, X(0), X(1))


def test_normalize_rejects_annihilator():
    with pytest.raises(FockError):
        normalize(THETA1, (Y(0),))


def test_grade_examples():
    m = next(iter(st(THETA1, X(2), Y(1), PSI(0)).terms))
    assert weight(m) == 3 and degree(m) == -1
    tw = TorusWeights((1,), (-2,))  # f = z^3 assignment
    assert torus(m, tw) == 1 - 1 + 2
    vacuum = ()
    assert (weight(vacuum), degree(vacuum), torus(vacuum, tw)) == (0, 0, 0)
    assert next(iter(State.of(()).terms)) == vacuum


def test_torus_weights_conjugacy_enforced():
    # y and psi carry the weights of x and phi negated, by construction
    tw = TorusWeights((1, -3), (2, 0))
    for j in (1, 2):
        x, y, phi, psi = (tw.of_mode(ModeKey(fam, j, 0)) for fam in Family)
        assert (y, psi) == (-x, -phi)
    with pytest.raises(FockError):
        TorusWeights((1,), (2, 0))


def test_basis_sizes_match_partition_product():
    want = partition_gf_coeffs(6)
    for q in range(7):
        basis = enumerate_basis(THETA1, q, x0_cap=0, zero_fermion_allowed=False)
        assert len(basis) == want[q], f"weight {q}"


def test_unbounded_request_rejected_with_diagnostic():
    # the weight-0 piece is infinite without a cap, so the cap is required
    with pytest.raises(TypeError) as err:
        enumerate_basis(THETA1, 0)
    assert "x0_cap" in str(err.value)


def test_unbounded_torus_weights_rejected():
    tw = TorusWeights((0,), (1,))
    with pytest.raises(UnboundedBasisError) as err:
        list(enumerate_torus_window(THETA1, 0, tw, (0, 0)))
    assert "x1_0" in str(err.value)
    theta2 = make_space(Side.THETA, 2)
    for wx in ((1, 0), (1, -1)):
        tw = TorusWeights(wx, (0, 0))
        with pytest.raises(UnboundedBasisError):
            list(enumerate_torus_window(theta2, 1, tw, (-2, 2)))


_CREATORS = [X(0), X(1), X(2), Y(1), Y(2), PSI(0), PSI(1), PHI(1), PHI(2)]


@given(hst.lists(hst.sampled_from(_CREATORS), max_size=6))
def test_normalize_idempotent(modes):
    once = normalize(THETA1, modes)
    for m, c in once.terms.items():
        again = normalize(THETA1, m, c)
        assert again == State({m: c})


@given(
    hst.lists(hst.sampled_from(_CREATORS), max_size=4),
    hst.lists(hst.sampled_from(_CREATORS), max_size=4),
)
def test_grade_is_additive(a, b):
    tw = TorusWeights((1,), (-2,))
    whole = normalize(THETA1, tuple(a) + tuple(b))
    if whole.is_zero():
        return
    m = next(iter(whole.terms))
    wa = sum(k.index for k in a)
    da = sum(k.degree for k in a)
    ta = sum(tw.of_mode(k) for k in a)
    wb = sum(k.index for k in b)
    db = sum(k.degree for k in b)
    tb = sum(tw.of_mode(k) for k in b)
    assert weight(m) == wa + wb
    assert degree(m) == da + db
    assert torus(m, tw) == ta + tb


def test_enumerated_monomials_satisfy_requested_grade():
    tw = TorusWeights((1,), (-2,))
    for q in range(4):
        for mono in enumerate_basis(THETA1, q, x0_cap=2):
            assert weight(mono) == q and mono.count(X(0)) <= 2
        for t, k, mono in enumerate_torus_window(THETA1, q, tw, (-3, 3)):
            assert weight(mono) == q and degree(mono) == k
            assert torus(mono, tw) == t and -3 <= t <= 3


def test_state_arithmetic_is_exact():
    v = State.of((), Fraction(1, 3)) + State.of((), Fraction(2, 3))
    assert v == State.of(())
    assert (v - v).is_zero()


# (side, wx, wphi, window, max weight); dims 1-3, both sides, both signs of wx
_WINDOW_CASES = [
    (Side.THETA, (1,), (-2,), (-4, 3), 3),
    (Side.OMEGA, (-2,), (3,), (-3, 5), 3),
    (Side.THETA, (1, 2), (0, -1), (-1, 2), 1),
    (Side.OMEGA, (-1, -1), (1, 0), (-2, 1), 2),
    (Side.THETA, (1, 1, 1), (0, 0, 1), (-1, 1), 1),
    (Side.OMEGA, (-1, -1, -1), (1, 0, 0), (-1, 1), 1),
]


@pytest.mark.parametrize("side, wx, wphi, window, max_weight", _WINDOW_CASES)
def test_torus_window_matches_capped_enumeration(side, wx, wphi, window, max_weight):
    space = make_space(side, len(wx))
    tw = TorusWeights(wx, wphi)
    lo, hi = window
    bound = max(abs(w) for w in wx + wphi)
    for q in range(max_weight + 1):
        # a base of weight q has at most q + dim letters, each of torus value
        # at most `bound` in size, and every x_0 letter moves the torus value
        # by at least 1 in one direction: no monomial in the window has more
        # x_0 letters than this cap
        cap = max(abs(lo), abs(hi)) + (q + space.dim) * bound
        capped = [(torus(m, tw), m) for m in enumerate_basis(space, q, x0_cap=cap)]
        got = {}
        for t, degree, mono in enumerate_torus_window(space, q, tw, window):
            assert degree == sum(m.degree for m in mono)
            got.setdefault(t, []).append(mono)
        for t in range(lo, hi + 1):
            want = [m for tm, m in capped if tm == t]
            assert sorted(got.pop(t, []), key=monomial_key) == want
        assert not got, f"torus values outside the window: {sorted(got)}"


def test_empty_torus_window_yields_nothing():
    tw = TorusWeights((1,), (0,))
    assert list(enumerate_torus_window(THETA1, 2, tw, (1, 0))) == []
    # weight 0 of the theta side with these weights has torus values >= 0
    assert list(enumerate_torus_window(THETA1, 0, tw, (-5, -1))) == []


@hst.composite
def _pieces(draw):
    """A space of dim 1-3, either side, and a weight: 0-3, or 0-1 at dim 3."""
    dim = draw(hst.integers(1, 3))
    space = make_space(draw(hst.sampled_from(Side)), dim)
    return space, draw(hst.integers(0, 3 if dim < 3 else 1))


@settings(max_examples=100, deadline=None)
@given(_pieces(), hst.integers(0, 3), hst.booleans())
def test_basis_matches_recursive_reference(piece, cap, zero_fermions):
    space, weight = piece
    got = enumerate_basis(space, weight, x0_cap=cap, zero_fermion_allowed=zero_fermions)
    assert got == reference_basis(
        space, weight, x0_cap=cap, zero_fermion_allowed=zero_fermions
    )


def _torus_case(data):
    """A piece, torus weights regularizing x_0 (every wx nonzero and of one
    sign, |w| <= 3, wphi in -3..3) and a window lo..hi, empty when
    hi = lo - 1."""
    space, weight = data.draw(_pieces())
    sign = data.draw(hst.sampled_from((1, -1)))
    wx = [sign * data.draw(hst.integers(1, 3)) for _ in range(space.dim)]
    wphi = [data.draw(hst.integers(-3, 3)) for _ in range(space.dim)]
    lo = data.draw(hst.integers(-8, 8))
    window = (lo, data.draw(hst.integers(lo - 1, lo + 8)))
    return space, weight, TorusWeights(wx, wphi), window


@settings(max_examples=100, deadline=None)
@given(hst.data())
def test_torus_window_matches_recursive_reference(data):
    space, weight, tw, window = _torus_case(data)

    def triples(it):
        return sorted((t, k, monomial_key(m)) for t, k, m in it)

    assert triples(enumerate_torus_window(space, weight, tw, window)) == triples(
        reference_torus_window(space, weight, tw, window)
    )


def _tally(triples) -> dict:
    counts = {}
    for t, degree, _ in triples:
        counts[t, degree] = counts.get((t, degree), 0) + 1
    return counts


def _counts_of_weight(counts: dict, weight: int) -> dict:
    """The ``(t, degree)`` counts of one weight in ``torus_window_counts``."""
    return {(t, k): n for (q, t, k), n in counts.items() if q == weight}


def _euler_of_weight(euler: dict, weight: int) -> dict:
    """The ``t: chi`` sums of one weight in ``torus_window_euler``."""
    return {t: chi for (q, t), chi in euler.items() if q == weight}


def _signed(tally: dict) -> dict:
    """The nonzero sums of (-1)^degree per t of a ``(t, degree)`` tally."""
    signed = {}
    for (t, k), n in tally.items():
        signed[t] = signed.get(t, 0) + (-n if k % 2 else n)
    return {t: chi for t, chi in signed.items() if chi}


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_window_counts_and_euler_series_match_the_monomials(data):
    """The counts of every weight through the drawn one equal the (t, degree)
    tally of the enumerated window and of the recursive reference, and the
    Euler series equals the per-monomial sum."""
    space, weight, tw, window = _torus_case(data)
    counts = torus_window_counts(space, weight, tw, window)
    assert {q for q, _, _ in counts} <= set(range(weight + 1))
    for q in range(weight + 1):
        got = _counts_of_weight(counts, q)
        assert got == _tally(enumerate_torus_window(space, q, tw, window))
        assert got == _tally(reference_torus_window(space, q, tw, window))
    got = euler_series(space, weight, window, tw)
    want = reference_euler_series(space, weight, window, tw)
    assert got == want
    assert repr(got) == repr(want)  # the same rows in the same order


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_folded_euler_counts_are_the_signed_window_counts(data):
    """Signing the knapsack's counts as each fermion enters, before the x_0
    letters are placed, gives, per (weight, t), the sum over the degree of
    (-1)^degree times the window counts, zeros dropped, under x_0 weights
    of either sign with |wx| <= 3, so that a stride is longer than one
    torus value; and the Euler series holds exactly those values in its
    rows."""
    space, weight, tw, window = _torus_case(data)
    signed = {}
    for (q, t, k), n in torus_window_counts(space, weight, tw, window).items():
        signed[q, t] = signed.get((q, t), 0) + (-n if k % 2 else n)
    want = {key: chi for key, chi in signed.items() if chi}
    assert torus_window_euler(space, weight, tw, window) == want
    series = euler_series(space, weight, window, tw)
    assert {(q, t): chi for q, row in series.rows.items() for t, chi in row.items()} == want


def test_window_counts_of_empty_and_unreachable_windows():
    tw = TorusWeights((1, 2), (0, -1))
    theta2 = make_space(Side.THETA, 2)
    # hi < lo
    assert torus_window_counts(theta2, 2, tw, (1, 0)) == {}
    # every x_0 placement of every base lies above hi
    assert torus_window_counts(theta2, 0, tw, (-9, -1)) == {}
    # the vacuum and psi1_0
    assert torus_window_counts(theta2, 0, tw, (0, 0)) == {(0, 0, 0): 1, (0, 0, -1): 1}
    for window in ((1, 0), (-9, -1), (0, 0)):
        assert torus_window_euler(theta2, 2 if window == (1, 0) else 0, tw, window) == {}
    for wx in ((1, -1), (0, 1), (-2, 0)):
        for count in (torus_window_counts, torus_window_euler):
            with pytest.raises(UnboundedBasisError):
                count(theta2, 1, TorusWeights(wx, (0, 0)), (0, 3))


def _capped_window_tally(space, weight, tw, window) -> dict:
    """The (t, degree) tally of the window read off the x_0-capped basis,
    with a cap no monomial of the window exceeds: in units in which every
    x_0 weight is positive, an x{j}_0 letter raises the torus value by
    |wx_j| >= 1 above the least value of an x_0-free base."""
    lo, hi = window
    flip = -1 if tw.wx[0] < 0 else 1
    top = hi if flip > 0 else -lo
    least = min(flip * torus(m, tw) for m in enumerate_basis(space, weight, x0_cap=0))
    cap = max(0, top - least)
    return _tally(
        (torus(m, tw), sum(x.degree for x in m), m)
        for m in enumerate_basis(space, weight, x0_cap=cap)
        if lo <= torus(m, tw) <= hi
    )


@hst.composite
def _counted_windows(draw):
    """A space of dim 1-3, either side, torus weights regularizing x_0 of
    either sign (|wx| <= 2, wphi in -2..2), a top weight (0-4 at dim 1, 0-2
    at dim 2, 0-1 at dim 3) and a window, which may be empty (hi = lo - 1)
    or out of reach.  In units in which the x_0 weights are positive, the
    window's top lies at most 8, 5 or 3 above the least torus value of an
    x_0-free base, which keeps the capped basis small."""
    dim = draw(hst.integers(1, 3))
    space = make_space(draw(hst.sampled_from(Side)), dim)
    max_weight = draw(hst.integers(0, (4, 2, 1)[dim - 1]))
    sign = draw(hst.sampled_from((1, -1)))
    tw = TorusWeights(
        tuple(sign * draw(hst.integers(1, 2)) for _ in range(dim)),
        tuple(draw(hst.integers(-2, 2)) for _ in range(dim)),
    )
    least = min(
        sign * torus(m, tw)
        for q in range(max_weight + 1)
        for m in enumerate_basis(space, q, x0_cap=0)
    )
    top = draw(hst.integers(least - 3, least + (8, 5, 3)[dim - 1]))
    bottom = draw(hst.integers(top - 5, top + 1))
    window = (bottom, top) if sign > 0 else (-top, -bottom)
    return space, max_weight, tw, window


@settings(max_examples=100, deadline=None)
@given(_counted_windows())
def test_window_counts_match_the_capped_enumeration(case):
    """One walk counts every weight 0..max_weight: each weight's counts equal
    the tally of its enumerated window and of the x_0-capped basis filtered
    by torus value."""
    space, max_weight, tw, window = case
    counts = torus_window_counts(space, max_weight, tw, window)
    for q in range(max_weight + 1):
        got = _counts_of_weight(counts, q)
        assert got == _tally(enumerate_torus_window(space, q, tw, window))
        assert got == _capped_window_tally(space, q, tw, window)


@hst.composite
def _wide_windows(draw):
    """A space of dim 2-3, either side, x_0 strides 1-3 of either sign (wphi
    in -1..1), a top weight (0-2 at dim 2, 0-1 at dim 3) and a window that
    holds every torus value of an x_0-free base: up to 40 values wide, its
    low end down to -30.  In units in which the x_0 weights are positive,
    its top lies at most 40 (dim 2) or 24 (dim 3) above the least such
    value, which keeps the enumerated window small."""
    dim = draw(hst.integers(2, 3))
    space = make_space(draw(hst.sampled_from(Side)), dim)
    max_weight = draw(hst.integers(0, 4 - dim))
    sign = draw(hst.sampled_from((1, -1)))
    tw = TorusWeights(
        tuple(sign * draw(hst.integers(1, 3)) for _ in range(dim)),
        tuple(draw(hst.integers(-1, 1)) for _ in range(dim)),
    )
    values = [
        sign * torus(m, tw)
        for q in range(max_weight + 1)
        for m in enumerate_basis(space, q, x0_cap=0)
    ]
    least, most = min(values), max(values)
    bottom = draw(hst.integers(max(-30, most - 40), least))
    top = draw(hst.integers(most, min(bottom + 40, least + (40, 24)[dim - 2])))
    window = (bottom, top) if sign > 0 else (-top, -bottom)
    return space, max_weight, tw, window


@settings(max_examples=40, deadline=None)
@given(_wide_windows())
def test_wide_window_counts_match_the_monomials(case):
    """Windows wider than the range of the bases' torus values, where most
    monomials carry several x_0 letters of several directions: the counts
    and the Euler sums of every weight equal the tallies of the enumerated
    window."""
    space, max_weight, tw, window = case
    counts = torus_window_counts(space, max_weight, tw, window)
    euler = torus_window_euler(space, max_weight, tw, window)
    for q in range(max_weight + 1):
        tally = _tally(enumerate_torus_window(space, q, tw, window))
        assert _counts_of_weight(counts, q) == tally
        assert _euler_of_weight(euler, q) == _signed(tally)


def test_window_counts_run_no_odometer(monkeypatch):
    """The window counts and the Euler sums place the x_0 letters by the
    sweep alone: with the odometer made to raise, they still equal the
    tallies of the enumerated windows, which walk it."""
    import chiralg.fock as fock

    cases = [
        (make_space(Side.OMEGA, 1), 4, TorusWeights((1,), (-2,)), (-10, 4)),
        (make_space(Side.THETA, 2), 2, TorusWeights((-1, -2), (1, 0)), (-6, 9)),
        (make_space(Side.OMEGA, 3), 1, TorusWeights((2, 2, 3), (-4, -4, -3)), (-14, 2)),
    ]
    wanted = []
    for space, max_weight, tw, window in cases:
        tallies = [_tally(enumerate_torus_window(space, q, tw, window)) for q in range(max_weight + 1)]
        assert any(tallies)
        wanted.append(tallies)

    def refuse(*args):
        raise AssertionError("the counting path ran the x_0 odometer")

    monkeypatch.setattr(fock, "_x0_odometer", refuse)
    for (space, max_weight, tw, window), tallies in zip(cases, wanted):
        counts = torus_window_counts(space, max_weight, tw, window)
        euler = torus_window_euler(space, max_weight, tw, window)
        for q, tally in enumerate(tallies):
            assert _counts_of_weight(counts, q) == tally
            assert _euler_of_weight(euler, q) == _signed(tally)


@settings(max_examples=100, deadline=None)
@given(_pieces(), hst.integers(0, 2), hst.booleans(), hst.booleans())
def test_walker_carries_the_grades_of_its_one_weight(piece, cap, zero_fermions, valued):
    """Every leaf has the walked weight, and its degree and torus value equal
    the sums over its modes; no leaf repeats, and a negative weight has
    none."""
    space, q = piece
    tw = TorusWeights(tuple(range(1, space.dim + 1)), (-2,) * space.dim)
    value = tw.of_mode if valued else None
    leaves = list(_creator_multisets(space, q, cap, zero_fermions, value))
    for k, t, modes in leaves:
        assert weight(modes) == q and k == degree(modes)
        assert t == (torus(modes, tw) if valued else 0)
    assert len(set(leaves)) == len(leaves)
    assert not list(_creator_multisets(space, -1 - q, cap, zero_fermions, value))


@settings(max_examples=100, deadline=None)
@given(hst.data(), hst.booleans())
def test_creator_classes_tally_the_walked_bases(data, valued):
    """The knapsack's count per (weight, degree, value) equals the tally of
    the x_0-free bases that the walks of the weights 0..hi yield, torus
    values taken from weights of any sign, zero included; signed, its count
    per (weight, value) is the sum of (-1)^degree over them."""
    dim = data.draw(hst.integers(1, 3))
    space = make_space(data.draw(hst.sampled_from(Side)), dim)
    hi = data.draw(hst.integers(0, (6, 4, 3)[dim - 1]))
    tw = TorusWeights(
        tuple(data.draw(hst.integers(-3, 3)) for _ in range(dim)),
        tuple(data.draw(hst.integers(-3, 3)) for _ in range(dim)),
    )
    value = tw.of_mode if valued else None
    tally, signed = {}, {}
    for q in range(hi + 1):
        for k, t, _ in _creator_multisets(space, q, 0, True, value):
            tally[q, k, t] = tally.get((q, k, t), 0) + 1
            signed[q, 0, t] = signed.get((q, 0, t), 0) + (-1) ** (k % 2)

    def flat(layers):
        return {(q, k, t): c for q, rows in enumerate(layers) for k, row in rows.items()
                for t, c in row.items() if c}

    assert len(_creator_classes(space, hi, value)) == hi + 1
    assert flat(_creator_classes(space, hi, value)) == tally
    assert flat(_creator_classes(space, hi, value, signed=True)) == {
        key: c for key, c in signed.items() if c
    }


@given(hst.lists(hst.lists(hst.sampled_from(_CREATORS), max_size=5), max_size=12))
def test_monomial_key_orders_as_mode_tuples(words):
    monos = [tuple(sorted(w, key=ModeKey.sort_key)) for w in words]
    assert sorted(monos, key=monomial_key) == sorted(monos)
