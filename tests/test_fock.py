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


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_window_counts_and_euler_series_match_the_monomials(data):
    """The counts of every weight through the drawn one equal the (t, degree)
    tally of the enumerated window and of the recursive reference, and the
    Euler series built from them equals the per-monomial sum."""
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


def test_window_counts_of_empty_and_unreachable_windows():
    tw = TorusWeights((1, 2), (0, -1))
    theta2 = make_space(Side.THETA, 2)
    # hi < lo
    assert torus_window_counts(theta2, 2, tw, (1, 0)) == {}
    # every x_0 placement of every base lies above hi
    assert torus_window_counts(theta2, 0, tw, (-9, -1)) == {}
    # the vacuum and psi1_0
    assert torus_window_counts(theta2, 0, tw, (0, 0)) == {(0, 0, 0): 1, (0, 0, -1): 1}
    with pytest.raises(UnboundedBasisError):
        torus_window_counts(theta2, 1, TorusWeights((1, -1), (0, 0)), (0, 3))


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


@settings(max_examples=100, deadline=None)
@given(_pieces(), hst.integers(0, 3), hst.integers(0, 2), hst.booleans(), hst.booleans())
def test_walker_carries_grades_and_covers_its_weight_range(piece, lo, cap, zero_fermions, valued):
    """Every leaf's weight, degree and torus value equal the sums over its
    modes, and the walk over lo..hi yields exactly the leaves of the
    exact-weight walks of lo, ..., hi."""
    space, hi = piece
    tw = TorusWeights(tuple(range(1, space.dim + 1)), (-2,) * space.dim)
    value = tw.of_mode if valued else None
    leaves = list(_creator_multisets(space, lo, hi, cap, zero_fermions, value))
    for q, k, t, modes in leaves:
        assert q == weight(modes) and k == degree(modes)
        assert t == (torus(modes, tw) if valued else 0)
    exact = [
        leaf
        for q in range(lo, hi + 1)
        for leaf in _creator_multisets(space, q, q, cap, zero_fermions, value)
    ]
    assert sorted(leaves) == sorted(exact)
    assert len(set(leaves)) == len(leaves)


@settings(max_examples=100, deadline=None)
@given(hst.data(), hst.integers(0, 3), hst.booleans())
def test_creator_classes_tally_the_walked_bases(data, lo, valued):
    """The knapsack's count per (weight, degree, value) equals the tally of
    the x_0-free bases that the walk yields over lo..hi, torus values taken
    from weights of any sign, zero included."""
    dim = data.draw(hst.integers(1, 3))
    space = make_space(data.draw(hst.sampled_from(Side)), dim)
    hi = data.draw(hst.integers(0, (6, 4, 3)[dim - 1]))
    tw = TorusWeights(
        tuple(data.draw(hst.integers(-3, 3)) for _ in range(dim)),
        tuple(data.draw(hst.integers(-3, 3)) for _ in range(dim)),
    )
    value = tw.of_mode if valued else None
    tally = {}
    for q, k, t, _ in _creator_multisets(space, lo, hi, 0, True, value):
        tally[q, k, t] = tally.get((q, k, t), 0) + 1
    assert _creator_classes(space, lo, hi, value) == tally


@given(hst.lists(hst.lists(hst.sampled_from(_CREATORS), max_size=5), max_size=12))
def test_monomial_key_orders_as_mode_tuples(words):
    monos = [tuple(sorted(w, key=ModeKey.sort_key)) for w in words]
    assert sorted(monos, key=monomial_key) == sorted(monos)
