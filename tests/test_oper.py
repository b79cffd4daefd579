"""Mode actions, normally ordered terms, charge instantiation, translation."""

import functools
import random
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as hst

from chiralg.charges import (
    Potential,
    StructureConstants,
    chiral_de_rham,
    combine,
    lie_charge,
    potential_charge,
)
from chiralg import oper
from chiralg.field import field_terms
from chiralg.fock import (
    Family,
    ModeKey,
    Side,
    State,
    _koszul_sort,
    enumerate_basis,
    make_space,
)
from chiralg.oper import (
    ChargeOperator,
    OperatorTerm,
    SymbolicCharge,
    _act,
    _contract_into,
    _insert,
    _spread,
    charge_operator,
    combine_terms,
    conjugate_creators,
    instantiate_charge,
    mode_words,
    normal_order,
    normal_product,
)
from conftest import X, Y, PHI, PSI, degree, random_potential, scaled, st, weight
import mode_oracle
from mode_oracle import (
    apply_term,
    reference_image,
    reference_index_assignments,
    reference_normal_order,
    translate,
)

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)
CONJUGATE = {Family.X: Family.Y, Family.Y: Family.X, Family.PHI: Family.PSI, Family.PSI: Family.PHI}


def _compiled(space, term, state):
    """One term through its compiled plan."""
    return ChargeOperator(space, [term])(state)


def apply_mode(space, mode, state):
    """One mode, as a one-term operator."""
    return _compiled(space, OperatorTerm(Fraction(1), (mode,)), state)


def test_apply_mode_y_derivative():
    v = st(THETA1, X(0), X(1))
    assert apply_mode(THETA1, Y(-1), v) == st(THETA1, X(0))


def test_apply_mode_x_derivative_sign():
    assert apply_mode(THETA1, X(-1), st(THETA1, Y(1))) == st(THETA1, coeff=-1)


def test_apply_mode_odd_left_derivation():
    v = st(THETA1, PSI(1), PSI(2))
    assert apply_mode(THETA1, PHI(-1), v) == st(THETA1, PSI(2))


def test_apply_mode_kills_vacuum():
    for mode in (Y(0), X(-1), PHI(0), PSI(-1)):
        assert apply_mode(THETA1, mode, State.of(())).is_zero()


def test_apply_term_annihilate_then_create():
    term = OperatorTerm(Fraction(1), (X(1), PHI(-1)))
    for apply in (apply_term, _compiled):
        assert apply(OMEGA1, term, st(OMEGA1, PSI(1))) == st(OMEGA1, X(1))
        assert apply(OMEGA1, term, State.of(())).is_zero()


def test_apply_term_pure_creators():
    term = OperatorTerm(Fraction(1), (X(0), PHI(0)))
    for apply in (apply_term, _compiled):
        out = apply(OMEGA1, term, st(OMEGA1, PSI(1)))
        assert out == st(OMEGA1, X(0), PHI(0), PSI(1))


def test_normal_order_contraction():
    # y_{-1} x_1 = x_1 y_{-1} + 1
    terms = normal_order(THETA1, Fraction(1), (Y(-1), X(1)))
    by_modes = {t.modes: t.coefficient for t in terms}
    assert by_modes == {(X(1), Y(-1)): Fraction(1), (): Fraction(1)}


def test_normal_order_long_word():
    """Deeper than the interpreter's recursion limit: y_{-1} moves right past
    1199 creators and contracts with x_1 only."""
    xs = tuple(X(i) for i in range(1, 1200))
    terms = normal_order(THETA1, Fraction(1), (Y(-1),) + xs)
    by_modes = {t.modes: t.coefficient for t in terms}
    assert by_modes == {xs + (Y(-1),): Fraction(1), xs[1:]: Fraction(1)}


def test_normal_order_long_word_of_one_repeated_boson():
    """y_{-1} x_1^k = :x_1^k y_{-1}: + k x_1^{k-1}: the contractions with the
    k equal creators, one at each position, add up."""
    k = 1199
    terms = combine_terms(normal_order(THETA1, Fraction(1), (Y(-1),) + (X(1),) * k))
    by_modes = {t.modes: t.coefficient for t in terms}
    assert by_modes == {(X(1),) * k + (Y(-1),): Fraction(1), (X(1),) * (k - 1): Fraction(k)}


@pytest.mark.parametrize("k", range(1, 7))
def test_normal_order_matches_weyl_closed_form(k):
    """y_{-1}^k x_1^k = sum_j C(k, j)^2 j! :x_1^{k-j} y_{-1}^{k-j}:, the
    normal ordering of the Weyl algebra: j of the k annihilators contract,
    with any j of the k creators, in j! pairings."""
    terms = combine_terms(normal_order(THETA1, Fraction(1), (Y(-1),) * k + (X(1),) * k))
    want = [
        OperatorTerm(
            Fraction(comb(k, j) ** 2 * factorial(j)), (X(1),) * (k - j) + (Y(-1),) * (k - j)
        )
        for j in range(k + 1)
    ]
    assert terms == combine_terms(want)


def test_normal_order_of_a_fermion_pair():
    """phi_{-1} psi_1 = {phi_{-1}, psi_1} - psi_1 phi_{-1} = 1 - :psi_1 phi_{-1}:."""
    terms = combine_terms(normal_order(THETA1, Fraction(1), (PHI(-1), PSI(1))))
    want = [OperatorTerm(Fraction(1), ()), OperatorTerm(Fraction(-1), (PSI(1), PHI(-1)))]
    assert terms == combine_terms(want)


LETTERS = hst.lists(hst.tuples(hst.sampled_from(list(Family)), hst.integers(1, 2)), max_size=8)
MAX_WORDS = 100_000


def _word_count(n: int, total: int, window: int) -> int:
    """The number of words ``mode_words`` yields for n letters, counted
    position by position over (what the rest must sum to, weight it may
    still remove), the states of its stack, without building one."""
    if n == 0:
        return int(total == 0)
    if total < -window:
        return 0
    states = {(total, window): 1}
    for _ in range(n - 1):
        nxt = {}
        for (rem, room), ways in states.items():
            for i in range(rem + room, -room - 1, -1):
                key = (rem - i, room + min(i, 0))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(states.values())


@pytest.mark.parametrize("n", range(5))
def test_word_count_counts_the_reference_words(n):
    for total in range(-4, 5):
        for window in range(4):
            count = sum(1 for _ in reference_index_assignments(n, total, window))
            assert _word_count(n, total, window) == count


@settings(max_examples=40, deadline=None)
@given(LETTERS, hst.integers(-4, 4), hst.integers(0, 5))
# eight letters at the most words they reach under the bound: 65,080
@example([(Family.X, 1), (Family.PSI, 2), (Family.Y, 1), (Family.PHI, 1)] * 2, 1, 4)
def test_mode_words_match_index_assignments(letters, total, window):
    """The stack of mode words yields the odometer's index tuples, each put
    on the letters as modes, in the same order.  Up to eight letters are
    drawn, and each example is held to at most ``MAX_WORDS`` words: eight
    letters at window 5 make 896,940."""
    assume(_word_count(len(letters), total, window) <= MAX_WORDS)
    families, directions = zip(*letters) if letters else ((), ())
    want = [
        tuple(map(ModeKey, families, directions, idx))
        for idx in reference_index_assignments(len(letters), total, window)
    ]
    got = list(mode_words(letters, total, window))
    if got != want:
        first = next(k for k, pair in enumerate(zip_longest(got, want)) if pair[0] != pair[1])
        pytest.fail(f"word {first}: {got[first:first + 1]} != {want[first:first + 1]}")


@hst.composite
def pattern_charges(draw):
    """(space, charge, window) on either side in dims 1-2: each pattern is
    1-3 random letters, and on about half the draws also the conjugate
    family of one of them in its direction, so that its words contract."""
    space = make_space(draw(hst.sampled_from([Side.THETA, Side.OMEGA])), draw(hst.integers(1, 2)))
    letter = hst.tuples(hst.sampled_from(list(Family)), hst.integers(1, space.dim))
    patterns = []
    for _ in range(draw(hst.integers(1, 3))):
        letters = draw(hst.lists(letter, min_size=1, max_size=3))
        if draw(hst.booleans()):
            fam, direction = draw(hst.sampled_from(letters))
            letters.insert(draw(hst.integers(0, len(letters))), (CONJUGATE[fam], direction))
        patterns.append((draw(NONZERO), tuple(letters)))
    return space, SymbolicCharge(tuple(patterns)), draw(hst.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(pattern_charges())
def test_instantiate_charge_matches_reference_normal_order(case):
    """Every pattern's terms are the worklist normal order of each of the
    odometer's words, contracted or not."""
    space, charge, window = case
    raw = []
    for coeff, letters in charge.patterns:
        families, directions = zip(*letters)
        for idx in reference_index_assignments(len(letters), 0, window):
            word = tuple(map(ModeKey, families, directions, idx))
            raw += reference_normal_order(space, coeff, word)
    assert instantiate_charge(charge, space, window) == combine_terms(raw)


def test_instantiate_chiral_de_rham_window2():
    from chiralg.charges import chiral_de_rham

    terms = instantiate_charge(chiral_de_rham(1), OMEGA1, 2)
    mode_sets = {t.modes for t in terms}
    want = set()
    for i in (-2, -1, 0, 1, 2):
        raw = normal_order(OMEGA1, Fraction(1), (Y(i), PHI(-i)))
        want.update(t.modes for t in raw)
    assert mode_sets == want
    assert all(t.coefficient == 1 for t in terms)


def test_instantiate_potential_z2_window1():
    charge = potential_charge(Potential.single_variable(2), Side.THETA)
    terms = instantiate_charge(charge, THETA1, 1)
    got = {t.modes: t.coefficient for t in terms}
    want = {}
    for i in (-1, 0, 1):
        for t in normal_order(THETA1, Fraction(2), (X(i), PHI(-i))):
            want[t.modes] = t.coefficient
    assert got == want
    assert len(terms) == 3


def test_instantiate_abelian_lie_charge_is_empty():
    charge = lie_charge(StructureConstants.from_entries(2, []))
    assert instantiate_charge(charge, make_space(Side.THETA, 2), 3) == []


def _two_ordering_lie_charge(sc):
    """``lie_charge`` with its ghost block summed over both orderings of
    each pair, -1/2 c^i_{jk} psi_j psi_k phi_i over every (j, k)."""
    n, c = sc.dim, sc.c
    patterns = [
        (c[k][j][i], ((Family.X, k + 1), (Family.PSI, j + 1), (Family.Y, i + 1)))
        for k in range(n) for i in range(n) for j in range(n) if c[k][j][i]
    ]
    patterns += [
        (-c[i][j][k] / 2, ((Family.PSI, j + 1), (Family.PSI, k + 1), (Family.PHI, i + 1)))
        for i in range(n) for j in range(n) for k in range(n) if c[i][j][k]
    ]
    return SymbolicCharge(tuple(patterns), Side.THETA)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "dim, entries",
    [
        (3, [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)]),  # sl2
        (2, [(2, 1, 2, 1)]),  # b2
        (3, [(3, 1, 2, 1)]),  # Heisenberg
    ],
    ids=["sl2", "b2", "heisenberg"],
)
def test_lie_charge_emits_each_ghost_pair_once(dim, entries, seed):
    """Emitting psi_j psi_k phi_i once per pair j < k with coefficient
    -c^i_{jk} instantiates to the same terms, one for one, as summing
    -1/2 c^i_{jk} over both orderings, under a seeded diagonal rescaling
    e_i -> s_i e_i of the basis."""
    rng = random.Random(seed)
    scales = [Fraction(s) for s in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3))]
    s = [rng.choice(scales) for _ in range(dim)]
    sc = StructureConstants.from_entries(
        dim, [(k, i, j, v * s[i - 1] * s[j - 1] / s[k - 1]) for k, i, j, v in entries]
    )
    charge = lie_charge(sc)
    ghosts = [letters for _, letters in charge.patterns if letters[-1][0] is Family.PHI]
    assert len(ghosts) == len(entries)  # one per nonzero c^i_{jk}, j < k
    space = make_space(Side.THETA, dim)
    for window in range(3):
        got = instantiate_charge(charge, space, window)
        assert got == instantiate_charge(_two_ordering_lie_charge(sc), space, window), window
        assert got


def test_translate_examples():
    assert translate(THETA1, State.of(())).is_zero()
    assert translate(THETA1, st(THETA1, X(0))) == st(THETA1, X(1))
    assert translate(THETA1, st(THETA1, Y(1))) == st(THETA1, Y(2))


def _basis_states(space, max_weight, cap=1):
    for q in range(max_weight + 1):
        for mono in enumerate_basis(space, q, x0_cap=cap):
            yield State.of(mono)


def test_commutation_relations_on_states():
    """[y_i, x_j] = delta_{i+j,0}, {psi_i, phi_j} = delta_{i+j,0} as operators."""
    for v in _basis_states(THETA1, 3):
        for i in range(-3, 4):
            for j in range(-3, 4):
                delta = v if i + j == 0 else State.zero()
                yx = apply_mode(THETA1, Y(i), apply_mode(THETA1, X(j), v))
                xy = apply_mode(THETA1, X(j), apply_mode(THETA1, Y(i), v))
                assert yx - xy == delta, f"[y_{i}, x_{j}]"
                pf = apply_mode(THETA1, PSI(i), apply_mode(THETA1, PHI(j), v))
                fp = apply_mode(THETA1, PHI(j), apply_mode(THETA1, PSI(i), v))
                assert pf + fp == delta, f"{{psi_{i}, phi_{j}}}"


def test_off_family_pairs_supercommute():
    for v in _basis_states(THETA1, 2):
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                a = apply_mode(THETA1, X(i), apply_mode(THETA1, X(j), v))
                b = apply_mode(THETA1, X(j), apply_mode(THETA1, X(i), v))
                assert a == b
                c = apply_mode(THETA1, PSI(i), apply_mode(THETA1, X(j), v))
                d = apply_mode(THETA1, X(j), apply_mode(THETA1, PSI(i), v))
                assert c == d


def test_apply_mode_shifts_grades():
    modes = [X(1), X(-1), Y(2), Y(0), PSI(1), PSI(-1), PHI(1), PHI(0)]
    for v in _basis_states(THETA1, 2):
        mono = next(iter(v.terms))
        for mode in modes:
            out = apply_mode(THETA1, mode, v)
            for m in out.terms:
                assert weight(m) == weight(mono) + mode.index
                assert degree(m) == degree(mono) + mode.degree


def test_window_enlargement_invariance():
    charge = potential_charge(Potential.single_variable(3), Side.THETA)
    small = charge_operator(charge, THETA1, 2)
    large = charge_operator(charge, THETA1, 4)
    for v in _basis_states(THETA1, 2, cap=2):
        assert small(v) == large(v)


def test_translation_covariance_of_modes():
    """T(u_n v) - u_n T(v) = (n + 1 - h_u) u_{n+1} v."""
    gens = [X(0), X(1), Y(1), PSI(0), PSI(1), PHI(1)]
    for v in _basis_states(THETA1, 2):
        for u in gens:
            h = THETA1.creator_threshold(u.family)
            lhs = translate(THETA1, apply_mode(THETA1, u, v)) - apply_mode(
                THETA1, u, translate(THETA1, v)
            )
            raised = ModeKey(u.family, u.direction, u.index + 1)
            rhs = apply_mode(THETA1, raised, v).scale(u.index + 1 - h)
            assert lhs == rhs


def test_translate_raises_weight_by_one():
    for v in _basis_states(THETA1, 3):
        out = translate(THETA1, v)
        base = weight(next(iter(v.terms)))
        for m in out.terms:
            assert weight(m) == base + 1


def test_instantiate_negative_window_rejected():
    from chiralg.charges import chiral_de_rham
    from chiralg.fock import FockError

    with pytest.raises(FockError):
        instantiate_charge(chiral_de_rham(1), OMEGA1, -1)


def test_charge_side_mismatch_rejected():
    from chiralg.charges import chiral_de_rham
    from chiralg.fock import FockError

    with pytest.raises(FockError):
        instantiate_charge(chiral_de_rham(1), THETA1, 1)


@functools.lru_cache(maxsize=None)
def _capped_basis(space, weight, cap):
    return enumerate_basis(space, weight, x0_cap=cap)


NONZERO = hst.builds(Fraction, hst.integers(-3, 3).filter(bool), hst.integers(1, 2))


def _conjugate(mode):
    return ModeKey(CONJUGATE[mode.family], mode.direction, -mode.index)


@hst.composite
def term_cases(draw):
    """Random instantiated terms, a random state over capped basis monomials
    and a random single mode, on either side in dims 1-3.

    Besides the weight-preserving terms of a random pattern charge, the
    terms of a field mode a_(n) with wt(a) + n != 0 change weight, one term
    annihilates letters of a state monomial, and the single mode is often
    the conjugate of one of them, so repeated bosons and fermion signs are
    met on most draws.  That term may take a letter more often than it
    occurs, and the letters of a weight-1 monomial besides, so its targets
    are often not all in the monomial: a first target present and a later
    one absent, or a repeated boson that occurs too few times.
    """
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    dim = draw(hst.integers(1, 3))
    space = make_space(side, dim)
    letter = hst.tuples(hst.sampled_from(list(Family)), hst.integers(1, dim))
    pattern = hst.tuples(NONZERO, hst.lists(letter, min_size=1, max_size=3).map(tuple))
    charge = SymbolicCharge(tuple(draw(hst.lists(pattern, min_size=1, max_size=3))))
    top = 2 if dim < 3 else 1
    window = draw(hst.integers(0, top))
    a = draw(hst.sampled_from(_capped_basis(space, draw(hst.integers(0, 2)), 1)))
    n = draw(hst.integers(-3, 2).filter(lambda n: n != -weight(a)))
    keep = []
    for terms in (
        instantiate_charge(charge, space, window),
        field_terms(space, State.of(a), n, window),
    ):
        if terms:
            picked = hst.lists(hst.integers(0, len(terms) - 1), max_size=4, unique=True)
            keep += [terms[i] for i in draw(picked)]
    basis = _capped_basis(space, draw(hst.integers(0, window)), draw(hst.integers(0, 2)))
    monos = draw(hst.lists(hst.sampled_from(basis), min_size=1, max_size=3, unique=True))
    state = State({m: draw(NONZERO) for m in monos})
    letters = draw(hst.sampled_from(monos))
    if letters:
        picked = draw(hst.lists(hst.sampled_from(range(len(letters))), max_size=3))
        weight1 = hst.lists(hst.sampled_from(_capped_basis(space, 1, 1)), max_size=1)
        extra, creators = draw(weight1), draw(weight1)
        targets = tuple(letters[i] for i in picked) + (extra[0] if extra else ())
        word = (creators[0] if creators else ()) + tuple(map(_conjugate, targets))
        keep += normal_order(space, draw(NONZERO), word)
    random_mode = hst.builds(
        ModeKey, hst.sampled_from(list(Family)), hst.integers(1, dim), hst.integers(-3, 3)
    )
    conjugate_mode = hst.sampled_from(letters).map(_conjugate) if letters else random_mode
    mode = draw(random_mode | conjugate_mode)
    return space, keep, state, mode


@settings(max_examples=300, deadline=None)
@given(term_cases())
def test_compiled_plans_match_reference_action(case):
    """ChargeOperator's plans, of many terms or of one mode, give exactly
    the States of the reference term-by-term, mode-by-mode action."""
    space, terms, state, mode = case
    want = State()
    for t in terms:
        want = want + apply_term(space, t, state)
    assert ChargeOperator(space, terms)(state) == want
    assert apply_mode(space, mode, state) == mode_oracle.apply_mode(space, mode, state)


@hst.composite
def planted_words(draw):
    """(space, word) on either side in dims 1-2 with indices -2..2 and at most
    8 letters: annihilators, then the conjugate creators of some of them in
    shuffled order, so that repeated bosons contract more than once and
    fermion pairs cross, with free letters put in anywhere."""
    space = make_space(draw(hst.sampled_from([Side.THETA, Side.OMEGA])), draw(hst.integers(1, 2)))
    mode = hst.builds(
        ModeKey, hst.sampled_from(list(Family)), hst.integers(1, space.dim), hst.integers(-2, 2)
    )
    annihilators = draw(hst.lists(mode.filter(lambda m: not space.is_creator(m)), max_size=4))
    planted = [_conjugate(a) for a in annihilators if draw(hst.booleans())]
    word = annihilators + draw(hst.permutations(planted))
    for m in draw(hst.lists(mode, max_size=8 - len(word))):
        word.insert(draw(hst.integers(0, len(word))), m)
    return space, tuple(word)


@settings(max_examples=500, deadline=None)
@given(planted_words(), NONZERO)
def test_wick_normal_order_matches_worklist(case, coeff):
    """Wick's theorem gives exactly the terms of moving one annihilator
    right past one creator at a time."""
    space, word = case
    assert combine_terms(normal_order(space, coeff, word)) == combine_terms(
        reference_normal_order(space, coeff, word)
    )


@hst.composite
def product_words(draw):
    """(space, word) on either side in dims 1-2: up to 6 letters of all four
    families with indices -2..2, so that annihilators stand left of
    creators, and copies of some of its letters put in anywhere, so that
    bosons and fermions repeat."""
    space = make_space(draw(hst.sampled_from([Side.THETA, Side.OMEGA])), draw(hst.integers(1, 2)))
    mode = hst.builds(
        ModeKey, hst.sampled_from(list(Family)), hst.integers(1, space.dim), hst.integers(-2, 2)
    )
    word = draw(hst.lists(mode, max_size=6))
    for m in draw(hst.lists(hst.sampled_from(word), max_size=2)) if word else []:
        word.insert(draw(hst.integers(0, len(word))), m)
    return space, tuple(word)


@settings(max_examples=500, deadline=None)
@given(product_words(), NONZERO)
def test_normal_product_is_the_uncontracted_term_of_the_worklist(case, coeff):
    """:word: is the one term of the worklist normal order that keeps every
    letter, with its sign; a repeated fermion gives None, and the worklist
    then keeps no such term."""
    space, word = case
    got = normal_product(space, coeff, word)
    full = [t for t in reference_normal_order(space, coeff, word) if len(t.modes) == len(word)]
    fermions = [m for m in word if m.fermionic]
    if len(set(fermions)) < len(fermions):
        assert got is None and full == []
    else:
        assert [got] == full


def _canonical(modes):
    """A canonical monomial of ``modes``: repeated fermions dropped, sorted."""
    bosons = [m for m in modes if not m.fermionic]
    fermions = {m for m in modes if m.fermionic}
    return tuple(sorted(bosons + list(fermions), key=ModeKey.sort_key))


@hst.composite
def insertions(draw):
    """(creators, monomial), both canonical, over a small alphabet of all
    four families so that bosons repeat, with some creators drawn from the
    monomial's own letters so that fermions clash."""
    mode = hst.builds(
        ModeKey, hst.sampled_from(list(Family)), hst.integers(1, 2), hst.integers(0, 1)
    )
    mono = _canonical(draw(hst.lists(mode, max_size=8)))
    own = draw(hst.lists(hst.sampled_from(mono), max_size=2)) if mono else []
    return _canonical(own + draw(hst.lists(mode, max_size=4))), mono


@settings(max_examples=500, deadline=None)
@given(insertions())
def test_insert_matches_koszul_sort(case):
    """Merging canonical creators into a canonical monomial gives the sign
    and the monomial of sorting their concatenation, and None exactly when
    a fermionic creator is already a letter."""
    creators, mono = case
    assert _insert(creators, mono) == _koszul_sort(creators + mono, ModeKey.sort_key)


MIXED = hst.sampled_from([Fraction(c) for c in ("1/2", "-1/2", "-1/8", "2/3", "3")])


@hst.composite
def mixed_operators(draw):
    """(space, terms, state): the terms of a random pattern charge whose
    coefficients have mixed denominators, on either side in dims 1-2, and a
    state of capped basis monomials with rational coefficients."""
    space = make_space(draw(hst.sampled_from([Side.THETA, Side.OMEGA])), draw(hst.integers(1, 2)))
    letter = hst.tuples(hst.sampled_from(list(Family)), hst.integers(1, space.dim))
    pattern = hst.tuples(MIXED, hst.lists(letter, min_size=1, max_size=3).map(tuple))
    charge = SymbolicCharge(tuple(draw(hst.lists(pattern, min_size=2, max_size=4))))
    window = draw(hst.integers(0, 2 if space.dim == 1 else 1))
    terms = instantiate_charge(charge, space, window)
    basis = _capped_basis(space, draw(hst.integers(0, window)), draw(hst.integers(0, 2)))
    monos = draw(hst.lists(hst.sampled_from(basis), min_size=1, max_size=3, unique=True))
    return space, terms, State({m: draw(MIXED) for m in monos})


@settings(max_examples=200, deadline=None)
@given(mixed_operators())
def test_image_is_scale_times_reference_action(case):
    """The entries of a monomial's base, spread to its x_0 exponents, are
    ``int``-valued and are ``scale``, the lcm of the terms' denominators,
    times the reference action; calling the operator is the reference
    action exactly, with ``Fraction`` values."""
    space, terms, state = case
    op = ChargeOperator(space, terms)
    assert op.scale == lcm(*(t.coefficient.denominator for t in terms))
    want = State()
    for mono, coeff in state.terms.items():
        one = State()
        for t in terms:
            one = one + apply_term(space, t, State.of(mono))
        base, exps = op._split_x0(mono)
        image = {op._join(b, e): c for (b, e), c in _spread(op.base_image(base), exps).items()}
        assert all(type(c) is int for c in image.values())
        assert image == {m: op.scale * c for m, c in one.terms.items()}
        got = op(State.of(mono))
        assert got == one and all(type(c) is Fraction for c in got.terms.values())
        want = want + one.scale(coeff)
    assert op(state) == want


SL2 = [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)]


@hst.composite
def x0_spread_cases(draw):
    """(space, terms, base, exps): the terms, with rational coefficients, of
    a Lie charge (b2, sl2 or random constants), of d_dR + df on the omega
    side, of a theta-side potential twist or of a random pattern charge, in
    dims 1-3; an x_0-free basis monomial, and random x_0 exponents in every
    direction.  Only a pattern charge, which always has a y y pattern, takes
    two x_0 of one direction in one term, where the falling factorial and a
    power differ."""
    kind = draw(hst.sampled_from(["lie", "derham", "theta", "pattern"]))
    dim = draw(hst.integers(1, 3))
    if kind == "pattern":
        side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
        letter = hst.tuples(hst.sampled_from(list(Family)), hst.integers(1, dim))
        pattern = hst.tuples(MIXED, hst.lists(letter, min_size=1, max_size=3).map(tuple))
        patterns = draw(hst.lists(pattern, min_size=1, max_size=3))
        twice = ((Family.Y, draw(hst.integers(1, dim))),) * 2
        patterns.append((draw(MIXED), twice + tuple(draw(hst.lists(letter, max_size=1)))))
        charge = SymbolicCharge(tuple(patterns))
    elif kind == "lie":
        side = Side.THETA
        if dim == 2 and draw(hst.booleans()):
            entries = [(2, 1, 2, 1)]  # b2
        elif dim == 3 and draw(hst.booleans()):
            entries = SL2
        else:
            slots = [
                (k, i, j) for k in range(1, dim + 1) for j in range(2, dim + 1) for i in range(1, j)
            ]
            chosen = draw(hst.lists(hst.sampled_from(slots), unique=True, max_size=3)) if slots else []
            entries = [(k, i, j, draw(hst.sampled_from([-2, -1, 1, 2]))) for k, i, j in chosen]
        charge = lie_charge(StructureConstants.from_entries(dim, entries, validate=False))
    else:
        f = random_potential(random.Random(draw(hst.integers(0, 10**6))), dim, 3)
        if kind == "derham":
            side = Side.OMEGA
            charge = combine(chiral_de_rham(dim), potential_charge(f, side))
        else:
            side = Side.THETA
            charge = potential_charge(f, side)
    space = make_space(side, dim)
    window = draw(hst.integers(0, 2 if dim == 1 else 1))
    terms = instantiate_charge(scaled(charge, draw(MIXED)), space, window)
    base = draw(hst.sampled_from(_capped_basis(space, draw(hst.integers(0, window)), 0)))
    exps = tuple(draw(hst.integers(0, 4)) for _ in range(dim))
    return space, terms, base, exps


@settings(max_examples=150, deadline=None)
@given(x0_spread_cases())
def test_spread_of_base_image_is_scale_times_reference_action(case):
    """The entries of an x_0-free base, spread to x_0^a base by falling
    factorials, are ``int``-valued and are ``scale`` times the reference
    action on that monomial, with every result base x_0-free."""
    space, terms, base, exps = case
    x0 = [X(0, d) for d in range(1, space.dim + 1)]

    def joined(b, e):
        letters = b + tuple(m for m, a in zip(x0, e) for _ in range(a))
        return tuple(sorted(letters, key=ModeKey.sort_key))

    op = ChargeOperator(space, terms)
    mono = joined(base, exps)
    want = {m: op.scale * c for m, c in reference_image(space, terms, mono).terms.items()}
    spread = _spread(op.base_image(base), exps)
    assert all(x not in b for b, _ in spread for x in x0)
    assert all(type(c) is int for c in spread.values())
    assert {joined(b, e): c for (b, e), c in spread.items()} == want


@settings(max_examples=100, deadline=None)
@given(mixed_operators())
def test_sub_plan_of_every_annihilator_is_the_compiled_plan(case):
    """With every conjugate present, ``_contract_into`` builds 2^k - 1
    sub-plans of a term with k annihilators, one per nonempty set of them,
    and the one of all of them is the operator's own plan for that term:
    its coefficient times the derivation signs, the conjugates in the order
    they act, no leftover.  With no conjugate present it builds none."""
    space, terms, _ = case
    rule = {Family.X: -1, Family.Y: 1, Family.PHI: 1, Family.PSI: 1}
    calls = []
    real = oper._take

    def record(coeff, annihilators, taken):
        out = real(coeff, annihilators, taken)
        calls.append((taken, out))
        return out

    with mock.patch.object(oper, "_take", record):
        for t in terms:
            calls.clear()
            op = ChargeOperator(space, [t])
            [(coeff, _, annihilators)] = op.terms
            k = len(annihilators)
            [(taken, own)] = calls
            assert taken == 2**k - 1
            for m in annihilators:
                coeff *= rule[m.family]
            assert own == (coeff, tuple(map(_conjugate, reversed(annihilators))), ())
            calls.clear()
            _contract_into({}, op.terms, [(1, conjugate_creators(space, t.modes), ())], 0)
            assert sorted(taken for taken, _ in calls) == list(range(1, 2**k))
            if k:
                assert dict(calls)[2**k - 1] == own
            calls.clear()
            _contract_into({}, op.terms, [(1, (), ())], 0)
            assert calls == []


@pytest.mark.parametrize("family", list(Family))
def test_act_is_the_one_term_operator(family):
    """One Wick step, ``_act``, of a mode of index +-1..+-4 on every positive
    monomial of the line of weight 0-4 is the ``()`` group of the one-term
    operator's ``base_image``: the same coefficient and monomial, or None
    where that group is empty."""
    for k in range(1, 5):
        for mode in (ModeKey(family, 1, k), ModeKey(family, 1, -k)):
            op = ChargeOperator(THETA1, [OperatorTerm(Fraction(1), (mode,))])
            assert op.scale == 1
            for q in range(5):
                for mono in enumerate_basis(THETA1, q, x0_cap=0, zero_fermion_allowed=False):
                    groups = op.base_image(mono)
                    assert set(groups) <= {()}
                    want = [(c, m) for m, c in groups.get((), {}).items()]
                    got = _act(THETA1, mode, mono)
                    assert ([] if got is None else [got]) == want, (mode, mono)
