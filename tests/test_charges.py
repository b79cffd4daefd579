"""Named differentials and their checks: de Rham, potential twists, Lie charge."""

import random
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as hst

from chiralg import charges
from chiralg.charges import (
    Potential,
    StructureConstants,
    check_anticommute,
    check_nilpotent,
    chiral_de_rham,
    combine,
    default_torus_weights,
    lie_charge,
    potential_charge,
)
from chiralg.fock import (
    Family,
    FockError,
    Side,
    State,
    TorusWeights,
    enumerate_basis,
    make_space,
)
from chiralg.oper import (
    ChargeOperator,
    OperatorTerm,
    SymbolicCharge,
    charge_operator,
    instantiate_charge,
)
from conftest import X, Y, PHI, PSI, random_potential, scaled, st, weight
from mode_oracle import basis_check, full_bracket_terms, reference_check_jacobi

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)
THETA3 = make_space(Side.THETA, 3)

BAD_JACOBI = [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -1)]


def test_potential_validation():
    with pytest.raises(FockError):
        Potential.from_terms(1, [(1, (-1,))])
    with pytest.raises(FockError):
        Potential.from_terms(2, [(1, (1,))])
    with pytest.raises(FockError):
        Potential.from_terms(1, [(1, (2,)), (3, (2,))])
    # zero terms are dropped, but only after the duplicate check
    with pytest.raises(FockError):
        Potential.from_terms(1, [(0, (2,)), (3, (2,))])
    f = Potential.from_terms(1, [(1, (3,)), (0, (2,))])
    assert f == Potential.single_variable(3)
    assert f.quasi_degree((1,)) == 3


def test_quasi_degree():
    f = Potential.from_terms(2, [(1, (2, 1))])
    assert f.quasi_degree((1, 2)) == 4
    g = Potential.from_terms(1, [(1, (2,)), (1, (3,))])
    with pytest.raises(FockError, match="not quasi-homogeneous"):
        g.quasi_degree((1,))
    with pytest.raises(FockError, match="zero potential"):
        Potential.from_terms(1, [(0, (3,))]).quasi_degree((1,))


def test_default_torus_weights_z3():
    tw = default_torus_weights(Potential.single_variable(3))
    assert tw == TorusWeights((1,), (-2,))
    assert tw.of_mode(PSI(0)) == 2


def test_chiral_de_rham_weight0():
    op = charge_operator(chiral_de_rham(1), OMEGA1, 1)
    assert op(st(OMEGA1, X(0))) == st(OMEGA1, PHI(0))
    assert op(st(OMEGA1, PSI(1))) == st(OMEGA1, Y(1))
    assert op(State.of(())).is_zero()


def test_potential_theta_weight0_contraction():
    f = Potential.single_variable(2)
    op = charge_operator(potential_charge(f, Side.THETA), THETA1, 0)
    assert op(st(THETA1, PSI(0))) == st(THETA1, X(0), coeff=2)
    # iota_df for f = z^3 multiplies by 3 x0^2: x0^k psi_0 -> 3 x0^(k+2)
    op = charge_operator(potential_charge(Potential.single_variable(3), Side.THETA), THETA1, 0)
    for k in range(4):
        v = st(THETA1, *([X(0)] * k + [PSI(0)]))
        assert op(v) == st(THETA1, *([X(0)] * (k + 2)), coeff=3)


def test_potential_omega_weight0_wedge():
    for d in (1, 2):
        f = Potential.single_variable(d + 1)
        op = charge_operator(potential_charge(f, Side.OMEGA), OMEGA1, 0)
        for k in range(3):
            v = st(OMEGA1, *([X(0)] * k))
            want = st(OMEGA1, *([X(0)] * (k + d) + [PHI(0)]), coeff=d + 1)
            assert op(v) == want


def test_potential_omega_weight1():
    f = Potential.single_variable(2)
    op = charge_operator(potential_charge(f, Side.OMEGA), OMEGA1, 1)
    got = op(st(OMEGA1, PSI(1)))
    want = st(OMEGA1, X(1), coeff=2) + st(OMEGA1, X(0), PHI(0), PSI(1), coeff=2)
    assert got == want


def test_structure_constants_antisymmetry_enforced():
    with pytest.raises(FockError):
        StructureConstants(1, (((Fraction(1),),),))
    # a diagonal entry c^k_{ii} != 0 cannot be antisymmetrised, and
    # validate=False skips only the Jacobi check
    for validate in (True, False):
        with pytest.raises(FockError, match=r"antisymmetry fails at c\^1_\{11\}"):
            StructureConstants.from_entries(2, [(1, 1, 1, 1)], validate=validate)


def test_structure_constants_refuse_a_repeated_entry():
    # the second row would overwrite the first: c^3_{12} = -1, or 2
    for second in ((3, 2, 1, 1), (3, 1, 2, 2)):
        with pytest.raises(FockError, match=r"entries 0 and 1 both set c\^3_\{12\}"):
            StructureConstants.from_entries(3, [(3, 1, 2, 1), second], validate=False)


def test_structure_constants_jacobi_enforced():
    with pytest.raises(FockError):
        StructureConstants.from_entries(3, BAD_JACOBI)
    # validate=False skips the Jacobi check, and so does the constructor
    bad = StructureConstants.from_entries(3, BAD_JACOBI, validate=False)
    with pytest.raises(FockError, match="Jacobi"):
        bad.check_jacobi()
    with pytest.raises(FockError, match="Jacobi"):
        StructureConstants(3, bad.c).check_jacobi()


@hst.composite
def lie_tensors(draw):
    """Antisymmetric structure constants of dims 1-4 with small sparse
    entries, most of which break the Jacobi identity somewhere."""
    dim = draw(hst.integers(1, 4))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    entries = draw(hst.lists(
        hst.tuples(
            hst.integers(1, dim),
            hst.sampled_from(pairs) if pairs else hst.nothing(),
            hst.sampled_from((1, -1, 2, "1/2")),
        ),
        max_size=6 if pairs else 0,
        unique_by=lambda e: e[:2],
    ))
    return StructureConstants.from_entries(
        dim, [(k, i, j, v) for k, (i, j), v in entries], validate=False
    )


def _jacobi_failure(check, sc):
    try:
        check(sc)
    except FockError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(lie_tensors())
def test_check_jacobi_matches_full_index_loop(sc):
    """Over i < j < k only, the Jacobi check reports the same first failing
    (i, j, k, l) as the loop over every index quadruple, or passes with it."""
    want = _jacobi_failure(reference_check_jacobi, sc)
    assert _jacobi_failure(StructureConstants.check_jacobi, sc) == want


def _heisenberg3():
    # [e1, e2] = e3, e3 central
    return StructureConstants.from_entries(3, [(3, 1, 2, 1)])


def test_named_algebras_are_valid():
    StructureConstants.sl2()
    _heisenberg3()
    StructureConstants.from_entries(4, [])  # abelian


def test_lie_weight0_heisenberg():
    charge = lie_charge(_heisenberg3())
    op = charge_operator(charge, THETA3, 0)
    # adjoint action: Q(x^1) = c^k_{j1} x^k psi^j = -x^3 psi^2
    assert op(st(THETA3, X(0, 1))) == st(THETA3, X(0, 3), PSI(0, 2), coeff=-1)
    assert op(st(THETA3, X(0, 3))).is_zero()  # center


def test_lie_weight0_sl2():
    charge = lie_charge(StructureConstants.sl2())
    op = charge_operator(charge, THETA3, 0)
    # Q(x^1) = -x^3 psi^2 + 2 x^1 psi^3  (basis e, f, h)
    want = st(THETA3, X(0, 3), PSI(0, 2), coeff=-1) + st(
        THETA3, X(0, 1), PSI(0, 3), coeff=2
    )
    assert op(st(THETA3, X(0, 1))) == want


def test_check_nilpotent_potential():
    f = Potential.from_terms(2, [(3, (1, 2)), (-1, (2, 0))])
    space = make_space(Side.THETA, 2)
    assert check_nilpotent(potential_charge(f, Side.THETA), space, 3)


def test_check_nilpotent_lie_sl2_small():
    assert check_nilpotent(lie_charge(StructureConstants.sl2()), THETA3, 2)


def test_check_nilpotent_detects_jacobi_violation():
    bad = StructureConstants.from_entries(3, BAD_JACOBI, validate=False)
    report = check_nilpotent(lie_charge(bad), THETA3, 1)
    assert not report
    assert report.witness is not None
    assert not report.image.is_zero()
    # the witness is genuine: applying the charge twice reproduces the image
    op = charge_operator(lie_charge(bad), THETA3, 1)
    assert op(op(State.of(report.witness))) == report.image


def test_check_nilpotent_basis_method_agrees():
    """The basis-probe reference reaches the same verdicts."""
    bad = lie_charge(StructureConstants.from_entries(3, BAD_JACOBI, validate=False))
    assert not basis_check(bad, None, THETA3, 1, x0_cap=1)
    assert not check_nilpotent(bad, THETA3, 1)
    f = potential_charge(Potential.single_variable(3), Side.THETA)
    assert basis_check(f, None, THETA1, 2)
    assert check_nilpotent(f, THETA1, 2)


def test_check_anticommute_examples():
    f2 = potential_charge(Potential.single_variable(2), Side.OMEGA)
    f3 = potential_charge(Potential.single_variable(3), Side.OMEGA)
    cdr = chiral_de_rham(1)
    assert check_anticommute(cdr, f2, OMEGA1, 2)
    assert check_anticommute(cdr, cdr, OMEGA1, 2)
    assert check_anticommute(f2, f3, OMEGA1, 2)


def test_validate_homogeneity_examples():
    f = Potential.single_variable(3)
    good = TorusWeights((1,), (-2,))
    assert potential_charge(f, Side.THETA).torus_shift(good) == 0
    bad = TorusWeights((1,), (-1,))
    assert potential_charge(f, Side.THETA).torus_shift(bad) != 0
    g = Potential.from_terms(2, [(1, (2, 1))])
    tw = default_torus_weights(g, wx=(1, 2))
    assert [tw.of_mode(PSI(0, j)) for j in (1, 2)] == [3, 2]
    assert potential_charge(g, Side.OMEGA).torus_shift(tw) == 0


def test_degree_shift_constants():
    assert chiral_de_rham(2).degree_shift() == 1
    f = Potential.single_variable(2)
    assert potential_charge(f, Side.THETA).degree_shift() == 1
    # the Lie charge multiplies by psi (degree -1), so its shift is -1
    assert lie_charge(StructureConstants.sl2()).degree_shift() == -1


def test_charges_preserve_weight():
    f = Potential.single_variable(3)
    combos = [
        (potential_charge(f, Side.THETA), THETA1),
        (combine(chiral_de_rham(1), potential_charge(f, Side.OMEGA)), OMEGA1),
        (lie_charge(StructureConstants.sl2()), THETA3),
    ]
    for charge, space in combos:
        op = charge_operator(charge, space, 2)
        for q in range(3):
            for mono in enumerate_basis(space, q, x0_cap=1):
                out = op(State.of(mono))
                assert all(weight(m) == q for m in out.terms)


def test_random_potentials_are_nilpotent():
    rng = random.Random(11)
    for d in (1, 2):
        f = random_potential(rng, d, 3)
        space = make_space(Side.THETA, d)
        assert check_nilpotent(potential_charge(f, Side.THETA), space, 2)


def _potential_twist(draw, dim, side):
    """The twist by a random potential f (with d_dR on the form side).  In
    two or more variables it sometimes gains a term c x_i^a phi_j with
    i != j; the one-form df + c x_i^a dx_j is then not closed, and on the
    form side the charge is not nilpotent."""
    exps = hst.tuples(*[hst.integers(0, 2)] * dim).filter(lambda e: 0 < sum(e) <= 3)
    coeffs = draw(hst.dictionaries(exps, hst.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    f = Potential.from_terms(dim, [(c, e) for e, c in coeffs.items()])
    charge = potential_charge(f, side)
    if side is Side.OMEGA:
        charge = combine(chiral_de_rham(dim), charge)
    if dim >= 2 and draw(hst.booleans()):
        directions = range(1, dim + 1)
        i, j = draw(hst.sampled_from([(a, b) for a in directions for b in directions if a != b]))
        letters = ((Family.X, i),) * draw(hst.integers(1, 2)) + ((Family.PHI, j),)
        extra = (Fraction(draw(hst.integers(-2, 2).filter(bool))), letters)
        charge = SymbolicCharge(charge.patterns + (extra,), side=side)
    return charge


@hst.composite
def potential_charges(draw):
    dim = draw(hst.integers(1, 2))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    charge = _potential_twist(draw, dim, side)
    window = draw(hst.integers(0, 2 if dim == 1 else 1))
    return make_space(side, dim), charge, window


@settings(max_examples=60, deadline=None)
@given(potential_charges())
def test_nilpotency_methods_agree_on_random_potentials(case):
    space, charge, window = case
    by_operator = check_nilpotent(charge, space, window)
    by_basis = basis_check(charge, None, space, window, x0_cap=3)
    assert bool(by_operator) == bool(by_basis)
    op = charge_operator(charge, space, window)
    for report in (by_operator, by_basis):
        if not report:
            assert not report.image.is_zero()
            assert op(op(State.of(report.witness))) == report.image


def _random_lie_charge(draw, dim):
    """The Lie charge of random structure constants, unchecked: in dimension
    3 most draws violate the Jacobi identity, and half the draws are sl2 or
    the fixed violating tensor."""
    if dim == 3 and draw(hst.booleans()):
        if draw(hst.booleans()):
            return lie_charge(StructureConstants.sl2())
        entries = BAD_JACOBI
    else:
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        drawn = draw(
            hst.lists(
                hst.tuples(
                    hst.integers(1, dim), hst.sampled_from(pairs), hst.integers(-2, 2).filter(bool)
                ),
                max_size=3,
                unique_by=lambda e: e[:2],
            )
        )
        entries = [(k, i, j, v) for k, (i, j), v in drawn]
    return lie_charge(StructureConstants.from_entries(dim, entries, validate=False))


@hst.composite
def brackets(draw):
    """(space, c1, c2, window): a square (c2 None) or an anticommutator of
    potential twists on either side, Lie charges, or one of each."""
    kind = draw(hst.sampled_from(["potential", "lie", "mixed"]))
    dim = draw(hst.integers(1, 3) if kind == "potential" else hst.integers(2, 3))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA])) if kind == "potential" else Side.THETA
    pair = draw(hst.booleans())

    def one(kind):
        if kind == "lie":
            return _random_lie_charge(draw, dim)
        return _potential_twist(draw, dim, side)

    c1 = one("lie" if kind == "mixed" else kind)
    c2 = one("potential" if kind == "mixed" else kind) if pair or kind == "mixed" else None
    window = draw(hst.integers(0, 2 if dim < 3 and kind == "potential" else 1))
    return make_space(side, dim), c1, c2, window


@settings(max_examples=100, deadline=None)
@given(brackets())
def test_contraction_only_bracket_matches_full_square(case):
    assert_bracket_matches_reference(*case)


def reference_bracket(space):
    """``full_bracket_terms`` on the records (coefficient, creators,
    annihilators) of a ``ChargeOperator``'s ``terms``, as
    ``charges._bracket_terms`` takes them."""

    def terms(records):
        if records is None:
            return None
        return [OperatorTerm(Fraction(c), cs + ans) for c, cs, ans in records]

    return lambda t1s, t2s, window: full_bracket_terms(space, terms(t1s), terms(t2s), window)


def assert_bracket_matches_reference(space, c1, c2, window):
    """The bracket's surviving terms and the check's report equal those of
    the square expanded over every pair of terms."""
    t1s = ChargeOperator(space, instantiate_charge(c1, space, window)).terms
    t2s = None if c2 is None else ChargeOperator(space, instantiate_charge(c2, space, window)).terms
    reference = reference_bracket(space)
    assert charges._bracket_terms(t1s, t2s, window) == reference(t1s, t2s, window)

    def check():
        if c2 is None:
            return check_nilpotent(c1, space, window)
        return check_anticommute(c1, c2, space, window)

    report = check()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charges, "_bracket_terms", reference)
        assert check() == report
    return report


def _odd_charge(draw, dim, side):
    """A random odd charge whose patterns mix x, y, psi and phi in shared
    directions: one fermion letter, or three distinct ones in two
    directions, and bosons up to four letters in all, so its terms carry
    two or more fermionic annihilators and repeated bosonic ones."""
    directions = hst.integers(1, dim)
    patterns = []
    for _ in range(draw(hst.integers(1, 3))):
        # a fermion letter twice in one pattern gives zero: :psi psi: = 0
        fermions = draw(
            hst.lists(
                hst.tuples(hst.sampled_from([Family.PSI, Family.PHI]), directions),
                min_size=(n := draw(hst.sampled_from([1, 3] if dim > 1 else [1]))),
                max_size=n,
                unique=True,
            )
        )
        bosons = draw(
            hst.lists(
                hst.tuples(hst.sampled_from([Family.X, Family.Y]), directions),
                max_size=4 - len(fermions),
            )
        )
        letters = tuple(draw(hst.permutations(fermions + bosons)))
        coeff = draw(hst.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(2, 3)]))
        patterns.append((Fraction(coeff), letters))
    return SymbolicCharge(tuple(patterns), side=side)


@hst.composite
def odd_brackets(draw):
    """(space, c1, c2, window): the square (c2 None) or the anticommutator
    of random odd charges of mixed families."""
    dim = draw(hst.sampled_from([1, 2, 2]))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    c1 = _odd_charge(draw, dim, side)
    c2 = _odd_charge(draw, dim, side) if draw(hst.booleans()) else None
    window = draw(hst.integers(0, 2))
    return make_space(side, dim), c1, c2, window


@settings(max_examples=60, deadline=None)
@given(odd_brackets())
def test_bracket_of_mixed_family_charges_matches_full_square(case):
    assert_bracket_matches_reference(*case)


SL2_CHARGE = lie_charge(StructureConstants.sl2())
X1X2X3 = potential_charge(Potential.from_terms(3, [(1, (1, 1, 1))]), Side.THETA)


def _lie(dim, entries):
    return lie_charge(StructureConstants.from_entries(dim, entries, validate=False))


@pytest.mark.parametrize(
    "dim, c1, c2, passes",
    [
        (3, SL2_CHARGE, None, True),
        (2, _lie(2, [(2, 1, 2, 1)]), None, True),  # b2
        (3, _lie(3, BAD_JACOBI), None, False),
        # sl2 and the twist by x1 x2 x3 do not anticommute: witness x1_0
        (3, SL2_CHARGE, X1X2X3, False),
    ],
    ids=["sl2", "b2", "bad_jacobi", "sl2_with_twist"],
)
def test_bracket_at_window_2_matches_full_square(dim, c1, c2, passes):
    report = assert_bracket_matches_reference(make_space(Side.THETA, dim), c1, c2, 2)
    assert bool(report) == passes


@pytest.mark.parametrize(
    "letters",
    [
        ((Family.X, 1), (Family.Y, 1)),
        ((Family.X, 1), (Family.PSI, 1), (Family.PHI, 1)),
        (),
    ],
)
def test_even_charge_is_refused(letters):
    even = SymbolicCharge(patterns=((Fraction(1), letters),), side=Side.THETA)
    odd = potential_charge(Potential.single_variable(2), Side.THETA)
    with pytest.raises(FockError, match="odd"):
        check_nilpotent(even, THETA1, 1)
    with pytest.raises(FockError, match="odd"):
        check_anticommute(odd, even, THETA1, 1)


LAMBDA = hst.builds(Fraction, hst.integers(-9, 9).filter(bool), hst.integers(1, 9))


# d_dR and a term x x psi do not anticommute: witness x_0
XXPSI = SymbolicCharge(
    ((Fraction(-1, 8), ((Family.X, 1), (Family.X, 1), (Family.PSI, 1))),), side=Side.OMEGA
)


@settings(max_examples=25, deadline=None)
@given(LAMBDA, LAMBDA)
def test_check_verdicts_and_witnesses_are_scale_invariant(lam, mu):
    """Scaling the patterns by lam (and mu) keeps every verdict and witness
    monomial; a witness image scales by exactly lam^2 (lam mu) and stays
    Fraction-valued."""
    bad = lie_charge(StructureConstants.from_entries(3, BAD_JACOBI, validate=False))
    f = potential_charge(Potential.from_terms(1, [(Fraction(-1, 2), (3,)), (3, (2,))]), Side.OMEGA)
    cdr = combine(chiral_de_rham(1), scaled(chiral_de_rham(1), Fraction(2, 3)))
    cases = [
        (lambda c: check_nilpotent(c, THETA3, 1), (bad,), lam**2),
        (lambda c: check_nilpotent(c, OMEGA1, 2), (f,), lam**2),
        (lambda c1, c2: check_anticommute(c1, c2, OMEGA1, 2), (cdr, f), lam * mu),
        (lambda c1, c2: check_anticommute(c1, c2, OMEGA1, 2), (cdr, XXPSI), lam * mu),
    ]
    for check, args, factor in cases:
        report = check(*args)
        other = check(*(scaled(c, x) for c, x in zip(args, (lam, mu))))
        assert bool(other) == bool(report)
        assert other.witness == report.witness
        if not report:
            assert other.image == report.image.scale(factor)
            assert all(type(c) is Fraction for c in other.image.terms.values())
    assert not check_nilpotent(bad, THETA3, 1) and not check_anticommute(cdr, XXPSI, OMEGA1, 2)


def test_bracket_sum_runs_on_integers():
    """The Q^2 and anticommutator sums see both operators' records scaled
    to ``int`` coefficients, and give ``int`` terms."""
    f = potential_charge(Potential.from_terms(1, [(Fraction(-1, 8), (3,))]), Side.OMEGA)
    cdr = scaled(chiral_de_rham(1), Fraction(2, 3))
    seen = []
    real = charges._bracket_terms

    def record(t1s, t2s, window):
        out = real(t1s, t2s, window)
        seen.append([c for c, _, _ in t1s + (t2s or [])] + [t.coefficient for t in out])
        return out

    with mock.patch.object(charges, "_bracket_terms", record):
        assert check_anticommute(cdr, f, OMEGA1, 2)
        assert check_nilpotent(f, OMEGA1, 2)
        assert not check_anticommute(cdr, XXPSI, OMEGA1, 2)
    assert len(seen) == 3 and all(seen)
    assert all(type(c) is int for coefficients in seen for c in coefficients)
