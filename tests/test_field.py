"""Field reconstruction: modes of composite states, residues, axioms."""

import functools

import pytest
from hypothesis import given, settings, strategies as hst

from fractions import Fraction

from chiralg.charges import Potential, chiral_de_rham, potential_charge
from chiralg.cli import _brst_vector
from chiralg.field import field_mode, field_terms, residue_charge
from chiralg.fock import (
    FockError,
    Side,
    State,
    enumerate_basis,
    make_space,
)
from chiralg.oper import ChargeOperator, charge_operator
from conftest import X, Y, PHI, PSI, parity, st, weight
from mode_oracle import reference_field_mode, translate

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)


def _basis_states(space, max_weight, cap=1):
    for q in range(max_weight + 1):
        for mono in enumerate_basis(space, q, x0_cap=cap):
            yield State.of(mono)


def _mode_ops(space, a, ns, window):
    """a_(n) for each n in ns, compiled once; exact on weight <= window."""
    return {n: ChargeOperator(space, field_terms(space, a, n, window)) for n in ns}


def test_vacuum_field_is_identity():
    v = st(THETA1, X(0), PSI(1))
    assert field_mode(THETA1, State.of(()), 0, v) == v
    for n in (-2, -1, 1, 2):
        assert field_mode(THETA1, State.of(()), n, v).is_zero()


def test_generator_field_mode():
    assert field_mode(THETA1, st(THETA1, X(0)), 1, State.of(())) == st(
        THETA1, X(1)
    )


def test_square_field_constant_mode():
    a = st(THETA1, X(0), X(0))
    assert field_mode(THETA1, a, 0, State.of(())) == a


def test_inhomogeneous_state_rejected():
    bad = st(THETA1, X(0)) + st(THETA1, X(1))
    with pytest.raises(FockError):
        field_mode(THETA1, bad, 0, State.of(()))


def test_creation_axiom():
    """a(z) applied to the vacuum is a + O(z): negative modes vanish,
    the constant mode returns the state itself."""
    for q in range(4):
        for mono in enumerate_basis(THETA1, q, x0_cap=1):
            a = State.of(mono)
            for n in (-3, -2, -1):
                assert field_mode(THETA1, a, n, State.of(())).is_zero()
            assert field_mode(THETA1, a, 0, State.of(())) == a


def test_translation_covariance():
    states = list(_basis_states(THETA1, 2))[:10]
    for a in list(_basis_states(THETA1, 2, cap=1))[:12]:
        ta = _mode_ops(THETA1, translate(THETA1, a), range(-2, 3), 2)
        am = _mode_ops(THETA1, a, range(-1, 4), 2)
        for v in states:
            for n in range(-2, 3):
                assert ta[n](v) == am[n + 1](v).scale(n + 1)


def test_residue_charge_contract():
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, X(0)), 1)  # weight 0
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, PHI(2)), 1)  # weight 2
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, PSI(1)), 1)  # degree -1
    zero = residue_charge(THETA1, State.zero(), 1)
    assert zero(st(THETA1, X(0))).is_zero()


def test_residue_matches_chiral_de_rham():
    a = st(OMEGA1, Y(1), PHI(0))
    brst = residue_charge(OMEGA1, a, 2)
    op = charge_operator(chiral_de_rham(1), OMEGA1, 2)
    for v in _basis_states(OMEGA1, 2):
        assert brst(v) == op(v)


def test_residue_matches_potential_charge():
    f = Potential.single_variable(2)
    a = st(THETA1, X(0), PHI(1), coeff=2)
    brst = residue_charge(THETA1, a, 2)
    op = charge_operator(potential_charge(f, Side.THETA), THETA1, 2)
    for v in _basis_states(THETA1, 2):
        assert brst(v) == op(v)


def test_residue_derivation_property():
    """[a_{(-1)}, b_{(m)}] = (a_{(-1)} b)_{(m)} with the Koszul sign."""
    a = st(THETA1, X(0), PHI(1), coeff=2)
    # b_(m) v has weight <= 2 + 1 + 2 for the states and modes below
    brst = residue_charge(THETA1, a, 5)
    gen_states = [
        st(THETA1, X(0)), st(THETA1, Y(1)),
        st(THETA1, PSI(0)), st(THETA1, PHI(1)),
    ]
    for b in gen_states:
        sign = -1 if parity(next(iter(b.terms))) else 1
        bm = _mode_ops(THETA1, b, range(-2, 3), 2)
        qbm = _mode_ops(THETA1, brst(b), range(-2, 3), 2)
        for v in _basis_states(THETA1, 2):
            for m in range(-2, 3):
                lhs = brst(bm[m](v)) - bm[m](brst(v)).scale(sign)
                assert lhs == qbm[m](v), (b.text(), m)


def test_locality_spot_check_order_two():
    """Coefficients of (z-w)^2 [a(z), b(w)] vanish on small states."""
    pairs = [
        (st(THETA1, X(0)), st(THETA1, Y(1))),
        (st(THETA1, X(0)), st(THETA1, X(0))),
        (st(THETA1, PSI(0)), st(THETA1, PHI(1))),
        (st(THETA1, Y(1)), st(THETA1, PHI(1))),
    ]
    for a, b in pairs:
        pa = parity(next(iter(a.terms)))
        pb = parity(next(iter(b.terms)))
        koszul = -1 if (pa and pb) else 1
        # modes -4..2 of weight <= 1 fields on weight <= 2 states stay in
        # weight <= 5
        am = _mode_ops(THETA1, a, range(-4, 3), 5)
        bm = _mode_ops(THETA1, b, range(-4, 3), 5)

        def bracket(m, n, v):
            return am[m](bm[n](v)) - bm[n](am[m](v)).scale(koszul)

        for v in _basis_states(THETA1, 2):
            for p in range(-2, 3):
                for r in range(-2, 3):
                    total = (
                        bracket(p - 2, r, v)
                        + bracket(p - 1, r - 1, v).scale(-2)
                        + bracket(p, r - 2, v)
                    )
                    assert total.is_zero(), (a.text(), b.text(), p, r)


def test_field_mode_weight_shift():
    """a_(n) raises conformal weight by wt(a) + n.

    This is the reading under which the residue mode of a weight-1 vector
    preserves weight, which the BRST agreement tests above pin down.
    """
    states = list(_basis_states(THETA1, 2))[:8]
    for a in list(_basis_states(THETA1, 2, cap=1))[:10]:
        wa = weight(next(iter(a.terms)))
        ops = _mode_ops(THETA1, a, range(-2, 3), 2)
        for v in states:
            wv = weight(next(iter(v.terms)))
            for n in range(-2, 3):
                for m in ops[n](v).terms:
                    assert weight(m) == wv + wa + n


@functools.lru_cache(maxsize=None)
def _capped_basis(space, weight, cap):
    return enumerate_basis(space, weight, x0_cap=cap)


COEFF = hst.integers(-3, 3).filter(bool)


@hst.composite
def homogeneous_states(draw, space, max_weight):
    """A sum of up to three basis monomials of one weight <= max_weight;
    weights above 0 bring derivative letters such as x_1, y_2, psi_1."""
    basis = _capped_basis(space, draw(hst.integers(0, max_weight)), 1)
    monos = draw(hst.lists(hst.sampled_from(basis), min_size=1, max_size=3, unique=True))
    return State({m: draw(COEFF) for m in monos})


@hst.composite
def field_cases(draw, max_weight):
    space = make_space(
        draw(hst.sampled_from([Side.THETA, Side.OMEGA])), draw(hst.integers(1, 2))
    )
    a = draw(homogeneous_states(space, max_weight))
    n = draw(hst.integers(-3, 2))
    return space, a, n


@settings(max_examples=100, deadline=None)
@given(field_cases(3), hst.data())
def test_field_mode_matches_recursive_reference(case, data):
    """a_(n) through field terms equals the recursive reconstruction on basis
    states and sums of states of weight <= 2."""
    space, a, n = case
    pieces = data.draw(
        hst.lists(homogeneous_states(space, 2), min_size=1, max_size=3), label="v"
    )
    v = sum(pieces, State())
    assert field_mode(space, a, n, v) == reference_field_mode(space, a, n, v)


@settings(max_examples=50, deadline=None)
@given(field_cases(2), hst.integers(0, 1), hst.integers(1, 2))
def test_field_terms_exact_below_their_window(case, w, extra):
    """The operator of a_(n) at window W acts on every state of weight <= w
    as the operator at window w < W does.  This is why one operator may
    serve a sweep; it does not hold for every instantiated charge (the b2
    Lie charge differs between windows)."""
    space, a, n = case
    small = ChargeOperator(space, field_terms(space, a, n, w))
    large = ChargeOperator(space, field_terms(space, a, n, w + extra))
    for q in range(w + 1):
        for mono in _capped_basis(space, q, 1):
            v = State.of(mono)
            assert small(v) == large(v)


@hst.composite
def brst_cases(draw):
    """A theta-side potential charge, 1-2 variables, up to three terms with
    exponents <= 4 and rational coefficients, or the bare chiral de Rham
    differential on the omega side."""
    dim = draw(hst.integers(1, 2))
    if draw(hst.booleans()):
        return make_space(Side.OMEGA, dim), chiral_de_rham(dim)
    exps = hst.tuples(*[hst.integers(0, 4)] * dim).filter(any)
    coeff = hst.builds(Fraction, COEFF, hst.integers(1, 3))
    terms = hst.lists(hst.tuples(coeff, exps), min_size=1, max_size=3, unique_by=lambda t: t[1])
    f = Potential(dim, tuple(draw(terms)))
    return make_space(Side.THETA, dim), potential_charge(f, Side.THETA)


@settings(max_examples=30, deadline=None)
@given(brst_cases())
def test_residue_charge_matches_instantiated_charge(case):
    """The residue mode a_(-1) of the vector the CLI builds for a charge acts
    as the instantiated charge on every capped basis monomial of weight <= 2:
    the same mode words, weighted by the letters' binomials on one route and
    by the pattern coefficients on the other."""
    space, charge = case
    brst = residue_charge(space, _brst_vector(charge, space), 2)
    op = charge_operator(charge, space, 2)
    for q in range(3):
        for mono in _capped_basis(space, q, 2):
            v = State.of(mono)
            assert brst(v) == op(v), mono
