"""Field reconstruction: modes of composite states, residues, axioms."""

import pytest
from fractions import Fraction

from chiralg.charges import Potential, chiral_de_rham, potential_charge
from chiralg.field import field_mode, residue_charge
from chiralg.fock import (
    FockError,
    ModeKey,
    Side,
    State,
    enumerate_basis,
    make_space,
)
from chiralg.oper import charge_operator
from conftest import X, Y, PHI, PSI, st
from mode_oracle import translate

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)


def _basis_states(space, max_weight, cap=1):
    for q in range(max_weight + 1):
        for mono in enumerate_basis(space, q, x0_cap=cap):
            yield State.of(mono)


def test_vacuum_field_is_identity():
    v = st(THETA1, X(0), PSI(1))
    assert field_mode(THETA1, State.vacuum(), 0, v) == v
    for n in (-2, -1, 1, 2):
        assert field_mode(THETA1, State.vacuum(), n, v).is_zero()


def test_generator_field_mode():
    assert field_mode(THETA1, st(THETA1, X(0)), 1, State.vacuum()) == st(
        THETA1, X(1)
    )


def test_square_field_constant_mode():
    a = st(THETA1, X(0), X(0))
    assert field_mode(THETA1, a, 0, State.vacuum()) == a


def test_inhomogeneous_state_rejected():
    bad = st(THETA1, X(0)) + st(THETA1, X(1))
    with pytest.raises(FockError):
        field_mode(THETA1, bad, 0, State.vacuum())


def test_creation_axiom():
    """a(z) applied to the vacuum is a + O(z): negative modes vanish,
    the constant mode returns the state itself."""
    for q in range(4):
        for mono in enumerate_basis(THETA1, q, x0_cap=1):
            a = State.of(mono)
            for n in (-3, -2, -1):
                assert field_mode(THETA1, a, n, State.vacuum()).is_zero()
            assert field_mode(THETA1, a, 0, State.vacuum()) == a


def test_translation_covariance():
    states = list(_basis_states(THETA1, 2))
    for a in list(_basis_states(THETA1, 2, cap=1))[:12]:
        ta = translate(THETA1, a)
        for v in states[:10]:
            for n in range(-2, 3):
                lhs = field_mode(THETA1, ta, n, v)
                rhs = field_mode(THETA1, a, n + 1, v).scale(n + 1)
                assert lhs == rhs


def test_residue_charge_contract():
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, X(0)))  # weight 0
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, PHI(2)))  # weight 2
    with pytest.raises(FockError):
        residue_charge(THETA1, st(THETA1, PSI(1)))  # degree -1
    zero = residue_charge(THETA1, State.zero())
    assert zero(st(THETA1, X(0))).is_zero()


def test_residue_matches_chiral_de_rham():
    a = st(OMEGA1, Y(1), PHI(0))
    brst = residue_charge(OMEGA1, a)
    op = charge_operator(chiral_de_rham(1), OMEGA1, 2)
    for v in _basis_states(OMEGA1, 2):
        assert brst(v) == op(v)


def test_residue_matches_potential_charge():
    f = Potential.single_variable(2)
    a = st(THETA1, X(0), PHI(1), coeff=2)
    brst = residue_charge(THETA1, a)
    op = charge_operator(potential_charge(f, Side.THETA), THETA1, 2)
    for v in _basis_states(THETA1, 2):
        assert brst(v) == op(v)


def test_residue_derivation_property():
    """[a_{(-1)}, b_{(m)}] = (a_{(-1)} b)_{(m)} with the Koszul sign."""
    f = Potential.single_variable(2)
    a = st(THETA1, X(0), PHI(1), coeff=2)
    brst = residue_charge(THETA1, a)
    gen_states = [
        st(THETA1, X(0)), st(THETA1, Y(1)),
        st(THETA1, PSI(0)), st(THETA1, PHI(1)),
    ]
    for b in gen_states:
        parity = next(iter(b.terms)).parity
        qb = brst(b)
        for v in _basis_states(THETA1, 2):
            for m in range(-2, 3):
                lhs = brst(field_mode(THETA1, b, m, v))
                sign = -1 if parity else 1
                lhs = lhs - field_mode(THETA1, b, m, brst(v)).scale(sign)
                rhs = (
                    field_mode(THETA1, qb, m, v)
                    if not qb.is_zero()
                    else State.zero()
                )
                assert lhs == rhs, (b.text(), m)


def test_locality_spot_check_order_two():
    """Coefficients of (z-w)^2 [a(z), b(w)] vanish on small states."""
    pairs = [
        (st(THETA1, X(0)), st(THETA1, Y(1))),
        (st(THETA1, X(0)), st(THETA1, X(0))),
        (st(THETA1, PSI(0)), st(THETA1, PHI(1))),
        (st(THETA1, Y(1)), st(THETA1, PHI(1))),
    ]
    for a, b in pairs:
        pa = next(iter(a.terms)).parity
        pb = next(iter(b.terms)).parity
        koszul = -1 if (pa and pb) else 1

        def bracket(m, n, v):
            ab = field_mode(THETA1, a, m, field_mode(THETA1, b, n, v))
            ba = field_mode(THETA1, b, n, field_mode(THETA1, a, m, v))
            return ab - ba.scale(koszul)

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
    for a in list(_basis_states(THETA1, 2, cap=1))[:10]:
        wa = next(iter(a.terms)).weight
        for v in list(_basis_states(THETA1, 2))[:8]:
            wv = next(iter(v.terms)).weight
            for n in range(-2, 3):
                out = field_mode(THETA1, a, n, v)
                for m in out.terms:
                    assert m.weight == wv + wa + n
