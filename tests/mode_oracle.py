"""Reference mode action for chiralg.oper: the single-mode action and the
term application the package used before it compiled charge terms into
plans, kept verbatim (with the Koszul sign of ``fock.normalize`` as it was
then) so tests can require the compiled path to give exactly the same
states.  The square of a charge expanded over every pair of terms, as the
nilpotency check did before it ordered only the pairs that can contract.
Also the infinitesimal translation T, which only tests use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from chiralg.fock import Family, FockError, ModeKey, Monomial, SpaceSpec, State
from chiralg.oper import OperatorTerm, annihilated_weight, combine_terms, normal_order

_CONJUGATE = {Family.X: Family.Y, Family.Y: Family.X, Family.PHI: Family.PSI, Family.PSI: Family.PHI}

# Sign of the derivation rule per annihilated family.
_DERIVATION_SIGN = {Family.X: -1, Family.Y: 1, Family.PHI: 1, Family.PSI: 1}


def _fermion_sort_sign(fermions: Sequence[ModeKey]):
    """Parity sign of sorting the fermionic letters; None if one repeats."""
    keys = [f.sort_key() for f in fermions]
    if len(set(keys)) != len(keys):
        return None
    inversions = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] > keys[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def normalize(space: SpaceSpec, modes: Iterable[ModeKey], coeff=1) -> State:
    """Canonical form of a raw creator product, with the Koszul sign.

    Bosons commute freely; each transposition of two fermionic letters flips
    the sign, and a repeated fermionic letter gives zero.
    """
    modes = tuple(modes)
    for m in modes:
        space.check_direction(m)
        if not space.is_creator(m):
            raise FockError(f"{m.text(space.dim)} is not a creator in {space.side.value}")
    sign = _fermion_sort_sign([m for m in modes if m.fermionic])
    if sign is None:
        return State.zero()
    ordered = tuple(sorted(modes, key=ModeKey.sort_key))
    return State.of(Monomial(ordered), Fraction(coeff) * sign)


def apply_mode(space: SpaceSpec, mode: ModeKey, state: State) -> State:
    space.check_direction(mode)
    if space.is_creator(mode):
        out = State.zero()
        for mono, coeff in state.terms.items():
            out = out + normalize(space, (mode,) + mono.modes, coeff)
        return out
    target = ModeKey(_CONJUGATE[mode.family], mode.direction, -mode.index)
    rule_sign = _DERIVATION_SIGN[mode.family]
    out_terms = {}
    for mono, coeff in state.terms.items():
        if target.fermionic:
            fermions_passed = 0
            for pos, m in enumerate(mono.modes):
                if m == target:
                    sign = -1 if fermions_passed % 2 else 1
                    rest = Monomial(mono.modes[:pos] + mono.modes[pos + 1 :])
                    c = coeff * sign * rule_sign
                    out_terms[rest] = out_terms.get(rest, Fraction(0)) + c
                    break
                if m.fermionic:
                    fermions_passed += 1
        else:
            mult = sum(1 for m in mono.modes if m == target)
            if mult:
                pos = mono.modes.index(target)
                rest = Monomial(mono.modes[:pos] + mono.modes[pos + 1 :])
                c = coeff * mult * rule_sign
                out_terms[rest] = out_terms.get(rest, Fraction(0)) + c
    return State(out_terms)


def apply_term(space: SpaceSpec, term: OperatorTerm, state: State) -> State:
    out = state
    for mode in reversed(term.modes):
        if out.is_zero():
            return out
        out = apply_mode(space, mode, out)
    return out.scale(term.coefficient)


def _product_terms(space, t1, t2):
    return normal_order(space, t1.coefficient * t2.coefficient, t1.modes + t2.modes)


def full_bracket_terms(space: SpaceSpec, t1s, t2s, window: int) -> list:
    """Reference for ``charges._bracket_terms``: normally order all
    |t1s| |t2s| products of terms (both orders for a bracket, ``t2s`` not
    None) and keep the terms that can act on weight <= window."""
    raw = []
    for t1 in t1s:
        for t2 in t1s if t2s is None else t2s:
            raw.extend(_product_terms(space, t1, t2))
            if t2s is not None:
                raw.extend(_product_terms(space, t2, t1))
    return [
        t
        for t in combine_terms(raw)
        if annihilated_weight(space, t.modes) <= window
    ]


def translate(space: SpaceSpec, state: State) -> State:
    """Infinitesimal translation T: the derivation with T(u_k) = (k+1-h_u) u_{k+1}.

    h_u is the minimal creator index of the family; T kills the vacuum and
    raises conformal weight by exactly 1.
    """
    out = State.zero()
    for mono, coeff in state.terms.items():
        for pos, m in enumerate(mono.modes):
            h = space.creator_threshold(m.family)
            factor = m.index + 1 - h
            if factor == 0:
                continue
            raised = ModeKey(m.family, m.direction, m.index + 1)
            raw = mono.modes[:pos] + (raised,) + mono.modes[pos + 1 :]
            out = out + normalize(space, raw, coeff * factor)
    return out
