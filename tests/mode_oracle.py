"""Reference implementations that tests hold the package to.

- The single-mode action and the term application the package used before
  it compiled charge terms into plans, kept verbatim (with the Koszul sign
  of ``fock.normalize`` as it was then) so tests can require the compiled
  path to give exactly the same states.
- The square of a charge expanded over every pair of terms, as the
  nilpotency check did before it ordered only the pairs that can contract.
- The nilpotency check that applies the charge twice to every capped basis
  monomial, which ``check_nilpotent`` offered as its "basis" method.
- The recursive field reconstruction the package used before it expanded
  field modes into operator terms, running on the reference mode action.
- The infinitesimal translation T, which only tests use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from chiralg.charges import CheckReport
from chiralg.fock import Family, FockError, ModeKey, Monomial, SpaceSpec, State, enumerate_basis
from chiralg.oper import (
    ChargeOperator,
    OperatorTerm,
    annihilated_weight,
    combine_terms,
    instantiate_charge,
    normal_order,
)

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


def basis_check(c1, c2, space: SpaceSpec, window: int, x0_cap: int = 2) -> CheckReport:
    """Reference for ``check_nilpotent`` (``c2`` None) and
    ``check_anticommute``: apply c1 c1, or c1 c2 + c2 c1, to every capped
    basis monomial of weight <= window (images are never capped; the cap
    only bounds the probed basis).  A witness image is Q(Q(v))."""
    t1s = instantiate_charge(c1, space, window)
    t2s = None if c2 is None else instantiate_charge(c2, space, window)
    probes = (
        mono
        for q in range(window + 1)
        for mono in enumerate_basis(space, q, x0_cap=x0_cap)
    )
    o1 = ChargeOperator(space, t1s)
    o2 = o1 if t2s is None else ChargeOperator(space, t2s)
    for mono in probes:
        v = State.of(mono)
        image = o1(o2(v))
        if c2 is not None:
            image = image + o2(o1(v))
        if not image.is_zero():
            return CheckReport(False, witness=mono, image=image)
    return CheckReport(True)


def _genbinom(m: int, j: int) -> int:
    """Generalized binomial C(m, j) for integer m (possibly negative), j >= 0;
    an integer, since C(m, j) = (-1)^j C(j - m - 1, j) for m < 0."""
    if m >= 0:
        return comb(m, j)
    return (-1) ** j * comb(j - m - 1, j)


def _add_scaled(acc: dict, state: State, coeff) -> None:
    for mono, c in state.terms.items():
        acc[mono] = acc.get(mono, 0) + (c if coeff == 1 else coeff * c)


def _monomial_field_mode(
    space: SpaceSpec, modes: tuple, n: int, v: State, coeff, acc: dict
) -> None:
    """Add ``coeff`` times the mode at z-power n of the reconstructed field
    of the monomial state, applied to v, into ``acc``."""
    if v.is_zero():
        return
    if not modes:
        if n == 0:
            _add_scaled(acc, v, coeff)
        return
    u = modes[0]
    rest = modes[1:]
    h = space.creator_threshold(u.family)
    k = u.index
    j = k - h  # derivative order
    wv = max((m.weight for m in v.terms), default=0)
    if not rest:
        # The tail field is the identity, so only i = n adds anything, in
        # whichever part of the generator field holds it.  A mode of index
        # below -wv would remove more weight than v has.
        c = _genbinom(n + j, j)
        if c and n + k >= -wv:
            mode = ModeKey(u.family, u.direction, n + k)
            _add_scaled(acc, apply_mode(space, mode, v), coeff * c)
        return
    rest_weight = sum(m.index for m in rest)
    rest_parity = sum(1 for m in rest if m.fermionic) % 2
    koszul = -1 if (u.fermionic and rest_parity) else 1
    # Creator part of the generator field, applied after the tail field.
    for i in range(-j, n + wv + rest_weight + 1):
        c = _genbinom(i + j, j)
        if not c:
            continue
        inner = {}
        _monomial_field_mode(space, rest, n - i, v, 1, inner)
        if inner:
            mode = ModeKey(u.family, u.direction, i + k)
            _add_scaled(acc, apply_mode(space, mode, State(inner)), coeff * c)
    # Annihilator part, moved right past the tail field with the Koszul sign.
    for i in range(-k - wv, -j):
        c = _genbinom(i + j, j)
        if not c:
            continue
        hit = apply_mode(space, ModeKey(u.family, u.direction, i + k), v)
        if not hit.is_zero():
            _monomial_field_mode(space, rest, n - i, hit, coeff * c * koszul, acc)


def reference_field_mode(space: SpaceSpec, a: State, n: int, v: State) -> State:
    """The operator a_(n) applied to v; raises conformal weight by w(a) + n."""
    if not a.is_homogeneous():
        raise FockError("field reconstruction requires a homogeneous state")
    acc = {}
    for mono, coeff in a.terms.items():
        _monomial_field_mode(space, mono.modes, n, v, coeff, acc)
    return State(acc)


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
