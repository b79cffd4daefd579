"""Reconstruction of the full field of a composite state and its modes.

Conventions.  Fields are expanded as a(z) = sum_n a_(n) z^n, and the mode
a_(n) of a state of conformal weight q raises conformal weight by q + n.  The
generator field attached to the minimal creator u_h is therefore

    G_u(z) = sum_n u_{n+h} z^n,

and u_k with k > h carries the derivative field (1/(k-h)!) d_z^{k-h} G_u(z).
The field of a product state is the normally ordered product of the leading
generator field with the field of the rest, split by the creator/annihilator
classification with Koszul signs.  On fixed-weight arguments every mode sum
truncates exactly.

Under these conventions the residue mode a_(-1) of a weight-1 vector is
weight preserving, which is the BRST contract.
"""

from __future__ import annotations

from math import comb
from typing import Callable

from .fock import FockError, ModeKey, Monomial, SpaceSpec, State
from .oper import apply_mode


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


def field_mode(space: SpaceSpec, a: State, n: int, v: State) -> State:
    """The operator a_(n) applied to v; raises conformal weight by w(a) + n."""
    if not a.is_homogeneous():
        raise FockError("field reconstruction requires a homogeneous state")
    acc = {}
    for mono, coeff in a.terms.items():
        _monomial_field_mode(space, mono.modes, n, v, coeff, acc)
    return State(acc)


class ResidueCharge:
    """The BRST operator v -> a_(-1) v of a weight-1, degree +1 vector."""

    def __init__(self, space: SpaceSpec, a: State):
        if a.is_zero():
            self.space, self.vector = space, a
            return
        weights = a.weights()
        degrees = {m.degree for m in a.terms}
        if weights != {1}:
            raise FockError(f"BRST vector must have conformal weight 1, got {weights}")
        if degrees != {1}:
            raise FockError(f"BRST vector must have cohomological degree +1, got {degrees}")
        self.space = space
        self.vector = a

    def __call__(self, v: State) -> State:
        if self.vector.is_zero():
            return State.zero()
        return field_mode(self.space, self.vector, -1, v)


def residue_charge(space: SpaceSpec, a: State) -> ResidueCharge:
    return ResidueCharge(space, a)
