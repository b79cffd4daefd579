"""Fields of states as normally ordered operator terms.

Conventions.  Fields are expanded as a(z) = sum_n a_(n) z^n, and the mode
a_(n) of a state of conformal weight q raises conformal weight by q + n.  A
family whose first creator index is h has the generator field
G_u(z) = sum_n u_{n+h} z^n, and the letter u_k carries the derivative field
(1/(k-h)!) d_z^{k-h} G_u(z), in which the mode u_m has the coefficient
C(m - h, k - h).  The field of a monomial is the normally ordered product of
its letters' fields, with no contractions.  So a_(n) of a monomial of weight
q is a sum over the assignments of mode indices m_i to its letters with
sum m_i = n + q: each gives the normally ordered word :u_{m_1} ... u_{m_r}:
times the product of its letters' coefficients.  On states of weight <= W
only the words that remove at most W act (``oper.mode_words``), so the sum
is finite, and ``ChargeOperator`` applies it like any charge.

Under these conventions the residue mode a_(-1) of a weight-1 vector is
weight preserving, which is the BRST contract.
"""

from __future__ import annotations

from math import comb

from .fock import FockError, SpaceSpec, State
from .oper import ChargeOperator, combine_terms, mode_words, normal_product


def _genbinom(m: int, j: int) -> int:
    """Generalized binomial C(m, j) for integer m (possibly negative), j >= 0;
    an integer, since C(m, j) = (-1)^j C(j - m - 1, j) for m < 0."""
    if m >= 0:
        return comb(m, j)
    return (-1) ** j * comb(j - m - 1, j)


def field_terms(space: SpaceSpec, a: State, n: int, window: int) -> list:
    """Normally ordered terms of a_(n) acting on weight <= window: the normal
    product of each mode word of a monomial's letters, times their binomials."""
    if not a.is_homogeneous():
        raise FockError("field reconstruction requires a homogeneous state")
    if window < 0:
        raise FockError("weight window must be >= 0")
    raw = []
    for mono, coeff in a.terms.items():
        letters = [(u.family, u.direction) for u in mono]
        firsts = [space.creator_threshold(u.family) for u in mono]
        weight = sum(u.index for u in mono)
        for modes in mode_words(letters, n + weight, window):
            c = 1
            # the letter u_k, the first creator index h of its family, its mode
            # u_m; at k = h the binomial is 1
            for u, h, m in zip(mono, firsts, modes):
                if u.index != h:
                    c *= _genbinom(m.index - h, u.index - h)
            if not c:
                continue
            term = normal_product(space, coeff * c, modes)
            if term is not None:
                raw.append(term)
    return combine_terms(raw)


def field_mode(space: SpaceSpec, a: State, n: int, v: State) -> State:
    """The operator a_(n) applied to v; raises conformal weight by w(a) + n."""
    window = max((sum(m.index for m in mono) for mono in v.terms), default=0)
    return ChargeOperator(space, field_terms(space, a, n, window))(v)


def residue_charge(space: SpaceSpec, a: State, window: int) -> ChargeOperator:
    """The BRST operator v -> a_(-1) v of a weight-1, degree +1 vector, on
    weight <= window."""
    if not a.is_zero():
        weights = a.weights()
        degrees = {sum(m.degree for m in mono) for mono in a.terms}
        if weights != {1}:
            raise FockError(f"BRST vector must have conformal weight 1, got {weights}")
        if degrees != {1}:
            raise FockError(f"BRST vector must have cohomological degree +1, got {degrees}")
    return ChargeOperator(space, field_terms(space, a, -1, window))
