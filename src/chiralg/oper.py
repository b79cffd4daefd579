"""Mode actions on states, normally ordered operator terms, symbolic charges.

Creator modes act by multiplication.  An annihilator mode is the unique
(super-)derivation pairing against its conjugate creator and killing the
vacuum:

    y_{-m} = +d/dx_m   (m >= 0)
    x_{-m} = -d/dy_m   (m >= 1)
    phi_{-m} = +d/dpsi_m, psi_{-m} = +d/dphi_m  (left odd derivations)

The sign on x_{-m} is forced by demanding [y_i, x_j] = delta_{i+j,0} with y_j
acting by multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fock import (
    Family,
    FockError,
    ModeKey,
    Monomial,
    SpaceSpec,
    State,
    TorusWeights,
    normalize,
)

_CONJUGATE = {Family.X: Family.Y, Family.Y: Family.X, Family.PHI: Family.PSI, Family.PSI: Family.PHI}

# Sign of the derivation rule per annihilated family.
_DERIVATION_SIGN = {Family.X: -1, Family.Y: 1, Family.PHI: 1, Family.PSI: 1}


def conjugate_creators(space: SpaceSpec, modes: Iterable[ModeKey]) -> tuple:
    """The conjugate creators of the annihilators among ``modes``, sorted: a
    word acts nonzero on a monomial only if the monomial contains them."""
    return tuple(
        sorted(
            (
                ModeKey(_CONJUGATE[m.family], m.direction, -m.index)
                for m in modes
                if not space.is_creator(m)
            ),
            key=ModeKey.sort_key,
        )
    )


def annihilated_weight(space: SpaceSpec, modes: Iterable[ModeKey]) -> int:
    """The weight that the annihilators among ``modes`` remove."""
    return sum(-m.index for m in modes if not space.is_creator(m))


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


@dataclass(frozen=True)
class OperatorTerm:
    coefficient: Fraction
    modes: tuple  # normally ordered: annihilators strictly right of creators

    @property
    def weight(self) -> int:
        return sum(m.index for m in self.modes)

    @property
    def degree(self) -> int:
        return sum(m.degree for m in self.modes)

    def text(self, dim: int = 1) -> str:
        body = " ".join(m.text(dim) for m in self.modes) or "1"
        return f"{self.coefficient}*:{body}:"


def apply_term(space: SpaceSpec, term: OperatorTerm, state: State) -> State:
    out = state
    for mode in reversed(term.modes):
        if out.is_zero():
            return out
        out = apply_mode(space, mode, out)
    return out.scale(term.coefficient)


def _contraction(a: ModeKey, b: ModeKey) -> Fraction:
    """Scalar a b -+ b a for the free-field (super-)commutation relations."""
    if a.direction != b.direction or a.index + b.index != 0:
        return Fraction(0)
    pair = (a.family, b.family)
    if pair == (Family.Y, Family.X):
        return Fraction(1)
    if pair == (Family.X, Family.Y):
        return Fraction(-1)
    if pair in ((Family.PSI, Family.PHI), (Family.PHI, Family.PSI)):
        return Fraction(1)
    return Fraction(0)


def _swap_sign(a: ModeKey, b: ModeKey) -> int:
    return -1 if (a.fermionic and b.fermionic) else 1


def _sorted_block(modes: Sequence[ModeKey]):
    """Sort mutually (super-)commuting modes; returns (sign, tuple) or None."""
    modes = list(modes)
    sign = 1
    for i in range(1, len(modes)):
        j = i
        while j > 0 and modes[j - 1].sort_key() > modes[j].sort_key():
            sign *= _swap_sign(modes[j - 1], modes[j])
            modes[j - 1], modes[j] = modes[j], modes[j - 1]
            j -= 1
    ferms = [m for m in modes if m.fermionic]
    if len(set(ferms)) != len(ferms):
        return None
    return sign, tuple(modes)


def normal_order(space: SpaceSpec, coeff: Fraction, modes: Sequence[ModeKey]) -> list:
    """Expand a raw mode product into normally ordered terms.

    Moving an annihilator right past a creator picks up the Koszul sign plus
    the scalar contraction of the pair, which recursively produces shorter
    terms.  Within the creator and annihilator blocks all modes mutually
    (super-)commute, so each block is put in canonical order.
    """
    coeff = Fraction(coeff)
    if not coeff:
        return []
    modes = tuple(modes)
    for p in range(len(modes) - 1):
        a, b = modes[p], modes[p + 1]
        if (not space.is_creator(a)) and space.is_creator(b):
            swapped = modes[:p] + (b, a) + modes[p + 2 :]
            out = normal_order(space, coeff * _swap_sign(a, b), swapped)
            delta = _contraction(a, b)
            if delta:
                out.extend(normal_order(space, coeff * delta, modes[:p] + modes[p + 2 :]))
            return out
    # No annihilator sits left of a creator, so the product already splits
    # as creators followed by annihilators.
    split = next((p for p, m in enumerate(modes) if not space.is_creator(m)), len(modes))
    sc = _sorted_block(modes[:split])
    sa = _sorted_block(modes[split:])
    if sc is None or sa is None:
        return []
    return [OperatorTerm(coeff * sc[0] * sa[0], sc[1] + sa[1])]


def combine_terms(terms: Iterable[OperatorTerm]) -> list:
    acc = {}
    for t in terms:
        acc[t.modes] = acc.get(t.modes, Fraction(0)) + t.coefficient
    out = [OperatorTerm(c, m) for m, c in acc.items() if c]
    out.sort(key=lambda t: tuple(m.sort_key() for m in t.modes))
    return out


@dataclass(frozen=True)
class SymbolicCharge:
    """A differential presented as field-monomial patterns.

    Each pattern is a rational coefficient with a list of letters
    (family, direction); instantiation ranges over all integer mode
    assignments whose index sum equals ``weight_shift``.
    """

    patterns: tuple  # of (Fraction, tuple[(Family, direction)])
    weight_shift: int = 0
    side: Optional[object] = None  # expected Side, if any

    def torus_shift(self, weights: TorusWeights) -> Optional[int]:
        """Common torus shift of all patterns, or None if inhomogeneous."""
        shifts = set()
        for _, letters in self.patterns:
            s = 0
            for fam, direction in letters:
                s += weights.of_mode(ModeKey(fam, direction, 0))
            shifts.add(s)
        if len(shifts) > 1:
            return None
        return shifts.pop() if shifts else 0

    def degree_shift(self) -> Optional[int]:
        """Common cohomological-degree shift of all patterns, or None."""
        shifts = {
            sum(fam.cohomological_degree for fam, _ in letters)
            for _, letters in self.patterns
        }
        if len(shifts) > 1:
            return None
        return shifts.pop() if shifts else 1

    def max_y_letters(self) -> int:
        return max(
            (sum(1 for fam, _ in letters if fam is Family.Y) for _, letters in self.patterns),
            default=0,
        )


def instantiate_charge(charge: SymbolicCharge, space: SpaceSpec, window: int) -> list:
    """Normally ordered terms of the charge acting on weight <= window.

    Exactly the index assignments that can act nonzero on some state of
    weight <= window survive: every annihilator index is >= -window and the
    total annihilated weight is <= window.
    """
    if window < 0:
        raise FockError("weight window must be >= 0")
    if charge.side is not None and charge.side is not space.side:
        raise FockError(
            f"charge targets side {charge.side.value}, space is {space.side.value}"
        )
    raw = []
    for coeff, letters in charge.patterns:
        n = len(letters)
        if n == 0:
            continue
        lo = -window

        def rec(pos: int, remaining: int, acc: list):
            if pos == n - 1:
                idx = remaining
                if lo <= idx:
                    yield acc + [idx]
                return
            for idx in range(lo, remaining - (n - pos - 1) * lo + 1):
                yield from rec(pos + 1, remaining - idx, acc + [idx])

        for assignment in rec(0, charge.weight_shift, []):
            modes = tuple(
                ModeKey(fam, direction, idx)
                for (fam, direction), idx in zip(letters, assignment)
            )
            if annihilated_weight(space, modes) > window:
                continue
            for m in modes:
                space.check_direction(m)
            raw.extend(normal_order(space, coeff, modes))
    return combine_terms(raw)


class ChargeOperator:
    """Instantiated charge with terms indexed for fast application.

    A term acts nonzero on a monomial only if the conjugate creators of all
    its annihilators occur in the monomial (with multiplicity), so terms are
    grouped by that required multiset and each monomial only visits the
    groups matching submultisets of its own modes.
    """

    def __init__(self, space: SpaceSpec, terms: Sequence[OperatorTerm]):
        self.space = space
        self.groups: dict = {}
        for t in terms:
            self.groups.setdefault(conjugate_creators(space, t.modes), []).append(t)
        self._cache: dict = {}

    def _submultisets(self, modes: tuple):
        runs = []
        for m in modes:
            if runs and runs[-1][0] == m:
                runs[-1][1] += 1
            else:
                runs.append([m, 1])
        out = [()]
        for m, mult in runs:
            out = [
                acc + (m,) * take for acc in out for take in range(mult + 1)
            ]
        return out

    def _apply_mono(self, mono: Monomial) -> dict:
        cached = self._cache.get(mono)
        if cached is None:
            acc = {}
            v = State.of(mono)
            for key in self._submultisets(mono.modes):
                for t in self.groups.get(key, ()):
                    img = apply_term(self.space, t, v)
                    for m, c in img.terms.items():
                        acc[m] = acc.get(m, Fraction(0)) + c
            cached = {m: c for m, c in acc.items() if c}
            self._cache[mono] = cached
        return cached

    def __call__(self, state: State) -> State:
        acc = {}
        for mono, coeff in state.terms.items():
            for m, c in self._apply_mono(mono).items():
                acc[m] = acc.get(m, Fraction(0)) + coeff * c
        return State(acc)


def charge_operator(charge: "SymbolicCharge", space: SpaceSpec, window: int) -> ChargeOperator:
    return ChargeOperator(space, instantiate_charge(charge, space, window))


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
