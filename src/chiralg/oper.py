"""Mode actions on states, Wick normal ordering of mode words, charges instantiated on them.

Creator modes act by multiplication.  An annihilator mode is the unique
(super-)derivation pairing against its conjugate creator and killing the
vacuum:

    y_{-m} = +d/dx_m   (m >= 0)
    x_{-m} = -d/dy_m   (m >= 1)
    phi_{-m} = +d/dpsi_m, psi_{-m} = +d/dphi_m  (left odd derivations)

The sign on x_{-m} is forced by demanding [y_i, x_j] = delta_{i+j,0} with y_j
acting by multiplication.

Every computation here is Wick's theorem run on two steps of a canonical
mode tuple: an annihilator removes one letter of its conjugate creator
(``_remove``), and creators are merged in (``_insert``), whose Koszul sign is
read off positions, as the fermions of a canonical monomial are its suffix.
``_act`` is one mode acting by one of them, as the positive modes of an
induced module act in ``modfun`` and as an annihilator contracts with the
creators in ``normal_order``, which folds a word's letters in from the
right with them; the normal product of a word, its term without
contractions, is the one Koszul sort ``fock._koszul_sort`` of the word with
every creator before every annihilator (``normal_product``).  A charge is
applied by ``ChargeOperator``, which splits its terms once into records
(integer coefficient over one common denominator, its ``scale``; creators;
annihilators), and ``_take`` compiles a record with any set of its
annihilators acting.  ``_run`` is the one loop that runs filed plans on a
monomial: the operator's own, all annihilators acting, on an x_0-free base
(``ChargeOperator.base_image``; every application of a charge, to a state
or a cohomology column, carries those entries to the x_0 exponents with
``_spread``), and in ``_contract_into`` the sub-plans of one record, on the
creators of another, which give the contractions of the Q^2 check in
``charges``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter
from typing import Dict, Iterable, Optional, Sequence

from .fock import (
    _FAMILY_ORDER,
    Family,
    FockError,
    ModeKey,
    SpaceSpec,
    State,
    TorusWeights,
    _koszul_sort,
)

_CONJUGATE = {Family.X: Family.Y, Family.Y: Family.X, Family.PHI: Family.PSI, Family.PSI: Family.PHI}

# Sign of the derivation rule per annihilated family.
_DERIVATION_SIGN = {Family.X: -1, Family.Y: 1, Family.PHI: 1, Family.PSI: 1}


@lru_cache(maxsize=None)  # one entry per mode: modes are interned
def _conjugate(mode: ModeKey) -> ModeKey:
    return ModeKey(_CONJUGATE[mode.family], mode.direction, -mode.index)


def conjugate_creators(space: SpaceSpec, modes: Iterable[ModeKey]) -> tuple:
    """The conjugate creators of the annihilators among ``modes``, sorted: a
    word acts nonzero on a monomial only if the monomial contains them."""
    return tuple(
        sorted(
            (_conjugate(m) for m in modes if not space.is_creator(m)),
            key=ModeKey.sort_key,
        )
    )


def _accumulate(acc: dict, key, value) -> None:
    prev = acc.get(key)
    acc[key] = value if prev is None else prev + value


# The two steps of the module docstring, on canonically ordered mode tuples.
_KEY = attrgetter("key")
# below the key of every fermion and above that of every boson
_FERMIONS = (min(_FAMILY_ORDER[Family.PSI], _FAMILY_ORDER[Family.PHI]),)


def _first_fermion(modes: tuple) -> int:
    """The position of the first fermion of a canonical monomial: x and y
    sort before psi and phi, so its fermions are a suffix."""
    return bisect_left(modes, _FERMIONS, key=_KEY)


def _remove(modes: tuple, target: ModeKey):
    """Take one ``target`` letter, which must occur, out of ``modes``.

    Returns (factor, rest): the factor is the letter's multiplicity if it is
    bosonic, and the Koszul sign of moving it to the front if it is
    fermionic, past the fermions of the suffix ahead of it.
    """
    pos = modes.index(target)
    rest = modes[:pos] + modes[pos + 1 :]
    if not target.fermionic:
        return modes.count(target), rest
    passed = pos - _first_fermion(modes)
    return (-1 if passed & 1 else 1), rest


def _insert(creators: tuple, modes: tuple):
    """Merge canonically ordered ``creators`` into the canonical monomial
    ``modes``: exactly ``_koszul_sort(creators + modes)``, (sign, merged
    monomial) or None if a fermionic creator is already a letter.

    Each creator goes in at its ``bisect_left`` position p in ``modes``.  The
    fermions of ``modes`` are a suffix, from position ``first`` on, so a
    fermionic creator passes the p - first fermions ahead of it; the
    creators are in order among themselves, so the sign is the parity of the
    sum of p - first over the fermionic creators.
    """
    out, parity, first = modes, 0, None
    for shift, c in enumerate(creators):
        p = bisect_left(modes, c.key, key=_KEY)
        if c.fermionic:
            if p < len(modes) and modes[p] is c:
                return None
            if first is None:
                first = _first_fermion(modes)
            parity ^= p - first
        p += shift  # the creators merged so far sit before it
        out = out[:p] + (c,) + out[p:]
    return (-1 if parity & 1 else 1), out


def _act(space: SpaceSpec, mode: ModeKey, modes: tuple):
    """One mode on the canonical monomial ``modes``, one of the two steps:
    (coefficient, monomial), or None if the mode kills it.

    A creator is merged in (``_insert``); an annihilator removes one letter
    of its conjugate (``_remove``), with the derivation sign of its family.
    This is the plan of the one-term operator 1 * mode, run on ``modes``.
    """
    if space.is_creator(mode):
        return _insert((mode,), modes)
    target = _conjugate(mode)
    if target not in modes:
        return None
    f, rest = _remove(modes, target)
    return _DERIVATION_SIGN[mode.family] * f, rest


@dataclass(frozen=True)
class OperatorTerm:
    coefficient: Fraction
    modes: tuple  # normally ordered: annihilators strictly right of creators

    def text(self, dim: int = 1) -> str:
        body = " ".join(m.text(dim) for m in self.modes) or "1"
        return f"{self.coefficient}*:{body}:"


def normal_order(space: SpaceSpec, coeff: Fraction, modes: Sequence[ModeKey]) -> list:
    """Expand a raw mode product into normally ordered terms by Wick's
    theorem, folding its letters in from the right onto {(creators C,
    annihilators A): factor}, each block canonical.

    A creator is merged into C (``_insert``).  An annihilator a gives
    a C A = [a, C} A + (-1)^{|a||C|} C (a A): the bracket is a acting on
    C|0> (``_act``, which removes one conjugate letter with the derivation
    sign), and a is merged into A, giving zero if it repeats.
    """
    coeff = Fraction(coeff)
    if not coeff:
        return []
    acc = {((), ()): 1}
    for m in reversed(modes):
        out = {}
        if space.is_creator(m):
            for (creators, annihilators), c in acc.items():
                placed = _insert((m,), creators)
                if placed is not None:
                    _accumulate(out, (placed[1], annihilators), placed[0] * c)
        else:
            for (creators, annihilators), c in acc.items():
                contracted = _act(space, m, creators)
                if contracted is not None:
                    _accumulate(out, (contracted[1], annihilators), contracted[0] * c)
                placed = _insert((m,), annihilators)
                if placed is not None:
                    sign = placed[0]
                    if m.fermionic and (len(creators) - _first_fermion(creators)) & 1:
                        sign = -sign
                    _accumulate(out, (creators, placed[1]), sign * c)
        acc = out
    return [OperatorTerm(coeff * c, C + A) for (C, A), c in acc.items() if c]


def normal_product(
    space: SpaceSpec, coeff: Fraction, modes: Sequence[ModeKey]
) -> Optional[OperatorTerm]:
    """The normally ordered product :modes:, the one term of ``normal_order``
    without contractions; None if a fermion repeats.

    Inside :...: the letters supercommute, so it is the Koszul sort of the
    word with every creator before every annihilator, each block in mode
    order.
    """
    placed = _koszul_sort(modes, lambda m: (not space.is_creator(m), m.key))
    if placed is None:
        return None
    sign, ordered = placed
    return OperatorTerm(coeff if sign > 0 else -coeff, ordered)


def combine_terms(terms: Iterable[OperatorTerm]) -> list:
    acc = {}
    for t in terms:
        _accumulate(acc, t.modes, t.coefficient)
    return _sorted_terms(acc)


def _sorted_terms(acc: dict) -> list:
    """The nonzero terms of {modes: coefficient}, in order of their modes."""
    out = [OperatorTerm(c, m) for m, c in acc.items() if c]
    out.sort(key=lambda t: tuple(m.key for m in t.modes))
    return out


@dataclass(frozen=True)
class SymbolicCharge:
    """A differential presented as field-monomial patterns.

    Each pattern is a rational coefficient with a list of letters
    (family, direction); instantiation ranges over all integer mode
    assignments whose indices sum to 0, so a charge preserves weight.
    """

    patterns: tuple  # of (Fraction, tuple[(Family, direction)])
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


def mode_words(letters: Sequence[tuple], total: int, window: int):
    """Every word of modes of ``letters`` (family, direction), indices
    summing to ``total``, whose negative indices sum to at least -window.

    Creators start at index 0 or 1, so a negative index is an annihilator
    and the negative indices sum to minus the weight a word removes: these
    are the words that can act on a state of weight <= window.  Words come
    in lexicographic order of their indices, from one explicit stack of
    (word so far, what the remaining positions must sum to, weight they may
    still remove), so a long pattern needs no recursion.
    """
    n = len(letters)
    if n == 0:
        if total == 0:
            yield ()
        return
    if total < -window:  # every node pushed below keeps rem >= -room
        return
    stack = [((), total, window)]
    while stack:
        word, rem, room = stack.pop()
        fam, direction = letters[len(word)]
        if len(word) == n - 1:
            yield word + (ModeKey(fam, direction, rem),)
            continue
        # an index above rem + room would leave the rest more to remove
        # than they may; children pushed in descending index pop ascending
        for i in range(rem + room, -room - 1, -1):
            stack.append((word + (ModeKey(fam, direction, i),), rem - i, room + min(i, 0)))


def instantiate_charge(charge: SymbolicCharge, space: SpaceSpec, window: int) -> list:
    """Normally ordered terms of the charge acting on weight <= window.

    Exactly the mode words that can act nonzero on some state of weight <=
    window survive: every annihilator index is >= -window and the total
    annihilated weight is <= window.
    """
    if window < 0:
        raise FockError("weight window must be >= 0")
    if charge.side is not None and charge.side is not space.side:
        raise FockError(
            f"charge targets side {charge.side.value}, space is {space.side.value}"
        )
    raw = []
    for coeff, letters in charge.patterns:
        if not letters:
            continue
        for fam, direction in letters:
            space.check_direction(ModeKey(fam, direction, 0))
        # without a letter of the conjugate family in its direction, no pair
        # of a word contracts: each word is its normal product alone, built
        # without the contraction search
        if any((_CONJUGATE[f], d) in letters for f, d in letters):
            for modes in mode_words(letters, 0, window):
                raw.extend(normal_order(space, coeff, modes))
        else:
            terms = (normal_product(space, coeff, m) for m in mode_words(letters, 0, window))
            raw.extend(t for t in terms if t is not None)
    return combine_terms(raw)


def _plan(coeff, targets: tuple, creators: tuple, tail) -> tuple:
    """A plan as ``_run`` files it: (coeff, targets, creators, rest, tail),
    ``rest`` the targets after the first, ``tail`` what the caller carries."""
    return coeff, targets, creators, frozenset(targets[1:]), tail


def _run(plans: dict, modes: tuple):
    """Run the ``plans``, filed under their first target or None, on the
    canonical monomial ``modes``: yield (coefficient, left, result, tail) for
    each plan that acts, ``left`` being ``modes`` without its targets and
    ``result`` that with its creators merged in.

    A plan acts only if ``modes`` holds all its targets (with multiplicity),
    so ``modes`` visits the None plans and those of each of its distinct
    letters, and skips a plan whose other targets it lacks.  Merging gives
    zero, and the plan nothing, if a fermionic creator that is not a target
    is already a letter.
    """
    letters = dict.fromkeys(modes)
    for first in (None, *letters):
        for coeff, targets, creators, rest, tail in plans.get(first, ()):
            if not rest <= letters.keys():
                continue
            left = modes
            for target in targets:
                if target not in left:  # a repeated boson occurs too few times
                    break
                f, left = _remove(left, target)
                coeff *= f
            else:
                placed = _insert(creators, left)
                if placed is not None:
                    yield (coeff if placed[0] > 0 else -coeff), left, placed[1], tail


class ChargeOperator:
    """Instantiated charge compiled for fast application.

    The terms are put over one common denominator, ``scale``, the lcm of
    theirs, and split once into records (int coefficient, creators,
    annihilators), the terms times ``scale``, kept as ``terms``.  Each
    record gives its plan (coefficient, targets, creators) through
    ``_take`` with every annihilator acting: the conjugate creators its
    annihilators remove, in the order they act, and its creators, merged in
    together, with the derivation rule signs folded into the coefficient.  A
    plan runs on the mode tuple with integer multiplicities and Koszul signs,
    so its entries are ``int`` arithmetic only, scale * Q; calling the
    operator on a state divides by ``scale`` and is the exact rational
    action.

    The weight-0 letters x{d}_0 are split off every plan: per direction d it
    records j_d, the x{d}_0 letters it takes (only y{d}_0 = d/dx{d}_0 takes
    one), and the shift i_d - j_d, i_d the x{d}_0 letters it adds, as its
    ``moves`` (d - 1, j_d, shift_d) over the directions where either is
    nonzero.  The rest of the plan is filed for ``_run`` and runs once on an
    x_0-free base b (``base_image``, whose entries are grouped by their
    moves and kept for the operator's life), and ``_spread`` carries each
    entry to x_0^a b: x{d}_0 occurs a_d times, so taking j_d of them
    multiplies by the falling factorial a_d (a_d - 1) ... (a_d - j_d + 1),
    zero if a_d < j_d, and the exponent becomes a_d + shift_d.  No Koszul
    sign depends on a: x_0 is bosonic and sorts before every fermion, so
    removing or adding an x_0 moves no fermion position relative to the
    fermion suffix that ``_remove`` and ``_insert`` read their signs from.
    Calling the operator splits each monomial into base and exponents,
    spreads the base's entries and joins each result back.  When no plan is
    target-free, a base holding none of the filed first targets has no
    image at all.
    """

    def __init__(self, space: SpaceSpec, terms: Sequence[OperatorTerm]):
        self.scale = lcm(*(t.coefficient.denominator for t in terms))
        self.terms = [(int(t.coefficient * self.scale), *_split(space, t.modes)) for t in terms]
        self._x0 = tuple(ModeKey(Family.X, d, 0) for d in range(1, space.dim + 1))
        x0_set = frozenset(self._x0)
        self.plans: dict = {}  # first non-x_0 target or None -> plans with their moves
        for coeff, creators, annihilators in self.terms:
            coeff, targets, _ = _take(coeff, annihilators, (1 << len(annihilators)) - 1)
            moves = ()
            if not x0_set.isdisjoint(targets + creators):
                moves = tuple(
                    (d, targets.count(x), creators.count(x) - targets.count(x))
                    for d, x in enumerate(self._x0)
                    if x in targets or x in creators
                )
                targets = tuple(t for t in targets if t not in x0_set)
                creators = tuple(c for c in creators if c not in x0_set)
            self.plans.setdefault(targets[0] if targets else None, []).append(
                _plan(coeff, targets, creators, moves)
            )
        self._firsts = None if None in self.plans else frozenset(self.plans)
        self._images: Dict[tuple, dict] = {}

    def base_image(self, base: tuple) -> dict:
        """The entries of scale * Q on the x_0-free ``base``, grouped by
        their moves, {moves: {result base: coefficient}}; a coefficient may
        cancel to 0.  ``_spread`` carries them to x_0^a base.  Each base's
        entries are computed once; the caller must not change them."""
        acc = self._images.get(base)
        if acc is not None:
            return acc
        acc = self._images[base] = {}
        if self._firsts is not None and self._firsts.isdisjoint(base):
            return acc
        for coeff, _, modes, moves in _run(self.plans, base):
            group = acc.get(moves)
            if group is None:
                group = acc[moves] = {}
            _accumulate(group, modes, coeff)
        return acc

    def _split_x0(self, mono: tuple) -> tuple:
        """(base, exps): ``mono`` without its x_0 letters, and the number of
        x{d}_0 letters per direction d, which form one run."""
        exps = []
        for x in self._x0:
            n = mono.count(x)
            if n:
                p = mono.index(x)
                mono = mono[:p] + mono[p + n :]
            exps.append(n)
        return mono, tuple(exps)

    def _join(self, base: tuple, exps: tuple) -> tuple:
        """The canonical monomial x_0^exps base."""
        for x, a in zip(self._x0, exps):
            if a:
                p = bisect_left(base, x.key, key=_KEY)
                base = base[:p] + (x,) * a + base[p:]
        return base

    def __call__(self, state: State) -> State:
        acc = {}
        for mono, coeff in state.terms.items():
            base, exps = self._split_x0(mono)
            for (b, e), c in _spread(self.base_image(base), exps).items():
                _accumulate(acc, self._join(b, e), coeff * c)
        return State({m: v / self.scale for m, v in acc.items()})


def _spread(entries: dict, exps: tuple) -> dict:
    """scale * Q(x_0^exps b) as {(result base, exponents): int}, zeros
    dropped, from the ``ChargeOperator.base_image`` entries of the base b.

    A group of entries whose moves take j_d letters x{d}_0 while exps_d <
    j_d is skipped.  Otherwise each of its coefficients is multiplied by the
    product over d of the falling factorials exps_d (exps_d - 1) ...
    (exps_d - j_d + 1), and lands at exps shifted by the moves.  Distinct
    groups may land on the same exponents.
    """
    acc = {}
    for moves, group in entries.items():
        placed = _place(moves, exps) if moves else (exps, 1)
        if placed is None:
            continue
        out, factor = placed
        for b, c in group.items():
            key = (b, out)
            prev = acc.get(key)
            acc[key] = factor * c if prev is None else prev + factor * c
    return {key: c for key, c in acc.items() if c}


@lru_cache(maxsize=4096)  # a weight's pairs meet few (moves, exps)
def _place(moves: tuple, exps: tuple) -> Optional[tuple]:
    """(exponents, falling-factorial factor) of a group of entries with
    these moves on x_0^exps, or None if they take more x_0 than it holds."""
    shifted, factor = list(exps), 1
    for d, j, shift in moves:
        a = shifted[d]
        if a < j:
            return None
        for f in range(a - j + 1, a + 1):
            factor *= f
        shifted[d] = a + shift
    return tuple(shifted), factor


def _split(space: SpaceSpec, modes: tuple) -> tuple:
    """(creators, annihilators) of a normally ordered mode tuple."""
    for i, m in enumerate(modes):
        if not space.is_creator(m):
            return modes[:i], modes[i:]
    return modes, ()


def _take(coeff: int, annihilators: tuple, taken: int) -> tuple:
    """(coefficient, targets, leftover) of a term c C A whose annihilators
    at the set bits of ``taken``, a sub-multiset B of A by position, act.

    The annihilators supercommute, so A = eps L B, eps the sign of the
    fermion pairs with the B letter first and L the leftover letters in
    order.  The coefficient is eps c times the derivation signs of B, and
    the targets are the conjugates of B in the order they act, rightmost
    first; all of A taken gives the term's own plan, with no leftover.
    """
    targets, leftover, odd = [], [], False
    for i, m in enumerate(annihilators):
        if taken >> i & 1:
            coeff *= _DERIVATION_SIGN[m.family]
            targets.append(_conjugate(m))
            odd ^= m.fermionic
        else:
            leftover.append(m)
            if odd and m.fermionic:  # an odd number of B fermions pass it
                coeff = -coeff
    return coeff, tuple(reversed(targets)), tuple(leftover)


def _contract_into(acc: dict, left: Sequence[tuple], right: Sequence[tuple], window: int) -> None:
    """Add to ``acc`` ({modes: coefficient}) the contracted part of every
    product t1 t2 (t1 in ``left``, t2 in ``right``, both records of
    a ``ChargeOperator``'s ``terms``) that can act on weight <= window.

    Write t1 = c C A and t2 = c2 C2 A2 (creators, annihilators).  By Wick's
    theorem C A C2 A2 is a sum over the letters B of A that contract, with
    A = eps L B (``_take``): the full contractions of B against C2 are B
    acting on the state C2|0>, a sum of monomials C2', and L moves past C2'
    with its Koszul sign to join A2.  A sub-plan, a record of ``left`` with
    one B acting, therefore runs on C2 through ``_run``, as a plan of
    ``ChargeOperator`` does, and then merges L into A2.  The annihilated
    weight of a product is that of L and A2, so the sub-plans are filed once
    per distinct room the A2 leave, without those whose L would exceed it,
    and are skipped before any work.
    """
    present = {m for _, own, _ in right for m in own}
    subs = []  # (annihilated weight of L, first target, plan carrying L and its parity)
    for c1, creators, annihilators in left:
        usable = sum(1 << i for i, m in enumerate(annihilators) if _conjugate(m) in present)
        taken = usable
        while taken:  # every nonempty B whose conjugates are present, by position
            coeff, targets, leftover = _take(c1, annihilators, taken)
            tail = (leftover, sum(m.fermionic for m in leftover) & 1)
            subs.append(
                (-sum(m.index for m in leftover), targets[0], _plan(coeff, targets, creators, tail))
            )
            taken = (taken - 1) & usable
    filed = {}  # room -> plans whose leftover fits in it
    for c2, own, tail in right:
        room = window + sum(m.index for m in tail)  # minus the weight tail removes
        plans = filed.get(room)
        if plans is None:
            plans = filed[room] = {}
            for weight, first, plan in subs:
                if weight <= room:
                    plans.setdefault(first, []).append(plan)
        for coeff, modes, key, (leftover, odd) in _run(plans, own):
            coeff *= c2
            if leftover:
                if odd and (len(modes) - _first_fermion(modes)) & 1:
                    coeff = -coeff
                merged = _insert(leftover, tail)
                if merged is None:
                    continue
                key += merged[1]
                coeff *= merged[0]
            else:
                key += tail
            _accumulate(acc, key, coeff)


def charge_operator(charge: "SymbolicCharge", space: SpaceSpec, window: int) -> ChargeOperator:
    return ChargeOperator(space, instantiate_charge(charge, space, window))

