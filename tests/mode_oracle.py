"""Reference implementations that tests hold the package to.

- The single-mode action and the term application the package used before
  it compiled charge terms into plans, kept verbatim (with the Koszul sign
  of ``fock.normalize`` as it was then) so tests can require the compiled
  path to give exactly the same states.
- The worklist normal ordering the package used before it expanded products
  by Wick's theorem: ``reference_normal_order`` moves one annihilator right
  past one creator at a time and is verbatim apart from its name and its
  last step, which puts each block of a word in canonical order with the
  oracle's own ``_fermion_sort_sign`` rather than with
  ``oper.normal_product``, the routine it is the reference for.  The
  scalar contraction of a pair that it uses, ``_contraction``, is the
  package's own from before it folded words onto the two plan steps.
- The square of a charge expanded over every pair of terms, as the
  nilpotency check did before it ordered only the pairs that can contract,
  each product ordered by ``reference_normal_order`` and kept if the weight
  its annihilators remove (``_annihilated_weight``) fits in the window.
- The nilpotency check that applies the charge twice to every capped basis
  monomial, which ``check_nilpotent`` offered as its "basis" method.
- The recursive field reconstruction the package used before it expanded
  field modes into operator terms, running on the reference mode action.
- The infinitesimal translation T, which only tests use.
- The recursive basis enumerators the package used before it walked the
  creators with one explicit stack: ``reference_basis`` and
  ``reference_torus_window``, verbatim apart from their names, the
  weight-0 fermion family, which ``SpaceSpec`` no longer names, and their
  monomials, which are now bare mode tuples.
- The capped cohomology the package computed from kernel vectors, as
  rank(I + K) - rank(I), before one rank formula served both regimes:
  ``_capped_dims_once`` verbatim, on a copy of the block cache it used,
  driven by ``reference_capped_table``.  The cache is verbatim but for its
  columns, which it takes from ``reference_image``, the reference action
  of the instantiated terms, rather than from ``ChargeOperator``: a fault
  in the package's mode-action kernel then moves the table and not its
  reference.
- The torus cohomology by the same kernel vectors, rank(I + K) - rank(I)
  per bigrade: ``reference_torus_table``, new rather than kept, which files
  each image column under the bigrade of its monomials instead of reading
  the source block off the charge's torus shift, on the same block cache.
- The sparse ``Fraction`` elimination behind ``linalg.rank`` and
  ``linalg.kernel_basis`` before it reduced integer vectors and visited the
  pivots through a heap: ``reference_eliminate``, which scans every earlier
  pivot for each column.  It is verbatim apart from its name and from
  inverting each pivot as ``Fraction(1) / entry``, which keeps it exact on
  ``int`` columns.
- The singular vectors of an induced module as the package found them
  before it took the kernel on the positive factor alone: one column per
  basis vector of the whole weight piece, each built by
  ``InducedTruncation.apply_mode``.  ``reference_singular_vectors`` is
  verbatim apart from its name.
- The columns of the epsilon check as the package built them before it
  built each from the column of its monomial's tail:
  ``reference_epsilon_columns`` applies every mode of each positive
  monomial, right to left, to each weight-0 singular vector, in
  ``Fraction``, and lists the columns per weight in the order
  ``modfun.check_epsilon`` hands them to ``rank``.
- The Jacobi check of ``StructureConstants`` over every index quadruple,
  before it visited i < j < k only: ``reference_check_jacobi``, verbatim
  apart from taking the constants as an argument.
- The Euler series as the package summed it before it counted each base's
  x_0 placements: one sign per monomial of ``enumerate_torus_window``.
  ``reference_euler_series`` is verbatim apart from its name.
- The torus-window basis of one weight as the package enumerated it before
  it counted the runs of x_0 placements: ``enumerate_torus_window``
  composes ``fock._x0_odometer`` with the walk of one weight and expands
  each run into its monomials, cutting each base once.
- The odometer over index tuples that charge instantiation and field
  reconstruction walked before one stack of mode words served both:
  ``reference_index_assignments``, verbatim apart from its name; its
  tuples, zipped with a word's letters, are the words ``oper.mode_words``
  yields, in the same order.
- The closed-form character as the package computed it before it swept
  the theta factors into the head row in place: ``reference_chi_closed_form``
  multiplies the head row by P(z^d) and by the q-adic inverse of P(z), both
  built by ``reduced_theta``, with ``TruncatedSeries.mul`` and ``invert``.
  Both are verbatim apart from their names and the docstring.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from chiralg.charges import CheckReport, StructureConstants
from chiralg.fock import (
    Family,
    FockError,
    ModeKey,
    Side,
    SpaceSpec,
    State,
    TorusWeights,
    _check_regularizing,
    _creator_multisets,
    _x0_odometer,
    enumerate_basis,
)
from chiralg.linalg import kernel_basis, rank
from chiralg.modfun import InducedTruncation, ModuleError, Vector
from chiralg.oper import (
    ChargeOperator,
    OperatorTerm,
    combine_terms,
    instantiate_charge,
)
from chiralg.qseries import TruncatedSeries

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


def _normalize(space: SpaceSpec, modes: Iterable[ModeKey], coeff=1) -> State:
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
    return State.of(ordered, Fraction(coeff) * sign)


def apply_mode(space: SpaceSpec, mode: ModeKey, state: State) -> State:
    space.check_direction(mode)
    if space.is_creator(mode):
        out = State.zero()
        for mono, coeff in state.terms.items():
            out = out + _normalize(space, (mode,) + mono, coeff)
        return out
    target = ModeKey(_CONJUGATE[mode.family], mode.direction, -mode.index)
    rule_sign = _DERIVATION_SIGN[mode.family]
    out_terms = {}
    for mono, coeff in state.terms.items():
        if target.fermionic:
            fermions_passed = 0
            for pos, m in enumerate(mono):
                if m == target:
                    sign = -1 if fermions_passed % 2 else 1
                    rest = mono[:pos] + mono[pos + 1 :]
                    c = coeff * sign * rule_sign
                    out_terms[rest] = out_terms.get(rest, Fraction(0)) + c
                    break
                if m.fermionic:
                    fermions_passed += 1
        else:
            mult = sum(1 for m in mono if m == target)
            if mult:
                pos = mono.index(target)
                rest = mono[:pos] + mono[pos + 1 :]
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


def _contraction(a: ModeKey, b: ModeKey) -> int:
    """Scalar a b -+ b a for the free-field (super-)commutation relations:
    0, 1 or -1."""
    if a.direction != b.direction or a.index + b.index != 0:
        return 0
    pair = (a.family, b.family)
    if pair == (Family.Y, Family.X):
        return 1
    if pair == (Family.X, Family.Y):
        return -1
    if pair in ((Family.PSI, Family.PHI), (Family.PHI, Family.PSI)):
        return 1
    return 0


def reference_normal_order(space: SpaceSpec, coeff: Fraction, modes: Sequence[ModeKey]) -> list:
    """Expand a raw mode product into normally ordered terms.

    Moving an annihilator right past a creator picks up the Koszul sign plus
    the scalar contraction of the pair, a shorter word.  Words wait on a
    worklist, so the length of the product does not bound the stack.  Within
    the creator and annihilator blocks all modes mutually (super-)commute,
    so each block is put in canonical order.
    """
    coeff = Fraction(coeff)
    if not coeff:
        return []
    creator = space.is_creator
    out = []
    # (coefficient, word, p): no annihilator stands just left of a creator
    # before position p
    work = [(coeff, tuple(modes), 0)]
    while work:
        c, word, p = work.pop()
        last = len(word) - 1
        while p < last and (creator(word[p]) or not creator(word[p + 1])):
            p += 1
        if p < last:
            a, b = word[p], word[p + 1]
            resume = max(p - 1, 0)
            delta = _contraction(a, b)
            if delta:
                work.append((c if delta > 0 else -c, word[:p] + word[p + 2 :], resume))
            swapped = word[:p] + (b, a) + word[p + 2 :]
            work.append((-c if a.fermionic and b.fermionic else c, swapped, resume))
            continue
        # No annihilator sits left of a creator: what is left of the word
        # is its own normal product, each block put in canonical order.
        blocks = ([m for m in word if creator(m)], [m for m in word if not creator(m)])
        signs = [_fermion_sort_sign([m for m in b if m.fermionic]) for b in blocks]
        if None not in signs:
            ordered = tuple(m for b in blocks for m in sorted(b, key=ModeKey.sort_key))
            out.append(OperatorTerm(c * signs[0] * signs[1], ordered))
    return out


def _product_terms(space, t1, t2):
    return reference_normal_order(space, t1.coefficient * t2.coefficient, t1.modes + t2.modes)


def _annihilated_weight(space: SpaceSpec, modes: Iterable[ModeKey]) -> int:
    """The weight that the annihilators among ``modes`` remove."""
    return sum(-m.index for m in modes if not space.is_creator(m))


def full_bracket_terms(space: SpaceSpec, t1s, t2s, window: int) -> list:
    """Reference for ``charges._bracket_terms``, on the terms its records
    stand for: normally order all |t1s| |t2s| products of terms (both orders
    for a bracket, ``t2s`` not None) and keep the terms that can act on
    weight <= window."""
    raw = []
    for t1 in t1s:
        for t2 in t1s if t2s is None else t2s:
            raw.extend(_product_terms(space, t1, t2))
            if t2s is not None:
                raw.extend(_product_terms(space, t2, t1))
    return [
        t
        for t in combine_terms(raw)
        if _annihilated_weight(space, t.modes) <= window
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
    wv = max((sum(m.index for m in mono) for mono in v.terms), default=0)
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
        _monomial_field_mode(space, mono, n, v, coeff, acc)
    return State(acc)


def translate(space: SpaceSpec, state: State) -> State:
    """Infinitesimal translation T: the derivation with T(u_k) = (k+1-h_u) u_{k+1}.

    h_u is the minimal creator index of the family; T kills the vacuum and
    raises conformal weight by exactly 1.
    """
    out = State.zero()
    for mono, coeff in state.terms.items():
        for pos, m in enumerate(mono):
            h = space.creator_threshold(m.family)
            factor = m.index + 1 - h
            if factor == 0:
                continue
            raised = ModeKey(m.family, m.direction, m.index + 1)
            raw = mono[:pos] + (raised,) + mono[pos + 1 :]
            out = out + _normalize(space, raw, coeff * factor)
    return out


def _positive_weight_creators(space: SpaceSpec, weight: int):
    gens = []
    for direction in range(1, space.dim + 1):
        for family in Family:
            lo = max(1, space.creator_threshold(family))
            for index in range(lo, weight + 1):
                gens.append(ModeKey(family, direction, index))
    return gens


def _positive_multisets(gens, weight: int) -> Iterator[tuple]:
    """All creator multisets of positive-index modes with the given weight."""

    def rec(pos: int, remaining: int, acc: list):
        if remaining == 0:
            yield tuple(acc)
            return
        if pos == len(gens):
            return
        g = gens[pos]
        yield from rec(pos + 1, remaining, acc)
        max_mult = 1 if g.fermionic else remaining // g.index
        for mult in range(1, max_mult + 1):
            if mult * g.index > remaining:
                break
            yield from rec(pos + 1, remaining - mult * g.index, acc + [g] * mult)

    yield from rec(0, weight, [])


def _bases(space: SpaceSpec, weight: int, zero_fermion_allowed: bool) -> Iterator[tuple]:
    """The basis monomials of the weight with their x_0 letters left out: each
    positive-index creator multiset, times each set of weight-0 fermions."""
    zero_fermion_family = Family.PSI if space.side is Side.THETA else Family.PHI
    zeros = [ModeKey(zero_fermion_family, j + 1, 0) for j in range(space.dim)]
    subsets = [
        tuple(z for j, z in enumerate(zeros) if mask >> j & 1)
        for mask in range(2**space.dim if zero_fermion_allowed else 1)
    ]
    for pos in _positive_multisets(_positive_weight_creators(space, weight), weight):
        for zf in subsets:
            yield pos + zf


def _with_x0_letters(
    base: tuple, x0: Sequence[ModeKey], steps: Sequence[int], lo: int, hi: int
) -> Iterator[tuple]:
    """Pairs (s, modes): ``base`` times x_0 letters, k_j of them in direction
    j, with s = sum_j k_j * steps[j] in lo..hi, as a canonically ordered mode
    tuple.  Every step must be positive.

    x{j}_0 sorts after every x letter of a lower direction and before every
    other letter of direction j, so one recursion over the directions both
    solves for the k_j and places the letters.
    """
    ordered = sorted(base, key=ModeKey.sort_key)
    # x letters come first in the mode order, grouped by direction
    segments = [[] for _ in steps]
    n_x = 0
    for m in ordered:
        if m.family is not Family.X:
            break
        segments[m.direction - 1].append(m)
        n_x += 1
    segments = [tuple(seg) for seg in segments]
    tail = tuple(ordered[n_x:])

    def rec(j: int, total: int, acc: tuple):
        if j == len(steps):
            if total >= lo:
                yield total, acc + tail
            return
        w = steps[j]
        for k in range((hi - total) // w + 1):
            yield from rec(j + 1, total + k * w, acc + (x0[j],) * k + segments[j])

    yield from rec(0, 0, ())


def reference_torus_window(
    space: SpaceSpec,
    weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Iterator[Tuple[int, int, tuple]]:
    """Yield ``(t, degree, monomial)`` for every basis monomial of the weight
    whose torus value t lies in the closed window ``lo..hi``; unsorted.

    One pass per weight: each x_0-free base (positive modes and weight-0
    fermions) is built once, with its degree and partial torus value, and
    one recursion gives all its x_0 exponent vectors that land in the
    window.  The x_0 weights must be nonzero and of one sign, so that the
    window is finite; otherwise ``UnboundedBasisError`` is raised.
    """
    wx = torus_weights.wx
    _check_regularizing(wx)
    # solve in units u = flip * t, in which every x_0 weight is positive
    flip = -1 if wx[0] < 0 else 1
    steps = [flip * w for w in wx]
    lo, hi = window if flip > 0 else (-window[1], -window[0])
    x0 = [ModeKey(Family.X, j + 1, 0) for j in range(space.dim)]
    for base in _bases(space, weight, True):
        # x_0 letters have degree 0, so the degree is the base's
        degree = sum(m.degree for m in base)
        partial = flip * sum(torus_weights.of_mode(m) for m in base)
        for s, modes in _with_x0_letters(base, x0, steps, lo - partial, hi - partial):
            yield flip * (partial + s), degree, modes


def enumerate_torus_window(
    space: SpaceSpec,
    weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Iterator[Tuple[int, int, tuple]]:
    """Yield ``(t, degree, monomial)`` for every basis monomial of the weight
    whose torus value t lies in the closed window ``lo..hi``; unsorted.

    The walk of the weight (``_creator_multisets``) gives each x_0-free base
    with its degree and torus value, and each run of ``_x0_odometer`` on it
    is expanded into its monomials, the x_0 letters going in at their
    insertion points in the base.
    """
    x0 = [ModeKey(Family.X, j + 1, 0) for j in range(space.dim)]
    last, stride = x0[-1], torus_weights.wx[-1]
    value, runs = _x0_odometer(torus_weights, window)
    for degree, u, base in _creator_multisets(space, weight, 0, True, value):
        # the segments of the base before, between and after its x_0
        # insertion points
        cuts = [bisect_left(base, m.key, key=ModeKey.sort_key) for m in x0]
        front, *between = [base[i:j] for i, j in zip([0] + cuts, cuts + [len(base)])]
        rest = between[-1]
        for exps, k, first, n in runs(u):
            letters = front
            for letter, e, segment in zip(x0, exps, between):
                letters += (letter,) * e + segment
            letters += (last,) * k
            for t in range(first, first + n * stride, stride):
                yield t, degree, letters + rest
                letters += (last,)


def reference_basis(
    space: SpaceSpec, weight: int, *, x0_cap: int, zero_fermion_allowed: bool = True
) -> list:
    """Exhaustive, canonically ordered basis of the weight's piece with at
    most ``x0_cap`` x_0 letters per direction.

    The weight-0 generators x_0 make fixed-weight pieces infinite
    dimensional, hence the required cap; for a torus-regularized piece use
    ``enumerate_torus_window``.  Without the weight-0 fermions and with cap
    0 the basis is the free positive-mode part.
    """
    if weight < 0:
        return []
    x0 = [ModeKey(Family.X, j + 1, 0) for j in range(space.dim)]
    out = []
    for base in _bases(space, weight, zero_fermion_allowed):
        for exps in _cartesian_exponents(space.dim, x0_cap):
            x0s = tuple(x0[j] for j in range(space.dim) for _ in range(exps[j]))
            out.append(tuple(sorted(base + x0s, key=ModeKey.sort_key)))
    out.sort()
    return out


def _cartesian_exponents(dim: int, cap: int) -> Iterator[tuple]:
    def rec(j: int, acc: list):
        if j == dim:
            yield tuple(acc)
            return
        for k in range(cap + 1):
            yield from rec(j + 1, acc + [k])

    yield from rec(0, [])


def reference_image(space: SpaceSpec, terms: Sequence[OperatorTerm], mono: tuple) -> State:
    """The instantiated ``terms`` acting on one monomial, term by term
    through ``apply_term``."""
    out = State()
    for term in terms:
        out = out + apply_term(space, term, State.of(mono))
    return out


class _WeightBlocks:
    """The basis of one weight bucketed by grade key, (torus, degree) or
    degree, with the charge's image columns and their rank memoised per key."""

    def __init__(self, space: SpaceSpec, terms: Sequence[OperatorTerm]):
        self.space = space
        self.terms = terms
        self.bases: Dict[Hashable, List[tuple]] = {}
        self._cols: Dict[Hashable, list] = {}
        self._ranks: Dict[Hashable, int] = {}

    def add(self, key, mono: tuple):
        self.bases.setdefault(key, []).append(mono)

    def basis(self, key) -> List[tuple]:
        return self.bases.get(key, [])

    def cols(self, key) -> list:
        """Image of each basis monomial of the key, as a sparse column."""
        if key not in self._cols:
            self._cols[key] = [
                reference_image(self.space, self.terms, m).terms for m in self.basis(key)
            ]
        return self._cols[key]

    def rank(self, key) -> int:
        if key not in self._ranks:
            self._ranks[key] = rank(self.cols(key))
        return self._ranks[key]


def _x0_degree(mono: tuple, direction: Optional[int] = None) -> int:
    return sum(
        1
        for m in mono
        if m.family is Family.X
        and m.index == 0
        and (direction is None or m.direction == direction)
    )


def _x0_peak(mono: tuple) -> int:
    """Largest x_0 exponent over the directions: what ``enumerate_basis`` caps."""
    return max([_x0_degree(mono, m.direction) for m in mono], default=0)


def _capped_dims_once(
    blocks: _WeightBlocks, q: int, dshift: int, x0_cap: int, image_margin: int
) -> Dict[Tuple[int, int], int]:
    """dim K - dim(K intersect I) per degree at one weight: K is the kernel on
    x_0 degree <= x0_cap, I the image of the basis capped at x0_cap +
    image_margin per direction.  ``blocks`` may hold a larger cap.  The kernel
    vectors are independent, so the difference is rank(I + K) - rank(I)."""
    reach = x0_cap + image_margin
    dims: Dict[Tuple[int, int], int] = {}
    for k in sorted(blocks.bases):
        basis, cols = blocks.basis(k), blocks.cols(k)
        small = [i for i, mono in enumerate(basis) if _x0_degree(mono) <= x0_cap]
        kern = kernel_basis([cols[i] for i in small])
        k_cols = [{basis[small[i]]: v for i, v in vec.items()} for vec in kern]
        in_cols = [
            col
            for mono, col in zip(blocks.basis(k - dshift), blocks.cols(k - dshift))
            if col and _x0_peak(mono) <= reach
        ]
        h = rank(in_cols + k_cols) - rank(in_cols)
        if h:
            dims[(q, k)] = h
    return dims


def reference_capped_table(charge, space: SpaceSpec, max_weight: int, x0_cap: int):
    """(dims, stabilization) of the capped regime by kernel vectors: the
    cap+1 dimensions, and per weight whether cap and cap+1 agree."""
    image_margin = charge.max_y_letters() + 1
    dshift = charge.degree_shift()
    top = x0_cap + image_margin + 1
    dims: Dict[Tuple[int, int], int] = {}
    stab: Dict[int, bool] = {}
    for q in range(max_weight + 1):
        blocks = _WeightBlocks(space, instantiate_charge(charge, space, q))
        for mono in enumerate_basis(space, q, x0_cap=top):
            blocks.add(sum(m.degree for m in mono), mono)
        row = _capped_dims_once(blocks, q, dshift, x0_cap, image_margin)
        bigger = _capped_dims_once(blocks, q, dshift, x0_cap + 1, image_margin)
        stab[q] = row == bigger
        dims.update(bigger)
    return dims, stab



def reference_torus_table(
    charge, space: SpaceSpec, max_weight: int, torus_weights: TorusWeights, window
):
    """(dims, per_bigrade) of the torus regime by kernel vectors: per
    bigrade, rank(I + K) - rank(I) for K the kernel vectors of the block and
    I every image column that lands in it.  A column's bigrade is read off
    its monomials, so the charge's shift and its sign are never used; the
    basis is enumerated |shift| past each end of the window, which holds
    every source.  ``per_bigrade`` is keyed "q,k,t" as in the table."""
    shift = abs(charge.torus_shift(torus_weights))
    lo, hi = window
    dims: Dict[Tuple[int, int], int] = {}
    per_bigrade: Dict[str, int] = {}
    for q in range(max_weight + 1):
        blocks = _WeightBlocks(space, instantiate_charge(charge, space, q))
        for t, k, mono in reference_torus_window(
            space, q, torus_weights, (lo - shift, hi + shift)
        ):
            blocks.add((t, k), mono)
        incoming: Dict[Tuple[int, int], list] = {}
        for key in blocks.bases:
            for col in blocks.cols(key):
                if col:
                    mono = next(iter(col))
                    t = sum(torus_weights.of_mode(m) for m in mono)
                    incoming.setdefault((t, sum(m.degree for m in mono)), []).append(col)
        for t, k in sorted(key for key in blocks.bases if lo <= key[0] <= hi):
            basis, in_cols = blocks.basis((t, k)), incoming.get((t, k), [])
            kern = kernel_basis(blocks.cols((t, k)))
            k_cols = [{basis[i]: v for i, v in vec.items()} for vec in kern]
            h = rank(in_cols + k_cols) - rank(in_cols)
            if h:
                per_bigrade[f"{q},{k},{t}"] = h
                dims[(q, k)] = dims.get((q, k), 0) + h
    return dims, per_bigrade

def reference_eliminate(
    columns: Sequence[Dict[Hashable, Fraction]], track: bool
) -> Tuple[int, List[Dict[int, Fraction]]]:
    """Rank of the columns and, when ``track`` is set, the relation
    {column: coefficient} of each column that depends on earlier ones."""
    index: Dict[Hashable, int] = {}  # row keys are hashed once, then ints
    # (pivot row, vector with its implicit 1 at that row left out, combination
    # of columns it equals); each is reduced against all earlier pivots, so
    # reducing in this order never brings back a row already cleared
    pivots: List[Tuple[int, Dict[int, Fraction], Optional[Dict[int, Fraction]]]] = []
    relations = []
    for c, col in enumerate(columns):
        vec = {index.setdefault(r, len(index)): v for r, v in col.items() if v}
        comb = {c: Fraction(1)}
        for row, pvec, pcomb in pivots:
            f = vec.pop(row, None)
            if f is None:
                continue
            for r, v in pvec.items():
                new = vec.get(r, 0) - f * v
                if new:
                    vec[r] = new
                else:
                    del vec[r]
            if track:
                for j, v in pcomb.items():
                    new = comb.get(j, 0) - f * v
                    if new:
                        comb[j] = new
                    else:
                        del comb[j]
        if vec:
            row = next(iter(vec))
            inv = Fraction(1) / vec.pop(row)
            scaled = {j: v * inv for j, v in comb.items()} if track else None
            pivots.append((row, {r: v * inv for r, v in vec.items()}, scaled))
        elif track:
            relations.append(comb)
    return len(pivots), relations


def reference_singular_vectors(module: InducedTruncation, weight: int) -> List[Vector]:
    """Exact basis of the joint kernel of all negative modes at fixed weight.

    Modes of index < -weight automatically kill the whole piece, so indices
    -1..-weight suffice.  Requires head-room: weight <= cap.
    """
    if weight > module.weight_cap:
        raise ModuleError(
            f"insufficient head-room: weight {weight} > cap {module.weight_cap}"
        )
    n = module.dim(weight)
    if n == 0:
        return []
    columns = [dict() for _ in range(n)]
    for idx in range(1, weight + 1):
        for fam in (Family.X, Family.Y, Family.PHI, Family.PSI):
            mode = ModeKey(fam, 1, -idx)
            for i in range(n):
                _, img = module.apply_mode(mode, weight, {i: Fraction(1)})
                for j, v in img.items():
                    columns[i][(fam, idx, j)] = v
    return kernel_basis(columns)


def reference_epsilon_columns(module: InducedTruncation) -> List[List[Vector]]:
    """Per weight 0..cap, one column per positive monomial and weight-0
    singular vector (monomial outer): the monomial's modes applied one by
    one to the vector."""
    sing0 = [
        {j: Fraction(v) for j, v in vec.items()}
        for vec in reference_singular_vectors(module, 0)
    ]
    out = []
    for q in range(module.weight_cap + 1):
        cols = []
        for pos in module.positive[q]:
            for vec in sing0:
                w, cur = 0, dict(vec)
                for mode in reversed(pos):
                    w, cur = module.apply_mode(mode, w, cur)
                cols.append(cur)
        out.append(cols)
    return out


def reference_check_jacobi(sc: StructureConstants) -> None:
    """Raise ``FockError`` unless the Jacobi identity holds."""
    n = sc.dim
    c = sc.c
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = sum(
                        c[m][i][j] * c[l][m][k]
                        + c[m][j][k] * c[l][m][i]
                        + c[m][k][i] * c[l][m][j]
                        for m in range(n)
                    )
                    if s:
                        raise FockError(
                            f"Jacobi identity fails at (i,j,k,l)="
                            f"({i+1},{j+1},{k+1},{l+1})"
                        )


def reference_euler_series(
    space: SpaceSpec,
    max_weight: int,
    torus_window: Tuple[int, int],
    weights: TorusWeights,
) -> TruncatedSeries:
    """Bigraded Euler characteristic of the plain graded space.

    No differential is involved: per bigrade the Euler characteristic of a
    complex equals that of its chains.
    """
    rows: Dict[int, Dict[int, int]] = {}
    for q in range(max_weight + 1):
        chi: Dict[int, int] = {}
        for t, degree, _ in enumerate_torus_window(space, q, weights, torus_window):
            chi[t] = chi.get(t, 0) + (-1 if degree % 2 else 1)
        rows[q] = {t: chi[t] for t in sorted(chi) if chi[t]}
    return TruncatedSeries(max_weight, rows, torus_window)


def reference_index_assignments(n: int, total: int, window: int):
    """Every n-tuple of mode indices summing to ``total`` whose negative
    entries sum to at least -window.

    Creators start at index 0 or 1, so a negative index is an annihilator
    and the negative entries sum to minus the weight a word removes: these
    are the index words that can act on a state of weight <= window.
    Tuples come in lexicographic order, each built from the previous one a
    position at a time, so n does not bound the stack.
    """
    if n == 0:
        if total == 0:
            yield ()
        return
    if total < -window:
        return
    # rem[i] and room[i]: what positions i.. must sum to, and how much weight
    # they may still remove; positions i.. can always complete if
    # rem[i] >= -room[i], which every step below keeps
    idx, rem, room = [0] * n, [0] * n, [0] * n
    rem[0], room[0] = total, window
    i = 0
    while True:
        for j in range(i, n - 1):  # least indices from i on
            idx[j] = -room[j]
            rem[j + 1] = rem[j] + room[j]
            room[j + 1] = 0
        idx[-1] = rem[-1]
        yield tuple(idx)
        i = n - 2
        while i >= 0 and idx[i] == rem[i] + room[i]:
            i -= 1
        if i < 0:
            return
        idx[i] += 1
        rem[i + 1] = rem[i] - idx[i]
        room[i + 1] = room[i] + min(idx[i], 0)
        i += 1


def reduced_theta(qmax: int, step: int) -> TruncatedSeries:
    """P(z^step) = prod_{n>=1} (1 - q^n z^step)(1 - q^n z^-step) modulo
    q^(qmax+1); factors with n > qmax are 1 there."""
    rows: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for n in range(1, qmax + 1):
        for z_exp in (step, -step):
            # times (1 - q^n z^z_exp); highest rows first, so none is read
            # after it has been added to
            for j in sorted(rows, reverse=True):
                if j + n <= qmax:
                    target = rows.setdefault(j + n, {})
                    for e, v in rows[j].items():
                        target[e + z_exp] = target.get(e + z_exp, 0) - v
    return TruncatedSeries(qmax, rows)


def reference_chi_closed_form(d: int, qmax: int) -> TruncatedSeries:
    """-z^{-d} (1 + ... + z^{d-1}) P(z^d) / P(z), with P(z) inverted
    q-adically."""
    head = TruncatedSeries(qmax, {0: {e: -1 for e in range(-d, 0)}})
    return head.mul(reduced_theta(qmax, d)).mul(reduced_theta(qmax, 1).invert())
