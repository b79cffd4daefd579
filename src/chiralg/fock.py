"""Graded Fock spaces of free-field vertex superalgebras on affine d-space.

A space is the polynomial superalgebra on its *creator* modes applied to the
vacuum.  There are four families of generators per direction: two bosonic
(x, y) and two fermionic (psi of cohomological degree -1, phi of degree +1).
Which modes are creators depends on the side:

    polyvector side (THETA):  x_{>=0}, y_{>=1}, psi_{>=0}, phi_{>=1}
    form side      (OMEGA):   x_{>=0}, y_{>=1}, phi_{>=0}, psi_{>=1}

The conformal weight of a mode equals its index.  All coefficients are exact
rationals; nothing in this module ever touches floating point.  A basis
monomial is the tuple of its creator modes in canonical order, and the empty
tuple is the vacuum; its weight and degree are the sums over its modes.

The x_0 modes have weight 0, so a fixed-weight piece is finite only under an
x_0-degree cap or a torus grading that regularizes x_0 (nonzero weights of
one sign).  Both kinds of piece rest on one list of creators.  An explicit
stack over them in mode order emits each multiset of one weight as a
canonically ordered tuple, with its degree and torus value carried down the
stack; ``enumerate_basis`` runs it with each x{j}_0 allowed up to the cap
and sorts the piece once.  A knapsack over the same creators counts the
x_0-free bases per weight, degree and torus value without visiting one, or,
for the Euler series, signs each count as a fermion enters.  Each x{j}_0 is
a boson of weight 0 and step |wx_j| in the units in which every x_0 weight
is positive, so in a torus window one prefix-sum sweep per direction over
each row of the knapsack places every x_0 letter (``torus_window_counts``,
``torus_window_euler``).  Where bases are walked one at a time, as in the
torus cohomology, an odometer (``_x0_odometer``) yields per base the runs of
x_0 placements that land in the window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class FockError(ValueError):
    pass


class UnboundedBasisError(FockError):
    """A basis request whose answer would be infinite."""


class Family(enum.Enum):
    X = "x"
    Y = "y"
    PHI = "phi"
    PSI = "psi"

    # Members are singletons compared by identity: hash them by identity
    # too, in C, rather than by Enum's hash of the member name.
    __hash__ = object.__hash__

    @property
    def fermionic(self) -> bool:
        return self in (Family.PHI, Family.PSI)

    @property
    def cohomological_degree(self) -> int:
        if self is Family.PHI:
            return 1
        if self is Family.PSI:
            return -1
        return 0


# Global total order on modes: family, then direction, then index.  The choice
# is a convention; any fixed order with consistent Koszul signs gives an
# isomorphic algebra.
_FAMILY_ORDER = {Family.X: 0, Family.Y: 1, Family.PSI: 2, Family.PHI: 3}


class ModeKey:
    """The mode of one family and direction with the given index.

    Modes are interned: equal modes are one object, so equality is identity
    and the hash is the object's own, both computed in C.  The sort key, the
    fermion flag and the cohomological degree are computed once, when a mode
    is first built.
    """

    __slots__ = ("family", "direction", "index", "fermionic", "degree", "key")
    _interned: dict = {}

    def __new__(cls, family: Family, direction: int, index: int) -> "ModeKey":
        ident = (family, direction, index)
        mode = cls._interned.get(ident)
        if mode is None:
            mode = object.__new__(cls)
            for name, value in (
                ("family", family),
                ("direction", direction),
                ("index", index),
                ("fermionic", family.fermionic),
                ("degree", family.cohomological_degree),
                ("key", (_FAMILY_ORDER[family], direction, index)),
            ):
                object.__setattr__(mode, name, value)
            cls._interned[ident] = mode
        return mode

    def __setattr__(self, name, value):
        raise AttributeError("ModeKey is immutable")

    def __repr__(self):
        return (
            f"ModeKey(family={self.family!r}, direction={self.direction!r}, "
            f"index={self.index!r})"
        )

    def sort_key(self) -> tuple:
        return self.key

    def __lt__(self, other: "ModeKey") -> bool:
        return self.key < other.key

    def text(self, dim: int = 1) -> str:
        if dim == 1:
            return f"{self.family.value}_{self.index}"
        return f"{self.family.value}{self.direction}_{self.index}"


class Side(enum.Enum):
    THETA = "theta"  # polyvector side
    OMEGA = "omega"  # differential form side


# First creator index per family, in the order of _FAMILY_ORDER.
_THRESHOLDS = {Side.THETA: (0, 1, 0, 1), Side.OMEGA: (0, 1, 1, 0)}


@dataclass(frozen=True)
class SpaceSpec:
    side: Side
    dim: int
    _thresholds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_thresholds", _THRESHOLDS[self.side])

    def creator_threshold(self, family: Family) -> int:
        return self._thresholds[_FAMILY_ORDER[family]]

    def is_creator(self, mode: ModeKey) -> bool:
        return mode.index >= self._thresholds[mode.key[0]]

    def check_direction(self, mode: ModeKey) -> None:
        if not 1 <= mode.direction <= self.dim:
            raise FockError(
                f"mode direction {mode.direction} outside 1..{self.dim}"
            )


def make_space(side: Side, dim: int) -> SpaceSpec:
    if dim < 1:
        raise FockError(f"dimension must be >= 1, got {dim}")
    return SpaceSpec(side=side, dim=dim)


@dataclass(frozen=True)
class TorusWeights:
    """Integer torus weights per direction, given on x and phi.

    Each pair is conjugate: y has weight -wx and psi weight -wphi.
    """

    wx: tuple
    wphi: tuple

    def __post_init__(self):
        if len(self.wx) != len(self.wphi):
            raise FockError("torus weight tuples must have equal length")

    def of_mode(self, mode: ModeKey) -> int:
        j = mode.direction - 1
        if mode.family is Family.X:
            return self.wx[j]
        if mode.family is Family.Y:
            return -self.wx[j]
        if mode.family is Family.PHI:
            return self.wphi[j]
        return -self.wphi[j]

    @staticmethod
    def x_count(dim: int) -> "TorusWeights":
        """Grading by (number of x letters) - (number of y letters)."""
        return TorusWeights((1,) * dim, (0,) * dim)


def monomial_text(mono: tuple, dim: int = 1) -> str:
    """A monomial, the canonically ordered tuple of its creator modes, as
    text; the empty monomial is the vacuum "1"."""
    return " ".join(m.text(dim) for m in mono) or "1"


def monomial_key(mono: tuple) -> tuple:
    """The sort key of a monomial: the keys of its modes.  It orders as the
    mode tuples do, and sorts a shuffled basis faster than they do."""
    return tuple(m.key for m in mono)


class State:
    """Finite rational-linear combination of monomials, keyed by their mode
    tuples.  Immutable in use."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    cleaned[mono] = c
        self.terms = cleaned

    @staticmethod
    def zero() -> "State":
        return State()

    @staticmethod
    def of(monomial: tuple, coeff=1) -> "State":
        return State({monomial: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "State") -> "State":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return State(out)

    def __sub__(self, other: "State") -> "State":
        return self + other.scale(-1)

    def scale(self, coeff) -> "State":
        c = Fraction(coeff)
        if not c:
            return State()
        return State({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def weights(self) -> set:
        return {sum(m.index for m in mono) for mono in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def text(self, dim: int = 1) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=monomial_key):
            parts.append(f"{self.terms[mono]}*{monomial_text(mono, dim)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"State({self.text()})"


def _koszul_sort(modes: Sequence[ModeKey], key: Callable[[ModeKey], tuple]):
    """The modes of a (super-)commuting product, sorted by ``key``.

    Returns (sign, sorted modes), where each pair of fermionic letters out of
    order flips the sign, or None if two fermionic letters share a key (the
    product is zero).  ``normalize`` sorts creators by the mode order;
    ``oper.normal_product`` sorts a word with every creator before every
    annihilator.  A mode action merges its creators into a canonical
    monomial with ``oper._insert``, which gives the same result from
    positions.  A whole raw word is sorted here at once, faster than
    inserted letter by letter.
    """
    keys = [key(m) for m in modes if m.fermionic]
    sign = 1
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if a >= b:
                if a == b:
                    return None
                sign = -sign
    return sign, tuple(sorted(modes, key=key))


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
    placed = _koszul_sort(modes, ModeKey.sort_key)
    if placed is None:
        return State.zero()
    sign, ordered = placed
    return State.of(ordered, Fraction(coeff) * sign)


def _creators(space: SpaceSpec, hi: int, x0_cap: int, zero_fermions: bool) -> Iterator[tuple]:
    """The creator modes of index <= hi in mode order, each with the most
    times it can occur in a multiset of weight <= hi: once for a fermion
    (never for a weight-0 one unless ``zero_fermions``), ``x0_cap`` times
    for an x_0 and hi // index times for any other boson; modes that can
    never occur are left out."""
    for family in sorted(Family, key=_FAMILY_ORDER.get):
        for direction in range(1, space.dim + 1):
            for index in range(space.creator_threshold(family), hi + 1):
                if family.fermionic:
                    cap = 1 if index or zero_fermions else 0
                else:
                    cap = hi // index if index else x0_cap
                if cap > 0:
                    yield ModeKey(family, direction, index), cap


def _creator_multisets(
    space: SpaceSpec,
    weight: int,
    x0_cap: int,
    zero_fermions: bool,
    value: Optional[Callable[[ModeKey], int]] = None,
) -> Iterator[Tuple[int, int, tuple]]:
    """Every multiset of creator modes of total weight ``weight`` with at most
    ``x0_cap`` letters x{j}_0 per direction, and the weight-0 fermions only if
    ``zero_fermions``, as ``(degree, value, modes)``: ``modes`` the
    canonically ordered mode tuple, ``degree`` and ``value`` the sums over
    it of the cohomological degrees and of ``value`` (0 if None); unsorted.

    An explicit stack walks the creators of index <= weight in mode order
    and chooses how often each one occurs, so each tuple comes out ordered.
    A node carries the weight still free and the running degree and value,
    added per mode as the node is pushed, so no leaf is summed again.
    """
    if x0_cap < 0:
        return
    gens = [
        (mode, cap, mode.degree, value(mode) if value else 0)
        for mode, cap in _creators(space, weight, x0_cap, zero_fermions)
    ]
    indices = [mode.index for mode, _, _, _ in gens]
    n = len(gens)
    stack = [(0, weight, 0, 0, ())]
    while stack:
        pos, remaining, degree, val, acc = stack.pop()
        # step past the modes too heavy for what remains without a frame each
        while pos < n and indices[pos] > remaining:
            pos += 1
        if pos == n:
            if not remaining:
                yield degree, val, acc
            continue
        mode, cap, d, v = gens[pos]
        index = indices[pos]
        pos += 1
        stack.append((pos, remaining, degree, val, acc))
        for _ in range(min(cap, remaining // index) if index else cap):
            remaining -= index
            degree += d
            val += v
            acc += (mode,)
            stack.append((pos, remaining, degree, val, acc))


def _creator_classes(
    space: SpaceSpec,
    hi: int,
    value: Optional[Callable[[ModeKey], int]] = None,
    signed: bool = False,
) -> List[Dict[int, Dict[int, int]]]:
    """Per weight 0..hi, ``{key: {value: count}}`` of the x_0-free bases: the
    tally of the leaves of ``_creator_multisets(space, q, 0, True, value)``
    by degree and value, from a knapsack over the same creators that visits
    no base.  With ``signed`` a fermion adds no degree but flips the sign, so
    each weight has the one key 0 and its counts are Euler sums.  A boson
    adds any multiple of its index, so its layers are swept upwards, each
    reading a layer it has already fed; a fermion adds at most once, so its
    layers are swept downwards (a weight-0 fermion reads a copy of the layer
    itself)."""
    layers: List[Dict[int, Dict[int, int]]] = [{} for _ in range(hi + 1)]
    if layers:
        layers[0][0] = {0: 1}
    for mode, _ in _creators(space, hi, 0, True):
        n, v = mode.index, value(mode) if value else 0
        d, sign = (0, -1 if mode.fermionic else 1) if signed else (mode.degree, 1)
        sweep = range(hi, n - 1, -1) if mode.fermionic else range(n, hi + 1)
        for w in sweep:
            layer = layers[w]
            source = layers[w - n].items() if n else [(k, dict(row)) for k, row in layer.items()]
            for k, row in source:
                out = layer.setdefault(k + d, {})
                for u, c in row.items():
                    out[u + v] = out.get(u + v, 0) + sign * c
    return layers


def _x0_units(torus_weights: TorusWeights, window: Tuple[int, int]):
    """``(value, flip, steps, bottom, top)`` in units u = flip * t in which
    every x_0 weight is positive: ``value(mode)`` a mode's torus value, the
    steps |wx_j| and the closed ``window`` as bottom..top.  Raises
    ``UnboundedBasisError`` unless the x_0 weights are nonzero and of one
    sign, which leaves each torus value finitely many x_0 exponent vectors."""
    wx = torus_weights.wx
    if 0 in wx:
        raise UnboundedBasisError(
            f"torus weight of x{wx.index(0) + 1}_0 is zero; weight-0 piece unbounded"
        )
    if len({w > 0 for w in wx}) > 1:
        raise UnboundedBasisError(
            "mixed-sign torus weights on x_0 generators; weight-0 piece unbounded"
        )
    flip = -1 if wx[0] < 0 else 1
    bottom, top = window if flip > 0 else (-window[1], -window[0])

    def value(mode: ModeKey) -> int:
        return flip * torus_weights.of_mode(mode)

    return value, flip, [flip * w for w in wx], bottom, top


def _x0_odometer(torus_weights: TorusWeights, window: Tuple[int, int]):
    """``(value, runs)`` for placing x_0 letters on bases one at a time.

    ``value`` is that of ``_x0_units``.  ``runs(u)`` yields ``(exps, k, t,
    n)`` for an x_0-free base of value u: an odometer over the x_0 exponents
    ``exps`` of directions 1..d-1 (its own list, so read it before asking
    for the next run), and per placement the run of the n >= 1 monomials
    with k, k + 1, ..., k + n - 1 letters x{d}_0, at torus values t, t +
    wx_d, ... in the closed ``window``.
    """
    value, flip, steps, bottom, top = _x0_units(torus_weights, window)
    step = steps[-1]

    def runs(u: int) -> Iterator[tuple]:
        # the last direction's exponents that land in bottom..top form a range
        exps = [0] * (len(steps) - 1)
        while True:
            k = max(0, (bottom - u + step - 1) // step)
            first = u + k * step
            if first <= top:
                yield exps, k, flip * first, (top - first) // step + 1
            j = len(exps) - 1
            while j >= 0 and u + steps[j] > top:
                u -= exps[j] * steps[j]
                exps[j] = 0
                j -= 1
            if j < 0:
                return
            exps[j] += 1
            u += steps[j]

    return value, runs


def _placed(layers: List[Dict[int, Dict[int, int]]], steps: Sequence[int], bottom: int, top: int):
    """``(weight, key, u, n)`` for each (weight, key) row of the knapsack's
    ``layers`` and each u in bottom..top with n != 0, the coefficient of z^u
    in sum_u row[u] z^u * prod_j 1/(1 - z^steps[j]): the row's bases crossed
    with every placement of their x_0 letters.  A dense row from its least
    value up to ``top`` takes one prefix-sum sweep per step, row[u] +=
    row[u - s] rising.  With one step, a value below ``bottom`` first moves
    up by whole steps into the window, and the row starts at ``bottom``."""
    for weight, rows in enumerate(layers):
        for key, row in rows.items():
            lo = min(row) if len(steps) > 1 else max(min(row), bottom)
            if lo > top:
                continue
            dense = [0] * (top - lo + 1)
            for u, c in row.items():
                if u < lo:
                    u = lo + (u - lo) % steps[0]
                if u <= top:
                    dense[u - lo] += c
            for s in steps:
                for r in range(s):
                    dense[r::s] = accumulate(dense[r::s])
            start = max(bottom - lo, 0)
            for u, n in enumerate(dense[start:], lo + start):
                if n:
                    yield weight, key, u, n


def torus_window_counts(
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Dict[Tuple[int, int, int], int]:
    """The number of basis monomials whose torus value t lies in the closed
    ``window``, per ``(weight, t, degree)``, for every weight 0..max_weight:
    one knapsack keyed by degree (``_creator_classes``), and one sweep of
    each (weight, degree) row that places the x_0 letters (``_placed``).  No
    base or monomial is visited."""
    value, flip, steps, bottom, top = _x0_units(torus_weights, window)
    layers = _creator_classes(space, max_weight, value)
    return {(q, flip * u, k): n for q, k, u, n in _placed(layers, steps, bottom, top)}


def torus_window_euler(
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Dict[Tuple[int, int], int]:
    """The Euler characteristic, the sum of (-1)^degree over the basis
    monomials whose torus value t lies in the closed ``window``, per
    ``(weight, t)`` for every weight 0..max_weight, zeros dropped: the
    counts of ``torus_window_counts`` summed over the degree.  An x_0 letter
    has degree 0, so every placement of a base keeps its sign: the knapsack
    signs each count as a fermion enters, and one sweep per weight places
    the x_0 letters."""
    value, flip, steps, bottom, top = _x0_units(torus_weights, window)
    layers = _creator_classes(space, max_weight, value, signed=True)
    return {(q, flip * u): n for q, _, u, n in _placed(layers, steps, bottom, top)}


def enumerate_basis(
    space: SpaceSpec, weight: int, *, x0_cap: int, zero_fermion_allowed: bool = True
) -> list:
    """Exhaustive, canonically ordered basis of the weight's piece with at
    most ``x0_cap`` x_0 letters per direction.

    The weight-0 generators x_0 make fixed-weight pieces infinite
    dimensional, hence the required cap; a torus grading that regularizes
    x_0 is the other way (``torus_window_counts``).  Without the weight-0
    fermions and with cap 0 the basis is the free positive-mode part.
    """
    # the walk places the x_0 letters and drops the weight-0 fermions itself,
    # cheaper than crossing bases with an exponent box or filtering after
    walk = _creator_multisets(space, weight, x0_cap, zero_fermion_allowed)
    out = [modes for _, _, modes in walk]
    out.sort(key=monomial_key)
    return out
