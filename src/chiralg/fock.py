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
x_0-free bases per (weight, degree, torus value) class without visiting
one.  In a torus window an odometer over the x_0 exponents of all
directions but the last (``_x0_odometer``) yields, per x_0-free torus
value and position, the range of last-direction exponents whose torus
values land in a closed window: the torus cohomology runs it on each base
the walk yields, and one stage (``_placed_counts``) once per class for the
counts of every weight up to a top one, building no monomial.
``torus_window_counts`` hands it the classes keyed by degree;
``torus_window_euler`` first folds each class to its Euler sign, one
signed count per (weight, torus value), so the odometer runs once per
torus value instead of once per degree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple


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
    space: SpaceSpec, hi: int, value: Optional[Callable[[ModeKey], int]] = None
) -> Dict[Tuple[int, int, int], int]:
    """The number of x_0-free bases per ``(weight, degree, value)`` for every
    weight 0..hi, the tally of the leaves of ``_creator_multisets(space, q,
    0, True, value)`` over q = 0..hi, from a knapsack over the same creators
    that visits no base.  Per weight layer it counts each (degree, value)
    reached so far.  A boson adds any multiple of its index, so its layers
    are swept upwards, each reading a layer it has already fed; a fermion
    adds at most once, so its layers are swept downwards (a weight-0 fermion
    reads a copy of the layer itself)."""
    if hi < 0:
        return {}
    layers = [{} for _ in range(hi + 1)]
    layers[0][0, 0] = 1
    for mode, _ in _creators(space, hi, 0, True):
        n, d, v = mode.index, mode.degree, value(mode) if value else 0
        sweep = range(hi, n - 1, -1) if mode.fermionic else range(n, hi + 1)
        for w in sweep:
            layer = layers[w]
            for (k, u), c in list(layers[w - n].items()):
                key = (k + d, u + v)
                layer[key] = layer.get(key, 0) + c
    return {(w, k, u): c for w, layer in enumerate(layers) for (k, u), c in layer.items()}


def _check_regularizing(wx: Sequence[int]) -> None:
    """Raise unless the x_0 torus weights are nonzero and of one sign, which
    leaves each torus value finitely many x_0 exponent vectors."""
    if any(w == 0 for w in wx):
        j = next(j for j, w in enumerate(wx) if w == 0)
        raise UnboundedBasisError(
            f"torus weight of x{j + 1}_0 is zero; weight-0 piece unbounded"
        )
    if len({w > 0 for w in wx}) > 1:
        raise UnboundedBasisError(
            "mixed-sign torus weights on x_0 generators; weight-0 piece unbounded"
        )


def _x0_odometer(torus_weights: TorusWeights, window: Tuple[int, int]):
    """``(value, runs)`` for placing x_0 letters in a torus window.

    ``value(mode)`` is a mode's torus value in units u = flip * t in which
    every x_0 weight is positive.  ``runs(u)`` yields ``(exps, k, t, n)`` for
    an x_0-free base of value u: an odometer over the x_0 exponents ``exps``
    of directions 1..d-1 (its own list, so read it before asking for the
    next run), and per placement the run of the n >= 1 monomials with k,
    k + 1, ..., k + n - 1 letters x{d}_0, at torus values t, t + wx_d, ...
    in the closed ``window``.  The x_0 weights must be nonzero and of one
    sign, so that the window is finite; otherwise ``UnboundedBasisError`` is
    raised.
    """
    wx = torus_weights.wx
    _check_regularizing(wx)
    flip = -1 if wx[0] < 0 else 1
    steps = [flip * w for w in wx]
    step = steps[-1]
    bottom, top = window if flip > 0 else (-window[1], -window[0])

    def value(mode: ModeKey) -> int:
        return flip * torus_weights.of_mode(mode)

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


def _placed_counts(
    classes: Dict[Tuple[int, Hashable, int], int],
    torus_weights: TorusWeights,
    window: Tuple[int, int],
    runs: Callable[[int], Iterator[tuple]],
) -> Dict[Tuple[int, int, Hashable], int]:
    """``{(weight, t, key): count}`` of the monomials in the closed torus
    ``window`` from ``{(weight, key, u): c}``: c x_0-free bases of value u
    (the odometer's units), each crossed with its x_0 placements, the runs
    of ``_x0_odometer``; zero counts are dropped.

    A run adds c from its first torus value on and -c one stride past its
    last; summing along each stride then gives the counts, so a run costs
    two updates however long it is.
    """
    stride = torus_weights.wx[-1]
    edges: Dict[tuple, int] = {}
    for (weight, key, u), c in classes.items():
        for _, _, first, n in runs(u):
            edge = (weight, first, key)
            edges[edge] = edges.get(edge, 0) + c
            edge = (weight, first + n * stride, key)
            edges[edge] = edges.get(edge, 0) - c
    lo, hi = window
    ts = range(lo, hi + 1) if stride > 0 else range(hi, lo - 1, -1)
    counts: Dict[tuple, int] = {}
    for weight, key in {(w, k) for w, _, k in edges}:
        for t in ts:
            n = counts.get((weight, t - stride, key), 0) + edges.get((weight, t, key), 0)
            if n:
                counts[weight, t, key] = n
    return counts


def torus_window_counts(
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Dict[Tuple[int, int, int], int]:
    """The number of basis monomials whose torus value t lies in the closed
    ``window``, per ``(weight, t, degree)``, for every weight
    0..max_weight.  The x_0-free bases are counted per (weight, degree,
    torus value) class (``_creator_classes``), and the x_0 odometer runs
    once per class, its runs counted with the class's multiplicity
    (``_placed_counts``); no base or monomial is visited."""
    value, runs = _x0_odometer(torus_weights, window)
    classes = _creator_classes(space, max_weight, value)
    return _placed_counts(classes, torus_weights, window, runs)


def torus_window_euler(
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Dict[Tuple[int, int], int]:
    """The Euler characteristic, the sum of (-1)^degree over the basis
    monomials whose torus value t lies in the closed ``window``, per
    ``(weight, t)`` for every weight 0..max_weight, zeros dropped: the
    counts of ``torus_window_counts`` summed over the degree.

    An x_0 letter has degree 0, so every placement of a base keeps its
    sign: each (weight, degree, torus value) class is folded to its signed
    count per (weight, torus value) before the x_0 odometer runs, which
    then runs once per (weight, torus value) instead of once per degree.
    """
    value, runs = _x0_odometer(torus_weights, window)
    signed: Dict[Tuple[int, None, int], int] = {}
    for (weight, degree, u), c in _creator_classes(space, max_weight, value).items():
        key = (weight, None, u)
        signed[key] = signed.get(key, 0) + (-c if degree & 1 else c)
    classes = {key: c for key, c in signed.items() if c}
    return {(q, t): n for (q, t, _), n in _placed_counts(classes, torus_weights, window, runs).items()}


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
