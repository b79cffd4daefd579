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
one sign).  Both kinds of piece come from one enumerator of creator
multisets, an explicit stack over the creators in mode order that emits
each multiset of a range of weights as a canonically ordered tuple, with
its weight, degree and torus value carried down the stack.
``enumerate_basis`` runs it for one weight with each x{j}_0 allowed up to
the cap and sorts the piece once.  A torus window has one run generator: it
runs the enumerator without x_0 to get the bases, and an odometer over the
x_0 exponents of all directions but the last yields, per base and position,
the range of last-direction exponents whose torus values land in a closed
window.  ``torus_window_counts`` sums the runs of every weight up to a top
one, from one walk, per (weight, torus value, degree) and builds no
monomial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple


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

    @property
    def dim(self) -> int:
        return len(self.wx)

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


def _koszul_sort(modes: Sequence[ModeKey]):
    """Canonical order of mutually (super-)commuting modes.

    Returns (sign, sorted modes), where each transposition of two fermionic
    letters on the way flips the sign, or None if a fermionic letter
    repeats (the product is zero).  ``normalize`` and normal ordering go
    through it; a mode action merges its creators into a canonical monomial
    with ``oper._insert``, which gives the same result from positions.
    """
    keys = [m.key for m in modes if m.fermionic]
    sign = 1
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if a >= b:
                if a == b:
                    return None
                sign = -sign
    return sign, tuple(sorted(modes, key=ModeKey.sort_key))


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
    placed = _koszul_sort(modes)
    if placed is None:
        return State.zero()
    sign, ordered = placed
    return State.of(ordered, Fraction(coeff) * sign)


def _creator_multisets(
    space: SpaceSpec,
    lo: int,
    hi: int,
    x0_cap: int,
    zero_fermions: bool,
    value: Optional[Callable[[ModeKey], int]] = None,
) -> Iterator[Tuple[int, int, int, tuple]]:
    """Every multiset of creator modes of total weight ``lo..hi`` with at most
    ``x0_cap`` letters x{j}_0 per direction, and the weight-0 fermions only if
    ``zero_fermions``, as ``(weight, degree, value, modes)``: ``modes`` the
    canonically ordered mode tuple, ``degree`` and ``value`` the sums over
    it of the cohomological degrees and of ``value`` (0 if None); unsorted.

    An explicit stack walks the creators of index <= hi in mode order and
    chooses how often each one occurs, so each tuple comes out ordered.  A
    node carries the weight still free and the running degree and value,
    added per mode as the node is pushed, so no leaf is summed again.
    """
    lo = max(lo, 0)
    if hi < lo or x0_cap < 0:
        return
    gens, indices = [], []
    for family in sorted(Family, key=_FAMILY_ORDER.get):
        for direction in range(1, space.dim + 1):
            for index in range(space.creator_threshold(family), hi + 1):
                if family.fermionic:
                    cap = 1 if index or zero_fermions else 0
                else:
                    cap = hi // index if index else x0_cap
                if cap > 0:
                    mode = ModeKey(family, direction, index)
                    gens.append((mode, cap, mode.degree, value(mode) if value else 0))
                    indices.append(index)
    n = len(gens)
    slack = hi - lo  # a leaf leaves at most this much weight free
    stack = [(0, hi, 0, 0, ())]
    while stack:
        pos, remaining, degree, val, acc = stack.pop()
        # step past the modes too heavy for what remains without a frame each
        while pos < n and indices[pos] > remaining:
            pos += 1
        if pos == n:
            if remaining <= slack:
                yield hi - remaining, degree, val, acc
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


def _torus_runs(
    space: SpaceSpec,
    lo: int,
    hi: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Iterator[tuple]:
    """Yield ``(weight, base, degree, exps, k, t, n)``, one run per x_0-free
    base of weight ``lo..hi`` and placement of the x_0 letters of every
    direction but the last, for the basis monomials whose torus value lies
    in the closed ``window``.

    Every ``base`` (positive modes and weight-0 fermions) comes from one
    walk of ``_creator_multisets`` with its weight, degree and torus value
    carried down the walk; x_0 letters move only the torus value, and no
    base is summed again.  ``exps`` holds the x_0 exponents of directions
    1..d-1; it is the odometer's own list, so read it before asking for the
    next run.  The run is the n >= 1 monomials with k, k + 1, ..., k + n - 1
    letters x{d}_0, at torus values t, t + wx_d, ...  The x_0 weights must
    be nonzero and of one sign, so that the window is finite; otherwise
    ``UnboundedBasisError`` is raised.
    """
    wx = torus_weights.wx
    _check_regularizing(wx)
    # solve in units u = flip * t, in which every x_0 weight is positive
    flip = -1 if wx[0] < 0 else 1
    steps = [flip * w for w in wx]
    step = steps[-1]
    bottom, top = window if flip > 0 else (-window[1], -window[0])

    def value(mode: ModeKey) -> int:
        return flip * torus_weights.of_mode(mode)

    for weight, degree, u, base in _creator_multisets(space, lo, hi, 0, True, value):
        # an odometer over the x_0 exponents of every direction but the last;
        # the last direction's exponents that land in bottom..top form a range
        exps = [0] * (space.dim - 1)
        while True:
            k = max(0, (bottom - u + step - 1) // step)
            first = u + k * step
            if first <= top:
                yield weight, base, degree, exps, k, flip * first, (top - first) // step + 1
            j = space.dim - 2
            while j >= 0 and u + steps[j] > top:
                u -= exps[j] * steps[j]
                exps[j] = 0
                j -= 1
            if j < 0:
                break
            exps[j] += 1
            u += steps[j]


def torus_window_counts(
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    window: Tuple[int, int],
) -> Dict[Tuple[int, int, int], int]:
    """The number of basis monomials whose torus value t lies in the closed
    ``window``, per ``(weight, t, degree)``, for every weight
    0..max_weight, from one walk over the x_0-free bases of all those
    weights: each base's runs of x_0 placements (``_torus_runs``) are
    counted, and no monomial is built."""
    stride = torus_weights.wx[-1]
    # a run adds 1 from its first torus value on and -1 one stride past its
    # last; summing along each stride then gives the counts
    edges: Dict[Tuple[int, int, int], int] = {}
    for weight, _, degree, _, _, first, n in _torus_runs(
        space, 0, max_weight, torus_weights, window
    ):
        key = (weight, first, degree)
        edges[key] = edges.get(key, 0) + 1
        key = (weight, first + n * stride, degree)
        edges[key] = edges.get(key, 0) - 1
    lo, hi = window
    ts = range(lo, hi + 1) if stride > 0 else range(hi, lo - 1, -1)
    counts: Dict[Tuple[int, int, int], int] = {}
    for weight, degree in {(w, k) for w, _, k in edges}:
        for t in ts:
            n = counts.get((weight, t - stride, degree), 0) + edges.get((weight, t, degree), 0)
            if n:
                counts[weight, t, degree] = n
    return counts


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
    out = [
        modes
        for _, _, _, modes in _creator_multisets(
            space, weight, weight, x0_cap, zero_fermion_allowed
        )
    ]
    out.sort(key=monomial_key)
    return out
