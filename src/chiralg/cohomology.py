"""Differentials as exact matrices per bigrade; cohomology dimensions; characters.

Every cell, a (weight, degree) or (weight, torus, degree) grade, comes from
one routine, ``_WeightBlocks.cell``.  With S basis monomials spanning the
cell, K = ker Q on span(S) and I the span of the images of the incoming
chains,

    h = |S| - rank Q_S - rank I + rank(I with the rows of S removed).

This is dim K - dim(K intersect I): as Q^2 = 0, I lies in ker Q, so
K intersect I = span(S) intersect I, the kernel of projecting I off span(S).
So h >= 0.  Q^2 = 0 is proved per weight q on the terms instantiated for q:
``check_nilpotent`` covers every state of weight <= q at any x_0 degree, and
a failure raises ``CohomologyError`` with its witness.

Pairs.  A basis monomial x_0^a b is kept as the pair (b, a): its x_0-free
base b and the exponents a of x{1}_0 .. x{d}_0, in the blocks' rows and
columns alike.  The bases of a weight come from one walk that carries each
base's degree and torus value (``fock._creator_multisets``), so no monomial
is built or summed, and each regime places the x_0 letters itself: under a
cap it crosses each base with its exponent box, in a torus window with the
runs of ``fock._x0_odometer``.  The charge runs once per weight on each
base (the ``base_image`` of ``oper.ChargeOperator``), and ``oper._spread``
carries those entries to every pair of the base by falling factorials in a.

Levels.  Each pair of weight q has a level, read off its exponents, and
each selection, S or the pairs whose images span I, is a level threshold:
S is level <= s of the cell's block and I the image of level <= i of its
source block.

- Torus-regularized: every bigrade is finite and every pair has level 0.
  One pass, (s, i) = (0, 0): S is a whole block and I the image of the
  whole block mapping into it, inside span(S), so the last rank is 0.
  Every image row has level 0 too: the rows of one block's columns share a
  torus value, so each vector's pivot is its first row whatever its
  level, and only a cell's own block, whose profile is read for
  dependence alone, can map out of the window.
- Capped: level 0 if the total exponent is <= cap, 1 if it is <= cap + 1,
  2 if no exponent exceeds cap + margin, else 3; the basis is every base
  with every exponent at most cap + margin + 1, and a row with a larger
  exponent lies outside it.  The chain is nested because margin >= 1.
  The cap pass is (s, i) = (0, 2) and the cap + 1 pass (1, 3).  The cap
  is not differential-stable, so h converges to the honest dimension as
  the cap grows and is reported with a flag comparing cap and cap + 1.

Pivot profile.  Each block's image columns are eliminated once per weight
(``linalg.pivot_profile``), sorted by level and, within a level, by nonzero
count, which keeps the fill down.  Each pivot is taken at a row of the
highest level in its vector; a row outside the basis lies in no S and
counts as above every level (level 4 under a cap).  The profile records,
per column, None if the column depends on earlier ones, else its pivot
row's level.  A selection is a prefix of the order, so:

- rank Q_S is the number of pivots among the block's columns of level <= s;
- rank I is the number of pivots among the source block's columns of
  level <= i;
- rank(I off S) is the number of those pivots whose level is above s.

The last holds because a pivot vector is zero on the rows of all earlier
pivots and on every row above its own pivot row's level.  The vectors of
pivot level <= s therefore lie in span(S) and project to zero, while those
of higher level project to vectors that are triangular on their pivot rows,
hence independent; and the pivot vectors of a prefix span its columns.

The columns are the ``int`` images scale * Q that ``oper.ChargeOperator``
gives.  With every column scaled by one nonzero constant, each vector the
elimination reaches is a nonzero multiple of the one it reaches unscaled,
on the same rows, so every pivot row and every dependent column stay: no
rank and no profile changes.

Hypercohomology over affine space is computed as plain complex cohomology
(higher sheaf cohomology vanishes); this identification is recorded in the
table metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Hashable, List, Optional, Tuple

from .fock import (
    SpaceSpec,
    TorusWeights,
    _creator_multisets,
    _x0_odometer,
    monomial_text,
    torus_window_euler,
)
from .charges import check_nilpotent
from .linalg import pivot_profile
from .oper import SymbolicCharge, _spread
from .qseries import TruncatedSeries


class CohomologyError(ValueError):
    pass


@dataclass
class CohomologyTable:
    dims: Dict[Tuple[int, int], int]  # (weight, degree) -> dimension
    stabilization: Dict[int, bool] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def euler(self, weight: int) -> int:
        return sum(
            -dim if k % 2 else dim for (q, k), dim in self.dims.items() if q == weight
        )


class _WeightBlocks:
    """The basis of one weight q bucketed by grade key, (torus, degree) or
    degree, as (base, exps) pairs: an x_0-free base and the x_0 exponents of
    each direction, standing for the monomial x_0^exps base.  The level of
    a pair, and of every image row, is that of its exponents in ``levels``,
    or ``outside`` for exponents it does not list.  Each block's image
    columns are eliminated once, and only its pivot profile is kept.

    The charge is instantiated once, at window q: the Q^2 check runs on
    those terms and hands back the operator that gives the columns.  A
    pair's column is its base's entries (the operator's ``base_image``,
    computed once per base) carried to the pair by ``oper._spread``; the
    operator, and with it the entries, is dropped with the weight.
    """

    def __init__(
        self, charge: SymbolicCharge, space: SpaceSpec, q: int, pairs, levels: dict, outside: int
    ):
        report = check_nilpotent(charge, space, q)
        if not report:
            witness = monomial_text(report.witness, space.dim)
            raise CohomologyError(f"charge not nilpotent; witness {witness}")
        self.op = report.operator
        self.levels = levels
        self.outside = outside
        self.bases: Dict[Hashable, List[Tuple[tuple, tuple]]] = {}
        for key, base, exps in pairs:
            self.bases.setdefault(key, []).append((base, exps))
        self._profiles: Dict[Hashable, List[Tuple[int, Optional[int]]]] = {}

    def _row_level(self, row: Tuple[tuple, tuple]) -> int:
        return self.levels.get(row[1], self.outside)

    def _profile(self, key) -> List[Tuple[int, Optional[int]]]:
        """(level of the pair, level of its column's pivot row or None) for
        the pairs of block ``key``, in elimination order."""
        if key not in self._profiles:
            level, outside = self.levels.get, self.outside
            image = self.op.base_image
            cols = [(level(e, outside), _spread(image(b), e)) for b, e in self.bases.get(key, [])]
            cols.sort(key=lambda lc: (lc[0], len(lc[1])))
            pivots = pivot_profile([c for _, c in cols], self._row_level) if cols else []
            self._profiles[key] = [(lv, p) for (lv, _), p in zip(cols, pivots)]
        return self._profiles[key]

    def cell(self, key, src, s: int, i: int) -> int:
        """h = |S| - rank Q_S - rank I + rank(I with the rows of S removed),
        for S the pairs of block ``key`` of level <= s and I the image
        columns of those of block ``src`` of level <= i, read off the two
        blocks' pivot profiles as the module docstring shows."""
        # |S| - rank Q_S: the columns of S that depend on earlier ones
        free = sum(p is None for lv, p in self._profile(key) if lv <= s)
        into = [p for lv, p in self._profile(src) if lv <= i and p is not None]
        return free - len(into) + sum(p > s for p in into)


def _degree_shift(charge: SymbolicCharge) -> int:
    dshift = charge.degree_shift()
    if dshift is None:
        raise CohomologyError("charge is not homogeneous in cohomological degree")
    return dshift


def cohomology_dims_torus(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    torus_window: Tuple[int, int],
) -> CohomologyTable:
    """Exact cohomology dimensions per (weight, degree, torus) bigrade."""
    shift = charge.torus_shift(torus_weights)
    if shift is None:
        raise CohomologyError("charge is not torus homogeneous")
    dshift = _degree_shift(charge)
    lo, hi = torus_window
    dims: Dict[Tuple[int, int], int] = {}
    per_bigrade: Dict[Tuple[int, int, int], int] = {}
    # the window's cells and the sources t - shift of their incoming maps
    reach = (min(lo, lo - shift), max(hi, hi - shift))
    stride = torus_weights.wx[-1]
    value, runs = _x0_odometer(torus_weights, reach)

    def pairs(q: int):
        for degree, u, base in _creator_multisets(space, q, 0, True, value):
            for exps, k, t, n in runs(u):
                head = tuple(exps)
                for a in range(n):
                    yield (t + a * stride, degree), base, head + (k + a,)

    for q in range(max_weight + 1):
        # every pair and every image row at level 0 (module docstring)
        blocks = _WeightBlocks(charge, space, q, pairs(q), {}, 0)
        for t, k in sorted(key for key in blocks.bases if lo <= key[0] <= hi):
            h = blocks.cell((t, k), (t - shift, k - dshift), 0, 0)
            if h:
                per_bigrade[(q, k, t)] = h
            dims[(q, k)] = dims.get((q, k), 0) + h
    dims = {key: v for key, v in dims.items() if v}
    return CohomologyTable(
        dims=dims,
        stabilization={q: True for q in range(max_weight + 1)},
        metadata={
            "mode": "torus",
            "torus_window": list(torus_window),
            "torus_shift": shift,
            "per_bigrade": {f"{q},{k},{t}": v for (q, k, t), v in sorted(per_bigrade.items())},
            "hypercohomology": "affine space: computed as complex cohomology",
        },
    )


def cohomology_dims_capped(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    x0_cap: int,
) -> CohomologyTable:
    """Cohomology of the x_0-capped pieces with stabilization flags.

    The cap and cap+1 passes share each weight's operator and each block's
    one elimination; the reported dimensions are the cap+1 ones.
    """
    image_margin = charge.max_y_letters() + 1
    dshift = _degree_shift(charge)
    top = x0_cap + image_margin + 1

    def level(exps: tuple) -> int:
        total, most = sum(exps), max(exps)
        if total <= x0_cap:
            return 0
        if total <= x0_cap + 1:
            return 1
        return 2 if most <= x0_cap + image_margin else 3

    box = list(product(range(top + 1), repeat=space.dim))
    levels = {exps: level(exps) for exps in box}

    dims: Dict[Tuple[int, int], int] = {}
    stab: Dict[int, bool] = {}
    for q in range(max_weight + 1):
        walk = _creator_multisets(space, q, 0, True)
        pairs = ((degree, base, exps) for degree, _, base in walk for exps in box)
        # a row with an exponent above top is outside the basis: level 4
        blocks = _WeightBlocks(charge, space, q, pairs, levels, 4)
        rows = []
        # at cap + c, S is level <= c (total x_0 degree <= cap + c) and I is
        # level <= c + 2 (at most cap + c + margin of each x_0)
        for s, i in ((0, 2), (1, 3)):
            cells = ((k, blocks.cell(k, k - dshift, s, i)) for k in sorted(blocks.bases))
            rows.append({(q, k): h for k, h in cells if h})
        stab[q] = rows[0] == rows[1]
        dims.update(rows[1])
    return CohomologyTable(
        dims=dims,
        stabilization=stab,
        metadata={
            "mode": "capped",
            "x0_cap": x0_cap,
            "image_margin": image_margin,
            "hypercohomology": "affine space: computed as complex cohomology",
        },
    )


def euler_series(
    space: SpaceSpec,
    max_weight: int,
    torus_window: Tuple[int, int],
    weights: TorusWeights,
) -> TruncatedSeries:
    """Bigraded Euler characteristic of the plain graded space.

    No differential is involved: per bigrade the Euler characteristic of a
    complex equals that of its chains.  One call of ``torus_window_euler``
    counts every weight through ``max_weight``: the x_0-free bases per
    (weight, degree, torus value) class, folded to one signed count per
    (weight, torus value), and each such count's x_0 placements once, so no
    base or monomial is visited.
    """
    chis: Dict[int, Dict[int, int]] = {q: {} for q in range(max_weight + 1)}
    for (q, t), chi in torus_window_euler(space, max_weight, weights, torus_window).items():
        chis[q][t] = chi
    rows = {q: {t: chi[t] for t in sorted(chi)} for q, chi in chis.items()}
    return TruncatedSeries(max_weight, rows, torus_window)


def chi_van(table: CohomologyTable) -> TruncatedSeries:
    """q-series of Euler characteristics of fixed-weight cohomology, through
    the table's top weight (both regimes flag every weight they compute).

    A capped table may be unstable; its ``stabilization`` flags say where."""
    max_weight = max(table.stabilization)
    rows = {}
    for q in range(max_weight + 1):
        chi = table.euler(q)
        if chi:
            rows[q] = {0: chi}
    return TruncatedSeries(max_weight, rows)
