"""Differentials as exact matrices per bigrade; cohomology dimensions; characters.

Every cell, a (weight, degree) or (weight, torus, degree) grade, comes from
one routine, the ``cell`` method of ``_WeightBlocks``.  With S basis
monomials spanning the cell, K = ker Q on span(S) and I the span of the
images of the incoming chains,

    h = |S| - rank Q_S - rank I + rank(I with the rows of S removed).

This is dim K - dim(K intersect I): as Q^2 = 0, I lies in ker Q, so
K intersect I = span(S) intersect I, the kernel of projecting I off span(S).
So h >= 0.  Q^2 = 0 is proved per weight q on the terms instantiated for q:
``check_nilpotent`` covers every state of weight <= q at any x_0 degree, and
a failure raises ``CohomologyError`` with its witness.  The two regimes
differ only in which monomials of a block they keep for S and for I.

Torus-regularized: every bigrade is finite, S is a whole block and I the
image of the whole block mapping into it, inside span(S), so the last rank
is 0.  Each block is ranked once, as S of its own cell and as the source of
the cell its charge maps it to.

Capped: S is the basis of total x_0 degree <= cap and I the image of the
basis with at most cap + margin of each x_0.  The cap is not
differential-stable, so h converges to the honest dimension as the cap
grows and is reported with a flag comparing cap and cap + 1.

Hypercohomology over affine space is computed as plain complex cohomology
(higher sheaf cohomology vanishes); this identification is recorded in the
table metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from .fock import (
    Family,
    SpaceSpec,
    State,
    TorusWeights,
    enumerate_basis,
    enumerate_torus_window,
    monomial_key,
    monomial_text,
    torus_window_counts,
)
from .charges import check_nilpotent
from .linalg import rank
from .oper import SymbolicCharge
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
    degree, each block sorted once.  The charge's image columns are memoised
    per key, and each selection's columns and rank per (key, selection).

    The charge is instantiated once, at window q: the Q^2 check runs on
    those terms and hands back the operator that gives the columns.
    """

    def __init__(self, charge: SymbolicCharge, space: SpaceSpec, q: int, keyed):
        report = check_nilpotent(charge, space, q)
        if not report:
            witness = monomial_text(report.witness, space.dim)
            raise CohomologyError(f"charge not nilpotent; witness {witness}")
        self.op = report.operator
        self.bases: Dict[Hashable, List[tuple]] = {}
        for key, mono in keyed:
            self.bases.setdefault(key, []).append(mono)
        for basis in self.bases.values():
            basis.sort(key=monomial_key)
        self._cols: Dict[Hashable, list] = {}
        self._picks: Dict[tuple, tuple] = {}

    def _pick(self, key, keep) -> tuple:
        """(monomials, nonzero image columns, their rank) of the monomials of
        block ``key`` that ``keep`` keeps; ``keep`` None keeps them all."""
        if (key, keep) not in self._picks:
            basis = self.bases.get(key, [])
            if key not in self._cols:
                self._cols[key] = [self.op(State.of(m)).terms for m in basis]
            pairs = [
                (m, c) for m, c in zip(basis, self._cols[key]) if keep is None or keep(m)
            ]
            cols = [c for _, c in pairs if c]
            self._picks[key, keep] = ([m for m, _ in pairs], cols, rank(cols))
        return self._picks[key, keep]

    def cell(self, key, src, s_keep, in_keep) -> int:
        """h = |S| - rank Q_S - rank I + rank(I with the rows of S removed),
        for S the monomials of block ``key`` that ``s_keep`` keeps and I the
        image columns of those of block ``src`` that ``in_keep`` keeps."""
        kept, _, r_out = self._pick(key, s_keep)
        _, in_cols, r_in = self._pick(src, in_keep)
        s = set(kept)
        off = [{m: v for m, v in col.items() if m not in s} for col in in_cols]
        return len(s) - r_out - r_in + rank(off)


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
    for q in range(max_weight + 1):
        window = enumerate_torus_window(space, q, torus_weights, reach)
        blocks = _WeightBlocks(charge, space, q, (((t, k), m) for t, k, m in window))
        for t, k in sorted(key for key in blocks.bases if lo <= key[0] <= hi):
            h = blocks.cell((t, k), (t - shift, k - dshift), None, None)
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


def _x0_counts(mono: tuple) -> Tuple[int, int]:
    """The number of x_0 letters, and the largest number of one direction:
    what the cap bounds, and what ``enumerate_basis`` caps."""
    counts: Dict[int, int] = {}
    for m in mono:
        if m.index == 0 and m.family is Family.X:
            counts[m.direction] = counts.get(m.direction, 0) + 1
    return sum(counts.values()), max(counts.values(), default=0)


def cohomology_dims_capped(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    x0_cap: int,
) -> CohomologyTable:
    """Cohomology of the x_0-capped pieces with stabilization flags.

    The cap and cap+1 passes share each weight's operator and image columns;
    the reported dimensions are the cap+1 ones.
    """
    image_margin = charge.max_y_letters() + 1
    dshift = _degree_shift(charge)
    top = x0_cap + image_margin + 1
    dims: Dict[Tuple[int, int], int] = {}
    stab: Dict[int, bool] = {}
    for q in range(max_weight + 1):
        basis = enumerate_basis(space, q, x0_cap=top)
        x0 = {mono: _x0_counts(mono) for mono in basis}
        blocks = _WeightBlocks(
            charge, space, q, ((sum(m.degree for m in mono), mono) for mono in basis)
        )
        rows = []
        for cap in (x0_cap, x0_cap + 1):
            # S: total x_0 degree <= cap; I: at most cap + margin of each x_0
            reach = cap + image_margin
            s_keep = lambda mono: x0[mono][0] <= cap
            in_keep = lambda mono: x0[mono][1] <= reach
            cells = ((k, blocks.cell(k, k - dshift, s_keep, in_keep)) for k in sorted(blocks.bases))
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
    complex equals that of its chains.  Every x_0-free base is still visited,
    but its x_0 placements are counted (``torus_window_counts``) and no
    monomial is built.
    """
    rows: Dict[int, Dict[int, int]] = {}
    for q in range(max_weight + 1):
        chi: Dict[int, int] = {}
        for (t, degree), n in torus_window_counts(space, q, weights, torus_window).items():
            chi[t] = chi.get(t, 0) + (-n if degree % 2 else n)
        rows[q] = {t: chi[t] for t in sorted(chi) if chi[t]}
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
