"""Differentials as exact matrices per bigrade; cohomology dimensions; characters.

Every cell, a (weight, degree) or (weight, torus, degree) grade, comes from
one formula.  With S basis monomials spanning the cell, K = ker Q on span(S)
and I the span of the images of the incoming chains,

    h = |S| - rank Q_S - rank I + rank(I with the rows of S removed).

This is dim K - dim(K intersect I): as Q^2 = 0, I lies in ker Q, so
K intersect I = span(S) intersect I, the kernel of projecting I off span(S).
So h >= 0.  Q^2 = 0 is proved per weight q on the terms instantiated for q:
``check_nilpotent`` covers every state of weight <= q at any x_0 degree, and
a failure raises ``CohomologyError`` with its witness.

Torus-regularized: every bigrade is finite, S is a whole block and I the
image of the block mapping into it, inside span(S), so the last rank is 0.

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
    degree, with the charge's image columns and their rank memoised per key.

    The charge is instantiated once, at window q: the Q^2 check runs on
    those terms and hands back the operator that gives the columns.
    """

    def __init__(self, charge: SymbolicCharge, space: SpaceSpec, q: int):
        report = check_nilpotent(charge, space, q)
        if not report:
            witness = monomial_text(report.witness, space.dim)
            raise CohomologyError(f"charge not nilpotent; witness {witness}")
        self.op = report.operator
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
            self._cols[key] = [self.op(State.of(m)).terms for m in self.basis(key)]
        return self._cols[key]

    def rank(self, key) -> int:
        if key not in self._ranks:
            self._ranks[key] = rank(self.cols(key))
        return self._ranks[key]


def _cell(s: set, r_out: int, in_cols: list, r_in: int) -> int:
    """h = |S| - rank Q_S - rank I + rank(I with the rows of S removed), for
    I spanned by ``in_cols``."""
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
    for q in range(max_weight + 1):
        blocks = _WeightBlocks(charge, space, q)
        # one extra torus column on each side for the incoming maps
        reach = (lo - abs(shift), hi + abs(shift))
        for t, degree, mono in enumerate_torus_window(space, q, torus_weights, reach):
            blocks.add((t, degree), mono)
        for basis in blocks.bases.values():
            basis.sort(key=monomial_key)
        for t in range(lo, hi + 1):
            for k in sorted(k for (tt, k) in blocks.bases if tt == t):
                src = (t - shift, k - dshift)  # the block mapping into (t, k)
                r_out, r_in = blocks.rank((t, k)), blocks.rank(src)
                h = _cell(set(blocks.basis((t, k))), r_out, blocks.cols(src), r_in)
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


def _capped_row(
    blocks: _WeightBlocks, x0: dict, q: int, dshift: int, cap: int, margin: int
) -> dict:
    """The cells of weight q at one cap (``blocks`` may hold a larger one): S
    is the basis of total x_0 degree <= cap, I the image of the basis with
    at most cap + margin of each x_0.  ``x0`` maps each basis monomial to
    its ``_x0_counts``."""
    reach = cap + margin
    dims: Dict[Tuple[int, int], int] = {}
    for k in sorted(blocks.bases):
        s = {m for m in blocks.basis(k) if x0[m][0] <= cap}
        s_cols = [c for m, c in zip(blocks.basis(k), blocks.cols(k)) if m in s]
        in_cols = [
            c
            for m, c in zip(blocks.basis(k - dshift), blocks.cols(k - dshift))
            if c and x0[m][1] <= reach
        ]
        h = _cell(s, rank(s_cols), in_cols, rank(in_cols))
        if h:
            dims[(q, k)] = h
    return dims


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
        blocks = _WeightBlocks(charge, space, q)
        x0 = {}
        for mono in enumerate_basis(space, q, x0_cap=top):
            blocks.add(sum(m.degree for m in mono), mono)
            x0[mono] = _x0_counts(mono)
        row = _capped_row(blocks, x0, q, dshift, x0_cap, image_margin)
        bigger = _capped_row(blocks, x0, q, dshift, x0_cap + 1, image_margin)
        stab[q] = row == bigger
        dims.update(bigger)
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
