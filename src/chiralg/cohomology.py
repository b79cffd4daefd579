"""Differentials as exact matrices per bigrade; cohomology dimensions; characters.

Two regimes are supported.

Torus-regularized: with a torus assignment making every bigrade finite, each
(weight, torus) block is a genuine finite complex and kernels/ranks are exact.

Capped: without a regularizing torus the weight-0 generators are cut by an
x_0-degree cap.  The cap is not differential-stable, so dimensions are
estimated as

    dim H = dim K - dim(K  intersect  I)

where K is the true kernel on the capped piece and I the true image of a
slightly larger capped piece (the image-side margin).  The estimate converges
to the honest dimension as the cap grows and is reported with a stabilization
flag comparing consecutive caps.

Hypercohomology over affine space is computed as plain complex cohomology
(higher sheaf cohomology vanishes); this identification is recorded in the
table metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fock import (
    BiGrade,
    FockError,
    Monomial,
    SpaceSpec,
    State,
    TorusWeights,
    enumerate_basis,
)
from .linalg import intersection_dim, kernel_basis, rank
from .oper import SymbolicCharge, apply_terms, charge_operator, instantiate_charge
from .qseries import TruncatedSeries


class CohomologyError(ValueError):
    pass


@dataclass
class MatrixBlock:
    domain: List[Monomial]
    codomain: List[Monomial]
    entries: Dict[Tuple[int, int], Fraction]  # (row, col) -> value

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.codomain), len(self.domain))


@dataclass
class CohomologyTable:
    dims: Dict[Tuple[int, int], int]  # (weight, degree) -> dimension
    stabilization: Dict[int, bool] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def euler(self, weight: int) -> int:
        return sum(
            -dim if k % 2 else dim for (q, k), dim in self.dims.items() if q == weight
        )


def _image_columns(op, basis):
    cols = []
    for mono in basis:
        img = op(State.of(mono))
        cols.append({m: c for m, c in img.terms.items()})
    return cols


def boundary_matrix(
    charge: SymbolicCharge,
    space: SpaceSpec,
    from_grade: BiGrade,
    *,
    x0_cap: Optional[int] = None,
    torus_weights: Optional[TorusWeights] = None,
) -> MatrixBlock:
    """Exact matrix of the charge between graded pieces at fixed weight.

    Image components outside the capped codomain are dropped (the cap defines
    a quotient in the directed case); use ``cohomology_dims`` for dimension
    computations, which treat the cap more carefully.
    """
    q, k, t = from_grade.weight, from_grade.degree, from_grade.torus
    shift = 0
    if t is not None:
        if torus_weights is None:
            raise CohomologyError("torus grade requested without torus weights")
        shift = charge.torus_shift(torus_weights)
        if shift is None:
            raise CohomologyError("charge is not torus homogeneous")
    dshift = charge.degree_shift()
    if dshift is None:
        raise CohomologyError("charge is not homogeneous in cohomological degree")
    domain = enumerate_basis(
        space, q, degree=k, torus=t, torus_weights=torus_weights, x0_cap=x0_cap
    )
    codomain = enumerate_basis(
        space,
        q,
        degree=k + dshift,
        torus=None if t is None else t + shift,
        torus_weights=torus_weights,
        x0_cap=x0_cap,
    )
    window = max(q, 0)
    terms = instantiate_charge(charge, space, window)
    index = {m: r for r, m in enumerate(codomain)}
    entries = {}
    for c, mono in enumerate(domain):
        img = apply_terms(space, terms, State.of(mono))
        for m, val in img.terms.items():
            r = index.get(m)
            if r is not None:
                entries[(r, c)] = val
    return MatrixBlock(domain, codomain, entries)


def cohomology_dims_torus(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    torus_weights: TorusWeights,
    torus_window: Tuple[int, int],
    *,
    check_nilpotency: bool = True,
) -> CohomologyTable:
    """Exact cohomology dimensions per (weight, degree, torus) bigrade."""
    shift = charge.torus_shift(torus_weights)
    if shift is None:
        raise CohomologyError("charge is not torus homogeneous")
    dshift = charge.degree_shift()
    if dshift is None:
        raise CohomologyError("charge is not homogeneous in cohomological degree")
    lo, hi = torus_window
    dims: Dict[Tuple[int, int], int] = {}
    per_bigrade: Dict[Tuple[int, int, int], int] = {}
    for q in range(max_weight + 1):
        op = charge_operator(charge, space, q)
        # bases per (torus, degree); one extra torus column for incoming maps
        bases: Dict[Tuple[int, int], list] = {}
        for t in range(lo - abs(shift), hi + abs(shift) + 1):
            full = enumerate_basis(space, q, torus=t, torus_weights=torus_weights)
            for mono in full:
                bases.setdefault((t, mono.degree), []).append(mono)
        cols_cache: Dict[Tuple[int, int], list] = {}
        rank_cache: Dict[Tuple[int, int], int] = {}

        def out_cols(t, k):
            key = (t, k)
            if key not in cols_cache:
                cols_cache[key] = _image_columns(op, bases.get(key, []))
            return cols_cache[key]

        # each block is ranked once: as the outgoing map at (t, k) and as the
        # incoming map at (t + shift, k + dshift)
        def out_rank(t, k):
            key = (t, k)
            if key not in rank_cache:
                rank_cache[key] = rank(out_cols(t, k))
            return rank_cache[key]

        for t in range(lo, hi + 1):
            degrees = sorted({k for (tt, k) in bases if tt == t})
            for k in degrees:
                n = len(bases.get((t, k), []))
                out = out_cols(t, k)
                r_out = out_rank(t, k)
                r_in = out_rank(t - shift, k - dshift)
                h = n - r_out - r_in
                if h < 0:
                    raise CohomologyError(
                        f"negative dimension at weight {q}, torus {t}, degree {k}"
                    )
                if check_nilpotency:
                    for col, mono in zip(out, bases.get((t, k), [])):
                        sq = op(State(col))
                        if not sq.is_zero():
                            raise CohomologyError(
                                f"charge not nilpotent; witness {mono.text(space.dim)}"
                            )
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


def _capped_dims_once(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    x0_cap: int,
    image_margin: int,
) -> Dict[Tuple[int, int], int]:
    dims: Dict[Tuple[int, int], int] = {}
    for q in range(max_weight + 1):
        op = charge_operator(charge, space, q)
        by_degree: Dict[int, list] = {}
        for mono in enumerate_basis(space, q, x0_cap=x0_cap + image_margin):
            by_degree.setdefault(mono.degree, []).append(mono)
        dshift = charge.degree_shift()
        if dshift is None:
            raise CohomologyError("charge is not homogeneous in cohomological degree")
        for k in sorted(by_degree):
            small = [m for m in by_degree.get(k, []) if m.x0_degree() <= x0_cap]
            out_small = _image_columns(op, small)
            kern = kernel_basis(out_small, n_cols=len(small))
            k_cols = [
                {small[i]: v for i, v in enumerate(vec) if v} for vec in kern
            ]
            in_cols = [
                c for c in _image_columns(op, by_degree.get(k - dshift, [])) if c
            ]
            h = len(k_cols) - intersection_dim(k_cols, in_cols)
            if h:
                dims[(q, k)] = h
    return dims


def cohomology_dims_capped(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    x0_cap: int,
    *,
    image_margin: Optional[int] = None,
    stabilize: bool = True,
) -> CohomologyTable:
    """Capped-kernel / image-intersection estimate with stabilization flags."""
    if image_margin is None:
        image_margin = charge.max_y_letters() + 1
    dims = _capped_dims_once(charge, space, max_weight, x0_cap, image_margin)
    stab: Dict[int, bool] = {}
    if stabilize:
        bigger = _capped_dims_once(
            charge, space, max_weight, x0_cap + 1, image_margin
        )
        for q in range(max_weight + 1):
            row_a = {k: v for (qq, k), v in dims.items() if qq == q}
            row_b = {k: v for (qq, k), v in bigger.items() if qq == q}
            stab[q] = row_a == row_b
        dims = bigger
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


def cohomology_dims(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    *,
    x0_cap: Optional[int] = None,
    torus_weights: Optional[TorusWeights] = None,
    torus_window: Optional[Tuple[int, int]] = None,
    image_margin: Optional[int] = None,
    stabilize: bool = True,
) -> CohomologyTable:
    if torus_weights is not None and torus_window is not None:
        return cohomology_dims_torus(
            charge, space, max_weight, torus_weights, torus_window
        )
    if x0_cap is None:
        raise CohomologyError("need either an x0 cap or a torus window")
    return cohomology_dims_capped(
        charge,
        space,
        max_weight,
        x0_cap,
        image_margin=image_margin,
        stabilize=stabilize,
    )


def euler_series(
    space: SpaceSpec,
    max_weight: int,
    torus_window: Tuple[int, int],
    weights: TorusWeights,
) -> TruncatedSeries:
    """Bigraded Euler characteristic of the plain graded space.

    No differential is involved: per bigrade the Euler characteristic of a
    complex equals that of its chains.
    """
    lo, hi = torus_window
    rows: Dict[int, Dict[int, int]] = {}
    for q in range(max_weight + 1):
        row = {}
        for t in range(lo, hi + 1):
            chi = 0
            for mono in enumerate_basis(space, q, torus=t, torus_weights=weights):
                chi += -1 if mono.degree % 2 else 1
            if chi:
                row[t] = chi
        rows[q] = row
    return TruncatedSeries(max_weight, rows, None, lo, hi)


def chi_van(
    charge: SymbolicCharge,
    space: SpaceSpec,
    max_weight: int,
    *,
    x0_cap: Optional[int] = None,
    torus_weights: Optional[TorusWeights] = None,
    torus_window: Optional[Tuple[int, int]] = None,
    image_margin: Optional[int] = None,
    require_stable: bool = True,
) -> Tuple[TruncatedSeries, CohomologyTable]:
    """q-series of Euler characteristics of fixed-weight cohomology."""
    table = cohomology_dims(
        charge,
        space,
        max_weight,
        x0_cap=x0_cap,
        torus_weights=torus_weights,
        torus_window=torus_window,
        image_margin=image_margin,
    )
    unstable = [q for q, ok in table.stabilization.items() if not ok]
    if require_stable and unstable:
        raise CohomologyError(f"caps not stabilized at weights {unstable}")
    rows = {}
    for q in range(max_weight + 1):
        chi = table.euler(q)
        if chi:
            rows[q] = {0: chi}
    series = TruncatedSeries(max_weight, rows, 0, None, None)
    return series, table
