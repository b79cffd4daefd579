"""Exact linear algebra over the rationals.

Matrices are lists of columns, each column a dict row_key -> Fraction (sparse
in the rows, which are arbitrary hashable keys).  One sparse elimination in
exact fractions serves both rank and kernel.  It walks the columns in order
and reduces each against the pivot vectors found so far; what is left becomes
a new pivot vector, scaled to 1 at one of its entries.  The pivot columns are
therefore the first linearly independent columns, as in reduced row echelon
form, and a column that reduces to zero yields the unique relation expressing
it through earlier pivot columns with coefficient 1 on itself: the same
kernel vector that Gauss-Jordan elimination gives for that free column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

Column = Dict[Hashable, Fraction]


def _eliminate(
    columns: Sequence[Column], track: bool
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
            inv = 1 / vec.pop(row)
            scaled = {j: v * inv for j, v in comb.items()} if track else None
            pivots.append((row, {r: v * inv for r, v in vec.items()}, scaled))
        elif track:
            relations.append(comb)
    return len(pivots), relations


def rank(columns: Sequence[Column]) -> int:
    return _eliminate(columns, track=False)[0]


def kernel_basis(columns: Sequence[Column]) -> List[Dict[int, Fraction]]:
    """Basis of the right kernel, as sparse {column: coefficient} vectors.

    One vector per column that depends on earlier ones, in column order,
    with 1 on that column and the rest on earlier pivot columns.
    """
    return _eliminate(columns, track=True)[1]
