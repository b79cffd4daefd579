"""Exact linear algebra over the rationals.

Matrices are lists of columns, each column a dict row_key -> rational value
(``Fraction`` or ``int``; sparse in the rows, which are arbitrary hashable
keys).  One sparse elimination serves both rank and kernel.  It walks the
columns in order and reduces each against the pivot vectors found so far;
what is left becomes a new pivot vector.  The pivot columns are therefore
the first linearly independent columns, as in reduced row echelon form, and
a column that reduces to zero yields the unique relation expressing it
through earlier pivot columns with coefficient 1 on itself: the same kernel
vector that Gauss-Jordan elimination gives for that free column.

The reduction runs on integers only:

- A column that holds a ``Fraction`` is multiplied by the lcm of its
  denominators, so it enters as an ``int`` vector, and its combination
  starts as that lcm on itself; an all-``int`` column enters as it is.
- A pivot is its row, a positive ``int`` leading entry p at that row, and the
  rest of its vector (with its combination of columns when tracking), all
  divided by their joint content, so the entries stay small.
- A vector whose entry at a pivot's row is f is reduced by that pivot as
  vec <- (p/g) vec - (f/g) pivot, with g = gcd(p, f), which clears the row
  and is exact; then the content of the vector, taken jointly with its
  combination when tracking, is divided out.
- A column meets only the pivots whose rows it holds, so it keeps a min-heap
  of their pivot numbers: seeded from its own rows, with a number pushed
  whenever a subtraction brings in a pivot's row.  A pivot vector holds no
  row of an earlier pivot (it was reduced against all of them), so a
  subtraction brings in only rows of later pivots, and the heap visits the
  pivots in increasing order: the very subtractions, in the same order, that
  a scan over every earlier pivot would make.
- A column that reduces to zero leaves an integer combination with a nonzero
  coefficient on itself; dividing by that coefficient gives the relation
  above, which is unique, so it is exactly the rational kernel vector.

``Fraction`` arithmetic is used only to scale an input column and to build a
relation; the reduction loop in between is ``int`` arithmetic only.

Every row has a level, and a pivot's row is the first row of the highest
level in its vector, so the vector is zero on every row above its pivot
row's level.  ``rank`` and ``kernel_basis`` give every row level 0, so their
pivot is the vector's first row.  The elimination returns its pivot
profile, per column None if the column depends on earlier ones, else its
pivot row's level.  Rank is the number of pivots, of any prefix of the
columns too; ``pivot_profile`` serves the cohomology cells, which read
several ranks off one profile.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

Column = Dict[Hashable, Fraction]


def _eliminate(
    columns: Sequence[Column],
    track: bool,
    level: Callable[[Hashable], int],
) -> Tuple[List[Optional[int]], List[Dict[int, Fraction]]]:
    """The pivot profile of the columns and, when ``track`` is set, the
    relation {column: coefficient} of each column that depends on earlier
    ones.

    The profile holds, per column, None if it depends on earlier columns,
    else ``level`` of its pivot row, the first row of the highest level in
    its vector."""
    index: Dict[Hashable, int] = {}  # row keys are hashed once, then ints
    row_level: List[int] = []  # level per row int
    profile: List[Optional[int]] = []
    where: Dict[int, int] = {}  # pivot row -> pivot number
    # (pivot row, leading entry p > 0, vector with the row left out,
    # combination of columns it equals)
    pivots: List[Tuple[int, int, Dict[int, int], Optional[Dict[int, int]]]] = []
    relations = []
    for c, col in enumerate(columns):
        vec = {}
        den = 0  # the lcm of the Fraction entries' denominators; 0 if none
        for r, v in col.items():
            if v:
                i = index.get(r)
                if i is None:
                    i = index[r] = len(row_level)
                    row_level.append(level(r))
                vec[i] = v
                if type(v) is not int:
                    den = lcm(den or 1, v.denominator)
        if den:
            vec = {i: v.numerator * (den // v.denominator) for i, v in vec.items()}
        comb = {c: den or 1} if track else None
        heap = [where[r] for r in vec if r in where]
        heapify(heap)
        while heap:
            row, p, pvec, pcomb = pivots[heappop(heap)]
            f = vec.pop(row, None)
            if f is None:  # its row cancelled, or a number pushed twice
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for r in vec:
                    vec[r] *= a
            for r, v in pvec.items():
                old = vec.get(r)
                if old is None:
                    vec[r] = -b * v
                    if r in where:
                        heappush(heap, where[r])
                else:
                    new = old - b * v
                    if new:
                        vec[r] = new
                    else:
                        del vec[r]
            if track:
                if a != 1:
                    for j in comb:
                        comb[j] *= a
                for j, v in pcomb.items():
                    new = comb.get(j, 0) - b * v
                    if new:
                        comb[j] = new
                    else:
                        del comb[j]
            g = gcd(*vec.values(), *comb.values()) if track else gcd(*vec.values())
            if g > 1:
                vec = {r: v // g for r, v in vec.items()}
                if track:
                    comb = {j: v // g for j, v in comb.items()}
        if vec:
            row = max(vec, key=row_level.__getitem__)
            profile.append(row_level[row])
            p = vec.pop(row)
            g = gcd(p, *vec.values(), *comb.values()) if track else gcd(p, *vec.values())
            if p < 0:
                g = -g
            if g != 1:
                p //= g
                vec = {r: v // g for r, v in vec.items()}
                if track:
                    comb = {j: v // g for j, v in comb.items()}
            where[row] = len(pivots)
            pivots.append((row, p, vec, comb))
        else:
            profile.append(None)
            if track:
                d = comb[c]
                relations.append({j: Fraction(v, d) for j, v in comb.items()})
    return profile, relations


def _flat(row: Hashable) -> int:
    return 0


def rank(columns: Sequence[Column]) -> int:
    return len(columns) - _eliminate(columns, False, _flat)[0].count(None)


def pivot_profile(
    columns: Sequence[Column], level: Callable[[Hashable], int]
) -> List[Optional[int]]:
    """Per column, None if it depends on earlier columns, else the level of
    its pivot row, each pivot taken at a row of the highest level in its
    vector.  The first n columns hold as many pivots as their rank, and as
    many pivots of level above s as the rank of their projection onto the
    rows of level above s (proved in the ``cohomology`` module docstring)."""
    return _eliminate(columns, False, level)[0]


def kernel_basis(columns: Sequence[Column]) -> List[Dict[int, Fraction]]:
    """Basis of the right kernel, as sparse {column: coefficient} vectors.

    One vector per column that depends on earlier ones, in column order,
    with 1 on that column and the rest on earlier pivot columns.
    """
    return _eliminate(columns, True, _flat)[1]
