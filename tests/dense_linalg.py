"""Dense reference for chiralg.linalg: the Fraction Gauss-Jordan elimination
the package used before its sparse routine, kept so tests can require the
sparse code to return exactly the same ranks and kernel vectors.  Entries are
converted to Fraction, so int inputs are divided exactly, never in floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Sequence

Column = Dict[Hashable, Fraction]


def _to_dense(columns: Sequence[Column]):
    rows = sorted({r for col in columns for r in col}, key=repr)
    idx = {r: i for i, r in enumerate(rows)}
    dense = [[Fraction(0)] * len(columns) for _ in rows]
    for c, col in enumerate(columns):
        for r, v in col.items():
            dense[idx[r]][c] = Fraction(v)
    return dense


def rank(columns: Sequence[Column]) -> int:
    m = _to_dense(columns)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def kernel_basis(columns: Sequence[Column], n_cols: int = None) -> List[List[Fraction]]:
    """Basis of the right kernel, as coefficient vectors over the columns."""
    if n_cols is None:
        n_cols = len(columns)
    m = _to_dense(columns)
    if not m:
        # zero matrix: whole domain is the kernel
        basis = []
        for c in range(n_cols):
            v = [Fraction(0)] * n_cols
            v[c] = Fraction(1)
            basis.append(v)
        return basis
    n_rows = len(m)
    pivots = []  # (row, col)
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n_cols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for row, c in pivots:
            v[c] = -m[row][free]
        basis.append(v)
    return basis
