"""Truncated bigraded integer series in q with z-Laurent coefficients.

A series stores rows, one z-Laurent polynomial of integers per power of q up
to ``qmax``.  Every row is exact on all of z unless the series carries a
``zwindow``: the z-range on which a brute-force count made its rows exact.

The closed-form character -z^-d theta(z^d) / theta(z) is computed from
theta(z) = (1 - z) P(z) with P(z) = prod_{n>=1} (1 - q^n z)(1 - q^n / z):

    -z^-d theta(z^d) / theta(z) = -z^-d (1 + z + ... + z^(d-1)) P(z^d) / P(z).

Modulo q^(qmax+1) only the factors with n <= qmax differ from 1.  The head
row is multiplied in place by each factor of P(z^d) and divided in place by
each factor (1 - q^n z^{+-1}) of P(z), a geometric series in q^n, so no z
is truncated.  The identity holds in Z((z))[[q]], where inverses are
unique, so the rows equal the expansion of 1/(1 - z) in nonnegative powers
of z.  ``mul`` and ``invert`` are the general product and q-adic inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class SeriesError(ValueError):
    pass


def _clean_rows(rows):
    out = {}
    for j, row in rows.items():
        r = {}
        for e, v in row.items():
            iv = int(v)
            if iv != v:
                raise SeriesError(f"non-integer coefficient {v} at q^{j} z^{e}")
            if iv:
                r[int(e)] = iv
        if r:
            out[int(j)] = r
    return out


def _add_product(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
    """acc += sign * a * b for z-Laurent polynomials."""
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + sign * v1 * v2


@dataclass
class TruncatedSeries:
    qmax: int
    rows: Dict[int, Dict[int, int]] = field(default_factory=dict)
    zwindow: Optional[Tuple[int, int]] = None  # exact z-range; None: all of z

    def __post_init__(self):
        self.rows = _clean_rows(self.rows)
        for j in self.rows:
            if j < 0 or j > self.qmax:
                raise SeriesError(f"row q^{j} outside truncation order {self.qmax}")

    def _require_exact(self, what: str) -> None:
        if self.zwindow is not None:
            raise SeriesError(f"{what} requires rows exact on all of z")

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_exact("multiplication")
        other._require_exact("multiplication")
        qmax = min(self.qmax, other.qmax)
        rows: Dict[int, Dict[int, int]] = {}
        for j1, r1 in self.rows.items():
            for j2, r2 in other.rows.items():
                if j1 + j2 <= qmax:
                    _add_product(rows.setdefault(j1 + j2, {}), r1, r2)
        return TruncatedSeries(qmax, rows)

    def invert(self) -> "TruncatedSeries":
        """q-adic inverse of a series whose q^0 row is 1:
        b_0 = 1 and b_j = -sum_{i=1..j} a_i b_{j-i}."""
        self._require_exact("inversion")
        if self.rows.get(0) != {0: 1}:
            raise SeriesError("q-adic inversion requires the q^0 row to be 1")
        b = {0: {0: 1}}
        for j in range(1, self.qmax + 1):
            row: Dict[int, int] = {}
            for i in range(1, j + 1):
                _add_product(row, self.rows.get(i, {}), b[j - i], -1)
            b[j] = {e: v for e, v in row.items() if v}
        return TruncatedSeries(self.qmax, b)

    def to_json_dict(self, zwindow: Tuple[int, int]) -> dict:
        lo, hi = zwindow
        if self.zwindow is not None and not (
            self.zwindow[0] <= lo and hi <= self.zwindow[1]
        ):
            raise SeriesError(
                f"requested window {list(zwindow)} outside exact window "
                f"{list(self.zwindow)}"
            )
        rows = {}
        for j in range(self.qmax + 1):
            row = {
                str(e): str(v)
                for e, v in sorted(self.rows.get(j, {}).items())
                if lo <= e <= hi
            }
            rows[str(j)] = row
        return {"qmax": self.qmax, "zwindow": [lo, hi], "rows": rows}


@dataclass
class CompareReport:
    equal: bool
    qmax: int
    zwindow: Tuple[int, int]
    first_mismatch: Optional[tuple] = None  # (q_pow, z_exp, left, right)

    def __bool__(self):
        return self.equal


def compare(
    a: TruncatedSeries,
    b: TruncatedSeries,
    zwindow: Optional[Tuple[int, int]] = None,
    qmax: Optional[int] = None,
) -> CompareReport:
    """Coefficientwise exact comparison on the common exact window, or on
    the stored supports when both series are exact on all of z."""
    qm = min(a.qmax, b.qmax, a.qmax if qmax is None else qmax)
    windows = [w for w in (a.zwindow, b.zwindow, zwindow) if w is not None]
    if windows:
        lo, hi = max(w[0] for w in windows), min(w[1] for w in windows)
    else:
        exps = [e for s in (a, b) for r in s.rows.values() for e in r]
        if not exps:
            return CompareReport(True, qm, (0, 0))
        lo, hi = min(exps), max(exps)
    if lo > hi:
        raise SeriesError("empty intersection of exact windows")
    for j in range(qm + 1):
        for e in range(lo, hi + 1):
            va = a.rows.get(j, {}).get(e, 0)
            vb = b.rows.get(j, {}).get(e, 0)
            if va != vb:
                return CompareReport(False, qm, (lo, hi), (j, e, va, vb))
    return CompareReport(True, qm, (lo, hi))


def _times_factor(rows: Dict[int, Dict[int, int]], qmax: int, n: int, z_exp: int) -> None:
    """rows times (1 - q^n z^z_exp) modulo q^(qmax+1), in place: row j + n
    takes away row j shifted by z^z_exp, highest rows first, so that no row
    is read after it has been added to."""
    for j in range(qmax - n, -1, -1):
        row = rows.get(j)
        if row:
            target = rows.setdefault(j + n, {})
            for e, v in row.items():
                target[e + z_exp] = target.get(e + z_exp, 0) - v


def _over_factor(rows: Dict[int, Dict[int, int]], qmax: int, n: int, z_exp: int) -> None:
    """rows over (1 - q^n z^z_exp) modulo q^(qmax+1), in place: times the
    geometric series sum_k q^(nk) z^(k z_exp), so row j adds row j - n
    shifted by z^z_exp, lowest rows first, each row read after it has taken
    in every earlier term of the series."""
    for j in range(n, qmax + 1):
        row = rows.get(j - n)
        if row:
            target = rows.setdefault(j, {})
            for e, v in row.items():
                target[e + z_exp] = target.get(e + z_exp, 0) + v


def chi_closed_form(d: int, qmax: int) -> TruncatedSeries:
    """The closed-form character -z^{-d} theta_q(z^d) / theta_q(z), exact on
    every row; row q^j lies in z^{-d-jd} .. z^{jd-1}.

    The head row -z^{-d}(1 + ... + z^{d-1}) is multiplied in place, for
    each n <= qmax, by the two factors (1 - q^n z^{+-d}) of P(z^d) and
    divided by the two factors (1 - q^n z^{+-1}) of P(z); factors with
    n > qmax are 1 modulo q^(qmax+1)."""
    if d < 1:
        raise SeriesError("d must be >= 1")
    if qmax < 0:
        raise SeriesError("qmax must be >= 0")
    rows: Dict[int, Dict[int, int]] = {0: {e: -1 for e in range(-d, 0)}}
    for n in range(1, qmax + 1):
        for z_exp in (d, -d):
            _times_factor(rows, qmax, n, z_exp)
        for z_exp in (1, -1):
            _over_factor(rows, qmax, n, z_exp)
    return TruncatedSeries(qmax, rows)
