"""Truncated bigraded integer series in q with z-Laurent coefficients.

A series stores rows, one z-Laurent polynomial of integers per power of q up
to ``qmax``.  Every row is exact on all of z unless the series carries a
``zwindow``: the z-range on which a brute-force count made its rows exact.

The closed-form character -z^-d theta(z^d) / theta(z) is computed from
theta(z) = (1 - z) P(z) with P(z) = prod_{n>=1} (1 - q^n z)(1 - q^n / z):

    -z^-d theta(z^d) / theta(z) = -z^-d (1 + z + ... + z^(d-1)) P(z^d) / P(z).

Modulo q^(qmax+1) every factor on the right is a Laurent polynomial in z,
and the q^0 row of P is 1, so P is inverted q-adically with no z-truncation.
The identity holds in Z((z))[[q]], where inverses are unique, so the rows
equal the expansion of 1/(1 - z) in nonnegative powers of z.
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


def _reduced_theta(qmax: int, step: int) -> TruncatedSeries:
    """P(z^step) = prod_{n>=1} (1 - q^n z^step)(1 - q^n z^-step) modulo
    q^(qmax+1); factors with n > qmax are 1 there."""
    rows: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for n in range(1, qmax + 1):
        for z_exp in (step, -step):
            # times (1 - q^n z^z_exp); highest rows first, so none is read
            # after it has been added to
            for j in sorted(rows, reverse=True):
                if j + n <= qmax:
                    target = rows.setdefault(j + n, {})
                    for e, v in rows[j].items():
                        target[e + z_exp] = target.get(e + z_exp, 0) - v
    return TruncatedSeries(qmax, rows)


def chi_closed_form(d: int, qmax: int) -> TruncatedSeries:
    """The closed-form character -z^{-d} theta_q(z^d) / theta_q(z), exact on
    every row; row q^j lies in z^{-d-jd} .. z^{jd-1}."""
    if d < 1:
        raise SeriesError("d must be >= 1")
    if qmax < 0:
        raise SeriesError("qmax must be >= 0")
    head = TruncatedSeries(qmax, {0: {e: -1 for e in range(-d, 0)}})
    return head.mul(_reduced_theta(qmax, d)).mul(_reduced_theta(qmax, 1).invert())
