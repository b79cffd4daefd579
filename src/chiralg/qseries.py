"""Truncated bigraded integer series in q with z-Laurent coefficients.

A series stores rows (one z-Laurent polynomial of integers per power of q up
to ``qmax``) together with an explicit exactness record:

    supp_min   -- the true series has no z-exponent below this (None: unknown)
    exact_min  -- stored coefficients are exact from this z-exponent up
                  (None: minus infinity)
    exact_max  -- ... and up to this z-exponent (None: plus infinity)

Arithmetic propagates the record pessimistically, so every reported
coefficient is provably exact; truncation is never silent.  Inversion expands
1/(1 - z) as the nonnegative-power geometric series, the convention under
which the q -> 0 row of the character matches the brute-force count.
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


@dataclass
class TruncatedSeries:
    qmax: int
    rows: Dict[int, Dict[int, int]] = field(default_factory=dict)
    supp_min: Optional[int] = None
    exact_min: Optional[int] = None  # None = -infinity
    exact_max: Optional[int] = None  # None = +infinity

    def __post_init__(self):
        self.rows = _clean_rows(self.rows)
        for j in self.rows:
            if j < 0 or j > self.qmax:
                raise SeriesError(f"row q^{j} outside truncation order {self.qmax}")

    # -- exactness bookkeeping -------------------------------------------------

    def is_valid_at(self, z_exp: int) -> bool:
        if self.supp_min is not None and z_exp < self.supp_min:
            return True  # known zero
        if self.exact_min is not None and z_exp < self.exact_min:
            return False
        if self.exact_max is not None and z_exp > self.exact_max:
            return False
        return True

    def coeff(self, q_pow: int, z_exp: int) -> int:
        if q_pow > self.qmax:
            raise SeriesError(f"q^{q_pow} beyond truncation order {self.qmax}")
        if not self.is_valid_at(z_exp):
            raise SeriesError(f"z^{z_exp} outside validity window")
        return self.rows.get(q_pow, {}).get(z_exp, 0)

    @property
    def fully_exact(self) -> bool:
        return self.exact_min is None and self.exact_max is None

    # -- arithmetic ------------------------------------------------------------

    def shift(self, z_shift: int = 0, q_shift: int = 0, coeff: int = 1) -> "TruncatedSeries":
        rows = {}
        for j, r in self.rows.items():
            if j + q_shift > self.qmax or j + q_shift < 0:
                continue
            rows[j + q_shift] = {e + z_shift: coeff * v for e, v in r.items()}
        return TruncatedSeries(
            self.qmax,
            rows,
            None if self.supp_min is None else self.supp_min + z_shift,
            None if self.exact_min is None else self.exact_min + z_shift,
            None if self.exact_max is None else self.exact_max + z_shift,
        )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.exact_min is not None or other.exact_min is not None:
            raise SeriesError("multiplication requires series exact below their window")
        if self.supp_min is None or other.supp_min is None:
            raise SeriesError("multiplication requires known support lower bounds")
        qmax = min(self.qmax, other.qmax)
        emax = _min_none_pos(
            _add_none_pos(self.exact_max, other.supp_min),
            _add_none_pos(other.exact_max, self.supp_min),
        )
        rows = {}
        for j1, r1 in self.rows.items():
            for j2, r2 in other.rows.items():
                j = j1 + j2
                if j > qmax:
                    continue
                row = rows.setdefault(j, {})
                for e1, v1 in r1.items():
                    for e2, v2 in r2.items():
                        e = e1 + e2
                        if emax is not None and e > emax:
                            continue
                        row[e] = row.get(e, 0) + v1 * v2
        return TruncatedSeries(qmax, rows, self.supp_min + other.supp_min, None, emax)

    def substitute_z(self, k: int) -> "TruncatedSeries":
        """z -> z^k.  Negative k only for series exact on all of z."""
        if k == 0:
            raise SeriesError("substitution exponent must be nonzero")
        if k < 0 and not self.fully_exact:
            raise SeriesError("z -> z^k with k < 0 requires a fully exact series")
        rows = {j: {e * k: v for e, v in r.items()} for j, r in self.rows.items()}
        if k > 0:
            supp = None if self.supp_min is None else self.supp_min * k
            emin = None if self.exact_min is None else self.exact_min * k
            emax = None if self.exact_max is None else self.exact_max * k + (k - 1)
            return TruncatedSeries(self.qmax, rows, supp, emin, emax)
        supp = min((min(r) for r in rows.values() if r), default=0)
        return TruncatedSeries(self.qmax, rows, supp, None, None)

    def invert(self, zmax: int) -> "TruncatedSeries":
        """Multiplicative inverse, exact for z-exponents up to ``zmax``.

        Requires a fully exact series whose q^0 row has a unit leading
        coefficient: +-z^s (1 - z u(z)).
        """
        if not self.fully_exact:
            raise SeriesError("inversion requires a fully exact series")
        a0 = self.rows.get(0)
        if not a0:
            raise SeriesError("q^0 row is zero; not invertible")
        s = min(a0)
        lead = a0[s]
        if lead not in (1, -1):
            raise SeriesError(f"leading coefficient {lead} z^{s} is not a unit over Z")
        # row-wise support minima of the input
        a_supp = {j: min(r) for j, r in self.rows.items() if r}
        pull = max((max(0, s - m) for j, m in a_supp.items() if j >= 1), default=0)
        work = {j: zmax + (self.qmax - j) * pull for j in range(self.qmax + 1)}

        # q^0 inverse: lead^-1 z^-s sum_m r(z)^m with r = 1 - a0 / (lead z^s)
        r_poly = {}
        for e, v in a0.items():
            if e != s:
                r_poly[e - s] = -v * lead
        cap0 = work[0] + s
        acc = {0: 1}
        total = {0: 1}
        while acc:
            nxt = {}
            for e1, v1 in acc.items():
                for e2, v2 in r_poly.items():
                    e = e1 + e2
                    if e > cap0:
                        continue
                    nxt[e] = nxt.get(e, 0) + v1 * v2
            nxt = {e: v for e, v in nxt.items() if v}
            for e, v in nxt.items():
                total[e] = total.get(e, 0) + v
            acc = nxt
        b_rows = {0: {e - s: v * lead for e, v in total.items()}}
        b_supp = {0: -s}
        for j in range(1, self.qmax + 1):
            cap = work[j]
            conv = {}
            for i in range(1, j + 1):
                ai = self.rows.get(i)
                if not ai:
                    continue
                bji = b_rows.get(j - i, {})
                for e1, v1 in ai.items():
                    for e2, v2 in bji.items():
                        e = e1 + e2
                        conv[e] = conv.get(e, 0) + v1 * v2
            row = {}
            b0 = b_rows[0]
            for e1, v1 in conv.items():
                for e2, v2 in b0.items():
                    e = e1 + e2
                    if e > cap:
                        continue
                    row[e] = row.get(e, 0) - v1 * v2
            b_rows[j] = {e: v for e, v in row.items() if v}
            cands = [
                a_supp[i] - s + b_supp.get(j - i, 0)
                for i in range(1, j + 1)
                if i in a_supp and (j - i) in b_rows
            ]
            b_supp[j] = min(cands, default=0) - 0 if cands else 0
        supp_global = min(b_supp.values())
        clipped = {j: {e: v for e, v in r.items() if e <= zmax} for j, r in b_rows.items()}
        return TruncatedSeries(self.qmax, clipped, supp_global, None, zmax)

    # -- reporting -------------------------------------------------------------

    def clip(self, qmax: Optional[int] = None, zwindow: Optional[Tuple[int, int]] = None):
        qm = self.qmax if qmax is None else min(qmax, self.qmax)
        lo, hi = zwindow if zwindow is not None else (None, None)
        rows = {}
        for j, r in self.rows.items():
            if j > qm:
                continue
            rows[j] = {
                e: v
                for e, v in r.items()
                if (lo is None or e >= lo) and (hi is None or e <= hi)
            }
        supp = self.supp_min if lo is None else max(self.supp_min or lo, lo)
        emin = self.exact_min if lo is None else _max_none_neg(self.exact_min, lo)
        emax = self.exact_max if hi is None else _min_none_pos(self.exact_max, hi)
        if lo is not None:
            supp = None  # clipping may discard true support information
            emin = lo
        return TruncatedSeries(qm, rows, supp, emin, emax)

    def to_json_dict(self, zwindow: Tuple[int, int]) -> dict:
        lo, hi = zwindow
        for e in (lo, hi):
            if not self.is_valid_at(e):
                raise SeriesError(f"requested window edge z^{e} outside validity")
        rows = {}
        for j in range(self.qmax + 1):
            row = {
                str(e): str(v)
                for e, v in sorted(self.rows.get(j, {}).items())
                if lo <= e <= hi
            }
            rows[str(j)] = row
        return {"qmax": self.qmax, "zwindow": [lo, hi], "rows": rows}


def _min_none_pos(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _max_none_neg(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _add_none_pos(a: Optional[int], b: int) -> Optional[int]:
    return None if a is None else a + b


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
    """Coefficientwise exact comparison on the common validity window."""
    qm = min(a.qmax, b.qmax, a.qmax if qmax is None else qmax)
    lo = _max_none_neg(a.exact_min, b.exact_min)
    hi = _min_none_pos(a.exact_max, b.exact_max)
    if zwindow is not None:
        lo = zwindow[0] if lo is None else max(lo, zwindow[0])
        hi = zwindow[1] if hi is None else min(hi, zwindow[1])
    if lo is None or hi is None:
        # fall back to the union of stored supports
        exps = [e for s in (a, b) for r in s.rows.values() for e in r]
        if not exps:
            return CompareReport(True, qm, (0, 0))
        lo = min(exps) if lo is None else lo
        hi = max(exps) if hi is None else hi
    if lo > hi:
        raise SeriesError("empty intersection of validity windows")
    for j in range(qm + 1):
        for e in range(lo, hi + 1):
            va = a.rows.get(j, {}).get(e, 0)
            vb = b.rows.get(j, {}).get(e, 0)
            if va != vb:
                return CompareReport(False, qm, (lo, hi), (j, e, va, vb))
    return CompareReport(True, qm, (lo, hi))


def theta(qmax: int, zwindow: Optional[Tuple[int, int]] = None) -> TruncatedSeries:
    """Truncated theta product prod_{n>=0} (1 - q^n z)(1 - q^{n+1} z^{-1}).

    Factors with n > qmax are 1 + O(q^{qmax+1}), so the finite sub-product is
    exact to order q^qmax with complete z-support per row.
    """
    if qmax < 0:
        raise SeriesError("qmax must be >= 0")
    rows = {0: {0: 1}}

    def mul_factor(rows, q_pow, z_exp):
        # multiply by (1 - q^q_pow z^z_exp), truncating at qmax
        out = {j: dict(r) for j, r in rows.items()}
        for j, r in rows.items():
            if j + q_pow > qmax:
                continue
            tgt = out.setdefault(j + q_pow, {})
            for e, v in r.items():
                tgt[e + z_exp] = tgt.get(e + z_exp, 0) - v
        return {j: {e: v for e, v in r.items() if v} for j, r in out.items()}

    for n in range(qmax + 1):
        rows = mul_factor(rows, n, 1)
        rows = mul_factor(rows, n + 1, -1)
    supp = min((min(r) for r in rows.values() if r), default=0)
    out = TruncatedSeries(qmax, rows, supp, None, None)
    if zwindow is not None:
        out = out.clip(zwindow=zwindow)
    return out


def chi_closed_form(d: int, qmax: int, zwindow: Tuple[int, int]) -> TruncatedSeries:
    """The closed-form character -z^{-d} theta_q(z^d) / theta_q(z)."""
    if d < 1:
        raise SeriesError("d must be >= 1")
    th = theta(qmax)
    # enough head-room for the negative-z tails pulled in by the products
    inv = th.invert(zwindow[1] + d + d * qmax + 2)
    prod = th.substitute_z(d).mul(inv)
    out = prod.shift(z_shift=-d, coeff=-1)
    if out.exact_max is not None and out.exact_max < zwindow[1]:
        raise SeriesError("internal truncation too small for requested window")
    return out.clip(zwindow=zwindow)
