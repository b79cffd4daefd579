"""Shared helpers for the test suite: mode shorthand, random potentials and
small oracles."""

import random
from fractions import Fraction

from chiralg.charges import Potential
from chiralg.fock import Family, ModeKey, State, normalize
from chiralg.oper import SymbolicCharge


def X(i, d=1):
    return ModeKey(Family.X, d, i)


def Y(i, d=1):
    return ModeKey(Family.Y, d, i)


def PSI(i, d=1):
    return ModeKey(Family.PSI, d, i)


def PHI(i, d=1):
    return ModeKey(Family.PHI, d, i)


def st(space, *modes, coeff=1):
    """State of a raw creator product, normalized."""
    return normalize(space, modes, coeff)


def mono(*modes):
    """Canonically sorted monomial (caller guarantees creator-ness)."""
    return tuple(sorted(modes, key=ModeKey.sort_key))


def weight(mono):
    """The conformal weight of a monomial: the sum of its mode indices."""
    return sum(m.index for m in mono)


def degree(mono):
    """The cohomological degree of a monomial: the sum over its modes."""
    return sum(m.degree for m in mono)


def parity(mono):
    """The parity of a monomial: its number of fermionic modes mod 2."""
    return sum(1 for m in mono if m.fermionic) % 2


def scaled(charge, lam):
    """The charge with every pattern coefficient multiplied by ``lam``."""
    return SymbolicCharge(tuple((lam * c, letters) for c, letters in charge.patterns), charge.side)


def random_potential(rng: random.Random, dim: int, max_degree: int) -> Potential:
    """Random integer potential for property tests; never identically zero."""
    while True:
        terms = []
        seen = set()
        for _ in range(rng.randint(1, 4)):
            total = rng.randint(1, max_degree)
            exps = [0] * dim
            for _ in range(total):
                exps[rng.randrange(dim)] += 1
            exps = tuple(exps)
            if exps in seen:
                continue
            seen.add(exps)
            terms.append((rng.randint(-3, 3), exps))
        terms = [(c, e) for c, e in terms if c]
        if terms:
            return Potential.from_terms(dim, terms)


def partition_gf_coeffs(qmax):
    """Coefficients of prod_{i>=1} (1+q^i)^2 / (1-q^i)^2 up to q^qmax.

    Independent partition counting: expands each factor separately as a
    truncated integer power series.
    """
    series = {0: 1}

    def mul(a, b):
        out = {}
        for i, u in a.items():
            for j, v in b.items():
                if i + j <= qmax:
                    out[i + j] = out.get(i + j, 0) + u * v
        return out

    for i in range(1, qmax + 1):
        plus = {0: 1, i: 1}  # (1 + q^i)
        geom = {j * i: 1 for j in range(qmax // i + 1)}  # 1/(1 - q^i)
        for factor in (plus, plus, geom, geom):
            series = mul(series, factor)
    return [series.get(j, 0) for j in range(qmax + 1)]


def ce_cohomology_dims(c, n_deg, nmax):
    """Chevalley-Eilenberg cohomology H^k(g, S^n g) from the textbook complex.

    Completely independent of the charge machinery: cochains are monomials
    x^alpha psi^S (|alpha| = n, S a subset of 1..n_deg), the differential is
    d = sum_j eps(psi^j) rho(e_j) - 1/2 sum c^i_{jk} eps(psi^j) eps(psi^k)
    iota(psi^i) with rho the adjoint action on symmetric powers.  Returns a
    dict (n, k) -> dim H^k for n <= nmax.
    """
    from itertools import combinations

    def x_monomials(n):
        out = []

        def rec(pos, remaining, acc):
            if pos == n_deg - 1:
                out.append(tuple(acc + [remaining]))
                return
            for e in range(remaining + 1):
                rec(pos + 1, remaining - e, acc + [e])

        rec(0, n, [])
        return out

    def wedge_left(j, S):
        """psi^j wedge psi^S: (sign, new subset) or None."""
        if j in S:
            return None
        before = sum(1 for s in S if s < j)
        return (-1) ** before, tuple(sorted(S + (j,)))

    def contract(i, S):
        """iota(psi^i) on psi^S: (sign, new subset) or None."""
        if i not in S:
            return None
        pos = S.index(i)
        return (-1) ** pos, S[:pos] + S[pos + 1 :]

    def differential(alpha, S):
        out = {}

        def emit(key, val):
            if val:
                out[key] = out.get(key, Fraction(0)) + val

        # rho(e_j) x^i = c^k_{ji} x^k, extended as a derivation
        for j in range(n_deg):
            w = wedge_left(j, S)
            if w is None:
                continue
            sgn, S2 = w
            for i in range(n_deg):
                if alpha[i] == 0:
                    continue
                for k in range(n_deg):
                    v = c[k][j][i]
                    if v:
                        a2 = list(alpha)
                        a2[i] -= 1
                        a2[k] += 1
                        emit((tuple(a2), S2), Fraction(alpha[i]) * v * sgn)
        # -1/2 c^i_{jk} psi^j psi^k iota(psi^i)
        for i in range(n_deg):
            ct = contract(i, S)
            if ct is None:
                continue
            s0, S1 = ct
            for j in range(n_deg):
                w1 = wedge_left(j, S1)
                if w1 is None:
                    continue
                # build psi^j psi^k by wedging k first, then j
                for k in range(n_deg):
                    v = c[i][j][k]
                    if not v:
                        continue
                    wk = wedge_left(k, S1)
                    if wk is None:
                        continue
                    sk, Sk = wk
                    wj = wedge_left(j, Sk)
                    if wj is None:
                        continue
                    sj, Sjk = wj
                    emit((alpha, Sjk), -Fraction(1, 2) * v * sj * sk * s0)
        return out

    from chiralg.linalg import rank

    dims = {}
    for n in range(nmax + 1):
        xs = x_monomials(n)
        bases = {
            k: [(a, S) for a in xs for S in combinations(range(n_deg), k)]
            for k in range(n_deg + 1)
        }
        ranks = {}
        for k in range(n_deg + 1):
            cols = [differential(a, S) for a, S in bases[k]]
            ranks[k] = rank(cols)
        for k in range(n_deg + 1):
            h = len(bases[k]) - ranks[k] - ranks.get(k - 1, 0)
            if h:
                dims[(n, k)] = h
    return dims
