"""Named differentials: chiral de Rham, potential twists, Lie-algebra charge.

Charges are defined directly by their normally ordered mode expansions; the
agreement with field reconstruction of the defining vectors is a test, not
the definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .fock import (
    Family,
    FockError,
    Side,
    SpaceSpec,
    State,
    TorusWeights,
)
from .oper import (
    ChargeOperator,
    SymbolicCharge,
    _contract_into,
    _sorted_terms,
    conjugate_creators,
    instantiate_charge,
)


@dataclass(frozen=True)
class Potential:
    """A regular function on affine d-space, as exact monomial data."""

    dim: int
    terms: tuple  # of (Fraction, tuple exponent vector)

    def __post_init__(self):
        seen = set()
        for coeff, exps in self.terms:
            if len(exps) != self.dim:
                raise FockError("exponent vector length != dim")
            if any(e < 0 for e in exps):
                raise FockError("negative exponent in potential")
            if exps in seen:
                raise FockError(f"duplicate exponent vector {exps}")
            seen.add(exps)

    @staticmethod
    def from_terms(dim: int, terms) -> "Potential":
        """Zero terms are dropped once every exponent vector is checked."""
        f = Potential(dim, tuple((Fraction(c), tuple(e)) for c, e in terms))
        return Potential(dim, tuple(t for t in f.terms if t[0]))

    @staticmethod
    def single_variable(degree: int, coeff=1) -> "Potential":
        """f = coeff * z^degree on the affine line."""
        return Potential.from_terms(1, [(coeff, (degree,))])

    def partial(self, j: int):
        """Monomials of df/dx_j as (coefficient, exponent vector) pairs."""
        out = []
        for coeff, exps in self.terms:
            e = exps[j]
            if e:
                lowered = exps[:j] + (e - 1,) + exps[j + 1 :]
                out.append((coeff * e, lowered))
        return out

    def quasi_degree(self, wx: Sequence[int]) -> int:
        """Weighted degree if f is quasi-homogeneous for wx, else error.

        The zero potential has no degree, whatever the weights."""
        if not self.terms:
            raise FockError("the zero potential has no quasi-homogeneous degree")
        degrees = {sum(w * e for w, e in zip(wx, exps)) for _, exps in self.terms}
        if len(degrees) != 1:
            raise FockError(f"potential not quasi-homogeneous for wx={tuple(wx)}")
        return degrees.pop()


def default_torus_weights(f: Potential, wx: Optional[Sequence[int]] = None) -> TorusWeights:
    """The regularizing assignment wphi_j = wx_j - D (so psi_j has D - wx_j).

    D is the quasi-homogeneous degree of f under wx (all 1 by default).
    Makes the potential charge torus-homogeneous of shift 0 on both sides.
    """
    if wx is None:
        wx = (1,) * f.dim
    D = f.quasi_degree(wx)
    return TorusWeights(tuple(wx), tuple(w - D for w in wx))


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants c^k_{ij} of a finite-dimensional Lie algebra.

    Antisymmetry in the lower indices is verified on construction, the
    Jacobi identity by ``check_jacobi``.
    """

    dim: int
    c: tuple  # c[k][i][j] -> Fraction

    def __post_init__(self):
        n = self.dim
        c = self.c
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if c[k][i][j] != -c[k][j][i]:
                        raise FockError(
                            f"antisymmetry fails at c^{k+1}_{{{i+1}{j+1}}}"
                        )

    def check_jacobi(self) -> None:
        """Raise ``FockError`` unless the Jacobi identity holds.

        With c antisymmetric, the Jacobiator is totally antisymmetric in
        (i, j, k) and vanishes when two of them are equal, so i < j < k
        suffices and the first failure found is the lexicographically first.
        """
        n = self.dim
        c = self.c
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(n):
                        s = sum(
                            c[m][i][j] * c[l][m][k]
                            + c[m][j][k] * c[l][m][i]
                            + c[m][k][i] * c[l][m][j]
                            for m in range(n)
                        )
                        if s:
                            raise FockError(
                                f"Jacobi identity fails at (i,j,k,l)="
                                f"({i+1},{j+1},{k+1},{l+1})"
                            )

    @staticmethod
    def from_entries(dim: int, entries, validate: bool = True) -> "StructureConstants":
        """Build from sparse entries (k, i, j, value), indices 1-based, with
        c^k_{ji} = -c^k_{ij}; the Jacobi identity is checked if ``validate``.
        A nonzero diagonal entry c^k_{ii} fails the antisymmetry check, and
        two entries for one k and pair {i, j} are refused."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = {}
        for pos, (k, i, j, val) in enumerate(entries):
            lo, hi = sorted((i, j))
            first = seen.setdefault((k, lo, hi), pos)
            if first != pos:
                raise FockError(f"entries {first} and {pos} both set c^{k}_{{{lo}{hi}}}")
            v = Fraction(val)
            c[k - 1][i - 1][j - 1] = v
            c[k - 1][j - 1][i - 1] = -v
        sc = StructureConstants(dim, tuple(tuple(tuple(row) for row in mat) for mat in c))
        if validate:
            sc.check_jacobi()
        return sc

    @staticmethod
    def sl2() -> "StructureConstants":
        # basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f
        return StructureConstants.from_entries(
            3, [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)]
        )


def chiral_de_rham(dim: int) -> SymbolicCharge:
    """The chiral de Rham differential on the form side of affine d-space."""
    if dim < 1:
        raise FockError("dim must be >= 1")
    patterns = tuple(
        (Fraction(1), ((Family.Y, j), (Family.PHI, j))) for j in range(1, dim + 1)
    )
    return SymbolicCharge(patterns=patterns, side=Side.OMEGA)


def potential_charge(f: Potential, side: Side) -> SymbolicCharge:
    """The twist by the potential: contraction by df on the polyvector side,
    wedging by df on the form side.  The mode expansion is identical on both
    sides; only the creator classification differs."""
    patterns = []
    for j in range(1, f.dim + 1):
        for coeff, exps in f.partial(j - 1):
            letters = []
            for direction in range(1, f.dim + 1):
                letters.extend([(Family.X, direction)] * exps[direction - 1])
            letters.append((Family.PHI, j))
            patterns.append((Fraction(coeff), tuple(letters)))
    return SymbolicCharge(patterns=tuple(patterns), side=side)


def lie_charge(sc: StructureConstants) -> SymbolicCharge:
    """BRST charge of the Lie structure on the polyvector side, d = dim g.

    Weight 0 recovers the Chevalley-Eilenberg differential of the symmetric
    powers of the (co)adjoint module.
    """
    patterns = []
    n = sc.dim
    # The x block must carry the adjoint action e_j . x^i = c^k_{ji} x^k; the
    # other index pairing gives an anti-action and a non-nilpotent square.
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = sc.c[k][j][i]
                if v:
                    patterns.append(
                        (v, ((Family.X, k + 1), (Family.PSI, j + 1), (Family.Y, i + 1)))
                    )
    # The ghost block is -1/2 c^i_{jk} psi_j psi_k phi_i over all (j, k).  The
    # psi letters anticommute and c is antisymmetric in (j, k), so the terms
    # of (j, k) and (k, j) are equal and those of j = k vanish: each pair
    # j < k is emitted once, with coefficient -c^i_{jk}.
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                v = sc.c[i][j][k]
                if v:
                    patterns.append(
                        (-v, ((Family.PSI, j + 1), (Family.PSI, k + 1), (Family.PHI, i + 1)))
                    )
    return SymbolicCharge(patterns=tuple(patterns), side=Side.THETA)


def combine(c1: SymbolicCharge, c2: SymbolicCharge) -> SymbolicCharge:
    """Sum of two charges (e.g. d_dR + df-wedge)."""
    side = c1.side if c1.side == c2.side else None
    return SymbolicCharge(patterns=c1.patterns + c2.patterns, side=side)


@dataclass
class CheckReport:
    passed: bool
    witness: Optional[tuple] = None  # a monomial
    image: Optional[State] = None
    # the first charge's terms at the window, compiled, for reuse
    operator: Optional[ChargeOperator] = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.passed


def _bracket_terms(t1s, t2s, window) -> list:
    """The normally ordered terms of t1s t2s + t2s t1s (records of a
    ``ChargeOperator``'s ``terms``), or of t1s t1s when ``t2s`` is None,
    that can act on weight <= window.

    Every term is odd, so :t1 t2: = -:t2 t1: and :t t: = 0: the uncontracted
    parts of all products cancel, and only contractions can survive.  Those
    are summed by ``_contract_into``, which runs the sub-plans of each left
    record on the creators of each right record.
    """
    acc = {}
    _contract_into(acc, t1s, t1s if t2s is None else t2s, window)
    if t2s is not None:
        _contract_into(acc, t2s, t1s, window)
    return _sorted_terms(acc)


def _check_bracket(c1, c2, space, window) -> CheckReport:
    """Verify c1 c2 + c2 c1, or c1 c1 when ``c2`` is None, vanishes on weight
    <= window, as ``check_nilpotent`` describes."""
    for charge in (c1,) if c2 is None else (c1, c2):
        for _, letters in charge.patterns:
            if sum(1 for fam, _ in letters if fam.fermionic) % 2 == 0:
                raise FockError(
                    "a differential is odd: each pattern needs an odd number "
                    "of fermion letters"
                )
    o1 = ChargeOperator(space, instantiate_charge(c1, space, window))
    o2 = o1 if c2 is None else ChargeOperator(space, instantiate_charge(c2, space, window))
    # each operator's records, scaled to integers by its own scale, scale the
    # sum by the product of the two, so it vanishes exactly when the sum does
    surviving = _bracket_terms(o1.terms, None if c2 is None else o2.terms, window)
    if not surviving:
        return CheckReport(True, operator=o1)
    # a probe built from a minimal surviving annihilator part always works
    probes = sorted((conjugate_creators(space, t.modes) for t in surviving), key=len)
    for mono in probes:
        v = State.of(mono)
        image = o1(o2(v))
        if c2 is not None:
            image = image + o2(o1(v))
        if not image.is_zero():
            return CheckReport(False, witness=mono, image=image, operator=o1)
    # the probe of a surviving term always witnesses it, so a failed check
    # without a witness is a fault of the package, not of the charge
    raise RuntimeError(
        f"Q^2 term {surviving[0].text(space.dim)} survives but no probe witnesses it"
    )


def check_nilpotent(charge: SymbolicCharge, space: SpaceSpec, window: int) -> CheckReport:
    """Verify the charge squares to zero on every state of weight <= window.

    The square is expanded as a sum of normally ordered terms, and every
    term able to act on weight <= window must cancel; this covers all basis
    monomials regardless of any x_0 cap.  By Wick's theorem each product
    t1 t2 of two terms is :t1 t2: plus the normal products its contractions
    leave, and as every term is odd, :t1 t2: = -:t2 t1: and :t t: = 0, so
    the uncontracted parts cancel over all pairs.  Only the contractions are
    therefore summed, and the result is exactly that of the full square.
    They are read off the records of the operator's ``terms``: for
    t1 = c C A and t2 = c2 C2 A2, the full contractions of a part B of A
    against C2 are B acting on the state C2|0>, which a sub-plan of t1
    computes as the operator's own plan does, and the rest L of A moves past
    what is left of C2 with its Koszul sign, so summing over B is Wick's
    sum.  A charge with an even pattern is refused.  The probes are the
    monomials of conjugate creators of the surviving terms, fewest
    annihilators first; a witness is the first probe v with Q(Q(v))
    nonzero, and its image is Q(Q(v)); a surviving term that no probe
    witnesses is a fault of the package and raises ``RuntimeError``.  The
    report's ``operator`` is the charge compiled from the same terms, valid
    on weight <= window.
    """
    return _check_bracket(charge, None, space, window)


def check_anticommute(
    c1: SymbolicCharge, c2: SymbolicCharge, space: SpaceSpec, window: int
) -> CheckReport:
    """Verify the graded commutator of two odd charges vanishes on weight <= window.

    Same expansion as ``check_nilpotent``.
    """
    return _check_bracket(c1, c2, space, window)

