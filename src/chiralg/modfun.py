"""Zero-mode modules, induction to vertex modules, singular vectors.

A ZeroModeModule is a finite, degree-capped approximation of a module over
the zero-mode algebra on the odd cotangent bundle of the affine line
(generators x0, y0, phi0, psi0 with [y0, x0] = 1 and {psi0, phi0} = 1).
Induction adjoins free positive modes of all four families: the induced
module is (free positive part) x (zero-mode module).  A mode of nonzero
index acts on the positive factor by one Wick step of the action on Fock
spaces (``oper._act``: a creator is merged in, an annihilator removes one
conjugate letter), so it sends each positive monomial to one monomial or to
zero, and never touches the zero-mode factor; zero modes act on the
zero-mode factor with the Koszul sign of the positive modes they pass.
Only d = 1 is implemented; products of lines reduce to it.

Entries are ``int`` wherever they are integers: the built-in modules, the
images of modes of nonzero index (a multiplicity or a sign) and the
accumulators are all integral, so a product is ``int`` arithmetic.  A
``Fraction`` enters only where something divides: a kernel vector of
``linalg.kernel_basis`` that is not integral, or a module entry that is not
an integer.  The epsilon check builds the column of each positive monomial
from the column of its tail, one mode application each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .fock import Family, ModeKey, Side, enumerate_basis, make_space
from .linalg import kernel_basis, rank
from .oper import _act

Vector = Dict[int, int | Fraction]  # basis index -> exact coefficient


class ModuleError(ValueError):
    pass


ZERO_MODE_NAMES = ("x0", "y0", "phi0", "psi0")


@dataclass
class ZeroModeModule:
    """Finite graded basis with zero-mode action matrices.

    ``actions[name]`` maps a basis index to a sparse column.  Relations are
    verified truncation-aware: only on basis vectors whose images provably
    stay below the degree cap.
    """

    labels: tuple
    degrees: tuple
    parities: tuple
    cap: int
    actions: Dict[str, List[Vector]]

    def __post_init__(self):
        if self.cap < 0:
            raise ModuleError(f"degree cap must be >= 0, got {self.cap}")
        # an empty module would pass every check vacuously
        if not self.labels:
            raise ModuleError("a zero-mode module needs at least one basis vector")
        n = len(self.labels)
        if not (len(self.degrees) == len(self.parities) == n):
            raise ModuleError("label/degree/parity lengths differ")
        for name in ZERO_MODE_NAMES:
            if name not in self.actions or len(self.actions[name]) != n:
                raise ModuleError(f"missing or misshaped action matrix for {name}")
        self._check_relations()

    @property
    def dim(self) -> int:
        return len(self.labels)

    def apply(self, name: str, vec: Vector) -> Vector:
        mat = self.actions[name]
        out: Vector = {}
        for i, c in vec.items():
            for r, v in mat[i].items():
                out[r] = out.get(r, 0) + c * v
        return {r: v for r, v in out.items() if v}

    def _check_relations(self):
        def commutator(a, b, i, sign):
            # a(b(e_i)) + sign * b(a(e_i))
            va = self.apply(a, self.apply(b, {i: 1}))
            vb = self.apply(b, self.apply(a, {i: 1}))
            out = dict(va)
            for r, v in vb.items():
                out[r] = out.get(r, 0) + sign * v
            return {r: v for r, v in out.items() if v}

        unit = lambda i: {i: 1}
        for i in range(self.dim):
            # [y0, x0] = 1, checked where x0's image stays under the cap
            if self.degrees[i] < self.cap:
                if commutator("y0", "x0", i, -1) != unit(i):
                    raise ModuleError(
                        f"[y0, x0] != 1 on basis vector {self.labels[i]}"
                    )
            # {psi0, phi0} = 1; fermion directions do not escape the cap
            if commutator("psi0", "phi0", i, +1) != unit(i):
                raise ModuleError(
                    f"{{psi0, phi0}} != 1 on basis vector {self.labels[i]}"
                )
            for name, odd in (("x0", 0), ("y0", 0), ("phi0", 1), ("psi0", 1)):
                img = self.apply(name, unit(i))
                for r in img:
                    if (self.parities[r] - self.parities[i] - odd) % 2:
                        raise ModuleError(
                            f"{name} breaks parity on {self.labels[i]}"
                        )


def _line_zero_modes(
    cap: int, raising: str, lowering: str, sign: int, suffix: str = ""
) -> ZeroModeModule:
    """C[u] psi0^eps with u-degree <= cap, where the zero mode ``raising``
    multiplies by u and ``lowering`` acts as sign * d/du."""
    labels, degrees, parities = [], [], []
    index = {}
    for k in range(cap + 1):
        for eps in (0, 1):
            index[(k, eps)] = len(labels)
            labels.append(f"{raising}^{k}" + (" psi0" if eps else "") + suffix)
            degrees.append(k)
            parities.append(eps)
    actions = {name: [dict() for _ in labels] for name in ZERO_MODE_NAMES}
    for (k, eps), i in index.items():
        if k + 1 <= cap:
            actions[raising][i] = {index[(k + 1, eps)]: 1}
        if k >= 1:
            actions[lowering][i] = {index[(k - 1, eps)]: sign * k}
        if eps == 0:
            actions["psi0"][i] = {index[(k, 1)]: 1}
        else:
            actions["phi0"][i] = {index[(k, 0)]: 1}
    return ZeroModeModule(tuple(labels), tuple(degrees), tuple(parities), cap, actions)


def polynomial_zero_modes(cap: int) -> ZeroModeModule:
    """C[x0, psi0] with x-degree <= cap: the vacuum zero-mode data."""
    return _line_zero_modes(cap, "x0", "y0", 1)


def delta_zero_modes(cap: int) -> ZeroModeModule:
    """The delta module C[y0] psi0^eps delta with x0 delta = 0, y-degree <= cap."""
    return _line_zero_modes(cap, "y0", "x0", -1, " delta")


# The positive factor lives on the line.  A mode of nonzero index creates
# exactly when its index is positive on either side, so the side chosen here
# does not change the action of those modes.
_LINE = make_space(Side.THETA, 1)


class InducedTruncation:
    """Weight-capped induction of a ZeroModeModule to a vertex module.

    ``positive[q]`` is the free positive part of weight q, canonically
    ordered; basis vector ``p * base.dim + b`` of weight q is its p-th
    monomial times the b-th basis vector of the base.
    """

    def __init__(self, base: ZeroModeModule, weight_cap: int):
        self.base = base
        self.weight_cap = weight_cap
        self.positive: Dict[int, list] = {
            q: enumerate_basis(_LINE, q, x0_cap=0, zero_fermion_allowed=False)
            for q in range(weight_cap + 1)
        }
        # weight -> {positive monomial: its position in positive[weight]}
        self._slots = {
            q: {m: p for p, m in enumerate(monos)} for q, monos in self.positive.items()
        }
        # (mode, weight) -> per positive monomial, its image as (slot, coeff),
        # or None where the mode kills it
        self._images: Dict[Tuple[ModeKey, int], list] = {}

    def dim(self, weight: int) -> int:
        return len(self.positive.get(weight, [])) * self.base.dim

    def _positive_images(self, mode: ModeKey, weight: int) -> list:
        key = (mode, weight)
        if key not in self._images:
            _LINE.check_direction(mode)
            slots = self._slots[weight + mode.index]
            images = (_act(_LINE, mode, mono) for mono in self.positive[weight])
            self._images[key] = [
                None if image is None else (slots[image[1]], image[0]) for image in images
            ]
        return self._images[key]

    def apply_mode(self, mode: ModeKey, weight: int, vec: Vector) -> Tuple[int, Vector]:
        """Apply one mode to a vector in the weight-q piece.

        Returns (new_weight, vector).  Raises if the image escapes the cap.
        """
        new_weight = weight + mode.index
        if new_weight < 0:
            return new_weight, {}
        if new_weight > self.weight_cap:
            raise ModuleError(
                f"cap {self.weight_cap} too small for mode of index {mode.index}"
            )
        n = self.base.dim
        out: Vector = {}
        if mode.index:
            images = self._positive_images(mode, weight)
            for i, c in vec.items():
                p, b = divmod(i, n)
                image = images[p]
                if image is not None:
                    j = image[0] * n + b
                    out[j] = out.get(j, 0) + c * image[1]
        else:
            # an odd zero mode passes the positive factor to reach the base
            mat = self.base.actions[f"{mode.family.value}0"]
            for i, c in vec.items():
                p, b = divmod(i, n)
                odd = sum(m.fermionic for m in self.positive[weight][p]) & 1
                sign = -1 if mode.fermionic and odd else 1
                for r, v in mat[b].items():
                    j = p * n + r
                    out[j] = out.get(j, 0) + c * sign * v
        return new_weight, {j: v for j, v in out.items() if v}


def singular_vectors(module: InducedTruncation, weight: int) -> List[Vector]:
    """Exact basis of the joint kernel of all negative modes at fixed weight.

    Modes of index < -weight automatically kill the whole piece, so indices
    -1..-weight suffice.  Requires head-room: weight <= cap.  Negative modes
    act on the positive factor only, so the kernel is ker A (x) base, with A
    the action on the positive monomials: it is taken once and each kernel
    vector is lifted to every base vector, in the order and with the keys
    that eliminating the whole block-diagonal matrix gives.
    """
    if weight > module.weight_cap:
        raise ModuleError(
            f"insufficient head-room: weight {weight} > cap {module.weight_cap}"
        )
    columns = [dict() for _ in module.positive.get(weight, [])]
    for idx in range(1, weight + 1):
        for fam in (Family.X, Family.Y, Family.PHI, Family.PSI):
            images = module._positive_images(ModeKey(fam, 1, -idx), weight)
            for col, image in zip(columns, images):
                if image is not None:
                    col[(fam, idx, image[0])] = image[1]
    n = module.base.dim
    return [
        {p * n + b: c for p, c in vec.items()}
        for vec in kernel_basis(columns)
        for b in range(n)
    ]


@dataclass
class EpsilonReport:
    passed: bool
    details: dict

    def __bool__(self):
        return self.passed


def check_epsilon(base: ZeroModeModule, weight_cap: int) -> EpsilonReport:
    """Truncated check that induction from the singular vectors recovers M.

    For M induced from N: the weight-0 singular vectors must span exactly N,
    there must be none in weights 1..cap, and the multiplication map from
    (free positive monomials) x (singular vectors) to M must be bijective
    weight by weight.  The column of a positive monomial on a singular
    vector is its modes applied right to left, so it is the monomial's first
    mode applied to the column of the rest, which has lower weight: the
    columns are built weight by weight, each from its tail's.
    """
    module = InducedTruncation(base, weight_cap)
    details = {"weights": {}}
    ok = True
    sing0 = singular_vectors(module, 0)
    d0 = len(sing0)
    details["singular_dim_0"] = d0
    if d0 != base.dim:
        ok = False
    for q in range(1, weight_cap + 1):
        dq = len(singular_vectors(module, q))
        details["weights"][q] = {"singular_dim": dq}
        if dq != 0:
            ok = False
    # epsilon: positive monomials applied to weight-0 singular vectors, kept
    # per monomial as (weight, column) per singular vector, integral entries
    # of the kernel vectors as int
    columns: Dict[tuple, List[Tuple[int, Vector]]] = {
        (): [
            (0, {j: v.numerator if v.denominator == 1 else v for j, v in vec.items()})
            for vec in sing0
        ]
    }
    for q in range(weight_cap + 1):
        cols = []
        for pos in module.positive[q]:
            if pos:
                columns[pos] = [
                    module.apply_mode(pos[0], w, cur) for w, cur in columns[pos[1:]]
                ]
            cols.extend(cur for _, cur in columns[pos])
        r = rank(cols)
        full = module.dim(q)
        info = details["weights"].setdefault(q, {})
        info["epsilon_rank"] = r
        info["module_dim"] = full
        info["epsilon_cols"] = len(cols)
        if not (r == full == len(cols)):
            ok = False
    return EpsilonReport(ok, details)
