"""The Lie-algebra charge and its weight-zero cohomology.

A structure-constant tensor turns into an odd charge on the three-pair
state space. For sl2 we check nilpotency (equivalent to antisymmetry
plus Jacobi) and slice the weight-zero cohomology by polynomial degree.
The table that falls out is classical Lie algebra cohomology with
coefficients in polynomials on the algebra, recovering the invariants
in degrees 0 and 3 of each symmetric power.

Run from the repository root:

    python3 demos/03_lie_algebra_charge.py
"""

from chiralg import (
    Side,
    StructureConstants,
    TorusWeights,
    check_nilpotent,
    lie_charge,
    make_space,
    monomial_text,
)
from chiralg.cohomology import cohomology_dims_torus

sl2 = StructureConstants.sl2()
print("sl2 structure constants c^k_ij:")
for i in range(1, 4):
    for j in range(i + 1, 4):
        for k in range(1, 4):
            value = sl2.c[k - 1][i - 1][j - 1]
            if value:
                print(f"    [e_{i}, e_{j}] -> {value} * e_{k}")

charge = lie_charge(sl2)
space = make_space(Side.THETA, 3)

report = check_nilpotent(charge, space, 3)
print()
print("charge squares to zero through weight 3?", bool(report))

# Grade the weight-zero slice by total x-degree. Each slice is a finite
# chunk of the Chevalley-Eilenberg complex of sl2 with coefficients in
# the corresponding symmetric power of the adjoint representation.
table = cohomology_dims_torus(charge, space, 0, TorusWeights.x_count(3), (0, 3))
print()
print("weight-0 cohomology by (x-degree, psi-count):")
for key in sorted(table.metadata["per_bigrade"]):
    q, k, t = (int(s) for s in key.split(","))
    dim = table.metadata["per_bigrade"][key]
    print(f"    S^{t}(g) in degree {-k}: dim {dim}")

# A Jacobi violation is caught by the same machinery: the squared
# charge no longer cancels and the check hands back a witness state.
broken = StructureConstants.from_entries(
    3,
    [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -1)],
    validate=False,
)
report = check_nilpotent(lie_charge(broken), space, 1)
print()
print("perturbed tensor still nilpotent?", bool(report))
print("witness state:", monomial_text(report.witness))
print("its image under the squared charge:", report.image.text())
