"""BRST reduction by a polynomial potential.

Starting from f = x^3 we build the odd charge whose zero mode squares
to zero, verify nilpotency on a window of conformal weights, and read
off cohomology. At weight zero the answer is the Jacobian ring of f;
adding the de Rham differential shifts everything into degree one and
the higher weights cancel, which is the chiral analogue of the finite
dimensionality of vanishing cohomology.

Run from the repository root:

    python3 demos/02_potential_brst.py
"""

from chiralg import (
    Potential,
    Side,
    check_anticommute,
    check_nilpotent,
    chi_van,
    chiral_de_rham,
    cohomology_dims_capped,
    combine,
    make_space,
    potential_charge,
)
from chiralg.oper import instantiate_charge

d = 2
f = Potential.single_variable(d + 1)
theta = make_space(Side.THETA, 1)
omega = make_space(Side.OMEGA, 1)

# ---------------------------------------------------------------------------
# The charge and its square
# ---------------------------------------------------------------------------
q_f = potential_charge(f, Side.THETA)
print("terms of the potential charge for f = x^3 (window: weight 1):")
for term in instantiate_charge(q_f, theta, 1):
    letters = " ".join(m.text() for m in term.modes)
    print(f"    {term.coefficient} * {letters}")

report = check_nilpotent(q_f, theta, 3)
print("charge squares to zero through weight 3?", bool(report))

report = check_anticommute(chiral_de_rham(1), potential_charge(f, Side.OMEGA), omega, 3)
print("anticommutes with the de Rham charge?", bool(report))

# ---------------------------------------------------------------------------
# Weight-zero cohomology: the Jacobian ring
# ---------------------------------------------------------------------------
table = cohomology_dims_capped(q_f, theta, 0, 2 * d)
print()
print("weight-0 cohomology of the bare potential charge:", dict(table.dims))
print("expected: the Jacobian ring k[x]/(x^2), dimension", d)

# ---------------------------------------------------------------------------
# The twisted de Rham complex and the refined character
# ---------------------------------------------------------------------------
total = combine(chiral_de_rham(1), potential_charge(f, Side.OMEGA))
table = cohomology_dims_capped(total, omega, 3, 2 * d)
series = chi_van(table)
print()
print("cohomology of d_dR + df through weight 3:", dict(table.dims))
print("cap-stable at every weight?", all(table.stabilization.values()))
print("graded character rows:", {q: dict(r) for q, r in series.rows.items()})
print("so only weight 0 survives, with Euler number", -d)
