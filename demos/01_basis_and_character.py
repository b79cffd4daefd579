"""A first walk through the free-field state spaces.

We enumerate graded monomial bases, watch the partition-style growth of
the graded dimensions, and then compute the vanishing-cycles character
of a one-variable potential two ways: by brute-force Euler counts over
torus-regularized cohomology blocks, and from the closed theta-quotient
formula. The two truncated series agree coefficient by coefficient.

Run from the repository root:

    python3 demos/01_basis_and_character.py
"""

from chiralg import (
    Potential,
    Side,
    chi_closed_form,
    compare,
    default_torus_weights,
    enumerate_basis,
    euler_series,
    make_space,
    monomial_text,
)

# ---------------------------------------------------------------------------
# Graded bases
# ---------------------------------------------------------------------------
# One bosonic pair (x, y) and one fermionic pair (phi, psi) per direction.
# The "theta" space lets psi_0 create and phi starts at index 1; the
# "omega" space swaps the two fermionic thresholds.

theta = make_space(Side.THETA, 1)
print("monomials of conformal weight 2 (x0 capped at 1):")
for mono in enumerate_basis(theta, 2, x0_cap=1):
    print("   ", monomial_text(mono))

print()
print("graded dimensions with x0 capped at 1:")
for q in range(7):
    dim = sum(1 for _ in enumerate_basis(theta, q, x0_cap=1))
    print(f"    weight {q}: {dim}")

# ---------------------------------------------------------------------------
# The character, twice
# ---------------------------------------------------------------------------
# For f = x^(d+1) the x0 powers are unbounded, so instead of capping we
# slice the space by the torus charge that f defines. Every slice is
# finite and the alternating count assembles into a two-variable series.

omega = make_space(Side.OMEGA, 1)
d = 2
f = Potential.single_variable(d + 1)
weights = default_torus_weights(f)
window = (-6 * d, 6)

brute = euler_series(omega, 4, window, weights)
closed = chi_closed_form(d, 4)

print()
print(f"character of f = x^{d + 1}, rows are powers of q:")
for q in sorted(brute.rows):
    row = brute.rows[q]
    inside = ", ".join(f"z^{e}: {row[e]}" for e in sorted(row))
    print(f"    q^{q}: {{{inside}}}")

report = compare(brute, closed, zwindow=window, qmax=4)
print()
print("matches the theta quotient -z^-d theta(z^d)/theta(z)?", bool(report))
print("checked through q^%d on the z-window %s" % (report.qmax, list(report.zwindow)))
