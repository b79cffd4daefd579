"""Acceptance gate: one verdict line per criterion, all exact arithmetic.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so the full verdict table is visible in the test log.
"""

import random

from chiralg.charges import (
    Potential,
    StructureConstants,
    check_anticommute,
    check_nilpotent,
    chiral_de_rham,
    combine,
    default_torus_weights,
    lie_charge,
    potential_charge,
)
from chiralg.cohomology import (
    chi_van,
    cohomology_dims_capped,
    cohomology_dims_torus,
    euler_series,
)
from chiralg.field import residue_charge
from chiralg.fock import (
    Family,
    ModeKey,
    Side,
    State,
    TorusWeights,
    enumerate_basis,
    make_space,
    normalize,
)
from chiralg.modfun import (
    InducedTruncation,
    check_epsilon,
    delta_zero_modes,
    polynomial_zero_modes,
    singular_vectors,
)
from chiralg.oper import charge_operator
from chiralg.qseries import chi_closed_form, compare
from conftest import ce_cohomology_dims, random_potential
from mode_oracle import enumerate_torus_window

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)
THETA3 = make_space(Side.THETA, 3)

QMAX = 6


def verdict(num, name, ok):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _brute_character(d, qmax, window):
    f = Potential.single_variable(d + 1)
    tw = default_torus_weights(f)
    return euler_series(OMEGA1, qmax, window, tw)


def test_criterion_01_theta_quotient_character():
    ok = True
    for d in (1, 2, 3):
        window = (-6 * d, 6)
        brute = _brute_character(d, QMAX, window)
        closed = chi_closed_form(d, QMAX)
        ok = ok and bool(compare(brute, closed, zwindow=window, qmax=QMAX))
    verdict(1, "brute-force character equals theta quotient (d=1,2,3)", ok)


def test_criterion_02_q0_limit():
    ok = True
    for d in (1, 2, 3):
        brute = _brute_character(d, 0, (-2 * d, 2))
        ok = ok and brute.rows.get(0) == {e: -1 for e in range(-d, 0)}
    verdict(2, "q^0 row is -z^{-d}(1 + z + ... + z^{d-1})", ok)


def test_criterion_03_morse_collapse():
    brute = _brute_character(1, QMAX, (-8, 6))
    closed = chi_closed_form(1, QMAX)
    ok = brute.rows == {0: {-1: -1}} and closed.rows == {0: {-1: -1}}
    verdict(3, "d=1 character is -1/z with zero q-corrections", ok)


def test_criterion_04_jacobian_ring():
    ok = True
    for d in range(1, 6):
        charge = potential_charge(Potential.single_variable(d + 1), Side.THETA)
        table = cohomology_dims_capped(charge, THETA1, 0, 2 * d)
        ok = ok and table.dims == {(0, 0): d} and table.stabilization[0]
    verdict(4, "weight-0 Jacobian ring has dimension d in degree 0 (d<=5)", ok)


def test_criterion_05_twisted_de_rham():
    ok = True
    for d in (1, 2, 3):
        charge = combine(
            chiral_de_rham(1),
            potential_charge(Potential.single_variable(d + 1), Side.OMEGA),
        )
        table = cohomology_dims_capped(charge, OMEGA1, 0, 2 * d)
        ok = (
            ok
            and table.dims == {(0, 1): d}
            and table.euler(0) == -d
            and table.stabilization[0]
        )
    verdict(5, "weight-0 twisted de Rham: dimension d in degree 1, Euler -d", ok)


def test_criterion_06_nilpotency_and_compatibility():
    rng = random.Random(7)
    ok = True
    for d in (1, 2, 3):
        f = random_potential(rng, d, 4)
        space = make_space(Side.THETA, d)
        ok = ok and bool(check_nilpotent(potential_charge(f, Side.THETA), space, 4))
        omega = make_space(Side.OMEGA, d)
        ok = ok and bool(
            check_anticommute(
                chiral_de_rham(d), potential_charge(f, Side.OMEGA), omega, 3
            )
        )
    verdict(6, "random potential charges nilpotent and de Rham compatible", ok)


def test_criterion_07_chiral_de_rham_acyclicity():
    table = cohomology_dims_capped(chiral_de_rham(1), OMEGA1, 4, 2)
    ok = table.dims == {(0, 0): 1} and all(table.stabilization.values())
    verdict(7, "chiral de Rham cohomology: 1 at weight 0, zero in weights 1..4", ok)


def test_criterion_08_reconstruction_agreement():
    cases = []
    for d in (1, 2):
        space = make_space(Side.OMEGA, d)
        vec = State.zero()
        for j in range(1, d + 1):
            vec = vec + normalize(
                space, (ModeKey(Family.Y, j, 1), ModeKey(Family.PHI, j, 0))
            )
        cases.append((space, vec, chiral_de_rham(d)))
    theta_cases = [
        (THETA1, Potential.single_variable(2)),
        (make_space(Side.THETA, 2), Potential.from_terms(2, [(1, (1, 1))])),
    ]
    for space, f in theta_cases:
        vec = State.zero()
        for j in range(1, space.dim + 1):
            for coeff, exps in f.partial(j - 1):
                modes = [ModeKey(Family.PHI, j, 1)]
                for direction in range(1, space.dim + 1):
                    modes += [ModeKey(Family.X, direction, 0)] * exps[direction - 1]
                vec = vec + normalize(space, modes, coeff)
        cases.append((space, vec, potential_charge(f, Side.THETA)))

    mismatches = 0
    for space, vec, charge in cases:
        brst = residue_charge(space, vec, 3)
        op = charge_operator(charge, space, 3)
        for q in range(4):
            for mono in enumerate_basis(space, q, x0_cap=2):
                v = State.of(mono)
                if brst(v) != op(v):
                    mismatches += 1
    verdict(8, "residue charges reproduce the explicit differentials", mismatches == 0)


def test_criterion_09_lie_algebra_instance():
    charge = lie_charge(StructureConstants.sl2())
    nilpotent = bool(check_nilpotent(charge, THETA3, 3))
    table = cohomology_dims_torus(charge, THETA3, 0, TorusWeights.x_count(3), (0, 3))
    computed = {}
    for key, dim in table.metadata["per_bigrade"].items():
        q, k, t = (int(s) for s in key.split(","))
        assert q == 0
        computed[(t, -k)] = dim  # psi-count n has cohomological degree -n
    oracle = ce_cohomology_dims(StructureConstants.sl2().c, 3, 3)
    verdict(
        9,
        "sl2 charge nilpotent; weight 0 matches Chevalley-Eilenberg oracle",
        nilpotent and computed == oracle,
    )


def test_criterion_10_singular_vector_functor():
    ok = True
    vac = InducedTruncation(polynomial_zero_modes(2), 4)
    ok = ok and [len(singular_vectors(vac, q)) for q in range(5)] == [6, 0, 0, 0, 0]
    delta = InducedTruncation(delta_zero_modes(3), 4)
    ok = ok and [len(singular_vectors(delta, q)) for q in range(5)] == [8, 0, 0, 0, 0]
    ok = ok and bool(check_epsilon(polynomial_zero_modes(2), 3))
    ok = ok and bool(check_epsilon(delta_zero_modes(3), 2))
    verdict(10, "singular vectors recover the base; epsilon check passes", ok)


def test_criterion_11_euler_poincare():
    ok = True
    fixtures = [
        (
            potential_charge(Potential.single_variable(3), Side.THETA),
            THETA1,
            default_torus_weights(Potential.single_variable(3)),
            (-2, 2),
            3,
        ),
        (
            lie_charge(StructureConstants.sl2()),
            THETA3,
            TorusWeights.x_count(3),
            (0, 3),
            1,
        ),
    ]
    for charge, space, tw, window, wmax in fixtures:
        table = cohomology_dims_torus(charge, space, wmax, tw, window)
        cohom = {}
        for key, dim in table.metadata["per_bigrade"].items():
            q, k, t = (int(s) for s in key.split(","))
            cohom[(q, t)] = cohom.get((q, t), 0) + (-1) ** (k % 2) * dim
        for q in range(wmax + 1):
            chain = {}
            for t, degree, _ in enumerate_torus_window(space, q, tw, window):
                chain[t] = chain.get(t, 0) + (-1 if degree % 2 else 1)
            for t in range(window[0], window[1] + 1):
                ok = ok and chain.get(t, 0) == cohom.get((q, t), 0)
    verdict(11, "chain and cohomology Euler characteristics agree per bigrade", ok)


def test_criterion_12_weightwise_finiteness():
    ok = True
    for d in (1, 2):
        charge = combine(
            chiral_de_rham(1),
            potential_charge(Potential.single_variable(d + 1), Side.OMEGA),
        )
        table = cohomology_dims_capped(charge, OMEGA1, 4, 2 * d)
        series = chi_van(table)
        ok = ok and all(table.stabilization.values())
        ok = ok and table.dims == {(0, 1): d}
        ok = ok and all(v >= 0 for v in table.dims.values())
        ok = ok and series.rows == {0: {0: -d}}
    verdict(12, "fixed-weight cohomology finite and cap-stable through weight 4", ok)
