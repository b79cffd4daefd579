"""Cohomology dimensions in both regimes, Euler-characteristic series."""

import random
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as hst

from chiralg import linalg
from chiralg.charges import (
    Potential,
    StructureConstants,
    chiral_de_rham,
    combine,
    default_torus_weights,
    lie_charge,
    potential_charge,
)
from chiralg.cohomology import (
    CohomologyError,
    chi_van,
    cohomology_dims_capped,
    cohomology_dims_torus,
    euler_series,
)
from chiralg.fock import (
    Side,
    State,
    TorusWeights,
    enumerate_basis,
    make_space,
    monomial_text,
)
from chiralg.linalg import kernel_basis, rank
from chiralg.oper import charge_operator
from conftest import X, degree, scaled
from mode_oracle import enumerate_torus_window, reference_capped_table, reference_torus_table

THETA1 = make_space(Side.THETA, 1)
OMEGA1 = make_space(Side.OMEGA, 1)
THETA3 = make_space(Side.THETA, 3)


def test_boundary_matrix_multiplication_pattern():
    """iota_df for f = z^3 at weight 0 is multiplication by 3 x0^2."""
    charge = potential_charge(Potential.single_variable(3), Side.THETA)
    op = charge_operator(charge, THETA1, 0)
    basis = enumerate_basis(THETA1, 0, x0_cap=3)
    domain = [m for m in basis if degree(m) == -1]
    codomain = [m for m in basis if degree(m) == 0]
    assert (len(codomain), len(domain)) == (4, 4)
    assert {monomial_text(m) for m in domain} == {
        "psi_0", "x_0 psi_0", "x_0 x_0 psi_0", "x_0 x_0 x_0 psi_0"
    }
    # entries: x0^k psi_0 -> 3 x0^{k+2}, truncated by the cap
    dom = {m.count(X(0)): c for c, m in enumerate(domain)}
    cod = {m.count(X(0)): r for r, m in enumerate(codomain)}
    entries = {}
    for c, mono in enumerate(domain):
        for image, coeff in op(State.of(mono)).terms.items():
            if image.count(X(0)) <= 3:
                entries[(cod[image.count(X(0))], c)] = coeff
    assert entries == {(cod[k + 2], dom[k]): Fraction(3) for k in (0, 1)}


def test_linalg_rank_shuffle_invariance():
    rng = random.Random(3)
    cols = [
        {"a": Fraction(1), "b": Fraction(2)},
        {"b": Fraction(1)},
        {"a": Fraction(2), "b": Fraction(5)},
        {},
    ]
    base = rank(cols)
    assert base == 2
    for _ in range(5):
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == base
    kern = kernel_basis(cols)
    assert len(kern) == 2
    # span(cols[:2]) contains cols[2]: the two spans meet in a line
    assert rank(cols[:2]) + rank(cols[2:3]) - rank(cols[:3]) == 1


def test_jacobian_ring_dims_small():
    for d in (1, 2):
        charge = potential_charge(Potential.single_variable(d + 1), Side.THETA)
        table = cohomology_dims_capped(charge, THETA1, 0, 2 * d)
        assert table.dims == {(0, 0): d}
        assert table.stabilization[0]


def test_chiral_de_rham_weight0_and_1():
    table = cohomology_dims_capped(chiral_de_rham(1), OMEGA1, 1, 2)
    assert table.dims == {(0, 0): 1}
    assert all(table.stabilization.values())


def test_twisted_de_rham_weight0():
    for d in (1, 2):
        charge = combine(
            chiral_de_rham(1),
            potential_charge(Potential.single_variable(d + 1), Side.OMEGA),
        )
        table = cohomology_dims_capped(charge, OMEGA1, 0, 2 * d)
        assert table.dims == {(0, 1): d}
        assert table.euler(0) == -d


def test_cap_stability_chain():
    """Caps 1, 2 and 3 report the dimensions of caps 2, 3 and 4."""
    charge = potential_charge(Potential.single_variable(2), Side.THETA)
    tables = [cohomology_dims_capped(charge, THETA1, 2, cap) for cap in (1, 2, 3)]
    assert tables[0].dims == tables[1].dims == tables[2].dims


def test_euler_series_q0_row():
    for d in (1, 2):
        f = Potential.single_variable(d + 1)
        tw = default_torus_weights(f)
        es = euler_series(OMEGA1, 0, (-2 * d, 2), tw)
        assert es.rows[0] == {e: -1 for e in range(-d, 0)}


def test_euler_series_empty_window():
    tw = default_torus_weights(Potential.single_variable(2))
    es = euler_series(OMEGA1, 1, (3, 4), tw)
    assert es.rows == {}


def test_chi_van_q0_coefficients():
    f3 = Potential.single_variable(3)
    charge = combine(chiral_de_rham(1), potential_charge(f3, Side.OMEGA))
    series = chi_van(cohomology_dims_capped(charge, OMEGA1, 0, 4))
    assert series.rows[0] == {0: -2}
    f2 = Potential.single_variable(2)
    charge2 = combine(chiral_de_rham(1), potential_charge(f2, Side.OMEGA))
    series2 = chi_van(cohomology_dims_capped(charge2, OMEGA1, 1, 2))
    assert series2.rows.get(0) == {0: -1}
    assert series2.rows.get(1) is None


def test_chi_van_zero_charge_counts_chains():
    """With a zero differential, chi_van is the alternating chain count."""
    charge = lie_charge(StructureConstants.from_entries(1, []))
    tw = TorusWeights.x_count(1)
    series = chi_van(cohomology_dims_torus(charge, THETA1, 1, tw, (0, 2)))
    for q in (0, 1):
        chi = 0
        for _, degree, _ in enumerate_torus_window(THETA1, q, tw, (0, 2)):
            chi += -1 if degree % 2 else 1
        assert series.rows.get(q, {}).get(0, 0) == chi


BAD_JACOBI = lie_charge(
    StructureConstants.from_entries(
        3, [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -1)], validate=False
    )
)


def _assert_true_witness(exc, charge, space, weight):
    """The error names a basis monomial w of the weight with Q(Q(w)) != 0."""
    text = str(exc.value).split("witness ")[1]
    [w] = [
        m
        for m in enumerate_basis(space, weight, x0_cap=3)
        if monomial_text(m, space.dim) == text
    ]
    op = charge_operator(charge, space, weight)
    assert not op(op(State.of(w))).is_zero()


def test_torus_mode_detects_non_nilpotent_charge():
    with pytest.raises(CohomologyError, match="not nilpotent") as exc:
        cohomology_dims_torus(BAD_JACOBI, THETA3, 0, TorusWeights.x_count(3), (0, 1))
    _assert_true_witness(exc, BAD_JACOBI, THETA3, 0)


def test_capped_mode_detects_non_nilpotent_charge():
    """Without the Q^2 certificate the capped regime returned a table for
    this tensor, {(0, -2): 2, (0, -1): 2, (0, 0): 1} at cap 1."""
    with pytest.raises(CohomologyError, match="not nilpotent") as exc:
        cohomology_dims_capped(BAD_JACOBI, THETA3, 0, 1)
    _assert_true_witness(exc, BAD_JACOBI, THETA3, 0)


def test_torus_mode_rejects_inhomogeneous_charge():
    f = Potential.single_variable(2)
    charge = combine(chiral_de_rham(1), potential_charge(f, Side.OMEGA))
    tw = default_torus_weights(f)
    with pytest.raises(CohomologyError):
        cohomology_dims_torus(charge, OMEGA1, 0, tw, (-1, 1))


def test_capped_and_torus_regimes_agree():
    """For f = z^2, z^3, z^4 the weight <= 2 dimensions agree between regimes."""
    for degree, cap in ((2, 3), (3, 6), (4, 8)):
        f = Potential.single_variable(degree)
        charge = potential_charge(f, Side.THETA)
        tw = default_torus_weights(f)
        capped = cohomology_dims_capped(charge, THETA1, 2, cap)
        torus = cohomology_dims_torus(charge, THETA1, 2, tw, (-8, 8))
        assert capped.dims == torus.dims


def test_lie_charge_b2_needs_an_operator_per_weight():
    """b2, [e1, e2] = e2, is not unimodular: normal ordering adds contraction
    terms whose count depends on the weight window, so an operator built at
    the largest weight acts wrongly on lower weights."""
    charge = lie_charge(StructureConstants.from_entries(2, [(2, 1, 2, 1)]))
    theta2 = make_space(Side.THETA, 2)
    capped = cohomology_dims_capped(charge, theta2, 2, 1)
    assert capped.dims == {(0, -1): 1, (0, 0): 1}
    torus = cohomology_dims_torus(charge, theta2, 2, TorusWeights.x_count(2), (0, 0))
    assert torus.metadata["per_bigrade"] == {"0,-1,0": 1, "0,0,0": 1}


def _elimination_sizes(run):
    """The column count of every elimination the run makes, sorted."""
    sizes = []
    real = linalg._eliminate

    def count(columns, level):
        sizes.append(len(columns))
        return real(columns, level)

    with mock.patch.object(linalg, "_eliminate", count):
        run()
    return sorted(sizes)


def test_each_block_is_eliminated_once_per_weight():
    """One elimination per nonempty grade block and weight serves every
    rank of its cells: in the capped regime both caps, and in the torus
    regime no elimination is spent on I off S (I lies in span(S))."""
    charge = combine(chiral_de_rham(1), potential_charge(Potential.single_variable(3), Side.OMEGA))
    cap = 4
    top = cap + charge.max_y_letters() + 2  # cap + margin + 1 of each x_0
    blocks = [
        Counter(degree(m) for m in enumerate_basis(OMEGA1, q, x0_cap=top)) for q in range(3)
    ]
    sizes = _elimination_sizes(lambda: cohomology_dims_capped(charge, OMEGA1, 2, cap))
    assert sizes == sorted(n for block in blocks for n in block.values())

    sl2 = lie_charge(StructureConstants.from_entries(3, [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)]))
    weights = TorusWeights.x_count(3)
    assert sl2.torus_shift(weights) == 0
    blocks = [
        Counter((t, k) for t, k, _ in enumerate_torus_window(THETA3, q, weights, (0, 1)))
        for q in range(2)
    ]
    sizes = _elimination_sizes(lambda: cohomology_dims_torus(sl2, THETA3, 1, weights, (0, 1)))
    assert sizes == sorted(n for block in blocks for n in block.values())


def test_table_determinism():
    charge = potential_charge(Potential.single_variable(3), Side.THETA)
    a = cohomology_dims_capped(charge, THETA1, 1, 3)
    b = cohomology_dims_capped(charge, THETA1, 1, 3)
    assert a.dims == b.dims and a.stabilization == b.stabilization


@hst.composite
def capped_twists(draw):
    """(charge, space, max_weight, x0_cap): the twist by a random potential,
    with d_dR on the form side, or d_dR alone, in one or two variables.  Two
    variables keep to weight 1 at caps <= 1 and, on the theta side, weight 2
    at cap 0."""
    dim = draw(hst.integers(1, 2))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    exps = hst.tuples(*[hst.integers(0, 3)] * dim).filter(lambda e: 0 < sum(e) <= 3)
    coeffs = draw(hst.dictionaries(exps, hst.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    f = Potential.from_terms(dim, [(c, e) for e, c in coeffs.items()])
    charge = potential_charge(f, side)
    if side is Side.OMEGA:
        # d_dR lowers the x_0 degree, so the image-side margin matters
        d_dR = chiral_de_rham(dim)
        charge = combine(d_dR, charge) if draw(hst.booleans()) else d_dR
    if dim == 1:
        weight, cap = draw(hst.integers(0, 2)), draw(hst.integers(0, 3))
    else:
        weight = draw(hst.integers(0, 2 if side is Side.THETA else 1))
        cap = draw(hst.integers(0, [3, 1, 0][weight]))
    return charge, make_space(side, dim), weight, cap


@settings(max_examples=40, deadline=None)
@given(capped_twists())
def test_capped_dims_match_kernel_vector_reference(case):
    """The rank formula gives the dimensions and stabilization flags that
    kernel vectors gave."""
    charge, space, weight, cap = case
    table = cohomology_dims_capped(charge, space, weight, cap)
    assert (table.dims, table.stabilization) == reference_capped_table(
        charge, space, weight, cap
    )


@pytest.mark.parametrize(
    "entries, dim, weight, cap",
    [
        ([(2, 1, 2, 1)], 2, 2, 0),  # b2, whose operator depends on the weight
        ([(2, 1, 2, 1)], 2, 1, 1),
        ([(3, 1, 2, 1)], 3, 0, 1),  # Heisenberg
        ([(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)], 3, 0, 1),  # sl2
    ],
)
def test_capped_lie_dims_match_kernel_vector_reference(entries, dim, weight, cap):
    charge = lie_charge(StructureConstants.from_entries(dim, entries))
    space = make_space(Side.THETA, dim)
    table = cohomology_dims_capped(charge, space, weight, cap)
    assert (table.dims, table.stabilization) == reference_capped_table(
        charge, space, weight, cap
    )


@hst.composite
def torus_twists(draw):
    """(charge, space, max_weight, torus weights, window): the twist by a
    random potential of weighted degree D under random x weights of one
    sign, in one or two variables.  phi_j = x_j - D + s makes the charge
    torus homogeneous of shift s, which is drawn nonzero; in one variable
    this is any phi weight."""
    dim = draw(hst.integers(1, 2))
    sign = draw(hst.sampled_from([1, -1]))
    wx = tuple(sign * w for w in draw(hst.tuples(*[hst.integers(1, 2)] * dim)))
    exps = [e for e in product(range(4), repeat=dim) if 0 < sum(e) <= 3]
    weighted = {e: sum(w * n for w, n in zip(wx, e)) for e in exps}
    total = draw(hst.sampled_from(sorted(set(weighted.values()))))
    terms = draw(
        hst.lists(
            hst.sampled_from([e for e in exps if weighted[e] == total]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    f = Potential.from_terms(dim, [(draw(hst.integers(-3, 3).filter(bool)), e) for e in terms])
    shift = draw(hst.integers(-3, 3).filter(bool))
    tw = TorusWeights(wx, tuple(w - total + shift for w in wx))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    charge = potential_charge(f, side)
    assert charge.torus_shift(tw) == shift
    lo = draw(hst.integers(-4, 4))
    window = (lo, lo + draw(hst.integers(0, 4)))
    return charge, make_space(side, dim), draw(hst.integers(0, 3 - dim)), tw, window


def _assert_torus_matches_reference(charge, space, weight, tw, window):
    table = cohomology_dims_torus(charge, space, weight, tw, window)
    dims, per_bigrade = reference_torus_table(charge, space, weight, tw, window)
    assert (table.dims, table.metadata["per_bigrade"]) == (dims, per_bigrade)


@settings(max_examples=40, deadline=None)
@given(torus_twists())
def test_torus_dims_match_kernel_vector_reference(case):
    """Every incoming map comes from the block at t - shift, which the basis
    window reaches on the side it lies."""
    _assert_torus_matches_reference(*case)


def test_torus_shift_two_example():
    """theta-side x^3 under x = 1, phi = 0 has shift 2; reading the source
    block at t + shift gave {(0,0): 7, (1,-1): 6, (1,0): 13, (1,1): 7}."""
    charge = potential_charge(Potential.single_variable(3), Side.THETA)
    tw = TorusWeights((1,), (0,))
    table = cohomology_dims_torus(charge, THETA1, 1, tw, (-2, 6))
    assert table.metadata["torus_shift"] == 2
    assert table.dims == {(0, 0): 2, (1, -1): 1, (1, 0): 2, (1, 1): 1}
    _assert_torus_matches_reference(charge, THETA1, 1, tw, (-2, 6))


@pytest.mark.parametrize(
    "entries, dim, weight, window",
    [
        ([(2, 1, 2, 1)], 2, 2, (0, 1)),  # b2
        ([(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)], 3, 1, (0, 1)),  # sl2
    ],
)
def test_torus_lie_dims_match_kernel_vector_reference(entries, dim, weight, window):
    charge = lie_charge(StructureConstants.from_entries(dim, entries))
    space = make_space(Side.THETA, dim)
    _assert_torus_matches_reference(charge, space, weight, TorusWeights.x_count(dim), window)


SL2 = lie_charge(StructureConstants.sl2())
DERHAM_X2 = combine(chiral_de_rham(1), potential_charge(Potential.single_variable(2), Side.OMEGA))
X3_THETA = potential_charge(Potential.single_variable(3), Side.THETA)
SCALED_TABLES = [
    (SL2, lambda c: cohomology_dims_torus(c, THETA3, 1, TorusWeights.x_count(3), (0, 1))),
    (X3_THETA, lambda c: cohomology_dims_torus(c, THETA1, 1, TorusWeights((1,), (0,)), (-2, 6))),
    (DERHAM_X2, lambda c: cohomology_dims_capped(c, OMEGA1, 2, 2)),
    (X3_THETA, lambda c: cohomology_dims_capped(c, THETA1, 1, 3)),
]


@settings(max_examples=20, deadline=None)
@given(
    hst.builds(Fraction, hst.integers(-9, 9).filter(bool), hst.integers(1, 9)),
    hst.sampled_from(SCALED_TABLES),
)
def test_tables_are_scale_invariant(lam, case):
    """Scaling every pattern coefficient by a nonzero rational changes no
    dimension, no per-bigrade entry and no stabilization flag."""
    charge, table = case
    assert table(scaled(charge, lam)) == table(charge)
