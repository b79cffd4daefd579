"""Sparse elimination against the dense Gauss-Jordan reference and against
the Fraction elimination it replaced, on random and on real blocks."""

from fractions import Fraction
from functools import partial
from unittest import mock

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
from chiralg.cohomology import cohomology_dims_capped, cohomology_dims_torus
from chiralg.fock import Side, TorusWeights, make_space
from chiralg.linalg import kernel_basis, rank
from chiralg.modfun import (
    InducedTruncation,
    delta_zero_modes,
    polynomial_zero_modes,
    singular_vectors,
)
from dense_linalg import kernel_basis as dense_kernel_basis, rank as dense_rank
from mode_oracle import reference_eliminate

# mixed hashable row keys; the dense reference orders them by repr
ROWS = hst.sampled_from([0, 1, 2, -5, "a", "b", ("x", 1), ("x", 2), (3, "y"), None])
# small numerators make explicitly stored zeros and cancellations common;
# large ones and large denominators test the integer scaling, and plain
# ints mixed with Fractions in one column test the lcm of denominators
SMALL = hst.builds(Fraction, hst.integers(-3, 3), hst.integers(1, 3))
LARGE = hst.builds(Fraction, hst.integers(-(10**30), 10**30), hst.integers(1, 10**9))
VALUES = SMALL | LARGE | hst.integers(-3, 3) | hst.integers(-(10**30), 10**30)
NONZERO = VALUES.filter(bool)
COLUMNS = hst.dictionaries(ROWS, VALUES, max_size=5)


def dense_kernel(cols):
    """The sparse kernel vectors written out over all the columns."""
    return [[rel.get(c, Fraction(0)) for c in range(len(cols))] for rel in kernel_basis(cols)]


def assert_matches_dense_reference(cols):
    assert rank(cols) == dense_rank(cols)
    assert dense_kernel(cols) == dense_kernel_basis(cols)
    # every stored coefficient is a nonzero Fraction, never an int
    assert all(type(v) is Fraction and v for rel in kernel_basis(cols) for v in rel.values())


@hst.composite
def fill_in_chains(draw):
    """A staircase of pivots, column k leading at row k (its first key, the
    entry possibly negative) with an entry on row k + 1 and maybe on later
    rows, so reducing by pivot k brings in the rows of later pivots; then
    columns supported on the first two rows, which follow that chain down."""
    rows = draw(hst.lists(ROWS, min_size=2, max_size=6, unique=True))
    cols = []
    for k, row in enumerate(rows):
        col = {row: draw(NONZERO)}
        for later in rows[k + 1 : k + 2] + draw(hst.lists(hst.sampled_from(rows[k:]), max_size=2)):
            col[later] = draw(NONZERO)
        cols.append(col)
    for _ in range(draw(hst.integers(1, 3))):
        cols.append({r: draw(NONZERO) for r in draw(hst.lists(hst.sampled_from(rows[:2]), min_size=1, max_size=2))})
    return cols


@hst.composite
def matrices(draw):
    cols = draw(hst.lists(COLUMNS, max_size=4)) + draw(fill_in_chains())
    cols += draw(hst.lists(COLUMNS, max_size=4))
    # dependent columns: copies of earlier ones, scaled, at random positions
    for _ in range(draw(hst.integers(0, 3))):
        if not cols:
            break
        src = draw(hst.sampled_from(cols))
        scale = draw(hst.just(Fraction(1)) | NONZERO)
        cols.insert(draw(hst.integers(0, len(cols))), {r: scale * v for r, v in src.items()})
    return cols


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_dense_reference(cols):
    assert_matches_dense_reference(cols)


@settings(max_examples=100, deadline=None)
@given(matrices().flatmap(hst.permutations))
def test_rank_of_shuffled_columns_matches_references(cols):
    """Rank does not depend on the order of the columns: a shuffled list
    has the rank of the dense reference and of the scan over every earlier
    pivot."""
    assert rank(cols) == dense_rank(cols) == reference_eliminate(cols, False)[0]


def test_degenerate_matrices_match_dense_reference():
    zero = Fraction(0)
    cases = [
        [],
        [{}, {}],
        [{"a": zero}, {}, {("x", 1): zero, 2: zero}],
        [{1: Fraction(2)}, {1: Fraction(-4)}, {1: zero, "a": Fraction(1, 3)}],
        [{1: 0, 2: -3}, {2: 6}, {1: 10**30, 2: Fraction(1, 10**9)}],
        [{0: 3}, {0: 1}],
    ]
    for cols in cases:
        assert_matches_dense_reference(cols)
    # int entries are divided exactly, by the reference too
    assert dense_kernel_basis([{0: 3}, {0: 1}]) == [[Fraction(-1, 3), Fraction(1)]]
    # each kernel vector is sparse: a zero coefficient is never stored
    assert kernel_basis([{1: Fraction(2)}, {}, {1: Fraction(-4)}]) == [
        {1: Fraction(1)},
        {2: Fraction(1), 0: Fraction(2)},
    ]


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_int_columns_among_fraction_columns_match_dense_reference(data):
    """All-int columns enter the elimination unscaled, beside columns that
    hold a Fraction (of denominator 1 too, as Fraction(3) is): the kernel
    and a random-level pivot profile equal those of the same columns with
    every entry a Fraction, and the rank and kernel the dense reference's."""
    ints = hst.dictionaries(ROWS, hst.integers(-3, 3) | hst.integers(-(10**30), 10**30), max_size=5)
    fracs = hst.dictionaries(ROWS, SMALL | hst.integers(-3, 3).map(Fraction), max_size=5)
    cols = data.draw(hst.lists(ints | fracs | COLUMNS, max_size=8))
    assert_matches_dense_reference(cols)
    as_fractions = [{r: Fraction(v) for r, v in col.items()} for col in cols]
    rows = sorted({r for col in cols for r in col}, key=repr)
    levels = {r: data.draw(hst.integers(0, 3)) for r in rows}.__getitem__
    assert linalg.pivot_profile(cols, levels) == linalg.pivot_profile(as_fractions, levels)
    assert kernel_basis(cols) == kernel_basis(as_fractions)


def test_fill_in_chain_kernel():
    """Column 3 meets only the pivot at row a; reducing by it brings in row
    b, the pivot of column 1, and that brings in row c, the pivot of
    column 2.  Column 4 starts the chain at row b."""
    cols = [
        {"a": -2, "b": Fraction(1, 2)},
        {"b": 3, "c": 1},
        {"c": Fraction(-2, 3)},
        {"a": 4},
        {"b": 1},
    ]
    assert rank(cols) == 3
    assert kernel_basis(cols) == [
        {3: Fraction(1), 0: Fraction(2), 1: Fraction(-1, 3), 2: Fraction(-1, 2)},
        {4: Fraction(1), 1: Fraction(-1, 3), 2: Fraction(-1, 2)},
    ]
    assert_matches_dense_reference(cols)


# --- real blocks against the Fraction elimination the package used before


def _twist_case(draw):
    """Capped or torus cohomology of a random potential twist: both sides,
    one or two variables, d_dR on the form side in the capped regime."""
    dim = draw(hst.integers(1, 2))
    side = draw(hst.sampled_from([Side.THETA, Side.OMEGA]))
    space = make_space(side, dim)
    if draw(hst.booleans()):
        # torus: a homogeneous potential, so the default weights keep it
        degree = draw(hst.integers(2, 3))
        exps = hst.tuples(*[hst.integers(0, degree)] * dim).filter(lambda e: sum(e) == degree)
        coeffs = draw(hst.dictionaries(exps, NONZERO.filter(lambda v: abs(v) < 10**6), min_size=1, max_size=2))
        f = Potential.from_terms(dim, [(c, e) for e, c in coeffs.items()])
        charge = potential_charge(f, side)
        weight = draw(hst.integers(0, 2 if dim == 1 else 1))
        return partial(cohomology_dims_torus, charge, space, weight, default_torus_weights(f), (-2, 2))
    exps = hst.tuples(*[hst.integers(0, 3)] * dim).filter(lambda e: 0 < sum(e) <= 3)
    coeffs = draw(hst.dictionaries(exps, SMALL.filter(bool), min_size=1, max_size=3))
    f = Potential.from_terms(dim, [(c, e) for e, c in coeffs.items()])
    charge = potential_charge(f, side)
    if side is Side.OMEGA and draw(hst.booleans()):
        charge = combine(chiral_de_rham(dim), charge)
    weight = draw(hst.integers(0, 2 if dim == 1 else 1))
    cap = draw(hst.integers(0, 3 if dim == 1 and weight < 2 else 1))
    return partial(cohomology_dims_capped, charge, space, weight, cap)


def _lie_case(draw):
    """sl2 or b2 under a random diagonal rescaling of the basis, which maps
    c^k_ij to c^k_ij s_i s_j / s_k and brings in denominators."""
    name = draw(hst.sampled_from(["sl2", "b2"]))
    dim, entries = {
        "sl2": (3, [(3, 1, 2, 1), (1, 3, 1, 2), (2, 3, 2, -2)]),
        "b2": (2, [(2, 1, 2, 1)]),
    }[name]
    scales = hst.sampled_from([Fraction(s) for s in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))])
    s = draw(hst.lists(scales, min_size=dim, max_size=dim))
    charge = lie_charge(StructureConstants.from_entries(
        dim, [(k, i, j, v * s[i - 1] * s[j - 1] / s[k - 1]) for k, i, j, v in entries]
    ))
    space = make_space(Side.THETA, dim)
    if draw(hst.booleans()):
        weight = draw(hst.integers(0, 1))
        return partial(cohomology_dims_torus, charge, space, weight, TorusWeights.x_count(dim), (0, 1))
    # capped sl2 stays at weight 0: weight 1 takes seconds
    weight = 0 if name == "sl2" else draw(hst.integers(0, 1))
    return partial(cohomology_dims_capped, charge, space, weight, draw(hst.integers(0, 1)))


def _module_case(draw):
    """Singular vectors of a small induced zero-mode module."""
    base = draw(hst.sampled_from([polynomial_zero_modes, delta_zero_modes]))(draw(hst.integers(0, 3)))
    cap = draw(hst.integers(0, 3))
    module = InducedTruncation(base, cap)
    weight = draw(hst.integers(0, cap))
    return partial(singular_vectors, module, weight)


@hst.composite
def real_runs(draw):
    return draw(hst.sampled_from([_twist_case, _lie_case, _module_case]))(draw)


def eliminated_blocks(run):
    """Every column list the run hands to the elimination, with its level
    function."""
    blocks = []
    real = linalg._eliminate

    def record(columns, track, level):
        blocks.append((columns, level))
        return real(columns, track, level)

    with mock.patch.object(linalg, "_eliminate", record):
        run()
    return blocks


@settings(max_examples=60, deadline=None)
@given(real_runs())
def test_elimination_matches_fraction_reference_on_real_blocks(run):
    """Ranks and kernel vectors, their order, the order of their entries and
    their Fraction type are those of the scan over every earlier pivot,
    which takes each vector's first row as its pivot, when every row has
    level 0 (as in ``rank`` and ``kernel_basis``); the profile marks exactly
    the columns the relations are for.  With the block's levels the pivots
    move, but the rank, the dependent columns and the kernel vectors (each
    unique) stay."""
    for cols, level in eliminated_blocks(run):
        for track in (False, True):
            profile, rels = linalg._eliminate(cols, track, lambda row: 0)
            ref_r, ref_rels = reference_eliminate(cols, track)
            assert len(cols) - profile.count(None) == ref_r
            assert set(profile) <= {None, 0}
            assert [list(rel.items()) for rel in rels] == [list(rel.items()) for rel in ref_rels]
            assert all(type(v) is Fraction for rel in rels for v in rel.values())
        dependent = [c for c, p in enumerate(profile) if p is None]
        assert dependent == [next(iter(rel)) for rel in ref_rels]
        leveled, leveled_rels = linalg._eliminate(cols, True, level)
        assert [c for c, p in enumerate(leveled) if p is None] == dependent
        assert leveled_rels == ref_rels
        assert all(type(v) is Fraction for rel in leveled_rels for v in rel.values())


@settings(max_examples=400, deadline=None)
@given(matrices(), hst.data())
def test_pivot_profile_reads_prefix_ranks_and_projections(cols, data):
    """The first n columns hold as many pivots as their rank, and as many
    pivots of level above s as the rank of their projection onto the rows
    of level above s."""
    rows = sorted({r for col in cols for r in col}, key=repr)
    levels = {r: data.draw(hst.integers(0, 3)) for r in rows}
    profile = linalg.pivot_profile(cols, levels.__getitem__)
    assert len(profile) == len(cols)
    n = data.draw(hst.integers(0, len(cols)))
    s = data.draw(hst.integers(-1, 3))
    head = profile[:n]
    assert len(head) - head.count(None) == dense_rank(cols[:n])
    off = [{r: v for r, v in col.items() if levels[r] > s} for col in cols[:n]]
    assert sum(p is not None and p > s for p in head) == dense_rank(off)


@settings(max_examples=200, deadline=None)
@given(matrices(), hst.data())
def test_entry_order_changes_no_profile_or_kernel(cols, data):
    """``pivot_profile``, with random row levels, and ``kernel_basis`` do not
    depend on the order in which a column lists its entries."""
    rows = sorted({r for col in cols for r in col}, key=repr)
    levels = {r: data.draw(hst.integers(0, 3)) for r in rows}
    shuffled = [dict(data.draw(hst.permutations(list(col.items())))) for col in cols]
    profile = linalg.pivot_profile(cols, levels.__getitem__)
    assert linalg.pivot_profile(shuffled, levels.__getitem__) == profile
    assert kernel_basis(shuffled) == kernel_basis(cols)
