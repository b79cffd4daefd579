"""Sparse elimination against the dense Gauss-Jordan reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as hst

from chiralg.linalg import kernel_basis, rank
from dense_linalg import kernel_basis as dense_kernel_basis, rank as dense_rank

# mixed hashable row keys; the dense reference orders them by repr
ROWS = hst.sampled_from([0, 1, 2, -5, "a", "b", ("x", 1), ("x", 2), (3, "y"), None])
# small numerators make explicitly stored zeros and cancellations common
VALUES = hst.builds(Fraction, hst.integers(-3, 3), hst.integers(1, 3))
NONZERO = VALUES.filter(bool)
COLUMNS = hst.dictionaries(ROWS, VALUES, max_size=5)


def dense_kernel(cols):
    """The sparse kernel vectors written out over all the columns."""
    return [[rel.get(c, Fraction(0)) for c in range(len(cols))] for rel in kernel_basis(cols)]


@hst.composite
def matrices(draw):
    cols = draw(hst.lists(COLUMNS, max_size=9))
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
    assert rank(cols) == dense_rank(cols)
    assert dense_kernel(cols) == dense_kernel_basis(cols)


def test_degenerate_matrices_match_dense_reference():
    zero = Fraction(0)
    cases = [
        [],
        [{}, {}],
        [{"a": zero}, {}, {("x", 1): zero, 2: zero}],
        [{1: Fraction(2)}, {1: Fraction(-4)}, {1: zero, "a": Fraction(1, 3)}],
    ]
    for cols in cases:
        assert rank(cols) == dense_rank(cols)
        assert dense_kernel(cols) == dense_kernel_basis(cols)
    # each kernel vector is sparse: a zero coefficient is never stored
    assert kernel_basis([{1: Fraction(2)}, {}, {1: Fraction(-4)}]) == [
        {1: Fraction(1)},
        {2: Fraction(1), 0: Fraction(2)},
    ]
