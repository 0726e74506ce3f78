"""Differential tests of the exact echelon kernel against sympy.

``tests/constraint_oracle.py`` shares ``nullspace_basis`` and
``canonical_span`` with the package, so the oracle cannot catch a fault in
the kernel itself; sympy's exact rational ``rref``, ``nullspace`` and
``inv`` can.  The matrices carry duplicated, scaled and zero rows because
redundant rows are what the incremental echelon mostly handles, and their
entries mix ints and Fractions with denominators up to 6 because the
echelon scales each row to integers on entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

sympy = pytest.importorskip("sympy")

from supertrial.errors import SingularMapError  # noqa: E402
from supertrial.linalg import Echelon, Matrix, invert, nullspace_basis, rref  # noqa: E402

F = Fraction
integers = hs.integers(-4, 4)
rationals = hs.one_of(integers, hs.builds(F, integers, hs.integers(1, 6)))
nonzero = hs.builds(F, hs.integers(-6, 6).filter(bool), hs.integers(1, 6))


@hs.composite
def redundant_rows(draw, max_rows=10, max_cols=8, square=False, entries=rationals):
    """A few random rows plus duplicates, multiples, sums and zeros."""
    ncols = draw(hs.integers(1, max_cols))
    nrows = ncols if square else draw(hs.integers(1, max_rows))
    base = draw(hs.integers(1, nrows))
    rows = [draw(hs.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(base)]
    while len(rows) < nrows:
        how = draw(hs.sampled_from(["duplicate", "scale", "zero", "sum"]))
        i = draw(hs.integers(0, len(rows) - 1))
        j = draw(hs.integers(0, len(rows) - 1))
        if how == "duplicate":
            rows.append(list(rows[i]))
        elif how == "scale":
            c = draw(hs.sampled_from([-3, -2, -1, 2, 3]))
            rows.append([c * x for x in rows[i]])
        elif how == "zero":
            rows.append([0] * ncols)
        else:
            rows.append([x + y for x, y in zip(rows[i], rows[j])])
    return draw(hs.permutations(rows))


def exact(x) -> Fraction:
    rational = sympy.Rational(x)
    return F(int(rational.p), int(rational.q))


def from_sympy(m) -> list[list[Fraction]]:
    return [[exact(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


@settings(deadline=None)
@given(redundant_rows())
def test_rref_and_pivots_match_sympy(rows):
    reduced, pivots = rref(Matrix.from_rows(rows))
    expected, expected_pivots = sympy.Matrix(rows).rref()
    assert reduced == Matrix.from_rows(from_sympy(expected))
    assert pivots == tuple(expected_pivots)


@settings(deadline=None)
@given(redundant_rows())
def test_nullspace_matches_sympy(rows):
    expected = [tuple(exact(x) for x in v) for v in sympy.Matrix(rows).nullspace()]
    assert nullspace_basis(Matrix.from_rows(rows)) == expected


@settings(deadline=None)
@given(redundant_rows(max_cols=6, square=True))
def test_invert_matches_sympy(rows):
    m = sympy.Matrix(rows)
    if m.rank() < m.rows:
        with pytest.raises(SingularMapError):
            invert(Matrix.from_rows(rows))
    else:
        assert invert(Matrix.from_rows(rows)) == Matrix.from_rows(from_sympy(m.inv()))


@settings(deadline=None)
@given(redundant_rows(), hs.data())
def test_echelon_independent_of_row_order_and_chunking(rows, data):
    ncols = len(rows[0])
    whole = Echelon(rows)
    shuffled = Echelon(data.draw(hs.permutations(rows)))
    cut = data.draw(hs.integers(0, len(rows)))
    chunked = Echelon(Echelon(rows[:cut]).rows())
    for row in Echelon(rows[cut:]).rows():
        chunked.add(row)
    sparse = Echelon({c: F(v) for c, v in enumerate(row) if v} for row in rows)
    for other in (shuffled, chunked, sparse):
        assert other.rows() == whole.rows()
        assert other.kernel(ncols) == whole.kernel(ncols)
    assert whole.pivots == rref(Matrix.from_rows(rows))[1]


@settings(deadline=None)
@given(redundant_rows())
def test_contains_exactly_the_row_space(rows):
    ech = Echelon(rows)
    ncols = len(rows[0])
    for row in rows:
        assert ech.contains(row)
    # Over the rationals the row space and the kernel are complementary, so
    # each kernel basis vector lies outside the span of the rows and of the
    # kernel vectors added before it.
    for v in ech.kernel(ncols):
        assert not ech.contains(v)
        assert ech.add(v)
        assert len(ech) == len(ech.pivots) == ncols - len(ech.kernel(ncols))
    assert len(ech) == ncols


@settings(deadline=None)
@given(redundant_rows(entries=integers), hs.data())
def test_int_fraction_and_mixed_rows_agree(rows, data):
    """int rows, Fraction rows and rows mixing both span the same space."""
    ncols = len(rows[0])
    fractions = Echelon([F(v) for v in row] for row in rows)
    mixed = [[data.draw(hs.sampled_from([int, F]))(v) for v in row] for row in rows]
    for other in (Echelon(rows), Echelon(mixed), Echelon({c: v for c, v in enumerate(row) if v} for row in rows)):
        assert other.rows() == fractions.rows()
        assert other.kernel(ncols) == fractions.kernel(ncols)
    for row in rows + [[F(1, 3)] * ncols]:
        assert all(type(v) is int for v in Echelon(rows[:1]).reduce(row).values())
    # An all-int row skips the conversion to numerators and reduces as its Fraction twin does.
    held = Echelon(rows[: len(rows) // 2])
    for row in rows:
        assert held.reduce(row) == held.reduce([F(v) for v in row]) == held.reduce(dict(enumerate(row)))


@settings(deadline=None)
@given(redundant_rows(), hs.data())
def test_rows_do_not_depend_on_row_scale(rows, data):
    """Each row is stored as a primitive integer multiple, so scaling an
    input row by any nonzero rational changes nothing."""
    ncols = len(rows[0])
    whole = Echelon(rows)
    for row in rows:
        c = data.draw(nonzero)
        assert Echelon([[c * v for v in row]]).rows() == Echelon([row]).rows()
    scales = [data.draw(nonzero) for _ in rows]
    scaled = Echelon([c * v for v in row] for c, row in zip(scales, rows))
    assert scaled.rows() == whole.rows()
    assert scaled.kernel(ncols) == whole.kernel(ncols)


@settings(deadline=None)
@given(redundant_rows(entries=integers))
def test_empty_and_repeated_rows_change_nothing(rows):
    """Adding a zero row, an empty dict or a row already added returns
    False and leaves the rows as they were."""
    ech = Echelon(rows)
    before = ech.rows()
    for row in [[0] * len(rows[0]), {}, *rows]:
        assert ech.add(row) is False
        assert ech.rows() == before
