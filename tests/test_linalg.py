"""Exact rational linear algebra: frozen examples plus algebraic invariants."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from supertrial.errors import InputError, SingularMapError
from supertrial.linalg import (
    Echelon,
    Matrix,
    canonical_span,
    frac,
    invert,
    nullspace_basis,
    projected_kernel,
    rref,
    solve_in_span,
)
from supertrial.serialize import parse_rational

F = Fraction


def mat(rows):
    return Matrix.from_rows(rows)


def zeros(rows, cols):
    return Matrix(rows, cols, (F(0),) * (rows * cols))


class TestFrac:
    def test_accepts_int_string_fraction(self):
        assert frac(3) == F(3)
        assert frac("-2/5") == F(-2, 5)
        assert frac(F(7, 2)) == F(7, 2)

    def test_rejects_bool(self):
        with pytest.raises(InputError):
            frac(True)

    def test_rejects_float(self):
        with pytest.raises(InputError):
            frac(0.5)

    @pytest.mark.parametrize("text", ["0.5", "1e3", "abc", "", "1/", "/2", "1/-2", "inf", "1 / 2"])
    def test_rejects_other_strings(self, text):
        with pytest.raises(InputError, match="not a rational literal"):
            frac(text)

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError, match="zero denominator"):
            frac("3/0")

    @pytest.mark.parametrize(
        "text", ["7" * 5000, "-1/" + "7" * 5000, "7" * 5000 + "/3"], ids=["p", "1/q", "p/q"]
    )
    def test_rejects_numbers_past_the_digit_limit(self, text):
        with pytest.raises(InputError, match="^rational literal has too many digits$"):
            frac(text)

    def test_string_grammar_matches_parse_rational(self):
        assert frac(" +4/6 ") == parse_rational(" +4/6 ", "w") == F(2, 3)
        assert frac("-0") == F(0)
        with pytest.raises(InputError, match=r"^w: '0\.5' is not a rational literal"):
            parse_rational("0.5", "w")


class TestMatrixBasics:
    def test_row(self):
        m = mat([[1, 2], [3, 4]])
        assert m.row(0) == (F(1), F(2))

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            mat([[1, 2], [3]])

    def test_apply_is_column_action(self):
        m = mat([[0, 1], [0, 0]])
        assert m.apply((F(0), F(1))) == (F(1), F(0))

    def test_matmul_and_shape_error(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a @ b == mat([[2, 1], [4, 3]])
        with pytest.raises(InputError):
            a @ mat([[1, 2, 3]])

    def test_power(self):
        m = mat([[1, 1], [0, 1]])
        assert m.power(0) == Matrix.identity(2)
        assert m.power(3) == mat([[1, 3], [0, 1]])
        with pytest.raises(InputError):
            m.power(-1)

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        products = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
        m = mat([[1, 1], [0, 2]])
        for k, count in ((0, 0), (1, 0), (2, 1), (5, 3)):
            products.clear()
            assert m.power(k) == mat([[1, 2**k - 1], [0, 2**k]])
            assert len(products) == count, k

    def test_add_sub(self):
        m = mat([[1, 2], [3, 4]])
        assert (m + m).row(0)[1] == 4
        assert (m - m).is_zero

    def test_diagonal(self):
        assert Matrix.diagonal([1, 2]) == mat([[1, 0], [0, 2]])

    def test_equality_compares_integer_pairs(self, monkeypatch):
        """Equal matrices, however their entries are spelled, compare and
        hash equal (the battery keys a dict by Matrix), and no comparison
        calls Fraction.__eq__ on the entries."""
        a = mat([[1, "2/4"], [0, 3]])
        b = Matrix(2, 2, (F(1), F(1, 2), 0, F(3)))
        others = [mat([[1, "1/3"], [0, 3]]), Matrix(1, 4, a.entries), mat([[1, 0], [0, 1]])]
        calls = []
        eq = Fraction.__eq__
        monkeypatch.setattr(Fraction, "__eq__", lambda x, y: calls.append(1) or eq(x, y))
        assert a == b and hash(a) == hash(b) and {a: "a"}[b] == "a"
        assert all(a != m for m in others)
        assert others[2].is_identity and not a.is_identity
        assert calls == []

    def test_hash_reads_integer_pairs(self, monkeypatch):
        """Equal matrices built by different routes hash equal and share one
        dict entry, and hashing calls no Fraction.__hash__."""
        routes = [Matrix.from_rows([["2/4"]]), Matrix(1, 1, (F(1, 2),)), mat([["1/4"]]) @ mat([[2]])]
        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(1) or fraction_hash(x))
        assert len({hash(m) for m in routes}) == 1
        assert len(dict.fromkeys(routes)) == 1
        assert calls == []

    def test_integral_is_numerators_of_the_entries(self):
        m = mat([["1/2", 0], [3, "-2/3"]])
        assert m.integral == (6, (3, 0, 18, -4))
        assert m.integral is m.integral

    @pytest.mark.parametrize("op", ["eq", "hash", "matmul", "apply"])
    def test_inexact_entry_refused_where_entries_are_read(self, op):
        """A float entry is refused with an InputError by every operation that
        reads the entries through ``integral``, not with an AttributeError."""
        m = Matrix(1, 1, (0.5,))
        run = {"eq": lambda: m == m, "hash": lambda: hash(m), "matmul": lambda: m @ m, "apply": lambda: m.apply((F(1),))}
        with pytest.raises(InputError, match="0.5"):
            run[op]()


class TestRref:
    def test_dependent_rows(self):
        reduced, pivots = rref(mat([[2, 4], [1, 2]]))
        assert reduced == mat([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_identity_fixed(self):
        ident = Matrix.identity(3)
        reduced, pivots = rref(ident)
        assert reduced == ident
        assert pivots == (0, 1, 2)

    def test_zero_matrix(self):
        reduced, pivots = rref(zeros(2, 3))
        assert reduced.is_zero
        assert pivots == ()

    def test_row_order_invariance(self):
        a = rref(mat([[0, 1], [1, 0]]))[0]
        b = rref(mat([[1, 0], [0, 1]]))[0]
        assert a == b


class TestNullspace:
    def test_line_kernel(self):
        assert nullspace_basis(mat([[1, 1]])) == [(F(-1), F(1))]

    def test_full_kernel_of_zero_height_matrix(self):
        assert nullspace_basis(zeros(0, 2)) == [
            (F(1), F(0)),
            (F(0), F(1)),
        ]

    def test_trivial_kernel(self):
        assert nullspace_basis(Matrix.identity(2)) == []

    def test_canonical_shape(self):
        basis = nullspace_basis(mat([[1, 2, 3]]))
        assert basis == [(F(-2), F(1), F(0)), (F(-3), F(0), F(1))]


class TestCanonicalSpan:
    def test_collapses_dependent_vectors(self):
        assert canonical_span([(F(1), F(1)), (F(2), F(2))], 2) == ((F(1), F(1)),)

    def test_order_invariance(self):
        vs = [(F(1), F(2)), (F(0), F(1))]
        assert canonical_span(vs, 2) == canonical_span(list(reversed(vs)), 2)

    def test_empty_input(self):
        assert canonical_span([], 3) == ()

    def test_drops_zero_vectors(self):
        assert canonical_span([(F(0), F(0))], 2) == ()

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            canonical_span([(F(1),)], 2)


class TestSolveInSpan:
    def test_unique_combination(self):
        basis = [(F(1), F(1)), (F(1), F(-1))]
        assert solve_in_span(basis, (F(3), F(1))) == [F(2), F(1)]

    def test_outside_span(self):
        assert solve_in_span([(F(1), F(0))], (F(0), F(1))) is None

    def test_empty_basis(self):
        assert solve_in_span([], (F(0), F(0))) == []
        assert solve_in_span([], (F(1), F(0))) is None

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            solve_in_span([(F(1),)], (F(1), F(0)))


class TestInvert:
    def test_unitriangular(self):
        assert invert(mat([[1, 1], [0, 1]])) == mat([[1, -1], [0, 1]])

    def test_diagonal(self):
        assert invert(Matrix.diagonal([1, 2])) == Matrix.diagonal([1, "1/2"])

    def test_singular(self):
        with pytest.raises(SingularMapError):
            invert(mat([[1, 2], [2, 4]]))

    def test_non_square(self):
        with pytest.raises(InputError):
            invert(mat([[1, 2]]))


def square_matrices(max_dim=4):
    return hs.integers(1, max_dim).flatmap(
        lambda n: hs.lists(
            hs.lists(hs.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(mat)
    )


def rect_matrices(max_dim=4):
    return hs.tuples(hs.integers(1, max_dim), hs.integers(1, max_dim)).flatmap(
        lambda shape: hs.lists(
            hs.lists(hs.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(mat)
    )


@given(rect_matrices())
def test_kernel_vectors_annihilate(m):
    for v in nullspace_basis(m):
        assert m.apply(v) == (F(0),) * m.rows


@given(rect_matrices())
def test_rank_plus_nullity(m):
    assert len(Echelon(m.row(i) for i in range(m.rows))) + len(nullspace_basis(m)) == m.cols


@given(rect_matrices())
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@given(square_matrices())
def test_inverse_roundtrip_when_regular(m):
    if len(Echelon(m.row(i) for i in range(m.rows))) < m.rows:
        with pytest.raises(SingularMapError):
            invert(m)
    else:
        assert m @ invert(m) == Matrix.identity(m.rows)
        assert invert(m) @ m == Matrix.identity(m.rows)


@given(rect_matrices(max_dim=3), hs.lists(hs.integers(-3, 3), min_size=1, max_size=3))
def test_span_membership_matches_reconstruction(m, coeffs):
    basis = [m.row(i) for i in range(m.rows)]
    target = [F(0)] * m.cols
    for c, b in zip(coeffs, basis):
        for idx in range(m.cols):
            target[idx] += F(c) * b[idx]
    sol = solve_in_span(basis, tuple(target))
    assert sol is not None
    rebuilt = [F(0)] * m.cols
    for c, b in zip(sol, basis):
        for idx in range(m.cols):
            rebuilt[idx] += c * b[idx]
    assert tuple(rebuilt) == tuple(target)


def naive_product(a, b):
    """The product by the textbook triple loop over Fractions."""
    return Matrix(a.rows, b.cols, tuple(
        sum((a.row(i)[t] * b.row(t)[j] for t in range(a.cols)), F(0))
        for i in range(a.rows) for j in range(b.cols)
    ))


def rational_matrices(rows, cols):
    entries = hs.fractions(min_value=-4, max_value=4, max_denominator=6)
    return hs.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: Matrix(rows, cols, tuple(flat))
    )


@given(hs.tuples(*[hs.integers(0, 3)] * 3).flatmap(
    lambda shape: hs.tuples(rational_matrices(*shape[:2]), rational_matrices(*shape[1:]))
))
def test_integer_product_matches_the_triple_loop(pair):
    a, b = pair
    product = a @ b
    assert product == naive_product(a, b)
    assert all(type(v) is Fraction for v in product.entries)
    column = tuple(b.row(t)[0] if b.cols else F(0) for t in range(b.rows))
    assert a.apply(column) == naive_product(a, Matrix(a.cols, 1, column)).entries


@given(hs.integers(0, 3).flatmap(lambda n: rational_matrices(n, n)), hs.integers(0, 5))
def test_power_matches_repeated_triple_loop(m, k):
    expected = Matrix.identity(m.rows)
    for _ in range(k):
        expected = naive_product(expected, m)
    assert m.power(k) == expected


@pytest.mark.parametrize("rows,inner,cols", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0), (1, 0, 1)])
def test_products_with_a_zero_dimension(rows, inner, cols):
    ones = Matrix(inner, cols, (F(1),) * (inner * cols))
    assert zeros(rows, inner) @ ones == zeros(rows, cols)
    assert zeros(rows, inner).apply((F(1),) * inner) == (F(0),) * rows


@hs.composite
def sparse_systems(draw):
    """(rows, ncols, keep): sparse integer rows, some repeated or scaled,
    over ncols columns, of which the first keep are kept (keep == ncols
    about half the time)."""
    ncols = draw(hs.integers(1, 7))
    keep = draw(hs.one_of(hs.just(ncols), hs.integers(0, ncols)))
    entry = hs.integers(-4, 4).filter(bool)
    rows = draw(hs.lists(hs.dictionaries(hs.integers(0, ncols - 1), entry, min_size=1, max_size=4), max_size=9))
    for i in draw(hs.lists(hs.integers(0, len(rows) - 1), max_size=4)) if rows else ():
        c = draw(hs.sampled_from([1, -1, 2, -3]))
        rows.append({col: c * v for col, v in rows[i].items()})
    return draw(hs.permutations(rows)), ncols, keep


@given(sparse_systems())
@example(([], 4, 4))
@example(([], 5, 2))
@example(([{0: 1}, {1: 2}, {2: -3}], 3, 3))  # full rank: an empty kernel
@example(([{0: 1, 3: 2}, {1: 1, 2: -1}, {1: 1, 2: -1}, {0: -2, 3: -4}, {1: 3, 2: -3}], 4, 2))
@example(([{2: 1, 0: 1}, {2: 1, 1: 1}, {2: 2, 1: 2}], 3, 2))
def test_projected_kernel_is_the_canonical_span_of_the_projected_kernel(system):
    rows, ncols, keep = system
    expected = list(canonical_span([v[:keep] for v in Echelon(rows).kernel(ncols)], keep))
    assert projected_kernel(rows, ncols, keep) == expected
    assert projected_kernel(reversed(rows), ncols, keep) == expected


def test_projected_kernel_frozen_examples():
    # x0 = x1 = -x2 projects onto the line through (1, 1); a repeat changes nothing.
    assert projected_kernel([{0: 1, 2: 1}, {1: 2, 2: 2}, {0: 1, 2: 1}], 3, 2) == [(F(1), F(1))]
    # x0 = 2 x1 leaves x2 free: the RREF rows lead at columns 0 and 2.
    assert projected_kernel([{0: 1, 1: -2}], 3, 3) == [(F(1), F(1, 2), F(0)), (F(0), F(0), F(1))]
