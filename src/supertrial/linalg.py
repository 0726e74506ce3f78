"""Dense exact linear algebra over the rationals.

Every axiom check and operator-space computation in this package reduces to
the primitives implemented here: reduced row echelon form, kernels in a fixed
canonical shape, span membership, and matrix inversion.  All arithmetic uses
``fractions.Fraction``, so results are exact and equality decisions never
involve tolerances.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError, SingularMapError

Scalar = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]

# The one rational string grammar: 'p' or 'p/q', surrounding blanks allowed.
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def frac(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p' / 'p/q' string (q > 0) to an exact Fraction.

    Raises:
        InputError: for any other value, including decimal and exponent
            strings and a zero denominator.
    """
    if isinstance(value, bool):
        raise InputError("booleans are not rational scalars")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputError(f"{value!r} is not a rational literal (use 'p' or 'p/q')")
        if "/" in text and int(text.split("/")[1]) == 0:
            raise InputError(f"zero denominator in {value!r}")
        return Fraction(text)
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable[RationalLike]) -> Vector:
    """Build an exact vector from any iterable of rational-like values."""
    return tuple(frac(v) for v in values)


def zero_vector(dim: int) -> Vector:
    return (_ZERO,) * dim


def unit_vector(dim: int, index: int) -> Vector:
    if not 0 <= index < dim:
        raise InputError(f"unit vector index {index} out of range for dimension {dim}")
    return tuple(_ONE if i == index else _ZERO for i in range(dim))


def add_vectors(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise InputError("vector length mismatch in addition")
    return tuple(a + b for a, b in zip(x, y))


def scale_vector(s: Fraction, x: Vector) -> Vector:
    return tuple(s * a for a in x)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major exact rational entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"matrix has {len(self.entries)} entries, expected {self.rows * self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise InputError("matrix rows have unequal lengths")
            flat.extend(frac(v) for v in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Iterable[RationalLike]) -> "Matrix":
        diag = [frac(v) for v in values]
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        start = i * self.cols
        return self.entries[start : start + self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Multiply this matrix by a coordinate column vector."""
        if len(v) != self.cols:
            raise InputError(f"cannot apply {self.rows}x{self.cols} matrix to length-{len(v)} vector")
        return tuple(
            sum((self.entry(i, j) * v[j] for j in range(self.cols)), _ZERO)
            for i in range(self.rows)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        flat: list[Fraction] = []
        for i in range(self.rows):
            for j in range(other.cols):
                flat.append(
                    sum((self.entry(i, k) * other.entry(k, j) for k in range(self.cols)), _ZERO)
                )
        return Matrix(self.rows, other.cols, tuple(flat))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s: RationalLike) -> "Matrix":
        f = frac(s)
        return Matrix(self.rows, self.cols, tuple(f * a for a in self.entries))

    def power(self, k: int) -> "Matrix":
        """Nonnegative integer power of a square matrix."""
        if self.rows != self.cols:
            raise InputError("matrix power requires a square matrix")
        if k < 0:
            raise InputError("matrix power requires a nonnegative exponent")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _require_same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns:
        A pair ``(reduced, pivot_columns)``.  The reduced matrix has leading
        ones, zeros above and below each pivot, and pivot columns listed in
        increasing order.  The form is the unique RREF of the row space, so
        it is deterministic regardless of row order in the input.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    pr = 0
    for col in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        pv = rows[pr][col]
        if pv != 1:
            rows[pr] = [x / pv for x in rows[pr]]
        for r in range(m.rows):
            if r != pr and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    flat = tuple(v for row in rows for v in row)
    return Matrix(m.rows, m.cols, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Canonical kernel basis from the free columns of the RREF.

    Each free column yields one basis vector carrying 1 in that coordinate,
    0 in every other free coordinate, and the negated reduced column in the
    pivot coordinates.  Vectors are ordered by free-column index.  Because
    the RREF is unique, any two matrices with the same kernel produce the
    same basis.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced.entry(i, free)
        basis.append(tuple(v))
    return basis


def canonical_span(vectors: Iterable[Sequence[Fraction]], dim: int) -> tuple[Vector, ...]:
    """Canonical basis of the span of the given vectors.

    Stacks the vectors as rows, reduces, and returns the nonzero RREF rows.
    The result depends only on the spanned subspace, so equal subspaces give
    identical bases.
    """
    rows = [tuple(v) for v in vectors]
    for row in rows:
        if len(row) != dim:
            raise InputError(f"span vector has length {len(row)}, expected {dim}")
    if not rows:
        return ()
    reduced, pivots = rref(Matrix.from_rows(rows))
    return tuple(reduced.row(i) for i in range(len(pivots)))


def solve_in_span(basis: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> list[Fraction] | None:
    """Express ``target`` as an exact combination of ``basis`` vectors.

    Returns:
        Coefficients (free coordinates set to zero) if the target lies in the
        span, otherwise ``None``.  An empty basis spans only the zero vector.
    """
    tgt = tuple(target)
    cols = len(basis)
    for b in basis:
        if len(b) != len(tgt):
            raise InputError("span basis vectors must match the target length")
    if cols == 0:
        return [] if all(a == 0 for a in tgt) else None
    aug_rows = [[basis[c][r] for c in range(cols)] + [tgt[r]] for r in range(len(tgt))]
    reduced, pivots = rref(Matrix.from_rows(aug_rows))
    if cols in pivots:
        return None
    coeffs = [_ZERO] * cols
    for i, p in enumerate(pivots):
        coeffs[p] = reduced.entry(i, cols)
    return coeffs


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises:
        SingularMapError: if the matrix is not invertible.
    """
    if m.rows != m.cols:
        raise InputError("only square matrices can be inverted")
    n = m.rows
    aug_rows = [list(m.row(i)) + [_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    reduced, pivots = rref(Matrix.from_rows(aug_rows))
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise SingularMapError(f"{n}x{n} matrix is singular")
    flat = tuple(reduced.entry(i, n + j) for i in range(n) for j in range(n))
    return Matrix(n, n, flat)
