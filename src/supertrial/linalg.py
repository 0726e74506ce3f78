"""Exact linear algebra over the rationals.

Every operator-space computation in this package reduces to the primitives
implemented here: reduced row echelon form, kernels in a fixed canonical
shape, span membership, and matrix inversion.  They take and return
Fractions but eliminate in integers (``numerators`` is the one conversion,
shared with ``core``), so results are exact and no decision uses a tolerance.
A constraint system is solved by ``projected_kernel``: one elimination,
over relabelled columns and rows fed by descending leading column, whose
echelon gives the canonical basis of the projected kernel directly.

All elimination goes through one kernel, ``Echelon``: a sparse incremental
fraction-free echelon (after Bareiss, Math. Comp. 22, 1968) whose rows are
``{column: int}`` dicts.  Constraint systems are sparse and mostly
redundant, so most incoming rows reduce to zero against a few pivots.  The
pivot rows are kept fully reduced (zero in every other pivot column) and
primitive rather than only triangular: a dependent row then clears in one
pass over the pivots it touches, entries never outgrow the RREF's own, and
the rows held are always the canonical RREF up to scale, divided out only
when ``rows`` or ``kernel`` is read.  A semi-echelon that defers the
back-substitution lets coefficients grow in the unreduced rows and was
several times slower on the operator-space systems.  ``Matrix`` stays a
small dense type for maps.  It converts its entries once, to integers over
one denominator (``Matrix.integral``, which the sweep, the operator-space
rows and the battery read too); products, powers and application all run
through one integer kernel, ``integer_product``, and build a Fraction only
for each entry of the result.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import InputError, SingularMapError

Scalar = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]
# A row given sparsely as {column: value} or densely as a sequence.
Row = Union[Mapping[int, Fraction], Sequence[Fraction]]

# The one rational string grammar: 'p' or 'p/q' in ASCII digits, surrounding
# ASCII blanks (_BLANKS) allowed; str.strip and \d would take any Unicode ones.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_BLANKS = " \t\n\r\v\f"


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
        match = _RATIONAL_RE.match(value.strip(_BLANKS))
        if not match:
            raise InputError(f"{value!r} is not a rational literal (use 'p' or 'p/q')")
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {value!r}") from None
        except ValueError:  # past the interpreter's int-string digit limit
            raise InputError("rational literal has too many digits") from None
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def numerators(values: Collection[Fraction | int]) -> tuple[int, list[int]]:
    """``(d, nums)``: d the lcm of the values' denominators, nums the values times d."""
    d = math.lcm(*[v.denominator for v in values])  # a generator here would fill the tuple free lists
    return d, [v.numerator * (d // v.denominator) for v in values]


def integer_product(x: Sequence[int], y: Sequence[int], rows: int, inner: int, cols: int) -> list[int]:
    """The row-major product of row-major integer matrices, rows x inner by inner x cols."""
    xrows = [x[i * inner : (i + 1) * inner] for i in range(rows)]  # a stepped range fails at inner = 0
    ycols = [y[j::cols] for j in range(cols)]
    return [sum(map(operator.mul, row, col)) for row in xrows for col in ycols]


def _fractions(nums: Iterable[int], d: int) -> Vector:
    return tuple(Fraction(v, d) if v else _ZERO for v in nums)


def _require_shape(matrix: "Matrix", rows: int, cols: int, label: str) -> None:
    """The one shape check of a matrix or map: raise unless it is rows x cols."""
    if matrix.rows != rows or matrix.cols != cols:
        raise InputError(f"{label} must be {rows}x{cols}, got {matrix.rows}x{matrix.cols}")


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
    def diagonal(cls, values: Iterable[RationalLike]) -> "Matrix":
        diag = [frac(v) for v in values]
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    def row(self, i: int) -> Vector:
        start = i * self.cols
        return self.entries[start : start + self.cols]

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Multiply this matrix by a coordinate column vector."""
        if len(v) != self.cols:
            raise InputError(f"cannot apply {self.rows}x{self.cols} matrix to length-{len(v)} vector")
        (d, x), (dv, y) = self.integral, numerators(v)
        return _fractions(integer_product(x, y, self.rows, self.cols, 1), d * dv)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        (d, x), (e, y) = self.integral, other.integral
        return Matrix(self.rows, other.cols, _fractions(integer_product(x, y, self.rows, self.cols, other.cols), d * e))

    def __add__(self, other: "Matrix") -> "Matrix":
        _require_shape(self, other.rows, other.cols, "operand")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        _require_shape(self, other.rows, other.cols, "operand")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def power(self, k: int) -> "Matrix":
        """Nonnegative integer power of a square matrix."""
        if self.rows != self.cols:
            raise InputError("matrix power requires a square matrix")
        if k < 0:
            raise InputError("matrix power requires a nonnegative exponent")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            base = base @ base if k else base
        return Matrix.identity(self.rows) if result is None else result

    @property
    def is_zero(self) -> bool:
        return not any(self.integral[1])

    @cached_property
    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.integral == other.integral

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.integral))

    @cached_property
    def integral(self) -> tuple[int, tuple[int, ...]]:
        """``numerators`` of the entries, converted once per matrix.  The lcm
        and the numerators are fixed by the entries, so equality, hashing and
        ``is_zero`` read this pair too.

        Raises:
            InputError: for an entry that is not an int or a Fraction.
        """
        for v in self.entries:
            if not isinstance(v, (int, Fraction)):
                raise InputError(f"matrix entry {v!r} is not an exact rational")
        d, nums = numerators(self.entries)
        return d, tuple(nums)


class Echelon:
    """Reduced row echelon form of a row space, grown one sparse row at a time.

    Each pivot row is the primitive integer multiple of its RREF row: a sparse
    ``{column: int}`` dict, positive in its pivot column, zero in every other
    pivot column, with no common factor.  Rows stay fully reduced, so an
    incoming row is reduced by one pass over the pivot columns it touches, and
    the rows held are the unique RREF of the span up to those scales, whatever
    order the rows came in.  Rows may be dicts or dense sequences of ints or
    Fractions (a row with a Fraction is scaled on entry by the lcm of its
    denominators); zeros are ignored.  Division happens only in ``rows`` and
    ``kernel``.
    """

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        self._rows: dict[int, dict[int, int]] = {}  # by pivot column
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def reduce(self, row: Row) -> dict[int, int]:
        """A nonzero integer multiple of the remainder of ``row`` after
        clearing every pivot column (the remainder is defined up to scale)."""
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        out = {c: v for c, v in items if v}
        if not all(type(v) is int for v in out.values()):
            out = dict(zip(out, numerators(out.values())[1]))
        pivots = [(self._rows[c], c, a) for c, a in out.items() if c in self._rows]
        # scale * out - sum of (a * scale / d) * pivot row clears them all at once.
        scale = math.lcm(*[p[c] // math.gcd(p[c], a) for p, c, a in pivots])
        if scale != 1:
            out = {c: v * scale for c, v in out.items()}
        for p, c, a in pivots:
            _subtract(out, a * scale // p[c], p)
        return out

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    def add(self, row: Row) -> bool:
        """Add a row to the span; True if it raised the rank."""
        rest = self.reduce(row)
        if not rest:
            return False
        col = min(rest)
        _divide(rest, math.gcd(*rest.values()) * (1 if rest[col] > 0 else -1))
        for p in self._rows.values():
            f = p.get(col)
            if f:
                # With d = rest[col], (d/g) * p - (f/g) * rest clears col; then p is made primitive.
                g = math.gcd(rest[col], f)
                _divide(p, g, rest[col])
                _subtract(p, f // g, rest)
                _divide(p, math.gcd(*p.values()))
        self._rows[col] = rest
        return True

    def rows(self) -> list[dict[int, Fraction]]:
        """The nonzero RREF rows in pivot order."""
        return [{c: Fraction(v, row[p]) for c, v in row.items()} for p, row in sorted(self._rows.items())]

    def kernel(self, ncols: int, start: int = 0) -> list[Vector]:
        """Canonical kernel basis over ``ncols`` columns, by free column.

        Each free column yields one vector carrying 1 in that coordinate,
        0 in every other free coordinate, and the negated reduced column in
        the pivot coordinates.  Because the RREF is unique, any two systems
        with the same kernel produce the same basis.  With ``start``, only
        columns from ``start`` on are read: the vectors are over those
        columns, from their free columns and the pivot rows among them.
        """
        basis = []
        for free in range(start, ncols):
            if free in self._rows:
                continue
            v = [_ZERO] * (ncols - start)
            v[free - start] = _ONE
            for p, row in self._rows.items():
                if free in row and p >= start:
                    v[p - start] = Fraction(-row[free], row[p])
            basis.append(tuple(v))
        return basis


def projected_kernel(rows: Iterable[Mapping[int, int]], ncols: int, keep: int) -> list[Vector]:
    """Canonical basis of the kernel of nonzero sparse integer rows over ``ncols``
    columns, projected onto the first ``keep``: what ``canonical_span`` of
    the projected ``Echelon.kernel`` gives, from one elimination.

    The columns are relabelled, the projected-away ones first and the kept
    ones last in reverse order.  ``Echelon`` pivots on a row's smallest
    column, so the reduced rows that pivot among the kept columns hold no
    other column and cut out the projection; by the reversal, each vector
    of their free-column kernel, read in the natural order, leads with its
    1, so these are the projection's RREF rows.  Repeated rows are dropped
    and the rest go in by descending leading relabelled column (a stable
    sort), which keeps the held rows' integers small.
    """
    drop = ncols - keep
    label = [*range(ncols - 1, drop - 1, -1), *range(drop)]
    distinct = {frozenset(row.items()): row for row in rows}.values()
    relabelled = [{label[c]: v for c, v in row.items()} for row in distinct]
    ech = Echelon(sorted(relabelled, key=min, reverse=True))
    return [v[::-1] for v in reversed(ech.kernel(ncols, drop))]


def _divide(row: dict[int, int], g: int, m: int = 1) -> None:
    """row = row * m / g in place; g divides every entry of row * m."""
    if g != m:
        for c, v in row.items():
            row[c] = v * m // g


def _subtract(row: dict[int, int], f: int, other: Mapping[int, int]) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _dense(row: Mapping[int, Fraction], ncols: int) -> Vector:
    return tuple(row.get(c, _ZERO) for c in range(ncols))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns:
        A pair ``(reduced, pivot_columns)``.  The reduced matrix has leading
        ones, zeros above and below each pivot, pivot columns listed in
        increasing order, and its zero rows last.  The form is the unique
        RREF of the row space, so it is deterministic regardless of row
        order in the input.
    """
    ech = Echelon(m.row(i) for i in range(m.rows))
    flat = [v for row in ech.rows() for v in _dense(row, m.cols)]
    flat += [_ZERO] * (m.rows * m.cols - len(flat))
    return Matrix(m.rows, m.cols, tuple(flat)), ech.pivots


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Canonical kernel basis from the free columns of the RREF (see
    ``Echelon.kernel``); vectors are ordered by free-column index."""
    return Echelon(m.row(i) for i in range(m.rows)).kernel(m.cols)


def canonical_span(vectors: Iterable[Sequence[Fraction]], dim: int) -> tuple[Vector, ...]:
    """Canonical basis of the span of the given vectors.

    Returns the nonzero RREF rows of the vectors stacked as rows.  The
    result depends only on the spanned subspace, so equal subspaces give
    identical bases.
    """
    ech = Echelon()
    for v in vectors:
        if len(v) != dim:
            raise InputError(f"span vector has length {len(v)}, expected {dim}")
        ech.add(v)
    return tuple(_dense(row, dim) for row in ech.rows())


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
    ech = Echelon([b[r] for b in basis] + [tgt[r]] for r in range(len(tgt)))
    if cols in ech.pivots:
        return None
    coeffs = [_ZERO] * cols
    for p, row in zip(ech.pivots, ech.rows()):
        coeffs[p] = row.get(cols, _ZERO)
    return coeffs


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises:
        SingularMapError: if the matrix is not invertible.
    """
    if m.rows != m.cols:
        raise InputError("only square matrices can be inverted")
    n = m.rows
    ech = Echelon({**dict(enumerate(m.row(i))), n + i: _ONE} for i in range(n))
    if ech.pivots != tuple(range(n)):
        raise SingularMapError(f"{n}x{n} matrix is singular")
    rows = ech.rows()
    return Matrix(n, n, tuple(rows[i].get(n + j, _ZERO) for i in range(n) for j in range(n)))
