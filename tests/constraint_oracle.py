"""Independent constraint assembly for the operator-space solvers.

The production solver walks structure-constant index patterns over
parity-restricted unknowns and merges two graded subproblems.  This
oracle instead expands every defining identity symbolically, coordinate
by coordinate, over full square-matrix unknowns for all blocks, and only
restricts to a parity pattern (via explicit forced-zero rows) when the
signed Leibniz rule makes the sign depend on the operator parity.
Agreement between the two assemblies is therefore a meaningful
cross-check.  The canonicalization is the oracle's own as well: a dense
``Fraction`` Gauss–Jordan elimination (``_rref``) gives the kernel basis by
free column and the reduced-row-echelon span, with no call into the
package's elimination, so a change to that kernel is checked against
something it does not compute.
"""

from __future__ import annotations

from fractions import Fraction

from supertrial.core import StructureTensor, TrialgebraSpec
from supertrial.linalg import Matrix, Vector
from supertrial.spaces import TwistPower

ZERO = Fraction(0)

BLOCKS = {"D": 1, "ZD": 1, "C": 1, "QC": 1, "QD": 2, "GD": 3}


class _System:
    """Linear forms over the flattened entries of the unknown block matrices."""

    def __init__(self, n: int, blocks: int) -> None:
        self.n = n
        self.blocks = blocks
        self.size = blocks * n * n
        self.rows: list[list[Fraction]] = []

    def form(self) -> list[Fraction]:
        return [ZERO] * self.size

    def var(self, block: int, i: int, j: int) -> int:
        return block * self.n * self.n + i * self.n + j

    def sym_apply(self, block: int, v) -> list[list[Fraction]]:
        """Coordinate forms of X_block(v) for a concrete vector v."""
        out = []
        for i in range(self.n):
            f = self.form()
            for m in range(self.n):
                if v[m]:
                    f[self.var(block, i, m)] += v[m]
            out.append(f)
        return out

    def add(self, forms) -> None:
        for f in forms:
            if any(f):
                self.rows.append(f)

    def solve_projected(self) -> list[Vector]:
        n = self.n
        return [sol[: n * n] for sol in _kernel(self.rows, self.size)]


def _rref(rows, ncols: int) -> dict[int, list[Fraction]]:
    """Gauss–Jordan elimination of dense rows: the nonzero rows of the
    reduced row echelon form, by pivot column.  Each is 1 at its pivot and
    0 at every other pivot column, so the result depends only on the row
    space."""
    pivots: dict[int, list[Fraction]] = {}
    support: dict[int, list[int]] = {}  # the nonzero columns of each pivot row
    for row in dict.fromkeys(tuple(r) for r in rows):
        row = list(row)
        for p, prow in pivots.items():
            f = row[p]
            if f:
                for c in support[p]:
                    row[c] -= f * prow[c]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [x * inv for x in row]
        cols = [c for c, x in enumerate(row) if x]
        for p, prow in pivots.items():
            f = prow[lead]
            if f:
                for c in cols:
                    prow[c] -= f * row[c]
                support[p] = [c for c, x in enumerate(prow) if x]
        pivots[lead], support[lead] = row, cols
    return dict(sorted(pivots.items()))


def _kernel(rows, ncols: int) -> list[Vector]:
    """Kernel basis by free column: 1 at the free column, 0 at the other
    free columns, minus the reduced column at the pivots."""
    pivots = _rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = Fraction(1)
        for p, prow in pivots.items():
            v[p] = -prow[free]
        basis.append(tuple(v))
    return basis


def _span(vectors, dim: int) -> tuple[Vector, ...]:
    """Canonical basis of a span: its reduced rows in pivot order."""
    assert all(len(v) == dim for v in vectors)
    return tuple(tuple(row) for row in _rref(vectors, dim).values())


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _sym_first(tensor: StructureTensor, symvec, w, size):
    """Forms of (symvec o w) with the symbolic vector in the first slot."""
    out = [[ZERO] * size for _ in range(tensor.dim)]
    for (i, j, k), c in tensor.items():
        if w[j]:
            coeff = c * w[j]
            row = symvec[i]
            tgt = out[k]
            for idx, val in enumerate(row):
                if val:
                    tgt[idx] += coeff * val
    return out


def _sym_second(tensor: StructureTensor, v, symvec, size):
    """Forms of (v o symvec) with the symbolic vector in the second slot."""
    out = [[ZERO] * size for _ in range(tensor.dim)]
    for (i, j, k), c in tensor.items():
        if v[i]:
            coeff = c * v[i]
            row = symvec[j]
            tgt = out[k]
            for idx, val in enumerate(row):
                if val:
                    tgt[idx] += coeff * val
    return out


def _col(m: Matrix, j: int) -> list[Fraction]:
    """Column j of m, read off its rows."""
    return [m.row(i)[j] for i in range(m.rows)]


def _commutation(sys_: _System, block: int, other: Matrix) -> None:
    n = sys_.n
    for l in range(n):
        applied = sys_.sym_apply(block, _col(other, l))
        for k in range(n):
            f = list(applied[k])
            for m in range(n):
                o = other.row(k)[m]
                if o:
                    f[sys_.var(block, m, l)] -= o
            if any(f):
                sys_.rows.append(f)


def _product_rows(
    sys_: _System,
    kind: str,
    tensor: StructureTensor,
    twist: Matrix,
    sign_of: dict[int, Fraction] | None,
) -> None:
    n = sys_.n
    units = [[Fraction(1) if k == i else ZERO for k in range(n)] for i in range(n)]
    t1_block = {"QD": 1, "GD": 2}.get(kind, 0)
    t3_block = 1 if kind == "GD" else 0
    for a in range(n):
        for b in range(n):
            prod = [tensor.constants.get((a, b, k), ZERO) for k in range(n)]
            t1 = sys_.sym_apply(t1_block, prod)
            sx_a = sys_.sym_apply(0, units[a])
            t2 = _sym_first(tensor, sx_a, _col(twist, b), sys_.size)
            sx_b = sys_.sym_apply(t3_block, units[b])
            t3 = _sym_second(tensor, _col(twist, a), sx_b, sys_.size)
            if kind == "D":
                sgn = sign_of[a] if sign_of is not None else Fraction(1)
                scaled = [[sgn * x for x in f] for f in t3]
                sys_.add(_sub(_sub(t1[k], t2[k]), scaled[k]) for k in range(n))
            elif kind == "C":
                sys_.add(_sub(t1[k], t2[k]) for k in range(n))
                sys_.add(_sub(t1[k], t3[k]) for k in range(n))
            elif kind == "QC":
                sys_.add(_sub(t2[k], t3[k]) for k in range(n))
            elif kind == "ZD":
                sys_.add(t1)
                plain = _sym_first(tensor, sx_a, units[b], sys_.size)
                sys_.add(plain)
            elif kind in ("QD", "GD"):
                sys_.add(_sub(_sub(t1[k], t2[k]), t3[k]) for k in range(n))
            else:
                raise ValueError(f"unknown kind {kind!r}")


def _solve(
    spec: TrialgebraSpec,
    kind: str,
    twist: Matrix,
    pattern: int | None,
    signed: bool,
) -> list[Vector]:
    n = spec.dimension
    sys_ = _System(n, BLOCKS[kind])
    for block in range(sys_.blocks):
        _commutation(sys_, block, spec.gamma.matrix)
        _commutation(sys_, block, spec.xi.matrix)
    sign_of = None
    if signed:
        sign_of = {
            a: Fraction(-1) if spec.basis.parities[a] else Fraction(1) for a in range(n)
        }
    for _, tensor in spec.products():
        _product_rows(sys_, kind, tensor, twist, sign_of)
    if pattern is not None:
        parities = spec.basis.parities
        for block in range(sys_.blocks):
            for i in range(n):
                for j in range(n):
                    if parities[i] != (parities[j] + pattern) % 2:
                        f = sys_.form()
                        f[sys_.var(block, i, j)] = Fraction(1)
                        sys_.rows.append(f)
    return sys_.solve_projected()


def oracle_space(
    spec: TrialgebraSpec, kind: str, t: TwistPower, koszul: bool = False
) -> tuple[Vector, ...]:
    """Canonical row-major vectorizations of the operator-space basis."""
    n = spec.dimension
    twist = t.matrix(spec)
    if kind == "D" and koszul:
        vecs = _solve(spec, kind, twist, pattern=0, signed=False)
        vecs += _solve(spec, kind, twist, pattern=1, signed=True)
        return _span(vecs, n * n)
    return _span(_solve(spec, kind, twist, pattern=None, signed=False), n * n)


def span_intersection(span_a, span_b, dim: int) -> tuple[Vector, ...]:
    """Canonical basis of the intersection of two spans, via the kernel of
    the stacked coefficient system sum x_i a_i - sum y_j b_j = 0."""
    a = [tuple(v) for v in span_a]
    b = [tuple(v) for v in span_b]
    if not a or not b:
        return ()
    rows = [
        [av[r] for av in a] + [-bv[r] for bv in b] for r in range(dim)
    ]
    members = []
    for sol in _kernel(rows, len(a) + len(b)):
        vec = [ZERO] * dim
        for c, av in zip(sol[: len(a)], a):
            if c:
                for r in range(dim):
                    vec[r] += c * av[r]
        members.append(tuple(vec))
    return _span(members, dim)
