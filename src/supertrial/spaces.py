"""Derivation-type operator spaces computed by exact linear algebra.

Six kinds of operator subspaces of End(S) are supported, each cut out by
linear conditions on the matrix entries of an unknown map (and of one or
two auxiliary maps for the quasi and generalized kinds, which are then
projected away):

  D   twisted Leibniz rule plus commutation with gamma and xi
  QD  some partner map absorbs the Leibniz defect
  GD  triple variant with two partner maps
  ZD  kills all products and annihilates on the left, untwisted
  C   intertwines multiplication on both sides through the twist
  QC  balances left against right multiplication through the twist

The twist is T = gamma^s xi^r, and a space depends on (s, r) only through
T; ZD does not depend on it at all.  The proposition battery uses this to
solve each distinct space once, and only the (kind, s, r) its lines read.
It walks its grid once (see proposition_battery): on a regular input a
claim that holds at (0, 0) holds on every line and is built at no other T;
every other line is decided once.  It keeps one object per distinct space,
intersects D and C ("DC") once per pair of them, with one Zassenhaus
echelon per graded piece, and reads the center only when some D intersect
C is nonzero.
Every space is solved separately on the even-map and odd-map unknown
patterns (sound because all products and both structure maps are even, so
the constraint systems are parity-homogeneous).
Constraint rows are sparse integers, each read from one operator's table
at its lcm of denominators, per distinct product and distinct non-identity
structure map (equal operators give equal rows, and the identity commutes
with every map).  The parity-p piece assembles product rows only at the
cells (a, b, k) with p(k) = p(a) + p(b) + p, the only ones with any.  Its
commutation rows do not depend on T or the kind: one build, or one battery
call across its builds, assembles them once per parity and reads them at
each partner block's offset; the battery also computes each T once per
(s, r).  Each graded piece is one elimination,
``linalg.projected_kernel``, which drops repeated rows, relabels the
partner blocks of QD and GD before the map's own, feeds the rows by
descending leading column and reads the piece's canonical basis off the
echelon.  The pieces' supports are disjoint, so sorting their bases by
leading column merges them into the space's canonical basis, and identical
inputs always produce bit-identical bases.  The battery tests brackets and
compositions on integer numerators and builds Fractions only for witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import LinearMap, StructureTensor, SuperBasis, TrialgebraSpec, center, check_multiplicative
from .errors import InputError, ParityError, SingularMapError
from .linalg import Echelon, Matrix, Vector, integer_product, invert, projected_kernel
from .sweep import _distinct

SPACE_KINDS = ("D", "QD", "GD", "ZD", "C", "QC")

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TwistPower:
    """Exponents of the twist T = gamma^s xi^r; (0, 0) means the identity."""

    s: int
    r: int

    def __post_init__(self) -> None:
        if self.s < 0 or self.r < 0:
            raise InputError("twist exponents must be non-negative")

    def matrix(self, spec: TrialgebraSpec) -> Matrix:
        xi = spec.require_xi()
        return spec.gamma.matrix.power(self.s) @ xi.matrix.power(self.r)


@dataclass(frozen=True)
class GradedOperator:
    """A homogeneous linear map tagged with its parity."""

    map: LinearMap
    parity: int

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ParityError("operator parity must be 0 or 1")
        cls = self.map.parity_class
        if cls == "mixed":
            raise ParityError("graded operators must be parity-homogeneous")
        if not self.map.matrix.is_zero and cls != ("even", "odd")[self.parity]:
            raise ParityError(f"map is {cls} but was declared {('even', 'odd')[self.parity]}")


@dataclass(frozen=True)
class OperatorSpace:
    """Canonical basis of an operator subspace with its graded split.

    The basis holds maps whose row-major vectorizations form the reduced
    row echelon basis of the subspace; even_basis and odd_basis are the
    canonical bases of its graded pieces and together span the same space.
    """

    kind: str
    twist: TwistPower
    ambient_dim: int
    basis: tuple[LinearMap, ...]
    even_basis: tuple[LinearMap, ...]
    odd_basis: tuple[LinearMap, ...]
    koszul: bool = False

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def even_dimension(self) -> int:
        return len(self.even_basis)

    @property
    def odd_dimension(self) -> int:
        return len(self.odd_basis)

    def graded_elements(self) -> tuple[GradedOperator, ...]:
        evens = tuple(GradedOperator(m, 0) for m in self.even_basis)
        odds = tuple(GradedOperator(m, 1) for m in self.odd_basis)
        return evens + odds

    def vectorized(self) -> tuple[Vector, ...]:
        return tuple(m.matrix.entries for m in self.basis)


@dataclass(frozen=True)
class ContainmentResult:
    """Span-inclusion verdict; witness is a map outside the outer span."""

    contained: bool
    witness: LinearMap | None


def _pattern_positions(parities: Sequence[int], parity: int) -> list[tuple[int, int]]:
    """Matrix positions a parity-homogeneous map of this parity may occupy."""
    n = len(parities)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if parities[i] == (parities[j] + parity) % 2
    ]


def _nonzero(row: dict[int, int]) -> dict[int, int]:
    """The row without the entries that cancelled to zero."""
    return {c: v for c, v in row.items() if v} if 0 in row.values() else row


def _commutation_rows(other: Matrix, var_of: list[list[int | None]]) -> Iterator[dict[int, int]]:
    """Nonzero sparse rows of X @ other - other @ X = 0 over the first block's unknowns, in
    integers.  other is even, so only the (k, l) on the unknowns' pattern have rows."""
    n = other.rows
    _, m = other.integral
    for k, line in enumerate(var_of):
        for l in (l for l, here in enumerate(line) if here is not None):
            row: dict[int, int] = {}
            for j in range(n):
                for col, v in ((line[j], m[j * n + l]), (var_of[j][l], -m[k * n + j])):
                    if v:
                        row[col] = row.get(col, 0) + v
            if row := _nonzero(row):
                yield row


class _TermTables:
    """Per-product sparse integer coefficient tables for the Leibniz-style terms at one twist.

    With X the unknown map, c the structure tensor, and every coefficient
    scaled by d_c * d_T (the lcms of the denominators of c and of T):
      term 0: X(e_a) o e_b        coefficient at var (i, a) is c(i, b, k)
      term 1: X(e_a o e_b)        row coefficient at var (k, m) is c(a, b, m)
      term 2: X(e_a) o T(e_b)     coefficient at var (i, a) is (e_i o T(e_b))_k
      term 3: T(e_a) o X(e_b)     coefficient at var (i, b) is (T(e_a) o e_i)_k
    A term reads two of (a, b, k): (b, k) for terms 0 and 2, (a, b) for 1
    and (a, k) for 3.  ``terms[t][u][v]`` lists the nonzero (i or m,
    coefficient) pairs of term t at those two slots, so n^2 lists per term.
    Each constraint row reads one table, so it is one equation at one scale.
    Terms 0 and 1 read only the tensor, so a kind built from them alone does
    not depend on T.
    """

    def __init__(self, tensor: StructureTensor, twist: Matrix) -> None:
        n = tensor.dim
        _, index = tensor.by_pair
        d_t, t = twist.integral
        dense = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(4)]
        for i, line in enumerate(index):
            for j, cell in enumerate(line):
                for k, c in cell:
                    dense[0][j][k][i] = dense[1][i][j][k] = c * d_t
                    for b in range(n):
                        dense[2][b][k][i] += c * t[j * n + b]
                        dense[3][b][k][j] += t[i * n + b] * c
        self.terms = tuple([[[(i, c) for i, c in enumerate(cell) if c] for cell in line] for line in table] for table in dense)


def _twist_tables(spec: TrialgebraSpec, twist: Matrix) -> tuple[_TermTables, ...]:
    """The term tables of each distinct product of spec at one twist matrix."""
    return tuple(_TermTables(tensor, twist) for tensor in _distinct([t for _, t in spec.products()]))


# The constraint rows of each kind at one (pair, coordinate) cell, each a
# list of (term, block, sign): terms as in _TermTables; block 1 or 2 is a
# partner map of QD or GD.  Sign None is the third sign of the D rule, +1
# for an odd map on odd e_a under the Koszul rule and -1 otherwise.
_KIND_ROWS: dict[str, tuple[tuple[tuple[int, int, int | None], ...], ...]] = {
    "D": (((1, 0, 1), (2, 0, -1), (3, 0, None)),),
    "C": (((1, 0, 1), (2, 0, -1)), ((1, 0, 1), (3, 0, -1))),
    "QC": (((2, 0, 1), (3, 0, -1)),),
    "ZD": (((1, 0, 1),), ((0, 0, 1),)),
    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, -1)),),
    "GD": (((1, 2, 1), (2, 0, -1), (3, 1, -1)),),
}

# Whether a kind's rows read T (terms 2 and 3); a kind whose rows do not is one space at every T.
_READS_TWIST = {kind: any(term > 1 for terms in rows for term, _, _ in terms) for kind, rows in _KIND_ROWS.items()}


def _product_rows(
    kind: str,
    spec: TrialgebraSpec,
    tables: Sequence[_TermTables],
    parity: int,
    var_of: list[list[int | None]],
    koszul: bool,
) -> Iterator[dict[int, int]]:
    """Nonzero sparse integer constraint rows of the kind over every product and cell; var_of[i][j]
    is the column of unknown (i, j) in the first block, None off the parity pattern.  Products and
    T are even, so only the cells (a, b, k) with p(k) = p(a) + p(b) + parity have rows, and every
    unknown they read is on the pattern."""
    n = spec.dimension
    nv = sum(col is not None for line in var_of for col in line)
    by_col = list(zip(*var_of))
    parities = spec.basis.parities
    coordinates = [[k for k in range(n) if parities[k] == p] for p in (0, 1)]
    for table in tables:
        zero, one, two, three = table.terms
        for a, b in itertools.product(range(n), repeat=2):
            third = 1 if koszul and parity == 1 and parities[a] == 1 else -1
            for k in coordinates[(parities[a] + parities[b] + parity) % 2]:
                cell = ((zero[b][k], by_col[a]), (one[a][b], var_of[k]), (two[b][k], by_col[a]), (three[a][k], by_col[b]))
                for terms in _KIND_ROWS[kind]:
                    row: dict[int, int] = {}
                    for term, block, sign in terms:
                        pairs, lane = cell[term]
                        sign = third if sign is None else sign
                        for i, c in pairs:
                            col = lane[i] + block * nv
                            row[col] = row.get(col, 0) + sign * c
                    if row := _nonzero(row):
                        yield row


def _solve_kind(
    kind: str,
    spec: TrialgebraSpec,
    tables: Sequence[_TermTables],
    parity: int,
    koszul: bool,
    commutation: dict[int, list[dict[int, int]]],
) -> list[Vector]:
    """Solve one graded subproblem: the canonical basis of its projected n*n vectorizations.

    A multi-block kind solves jointly over its auxiliary blocks and projects
    onto the first.  Unknowns are numbered in row-major order, so the basis
    that ``projected_kernel`` returns stays canonical in n*n coordinates.
    The commutation rows depend on spec and parity only: commutation keeps
    them at block 0 per parity, and each block reads them at its offset.
    """
    n = spec.dimension
    positions = _pattern_positions(spec.basis.parities, parity)
    nv = len(positions)
    if nv == 0:
        return []
    index = {pos: idx for idx, pos in enumerate(positions)}
    var_of = [[index.get((i, j)) for j in range(n)] for i in range(n)]
    blocks = 1 + max(block for terms in _KIND_ROWS[kind] for _, block, _ in terms)
    if parity not in commutation:
        maps = [m for m in _distinct((spec.gamma.matrix, spec.require_xi().matrix)) if not m.is_identity]
        commutation[parity] = [row for m in maps for row in _commutation_rows(m, var_of)]
    shared = commutation[parity]
    partners = ([{c + block * nv: v for c, v in row.items()} for row in shared] for block in range(1, blocks))
    rows = itertools.chain(shared, *partners, _product_rows(kind, spec, tables, parity, var_of, koszul))
    return [tuple(_ZERO if col is None else sol[col] for line in var_of for col in line)
            for sol in projected_kernel(rows, nv * blocks, nv)]


def _maps_from_vectors(vectors: Iterable[Vector], basis: SuperBasis) -> tuple[LinearMap, ...]:
    n = basis.dimension
    return tuple(LinearMap.square(basis, Matrix(n, n, tuple(v))) for v in vectors)


def _graded_space(kind: str, t: TwistPower, basis: SuperBasis, even_vecs, odd_vecs, koszul: bool) -> OperatorSpace:
    """The space with these canonical graded pieces.  Their supports are disjoint, so sorting
    their maps by leading column merges them into the canonical basis, with the same map objects."""
    even, odd = _maps_from_vectors(even_vecs, basis), _maps_from_vectors(odd_vecs, basis)
    merged = sorted(even + odd, key=lambda m: next(i for i, x in enumerate(m.matrix.entries) if x))
    return OperatorSpace(kind, t, basis.dimension, tuple(merged), even, odd, koszul)


def _intersection_space(a: OperatorSpace, b: OperatorSpace, basis: SuperBasis) -> OperatorSpace:
    """a intersect b, one graded piece at a time, by Zassenhaus's method: with N = n*n, the
    rows (u | u) for u in a's piece and (w | 0) for w in b's reduce to rows that pivot at
    column N or past it, zero in the first half, whose second halves are the intersection's RREF."""
    nn = a.ambient_dim ** 2
    pieces = []
    for pair in ((a.even_basis, b.even_basis), (a.odd_basis, b.odd_basis)):
        ours, theirs = ([m.matrix.integral[1] for m in maps] for maps in pair)
        ech = Echelon([u + u for u in ours] + theirs)
        pieces.append([tuple(row.get(c, _ZERO) for c in range(nn, 2 * nn))
                       for p, row in zip(ech.pivots, ech.rows()) if p >= nn])
    return _graded_space(a.kind + b.kind, a.twist, basis, *pieces, a.koszul)


def _is_regular(spec: TrialgebraSpec) -> bool:
    """Whether no battery verdict depends on the twist powers: gamma = xi = id, or gamma and
    xi commute, are invertible and are multiplicative for all three products (see
    proposition_battery)."""
    gamma, xi = spec.gamma.matrix, spec.require_xi().matrix
    if gamma.is_identity and xi.is_identity:
        return True
    if gamma @ xi != xi @ gamma:
        return False
    try:
        invert(gamma), invert(xi)
    except SingularMapError:
        return False
    return check_multiplicative(spec).passed


def _build_space(
    kind: str, spec: TrialgebraSpec, t: TwistPower, koszul: bool = False, tables: Sequence[_TermTables] | None = None,
    commutation: dict[int, list[dict[int, int]]] | None = None,
) -> OperatorSpace:
    """Solve one kind at T; tables, when given, are _twist_tables at T, and commutation holds
    the commutation rows of spec's earlier builds in the same call (see _solve_kind)."""
    if kind not in SPACE_KINDS:
        raise InputError(f"unknown operator-space kind {kind!r}")
    if tables is None:
        tables = _twist_tables(spec, t.matrix(spec))
    commutation = {} if commutation is None else commutation
    even_vecs, odd_vecs = (_solve_kind(kind, spec, tables, parity, koszul, commutation) for parity in (0, 1))
    return _graded_space(kind, t, spec.basis, even_vecs, odd_vecs, koszul)


def derivation_space(spec: TrialgebraSpec, t: TwistPower, koszul: bool = False) -> OperatorSpace:
    """Maps commuting with gamma and xi that satisfy the T-twisted Leibniz
    rule for all three products.  With the koszul flag, odd maps pick up the
    sign (-1)^{|x|} on the second Leibniz term."""
    return _build_space("D", spec, t, koszul)


def quasiderivation_space(spec: TrialgebraSpec, t: TwistPower) -> OperatorSpace:
    """Maps whose Leibniz defect is absorbed by some partner map; solved
    jointly in (delta, partner) and projected onto delta."""
    return _build_space("QD", spec, t)


def generalized_derivation_space(spec: TrialgebraSpec, t: TwistPower) -> OperatorSpace:
    """Triple variant: partner maps on the right factor and on the product;
    solved jointly and projected onto the first component."""
    return _build_space("GD", spec, t)


def central_derivation_space(spec: TrialgebraSpec, t: TwistPower) -> OperatorSpace:
    """Maps that kill every product value and annihilate the algebra by
    left factors, plus commutation with gamma and xi.  The defining
    equations do not involve T, so the result is power-independent."""
    return _build_space("ZD", spec, t)


def centroid(spec: TrialgebraSpec, t: TwistPower) -> OperatorSpace:
    """Maps intertwining every product on both sides through T."""
    return _build_space("C", spec, t)


def quasicentroid(spec: TrialgebraSpec, t: TwistPower) -> OperatorSpace:
    """Maps balancing left against right twisted multiplication."""
    return _build_space("QC", spec, t)


def supercommutator(f: GradedOperator, g: GradedOperator) -> LinearMap:
    """[f, g] = f g - (-1)^{|f||g|} g f."""
    fg = f.map.matrix @ g.map.matrix
    gf = g.map.matrix @ f.map.matrix
    if f.parity and g.parity:
        result = fg + gf
    else:
        result = fg - gf
    return LinearMap(result, f.map.row_parities, g.map.col_parities)


def space_contains(outer: OperatorSpace, inner: OperatorSpace) -> ContainmentResult:
    """True iff every inner basis map lies in the span of the outer basis."""
    if outer.ambient_dim != inner.ambient_dim:
        raise InputError("operator spaces live over different ambient dimensions")
    span = Echelon(m.matrix.entries for m in outer.basis)
    for m in inner.basis:
        if not span.contains(m.matrix.entries):
            return ContainmentResult(contained=False, witness=m)
    return ContainmentResult(contained=True, witness=None)


class BatteryLine(NamedTuple):
    """One evaluated claim; cross-power claims carry a second exponent pair.
    A named tuple, so it is built in C."""

    claim_id: str
    s: int
    r: int
    s2: int | None
    r2: int | None
    passed: bool
    witness: LinearMap | None


@dataclass(frozen=True)
class BatteryReport:
    lines: tuple[BatteryLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def failed_lines(self) -> tuple[BatteryLine, ...]:
        return tuple(line for line in self.lines if not line.passed)


# The battery claims in report order: (claim id, relation, kinds read,
# power rule).  Relations:
#   contain   every later kind lies in the first; the witness is the first
#             outsider of the last failing kind
#   eq-dc     ZD equals the intersection of D and C; ZD's outsiders come first
#   trivial   D intersect C is zero, when the center is trivial
#   bracket   supercommutators of the first two kinds' graded bases lie in
#             the third
#   compose   compositions of the first two kinds' bases lie in the third
# Rule "base" reads every kind at (s, r); rule "summed" reads the first two
# at (s, r) and (s2, r2) and the third at (s + s2, r + r2).
_CLAIMS = (
    ("bracket-d-c-in-c", "bracket", ("D", "C", "C"), "summed"),
    ("bracket-d-d-in-d", "bracket", ("D", "D", "D"), "summed"),
    ("bracket-d-zd-in-zd", "bracket", ("D", "ZD", "ZD"), "summed"),
    ("bracket-qc-qc-in-qd", "bracket", ("QC", "QC", "QD"), "summed"),
    ("bracket-qd-qc-in-qc", "bracket", ("QD", "QC", "QC"), "summed"),
    ("c-in-qd", "contain", ("QD", "C"), "base"),
    ("chain-d-in-qd", "contain", ("QD", "D"), "base"),
    ("chain-qd-in-gd", "contain", ("GD", "QD"), "base"),
    ("compose-c-d-in-d", "compose", ("C", "D", "D"), "summed"),
    ("sum-qd-qc-in-gd", "contain", ("GD", "QD", "QC"), "base"),
    ("trivial-center-d-cap-c", "trivial", ("D", "C"), "base"),
    ("zd-eq-d-cap-c", "eq-dc", ("ZD", "D", "C"), "base"),
)


def _once(cache: dict, key, make):
    """cache[key], made by make() the first time the key is asked for."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _grid(max_power: int) -> list[tuple]:
    """Every battery line as (claim, s, r, s2, r2) in report order, claim an entry of _CLAIMS;
    s2 and r2 are None on a base claim.  Claim-major: each claim's first line is at (0, 0)."""
    base = [(s, r) for s in range(max_power + 1) for r in range(max_power + 1)]
    return [(claim, s, r, s2, r2) for claim in _CLAIMS
            for (s, r), (s2, r2) in itertools.product(base, base if claim[3] == "summed" else [(None, None)])]


def proposition_battery(spec: TrialgebraSpec, max_power: int = 1, koszul: bool = False) -> BatteryReport:
    """Evaluate the structural claims about the six spaces as exact subspace
    relations over all twist powers 0 <= s, r <= max_power.

    Per-power claims: the chains D in QD in GD, C in QD, QD + QC inside GD,
    the equality ZD = D intersect C, and (when the center is trivial)
    D intersect C = 0.  Cross-power claims test supercommutators of graded
    basis maps, and the composition C after D, for membership at the summed
    exponents.

    One walk over ``_grid`` decides the lines, with one decider
    (``_witnesses``) that shares builds and verdicts across the walk.  Each
    claim's first line, at (0, 0), is decided; on a regular input
    (``_is_regular``, asked at most once) a claim that held there passes
    every later line, with nothing built for it at another T; every other
    line is decided once.  On a regular input M = gamma^s xi^r is an even
    automorphism that is multiplicative and commutes with gamma and xi, so
    no verdict depends on the powers:
      - Spaces move with M: it carries each row at T, partner blocks and
        commutation rows included, to the same row at MT, and M^-1 carries
        it back, so X(M) = M . X(id) for every kind but ZD; containments,
        D cap C = M . (D cap C)(id) and its dimension hold at (s, r) iff at
        (0, 0).
      - M . ZD = ZD: for Z in ZD, (MZ)(a o b) = M(Z(a o b)) = 0 and
        (MZ)(a) o b = M(Z(a) o M^-1 b) = 0, and MZ commutes with gamma and
        xi; so ZD = D cap C at (s, r) iff at (0, 0).
      - Every space's maps commute with gamma and xi, so [M1 X, M2 Y] =
        M1 M2 [X, Y] and M1 X . M2 Y = M1 M2 . XY, and the summed target
        is M1 M2 . Z(id).
    With gamma = xi = id every T is the identity: later lines reuse the (0, 0) builds and verdicts.
    """
    if max_power < 0:
        raise InputError("max_power must be non-negative")
    decide, first, regular, lines = _witnesses(spec, koszul), {}, {}, []
    for line in _grid(max_power):
        (claim, _, _, _), s, r, s2, r2 = line
        if claim not in first:
            w = first[claim] = decide(line)
        else:
            w = None if first[claim] is None and _once(regular, 0, lambda: _is_regular(spec)) else decide(line)
        lines.append(BatteryLine(claim, s, r, s2, r2, w is None, w))
    return BatteryReport(tuple(lines))


def _witnesses(spec: TrialgebraSpec, koszul: bool) -> Callable[[tuple], LinearMap | None]:
    """The decider of spec's battery lines in this mode: it maps a line of ``_grid`` to its
    witness, or to None where the line passes.

    Each line reads its claim's kinds at its own powers, and each (kind, s, r)
    is looked up once and built on its first read: a kind whose rows read T
    once per distinct T = gamma^s xi^r, ZD once.  Equal spaces are kept as
    one object (the first built), so D intersect C is intersected once per
    pair of D and C objects, and each claim, target span, graded basis and
    product of basis maps is worked out once; membership reduces each target
    span once.  The memos live as long as the decider.  The center is
    computed once, and only if some D intersect C is nonzero.
    """
    n = spec.dimension
    twists, tables, commutation, built, by_value, caps, spaces, echelons, products, graded, verdicts = ({} for _ in range(11))

    def unique(made: OperatorSpace) -> OperatorSpace:
        return by_value.setdefault(made.vectorized(), made)

    def space(kind: str, s: int, r: int) -> OperatorSpace:
        """kind at (s, r), on its first read."""
        t, twist = _once(twists, (s, r), lambda: (TwistPower(s, r), TwistPower(s, r).matrix(spec)))
        key = (kind, twist) if _READS_TWIST[kind] else (kind,)
        if key not in built:
            built[key] = unique(_build_space(kind, spec, t, koszul and kind == "D",
                                             _once(tables, twist, lambda: _twist_tables(spec, twist)), commutation))
        spaces[(kind, s, r)] = built[key]
        return built[key]

    def cap(d: OperatorSpace, c: OperatorSpace) -> OperatorSpace:
        """D intersect C, once per pair of operand objects, which ``built`` keeps alive."""
        return _once(caps, (id(d), id(c)), lambda: unique(_intersection_space(d, c, spec.basis)))

    def product(f: LinearMap, g: LinearMap) -> list[int]:
        """f @ g on integer numerators: a nonzero multiple of the exact product, once per pair of values."""
        key = (f.matrix.integral[1], g.matrix.integral[1])
        return _once(products, key, lambda: integer_product(*key, n, n, n))

    def graded_elements(space: OperatorSpace) -> tuple[GradedOperator, ...]:
        return _once(graded, id(space), space.graded_elements)

    def bracket(f: GradedOperator, g: GradedOperator) -> list[int]:
        sign = 1 if f.parity and g.parity else -1
        return [a + sign * b for a, b in zip(product(f.map, g.map), product(g.map, f.map))]

    def outsider(target, items, row=lambda m: m.matrix.entries, witness=lambda m: m) -> LinearMap | None:
        """The witness of the first item whose row lies outside the target span, or None; each
        distinct target is reduced once.  Membership does not depend on the row's scale."""
        span = _once(echelons, id(target), lambda: Echelon(m.matrix.entries for m in target.basis))
        outside = next((item for item in items if not span.contains(row(*item))), None)
        return None if outside is None else witness(*outside)

    def contain(outer, *inners):
        """The first outsider of the last inner space that is not inside outer, or None."""
        found = (outsider(outer, zip(inner.basis)) for inner in reversed(inners) if inner is not outer)
        return next((w for w in found if w is not None), None)

    relations = {
        "contain": contain,
        "eq-dc": lambda zd, d, c: contain(cap(d, c), zd) or contain(zd, cap(d, c)),  # a witness map is never falsy
        "trivial": lambda d, c: (
            cap(d, c).basis[0] if cap(d, c).basis and not _once(verdicts, "center", lambda: center(spec)) else None),
        "bracket": lambda left, right, target: outsider(
            target, itertools.product(graded_elements(left), graded_elements(right)), bracket, supercommutator
        ),
        "compose": lambda left, right, target: outsider(
            target, itertools.product(left.basis, right.basis), product, LinearMap.compose
        ),
    }

    def decide(line: tuple) -> LinearMap | None:
        (_, relation, kinds, _), s, r, s2, r2 = line
        at = [(s, r)] * len(kinds) if s2 is None else [(s, r), (s2, r2), (s + s2, r + r2)]
        operands = [spaces.get((kind, *power)) or space(kind, *power) for kind, power in zip(kinds, at)]
        return _once(verdicts, (relation, *map(id, operands)), lambda: relations[relation](*operands))

    return decide
