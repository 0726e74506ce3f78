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

The twist is T = gamma^s xi^r.  Every space is solved separately on the
even-map and odd-map unknown patterns (sound because all products and both
structure maps are even, so the constraint systems are parity-homogeneous)
and the graded pieces are merged into one canonical basis.  Identical
inputs always produce bit-identical bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import LinearMap, StructureTensor, SuperBasis, TrialgebraSpec, center
from .errors import InputError, ParityError
from .linalg import Echelon, Matrix, Vector, canonical_span, unit_vector

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


def _add_entry(row: dict[int, Fraction], col: int, value: Fraction) -> None:
    row[col] = row[col] + value if col in row else value


def _commutation_rows(
    other: Matrix, var_of: dict[tuple[int, int], int], offset: int
) -> Iterator[dict[int, Fraction]]:
    """Sparse rows of X @ other - other @ X = 0 over the restricted unknowns."""
    n = other.rows
    for k in range(n):
        for l in range(n):
            row: dict[int, Fraction] = {}
            for m in range(n):
                a = other.entry(m, l)
                if a and (k, m) in var_of:
                    _add_entry(row, offset + var_of[(k, m)], a)
                b = other.entry(k, m)
                if b and (m, l) in var_of:
                    _add_entry(row, offset + var_of[(m, l)], -b)
            yield row


class _TermTables:
    """Per-product coefficient tables for the three Leibniz-style terms.

    With X the unknown map and c the structure tensor:
      term 1: X(e_a o e_b)        row coefficient at var (k, m) is c(a, b, m)
      term 2: X(e_a) o T(e_b)     coefficient at var (i, a) is (e_i o T(e_b))_k
      term 3: T(e_a) o X(e_b)     coefficient at var (i, b) is (T(e_a) o e_i)_k
    """

    def __init__(self, tensor: StructureTensor, twist: Matrix) -> None:
        n = tensor.dim
        units = [unit_vector(n, i) for i in range(n)]
        tcols = [twist.col(i) for i in range(n)]
        self.tensor = tensor
        self.right_by_twisted = [
            [tensor.bilinear(units[i], tcols[b]) for b in range(n)] for i in range(n)
        ]
        self.twisted_by_right = [
            [tensor.bilinear(tcols[a], units[i]) for i in range(n)] for a in range(n)
        ]

    def entries(self, term: int, a: int, b: int, k: int) -> list[tuple[tuple[int, int], Fraction]]:
        """(unknown position, coefficient) pairs of one term at cell (a, b, k)."""
        n = self.tensor.dim
        if term == 1:
            return [((k, m), self.tensor.coefficient(a, b, m)) for m in range(n)]
        if term == 2:
            return [((i, a), self.right_by_twisted[i][b][k]) for i in range(n)]
        return [((i, b), self.twisted_by_right[a][i][k]) for i in range(n)]


# The constraint rows of each kind at one (pair, coordinate) cell, each a
# list of (term, block, sign): terms as in _TermTables, term 0 being term 2
# at T = id; block 1 or 2 is a partner map of QD or GD.  Sign None is the
# third sign of the D rule, +1 for an odd map on odd e_a under the Koszul
# rule and -1 otherwise.
_KIND_ROWS: dict[str, tuple[tuple[tuple[int, int, int | None], ...], ...]] = {
    "D": (((1, 0, 1), (2, 0, -1), (3, 0, None)),),
    "C": (((1, 0, 1), (2, 0, -1)), ((1, 0, 1), (3, 0, -1))),
    "QC": (((2, 0, 1), (3, 0, -1)),),
    "ZD": (((1, 0, 1),), ((0, 0, 1),)),
    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, -1)),),
    "GD": (((1, 2, 1), (2, 0, -1), (3, 1, -1)),),
}


def _product_rows(
    kinds: Sequence[str],
    spec: TrialgebraSpec,
    twist: Matrix,
    parity: int,
    var_of: dict[tuple[int, int], int],
    koszul: bool,
) -> Iterator[dict[int, Fraction]]:
    """Sparse constraint rows of the kinds over every product and cell."""
    n = spec.dimension
    nv = len(var_of)
    parities = spec.basis.parities
    identity = Matrix.identity(n)
    for _, tensor in spec.products():
        twisted = _TermTables(tensor, twist)
        untwisted = twisted if twist == identity else _TermTables(tensor, identity)
        for kind, a, b, k in itertools.product(kinds, range(n), range(n), range(n)):
            third = 1 if koszul and parity == 1 and parities[a] == 1 else -1
            for terms in _KIND_ROWS[kind]:
                row: dict[int, Fraction] = {}
                for term, block, sign in terms:
                    negate = (third if sign is None else sign) < 0
                    table = untwisted if term == 0 else twisted
                    for pos, c in table.entries(term or 2, a, b, k):
                        if c and pos in var_of:
                            _add_entry(row, block * nv + var_of[pos], -c if negate else c)
                yield row


def _solve_kinds(
    kinds: Sequence[str],
    spec: TrialgebraSpec,
    twist: Matrix,
    parity: int,
    koszul: bool,
) -> list[Vector]:
    """Solve one graded subproblem; returns projected n*n vectorizations.

    A single multi-block kind solves jointly over its auxiliary blocks and
    projects onto the first; a list of single-block kinds intersects their
    constraint sets.
    """
    n = spec.dimension
    positions = _pattern_positions(spec.basis.parities, parity)
    nv = len(positions)
    if nv == 0:
        return []
    var_of = {pos: idx for idx, pos in enumerate(positions)}
    blocks = 1 + max(block for kind in kinds for terms in _KIND_ROWS[kind] for _, block, _ in terms)
    if blocks > 1 and len(kinds) != 1:
        raise InputError("joint-block kinds cannot be intersected")
    xi = spec.require_xi()

    system = Echelon()
    for block in range(blocks):
        for other in (spec.gamma.matrix, xi.matrix):
            for row in _commutation_rows(other, var_of, block * nv):
                system.add(row)
    for row in _product_rows(kinds, spec, twist, parity, var_of, koszul):
        system.add(row)

    vectors = []
    for sol in system.kernel(nv * blocks):
        full = [_ZERO] * (n * n)
        for idx, (i, j) in enumerate(positions):
            full[i * n + j] = sol[idx]
        vectors.append(tuple(full))
    return list(canonical_span(vectors, n * n))


def _maps_from_vectors(vectors: Iterable[Vector], basis: SuperBasis) -> tuple[LinearMap, ...]:
    n = basis.dimension
    return tuple(
        LinearMap.square(basis, Matrix(n, n, tuple(v))) for v in vectors
    )


def _build_space(kind: str, spec: TrialgebraSpec, t: TwistPower, koszul: bool = False) -> OperatorSpace:
    if kind not in SPACE_KINDS:
        raise InputError(f"unknown operator-space kind {kind!r}")
    n = spec.dimension
    twist = t.matrix(spec)
    even_vecs = _solve_kinds((kind,), spec, twist, 0, koszul)
    odd_vecs = _solve_kinds((kind,), spec, twist, 1, koszul)
    merged = canonical_span(even_vecs + odd_vecs, n * n)
    return OperatorSpace(
        kind=kind,
        twist=t,
        ambient_dim=n,
        basis=_maps_from_vectors(merged, spec.basis),
        even_basis=_maps_from_vectors(even_vecs, spec.basis),
        odd_basis=_maps_from_vectors(odd_vecs, spec.basis),
        koszul=koszul,
    )


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


def graded_split(space: OperatorSpace, basis: SuperBasis) -> tuple[tuple[LinearMap, ...], tuple[LinearMap, ...]]:
    """Intersect the space with the even-map and odd-map subspaces.

    Recomputed from the span rather than read off the stored sublists, so
    the result is meaningful for any operator space over this basis.
    """
    n = basis.dimension
    if space.ambient_dim != n:
        raise InputError("basis dimension does not match the operator space")
    span = [m.matrix.entries for m in space.basis]
    out: list[tuple[LinearMap, ...]] = []
    for parity in (0, 1):
        allowed = set(_pattern_positions(basis.parities, parity))
        forbidden = [
            i * n + j for i in range(n) for j in range(n) if (i, j) not in allowed
        ]
        if not span:
            out.append(())
            continue
        members = []
        for coeffs in Echelon([v[flat] for v in span] for flat in forbidden).kernel(len(span)):
            vec = [_ZERO] * (n * n)
            for c, v in zip(coeffs, span):
                if c:
                    for pos in range(n * n):
                        vec[pos] += c * v[pos]
            members.append(tuple(vec))
        out.append(_maps_from_vectors(canonical_span(members, n * n), basis))
    return out[0], out[1]


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


def _intersection_space(
    spec: TrialgebraSpec, t: TwistPower, kinds: tuple[str, ...], koszul: bool = False
) -> tuple[Vector, ...]:
    """Canonical basis of the intersection of single-block kinds, computed
    as the joint nullspace of both constraint sets rather than by
    intersecting the individual solution spans."""
    n = spec.dimension
    twist = t.matrix(spec)
    pieces: list[Vector] = []
    for parity in (0, 1):
        pieces += _solve_kinds(kinds, spec, twist, parity, koszul)
    return canonical_span(pieces, n * n)


@dataclass(frozen=True)
class BatteryLine:
    """One evaluated claim; cross-power claims carry a second exponent pair."""

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


def proposition_battery(spec: TrialgebraSpec, max_power: int = 1, koszul: bool = False) -> BatteryReport:
    """Evaluate the structural claims about the six spaces as exact subspace
    relations over all twist powers 0 <= s, r <= max_power.

    Per-power claims: the chains D in QD in GD, C in QD, QD + QC inside GD,
    the equality ZD = D intersect C, and (when the center is trivial)
    D intersect C = 0.  Cross-power claims test supercommutators of graded
    basis maps, and the composition C after D, for membership at the summed
    exponents.
    """
    if max_power < 0:
        raise InputError("max_power must be non-negative")
    n = spec.dimension
    powers = [(s, r) for s in range(max_power + 1) for r in range(max_power + 1)]
    needed = sorted(
        {(s, r) for s in range(2 * max_power + 1) for r in range(2 * max_power + 1)}
    )
    cache: dict[tuple[str, int, int], OperatorSpace] = {}
    for s, r in needed:
        t = TwistPower(s, r)
        for kind in SPACE_KINDS:
            cache[(kind, s, r)] = _build_space(kind, spec, t, koszul if kind == "D" else False)

    echelons: dict[tuple[str, int, int], Echelon] = {}

    def span_of(kind: str, s: int, r: int) -> Echelon:
        """The target span as an echelon, built once per (kind, s, r)."""
        key = (kind, s, r)
        if key not in echelons:
            echelons[key] = Echelon(m.matrix.entries for m in cache[key].basis)
        return echelons[key]

    center_trivial = not center(spec)

    lines: list[BatteryLine] = []

    def add(claim_id, s, r, s2, r2, passed, witness) -> None:
        lines.append(BatteryLine(claim_id, s, r, s2, r2, passed, witness))

    for s, r in powers:
        t = TwistPower(s, r)
        d_space = cache[("D", s, r)]
        qd_space = cache[("QD", s, r)]
        gd_space = cache[("GD", s, r)]
        c_space = cache[("C", s, r)]
        qc_space = cache[("QC", s, r)]
        zd_space = cache[("ZD", s, r)]

        res = space_contains(qd_space, d_space)
        add("chain-d-in-qd", s, r, None, None, res.contained, res.witness)
        res = space_contains(gd_space, qd_space)
        add("chain-qd-in-gd", s, r, None, None, res.contained, res.witness)
        res = space_contains(qd_space, c_space)
        add("c-in-qd", s, r, None, None, res.contained, res.witness)

        ok = True
        witness = None
        for sub in (qd_space, qc_space):
            res = space_contains(gd_space, sub)
            if not res.contained:
                ok = False
                witness = res.witness
        add("sum-qd-qc-in-gd", s, r, None, None, ok, witness)

        inter = _intersection_space(spec, t, ("D", "C"), koszul)
        zd_vecs = zd_space.vectorized()
        equal = inter == zd_vecs
        witness = None
        if not equal:
            inter_span, zd_span = Echelon(inter), Echelon(zd_vecs)
            outside = [v for v in zd_vecs if not inter_span.contains(v)]
            outside += [v for v in inter if not zd_span.contains(v)]
            if outside:
                witness = LinearMap.square(spec.basis, Matrix(n, n, tuple(outside[0])))
        add("zd-eq-d-cap-c", s, r, None, None, equal, witness)

        if center_trivial:
            trivial = len(inter) == 0
            witness = None
            if not trivial:
                witness = LinearMap.square(spec.basis, Matrix(n, n, tuple(inter[0])))
            add("trivial-center-d-cap-c", s, r, None, None, trivial, witness)
        else:
            add("trivial-center-d-cap-c", s, r, None, None, True, None)

    def bracket_claim(claim_id: str, left_kind: str, right_kind: str, target_kind: str) -> None:
        for s, r in powers:
            for s2, r2 in powers:
                target = span_of(target_kind, s + s2, r + r2)
                ok = True
                witness = None
                for f in cache[(left_kind, s, r)].graded_elements():
                    for g in cache[(right_kind, s2, r2)].graded_elements():
                        h = supercommutator(f, g)
                        if not target.contains(h.matrix.entries):
                            ok = False
                            witness = h
                            break
                    if not ok:
                        break
                add(claim_id, s, r, s2, r2, ok, witness)

    bracket_claim("bracket-d-c-in-c", "D", "C", "C")
    bracket_claim("bracket-qd-qc-in-qc", "QD", "QC", "QC")
    bracket_claim("bracket-qc-qc-in-qd", "QC", "QC", "QD")
    bracket_claim("bracket-d-zd-in-zd", "D", "ZD", "ZD")
    bracket_claim("bracket-d-d-in-d", "D", "D", "D")

    for s, r in powers:
        for s2, r2 in powers:
            target = span_of("D", s + s2, r + r2)
            ok = True
            witness = None
            for c_map in cache[("C", s, r)].basis:
                for d_map in cache[("D", s2, r2)].basis:
                    composed = c_map.matrix @ d_map.matrix
                    if not target.contains(composed.entries):
                        ok = False
                        witness = LinearMap.square(spec.basis, composed)
                        break
                if not ok:
                    break
            add("compose-c-d-in-d", s, r, s2, r2, ok, witness)

    ordered = sorted(
        lines,
        key=lambda ln: (
            ln.claim_id,
            ln.s,
            ln.r,
            -1 if ln.s2 is None else ln.s2,
            -1 if ln.r2 is None else ln.r2,
        ),
    )
    return BatteryReport(tuple(ordered))
