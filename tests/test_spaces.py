"""Operator spaces: frozen dimensions, canonical bases, and battery claims.

Dimension values here were derived by hand from the defining equations and
are additionally cross-checked against the symbolic constraint oracle, so
a regression in either the solver or the oracle shows up as disagreement.
"""

import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import census
import pytest
from constraint_oracle import oracle_space, span_intersection
from generators import (
    census_000_012,
    census_001_001_221,
    census_011_012_102,
    dsum_singular,
    dual2_twisted_plus_grassmann2,
    nil3_odd_scaled,
    two_step,
)
from test_axiom_oracle import random_spec, twisted_fixture

from supertrial.constructions import direct_sum, yau_twist
from supertrial.core import (
    LinearMap,
    StructureTensor,
    TrialgebraSpec,
    center,
    check_bihom,
    check_multiplicative,
    identity_map,
)
from supertrial.errors import InputError, ParityError, SingularMapError
from supertrial.fixtures import FIXTURE_NAMES, builtin
from supertrial import linalg, spaces
from supertrial.linalg import Echelon, Matrix, canonical_span, invert, solve_in_span
from supertrial.spaces import (
    GradedOperator,
    OperatorSpace,
    TwistPower,
    _build_space,
    central_derivation_space,
    centroid,
    derivation_space,
    generalized_derivation_space,
    proposition_battery,
    quasicentroid,
    quasiderivation_space,
    space_contains,
    supercommutator,
)

F = Fraction
T00 = TwistPower(0, 0)

SPACE_FN = {
    "D": derivation_space,
    "QD": quasiderivation_space,
    "GD": generalized_derivation_space,
    "ZD": central_derivation_space,
    "C": centroid,
    "QC": quasicentroid,
}

EXPECTED_DIMS = {
    "zero2": {"D": 4, "QD": 4, "GD": 4, "ZD": 4, "C": 4, "QC": 4},
    "idem1": {"D": 0, "QD": 1, "GD": 1, "ZD": 0, "C": 1, "QC": 1},
    "dual2": {"D": 1, "QD": 3, "GD": 3, "ZD": 0, "C": 2, "QC": 2},
    "dual2-twisted": {"D": 1, "QD": 2, "GD": 2, "ZD": 0, "C": 1, "QC": 1},
    "grassmann2": {"D": 1, "QD": 3, "GD": 3, "ZD": 0, "C": 2, "QC": 2},
    "dsum-zero2-idem1": {"D": 4, "QD": 7, "GD": 7, "ZD": 4, "C": 5, "QC": 7},
}


class TestTwistPower:
    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            TwistPower(-1, 0)

    def test_matrix_is_gamma_power_times_xi_power(self):
        spec = builtin("dual2-twisted")
        assert TwistPower(2, 1).matrix(spec) == Matrix.diagonal([1, 8])

    def test_zero_power_is_identity(self):
        spec = builtin("dual2-twisted")
        assert T00.matrix(spec) == Matrix.identity(2)


class TestGradedOperator:
    def test_mixed_map_rejected(self):
        spec = builtin("grassmann2")
        m = LinearMap.square(spec.basis, Matrix.from_rows([[1, 1], [0, 0]]))
        with pytest.raises(ParityError):
            GradedOperator(m, 0)

    def test_declared_parity_must_match(self):
        spec = builtin("grassmann2")
        m = LinearMap.square(spec.basis, Matrix.from_rows([[0, 1], [0, 0]]))
        with pytest.raises(ParityError):
            GradedOperator(m, 0)
        assert GradedOperator(m, 1).parity == 1

    def test_zero_map_accepts_either_parity(self):
        spec = builtin("grassmann2")
        z = LinearMap.square(spec.basis, Matrix.diagonal([0, 0]))
        assert GradedOperator(z, 0).parity == 0
        assert GradedOperator(z, 1).parity == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("kind", sorted(SPACE_FN))
def test_frozen_dimensions(name, kind):
    space = SPACE_FN[kind](builtin(name), T00)
    assert space.dimension == EXPECTED_DIMS[name][kind]
    assert space.even_dimension + space.odd_dimension == space.dimension


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("kind", sorted(SPACE_FN))
def test_solver_matches_oracle_at_identity_twist(name, kind):
    spec = builtin(name)
    assert SPACE_FN[kind](spec, T00).vectorized() == oracle_space(spec, kind, T00)


@pytest.mark.parametrize("power", [(0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("kind", sorted(SPACE_FN))
def test_solver_matches_oracle_at_real_twist(power, kind):
    spec = builtin("dual2-twisted")
    t = TwistPower(*power)
    assert SPACE_FN[kind](spec, t).vectorized() == oracle_space(spec, kind, t)


def _dense4(second: str = "dual2"):
    """grassmann2 + a second summand conjugated by a fixed even unimodular
    map: every product gets dense, as on the benchmark's twisted ladder."""
    spec = direct_sum(builtin("grassmann2"), builtin(second))
    # Parities (0, 1, 0, 0): the even block on coordinates 0, 2, 3 has det 1.
    l = Matrix.from_rows([[1, 0, 1, 0], [0, -1, 0, 0], [2, 0, 3, 1], [1, 0, 2, 2]])
    return yau_twist(spec, LinearMap.square(spec.basis, l)).twisted


def _sparse6():
    return direct_sum(direct_sum(builtin("grassmann2"), builtin("dual2")), builtin("dual2"))


def _rational4():
    """dual2-twisted + grassmann2 conjugated by a non-unimodular even map:
    constants, gamma and xi all carry denominators, so constraint rows are
    scaled by more than one lcm."""
    spec = twisted_fixture()
    assert any(c.denominator > 1 for _, t in spec.products() for c in t.constants.values())
    assert any(v.denominator > 1 for v in spec.gamma.matrix.entries + spec.xi.matrix.entries)
    return spec


# gamma = xi = id on the first two, so their twist powers all act alike;
# the third and fourth have non-trivial twists and dense structure maps.
PAST_DIM3 = {
    "dense4": _dense4,
    "sparse6": _sparse6,
    "dense4-twisted": lambda: _dense4("dual2-twisted"),
    "rational4": _rational4,
}


KINDS_AND_KOSZUL_D = [(k, False) for k in sorted(SPACE_FN)] + [("D", True)]


@pytest.mark.parametrize("kind, koszul", KINDS_AND_KOSZUL_D)
@pytest.mark.parametrize("power", [(0, 0), (1, 1)])
@pytest.mark.parametrize("name", sorted(PAST_DIM3))
def test_solver_matches_oracle_past_dimension_three(name, power, kind, koszul):
    spec = PAST_DIM3[name]()
    assert spec.dimension > 3
    t = TwistPower(*power)
    assert _build_space(kind, spec, t, koszul).vectorized() == oracle_space(spec, kind, t, koszul)


def _sheared_zero2():
    """zero2's zero products with gamma = id and xi = [[1, 1], [0, 1]]: xi is
    neither the identity nor gamma.  Both coordinates are even, since an even
    xi cannot mix them."""
    return TrialgebraSpec.build("zero2-sheared", [0, 0], {}, {}, {}, Matrix.identity(2), [[1, 1], [0, 1]])


def _built(kind, spec, t, koszul=False):
    """_build_space, with ("D", "C") the intersection of the built D and C, as
    the battery intersects them."""
    if kind == ("D", "C"):
        return spaces._intersection_space(*(_build_space(k, spec, t, koszul) for k in kind), spec.basis)
    return _build_space(kind, spec, t, koszul)


def _two_step_sheared():
    """e0 o e0 = e1 o e1 = e2 for all three products, with gamma and xi two
    different shears of e0 and e1.  Every product of a product is zero, so the
    axioms hold for any commuting even gamma and xi.  Neither map is
    semisimple, so GD's partner maps must commute with them too: without
    those rows GD grows from 3 to 4 maps."""
    constants = {(0, 0, 2): 1, (1, 1, 2): 1}
    gamma, xi = [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    return TrialgebraSpec.build("two-step-sheared", [0, 0, 0], constants, constants, constants, gamma, xi)


def _bumped(spec):
    """spec with the last diagonal entry of gamma raised by 1: gamma and xi stay diagonal,
    invertible and commuting, and the axioms still hold when every product of a product is
    zero, but gamma is no longer multiplicative once a product reaches the last coordinate."""
    n = spec.dimension
    gamma = [[v + (i == j == n - 1) for j, v in enumerate(spec.gamma.matrix.row(i))] for i in range(n)]
    return TrialgebraSpec.build(spec.name + "-bumped", spec.basis.parities, spec.left.constants,
                                spec.right.constants, spec.perp.constants, gamma, spec.xi.matrix)


# Inputs with gamma != xi: their spaces read the commutation rows of xi.
GAMMA_NOT_XI = {
    "zero2-sheared": _sheared_zero2,
    "zero2-sheared+dual2-twisted": lambda: direct_sum(_sheared_zero2(), builtin("dual2-twisted")),
    "two-step-sheared": _two_step_sheared,
}


@pytest.mark.parametrize("kind, koszul", KINDS_AND_KOSZUL_D + [(("D", "C"), False)])
@pytest.mark.parametrize("power", [(0, 0), (1, 1)])
@pytest.mark.parametrize("name", sorted(GAMMA_NOT_XI))
def test_solver_matches_oracle_when_gamma_is_not_xi(name, power, kind, koszul):
    spec = GAMMA_NOT_XI[name]()
    assert spec.gamma != spec.xi and not spec.xi.matrix.is_identity
    assert check_bihom(spec).passed
    t = TwistPower(*power)
    if kind == ("D", "C"):
        expected = span_intersection(oracle_space(spec, "D", t), oracle_space(spec, "C", t), spec.dimension ** 2)
    else:
        expected = oracle_space(spec, kind, t, koszul)
    assert _built(kind, spec, t, koszul).vectorized() == expected


def _two_equal_products(field: str):
    """dense4-twisted with one product replaced by its left product less the
    constant at (0, 0, 0): two products equal and one distinct, which cuts
    each of D, C and GD below what the other two allow."""
    spec = _dense4("dual2-twisted")
    constants = dict(spec.left.constants)
    del constants[(0, 0, 0)]
    return replace(spec, **{field: StructureTensor.build(spec.dimension, constants)})


@pytest.mark.parametrize("kind", ["D", "C", "GD"])
@pytest.mark.parametrize("field", ["right", "perp"])
def test_two_equal_products_match_oracle(field, kind):
    spec = _two_equal_products(field)
    t = TwistPower(1, 1)
    assert _build_space(kind, spec, t).vectorized() == oracle_space(spec, kind, t)


def test_term_tables_per_distinct_product():
    """A fixture's three products are equal; random_spec's are not."""
    cases = ((builtin("grassmann2"), 1), (_two_equal_products("perp"), 2), (random_spec(0), 3))
    for spec, tables in cases:
        assert len(spaces._twist_tables(spec, TwistPower(1, 1).matrix(spec))) == tables


def test_each_system_gets_each_distinct_nonzero_row_once(monkeypatch):
    """Assembly sends two systems per build to projected_kernel and drops
    empty rows (all commutation rows when gamma = id); projected_kernel
    drops rows already sent to the same system, so its echelon gets each
    distinct row once.  D intersect C builds D and C, two systems each.
    The spaces are unchanged, as the oracle tests check."""
    spec = twisted_fixture()
    assert spec.gamma.matrix != Matrix.identity(spec.dimension)
    systems: list[tuple[list[dict], list[dict]]] = []
    real = spaces.projected_kernel

    class Recording(Echelon):
        def add(self, row):
            systems[-1][1].append(dict(row))
            return super().add(row)

    def recording(rows, ncols, keep):
        sent = [dict(row) for row in rows]
        systems.append((sent, []))
        return real(sent, ncols, keep)

    def distinct(rows):
        return {frozenset(row.items()) for row in rows}

    monkeypatch.setattr(spaces, "projected_kernel", recording)
    monkeypatch.setattr(linalg, "Echelon", Recording)
    for kind, koszul in KINDS_AND_KOSZUL_D:
        _build_space(kind, spec, TwistPower(1, 1), koszul)
    _built(("D", "C"), spec, TwistPower(1, 1))
    assert len(systems) == 2 * len(KINDS_AND_KOSZUL_D) + 4
    for sent, fed in systems:
        assert sent and all(row and all(row.values()) for row in sent)
        assert len(distinct(fed)) == len(fed) == len(distinct(sent))


def _dense_product_rows(kind, spec, tables, parity, var_of, koszul):
    """The kind's rows over every cell (a, b, k), skipping unknowns off the
    parity pattern and dropping empty rows."""
    n = spec.dimension
    nv = sum(col is not None for line in var_of for col in line)
    column = [[line[a] for line in var_of] for a in range(n)]
    for zero, one, two, three in tables:
        for a, b, k in itertools.product(range(n), repeat=3):
            cell = ((zero[b][k], column[a]), (one[a][b], var_of[k]), (two[b][k], column[a]), (three[a][k], column[b]))
            third = 1 if koszul and parity == 1 and spec.basis.parities[a] == 1 else -1
            for terms in spaces._KIND_ROWS[kind]:
                row = {}
                for term, block, sign in terms:
                    pairs, lane = cell[term]
                    for i, c in pairs:
                        if lane[i] is not None:
                            col = lane[i] + block * nv
                            row[col] = row.get(col, 0) + (third if sign is None else sign) * c
                if row := {col: v for col, v in row.items() if v}:
                    yield row


def _dense_commutation_rows(other, var_of):
    """The rows of X @ other - other @ X over every (k, l), skipping unknowns
    off the parity pattern and dropping empty rows."""
    n = other.rows
    m = other.integral[1]
    for k, l in itertools.product(range(n), repeat=2):
        row = {}
        for j in range(n):
            for col, v in ((var_of[k][j], m[j * n + l]), (var_of[j][l], -m[k * n + j])):
                if col is not None:
                    row[col] = row.get(col, 0) + v
        if row := {col: v for col, v in row.items() if v}:
            yield row


def _var_of(spec, parity):
    """The column of each unknown (i, j) of the parity's first block, as _solve_kind numbers them."""
    n = spec.dimension
    index = {pos: idx for idx, pos in enumerate(spaces._pattern_positions(spec.basis.parities, parity))}
    return [[index.get((i, j)) for j in range(n)] for i in range(n)]


_ROW_INPUTS = {
    **{name: functools.partial(builtin, name) for name in FIXTURE_NAMES},
    **GAMMA_NOT_XI,
    "rational4": _rational4,
}


@pytest.mark.parametrize("kind, koszul", KINDS_AND_KOSZUL_D)
@pytest.mark.parametrize("name", sorted(_ROW_INPUTS))
def test_parity_sparse_cells_give_the_dense_rows(name, kind, koszul):
    """Products, gamma, xi and so T are even, so the cells and (k, l) that
    _product_rows and _commutation_rows skip have no row: both yield exactly
    the nonempty rows of the dense loops over every cell, in the same order."""
    spec = _ROW_INPUTS[name]()
    tables = spaces._twist_tables(spec, TwistPower(1, 1).matrix(spec))
    for parity in (0, 1):
        var_of = _var_of(spec, parity)
        rows = list(spaces._product_rows(kind, spec, tables, parity, var_of, koszul))
        assert rows == list(_dense_product_rows(kind, spec, tables, parity, var_of, koszul))
        for other in (spec.gamma.matrix, spec.xi.matrix):
            assert list(spaces._commutation_rows(other, var_of)) == list(_dense_commutation_rows(other, var_of))


def test_parity_sparse_rows_are_not_vacuous():
    """The inputs of test_parity_sparse_cells_give_the_dense_rows reach product
    and commutation rows in both parities, and those of a xi that is not gamma."""
    cases = [("rational4", 0, "gamma"), ("rational4", 1, "gamma"), ("zero2-sheared+dual2-twisted", 0, "xi")]
    for name, parity, field in cases:
        spec = _ROW_INPUTS[name]()
        tables = spaces._twist_tables(spec, TwistPower(1, 1).matrix(spec))
        var_of = _var_of(spec, parity)
        assert list(spaces._product_rows("GD", spec, tables, parity, var_of, False))
        assert list(spaces._commutation_rows(getattr(spec, field).matrix, var_of))


def test_a_build_eliminates_once_per_graded_piece(monkeypatch):
    """_build_space reads each piece's canonical basis off projected_kernel
    and merges the pieces by sort, never eliminating again."""

    def forbidden(*args):
        raise AssertionError("canonical_span called during a build")

    monkeypatch.setattr(spaces, "canonical_span", forbidden, raising=False)  # guards a later import too
    monkeypatch.setattr(linalg, "canonical_span", forbidden)
    spec = twisted_fixture()
    cases = KINDS_AND_KOSZUL_D + [(("D", "C"), False)]
    built = [_built(kind, spec, TwistPower(1, 1), koszul) for kind, koszul in cases]
    assert any(space.even_basis and space.odd_basis for space in built)


def _unitriangular_product(parities) -> Matrix:
    """An even integer map, lower times upper unitriangular on each parity
    block: determinant 1, so its inverse is integer too."""
    n = len(parities)

    def triangle(lower):
        return Matrix.from_rows([
            [1 if i == j else (i + 2 * j) % 5 - 2 if parities[i] == parities[j] and (i > j) == lower else 0
             for j in range(n)]
            for i in range(n)
        ])

    return triangle(True) @ triangle(False)


@functools.cache
def _conjugated6():
    """dual2-twisted + grassmann2 + zero2 (gamma and xi not the identity)
    and its conjugate L.A by an even unimodular L, with L and L^-1."""
    spec = direct_sum(direct_sum(builtin("dual2-twisted"), builtin("grassmann2")), builtin("zero2"))
    l = _unitriangular_product(spec.basis.parities)
    return spec, yau_twist(spec, LinearMap.square(spec.basis, l)).twisted, l, invert(l)


@pytest.mark.parametrize("kind, koszul", KINDS_AND_KOSZUL_D)
@pytest.mark.parametrize("power", [(0, 0), (1, 1)])
def test_conjugation_carries_every_space(power, kind, koszul):
    """X(L.A) = L X(A) L^-1 as spans, at dimension 6 on a dense conjugate
    where the constraint oracle is too slow."""
    spec, conj, l, linv = _conjugated6()
    assert spec.dimension == 6
    assert sum(len(t.constants) for _, t in conj.products()) > 5 * sum(len(t.constants) for _, t in spec.products())
    t = TwistPower(*power)
    moved = [(l @ m.matrix @ linv).entries for m in _build_space(kind, spec, t, koszul).basis]
    assert moved
    assert _build_space(kind, conj, t, koszul).vectorized() == canonical_span(moved, 36)


class TestDerivationDetails:
    def test_dual2_basis_kills_unit_fixes_nilpotent(self):
        space = derivation_space(builtin("dual2"), T00)
        assert space.vectorized() == ((F(0), F(0), F(0), F(1)),)

    def test_identity_in_centroid_at_identity_twist(self):
        for name in FIXTURE_NAMES:
            spec = builtin(name)
            space = centroid(spec, T00)
            flat = Matrix.identity(spec.dimension).entries
            assert solve_in_span(list(space.vectorized()), flat) is not None

    def test_grassmann2_unsigned_rule_has_no_odd_part(self):
        space = derivation_space(builtin("grassmann2"), T00)
        assert (space.even_dimension, space.odd_dimension) == (1, 0)
        assert space.vectorized() == ((F(0), F(0), F(0), F(1)),)

    def test_grassmann2_signed_rule_gains_odd_direction(self):
        space = derivation_space(builtin("grassmann2"), T00, koszul=True)
        assert space.koszul
        assert (space.even_dimension, space.odd_dimension) == (1, 1)
        assert space.odd_basis[0].matrix == Matrix.from_rows([[0, 1], [0, 0]])
        assert space.vectorized() == oracle_space(builtin("grassmann2"), "D", T00, koszul=True)

    def test_signed_rule_no_op_on_all_even_basis(self):
        spec = builtin("dual2-twisted")
        plain = derivation_space(spec, T00).vectorized()
        signed = derivation_space(spec, T00, koszul=True).vectorized()
        assert plain == signed


class TestCentralDerivations:
    def test_twist_power_does_not_matter(self):
        spec = direct_sum(builtin("zero2"), builtin("dual2-twisted"))
        reference = central_derivation_space(spec, T00).vectorized()
        assert len(reference) == 4
        for power in ((0, 1), (1, 0), (1, 1)):
            assert central_derivation_space(spec, TwistPower(*power)).vectorized() == reference

    def test_sits_inside_derivations_on_corpus(self):
        for name in FIXTURE_NAMES:
            spec = builtin(name)
            res = space_contains(derivation_space(spec, T00), central_derivation_space(spec, T00))
            assert res.contained


def recomputed_split(space, basis):
    """The even-map and odd-map pieces of a space, recomputed from its whole
    basis: the combinations that vanish off each parity pattern, in the
    canonical form ``Echelon`` gives their span."""
    n = basis.dimension
    vecs = [m.matrix.entries for m in space.basis]
    pieces = []
    for parity in (0, 1):
        forbidden = [i * n + j for i in range(n) for j in range(n) if (basis.parities[i] + basis.parities[j]) % 2 != parity]
        coeffs = Echelon([v[p] for v in vecs] for p in forbidden).kernel(len(vecs))
        members = Echelon([sum(c * v[p] for c, v in zip(cs, vecs)) for p in range(n * n)] for cs in coeffs)
        pieces.append(tuple(tuple(row.get(p, F(0)) for p in range(n * n)) for row in members.rows()))
    return pieces


class TestGradedSplit:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("kind", sorted(SPACE_FN))
    def test_recomputed_split_matches_stored(self, name, kind):
        spec = builtin(name)
        space = SPACE_FN[kind](spec, T00)
        even, odd = recomputed_split(space, spec.basis)
        assert even == tuple(m.matrix.entries for m in space.even_basis)
        assert odd == tuple(m.matrix.entries for m in space.odd_basis)


class TestSupercommutator:
    def test_even_self_bracket_vanishes(self):
        spec = builtin("dual2")
        f = GradedOperator(identity_map(spec.basis), 0)
        assert supercommutator(f, f).matrix.is_zero

    def test_even_even_is_plain_commutator(self):
        spec = builtin("dual2")
        a = GradedOperator(LinearMap.square(spec.basis, Matrix.from_rows([[0, 1], [0, 0]])), 0)
        b = GradedOperator(LinearMap.square(spec.basis, Matrix.diagonal([1, 2])), 0)
        expected = a.map.matrix @ b.map.matrix - b.map.matrix @ a.map.matrix
        assert supercommutator(a, b).matrix == expected

    def test_odd_odd_is_anticommutator(self):
        spec = builtin("zero2")
        swap = GradedOperator(LinearMap.square(spec.basis, Matrix.from_rows([[0, 1], [1, 0]])), 1)
        assert supercommutator(swap, swap).matrix == Matrix.diagonal([2, 2])

    def test_odd_even_uses_minus_sign(self):
        spec = builtin("zero2")
        odd = GradedOperator(LinearMap.square(spec.basis, Matrix.from_rows([[0, 1], [0, 0]])), 1)
        even = GradedOperator(identity_map(spec.basis), 0)
        assert supercommutator(odd, even).matrix.is_zero


class TestSpaceContains:
    def test_strict_inclusion_with_witness(self):
        spec = builtin("idem1")
        d = derivation_space(spec, T00)
        qd = quasiderivation_space(spec, T00)
        assert space_contains(qd, d).contained
        res = space_contains(d, qd)
        assert not res.contained
        assert res.witness is not None
        assert res.witness.matrix == Matrix.identity(1)

    def test_witness_is_first_outside_map_in_basis_order(self):
        spec = builtin("dsum-zero2-idem1")
        d = derivation_space(spec, T00)
        qd = quasiderivation_space(spec, T00)
        span = list(d.vectorized())
        outside = [i for i, m in enumerate(qd.basis) if solve_in_span(span, m.matrix.entries) is None]
        assert (len(qd.basis), outside) == (7, [2, 5, 6])
        res = space_contains(d, qd)
        assert not res.contained
        assert res.witness is qd.basis[2]

    def test_ambient_mismatch(self):
        with pytest.raises(InputError):
            space_contains(derivation_space(builtin("idem1"), T00),
                           derivation_space(builtin("dual2"), T00))


class TestIntersection:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_joint_solve_matches_span_intersection(self, name):
        spec = builtin(name)
        joint = _built(("D", "C"), spec, T00).vectorized()
        via_spans = span_intersection(
            oracle_space(spec, "D", T00), oracle_space(spec, "C", T00), spec.dimension ** 2
        )
        assert joint == via_spans


class TestPropositionBattery:
    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            proposition_battery(builtin("idem1"), max_power=-1)

    def test_line_inventory_at_power_zero(self):
        report = proposition_battery(builtin("idem1"), max_power=0)
        assert len(report.lines) == 12
        assert report.passed
        per_power = {ln.claim_id for ln in report.lines if ln.s2 is None}
        cross = {ln.claim_id for ln in report.lines if ln.s2 is not None}
        assert per_power == {
            "chain-d-in-qd",
            "chain-qd-in-gd",
            "c-in-qd",
            "sum-qd-qc-in-gd",
            "zd-eq-d-cap-c",
            "trivial-center-d-cap-c",
        }
        assert cross == {
            "bracket-d-c-in-c",
            "bracket-qd-qc-in-qc",
            "bracket-qc-qc-in-qd",
            "bracket-d-zd-in-zd",
            "bracket-d-d-in-d",
            "compose-c-d-in-d",
        }

    def test_line_count_at_power_one(self):
        report = proposition_battery(builtin("idem1"), max_power=1)
        assert len(report.lines) == 120

    def test_lines_sorted_and_witness_free_when_green(self):
        report = proposition_battery(builtin("dual2"), max_power=1)
        keys = [
            (ln.claim_id, ln.s, ln.r, -1 if ln.s2 is None else ln.s2, -1 if ln.r2 is None else ln.r2)
            for ln in report.lines
        ]
        assert keys == sorted(keys)
        assert report.passed
        assert all(ln.witness is None for ln in report.lines)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_corpus_is_fully_green(self, name):
        report = proposition_battery(builtin(name), max_power=1)
        assert report.failed_lines() == ()

    def test_trivial_center_claim_bites_only_when_center_trivial(self):
        assert center(builtin("zero2"))
        line = next(
            ln
            for ln in proposition_battery(builtin("zero2"), max_power=0).lines
            if ln.claim_id == "trivial-center-d-cap-c"
        )
        assert line.passed
        spec = builtin("dual2")
        assert not center(spec)
        inter = _built(("D", "C"), spec, T00).vectorized()
        assert inter == ()

    def test_koszul_flag_reports_honest_chain_break(self):
        """The signed-rule odd derivation on grassmann2 is not an unsigned
        quasiderivation (its defect on the odd-odd pair cannot be matched by
        any partner map), so the chain claim must fail with that witness."""
        report = proposition_battery(builtin("grassmann2"), max_power=0, koszul=True)
        failed = report.failed_lines()
        assert [ln.claim_id for ln in failed] == ["chain-d-in-qd"]
        assert failed[0].witness.matrix == Matrix.from_rows([[0, 1], [0, 0]])

    @staticmethod
    def nil3_odd():
        """e0 o e1 = e2 in all three products on parities (0, 1, 1), with
        gamma = xi = id: valid, but e1 o e0 = 0, so not supercommutative."""
        constants = {(0, 1, 2): 1}
        ident = Matrix.identity(3)
        return TrialgebraSpec.build("nil3-odd", [0, 1, 1], constants, constants, constants, ident, ident)

    def test_nil3_odd_is_a_valid_algebra(self):
        spec = self.nil3_odd()
        assert check_bihom(spec).passed
        assert check_multiplicative(spec).passed

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
    def test_nil3_odd_passes_the_battery(self):
        """The claim ZD = D n C fails on this valid input (its four
        ``zd-eq-d-cap-c`` lines of 120); once ZD's rows are settled this
        strict xfail turns red and is flipped to a plain test."""
        assert proposition_battery(self.nil3_odd(), 1).passed


_PER_POWER_CLAIMS = (
    "c-in-qd", "chain-d-in-qd", "chain-qd-in-gd",
    "sum-qd-qc-in-gd", "trivial-center-d-cap-c", "zd-eq-d-cap-c",
)
_CROSS_CLAIMS = (
    "bracket-d-c-in-c", "bracket-d-d-in-d", "bracket-d-zd-in-zd",
    "bracket-qc-qc-in-qd", "bracket-qd-qc-in-qc", "compose-c-d-in-d",
)


def _golden_lines(max_power, failures):
    """Every battery line in report order as (claim, s, r, s2, r2, passed,
    witness matrix); a line passes with no witness unless listed in
    failures, a mapping from its key to the witness matrix rows."""
    powers = [(s, r) for s in range(max_power + 1) for r in range(max_power + 1)]
    keys = [(c, s, r, None, None) for c in _PER_POWER_CLAIMS for s, r in powers]
    keys += [(c, s, r, s2, r2) for c in _CROSS_CLAIMS for s, r in powers for s2, r2 in powers]
    keys.sort(key=lambda k: (k[0], k[1], k[2], -1 if k[3] is None else k[3], -1 if k[4] is None else k[4]))
    return [
        (*key, key not in failures,
         None if key not in failures else Matrix.from_rows(failures[key]))
        for key in keys
    ]


def _battery_lines(report):
    return [
        (ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed,
         None if ln.witness is None else ln.witness.matrix)
        for ln in report.lines
    ]


class TestBatteryGolden:
    """Full Koszul batteries pinned line by line, witnesses included."""

    def test_twisted_direct_sum_at_power_one(self):
        # dual2-twisted has T = diag(1, 2^(s+r)), so its nine summed powers
        # share five distinct twists and non-identity twists repeat.
        spec = direct_sum(builtin("dual2-twisted"), builtin("grassmann2"))
        odd_shift = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
        failures = {("chain-d-in-qd", s, r, None, None): odd_shift for s in (0, 1) for r in (0, 1)}
        report = proposition_battery(spec, 1, koszul=True)
        assert _battery_lines(report) == _golden_lines(1, failures)

    def test_grassmann2_at_power_two(self):
        odd_shift = [[0, 1], [0, 0]]
        failures = {("chain-d-in-qd", s, r, None, None): odd_shift for s in range(3) for r in range(3)}
        report = proposition_battery(builtin("grassmann2"), 2, koszul=True)
        assert _battery_lines(report) == _golden_lines(2, failures)


def test_operator_space_reports_shapes():
    space = quasiderivation_space(builtin("grassmann2"), T00)
    assert isinstance(space, OperatorSpace)
    assert space.ambient_dim == 2
    graded = space.graded_elements()
    assert [g.parity for g in graded] == [0] * space.even_dimension + [1] * space.odd_dimension


# Even on parities (0, 0, 0, 1), invertible and not unimodular.
_RATIONAL_CONJUGATOR = [[F(2, 3), 0, F(1, 4), 0], [1, F(1, 2), 0, 0], [0, F(1, 5), 3, 0], [0, 0, 0, F(7, 6)]]


@pytest.mark.parametrize("koszul", [False, True])
def test_battery_pattern_survives_rational_conjugation(koszul):
    """Conjugating by an even isomorphism carries every space, bracket and
    composition along, so each line passes or fails as on the original;
    the conjugated rows carry denominators the original's do not."""
    spec = direct_sum(builtin("dual2-twisted"), builtin("grassmann2"))
    conj = yau_twist(spec, LinearMap.square(spec.basis, Matrix.from_rows(_RATIONAL_CONJUGATOR))).twisted
    assert any(v.denominator > 1 for v in conj.gamma.matrix.entries)
    pattern = [line[:6] for line in _battery_lines(proposition_battery(spec, 1, koszul))]
    assert [line[:6] for line in _battery_lines(proposition_battery(conj, 1, koszul))] == pattern
    assert any(not line[5] for line in pattern) == koszul


class TestBatteryPlan:
    @pytest.mark.parametrize(
        "name, max_power, builds, solves",
        [("idem1", 1, 5, 1), ("dual2-twisted", 1, 5, 1), ("dual2-twisted", 2, 5, 1),
         ("two-step-0-n4-bumped", 1, 37, 4), ("two-step-0-n4-bumped", 2, 101, 9),
         ("two-step-0-n3-bumped", 1, 37, 3), ("two-step-0-n3-bumped", 2, 101, 5)],
    )
    def test_each_distinct_space_solved_once(self, monkeypatch, name, max_power, builds, solves):
        """Spaces depend on (s, r) only through T = gamma^s xi^r, ZD not at
        all, and GD is never read: every containment of GD is a theorem.  D
        intersect C is intersected once per distinct pair of D and C operands,
        and no build solves it from constraint rows: each build solves its own
        kind's two graded pieces.  dual2-twisted is regular and its claims hold
        at T = id, so each kind is solved once, there, and D and C are
        intersected once; the bumped two-step inputs are not multiplicative, so
        each distinct T is solved, and on n = 3 distinct T give equal D and C,
        intersected once."""
        spec = _BATTERY_INPUTS[name]()
        built, intersected, systems = [], [], []
        real_build, real_intersect, real_solve = spaces._build_space, spaces._intersection_space, spaces._solve_kind

        def spy_build(kind, spec, t, *rest):
            built.append((kind, t))
            return real_build(kind, spec, t, *rest)

        def spy_intersect(a, b, basis):
            intersected.append((a.vectorized(), b.vectorized()))
            return real_intersect(a, b, basis)

        def spy_solve(kind, *rest):
            systems.append(kind)
            return real_solve(kind, *rest)

        monkeypatch.setattr(spaces, "_build_space", spy_build)
        monkeypatch.setattr(spaces, "_intersection_space", spy_intersect)
        monkeypatch.setattr(spaces, "_solve_kind", spy_solve)
        report = proposition_battery(spec, max_power)
        assert report.passed
        assert all(isinstance(kind, str) for kind, _ in built)
        assert systems == [kind for kind, _ in built for _ in range(2)]
        keys = [(kind, t.matrix(spec)) for kind, t in built]
        assert len(set(keys)) == len(keys) == builds
        assert [kind for kind, _ in built].count("ZD") == 1
        assert "GD" not in [kind for kind, _ in built]
        assert len(set(intersected)) == len(intersected) == solves

    @pytest.mark.parametrize(
        "name, max_power, maps",
        [("idem1", 1, 0), ("dual2-twisted", 1, 1), ("dual2-twisted", 2, 1), ("zero2-sheared+dual2-twisted", 1, 2)],
    )
    def test_commutation_rows_once_per_parity_and_map(self, monkeypatch, name, max_power, maps):
        """Commutation rows depend on the spec and the parity only, so one
        battery call builds them once per parity and distinct structure map
        other than the identity (never when gamma = xi = id), whatever the
        twists and kinds, and the next call builds them again."""
        spec = _BATTERY_INPUTS[name]()
        calls = []
        real = spaces._commutation_rows

        def spy(other, var_of):
            calls.append((other, tuple(map(tuple, var_of))))
            return real(other, var_of)

        monkeypatch.setattr(spaces, "_commutation_rows", spy)
        identity = Matrix.identity(spec.dimension)
        others = {m for m in (spec.gamma.matrix, spec.xi.matrix) if m != identity}
        patterns = {tuple(map(tuple, _var_of(spec, parity)))
                    for parity in (0, 1) if spaces._pattern_positions(spec.basis.parities, parity)}
        expected = {(m, pattern) for m in others for pattern in patterns}
        assert len(others) == maps
        for call in (1, 2):
            assert proposition_battery(spec, max_power).passed
            assert len(calls) == len(set(calls)) * call == len(expected) * call
            assert set(calls) == expected

    def test_witness_order_on_failing_relations(self, monkeypatch):
        """zd-eq-d-cap-c reports a ZD map outside D cap C before the converse.
        The faked GD does not hold the faked QD, but the containments are
        theorems, decided with nothing built, so only zd-eq-d-cap-c fails."""
        spec = builtin("zero2")
        e00, e11 = Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows([[0, 0], [0, 1]])
        spans = {"GD": [e00], "QD": [e11], "QC": [Matrix.identity(2)], "ZD": [e00], "D": [e11], "C": [e11]}

        def fake_build(kind, spec, t, *rest):
            maps = tuple(LinearMap.square(spec.basis, m) for m in spans.get(kind, []))
            return OperatorSpace(kind, t, 2, maps, maps, ())

        monkeypatch.setattr(spaces, "_build_space", fake_build)
        report = proposition_battery(spec, 0)
        assert [(ln.claim_id, ln.witness.matrix) for ln in report.failed_lines()] == [("zd-eq-d-cap-c", e00)]

    def test_eq_dc_fails_when_d_cap_c_exceeds_zd(self, monkeypatch):
        """zd-eq-d-cap-c also tests D cap C inside ZD: with ZD inside a
        larger D cap C it fails, with the D cap C map outside ZD as witness.
        The faked D is the diagonal maps and C the two leading ones, so the
        battery's intersection is [e00, e11]; every other claim holds."""
        spec = builtin("dsum-zero2-idem1")
        assert center(spec)
        e00, e11, e22 = (Matrix.diagonal([int(i == j) for j in range(3)]) for i in range(3))
        spans = {"ZD": [e00], "D": [e00, e11, e22], "C": [e00, e11], "QD": [e00, e11, e22], "GD": [e00, e11, e22]}

        def fake_build(kind, spec, t, *rest):
            maps = tuple(LinearMap.square(spec.basis, m) for m in spans.get(kind, []))
            return OperatorSpace(kind, t, 3, maps, maps, ())

        monkeypatch.setattr(spaces, "_build_space", fake_build)
        report = proposition_battery(spec, 0)
        assert [(ln.claim_id, ln.witness.matrix) for ln in report.failed_lines()] == [("zd-eq-d-cap-c", e11)]

    def test_bracket_and_compose_witnesses_are_exact(self, monkeypatch):
        """Membership is decided on integer numerators; the witness is the
        exact Fraction supercommutator or composition of the first pair
        outside the target, not a scaled copy of it.  The battery runs in the
        Koszul mode, where no lemma decides a bracket or a composition."""
        spec = builtin("zero2")
        a, b = Matrix.from_rows([[F(1, 3), 0], [0, 0]]), Matrix.from_rows([[0, F(1, 2)], [0, 0]])
        p, q = Matrix.from_rows([[F(1, 2), 0], [0, F(1, 5)]]), Matrix.from_rows([[0, 0], [1, 0]])
        spans = {"D": [a, b], "C": [p, q]}  # a and p even, b and q odd

        def fake_build(kind, spec, t, *rest):
            maps = tuple(LinearMap.square(spec.basis, m) for m in spans.get(kind, []))
            even = tuple(m for m in maps if m.is_even)
            return OperatorSpace(kind, t, 2, maps, even, tuple(m for m in maps if m not in even))

        monkeypatch.setattr(spaces, "_build_space", fake_build)
        # [a, p] = 0 and [a, q] = -q/3 lie in C, and p a = a/2 and p b = b/2 in D.
        assert solve_in_span([p.entries, q.entries], (a @ q - q @ a).entries) is not None
        assert solve_in_span([a.entries, b.entries], (p @ b).entries) is not None
        witnesses = {ln.claim_id: ln.witness.matrix for ln in proposition_battery(spec, 0, koszul=True).failed_lines()}
        assert witnesses["bracket-d-c-in-c"] == b @ p - p @ b == Matrix.from_rows([[0, F(-3, 20)], [0, 0]])
        assert witnesses["compose-c-d-in-d"] == q @ a == Matrix.from_rows([[0, 0], [F(1, 3), 0]])


# The battery's claims in report order as (claim, relation, kinds), written
# out apart from spaces._CLAIMS; "DC" is D intersect C.  Bracket and
# compose read their third kind at the summed powers.
_REFERENCE_CLAIMS = (
    ("bracket-d-c-in-c", "bracket", ("D", "C", "C")),
    ("bracket-d-d-in-d", "bracket", ("D", "D", "D")),
    ("bracket-d-zd-in-zd", "bracket", ("D", "ZD", "ZD")),
    ("bracket-qc-qc-in-qd", "bracket", ("QC", "QC", "QD")),
    ("bracket-qd-qc-in-qc", "bracket", ("QD", "QC", "QC")),
    ("c-in-qd", "contain", ("QD", "C")),
    ("chain-d-in-qd", "contain", ("QD", "D")),
    ("chain-qd-in-gd", "contain", ("GD", "QD")),
    ("compose-c-d-in-d", "compose", ("C", "D", "D")),
    ("sum-qd-qc-in-gd", "contain", ("GD", "QD", "QC")),
    ("trivial-center-d-cap-c", "trivial", ("DC",)),
    ("zd-eq-d-cap-c", "eq-dc", ("ZD", "DC")),
)


def _reference_battery(spec, max_power, koszul):
    """Every battery line as (claim, s, r, s2, r2, passed, witness), decided
    from spaces built at that line's own powers, with no sharing between
    twists or equal spaces and no memo of products, spans or verdicts.
    Brackets and compositions are exact Matrix products, and membership is
    space_contains.  Builds are cached on (kind, s, r) only, which the
    line's own powers fix."""

    @functools.cache
    def space(kind, s, r):
        t = TwistPower(s, r)
        return _built(("D", "C") if kind == "DC" else kind, spec, t, koszul and kind in ("D", "DC"))

    def first_outside(maps, target):
        found = space_contains(target, OperatorSpace("", T00, spec.dimension, tuple(maps), (), ()))
        return found.contained, found.witness

    def all_inside(results, pick):
        witnesses = [res.witness for res in results if not res.contained]
        return (False, witnesses[pick]) if witnesses else (True, None)

    center_trivial = not center(spec)
    powers = [(s, r) for s in range(max_power + 1) for r in range(max_power + 1)]
    lines = []
    for claim, relation, kinds in _REFERENCE_CLAIMS:
        summed = relation in ("bracket", "compose")
        for (s, r), (s2, r2) in itertools.product(powers, powers if summed else [(None, None)]):
            at = [(s, r), (s2, r2), (s + s2, r + r2)] if summed else [(s, r)] * len(kinds)
            operands = [space(kind, *power) for kind, power in zip(kinds, at)]
            if relation == "bracket":
                left, right, target = operands
                pairs = itertools.product(left.graded_elements(), right.graded_elements())
                verdict = first_outside((supercommutator(f, g) for f, g in pairs), target)
            elif relation == "compose":
                left, right, target = operands
                verdict = first_outside((f.compose(g) for f, g in itertools.product(left.basis, right.basis)), target)
            elif relation == "contain":
                outer, *inners = operands
                verdict = all_inside([space_contains(outer, inner) for inner in inners], -1)
            elif relation == "trivial":
                (dc,) = operands
                verdict = (False, dc.basis[0]) if center_trivial and dc.basis else (True, None)
            else:
                zd, dc = operands
                verdict = all_inside([space_contains(dc, zd), space_contains(zd, dc)], 0)
            lines.append((claim, s, r, s2, r2, *verdict))
    return lines


# The fixtures, inputs whose xi is neither the identity nor gamma, and the census
# inputs that fail a claim with gamma = xi = id.
_BATTERY_INPUTS = {
    **{name: functools.partial(builtin, name) for name in FIXTURE_NAMES},
    "zero2-sheared": _sheared_zero2,
    "zero2-sheared+dual2-twisted": GAMMA_NOT_XI["zero2-sheared+dual2-twisted"],
    "zero2-sheared+idem1": lambda: direct_sum(_sheared_zero2(), builtin("idem1")),
    "two-step-0-n4-bumped": lambda: _bumped(two_step(0, 4)),
    "two-step-0-n3-bumped": lambda: _bumped(two_step(0, 3)),
    "nil3-odd-scaled": nil3_odd_scaled,
    "dual2-twisted+grassmann2": dual2_twisted_plus_grassmann2,
    "dsum-zero2-idem1-singular": dsum_singular,
    **{make().name: make for make in (census_000_012, census_001_001_221, census_011_012_102)},
}


class TestBatterySharing:
    @pytest.mark.parametrize("koszul", [False, True])
    @pytest.mark.parametrize("name", sorted(_BATTERY_INPUTS))
    def test_battery_equals_reference_without_sharing(self, name, koszul):
        """Sharing spaces by T and by value, and memoising products, spans,
        graded bases and verdicts, changes no line, witness included."""
        spec = _BATTERY_INPUTS[name]()
        assert check_bihom(spec).passed
        report = proposition_battery(spec, 2, koszul)
        lines = [(ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed, ln.witness) for ln in report.lines]
        assert lines == _reference_battery(spec, 2, koszul)

    def test_each_product_and_target_span_once(self, monkeypatch):
        """On dual2-twisted at max_power 1 and 2, decided line by line (not
        settled at T = id), the Koszul battery multiplies each pair of basis
        maps at most once, and reduces each distinct target span of every
        relation it computes exactly once: the targets of brackets and
        compositions at the summed powers, and QD, the outer span of
        chain-d-in-qd, at the base powers.  The Koszul mode computes brackets
        and compositions in full (dual2-twisted has no odd map, so the default
        mode would form no product); its other containments are theorems, so
        GD is no target, and so is bracket-d-zd-in-zd at an invertible T, so
        ZD is none.  D intersect C and ZD are both zero, one space, so eq-dc
        reduces no span, and the Zassenhaus echelons of D intersect C are not
        targets."""
        spec = builtin("dual2-twisted")
        products, targets, inside = [], [], []
        real_product, real_intersect = spaces.integer_product, spaces._intersection_space

        def spy_product(x, y, *shape):
            if not inside:
                products.append((tuple(x), tuple(y)))
            return real_product(x, y, *shape)

        class SpyEchelon(Echelon):
            def __init__(self, rows=()):
                rows = list(rows)
                if not inside:
                    targets.append(tuple(tuple(row) for row in rows))
                super().__init__(rows)

        def left_out(real):
            def spy(*args):
                inside.append(True)
                try:
                    return real(*args)
                finally:
                    inside.pop()
            return spy

        monkeypatch.setattr(spaces, "integer_product", spy_product)
        monkeypatch.setattr(spaces, "Echelon", SpyEchelon)
        monkeypatch.setattr(spaces, "_intersection_space", left_out(real_intersect))
        monkeypatch.setattr(spaces, "_is_regular", lambda spec: False)
        for max_power in (1, 2):
            base = [TwistPower(s, r) for s in range(max_power + 1) for r in range(max_power + 1)]
            sums = [TwistPower(s, r) for s in range(2 * max_power + 1) for r in range(2 * max_power + 1)]
            zero = {_build_space("ZD", spec, T00).vectorized()}
            assert {_built(("D", "C"), spec, t, True).vectorized() for t in base} == zero == {()}
            expected = {_build_space(kind, spec, t, kind == "D").vectorized()
                        for kind in ("C", "D", "QD", "QC") for t in sums}
            products.clear()
            targets.clear()
            assert proposition_battery(spec, max_power, koszul=True).passed
            assert products and len(set(products)) == len(products)
            assert len(set(targets)) == len(targets) == len(expected)
            assert set(targets) == expected


def _nil3_odd_singular():
    """nil3-odd with gamma = diag(3, 0, 0) and xi = diag(2, 4, 8): a valid, multiplicative
    input whose gamma is singular."""
    constants = {(0, 1, 2): 1}
    gamma, xi = Matrix.diagonal([3, 0, 0]), Matrix.diagonal([2, 4, 8])
    return TrialgebraSpec.build("nil3-odd-singular", [0, 1, 1], constants, constants, constants, gamma, xi)


def _not_commuting():
    """Zero products with two shears that do not commute: multiplicative and invertible,
    but not a BiHom algebra, which only a library call can hand the battery."""
    gamma, xi = [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    return TrialgebraSpec.build("zero3-not-commuting", [0, 0, 0], {}, {}, {}, gamma, xi)


def _odd_square_not_commuting():
    """e1 o e1 = e0 on parities (0, 1, 1) with gamma and xi that do not commute: it
    fails axiom (i) only, so only a library call hands it to the battery.  Its T1 T2 is
    not gamma^(s+s2) xi^(r+r2), and compose-c-d-in-d fails at max_power 1."""
    constants = {(1, 1, 0): 1}
    gamma, xi = [[0, 0, 0], [0, -1, -1], [0, 1, 0]], Matrix.diagonal([-1, 1, 0])
    return TrialgebraSpec.build("odd-square-not-commuting", [0, 1, 1], constants, constants, constants, gamma, xi)


# Inputs the battery must not carry spaces on, each refused by one guard of _is_regular.
NOT_REGULAR = {
    "singular": _nil3_odd_singular,
    "not-multiplicative": _BATTERY_INPUTS["two-step-0-n4-bumped"],
    "not-commuting": _not_commuting,
}

# The two-step inputs of the transport tests: seeds 0-9 at n = 2-5, all regular.
TWO_STEP = [(seed, n) for seed in range(10) for n in range(2, 6)]

_TRANSPORT_BATTERIES = {**_BATTERY_INPUTS, **{f"two-step-{s}-n{n}": functools.partial(two_step, s, n) for s, n in TWO_STEP}}

_TRANSPORTED_KINDS = [(kind, koszul) for kind, koszul in KINDS_AND_KOSZUL_D if kind != "ZD"]

_REGULAR_BATTERIES = sorted(name for name, make in _TRANSPORT_BATTERIES.items() if spaces._is_regular(make()))


def _invertible(m):
    try:
        invert(m)
    except SingularMapError:
        return False
    return True


def _pieces(space):
    """The even and odd canonical bases, whose merge by leading column is the space's basis."""
    return tuple(tuple(m.matrix for m in maps) for maps in (space.even_basis, space.odd_basis))


def _carried(space, twist):
    """The graded pieces of twist . X over X in space: the canonical span of twist @ m per piece."""
    n = space.ambient_dim
    return tuple(tuple(Matrix(n, n, v) for v in canonical_span([(twist @ m.matrix).entries for m in maps], n * n))
                 for maps in (space.even_basis, space.odd_basis))


def _carry_errors(spec):
    """The (kind, koszul, s, r) up to gamma^2 xi^2 whose space T . X(id) differs from a solve at T."""
    errors = []
    for kind, koszul in _TRANSPORTED_KINDS:
        base = _build_space(kind, spec, T00, koszul)
        for s, r in itertools.product(range(3), repeat=2):
            t = TwistPower(s, r)
            if _carried(base, t.matrix(spec)) != _pieces(_build_space(kind, spec, t, koszul)):
                errors.append((kind, koszul, s, r))
    return errors


def _every_distinct_twist(spec, max_power):
    """Each (kind, T) a battery decided line by line reads: D, QD, C and QC at every summed
    power (the bracket claims read them whether or not any odd pair is tested), ZD once, and
    never GD, whose claims are theorems."""
    sums = list(itertools.product(range(2 * max_power + 1), repeat=2))
    expected = {(kind, TwistPower(*power).matrix(spec)) for kind in ("D", "QD", "C", "QC") for power in sums}
    expected.add(("ZD", Matrix.identity(spec.dimension)))
    return expected


def _battery_plan(monkeypatch, spec, max_power, koszul=False):
    """The (kind, T) the battery solves, in build order."""
    solved = []
    real_build = spaces._build_space

    def spy_build(kind, spec, t, *rest):
        solved.append((kind, t.matrix(spec)))
        return real_build(kind, spec, t, *rest)

    monkeypatch.setattr(spaces, "_build_space", spy_build)
    proposition_battery(spec, max_power, koszul)
    return solved


class TestRegularity:
    """On a regular input (gamma and xi invertible, commuting and multiplicative
    for all three products) X(gamma^s xi^r) = gamma^s xi^r . X(id) for every
    kind but ZD, so no battery verdict depends on the powers, and a battery
    whose claims hold at T = id solves each kind there only."""

    @pytest.mark.parametrize("seed, n", [(None, None)] + TWO_STEP)
    def test_carried_space_equals_a_solve(self, seed, n):
        spec = builtin("dual2-twisted") if seed is None else two_step(seed, n)
        assert spaces._is_regular(spec)
        assert _carry_errors(spec) == []

    @pytest.mark.parametrize("name", sorted(NOT_REGULAR))
    def test_each_guard_refuses_an_input_the_transport_gets_wrong(self, monkeypatch, name):
        """Each input fails exactly one guard, carrying its spaces from T = id
        would give wrong ones, and the battery solves each distinct (kind, T)
        it reads."""
        spec = NOT_REGULAR[name]()
        gamma, xi = spec.gamma.matrix, spec.xi.matrix
        guards = {
            "singular": _invertible(gamma) and _invertible(xi),
            "not-multiplicative": check_multiplicative(spec).passed,
            "not-commuting": gamma @ xi == xi @ gamma,
        }
        assert [failed for failed, holds in guards.items() if not holds] == [name]
        assert name == "not-commuting" or check_bihom(spec).passed
        assert not spaces._is_regular(spec)
        assert _carry_errors(spec)
        for max_power in (1, 2):
            solved = _battery_plan(monkeypatch, spec, max_power)
            assert len(solved) == len(set(solved)) and set(solved) == _every_distinct_twist(spec, max_power)

    def test_a_regular_battery_solves_at_the_identity_only(self, monkeypatch):
        spec = builtin("dual2-twisted")
        identity = Matrix.identity(2)
        solved = _battery_plan(monkeypatch, spec, 2)
        assert sorted(kind for kind, _ in solved) == ["C", "D", "QC", "QD", "ZD"]
        assert all(twist == identity for _, twist in solved)

    @pytest.mark.parametrize("max_power", [1, 2])
    def test_a_failing_regular_battery_solves_every_distinct_twist(self, monkeypatch, max_power):
        """dual2-twisted+grassmann2 is regular, with gamma = xi = diag(1, 2, 1, 1), and its
        Koszul battery fails only chain-d-in-qd at T = id.  The walk builds D, C, QC and QD
        at T = id for the brackets before it (bracket-d-zd-in-zd is a theorem at T = id), then
        that claim's QD and D at each distinct base twist diag(1, 2^k, 1, 1), k = s + r, then
        ZD at T = id for zd-eq-d-cap-c, and nothing more: the claims that hold are carried
        from T = id, and GD is never read."""
        spec = dual2_twisted_plus_grassmann2()
        assert spec.gamma.matrix == spec.xi.matrix == Matrix.diagonal([1, 2, 1, 1])
        twist = [Matrix.diagonal([1, 2 ** k, 1, 1]) for k in range(2 * max_power + 1)]
        expected = [(kind, twist[0]) for kind in ("D", "C", "QC", "QD")]
        expected += [(kind, twist[k]) for k in range(1, 2 * max_power + 1) for kind in ("QD", "D")]
        expected += [("ZD", twist[0])]
        assert _battery_plan(monkeypatch, spec, max_power, koszul=True) == expected

    @pytest.mark.parametrize("max_power", [1, 2])
    @pytest.mark.parametrize("koszul", [False, True])
    @pytest.mark.parametrize("make", [nil3_odd_scaled, dual2_twisted_plus_grassmann2])
    def test_the_walk_builds_each_space_once(self, monkeypatch, make, koszul, max_power):
        """The lines at (0, 0) and the lines decided after them share their
        builds, term tables and commutation rows: each distinct (kind, T) is
        built once in the battery's walk, and the report is the reference's."""
        spec = make()
        solved = _battery_plan(monkeypatch, spec, max_power, koszul)
        assert len(solved) == len(set(solved))
        monkeypatch.undo()
        lines = [(ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed, ln.witness)
                 for ln in proposition_battery(spec, max_power, koszul).lines]
        assert lines == _reference_battery(spec, max_power, koszul)

    def test_the_named_inputs_reach_each_outcome(self):
        """nil3-odd-scaled in both modes and dual2-twisted+grassmann2 in the
        Koszul mode are regular and fail one claim on every line, so the
        battery decides them line by line.  dsum-zero2-idem1-singular is
        valid and multiplicative but singular: it passes at power 0 and fails
        at power 1, where only a regular input may be settled at (0, 0)."""
        for make, koszul, claim in [(nil3_odd_scaled, False, "zd-eq-d-cap-c"), (nil3_odd_scaled, True, "zd-eq-d-cap-c"),
                                    (dual2_twisted_plus_grassmann2, True, "chain-d-in-qd")]:
            spec = make()
            assert check_bihom(spec).passed and spaces._is_regular(spec)
            for max_power in (1, 2):
                failed = proposition_battery(spec, max_power, koszul).failed_lines()
                assert len(failed) == (max_power + 1) ** 2 and {ln.claim_id for ln in failed} == {claim}
        spec = dsum_singular()
        assert check_bihom(spec).passed and check_multiplicative(spec).passed
        assert not spaces._is_regular(spec)
        assert proposition_battery(spec, 0).passed
        failed = proposition_battery(spec, 1).failed_lines()
        assert len(failed) == 15 and {ln.claim_id for ln in failed} == {"bracket-d-zd-in-zd", "zd-eq-d-cap-c"}

    @pytest.mark.parametrize("name", _REGULAR_BATTERIES)
    def test_every_line_has_the_verdict_of_its_identity_line(self, monkeypatch, name):
        """The lemma of proposition_battery, checked line by line with the
        settling at T = id switched off: on a regular input each claim passes
        or fails at every power as it does at (0, 0)."""
        spec = _TRANSPORT_BATTERIES[name]()
        monkeypatch.setattr(spaces, "_is_regular", lambda spec: False)
        for max_power, koszul in itertools.product((1, 2), (False, True)):
            lines = proposition_battery(spec, max_power, koszul).lines
            at_identity = {ln.claim_id: ln.passed for ln in lines if (ln.s, ln.r, ln.s2 or 0, ln.r2 or 0) == (0, 0, 0, 0)}
            assert [(ln.claim_id, ln.passed) for ln in lines] == [(ln.claim_id, at_identity[ln.claim_id]) for ln in lines]

    @pytest.mark.parametrize("name", ["idem1", "grassmann2"])
    def test_identity_maps_never_reach_the_multiplicativity_check(self, monkeypatch, name):
        calls = []
        monkeypatch.setattr(spaces, "check_multiplicative", lambda spec: calls.append(spec))
        for max_power in range(3):
            proposition_battery(builtin(name), max_power)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(_TRANSPORT_BATTERIES))
    def test_battery_reports_equal_those_without_the_transport(self, monkeypatch, name):
        spec = _TRANSPORT_BATTERIES[name]()
        cases = list(itertools.product(range(3), (False, True)))
        carried = [proposition_battery(spec, max_power, koszul) for max_power, koszul in cases]
        monkeypatch.setattr(spaces, "_is_regular", lambda spec: False)
        assert [proposition_battery(spec, max_power, koszul) for max_power, koszul in cases] == carried


_IDENTITY_BATTERIES = sorted(name for name, make in _BATTERY_INPUTS.items()
                             if make().gamma.matrix.is_identity and make().xi.matrix.is_identity)


def _nil3_odd_xi_scaled():
    """nil3-odd with gamma = id and xi = diag(1, 2, 2): valid and regular, and it fails
    ``zd-eq-d-cap-c`` at every power, with the same ZD witness on every line."""
    constants = {(0, 1, 2): 1}
    return TrialgebraSpec.build("nil3-odd-xi-scaled", [0, 1, 1], constants, constants, constants,
                                Matrix.identity(3), Matrix.diagonal([1, 2, 2]))


def _two_step_xi_singular():
    """two_step(0, 3) with gamma = id and xi = diag(1, 0, 0): valid but singular, so its
    battery passes at power 0 and fails two lines at power 1."""
    spec = two_step(0, 3)
    return TrialgebraSpec.build("two-step-0-n3-xi-singular", spec.basis.parities,
                                *(t.constants for _, t in spec.products()), Matrix.identity(3), Matrix.diagonal([1, 0, 0]))


class TestInputsWithIdentityMaps:
    """With gamma = xi = id every twist is the identity, so the battery decides
    each claim once, at T = id, and reads the center only when D cap C is nonzero."""

    @pytest.mark.parametrize("koszul", [False, True])
    @pytest.mark.parametrize("name", _IDENTITY_BATTERIES)
    def test_each_line_gets_its_line_by_line_witness(self, name, koszul):
        spec = _BATTERY_INPUTS[name]()
        for max_power in range(3):
            grid, decide = spaces._grid(max_power), spaces._witnesses(spec, koszul)
            witnesses = [decide(line) for line in grid]
            report = proposition_battery(spec, max_power, koszul)
            assert [(ln.claim_id, ln.s, ln.r, ln.s2, ln.r2) for ln in report.lines] == [(c[0], *at) for c, *at in grid]
            assert [(ln.passed, ln.witness) for ln in report.lines] == [(w is None, w) for w in witnesses]

    def test_the_identity_inputs_include_failing_batteries(self):
        assert {"dsum-zero2-idem1", "dual2", "grassmann2", "idem1", "zero2"} <= set(_IDENTITY_BATTERIES)
        assert not proposition_battery(builtin("grassmann2"), 2, koszul=True).passed

    @pytest.mark.parametrize("make", [_nil3_odd_xi_scaled, _two_step_xi_singular])
    def test_one_identity_map_is_decided_line_by_line(self, make):
        """Only gamma is the identity, so the twists xi^r differ, and each line gets the
        witness of the reference battery, not its claim's witness at (0, 0)."""
        spec = make()
        assert spec.gamma.matrix.is_identity and not spec.xi.matrix.is_identity
        assert check_bihom(spec).passed
        for max_power, koszul in itertools.product((0, 1, 2), (False, True)):
            lines = [(ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed, ln.witness)
                     for ln in proposition_battery(spec, max_power, koszul).lines]
            assert lines == _reference_battery(spec, max_power, koszul)
            assert not all(line[5] for line in lines) or make is _two_step_xi_singular and max_power == 0

    def test_a_failing_identity_battery_builds_at_the_identity_only(self, monkeypatch):
        """census-001-001-221 fails bracket-d-d-in-d on every line.  Every T is the identity,
        so the claim's later lines read the spaces built for the lines at (0, 0), and the
        battery builds each kind once, at T = id."""
        spec = census_001_001_221()
        solved = _battery_plan(monkeypatch, spec, 2)
        assert sorted(kind for kind, _ in solved) == ["C", "D", "QC", "QD", "ZD"]
        assert all(twist == Matrix.identity(3) for _, twist in solved)
        monkeypatch.undo()
        failed = proposition_battery(spec, 2).failed_lines()
        assert len(failed) == 81 and {ln.claim_id for ln in failed} == {"bracket-d-d-in-d"}

    @pytest.mark.parametrize(
        "name, max_power, calls",
        [("dual2", 1, 0), ("grassmann2", 2, 0), ("dual2-twisted+grassmann2", 2, 0),
         ("two-step-0-n4-bumped", 1, 0), ("zero2", 1, 1), ("dsum-zero2-idem1", 2, 1),
         ("zero2-sheared", 2, 1), ("nil3-odd-scaled", 2, 1), ("dsum-zero2-idem1-singular", 2, 1)],
    )
    def test_the_center_is_read_once_and_only_when_d_cap_c_is_nonzero(self, monkeypatch, name, max_power, calls):
        spec = _BATTERY_INPUTS[name]()
        caps = {_built(("D", "C"), spec, TwistPower(s, r)).dimension
                for s, r in itertools.product(range(max_power + 1), repeat=2)}
        assert (caps != {0}) == bool(calls)
        seen = []
        monkeypatch.setattr(spaces, "center", lambda spec: seen.append(spec) or center(spec))
        for koszul in (False, True):
            seen.clear()
            proposition_battery(spec, max_power, koszul)
            assert len(seen) == calls


def _lines(report):
    return [(ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed, ln.witness) for ln in report.lines]


class TestLemmas:
    """The claims the battery decides by proof (the lemma column of
    spaces._CLAIMS) give the lines of the reference battery, which builds
    every space and decides every pair, witnesses included."""

    @pytest.mark.parametrize("koszul", [False, True])
    def test_the_census_slice_gives_the_reference_lines(self, koszul):
        """gamma = xi = id, so every lemma's hypothesis on the maps holds and
        each T is the identity; the slice holds failing brackets (default
        mode) and failing chains (Koszul mode)."""
        reports = [(spec, proposition_battery(spec, 0, koszul)) for spec in census.valid(2)]
        assert {ln.claim_id for _, report in reports for ln in report.failed_lines()} >= {
            "zd-eq-d-cap-c", "chain-d-in-qd" if koszul else "bracket-d-d-in-d"}
        for spec, report in reports:
            assert _lines(report) == _reference_battery(spec, 0, koszul)

    @pytest.mark.parametrize("koszul", [False, True])
    @pytest.mark.parametrize("seed, n", [(seed, n) for seed in range(10) for n in (2, 3)])
    def test_two_step_inputs_give_the_reference_lines(self, seed, n, koszul):
        spec = two_step(seed, n)
        assert _lines(proposition_battery(spec, 1, koszul)) == _reference_battery(spec, 1, koszul)

    def test_maps_that_do_not_commute_decide_compose_in_full(self):
        """The commuting lemma needs gamma xi = xi gamma: without it the
        composition claim is computed, and here it fails."""
        spec = _odd_square_not_commuting()
        assert {v.axiom_id for v in check_bihom(spec).violations} == {"i"}
        lines = _lines(proposition_battery(spec, 1))
        assert lines == _reference_battery(spec, 1, False)
        assert {line[0] for line in lines if not line[5]} == {"compose-c-d-in-d"}

    def test_the_koszul_mode_decides_compose_in_full(self):
        """The Koszul mode signs D but not C, so an odd map of C after a signed
        derivation can leave D: the commuting lemma holds in the default mode
        only.  This support-3 census input, with gamma = xi = id, fails
        compose-c-d-in-d in the Koszul mode."""
        constants, identity = dict.fromkeys([(0, 1, 2), (1, 0, 2), (1, 1, 0)], 1), Matrix.identity(3)
        spec = TrialgebraSpec.build("census-011-012-102-110", [0, 1, 1], constants, constants, constants, identity, identity)
        assert check_bihom(spec).passed
        lines = _lines(proposition_battery(spec, 0, koszul=True))
        assert lines == _reference_battery(spec, 0, True)
        assert "compose-c-d-in-d" in {line[0] for line in lines if not line[5]}

    @pytest.mark.parametrize("koszul", [False, True])
    @pytest.mark.parametrize("name", sorted({**_BATTERY_INPUTS, **NOT_REGULAR}))
    def test_the_battery_builds_no_gd(self, monkeypatch, name, koszul):
        """Every claim that reads GD is a containment that holds in both modes."""
        spec = {**_BATTERY_INPUTS, **NOT_REGULAR}[name]()
        solved = _battery_plan(monkeypatch, spec, 1, koszul)
        assert solved and "GD" not in {kind for kind, _ in solved}


@pytest.mark.parametrize("seed", range(6))
def test_intersection_space_matches_span_intersection(seed):
    """Zassenhaus's intersection of two graded spaces, piece by piece, equals
    the oracle's span intersection.  The random rational spaces share a span
    in each piece and add vectors of their own, so the intersection is
    nonzero in both pieces and smaller than either space."""
    rng = random.Random(seed)
    basis = builtin("dsum-zero2-idem1").basis
    n = basis.dimension

    def vectors(parity, count):
        cells = {i * n + j for i, j in spaces._pattern_positions(basis.parities, parity)}
        return [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) if c in cells else F(0) for c in range(n * n))
                for _ in range(count)]

    shared = [vectors(0, 2), vectors(1, 1)]

    def graded():
        even, odd = (list(canonical_span(shared[p] + vectors(p, rng.randint(1, 2)), n * n)) for p in (0, 1))
        return spaces._graded_space("X", T00, basis, even, odd, False)

    a, b = graded(), graded()
    cap = spaces._intersection_space(a, b, basis)
    assert cap.vectorized() == span_intersection(a.vectorized(), b.vectorized(), n * n)
    assert cap.even_dimension and cap.odd_dimension and cap.dimension < min(a.dimension, b.dimension)
    assert all(m.parity_class == "even" for m in cap.even_basis)
    assert all(m.parity_class == "odd" for m in cap.odd_basis)
