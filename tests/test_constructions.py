"""Derived algebras and hypothesis checks built on top of the core model."""

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from generators import two_step
from test_axiom_oracle import random_spec
from tridendriform import rota_baxter_split

from supertrial.constructions import (
    averaging_check,
    commutator_construct,
    conjugate_automorphism,
    direct_sum,
    graph_subalgebra_check,
    rota_baxter_check,
    rota_baxter_induce,
    sum_product_construct,
    swap_construct,
    total_product_construct,
    yau_twist,
)
from supertrial.core import (
    _BIHOM_TRIPLES,
    LinearMap,
    SuperalgebraSpec,
    TrialgebraSpec,
    check_bihom,
    check_superalgebra,
    identity_map,
    product_eval,
)
from supertrial.errors import (
    CommutationError,
    InputError,
    ModeError,
    NotAutomorphismError,
    ParityError,
    SingularMapError,
)
from supertrial.fixtures import FIXTURE_NAMES, builtin
from supertrial.linalg import Echelon, Matrix, invert
from supertrial.serialize import emit_algebra, parse_algebra

F = Fraction

DUAL = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
ID2 = [[1, 0], [0, 1]]


def square_map(spec, rows):
    return LinearMap.square(spec.basis, Matrix.from_rows(rows))


def small_invertible_2x2():
    return hs.lists(hs.integers(-2, 2), min_size=4, max_size=4).map(
        lambda e: Matrix(2, 2, tuple(F(x) for x in e))
    )


class TestYauTwist:
    def test_identity_map_is_a_fixed_point(self):
        spec = builtin("dual2-twisted")
        res = yau_twist(spec, identity_map(spec.basis))
        assert res.twisted == spec
        assert res.constants_match
        assert res.report.passed

    def test_diagonal_twist_rescales_constants(self):
        spec = builtin("dual2")
        res = yau_twist(spec, square_map(spec, [[1, 0], [0, 2]]))
        # l(l^-1(e1) o l^-1(e2)) = l(e1 o e2/2) = e2
        assert dict(res.twisted.left.items()) == {
            (0, 0, 0): F(1),
            (0, 1, 1): F(1),
            (1, 0, 1): F(1),
        }
        assert res.constants_match
        assert res.twisted.name == "dual2"

    def test_shear_twist_worked_example(self):
        spec = builtin("dual2")
        res = yau_twist(spec, square_map(spec, [[1, 1], [0, 1]]))
        # only e2 o' e2 changes: l((e2 - e1)^2) = l(e1 - 2 e2) = -e1 - 2 e2
        expected = {
            (0, 0, 0): F(1),
            (0, 1, 1): F(1),
            (1, 0, 1): F(1),
            (1, 1, 0): F(-1),
            (1, 1, 1): F(-2),
        }
        assert dict(res.twisted.left.items()) == expected
        assert dict(res.twisted.perp.items()) == expected
        assert res.constants_match
        assert res.report.passed

    def test_structure_maps_are_conjugated(self):
        spec = builtin("dual2-twisted")
        l = square_map(spec, [[1, 1], [0, 1]])
        res = yau_twist(spec, l)
        linv = invert(l.matrix)
        assert res.twisted.gamma.matrix == l.matrix @ spec.gamma.matrix @ linv
        assert res.twisted.xi.matrix == l.matrix @ spec.xi.matrix @ linv

    def test_singular_map_rejected(self):
        spec = builtin("dual2")
        with pytest.raises(SingularMapError):
            yau_twist(spec, square_map(spec, [[1, 1], [1, 1]]))

    def test_odd_map_rejected(self):
        spec = builtin("grassmann2")
        with pytest.raises(ParityError):
            yau_twist(spec, square_map(spec, [[0, 1], [1, 0]]))

    def test_wrong_shape_rejected(self):
        spec = builtin("dual2")
        wrong = LinearMap.square(builtin("idem1").basis, Matrix.identity(1))
        with pytest.raises(InputError):
            yau_twist(spec, wrong)

    def test_needs_xi(self):
        spec = TrialgebraSpec.build("h", [0], {}, {}, {}, [[1]])
        with pytest.raises(ModeError):
            yau_twist(spec, identity_map(spec.basis))

    @settings(max_examples=40)
    @given(small_invertible_2x2())
    def test_roundtrip_restores_exactly(self, m):
        assume(len(Echelon(m.row(i) for i in range(m.rows))) == 2)
        spec = builtin("dual2-twisted")
        l = LinearMap.square(spec.basis, m)
        res = yau_twist(spec, l)
        assert res.report.passed
        assert res.constants_match
        back = yau_twist(res.twisted, LinearMap.square(spec.basis, invert(m)))
        assert back.twisted == spec


class TestConjugateAutomorphism:
    def test_diagonal_automorphism_survives_conjugation(self):
        spec = builtin("dual2")
        l = square_map(spec, [[1, 1], [0, 1]])
        phi = square_map(spec, [[1, 0], [0, 3]])
        assert conjugate_automorphism(spec, l, phi).passed

    def test_non_morphism_rejected(self):
        spec = builtin("dual2")
        phi = square_map(spec, [[2, 0], [0, 2]])
        with pytest.raises(NotAutomorphismError):
            conjugate_automorphism(spec, identity_map(spec.basis), phi)

    def test_singular_morphism_rejected(self):
        spec = builtin("dual2")
        phi = square_map(spec, [[0, 0], [0, 0]])
        with pytest.raises(NotAutomorphismError):
            conjugate_automorphism(spec, identity_map(spec.basis), phi)

    def test_runs_no_axiom_check_on_the_twisted_algebra(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("check_bihom must not run")

        monkeypatch.setattr("supertrial.constructions.check_bihom", refuse)
        spec = builtin("dual2")
        l = square_map(spec, [[1, 1], [0, 1]])
        phi = square_map(spec, [[1, 0], [0, 3]])
        assert conjugate_automorphism(spec, l, phi).passed

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[1, 0], [0, 0]]], ids=["odd", "singular"])
    def test_bad_twist_map_fails_as_in_yau_twist(self, rows):
        spec = builtin("grassmann2")
        l = square_map(spec, rows)
        with pytest.raises((ParityError, SingularMapError)) as expected:
            yau_twist(spec, l)
        with pytest.raises(expected.type, match=f"^{expected.value}$"):
            conjugate_automorphism(spec, l, identity_map(spec.basis))


class TestDirectSum:
    def test_blocks_do_not_interact(self):
        total = direct_sum(builtin("zero2"), builtin("idem1"))
        assert total.dimension == 3
        assert total.basis.parities == (0, 1, 0)
        assert total.name == "dsum(zero2,idem1)"
        assert dict(total.left.items()) == {(2, 2, 2): F(1)}
        assert total.gamma.matrix == Matrix.identity(3)
        assert check_bihom(total).passed

    def test_summands_keep_their_constants(self):
        total = direct_sum(builtin("dual2"), builtin("dual2-twisted"))
        assert total.left.constants.get((0, 1, 1), 0) == 1
        assert total.left.constants.get((2, 3, 3), 0) == 2
        assert total.left.constants.get((0, 2, 2), 0) == 0
        assert total.xi.matrix == Matrix.diagonal([1, 1, 1, 2])
        assert check_bihom(total).passed

    def test_mode_must_agree(self):
        with_xi = builtin("dual2")
        without = TrialgebraSpec.build("h", [0], {}, {}, {}, [[1]])
        with pytest.raises(InputError):
            direct_sum(with_xi, without)

    def test_two_hom_mode_summands(self):
        a = TrialgebraSpec.build("h1", [0], {(0, 0, 0): 1}, {(0, 0, 0): 1}, {(0, 0, 0): 1}, [[1]])
        total = direct_sum(a, a)
        assert total.xi is None
        assert total.dimension == 2


def _shared(name):
    """The fixture read from a document whose three product lists are one list."""
    doc = json.loads(emit_algebra(builtin(name)))
    doc["right"] = doc["perp"] = doc["left"]
    return parse_algebra(json.dumps(doc))


def _apart(name):
    """The fixture's left product as three equal tensors, built apart."""
    spec = builtin(name)
    return TrialgebraSpec.build(name, spec.basis.parities, *[spec.left.constants] * 3, spec.gamma.matrix, spec.xi.matrix)


class TestSharedTensors:
    """The Yau twist and the direct sum build one tensor per distinct input tensor object
    (per distinct pair, for the sum), so the products of a shared spec stay one object, and
    the documents they emit are those of the same spec built apart."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_a_shared_spec_stays_shared(self, name):
        shared, apart = _shared(name), _apart(name)
        assert shared.left is shared.right is shared.perp and shared == apart
        l = LinearMap.square(shared.basis, Matrix.diagonal(list(range(1, shared.dimension + 1))))
        for build in (lambda s: yau_twist(s, l).twisted, lambda s: direct_sum(s, s)):
            made = build(shared)
            assert made.left is made.right is made.perp
            assert emit_algebra(made) == emit_algebra(build(apart))

    def test_inputs_that_do_not_share_stay_apart(self):
        distinct = two_step(0, 4)
        assert distinct.left != distinct.right != distinct.perp != distinct.left
        l = LinearMap.square(distinct.basis, Matrix.diagonal([1, 2, 3, 4]))
        for made in (yau_twist(distinct, l).twisted, direct_sum(distinct, _shared("dual2")),
                     direct_sum(_shared("dual2"), builtin("dual2")), direct_sum(_apart("dual2"), _apart("dual2"))):
            assert len({id(t) for _, t in made.products()}) == 3


def fraction_graph_closure(a, b, f) -> bool:
    """Whether the span of (e_i, f(e_i)) is closed under the componentwise
    products and structure maps of A + B, for f given as rows of Fractions."""
    n, m = a.dimension, b.dimension
    zero = Fraction(0)

    def apply(rows, v):
        return tuple(sum((r[j] * v[j] for j in range(len(v))), zero) for r in rows)

    def rows_of(lmap):
        return [lmap.matrix.row(i) for i in range(lmap.matrix.rows)]

    def product(constants, x, y, dim):
        out = [zero] * dim
        for (i, j, k), c in constants.items():
            out[k] += c * x[i] * y[j]
        return tuple(out)

    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    graph = [(u, apply(f, u)) for u in units]
    for tag in ("left", "right", "perp"):
        ca, cb = a.tensor(tag).constants, b.tensor(tag).constants
        for (x1, y1), (x2, y2) in itertools.product(graph, repeat=2):
            if apply(f, product(ca, x1, x2, n)) != product(cb, y1, y2, m):
                return False
    for label in ("gamma", "xi"):
        ma, mb = rows_of(getattr(a, label)), rows_of(getattr(b, label))
        if any(apply(f, apply(ma, x)) != apply(mb, y) for x, y in graph):
            return False
    return True


class TestGraphCheck:
    def test_morphism_graph_is_closed(self):
        spec = builtin("dual2")
        res = graph_subalgebra_check(spec, spec, identity_map(spec.basis))
        assert res.is_subalgebra
        assert res.morphism_report.passed
        assert res.sum.dimension == 4

    def test_non_morphism_graph_is_open(self):
        spec = builtin("dual2")
        res = graph_subalgebra_check(spec, spec, square_map(spec, [[2, 0], [0, 2]]))
        assert not res.is_subalgebra
        assert not res.morphism_report.passed

    def test_rectangular_graph(self):
        src, dst = builtin("dual2"), builtin("idem1")
        pi = LinearMap.between(src.basis, dst.basis, Matrix.from_rows([[1, 0]]))
        res = graph_subalgebra_check(src, dst, pi)
        assert res.is_subalgebra and res.morphism_report.passed

    @pytest.mark.parametrize("scale, verdict", [(1, True), (2, False)])
    def test_rectangular_graph_with_twisted_maps(self, scale, verdict):
        src = builtin("dual2-twisted")
        dst = direct_sum(src, builtin("idem1"))
        matrix = Matrix.from_rows([[scale, 0], [0, scale], [0, 0]])
        res = graph_subalgebra_check(src, dst, LinearMap.between(src.basis, dst.basis, matrix))
        assert res.is_subalgebra is verdict
        assert res.morphism_report.passed is verdict

    @pytest.mark.parametrize("breaks", [None, "map entry", "gamma", "xi"])
    def test_rational_rectangular_graph_matches_fraction_closure(self, breaks):
        """A 4x5 rational map from X + idem1 onto X twisted by L, with X =
        dual2-twisted + grassmann2: L after the projection is a morphism.
        Bumping one entry breaks it, and so does another gamma or xi on the
        target, which leaves the products alone.  The closure is recomputed
        here from the constants and map entries, in Fractions only."""
        x = direct_sum(builtin("dual2-twisted"), builtin("grassmann2"))
        l_rows = [["1/2", "1/3", 0, 0], [0, "2/3", 1, 0], ["1/5", 0, "3/2", 0], [0, 0, 0, "5/7"]]
        src = direct_sum(x, builtin("idem1"))
        dst = yau_twist(x, square_map(x, l_rows)).twisted
        f = [[Fraction(v) for v in row] + [Fraction(0)] for row in l_rows]
        if breaks == "map entry":
            f[1][0] += Fraction(1, 4)
        elif breaks:
            scale = square_map(dst, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1/3"]])
            dst = replace(dst, **{breaks: getattr(dst, breaks).compose(scale)})
        f_map = LinearMap.between(src.basis, dst.basis, Matrix.from_rows(f))
        res = graph_subalgebra_check(src, dst, f_map)
        assert res.is_subalgebra is (breaks is None)
        assert res.is_subalgebra is fraction_graph_closure(src, dst, f)

    def test_shape_guard(self):
        src, dst = builtin("dual2"), builtin("idem1")
        with pytest.raises(InputError):
            graph_subalgebra_check(src, dst, identity_map(src.basis))

    @settings(max_examples=60)
    @given(small_invertible_2x2())
    def test_closure_iff_morphism(self, m):
        spec = builtin("dual2")
        res = graph_subalgebra_check(spec, spec, LinearMap.square(spec.basis, m))
        assert res.is_subalgebra == res.morphism_report.passed


class TestRotaBaxterCheck:
    @pytest.mark.parametrize("c", [0, 1, 2, -1])
    def test_negated_scalar_operator_has_matching_weight(self, c):
        spec = builtin("idem1")
        lam = square_map(spec, [[-c]])
        assert rota_baxter_check(spec, lam, F(c)).passed

    def test_identity_fails_weight_one_everywhere(self):
        spec = builtin("idem1")
        report = rota_baxter_check(spec, identity_map(spec.basis), F(1))
        assert {v.axiom_id for v in report.violations} == {"rb-left", "rb-right", "rb-perp"}
        for v in report.violations:
            assert v.indices == (0, 0)
            assert (v.lhs, v.rhs) == ((F(1),), (F(3),))

    def test_zero_operator_works_for_any_weight(self):
        spec = builtin("dual2")
        lam = square_map(spec, [[0, 0], [0, 0]])
        assert rota_baxter_check(spec, lam, "7/3").passed

    def test_nilpotent_annihilator_operator(self):
        spec = builtin("dual2")
        lam = square_map(spec, [[0, 0], [0, -1]])
        assert rota_baxter_check(spec, lam, F(1)).passed

    def test_literal_mode_crosses_products(self):
        spec = TrialgebraSpec.build("p", [0], {}, {}, {(0, 0, 0): 1}, [[1]], [[1]])
        report = rota_baxter_check(spec, identity_map(spec.basis), F(1), literal=True)
        assert {v.axiom_id for v in report.violations} == {"rb-literal-perp"}

    def test_literal_ids_on_full_failure(self):
        spec = builtin("idem1")
        report = rota_baxter_check(spec, identity_map(spec.basis), F(1), literal=True)
        assert {v.axiom_id for v in report.violations} == {
            "rb-literal-left",
            "rb-literal-right",
            "rb-literal-perp",
        }

    def test_non_commuting_operator_rejected(self):
        spec = builtin("dual2-twisted")
        lam = square_map(spec, [[0, 1], [0, 0]])
        with pytest.raises(CommutationError):
            rota_baxter_check(spec, lam, F(0))

    def test_odd_operator_rejected(self):
        spec = builtin("grassmann2")
        lam = square_map(spec, [[0, 1], [1, 0]])
        with pytest.raises(ParityError):
            rota_baxter_check(spec, lam, F(0))


class TestRotaBaxterInduce:
    def idem_super(self):
        return SuperalgebraSpec.build("idem1", [0], {(0, 0, 0): 1}, [[1]], [[1]])

    def test_zero_operator_induces_zero_products(self):
        alg = self.idem_super()
        lam = LinearMap.square(alg.basis, Matrix.from_rows([[0]]))
        res = rota_baxter_induce(alg, lam, F(0))
        assert res.spec.left.constants == res.spec.right.constants == res.spec.perp.constants == {}
        assert res.spec.name == "rb(idem1)"
        assert res.report.passed

    def test_negated_identity_reports_honest_failure(self):
        """The split products satisfy most axioms but not the chained pair
        equalities; the construction returns them with the failing report."""
        alg = self.idem_super()
        lam = LinearMap.square(alg.basis, Matrix.from_rows([[-1]]))
        res = rota_baxter_induce(alg, lam, F(1))
        assert dict(res.spec.left.items()) == {(0, 0, 0): F(-1)}
        assert dict(res.spec.right.items()) == {(0, 0, 0): F(-1)}
        assert dict(res.spec.perp.items()) == {(0, 0, 0): F(1)}
        failing = [(v.axiom_id, v.indices) for v in res.report.violations]
        assert failing == [("ii-b", (0, 0, 0)), ("iv-b", (0, 0, 0))]
        for v in res.report.violations:
            assert (v.lhs, v.rhs) == ((F(1),), (F(-1),))

    def test_split_product_formulas(self):
        alg = SuperalgebraSpec.build("dual2s", [0, 0], DUAL, ID2, ID2)
        lam = LinearMap.square(alg.basis, Matrix.diagonal([0, -1]))
        res = rota_baxter_induce(alg, lam, F(1))
        assert dict(res.spec.left.items()) == {(0, 1, 1): F(-1)}
        assert dict(res.spec.right.items()) == {(1, 0, 1): F(-1)}
        assert dict(res.spec.perp.items()) == {k: F(v) for k, v in DUAL.items()}

    def test_rational_weight_scales_the_perp_product(self):
        """grassmann2 twisted as alpha(x)beta(y), with lam = -c times the
        projection onto e_1, a Rota-Baxter operator of every weight c."""
        star = {(0, 0, 0): 1, (0, 1, 1): 3, (1, 0, 1): 2}
        alg = SuperalgebraSpec.build("grassmann2-tw", [0, 1], star, [[1, 0], [0, 2]], [[1, 0], [0, 3]])
        c, lam = F(2, 3), [[0, 0], [0, F(-2, 3)]]
        res = rota_baxter_induce(alg, LinearMap.square(alg.basis, Matrix.from_rows(lam)), c)
        assert res.spec.perp.constants == {key: c * v for key, v in star.items()}
        products = (res.spec.left.constants, res.spec.right.constants, res.spec.perp.constants)
        assert products == rota_baxter_split(star, lam, c)

    def test_non_rota_baxter_operator_rejected_with_pair(self):
        alg = self.idem_super()
        lam = LinearMap.square(alg.basis, Matrix.identity(1))
        with pytest.raises(InputError, match=r"\(0, 0\)"):
            rota_baxter_induce(alg, lam, F(1))

    def test_rejected_pair_is_first_pair_of_the_check(self):
        """grassmann2 twisted as alpha(x)beta(y) with lam = diag(-1, 1) at
        weight 1: the identity holds at (0, 0) and (1, 1) but not at (0, 1) or
        (1, 0).  Induce names the first pair that the check reports on the
        trialgebra with all three products equal to the star product."""
        star = {(0, 0, 0): 1, (0, 1, 1): 3, (1, 0, 1): 2}
        gamma, xi = [[1, 0], [0, 2]], [[1, 0], [0, 3]]
        alg = SuperalgebraSpec.build("grassmann2-tw", [0, 1], star, gamma, xi)
        lam = LinearMap.square(alg.basis, Matrix.diagonal([-1, 1]))
        assert check_superalgebra(alg).passed and lam.is_even
        tri = TrialgebraSpec.build("tri", [0, 1], star, star, star, gamma, xi)
        report = rota_baxter_check(tri, lam, F(1))
        assert [(v.axiom_id, v.indices) for v in report.violations[:2]] == [
            ("rb-left", (0, 1)),
            ("rb-left", (1, 0)),
        ]
        with pytest.raises(InputError) as info:
            rota_baxter_induce(alg, lam, F(1))
        assert str(info.value) == (
            "lambda is not a Rota-Baxter operator of weight 1 "
            f"(fails at pair {report.violations[0].indices})"
        )

    def test_non_associative_input_rejected(self):
        alg = SuperalgebraSpec.build("bad", [0, 0], DUAL, ID2, [[1, 0], [0, 2]])
        lam = LinearMap.square(alg.basis, Matrix.diagonal([0, 0]))
        with pytest.raises(InputError, match="associativity"):
            rota_baxter_induce(alg, lam, F(0))


class TestAveragingCheck:
    def test_identity_and_scalars_average(self):
        spec = builtin("dual2")
        assert averaging_check(spec, identity_map(spec.basis)).passed
        assert averaging_check(spec, square_map(spec, [[2, 0], [0, 2]])).passed

    def test_projection_fails_with_frozen_witness(self):
        spec = builtin("dual2")
        report = averaging_check(spec, square_map(spec, [[0, 0], [0, 1]]))
        v = next(x for x in report.violations if x.axiom_id == "avg-left-1")
        assert v.indices == (1, 0)
        assert (v.lhs, v.rhs) == ((F(0), F(1)), (F(0), F(0)))

    def test_annihilator_projection_averages(self):
        spec = builtin("dual2")
        report = averaging_check(spec, square_map(spec, [[0, 0], [0, 1]]))
        assert not report.passed
        nil = square_map(spec, [[0, 0], [1, 0]])
        assert averaging_check(spec, nil).passed

    def test_structure_map_commutation_reported_not_raised(self):
        spec = builtin("dual2-twisted")
        report = averaging_check(spec, square_map(spec, [[0, 1], [0, 0]]))
        ids = {v.axiom_id for v in report.violations}
        assert "avg-gamma-commute" in ids and "avg-xi-commute" in ids
        v = next(x for x in report.violations if x.axiom_id == "avg-gamma-commute")
        assert v.indices == (1,)
        assert (v.lhs, v.rhs) == ((F(2), F(0)), (F(1), F(0)))

    def test_multiplicative_twist_is_not_averaging(self):
        spec = builtin("dual2-twisted")
        report = averaging_check(spec, spec.gamma)
        assert any(v.axiom_id == "avg-left-1" and v.indices == (1, 0) for v in report.violations)


class TestSwap:
    def test_identity_maps_swap_to_same_spec(self):
        spec = builtin("dual2")
        res = swap_construct(spec)
        assert res.hypothesis_holds
        assert res.swapped == spec
        assert res.report.passed

    def test_non_involutive_maps_flagged_but_swapped_still_checked(self):
        spec = builtin("dual2-twisted")
        res = swap_construct(spec)
        assert not res.hypothesis_holds
        assert res.report.passed
        assert res.swapped.gamma == spec.xi and res.swapped.xi == spec.gamma

    def test_swap_can_break_the_axioms(self):
        spec = TrialgebraSpec(
            name="lop",
            basis=builtin("dual2").basis,
            left=builtin("dual2").left,
            right=builtin("dual2").right,
            perp=builtin("dual2").perp,
            gamma=square_map(builtin("dual2"), [[1, 0], [0, -1]]),
            xi=identity_map(builtin("dual2").basis),
        )
        res = swap_construct(spec)
        assert not res.hypothesis_holds
        assert not res.report.passed


class TestSumProduct:
    def test_zero_products_stay_valid(self):
        res = sum_product_construct(builtin("zero2"))
        assert res.spec.name == "sum(zero2)"
        assert res.report.passed

    def test_doubling_breaks_pair_axioms(self):
        res = sum_product_construct(builtin("idem1"))
        assert dict(res.spec.right.items()) == {(0, 0, 0): F(2)}
        assert not res.report.passed
        v = next(x for x in res.report.violations if x.axiom_id == "ii-a")
        assert v.indices == (0, 0, 0)
        assert (v.lhs, v.rhs) == ((F(1),), (F(2),))

    def test_left_and_perp_untouched(self):
        res = sum_product_construct(builtin("dual2"))
        orig = builtin("dual2")
        assert res.spec.left == orig.left
        assert res.spec.perp == orig.perp

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1, -2, 0], [2, 3, -3, 0], [-1, 0, 4, 0], [0, 0, 0, -1]],
            [["1/2", "1/3", 0, 0], [0, "2/3", 1, 0], ["1/5", 0, "3/2", 0], [0, 0, 0, "5/7"]],
        ],
        ids=["unimodular", "rational"],
    )
    def test_dense_twist_sides_replay(self, rows):
        """Every side is a tuple of Fractions equal to a product_eval replay."""
        base = direct_sum(builtin("dual2-twisted"), builtin("grassmann2"))
        twisted = yau_twist(base, square_map(base, rows)).twisted
        res = sum_product_construct(twisted)
        spec = res.spec
        units = [Matrix.identity(spec.dimension).row(i) for i in range(spec.dimension)]
        sides = {"i": (("gamma", ("xi", 0)), ("xi", ("gamma", 0)))}
        sides.update((axiom_id, (lhs, rhs)) for axiom_id, lhs, rhs in _BIHOM_TRIPLES)

        def replay(term, vectors):
            if isinstance(term, int):
                return vectors[term]
            head, *args = term
            values = [replay(a, vectors) for a in args]
            if head in ("gamma", "xi"):
                return getattr(spec, head).matrix.apply(*values)
            return product_eval(spec, head, *values)

        assert len(res.report.violations) == 324
        for v in res.report.violations:
            for side in (v.lhs, v.rhs):
                assert type(side) is tuple and all(type(c) is Fraction for c in side)
            vectors = [units[i] for i in v.indices]
            lhs, rhs = sides[v.axiom_id]
            assert (v.lhs, v.rhs) == (replay(lhs, vectors), replay(rhs, vectors))


class TestCommutator:
    def test_zero_algebra_gives_zero_brackets(self):
        res = commutator_construct(builtin("zero2"))
        assert res.spec.star.constants == res.spec.bracket.constants == {}
        assert res.report.passed

    def test_commutative_inputs_collapse(self):
        res = commutator_construct(builtin("dual2"))
        assert res.spec.star.constants == res.spec.bracket.constants == {}
        assert res.report.passed
        assert res.spec.name == "comm(dual2)"

    def test_graded_sign_collapses_grassmann(self):
        res = commutator_construct(builtin("grassmann2"))
        assert res.spec.star.constants == {}
        assert res.report.passed

    def test_triangular_matrices_give_solvable_bracket(self):
        tri = {(0, 0, 0): 1, (0, 1, 1): 1}
        spec = TrialgebraSpec.build("tri2", [0, 0], tri, tri, tri, ID2, ID2)
        assert check_bihom(spec).passed
        res = commutator_construct(spec)
        assert dict(res.spec.star.items()) == {(0, 1, 1): F(1), (1, 0, 1): F(-1)}
        assert res.report.passed

    def test_odd_square_contributes_twice(self):
        cliff = dict(DUAL)
        cliff[(1, 1, 0)] = 1
        spec = TrialgebraSpec.build("cliff2", [0, 1], cliff, cliff, cliff, ID2, ID2)
        assert check_bihom(spec).passed
        res = commutator_construct(spec)
        assert dict(res.spec.star.items()) == {(1, 1, 0): F(2)}
        assert res.report.passed


class TestTotalProduct:
    def test_constants_triple(self):
        res = total_product_construct(builtin("dual2"))
        assert res.spec.name == "total(dual2)"
        assert dict(res.spec.star.items()) == {k: F(3 * v) for k, v in DUAL.items()}
        assert res.report.passed

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_corpus_totals_stay_associative(self, name):
        assert total_product_construct(builtin(name)).report.passed


def summed(*tensors):
    """The constant-wise sum of the tensors, zero sums left out."""
    out = {}
    for t in tensors:
        for key, c in t.constants.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_derived_tensors_with_three_distinct_products(seed):
    """Every fixture has left = right = perp; a random rational spec with
    three distinct products (seed 0 has right = perp) tells them apart in
    the sum and total products."""
    spec = random_spec(seed, rational=True)
    assert spec.left != spec.right and spec.right != spec.perp and spec.left != spec.perp
    assert sum_product_construct(spec).spec.right.constants == summed(spec.right, spec.perp)
    assert total_product_construct(spec).spec.star.constants == summed(spec.left, spec.right, spec.perp)
