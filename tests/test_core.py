"""Data model validation, axiom sweeps, and the two annihilator computations."""

import gc
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from supertrial import sweep
from supertrial.constructions import commutator_construct, direct_sum, yau_twist
from supertrial.core import (
    LinearMap,
    StructureTensor,
    SuperBasis,
    SuperalgebraSpec,
    TrialgebraSpec,
    center,
    centralizer,
    check_bihom,
    check_hom,
    check_morphism,
    check_multiplicative,
    check_superalgebra,
    identity_map,
    parity_class,
    product_eval,
    _BIHOM_TRIPLES,
    _named,
    _sweep,
)
from supertrial.errors import InputError, ModeError, ParityError
from supertrial.fixtures import builtin, inject_violation
from supertrial.linalg import Matrix, canonical_span
from supertrial.spaces import proposition_battery

F = Fraction

DUAL = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
ID2 = [[1, 0], [0, 1]]


def unit_vector(dim, index):
    return Matrix.identity(dim).row(index)


def dual2_with(gamma=ID2, xi=ID2, parities=(0, 0)):
    return TrialgebraSpec.build("t", parities, DUAL, DUAL, DUAL, gamma, xi)


class TestSuperBasis:
    def test_needs_a_vector(self):
        with pytest.raises(InputError):
            SuperBasis(())

    def test_rejects_non_bits(self):
        with pytest.raises(ParityError):
            SuperBasis((0, 2))

    def test_dimension_counts_the_parities(self):
        b = SuperBasis((0, 1))
        assert b.dimension == 2


class TestParityClass:
    def test_diagonal_is_even(self):
        assert parity_class(Matrix.diagonal([1, 2]), (0, 1), (0, 1)) == "even"

    def test_antidiagonal_is_odd(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert parity_class(m, (0, 1), (0, 1)) == "odd"

    def test_general_is_mixed(self):
        m = Matrix.from_rows([[1, 1], [0, 0]])
        assert parity_class(m, (0, 1), (0, 1)) == "mixed"

    def test_zero_counts_as_even(self):
        assert parity_class(Matrix.diagonal([0, 0]), (0, 1), (0, 1)) == "even"


class TestLinearMap:
    def test_square_shape_guard(self):
        with pytest.raises(InputError):
            LinearMap.square(SuperBasis((0, 0)), Matrix.identity(3))

    def test_between_rectangular(self):
        m = LinearMap.between(SuperBasis((0, 0)), SuperBasis((0,)), Matrix.from_rows([[1, 0]]))
        assert m.matrix.apply((F(2), F(5))) == (F(2),)

    def test_compose_order(self):
        b = SuperBasis((0, 0))
        f = LinearMap.square(b, Matrix.from_rows([[0, 1], [0, 0]]))
        g = LinearMap.square(b, Matrix.from_rows([[0, 0], [1, 0]]))
        assert f.compose(g).matrix == Matrix.diagonal([1, 0])


class TestStructureTensor:
    def test_range_check(self):
        with pytest.raises(InputError):
            StructureTensor.build(2, {(0, 0, 2): 1})

    def test_zeros_dropped(self):
        t = StructureTensor.build(2, {(0, 0, 0): 0})
        assert t.constants == {}

    def test_bilinear_matches_structure_constants(self):
        t = StructureTensor.build(2, DUAL)
        e = [unit_vector(2, 0), unit_vector(2, 1)]
        products = [t.bilinear(e[i], e[j]) for i in range(2) for j in range(2)]
        assert products == [(F(1), F(0)), (F(0), F(1)), (F(0), F(1)), (F(0), F(0))]
        assert t.bilinear((F(1), F(1)), (F(1), F(1))) == (F(1), F(2))

    def test_rational_constants_share_one_denominator(self):
        t = StructureTensor.build(2, {(0, 1, 0): "1/2", (0, 1, 1): "-2/3", (1, 1, 1): 5})
        assert t.by_pair == (6, (((), ((0, 3), (1, -4))), ((), ((1, 30),))))
        assert t.bilinear(unit_vector(2, 0), unit_vector(2, 1)) == (F(1, 2), F(-2, 3))
        out = t.bilinear((F(2), F(1, 5)), (F(0), F(3)))
        assert out == (F(3), F(-1)) and all(type(c) is F for c in out)


class TestSpecValidation:
    def test_tensor_dimension_mismatch(self):
        basis = SuperBasis((0, 0))
        bad = StructureTensor.build(3, {})
        good = StructureTensor.build(2, {})
        with pytest.raises(InputError):
            TrialgebraSpec("t", basis, bad, good, good, identity_map(basis))

    def test_odd_structure_map_rejected(self):
        with pytest.raises(ParityError):
            TrialgebraSpec.build("t", [0, 1], {}, {}, {}, [[0, 1], [1, 0]], ID2)

    def test_parity_inhomogeneous_constant_rejected(self):
        with pytest.raises(ParityError, match="left"):
            TrialgebraSpec.build("t", [0, 1], {(0, 0, 1): 1}, {}, {}, ID2, ID2)

    @staticmethod
    def graded_specs():
        """A bracket pair, a superalgebra and a trialgebra on grassmann2's basis."""
        pair = commutator_construct(builtin("grassmann2")).spec
        alg = SuperalgebraSpec(pair.name, pair.basis, pair.star, pair.gamma, pair.xi)
        spec = TrialgebraSpec(pair.name, pair.basis, pair.star, pair.star, pair.star, pair.gamma, pair.xi)
        return pair, alg, spec

    @pytest.mark.parametrize("field", ["gamma", "xi"])
    def test_every_graded_spec_rejects_an_odd_structure_map(self, field):
        """Bracket pairs hold the invariants of the other graded specs: an odd
        gamma or xi is refused by all three with one message."""
        pair, alg, spec = self.graded_specs()
        odd = LinearMap.square(pair.basis, Matrix.from_rows([[0, 1], [1, 0]]))
        for graded in (pair, alg, spec):
            with pytest.raises(ParityError) as info:
                replace(graded, **{field: odd})
            assert str(info.value) == f"{field} must be an even map"

    def test_every_graded_spec_checks_each_tensor_it_declares(self):
        """``TENSORS`` names every tensor field of each kind, and each is
        checked: an odd constant is refused naming the tensor, and so is a
        tensor of another dimension."""
        odd = StructureTensor.build(2, {(0, 0, 1): 1})
        wide = StructureTensor.build(3, {})
        kinds = {}
        for graded in self.graded_specs():
            tensors = [f.name for f in fields(graded) if isinstance(getattr(graded, f.name), StructureTensor)]
            assert list(graded.TENSORS) == tensors
            kinds[type(graded).__name__] = tensors
            for label in tensors:
                with pytest.raises(ParityError) as info:
                    replace(graded, **{label: odd})
                assert str(info.value) == f"{label} constant at (0, 0, 1): parity(k)=1 differs from parity(i)+parity(j)=0"
                with pytest.raises(InputError) as info:
                    replace(graded, **{label: wide})
                assert type(info.value) is InputError
                assert str(info.value) == f"{label} tensor dimension 3 does not match basis size 2"
        assert kinds == {
            "BracketPairSpec": ["star", "bracket"],
            "SuperalgebraSpec": ["star"],
            "TrialgebraSpec": ["left", "right", "perp"],
        }

    def test_specs_that_need_xi_refuse_to_build_without_it(self):
        """A superalgebra and a bracket pair carry xi, so neither builds
        without it; the error names the spec and xi."""
        pair, alg, _ = self.graded_specs()
        for graded in (pair, alg):
            with pytest.raises(InputError) as info:
                replace(graded, xi=None)
            assert isinstance(info.value, ModeError)
            assert graded.name in str(info.value) and "xi" in str(info.value)
        with pytest.raises(ModeError, match="xi"):
            SuperalgebraSpec.build("s", [0], {(0, 0, 0): 1}, [[1]], None)

    def test_a_trialgebra_builds_without_xi(self):
        *_, spec = self.graded_specs()
        assert replace(spec, xi=None).xi is None
        assert TrialgebraSpec.build("t", [0], {}, {}, {}, [[1]], None).xi is None

    def test_build_equals_the_dataclass_constructor(self):
        """``build`` reads each kind's shape from ``TENSORS``: constants in
        that order, then gamma and xi as rows or a ``Matrix``."""
        for graded in self.graded_specs():
            constants = [dict(t.constants) for _, t in graded.products()]
            rows = [[graded.gamma.matrix.row(i) for i in range(graded.dimension)], graded.xi.matrix]
            assert type(graded).build(graded.name, graded.basis.parities, *constants, *rows) == graded

    def test_wrongly_sized_structure_map_names_both_sizes(self):
        *_, spec = self.graded_specs()
        wide = identity_map(SuperBasis((0, 1, 1)))
        for field in ("gamma", "xi"):
            with pytest.raises(InputError) as info:
                replace(spec, **{field: wide})
            assert str(info.value) == f"{field} must be 2x2, got 3x3"

    def test_require_xi(self):
        spec = TrialgebraSpec.build("t", [0], {}, {}, {}, [[1]])
        assert spec.xi is None
        with pytest.raises(ModeError):
            spec.require_xi()
        with pytest.raises(ModeError):
            check_bihom(spec)

    def test_unknown_product_tag(self):
        with pytest.raises(InputError):
            builtin("dual2").tensor("star")


class TestProductEval:
    def test_dual2_products(self):
        spec = builtin("dual2")
        e1, e2 = unit_vector(2, 0), unit_vector(2, 1)
        assert product_eval(spec, "left", e1, e2) == e2
        assert product_eval(spec, "right", e2, e2) == (F(0), F(0))
        assert product_eval(spec, "perp", e1, e1) == e1

    def test_bilinearity_in_coordinates(self):
        spec = builtin("dual2")
        x = (F(2), F(3))
        y = (F(1), F(-1))
        assert product_eval(spec, "left", x, y) == (F(2), F(1))


class TestCheckBihom:
    @pytest.mark.parametrize("name", ["zero2", "idem1", "dual2", "dual2-twisted", "grassmann2"])
    def test_fixtures_pass(self, name):
        assert check_bihom(builtin(name)).passed

    def test_non_commuting_maps_flagged(self):
        spec = dual2_with(gamma=[[1, 1], [0, 1]], xi=[[1, 0], [0, 2]])
        ids = {v.axiom_id for v in check_bihom(spec).violations}
        assert "i" in ids
        first = next(v for v in check_bihom(spec).violations if v.axiom_id == "i")
        assert len(first.indices) == 1

    def test_perturbed_left_detected_with_replay(self):
        spec = inject_violation(builtin("dual2"), "left", (0, 0, 0), 1)
        report = check_bihom(spec)
        assert not report.passed
        v = next(x for x in report.violations if x.axiom_id == "ii-a" and x.indices == (0, 0, 0))
        e1 = unit_vector(2, 0)
        lhs = product_eval(spec, "left", product_eval(spec, "left", e1, e1), spec.xi.matrix.apply(e1))
        rhs = product_eval(spec, "left", spec.gamma.matrix.apply(e1), product_eval(spec, "right", e1, e1))
        assert (v.lhs, v.rhs) == (lhs, rhs)
        assert v.lhs == (F(4), F(0))
        assert v.rhs == (F(2), F(0))

    def test_violations_sorted(self):
        report = check_bihom(inject_violation(builtin("dual2"), "perp", (0, 0, 0), 1))
        keys = [(v.axiom_id, v.indices) for v in report.violations]
        assert keys == sorted(keys)

    def test_perp_only_algebra_passes(self):
        spec = TrialgebraSpec.build("perp-only", [0], {}, {}, {(0, 0, 0): 1}, [[1]], [[1]])
        assert check_bihom(spec).passed


class TestCheckHom:
    def test_fixture_constants_pass_without_xi(self):
        spec = TrialgebraSpec.build("d", [0, 0], DUAL, DUAL, DUAL, ID2)
        assert check_hom(spec).passed

    def test_non_multiplicative_gamma_fails_pairs(self):
        spec = TrialgebraSpec.build("i", [0], {(0, 0, 0): 1}, {(0, 0, 0): 1}, {(0, 0, 0): 1}, [[2]])
        report = check_hom(spec)
        v = next(x for x in report.violations if x.axiom_id == "gamma-left")
        assert v.indices == (0, 0)
        assert (v.lhs, v.rhs) == ((F(2),), (F(4),))

    def test_triple_identity_catches_skew(self):
        spec = TrialgebraSpec.build(
            "skew", [0, 0], {(0, 1, 1): 1}, {}, {}, ID2
        )
        report = check_hom(spec)
        assert {v.axiom_id for v in report.violations} == {"h06"}
        v = report.violations[0]
        assert v.indices == (0, 0, 1)

    def test_ignores_xi(self):
        spec = dual2_with(xi=[[3, 0], [0, 3]])
        assert check_hom(spec).passed


def test_sides_that_read_fewer_slots_than_the_arity():
    """A side that reads only some slots comes from its table: at arity 2,
    gamma(e_i) = xi(e_i) fails on every (i, j) with i a failing single."""
    spec = dual2_with(gamma=[[1, 0], [1, 2]], xi=[["1/2", 0], [0, 2]])
    ops = _named(spec)
    row = ("maps", ("gamma", 0), ("xi", 0))
    singles = _sweep(2, 1, ops, (row,)).violations
    pairs = _sweep(2, 2, ops, (row,)).violations
    assert [v.indices for v in singles] == [(0,)]
    assert [(v.indices, v.lhs, v.rhs) for v in pairs] == [
        ((0, j), v.lhs, v.rhs) for v in singles for j in range(2)
    ]
    # The side read at j = 0 is the one read at j = 1, and the other way round.
    row = ("swapped", ("+", ("gamma", 0), ("xi", 1)), ("+", ("gamma", 1), ("xi", 0)))
    assert [v.indices for v in _sweep(2, 2, ops, (row,)).violations] == [(0, 1), (1, 0)]


def test_zero_scale_is_the_zero_vector():
    """0 * e_i and e_i - e_i are the same zero vector."""
    ops = _named(dual2_with())
    row = ("zero", ("*", F(0), 0), ("+", ("*", F(1), 0), ("*", F(-1), ("gamma", 0))))
    assert _sweep(2, 1, ops, (row,)).passed


def test_equal_operators_share_steps():
    """grassmann2 has left = right = perp and gamma = xi = id, so the BiHom
    triples need a product on slots (0, 1), one on (1, 2), and the two
    bracketings of three slots, which are the only steps per tuple."""
    spec = builtin("grassmann2")
    plan = sweep._Plan(spec.dimension, _named(spec), 3)
    for _, lhs, rhs in _BIHOM_TRIPLES:
        plan.place(lhs), plan.place(rhs)
    assert sorted(plan.reads[3:]) == [(0, 1), (0, 1, 2), (0, 1, 2), (1, 2)]


def test_steps_of_dropped_rows_do_not_run(monkeypatch):
    """grassmann2 has gamma = xi = id, so both sides of each multiplicativity
    row are one product step and every row is dropped; no step is then
    built at all, while the BiHom triples still build theirs."""
    built = []
    step_fn = sweep._step_fn
    monkeypatch.setattr(sweep, "_step_fn", lambda plan, pos, lanes: built.append(pos) or step_fn(plan, pos, lanes))
    assert check_multiplicative(builtin("grassmann2")).passed
    assert built == []
    assert check_bihom(builtin("grassmann2")).passed
    assert built


def test_sweeps_leave_no_cyclic_garbage():
    """A sweep's plan and tables, and a tabulation's, are freed by reference
    counting alone: with the collector paused, nothing is left for it on a
    dimension-6 algebra.  So are a battery's memo and helpers: the algebra is
    regular and its Koszul battery fails chain-d-in-qd, so that run also
    decides lines one by one past (0, 0)."""
    spec = direct_sum(builtin("dual2-twisted"), direct_sum(builtin("grassmann2"), builtin("dual2")))
    assert spec.dimension == 6
    l = LinearMap.square(spec.basis, Matrix.diagonal([1, 2, "1/2", 3, 1, 5]))
    subset = [unit_vector(6, 1), (F(1), F(0), F(2), F(0), F(0), F(3))]
    runs = {
        "check_bihom": check_bihom,
        "check_hom": check_hom,
        "commutator_construct": commutator_construct,
        "yau_twist": lambda s: yau_twist(s, l),
        "center": center,
        "centralizer": lambda s: centralizer(s, subset),
        "battery": lambda s: proposition_battery(s, 1),
        "koszul_battery": lambda s: proposition_battery(s, 1, koszul=True),
    }
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            run(spec)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


class TestCheckMultiplicative:
    @pytest.mark.parametrize("name", ["zero2", "dual2-twisted", "dsum-zero2-idem1"])
    def test_fixtures_pass(self, name):
        assert check_multiplicative(builtin(name)).passed

    def test_additive_but_not_multiplicative_map(self):
        spec = dual2_with(gamma=[[1, 0], [1, 1]])
        report = check_multiplicative(spec)
        v = next(x for x in report.violations if x.axiom_id == "gamma-left")
        assert v.indices == (0, 0)
        assert (v.lhs, v.rhs) == ((F(1), F(1)), (F(1), F(2)))

    def test_xi_checked_separately(self):
        spec = dual2_with(xi=[[1, 0], [1, 1]])
        ids = {v.axiom_id for v in check_multiplicative(spec).violations}
        assert ids == {"xi-left", "xi-right", "xi-perp"}


class TestCheckSuperalgebra:
    def test_idempotent_passes(self):
        alg = SuperalgebraSpec.build("i", [0], {(0, 0, 0): 1}, [[1]], [[1]])
        assert check_superalgebra(alg).passed

    def test_unbalanced_twist_fails(self):
        alg = SuperalgebraSpec.build("d", [0, 0], DUAL, ID2, [[1, 0], [0, 2]])
        report = check_superalgebra(alg)
        assert not report.passed
        v = report.violations[0]
        assert v.axiom_id == "bihom-assoc"
        assert v.indices == (0, 0, 1)
        assert (v.lhs, v.rhs) == ((F(0), F(2)), (F(0), F(1)))


class TestCheckMorphism:
    def test_identity_passes(self):
        spec = builtin("dual2")
        assert check_morphism(spec, spec, identity_map(spec.basis)).passed

    def test_zero_map_passes(self):
        spec = builtin("dual2")
        z = LinearMap.square(spec.basis, Matrix.diagonal([0, 0]))
        assert check_morphism(spec, spec, z).passed

    def test_scaling_fails_products(self):
        spec = builtin("dual2")
        two = LinearMap.square(spec.basis, Matrix.diagonal([2, 2]))
        report = check_morphism(spec, spec, two)
        v = next(x for x in report.violations if x.axiom_id == "left")
        assert v.indices == (0, 0)
        assert (v.lhs, v.rhs) == ((F(2), F(0)), (F(4), F(0)))

    def test_rectangular_projection(self):
        src = builtin("dual2")
        dst = builtin("idem1")
        good = LinearMap.between(src.basis, dst.basis, Matrix.from_rows([[1, 0]]))
        assert check_morphism(src, dst, good).passed
        bad = LinearMap.between(src.basis, dst.basis, Matrix.from_rows([[0, 1]]))
        report = check_morphism(src, dst, bad)
        assert not report.passed
        assert any(v.axiom_id == "left" and v.indices == (0, 1) for v in report.violations)

    def test_shape_mismatch_is_input_error(self):
        src = builtin("dual2")
        dst = builtin("idem1")
        wrong = LinearMap.square(src.basis, Matrix.identity(2))
        with pytest.raises(InputError):
            check_morphism(src, dst, wrong)

    def test_xi_presence_must_agree(self):
        src = builtin("dual2")
        dst = TrialgebraSpec.build("d", [0, 0], DUAL, DUAL, DUAL, ID2)
        with pytest.raises(InputError):
            check_morphism(src, dst, identity_map(src.basis))

    def test_structure_map_compat_ids(self):
        src = dual2_with(gamma=[[1, 0], [0, 2]], xi=[[1, 0], [0, 2]])
        dst = builtin("dual2")
        report = check_morphism(src, dst, identity_map(src.basis))
        ids = {v.axiom_id for v in report.violations}
        assert ids == {"gamma-compat", "xi-compat"}
        assert all(len(v.indices) == 1 for v in report.violations)


class TestCenter:
    def test_zero_products_everything_central(self):
        assert center(builtin("zero2")) == (
            (F(1), F(0)),
            (F(0), F(1)),
        )

    def test_idempotent_trivial(self):
        assert center(builtin("idem1")) == ()

    def test_dual2_trivial(self):
        assert center(builtin("dual2")) == ()

    def test_direct_sum_keeps_zero_block(self):
        basis = center(builtin("dsum-zero2-idem1"))
        assert basis == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))


class TestCentralizer:
    def test_empty_subset(self):
        assert centralizer(builtin("dual2"), []) == ()

    def test_whole_algebra_matches_center(self):
        spec = builtin("dual2")
        units = [unit_vector(2, 0), unit_vector(2, 1)]
        assert centralizer(spec, units) == center(spec)

    def test_whole_dense_algebra_matches_center(self):
        """zero2 + dual2 conjugated by an even unimodular map: a dense
        dimension-4 algebra with a two-dimensional center."""
        base = direct_sum(builtin("zero2"), builtin("dual2"))
        l = Matrix.from_rows([[1, 0, 1, 0], [0, -1, 0, 0], [2, 0, 3, 1], [1, 0, 2, 2]])
        spec = yau_twist(base, LinearMap.square(base.basis, l)).twisted
        units = [unit_vector(4, i) for i in range(4)]
        assert len(center(spec)) == 2
        assert centralizer(spec, units) == canonical_span(center(spec), 4)

    def test_nilpotent_line_centralizes_itself(self):
        spec = builtin("dual2")
        assert centralizer(spec, [unit_vector(2, 1)]) == ((F(0), F(1)),)

    def test_unit_is_not_centralized_by_itself(self):
        spec = builtin("idem1")
        assert centralizer(spec, [unit_vector(1, 0)]) == ()

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            centralizer(builtin("dual2"), [(F(1),)])
