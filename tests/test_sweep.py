"""The packed-lane sweep is exact: lanes, multipliers, bare slots,
rectangular maps and grouped rows.

A streamed side is one integer whose lane k holds coordinate k, W bits
wide, with W one bit more than the largest static entry bound.  The
algebras below reach that bound exactly, with negative entries next to
positive lanes, so a lane one bit narrower would carry into its neighbour:
a side would unpack wrong, or two different sides would pack to one
integer.  Every violation list is checked against an evaluation that never
packs (``tests/axiom_oracle.py`` or plain Fractions here).
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import axiom_oracle
import pytest
from axiom_oracle import bihom_violations

from supertrial.constructions import direct_sum, sum_product_construct
from supertrial.core import _BIHOM_TRIPLES, LinearMap, TrialgebraSpec, check_bihom, check_morphism, _named
from supertrial.fixtures import builtin, inject_violation
from supertrial.linalg import Matrix
from supertrial.sweep import CheckReport, Violation, _Plan, _sweep, _tabulate

F = Fraction
ID2 = [[1, 0], [0, 1]]


def as_tuples(report):
    return [(v.axiom_id, v.indices, v.lhs, v.rhs) for v in report.violations]


# One-dimensional algebras (left, right, perp, gamma, xi) whose sides reach
# the entry bound: (e e) e = 9 e against e (e e) = -9 e, and so on.
TIGHT_1 = {
    "3,-3,1": (3, -3, 1, 1, 1),
    "-3,3,2": (-3, 3, 2, 1, 1),
    "3,3,-3 gamma -1": (3, 3, -3, -1, -1),
    "5,-3,7 gamma 3 xi -3": (5, -3, 7, 3, -3),
    "3/2,-3,1/2": (F(3, 2), -3, F(1, 2), 1, 1),
}


@pytest.mark.parametrize("name", sorted(TIGHT_1))
def test_one_dimensional_tight_bounds_match_the_oracle(name):
    left, right, perp, gamma, xi = TIGHT_1[name]
    spec = TrialgebraSpec.build(name, [0], {(0, 0, 0): left}, {(0, 0, 0): right}, {(0, 0, 0): perp}, [[gamma]], [[xi]])
    report = check_bihom(spec)
    assert not report.passed
    assert as_tuples(report) == bihom_violations(spec)


def _carry_pair():
    """left(e0, e0) = 4 e0 and right(e0, e0) = -4 e0 + e1: both reach the
    bound 4, and 4 = -4 + 2^3 * 1, so lanes of 3 bits would pack the two
    sides to one integer."""
    return TrialgebraSpec.build("carry", [0, 0], {(0, 0, 0): 4}, {(0, 0, 0): -4, (0, 0, 1): 1}, {}, ID2, ID2)


def test_two_dimensional_sides_that_a_narrow_lane_would_equate():
    spec = _carry_pair()
    row = ("t", ("left", 0, 1), ("right", 0, 1))
    report = _sweep(2, 2, _named(spec), (row,))
    assert as_tuples(report) == [("t", (0, 0), (F(4), F(0)), (F(-4), F(1)))]
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec)


def test_violation_sides_at_the_lane_bound_match_the_oracle():
    """Both sides over the denominator 2 with numerators up to 7, so lanes
    are W = 4 bits and the sides reach +-7 = +-(2^(W-1) - 1) in the top lane
    and the middle one: each side is read lane by lane from its packed int,
    with no lane borrowing from or carrying into its neighbours."""
    h = F(7, 2)
    left = {(0, 0, 0): -h, (0, 0, 1): h, (0, 0, 2): -h, (1, 2, 2): h, (2, 1, 1): -h, (2, 2, 1): h}
    right = {(0, 0, 0): h, (0, 0, 1): -h, (0, 0, 2): h, (1, 2, 1): -h, (2, 1, 2): h, (2, 2, 0): F(-1, 2)}
    id3 = [[int(i == j) for j in range(3)] for i in range(3)]
    spec = TrialgebraSpec.build("lanes", [0, 0, 0], left, right, {}, id3, id3)
    ops, row = _named(spec), ("t", ("left", 0, 1), ("right", 0, 1))
    plan = _Plan(3, ops, 2)
    sides = [plan.place(term) for term in row[1:]]
    assert [(plan.dens[p], plan.bounds[p][0], plan.ints[p]) for p in sides] == [(2, 7, True)] * 2
    found = as_tuples(_sweep(3, 2, ops, (row,)))
    assert {v[lane] for _, _, lhs, rhs in found for v in (lhs, rhs) for lane in (1, 2)} >= {h, -h}
    lt, gt = (lambda o, a, b: o.lt(a, b)), (lambda o, a, b: o.gt(a, b))
    assert found == axiom_oracle._sweep(axiom_oracle._Ops(spec), 2, [("t", lt, gt)])
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec)


def test_a_violation_is_a_named_tuple_of_four_fields():
    v = Violation("ii-a", (0, 1, 1), (F(1), F(0)), (F(0), F(-1, 2)))
    assert Violation._fields == ("axiom_id", "indices", "lhs", "rhs")
    assert tuple(v) == ("ii-a", (0, 1, 1), (F(1), F(0)), (F(0), F(-1, 2)))
    for field in Violation._fields:
        with pytest.raises(AttributeError):
            setattr(v, field, None)


def test_collect_orders_by_axiom_and_indices_and_keeps_ties_in_order():
    """Ties keep their input order even where their sides would sort the
    other way."""
    a, b, c, d, e = (Violation(i, t, (F(x),), ()) for i, t, x in (
        ("ii", (1, 0), 2), ("i", (2,), 3), ("ii", (0, 1), 5), ("ii", (1, 0), 1), ("i", (2,), 0)))
    report = CheckReport.collect([a, b, c, d, e])
    assert report.violations == (b, e, c, a, d)
    assert report.merge(CheckReport.collect([e, a])).violations == (b, e, e, c, a, d, a)


def test_sides_over_different_denominators():
    """lhs * D_rhs against rhs * D_lhs: left carries halves, right integers."""
    spec = TrialgebraSpec.build(
        "halves", [0, 0], {(0, 0, 0): F(-3, 2), (0, 1, 1): F(1, 2)}, {(0, 0, 0): 1, (0, 1, 1): 1}, {}, ID2, ID2
    )
    ops = _named(spec)
    plan = _Plan(2, ops, 2)
    assert (plan.dens[plan.place(("left", 0, 1))], plan.dens[plan.place(("right", 0, 1))]) == (2, 1)
    rows = (
        ("differ", ("left", 0, 1), ("right", 0, 1)),
        # 2 * left(e0, e1) = e1 over 2 and right(e0, e1) = e1 over 1 agree.
        ("twice", ("*", F(2), ("left", 0, 1)), ("right", 0, 1)),
    )
    assert as_tuples(_sweep(2, 2, ops, rows)) == [
        ("differ", (0, 0), (F(-3, 2), F(0)), (F(1), F(0))),
        ("differ", (0, 1), (F(0), F(1, 2)), (F(0), F(1))),
        ("twice", (0, 0), (F(-3), F(0)), (F(1), F(0))),
    ]


def test_equal_packed_sides_over_different_denominators_unpack_apart():
    """left(e_i, e_j) against half of it: both sides pack to one int per
    tuple, over the denominators 1 and 2, so a side is known by its packed
    int and its denominator, never by the int alone."""
    ops = _named(builtin("dual2"))
    report = _sweep(2, 2, ops, (("half", ("left", 0, 1), ("*", F(1, 2), ("left", 0, 1))),))
    assert as_tuples(report) == [
        ("half", (0, 0), (F(1), F(0)), (F(1, 2), F(0))),
        ("half", (0, 1), (F(0), F(1)), (F(0), F(1, 2))),
        ("half", (1, 0), (F(0), F(1)), (F(0), F(1, 2))),
    ]
    assert all(v.rhs == tuple(x / 2 for x in v.lhs) for v in report.violations)


def test_equal_packed_sides_of_two_lengths_unpack_apart():
    """One sweep compares sides in the plane and, through an embedding f,
    in 3-space: f(v) packs to the same int as v over the same denominator,
    so a side is known by its packed int, denominator and length."""
    ops = {**_named(builtin("dual2")), "f": Matrix.from_rows([[1, 0], [0, 1], [0, 0]])}
    v, fv = ("left", 0, 1), ("f", ("left", 0, 1))
    report = _sweep(2, 2, ops, (("plane", v, ("*", F(2), v)), ("space", fv, ("*", F(2), fv))))
    assert as_tuples(report) == [
        ("plane", (0, 0), (F(1), F(0)), (F(2), F(0))),
        ("plane", (0, 1), (F(0), F(1)), (F(0), F(2))),
        ("plane", (1, 0), (F(0), F(1)), (F(0), F(2))),
        ("space", (0, 0), (F(1), F(0), F(0)), (F(2), F(0), F(0))),
        ("space", (0, 1), (F(0), F(1), F(0)), (F(0), F(2), F(0))),
        ("space", (1, 0), (F(0), F(1), F(0)), (F(0), F(2), F(0))),
    ]


def test_each_distinct_side_is_one_object():
    """The sum-product report on dual2 has 24 violations whose 48 sides take
    6 values: each is unpacked once and shared by every violation it sides."""
    violations = sum_product_construct(builtin("dual2")).report.violations
    sides = [side for v in violations for side in (v.lhs, v.rhs)]
    assert len(violations) == 24
    assert len(set(sides)) == len({id(side) for side in sides}) == 6


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_a_side_that_is_a_bare_slot(arity):
    """e_i against gamma(e_i), with gamma = [[1, 0], [1, 2]]: both basis
    vectors move, each read off a slot's own table at every arity."""
    spec = TrialgebraSpec.build("moved", [0, 0], {}, {}, {}, [[1, 0], [1, 2]], ID2)
    rows = (("fixed", 0, ("gamma", 0)), ("fixed-last", ("gamma", arity - 1), arity - 1))
    report = _sweep(2, arity, _named(spec), rows)
    images = {0: (F(1), F(1)), 1: (F(0), F(2))}
    units = {0: (F(1), F(0)), 1: (F(0), F(1))}
    expected = []
    for idx in itertools.product(range(2), repeat=arity):
        expected.append(("fixed", idx, units[idx[0]], images[idx[0]]))
        expected.append(("fixed-last", idx, images[idx[-1]], units[idx[-1]]))
    assert as_tuples(report) == sorted(expected, key=lambda v: (v[0], v[1]))


def test_a_sweep_refuses_a_slot_outside_its_arity():
    """The BiHom triples read slot 2, so a sweep of them over pairs is an
    error, not a sweep that reads slot 2 as the first step's value."""
    spec = inject_violation(builtin("dual2-twisted"), "left", (0, 0, 0), 1)
    with pytest.raises(ValueError, match="slot 2 is outside arity 2"):
        _sweep(2, 2, _named(spec), _BIHOM_TRIPLES)


def test_a_table_refuses_a_slot_outside_its_arity():
    spec = builtin("dual2")
    with pytest.raises(ValueError, match="slot 1 is outside arity 1"):
        _tabulate(2, 1, _named(spec), [("left", 0, 1)])


def _morphism_oracle(src, dst, pi):
    """check_morphism's violations evaluated densely with Fractions."""
    rows, cols = len(pi), len(pi[0])

    def apply(m, v):
        return tuple(sum((F(m[i][j]) * v[j] for j in range(len(v))), F(0)) for i in range(len(m)))

    def product(spec, tag, a, b):
        out = [F(0)] * len(a)
        for (i, j, k), c in getattr(spec, tag).constants.items():
            out[k] += c * a[i] * b[j]
        return tuple(out)

    def unit(i):
        return tuple(F(int(i == j)) for j in range(cols))

    def rows_of(lmap):
        return [lmap.matrix.row(i) for i in range(lmap.matrix.rows)]

    found = []
    for label in ("gamma", "xi"):
        m, m2 = rows_of(getattr(src, label)), rows_of(getattr(dst, label))
        for i in range(cols):
            lhs, rhs = apply(m2, apply(pi, unit(i))), apply(pi, apply(m, unit(i)))
            if lhs != rhs:
                found.append((f"{label}-compat", (i,), lhs, rhs))
    for tag in ("left", "right", "perp"):
        for i, j in itertools.product(range(cols), repeat=2):
            lhs = apply(pi, product(src, tag, unit(i), unit(j)))
            rhs = product(dst, tag, apply(pi, unit(i)), apply(pi, unit(j)))
            if lhs != rhs:
                found.append((tag, (i, j), lhs, rhs))
    assert all(len(v[2]) == rows for v in found)
    return sorted(found, key=lambda v: (v[0], v[1]))


RECTANGULAR = {
    "dual2-twisted to idem1": ("dual2-twisted", "idem1", [[3, -2]]),
    "idem1 to dual2-twisted": ("idem1", "dual2-twisted", [[2], [-1]]),
    "dual2 to dsum": ("dual2", "dsum-zero2-idem1", [[1, 0], [0, 0], [-1, 1]]),
}


@pytest.mark.parametrize("name", sorted(RECTANGULAR))
def test_check_morphism_with_a_rectangular_map(name):
    source, target, rows = RECTANGULAR[name]
    src, dst = builtin(source), builtin(target)
    pi = LinearMap.between(src.basis, dst.basis, Matrix.from_rows(rows))
    report = check_morphism(src, dst, pi)
    assert not report.passed
    assert as_tuples(report) == _morphism_oracle(src, dst, rows)


def _sheared_zero2():
    """Zero products with gamma = id and xi = [[1, 1], [0, 1]] on two even
    vectors: a valid algebra whose xi is neither the identity nor gamma."""
    return TrialgebraSpec.build("zero2-sheared", [0, 0], {}, {}, {}, Matrix.identity(2), [[1, 1], [0, 1]])


SHEARED = {
    "zero2-sheared": _sheared_zero2,
    "zero2-sheared+dual2-twisted": lambda: direct_sum(_sheared_zero2(), builtin("dual2-twisted")),
    "zero2-sheared+idem1": lambda: direct_sum(_sheared_zero2(), builtin("idem1")),
}


def _injections(spec, seed, count):
    """``count`` admissible (product, triple, delta) perturbations, by seed."""
    rng = random.Random(seed)
    p, n = spec.basis.parities, spec.dimension
    admissible = [
        (tag, t) for tag in ("left", "right", "perp") for t in itertools.product(range(n), repeat=3)
        if p[t[2]] == (p[t[0]] + p[t[1]]) % 2
    ]
    return [(tag, t, rng.choice([1, -2, F(3, 2), F(-1, 3)])) for tag, t in rng.sample(admissible, count)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SHEARED))
def test_gamma_not_xi_with_injected_violations_match_the_oracle(name, seed):
    spec = SHEARED[name]()
    assert spec.gamma != spec.xi and check_bihom(spec).passed
    for tag, triple, delta in _injections(spec, seed, 1 + seed):
        spec = inject_violation(spec, tag, triple, delta)
    report = check_bihom(spec)
    assert not report.passed
    assert as_tuples(report) == bihom_violations(spec)


def test_rows_with_one_pair_of_sides_are_reported_as_if_swept_alone():
    """grassmann2 with one constant bumped in all three products keeps
    left = right = perp and gamma = xi = id, so most BiHom rows compare the
    same two sides; each is still reported on every failing tuple, with
    the sides it gives when swept alone."""
    base = builtin("grassmann2")
    bumped = inject_violation(base, "left", (1, 0, 1), 1).left
    spec = replace(base, left=bumped, right=bumped, perp=bumped)
    ops, n = _named(spec), spec.dimension
    together = _sweep(n, 3, ops, _BIHOM_TRIPLES).violations
    alone = CheckReport.collect(v for row in _BIHOM_TRIPLES for v in _sweep(n, 3, ops, (row,)).violations)
    assert together == alone.violations
    # ii-b compares one term with itself here; every other row fails.
    assert {v.axiom_id for v in together} == {row[0] for row in _BIHOM_TRIPLES} - {"ii-b"}
    by_id = {}
    for v in together:
        by_id.setdefault(v.axiom_id, []).append(v.indices)
    assert len({tuple(t) for t in by_id.values()}) == 1
    # The rows of one group share their side vectors on a tuple.
    first = {v.indices: v for v in together if v.axiom_id == "ii-a"}
    assert all(v.lhs is first[v.indices].lhs for v in together if v.axiom_id in ("iii", "iv-a", "v", "vi", "vii"))
