"""``check_bihom`` and ``check_hom`` agree with the independent oracle.

The corpus fixtures all have left = right = perp and gamma = xi, so a row
of either system could name the wrong product or the wrong structure map
and still pass on them.  The seeded random algebras below have three
different products, both parities and gamma != xi, and between them make
every identity fail somewhere; on each, the whole violation list (ids,
indices, both sides and order) must match the oracle's.

The fixtures and the integer random algebras have integer constants only.
The rational random algebras and the Yau twists by a non-unimodular map
below carry denominators, so the two sides of an identity are often built
over different denominators and must still compare as rationals.  On those
twists the Rota-Baxter and commutator sweeps are also checked against the
oracle's evaluation.

The dense rational algebras at n = 6 at the end run all four comparisons
past the dimension of the fixtures, with a random value drawn for every
structure constant and map entry that the grading allows, many of them
fractions.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from axiom_oracle import (
    BIHOM_IDS,
    HOM_IDS,
    _Ops,
    _sorted,
    _sweep,
    bihom_violations,
    hom_violations,
    multiplicative_violations,
)

from supertrial.constructions import commutator_construct, direct_sum, rota_baxter_check, yau_twist
from supertrial.core import (
    PRODUCT_TAGS,
    LinearMap,
    StructureTensor,
    TrialgebraSpec,
    center,
    centralizer,
    check_bihom,
    check_hom,
    check_multiplicative,
    identity_map,
)
from supertrial.errors import SingularMapError
from supertrial.fixtures import FIXTURE_NAMES, builtin, inject_violation
from supertrial.linalg import Matrix, canonical_span, invert, nullspace_basis

SEEDS = range(6)
RATIONAL_SEEDS = range(6, 12)
PARITIES = ((0, 1), (0, 0, 1), (0, 1, 1))


def as_tuples(report):
    return [(v.axiom_id, v.indices, v.lhs, v.rhs) for v in report.violations]


def random_spec(seed: int, rational: bool = False, parities=None, xi_of=None) -> TrialgebraSpec:
    """A non-associative algebra with an odd vector and gamma != xi.

    Entries are small integers, or with ``rational`` small fractions with
    denominators up to 3; the constants and maps respect the grading.  The
    parities default to one of PARITIES by seed; ``xi_of``, if given, makes
    xi from gamma instead of drawing it.
    """
    rng = random.Random(seed)
    parities = parities or PARITIES[seed % len(PARITIES)]
    n = len(parities)

    def entry():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rational else rng.randint(-2, 2)

    def tensor():
        return {
            (i, j, k): entry()
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if parities[k] == (parities[i] + parities[j]) % 2
        }

    def even_map():
        return [
            [entry() if parities[i] == parities[j] else 0 for j in range(n)]
            for i in range(n)
        ]

    gamma = even_map()
    if xi_of is not None:
        xi = xi_of(Matrix.from_rows(gamma))
    else:
        xi = even_map()
        while xi == gamma:
            xi = even_map()
    return TrialgebraSpec.build(f"random-{seed}", parities, tensor(), tensor(), tensor(), gamma, xi)


def injected_variants():
    """dual2 and grassmann2 with each admissible constant bumped by 1."""
    for name in ("dual2", "grassmann2"):
        spec = builtin(name)
        p = spec.basis.parities
        n = spec.dimension
        for op in ("left", "right", "perp"):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if p[k] == (p[i] + p[j]) % 2:
                            yield inject_violation(spec, op, (i, j, k), 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_corpus(name):
    spec = builtin(name)
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec) == []
    assert as_tuples(check_hom(spec)) == hom_violations(spec) == []


def test_injected_variants():
    failing = 0
    for spec in injected_variants():
        expected = bihom_violations(spec)
        assert as_tuples(check_bihom(spec)) == expected
        assert as_tuples(check_hom(spec)) == hom_violations(spec)
        failing += bool(expected)
    assert failing > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_random_algebras(seed):
    spec = random_spec(seed)
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec)
    assert as_tuples(check_hom(spec)) == hom_violations(spec)


# Some operators equal in value and the rest distinct.  Each copy is another
# object, so the sweeps must find the equality by value.  perp = 2 left has
# left's support and other values.  The seeds' gammas are not the identity,
# and seed 3's is diagonal.
ALIASINGS = ("right=left", "perp=left", "perp=2left", "gamma=id", "xi=gamma")


def aliased(variant: str, seed: int) -> TrialgebraSpec:
    if variant == "xi=gamma":
        return random_spec(seed, xi_of=lambda g: g)
    spec = random_spec(seed)
    if variant == "gamma=id":
        return replace(spec, gamma=identity_map(spec.basis))
    if variant == "perp=2left":
        doubled = {key: 2 * c for key, c in spec.left.constants.items()}
        return replace(spec, perp=StructureTensor.build(spec.dimension, doubled))
    target, source = variant.split("=")
    return replace(spec, **{target: StructureTensor.build(spec.dimension, dict(getattr(spec, source).constants))})


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("variant", ALIASINGS)
def test_partially_aliased_algebras(variant, seed):
    spec = aliased(variant, seed)
    expected = bihom_violations(spec)
    assert expected and as_tuples(check_bihom(spec)) == expected
    expected = hom_violations(spec)
    assert expected and as_tuples(check_hom(spec)) == expected
    expected = multiplicative_violations(spec)
    assert expected and as_tuples(check_multiplicative(spec)) == expected


def test_random_algebras_fail_every_identity():
    seen_bihom = set()
    seen_hom = set()
    for seed in SEEDS:
        spec = random_spec(seed)
        seen_bihom.update(v[0] for v in bihom_violations(spec))
        seen_hom.update(v[0] for v in hom_violations(spec))
    assert seen_bihom == set(BIHOM_IDS)
    assert seen_hom == set(HOM_IDS)


@pytest.mark.parametrize("seed", RATIONAL_SEEDS)
def test_random_rational_algebras(seed):
    spec = random_spec(seed, rational=True)
    assert any(c.denominator > 1 for _, t in spec.products() for c in t.constants.values())
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec)
    assert as_tuples(check_hom(spec)) == hom_violations(spec)


# Even, invertible and not unimodular: its inverse has denominators, so the
# twisted constants and structure maps do too.
RATIONAL_TWIST_4 = [["1/2", "1/3", 0, 0], [0, "2/3", 1, 0], ["1/5", 0, "3/2", 0], [0, 0, 0, "5/7"]]
RATIONAL_TWIST_3 = [["1/2", "1/3", 0], ["1/5", "2/3", 0], [0, 0, "5/7"]]


def rational_twist(base: TrialgebraSpec, rows) -> TrialgebraSpec:
    return yau_twist(base, LinearMap.square(base.basis, Matrix.from_rows(rows))).twisted


def twisted_fixture() -> TrialgebraSpec:
    """dual2-twisted + grassmann2 twisted by RATIONAL_TWIST_4: a BiHom algebra."""
    return rational_twist(direct_sum(builtin("dual2-twisted"), builtin("grassmann2")), RATIONAL_TWIST_4)


def twisted_random() -> TrialgebraSpec:
    """A random algebra twisted by RATIONAL_TWIST_3: gamma and xi get
    different denominators, and every product is far from commutative."""
    return rational_twist(random_spec(1), RATIONAL_TWIST_3)


@pytest.mark.parametrize("make", [twisted_fixture, twisted_random])
def test_rational_twists(make):
    spec = make()
    assert any(v.denominator > 1 for v in spec.gamma.matrix.entries)
    assert as_tuples(check_bihom(spec)) == bihom_violations(spec)
    assert as_tuples(check_hom(spec)) == hom_violations(spec)


def test_rational_twist_random_fails():
    spec = twisted_random()
    assert bihom_violations(spec) and hom_violations(spec)


def rota_baxter_identities(c: Fraction) -> list:
    """lam(d) o lam(v) = lam(lam(d) o v + d o lam(v) + c*(d o v)) per product o."""
    identities = []
    for tag in PRODUCT_TAGS:

        def lhs(o, d, v, tag=tag):
            return o._product(tag, o._apply("lam", d), o._apply("lam", v))

        def rhs(o, d, v, tag=tag):
            a = o._product(tag, o._apply("lam", d), v)
            b = o._product(tag, d, o._apply("lam", v))
            p = o._product(tag, d, v)
            return o._apply("lam", tuple(x + y + c * z for x, y, z in zip(a, b, p)))

        identities.append((f"rb-{tag}", lhs, rhs))
    return identities


def rota_baxter_oracle(spec: TrialgebraSpec, lam: Matrix, c: Fraction) -> list:
    ops = _Ops(spec)
    ops.maps["lam"] = lam
    return _sorted(_sweep(ops, 2, rota_baxter_identities(c)))


def leibniz_oracle(ops: _Ops) -> list:
    """[d,v] * g(x(r)) = [d*r, x(v)] + [g(d), v*r], with ``star`` and
    ``bracket`` in the oracle's tables."""

    def lhs(o, d, v, r):
        return o._product("star", o._product("bracket", d, v), o.g(o.x(r)))

    def rhs(o, d, v, r):
        a = o._product("bracket", o._product("star", d, r), o.x(v))
        b = o._product("bracket", o.g(d), o._product("star", v, r))
        return tuple(x + y for x, y in zip(a, b))

    return _sorted(_sweep(ops, 3, (("leibniz", lhs, rhs),)))


def half_plus_third(m: Matrix) -> Matrix:
    """1/2 + m/3, which commutes with every map that commutes with m."""
    n = m.rows
    return Matrix.diagonal([Fraction(1, 2)] * n) + Matrix.diagonal([Fraction(1, 3)] * n) @ m


def test_rational_rota_baxter():
    """Weight -1/3 is a scale p/q with q != 1, and the addends of the inner
    sum carry different denominators."""
    spec = twisted_fixture()
    lam = half_plus_third(spec.gamma.matrix)
    report = rota_baxter_check(spec, LinearMap.square(spec.basis, lam), "-1/3")
    assert report.violations
    assert as_tuples(report) == rota_baxter_oracle(spec, lam, Fraction(-1, 3))


def test_rational_commutator():
    """The Leibniz sum adds a term through xi to one through gamma, and the
    two maps have different denominators here."""
    spec = twisted_random()
    res = commutator_construct(spec)
    ops = _Ops(spec)
    ops.tables.update(star=dict(res.pair.star.constants), bracket=dict(res.pair.bracket.constants))
    assert res.leibniz.violations
    assert as_tuples(res.leibniz) == leibniz_oracle(ops)


# Dense random algebras at n = 6: rational constants on every admissible
# triple, three even and three odd vectors interleaved, and structure maps
# that mix the vectors of each parity.
PARITIES_6 = (0, 1, 0, 0, 1, 1)
DENSE_SEEDS = (21, 22)


def dense_spec(seed: int, xi_of=None) -> TrialgebraSpec:
    spec = random_spec(seed, rational=True, parities=PARITIES_6, xi_of=xi_of)
    off_diagonal = [spec.gamma.matrix.row(i)[j] for i in range(6) for j in range(6) if i != j]
    assert any(off_diagonal) and spec.gamma != spec.xi
    assert any(c.denominator > 1 for _, t in spec.products() for c in t.constants.values())
    return spec


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_algebras_at_six(seed):
    spec = dense_spec(seed)
    expected = bihom_violations(spec)
    assert expected and as_tuples(check_bihom(spec)) == expected
    expected = hom_violations(spec)
    assert expected and as_tuples(check_hom(spec)) == expected


def _sign(p: int, q: int) -> int:
    return -1 if p and q else 1


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_commutator_at_six(seed):
    """The Leibniz rhs reads slots 0 and 2 in its first bracket and slot 1
    through xi; the skew products are rebuilt here from the constants."""
    spec = dense_spec(seed)
    p, ops = spec.basis.parities, _Ops(spec)
    def skew(a, b):
        """c(i, j, k) = a(i, j, k) - (-1)^{|i||j|} b(j, i, k)."""
        return {
            (i, j, k): a.get((i, j, k), 0) - _sign(p[i], p[j]) * b.get((j, i, k), 0)
            for i, j, k in itertools.product(range(6), repeat=3)
        }

    ops.tables["star"] = skew(ops.tables["left"], ops.tables["right"])
    ops.tables["bracket"] = skew(ops.tables["perp"], ops.tables["perp"])
    res = commutator_construct(spec)
    expected = leibniz_oracle(ops)
    assert expected and as_tuples(res.leibniz) == expected


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_rota_baxter_at_six(seed):
    """xi = gamma^2 + 1 commutes with gamma, so lam = 1/2 + gamma/3 commutes
    with both; weight 2/5 scales the inner sum by a proper fraction."""
    spec = dense_spec(seed, xi_of=lambda g: g @ g + Matrix.identity(6))
    lam = half_plus_third(spec.gamma.matrix)
    report = rota_baxter_check(spec, LinearMap.square(spec.basis, lam), "2/5")
    expected = rota_baxter_oracle(spec, lam, Fraction(2, 5))
    assert expected and as_tuples(report) == expected


def dense_twist(parities, seed: int) -> tuple[Matrix, Matrix]:
    """An even, invertible map with a rational entry drawn for every place
    the grading allows, and its inverse."""
    rng = random.Random(seed)
    n = len(parities)
    while True:
        rows = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if parities[i] == parities[j] else 0 for j in range(n)]
            for i in range(n)
        ]
        try:
            return Matrix.from_rows(rows), invert(Matrix.from_rows(rows))
        except SingularMapError:
            continue


def _unit(n: int, i: int) -> tuple:
    return tuple(Fraction(int(k == i)) for k in range(n))


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_yau_twist_at_six(seed):
    """The twisted constants are those of l(l^-1 e_i o l^-1 e_j), evaluated
    here from the constant dicts for each of the three products."""
    spec = dense_spec(seed)
    l, linv = dense_twist(PARITIES_6, seed)
    ops = _Ops(spec)
    ops.maps.update(l=l, linv=linv)
    units = [_unit(6, i) for i in range(6)]
    assert all(ops._apply("l", ops._apply("linv", e)) == e for e in units)
    twisted = yau_twist(spec, LinearMap.square(spec.basis, l)).twisted
    for tag in PRODUCT_TAGS:
        expected = {}
        for i, j in itertools.product(range(6), repeat=2):
            value = ops._apply("l", ops._product(tag, ops._apply("linv", units[i]), ops._apply("linv", units[j])))
            expected.update(((i, j, k), c) for k, c in enumerate(value) if c)
        assert any(c.denominator > 1 for c in expected.values())
        assert dict(twisted.tensor(tag).constants) == expected, tag


@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_dense_center_and_centralizer_at_six(seed):
    """A dense n = 4 algebra plus zero2, twisted by a dense map: the center
    holds at least the image of the zero block.  The annihilator rows are
    assembled here from the constant dicts; only the kernel and the
    canonical span come from linalg."""
    base = direct_sum(random_spec(seed, rational=True, parities=(0, 1, 0, 1)), builtin("zero2"))
    l, _ = dense_twist(base.basis.parities, seed)
    spec = yau_twist(base, LinearMap.square(base.basis, l)).twisted
    ops = _Ops(spec)
    units = [_unit(6, i) for i in range(6)]

    def kernel(vecs):
        """The coefficient vectors c with gamma(xi(sum c_s v_s)) o a = a o
        gamma(xi(sum c_s v_s)) = 0 for each product o and each a in vecs."""
        images = [ops.g(ops.x(v)) for v in vecs]
        rows = []
        for tag, a in itertools.product(PRODUCT_TAGS, vecs):
            lefts = [ops._product(tag, m, a) for m in images]
            rights = [ops._product(tag, a, m) for m in images]
            rows += [[p[k] for p in lefts] for k in range(6)] + [[p[k] for p in rights] for k in range(6)]
        return nullspace_basis(Matrix.from_rows(rows))

    expected = tuple(kernel(units))
    assert len(expected) >= 2 and center(spec) == expected
    rng = random.Random(seed)
    subset = list(expected) + [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(6)) for _ in range(2)]
    members = [tuple(sum((c * v[i] for c, v in zip(cs, subset)), Fraction(0)) for i in range(6)) for cs in kernel(subset)]
    expected = canonical_span(members, 6)
    assert expected and centralizer(spec, subset) == expected
