"""Constructions that derive new algebras or validate structural hypotheses.

Each operation either produces a new spec (twist, direct sum, induced
trialgebra, product reshuffles) or tests a hypothesis (graph closure,
Rota-Baxter, averaging, swap).  Constructed algebras are re-verified with
the axiom checkers and returned together with the resulting report; no
construction emits an unchecked algebra.  The induced, sum, commutator and
total constructions return one shape, ``Constructed(spec, report)``, whose
spec is a trialgebra, the commutator's ``BracketPairSpec`` or a
superalgebra; the twist, graph and swap results add only their own verdicts.
The direct sum and the Yau twist read the tensors off a spec's declared
shape (``products()`` and ``TENSORS``).  Every map a construction takes
has its shape checked by ``linalg._require_shape``; the maps it twists or
splits by (the twist map and every ``lambda``) also go through the specs'
own structure-map check, ``core._require_even``.

The tensors a construction builds (the Yau twist, the Rota-Baxter split,
the sum and total products and the commutator's skew products) are sweep
terms tabulated on basis pairs by ``sweep._tabulate``.  A skew product's
Koszul sign is read through the even parity map P = diag((-1)^{|e_i|}):
on homogeneous d and v,
(-1)^{|d||v|} b(v, d) = 1/2 [b(v, d) + b(v, Pd) + b(Pv, d) - b(Pv, Pd)],
as each term is +-b(v, d) and their signs sum to -2 only if both are odd.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    PRODUCT_TAGS,
    LinearMap,
    StructureTensor,
    SuperBasis,
    SuperalgebraSpec,
    TrialgebraSpec,
    _GradedSpec,
    _named,
    _require_even,
    check_bihom,
    check_morphism,
    check_superalgebra,
)
from .errors import (
    CommutationError,
    InputError,
    NotAutomorphismError,
    SingularMapError,
)
from .linalg import Matrix, RationalLike, _require_shape, frac, invert
from .sweep import CheckReport, _sweep, _tabulate

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TwistResult:
    """Conjugated algebra plus the change-of-basis consistency verdict."""

    twisted: TrialgebraSpec
    constants_match: bool
    report: CheckReport


@dataclass(frozen=True)
class GraphCheckResult:
    """Closure of a map's graph inside the direct sum, next to the morphism report."""

    is_subalgebra: bool
    sum: TrialgebraSpec
    morphism_report: CheckReport


@dataclass(frozen=True)
class SwapResult:
    """Outcome of exchanging the two structure maps."""

    hypothesis_holds: bool
    swapped: TrialgebraSpec
    report: CheckReport


@dataclass(frozen=True)
class BracketPairSpec(_GradedSpec):
    """A star product and a bracket sharing one graded basis and structure maps."""

    TENSORS = ("star", "bracket")

    name: str
    basis: SuperBasis
    star: StructureTensor
    bracket: StructureTensor
    gamma: LinearMap
    xi: LinearMap


@dataclass(frozen=True)
class Constructed:
    """A built spec with its report: ``check_bihom`` for a trialgebra,
    ``check_superalgebra`` for a superalgebra, the Leibniz sweep for a
    bracket pair."""

    spec: TrialgebraSpec | SuperalgebraSpec | BracketPairSpec
    report: CheckReport


def _tensors(n: int, ops: dict, terms: list) -> list[StructureTensor]:
    """The tensor of each term: its product of e_i and e_j is the term at
    slots (i, j), tabulated by ``_tabulate``.  Terms that share their values
    share one tensor."""
    tensors: dict[int, StructureTensor] = {}
    return [
        tensors.get(id(values)) or tensors.setdefault(id(values), StructureTensor.build(
            n, {(i, j, k): Fraction(v, d) for (i, j), value in values.items() for k, v in value}))
        for d, values in _tabulate(n, 2, ops, terms)
    ]


def _conjugated(spec: TrialgebraSpec, l: LinearMap) -> tuple[TrialgebraSpec, Matrix]:
    """The spec conjugated by the invertible even map ``l``, and l^-1."""
    xi = spec.require_xi()
    _require_even(l, spec.dimension, "twist map")
    linv = invert(l.matrix)
    ops = {**dict(spec.products()), "l": l.matrix, "linv": linv}
    terms = [("l", (tag, ("linv", 0), ("linv", 1))) for tag in spec.TENSORS]
    twisted = replace(
        spec,
        **dict(zip(spec.TENSORS, _tensors(spec.dimension, ops, terms))),
        gamma=LinearMap.square(spec.basis, l.matrix @ spec.gamma.matrix @ linv),
        xi=LinearMap.square(spec.basis, l.matrix @ xi.matrix @ linv),
    )
    return twisted, linv


def yau_twist(spec: TrialgebraSpec, l: LinearMap) -> TwistResult:
    """Conjugate all three products and both structure maps by an invertible even map.

    The products become x o' y = l(l^-1(x) o l^-1(y)) and the maps become
    l gamma l^-1 and l xi l^-1.  ``constants_match`` re-derives the structure
    constants in the basis {l(e_k)} and compares them with the originals.
    """
    twisted, linv = _conjugated(spec, l)

    # Primed products are the twisted ones: l^-1(l(e_i) o' l(e_j)) = e_i o e_j.
    ops = {**_named(spec), **_named(twisted, "'"), "l": l.matrix, "linv": linv}
    rows = tuple((tag, ("linv", (tag + "'", ("l", 0), ("l", 1))), (tag, 0, 1)) for tag in PRODUCT_TAGS)
    match = _sweep(spec.dimension, 2, ops, rows).passed

    return TwistResult(twisted=twisted, constants_match=match, report=check_bihom(twisted))


def conjugate_automorphism(spec: TrialgebraSpec, l: LinearMap, phi: LinearMap) -> CheckReport:
    """Verify that conjugating an automorphism by the twist map yields an
    automorphism of the twisted algebra."""
    n = spec.dimension
    _require_shape(phi.matrix, n, n, "phi")
    if not check_morphism(spec, spec, phi).passed:
        raise NotAutomorphismError("phi is not a morphism of the spec onto itself")
    try:
        invert(phi.matrix)
    except SingularMapError as exc:
        raise NotAutomorphismError("phi is not invertible") from exc
    twisted, linv = _conjugated(spec, l)
    conjugated = LinearMap.square(spec.basis, l.matrix @ phi.matrix @ linv)
    return check_morphism(twisted, twisted, conjugated)


def _block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.rows, b.rows
    return Matrix.from_rows([list(a.row(i)) + [_ZERO] * m for i in range(n)]
                            + [[_ZERO] * n + list(b.row(i)) for i in range(m)])


def direct_sum(a: TrialgebraSpec, b: TrialgebraSpec) -> TrialgebraSpec:
    """Block sum: componentwise products, block-diagonal structure maps."""
    if (a.xi is None) != (b.xi is None):
        raise InputError("both summands must agree on whether xi is present")
    m, basis = a.dimension, SuperBasis(a.basis.parities + b.basis.parities)
    sums: dict[tuple[int, int], StructureTensor] = {}  # one block sum per distinct pair of tensor objects
    tensors = [
        sums.get((id(ta), id(tb))) or sums.setdefault((id(ta), id(tb)), StructureTensor.build(
            basis.dimension, dict(ta.items()) | {(i + m, j + m, k + m): v for (i, j, k), v in tb.items()}))
        for (_, ta), (_, tb) in zip(a.products(), b.products())
    ]
    maps = [None if x is None else LinearMap.square(basis, _block_diagonal(x.matrix, y.matrix))
            for x, y in ((a.gamma, b.gamma), (a.xi, b.xi))]
    return TrialgebraSpec(f"dsum({a.name},{b.name})", basis, *tensors, *maps)


def graph_subalgebra_check(a: TrialgebraSpec, b: TrialgebraSpec, xi_map: LinearMap) -> GraphCheckResult:
    """Test whether the graph {(x, f(x))} is closed inside the direct sum,
    and independently whether f is a morphism; the two verdicts coincide
    exactly when the closure proposition holds."""
    _require_shape(xi_map.matrix, b.dimension, a.dimension, "graph map")
    total = direct_sum(a, b)
    n, m = a.dimension, b.dimension
    # g(e_i) = (e_i, f(e_i)) spans the graph, and a sum vector v lies in it
    # exactly when f(top(v)) = bottom(v).
    f = xi_map.matrix
    ident = Matrix.identity(n + m).entries
    ops = {
        **_named(total),
        "f": f,
        "g": Matrix(n + m, n, Matrix.identity(n).entries + f.entries),
        "top": Matrix(n, n + m, ident[: n * (n + m)]),
        "bottom": Matrix(m, n + m, ident[n * (n + m) :]),
    }

    def row(label: str, term: tuple) -> tuple:
        return (label, ("f", ("top", term)), ("bottom", term))

    products = tuple(row(tag, (tag, ("g", 0), ("g", 1))) for tag in PRODUCT_TAGS)
    maps = tuple(row(label, (label, ("g", 0))) for label in ("gamma", "xi") if label in ops)
    closed = _sweep(n, 2, ops, products).passed and _sweep(n, 1, ops, maps).passed

    return GraphCheckResult(is_subalgebra=closed, sum=total, morphism_report=check_morphism(a, b, xi_map))


def _require_commutes(lam: Matrix, gamma: Matrix, xi: Matrix) -> None:
    for label, other in (("gamma", gamma), ("xi", xi)):
        if lam @ other != other @ lam:
            raise CommutationError(f"operator does not commute with {label}")


def _rota_baxter_row(axiom_id: str, outer: str, inner: str, c: Fraction) -> tuple:
    """lam(d) o lam(v) = lam(lam(d) o' v + d o' lam(v) + c*(d o' v)), with o the
    outer and o' the inner product."""
    lam_d, lam_v = ("lam", 0), ("lam", 1)
    inner_sum = ("+", (inner, lam_d, 1), (inner, 0, lam_v), ("*", c, (inner, 0, 1)))
    return (axiom_id, (outer, lam_d, lam_v), ("lam", inner_sum))


def rota_baxter_check(
    spec: TrialgebraSpec,
    lam: LinearMap,
    weight: RationalLike,
    literal: bool = False,
) -> CheckReport:
    """Check the Rota-Baxter identity of the given weight for each product.

    Default mode checks, per product o and basis pair,
    lam(d) o lam(v) = lam(lam(d) o v + d o lam(v) + c*(d o v)).
    Literal mode instead crosses the outer and inner products of the first
    two identities (right outside with left inside, and the reverse).
    """
    xi = spec.require_xi()
    n = spec.dimension
    c = frac(weight)
    _require_even(lam, n, "lambda")
    _require_commutes(lam.matrix, spec.gamma.matrix, xi.matrix)

    if literal:
        crossed = {"left": "right", "right": "left", "perp": "perp"}
        rows = [_rota_baxter_row(f"rb-literal-{tag}", tag, crossed[tag], c) for tag in PRODUCT_TAGS]
    else:
        rows = [_rota_baxter_row(f"rb-{tag}", tag, tag, c) for tag in PRODUCT_TAGS]
    return _sweep(n, 2, {**_named(spec), "lam": lam.matrix}, rows)


def rota_baxter_induce(alg: SuperalgebraSpec, lam: LinearMap, weight: RationalLike) -> Constructed:
    """Split the single product through a Rota-Baxter operator:
    d <| v = d * lam(v), d |> v = lam(d) * v, d . v = c*(d * v).

    Preconditions are enforced: the superalgebra must be BiHom-associative
    and lam must be an even Rota-Baxter operator of the given weight that
    commutes with both structure maps.  The induced trialgebra is returned
    with its own axiom report attached.  That report is the ``check_bihom``
    system, which Rota-Baxter-induced products generally fail (on idem1
    with lam = -c*id, the chained pairs ii-b and iv-b fail for every
    nonzero weight c); the split is BiHom-tridendriform instead.
    """
    n = alg.dimension
    c = frac(weight)
    _require_even(lam, n, "lambda")
    _require_commutes(lam.matrix, alg.gamma.matrix, alg.xi.matrix)
    if not check_superalgebra(alg).passed:
        raise InputError("input superalgebra fails BiHom-associativity")

    row = _rota_baxter_row("rb-star", "star", "star", c)
    report = _sweep(n, 2, {"star": alg.star, "lam": lam.matrix}, (row,))
    if not report.passed:
        raise InputError(
            f"lambda is not a Rota-Baxter operator of weight {c} "
            f"(fails at pair {report.violations[0].indices})"
        )

    terms = [("star", 0, ("lam", 1)), ("star", ("lam", 0), 1), ("*", c, ("star", 0, 1))]
    left, right, perp = _tensors(n, {"star": alg.star, "lam": lam.matrix}, terms)
    spec = TrialgebraSpec(f"rb({alg.name})", alg.basis, left, right, perp, alg.gamma, alg.xi)
    return Constructed(spec, check_bihom(spec))


def averaging_check(spec: TrialgebraSpec, lam: LinearMap) -> CheckReport:
    """Check the averaging identities lam(lam(d) o r) = lam(d) o lam(r) = lam(d o lam(r))
    for each product, plus commutation of lam with both structure maps."""
    spec.require_xi()
    n = spec.dimension
    _require_even(lam, n, "lambda")

    ops = {**_named(spec), "lam": lam.matrix}
    commute = tuple(
        (f"avg-{label}-commute", ("lam", (label, 0)), (label, ("lam", 0))) for label in ("gamma", "xi")
    )
    rows = []
    for tag in PRODUCT_TAGS:
        t1 = ("lam", (tag, ("lam", 0), 1))
        t2 = (tag, ("lam", 0), ("lam", 1))
        t3 = ("lam", (tag, 0, ("lam", 1)))
        rows += [(f"avg-{tag}-1", t1, t2), (f"avg-{tag}-2", t2, t3)]
    return _sweep(n, 1, ops, commute).merge(_sweep(n, 2, ops, rows))


def swap_construct(spec: TrialgebraSpec) -> SwapResult:
    """Exchange gamma and xi; the involution hypotheses (both squares and
    both compositions equal to the identity) are evaluated alongside."""
    xi = spec.require_xi()
    n = spec.dimension
    ident = Matrix.identity(n)
    g, x = spec.gamma.matrix, xi.matrix
    hypothesis = g @ g == ident and x @ x == ident and g @ x == ident and x @ g == ident
    swapped = replace(spec, gamma=xi, xi=spec.gamma)
    return SwapResult(hypothesis_holds=hypothesis, swapped=swapped, report=check_bihom(swapped))


def sum_product_construct(spec: TrialgebraSpec) -> Constructed:
    """Install right + perp as the new right product, keeping left and perp."""
    spec.require_xi()
    (star,) = _tensors(spec.dimension, dict(spec.products()), [("+", ("right", 0, 1), ("perp", 0, 1))])
    out = replace(spec, name=f"sum({spec.name})", right=star)
    return Constructed(out, check_bihom(out))


def _skew(a: str, b: str) -> tuple:
    """The term a(d, v) - (-1)^{|d||v|} b(v, d) at slots d = 0 and v = 1,
    its sign read through the parity map P (see the module docstring)."""
    pd, pv = ("P", 0), ("P", 1)
    signed = ("+", (b, 1, 0), (b, 1, pd), (b, pv, 0), ("*", Fraction(-1), (b, pv, pd)))
    return ("+", (a, 0, 1), ("*", Fraction(-1, 2), signed))


def commutator_construct(spec: TrialgebraSpec) -> Constructed:
    """Build d * v = d <| v - (-1)^{|d||v|} v |> d and the perp bracket
    [d, v] = d . v - (-1)^{|d||v|} v . d, then check the closing identity
    [d,v] * gamma(xi(r)) = [d*r, xi(v)] + [gamma(d), v*r] on basis triples."""
    xi = spec.require_xi()
    n = spec.dimension
    ops = {**dict(spec.products()), "P": Matrix.diagonal([(-1) ** p for p in spec.basis.parities])}
    star, bracket = _tensors(n, ops, [_skew("left", "right"), _skew("perp", "perp")])
    pair = BracketPairSpec(f"comm({spec.name})", spec.basis, star, bracket, spec.gamma, xi)

    row = (
        "leibniz",
        ("star", ("bracket", 0, 1), ("gamma", ("xi", 2))),
        ("+", ("bracket", ("star", 0, 2), ("xi", 1)), ("bracket", ("gamma", 0), ("star", 1, 2))),
    )
    return Constructed(pair, _sweep(n, 3, _named(pair), (row,)))


def total_product_construct(spec: TrialgebraSpec) -> Constructed:
    """Sum all three products into one star product and check BiHom-associativity."""
    xi = spec.require_xi()
    terms = [("+", ("left", 0, 1), ("right", 0, 1), ("perp", 0, 1))]
    (star,) = _tensors(spec.dimension, dict(spec.products()), terms)
    alg = SuperalgebraSpec(f"total({spec.name})", spec.basis, star, spec.gamma, xi)
    return Constructed(alg, check_superalgebra(alg))
