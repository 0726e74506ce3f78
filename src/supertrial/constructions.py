"""Constructions that derive new algebras or validate structural hypotheses.

Each operation either produces a new spec (twist, direct sum, induced
trialgebra, product reshuffles) or tests a hypothesis (graph closure,
Rota-Baxter, averaging, swap).  Constructed algebras are re-verified with
the axiom checkers and returned together with the resulting report; no
construction emits an unchecked algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .core import (
    PRODUCT_TAGS,
    CheckReport,
    LinearMap,
    StructureTensor,
    SuperBasis,
    SuperalgebraSpec,
    TrialgebraSpec,
    _named,
    _sweep,
    check_bihom,
    check_morphism,
    check_superalgebra,
    validate_evenness,
)
from .errors import (
    CommutationError,
    InputError,
    NotAutomorphismError,
    ParityError,
    SingularMapError,
)
from .linalg import Matrix, RationalLike, Vector, frac, invert, unit_vector

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TwistResult:
    """Conjugated algebra plus the change-of-basis consistency verdict."""

    twisted: TrialgebraSpec
    conjugated_gamma: LinearMap
    conjugated_xi: LinearMap
    constants_match: bool
    report: CheckReport


@dataclass(frozen=True)
class GraphCheckResult:
    """Closure of a map's graph inside the direct sum, next to morphism-ness."""

    is_subalgebra: bool
    is_morphism: bool
    sum: TrialgebraSpec
    morphism_report: CheckReport


@dataclass(frozen=True)
class InduceResult:
    """Trialgebra induced by a Rota-Baxter operator, with its axiom report."""

    spec: TrialgebraSpec
    report: CheckReport


@dataclass(frozen=True)
class SwapResult:
    """Outcome of exchanging the two structure maps."""

    hypothesis_holds: bool
    swapped: TrialgebraSpec
    swapped_passes: bool
    report: CheckReport


@dataclass(frozen=True)
class SumProductResult:
    """Spec with the right product replaced by right + perp, plus its report."""

    spec: TrialgebraSpec
    report: CheckReport


@dataclass(frozen=True)
class BracketPairSpec:
    """A star product and a bracket sharing one graded basis and structure maps."""

    name: str
    basis: SuperBasis
    star: StructureTensor
    bracket: StructureTensor
    gamma: LinearMap
    xi: LinearMap

    def __post_init__(self) -> None:
        n = self.basis.dimension
        for label, tensor in (("star", self.star), ("bracket", self.bracket)):
            if tensor.dim != n:
                raise InputError(f"{label} tensor dimension {tensor.dim} does not match basis size {n}")
            validate_evenness(tensor, self.basis, label)


@dataclass(frozen=True)
class CommutatorResult:
    """Skew products built from the trialgebra, plus the Leibniz verdict."""

    pair: BracketPairSpec
    leibniz: CheckReport


@dataclass(frozen=True)
class TotalProductResult:
    """Single-product superalgebra summing all three products, plus its report."""

    alg: SuperalgebraSpec
    report: CheckReport


def _require_shape(m: LinearMap, n: int, label: str) -> None:
    if m.matrix.rows != n or m.matrix.cols != n:
        raise InputError(f"{label} must be {n}x{n}, got {m.matrix.rows}x{m.matrix.cols}")


def _require_even(m: LinearMap, n: int, label: str) -> None:
    """Raise unless ``m`` is an n x n even map."""
    _require_shape(m, n, label)
    if not m.is_even:
        raise ParityError(f"{label} must be an even map")


def _tensor_of(n: int, product: Callable[[int, int], Vector]) -> StructureTensor:
    """The tensor whose product of e_i and e_j is ``product(i, j)``."""
    return StructureTensor.build(
        n, {(i, j, k): v for i in range(n) for j in range(n) for k, v in enumerate(product(i, j))}
    )


def _twisted_tensor(tensor: StructureTensor, l: Matrix, linv: Matrix) -> StructureTensor:
    return _tensor_of(tensor.dim, lambda i, j: l.apply(tensor.bilinear(linv.col(i), linv.col(j))))


def _conjugated(spec: TrialgebraSpec, l: LinearMap) -> tuple[TrialgebraSpec, Matrix]:
    """The spec conjugated by the invertible even map ``l``, and l^-1."""
    xi = spec.require_xi()
    _require_even(l, spec.dimension, "twist map")
    linv = invert(l.matrix)
    twisted = replace(
        spec,
        left=_twisted_tensor(spec.left, l.matrix, linv),
        right=_twisted_tensor(spec.right, l.matrix, linv),
        perp=_twisted_tensor(spec.perp, l.matrix, linv),
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

    return TwistResult(
        twisted=twisted,
        conjugated_gamma=twisted.gamma,
        conjugated_xi=twisted.require_xi(),
        constants_match=match,
        report=check_bihom(twisted),
    )


def conjugate_automorphism(spec: TrialgebraSpec, l: LinearMap, phi: LinearMap) -> CheckReport:
    """Verify that conjugating an automorphism by the twist map yields an
    automorphism of the twisted algebra."""
    n = spec.dimension
    _require_shape(phi, n, "phi")
    if not check_morphism(spec, spec, phi).passed:
        raise NotAutomorphismError("phi is not a morphism of the spec onto itself")
    try:
        invert(phi.matrix)
    except SingularMapError as exc:
        raise NotAutomorphismError("phi is not invertible") from exc
    twisted, linv = _conjugated(spec, l)
    conjugated = LinearMap.square(spec.basis, l.matrix @ phi.matrix @ linv)
    return check_morphism(twisted, twisted, conjugated)


def _offset_tensor(tensor: StructureTensor, offset: int) -> dict[tuple[int, int, int], Fraction]:
    return {(i + offset, j + offset, k + offset): v for (i, j, k), v in tensor.items()}


def _block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.rows, b.rows
    rows = []
    for i in range(n):
        rows.append(list(a.row(i)) + [_ZERO] * m)
    for i in range(m):
        rows.append([_ZERO] * n + list(b.row(i)))
    return Matrix.from_rows(rows)


def direct_sum(a: TrialgebraSpec, b: TrialgebraSpec) -> TrialgebraSpec:
    """Block sum: componentwise products, block-diagonal structure maps."""
    if (a.xi is None) != (b.xi is None):
        raise InputError("both summands must agree on whether xi is present")
    parities = a.basis.parities + b.basis.parities
    n = len(parities)
    basis = SuperBasis(parities)

    def merged(tag: str) -> StructureTensor:
        table = dict(_offset_tensor(a.tensor(tag), 0))  # type: ignore[arg-type]
        table.update(_offset_tensor(b.tensor(tag), a.dimension))  # type: ignore[arg-type]
        return StructureTensor.build(n, table)

    xi = None
    if a.xi is not None and b.xi is not None:
        xi = LinearMap.square(basis, _block_diagonal(a.xi.matrix, b.xi.matrix))
    return TrialgebraSpec(
        name=f"dsum({a.name},{b.name})",
        basis=basis,
        left=merged("left"),
        right=merged("right"),
        perp=merged("perp"),
        gamma=LinearMap.square(basis, _block_diagonal(a.gamma.matrix, b.gamma.matrix)),
        xi=xi,
    )


def graph_subalgebra_check(a: TrialgebraSpec, b: TrialgebraSpec, xi_map: LinearMap) -> GraphCheckResult:
    """Test whether the graph {(x, f(x))} is closed inside the direct sum,
    and independently whether f is a morphism; the two verdicts coincide
    exactly when the closure proposition holds."""
    if xi_map.matrix.cols != a.dimension or xi_map.matrix.rows != b.dimension:
        raise InputError(
            f"graph map must be {b.dimension}x{a.dimension}, "
            f"got {xi_map.matrix.rows}x{xi_map.matrix.cols}"
        )
    total = direct_sum(a, b)
    n = a.dimension
    graph_vectors = [unit_vector(n, i) + xi_map.matrix.col(i) for i in range(n)]

    def in_graph(v: Vector) -> bool:
        """(x, y) lies in the graph exactly when y = f(x)."""
        return xi_map.matrix.apply(v[:n]) == v[n:]

    closed = True
    for _, tensor in total.products():
        for gi in graph_vectors:
            for gj in graph_vectors:
                if not in_graph(tensor.bilinear(gi, gj)):
                    closed = False
    maps = [total.gamma.matrix]
    if total.xi is not None:
        maps.append(total.xi.matrix)
    for m in maps:
        for gi in graph_vectors:
            if not in_graph(m.apply(gi)):
                closed = False

    morphism_report = check_morphism(a, b, xi_map)
    return GraphCheckResult(
        is_subalgebra=closed,
        is_morphism=morphism_report.passed,
        sum=total,
        morphism_report=morphism_report,
    )


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


def rota_baxter_induce(alg: SuperalgebraSpec, lam: LinearMap, weight: RationalLike) -> InduceResult:
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

    spec = TrialgebraSpec(
        name=f"rb({alg.name})",
        basis=alg.basis,
        left=_tensor_of(n, lambda i, j: alg.star.bilinear(unit_vector(n, i), lam.matrix.col(j))),
        right=_tensor_of(n, lambda i, j: alg.star.bilinear(lam.matrix.col(i), unit_vector(n, j))),
        perp=alg.star.scale(c),
        gamma=alg.gamma,
        xi=alg.xi,
    )
    return InduceResult(spec=spec, report=check_bihom(spec))


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
    report = check_bihom(swapped)
    return SwapResult(
        hypothesis_holds=hypothesis,
        swapped=swapped,
        swapped_passes=report.passed,
        report=report,
    )


def sum_product_construct(spec: TrialgebraSpec) -> SumProductResult:
    """Install right + perp as the new right product, keeping left and perp."""
    star = spec.right.add(spec.perp)
    out = replace(spec, name=f"sum({spec.name})", right=star)
    return SumProductResult(spec=out, report=check_bihom(out))


def _sign(p: int, q: int) -> Fraction:
    return Fraction(-1) if p and q else Fraction(1)


def _skew(tensor: StructureTensor, other: StructureTensor, parities: tuple[int, ...]) -> StructureTensor:
    """c'(i,j,k) = tensor(i,j,k) - (-1)^{|i||j|} other(j,i,k)."""
    keys = {key for key, _ in tensor.items()}
    keys.update((j, i, k) for (i, j, k), _ in other.items())
    table: dict[tuple[int, int, int], Fraction] = {}
    for i, j, k in keys:
        value = tensor.coefficient(i, j, k) - _sign(parities[i], parities[j]) * other.coefficient(j, i, k)
        if value:
            table[(i, j, k)] = value
    return StructureTensor.build(tensor.dim, table)


def commutator_construct(spec: TrialgebraSpec) -> CommutatorResult:
    """Build d * v = d <| v - (-1)^{|d||v|} v |> d and the perp bracket
    [d, v] = d . v - (-1)^{|d||v|} v . d, then check the closing identity
    [d,v] * gamma(xi(r)) = [d*r, xi(v)] + [gamma(d), v*r] on basis triples."""
    xi = spec.require_xi()
    n = spec.dimension
    parities = spec.basis.parities
    star = _skew(spec.left, spec.right, parities)
    bracket = _skew(spec.perp, spec.perp, parities)
    pair = BracketPairSpec(
        name=f"comm({spec.name})",
        basis=spec.basis,
        star=star,
        bracket=bracket,
        gamma=spec.gamma,
        xi=xi,
    )

    row = (
        "leibniz",
        ("star", ("bracket", 0, 1), ("gamma", ("xi", 2))),
        ("+", ("bracket", ("star", 0, 2), ("xi", 1)), ("bracket", ("gamma", 0), ("star", 1, 2))),
    )
    ops = {"star": star, "bracket": bracket, "gamma": spec.gamma.matrix, "xi": xi.matrix}
    return CommutatorResult(pair=pair, leibniz=_sweep(n, 3, ops, (row,)))


def total_product_construct(spec: TrialgebraSpec) -> TotalProductResult:
    """Sum all three products into one star product and check BiHom-associativity."""
    xi = spec.require_xi()
    star = spec.left.add(spec.right).add(spec.perp)
    alg = SuperalgebraSpec(
        name=f"total({spec.name})",
        basis=spec.basis,
        star=star,
        gamma=spec.gamma,
        xi=xi,
    )
    return TotalProductResult(alg=alg, report=check_superalgebra(alg))
