"""Data model and axiom checkers for BiHom-associative supertrialgebras.

An algebra lives on a Z/2-graded basis and is described by three sparse
structure-constant tensors (the left, right, and middle products) together
with one or two even structure maps ``gamma`` and ``xi``.  With ``xi``
present the object is a BiHom candidate; without it the Hom axiom system
applies.  ``_GradedSpec`` states once what every graded spec is: a basis,
the even tensors its class names in ``TENSORS``, an even gamma and an even
xi that only a kind whose ``xi`` defaults to ``None`` may omit.  The
trialgebra (``left``, ``right``, ``perp``), the superalgebra (``star``) and
the commutator's bracket pair inherit its one constructor ``build``, its
checks (``_require_even`` is the one structure-map check, which the
constructions reuse for the maps they take), ``dimension`` and
``products``, and ``_named`` gives any of them to the sweep by row name.
The checkers write each axiom as a row of two terms and sweep it
over basis tuples, which suffices by multilinearity, through the engine in
``sweep``; the reports' violation sides are Fractions that
``product_eval`` replays.  ``center`` and ``centralizer`` read their
constraint rows off the same engine's tabulated terms.

Matrix convention: a map sends the j-th basis vector to the j-th column,
so ``matrix[i][j]`` is the coefficient of ``e_i`` in the image of ``e_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Literal, Mapping, Sequence, TypeVar

from .errors import InputError, ModeError, ParityError
from .linalg import Echelon, Matrix, RationalLike, Vector, canonical_span, frac, numerators
from .sweep import CheckReport, _bilinear_into, _distinct, _Ops, _Row, _support, _sweep, _tabulate

ProductTag = Literal["left", "right", "perp"]
PRODUCT_TAGS: tuple[ProductTag, ...] = ("left", "right", "perp")

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SuperBasis:
    """Ordered homogeneous basis: one parity bit (0 even, 1 odd) per vector."""

    parities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parities) < 1:
            raise InputError("a basis needs at least one vector")
        if any(p not in (0, 1) for p in self.parities):
            raise ParityError("parities must be 0 or 1")

    @property
    def dimension(self) -> int:
        return len(self.parities)


def parity_class(matrix: Matrix, row_parities: Sequence[int], col_parities: Sequence[int]) -> str:
    """Classify a matrix between graded bases as ``even``, ``odd``, or ``mixed``.

    Even means every entry that connects coordinates of different parities
    vanishes; odd means every entry connecting equal parities vanishes.  The
    zero matrix satisfies both conditions and is reported as even.
    """
    cols = matrix.cols
    # For each nonzero entry: does it connect coordinates of equal parity?
    equal = {row_parities[k // cols] == col_parities[k % cols] for k, v in enumerate(matrix.integral[1]) if v}
    return "even" if False not in equal else "odd" if True not in equal else "mixed"


@dataclass(frozen=True)
class LinearMap:
    """A linear map between graded coordinate spaces.

    Columns index the source basis and rows the target basis, so the map is
    applied to coordinate columns by matrix multiplication.
    """

    matrix: Matrix
    row_parities: tuple[int, ...]
    col_parities: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.matrix.rows != len(self.row_parities):
            raise InputError("row parity list does not match the matrix height")
        if self.matrix.cols != len(self.col_parities):
            raise InputError("column parity list does not match the matrix width")

    @classmethod
    def square(cls, basis: SuperBasis, matrix: Matrix) -> "LinearMap":
        if matrix.rows != basis.dimension or matrix.cols != basis.dimension:
            raise InputError(
                f"map must be {basis.dimension}x{basis.dimension}, got {matrix.rows}x{matrix.cols}"
            )
        return cls(matrix, basis.parities, basis.parities)

    @classmethod
    def between(cls, src: SuperBasis, dst: SuperBasis, matrix: Matrix) -> "LinearMap":
        if matrix.rows != dst.dimension or matrix.cols != src.dimension:
            raise InputError(
                f"map must be {dst.dimension}x{src.dimension}, got {matrix.rows}x{matrix.cols}"
            )
        return cls(matrix, dst.parities, src.parities)

    @property
    def parity_class(self) -> str:
        return parity_class(self.matrix, self.row_parities, self.col_parities)

    @property
    def is_even(self) -> bool:
        return self.parity_class == "even"

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if self.col_parities != other.row_parities:
            raise InputError("composition parities do not line up")
        return LinearMap(self.matrix @ other.matrix, self.row_parities, other.col_parities)


def identity_map(basis: SuperBasis) -> LinearMap:
    return LinearMap.square(basis, Matrix.identity(basis.dimension))


@dataclass(frozen=True)
class StructureTensor:
    """Sparse structure constants of one bilinear product.

    ``constants[(i, j, k)]`` is the coefficient of ``e_k`` in ``e_i * e_j``;
    absent triples are zero and stored zeros are dropped at build time.
    """

    dim: int
    constants: Mapping[tuple[int, int, int], Fraction]

    @classmethod
    def build(
        cls, dim: int, entries: Mapping[tuple[int, int, int], RationalLike] | None = None
    ) -> "StructureTensor":
        table: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), raw in (entries or {}).items():
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise InputError(f"structure constant index {(i, j, k)} out of range for dim {dim}")
            value = raw if type(raw) is Fraction else frac(raw)
            if value:
                table[(i, j, k)] = value
        return cls(dim, table)

    def items(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        return iter(sorted(self.constants.items()))

    @cached_property
    def by_pair(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """``(d, index)``: the constants as integers over one denominator d, the
        lcm of theirs, indexed by argument pair; index[i][j] holds the
        (k, d * c(i, j, k)) of e_i * e_j."""
        d, nums = numerators(self.constants.values())
        index = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), c in zip(self.constants, nums):
            index[i][j].append((k, c))
        return d, tuple(tuple(map(tuple, line)) for line in index)

    def bilinear(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("bilinear arguments must match the tensor dimension")
        d, index = self.by_pair
        out = _bilinear_into([_ZERO] * self.dim, index, _support(x), _support(y))
        return tuple(out) if d == 1 else tuple(v / d for v in out)

    @cached_property
    def _exact(self) -> dict[tuple[int, int, int], tuple[int, int]]:
        """The constants as integer pairs, which compare without a Python call each."""
        return {key: (c.numerator, c.denominator) for key, c in self.constants.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.dim == other.dim and self._exact == other._exact


def _require_shape(m: LinearMap, n: int, label: str) -> None:
    if m.matrix.rows != n or m.matrix.cols != n:
        raise InputError(f"{label} must be {n}x{n}, got {m.matrix.rows}x{m.matrix.cols}")


def _require_even(m: LinearMap, n: int, label: str) -> None:
    """Raise unless ``m`` is an n x n even map."""
    _require_shape(m, n, label)
    if not m.is_even:
        raise ParityError(f"{label} must be an even map")


_Spec = TypeVar("_Spec", bound="_GradedSpec")


class _GradedSpec:
    """What every graded spec is: a name, a graded basis, the even tensors
    named by the class attribute ``TENSORS``, an even gamma and an even xi
    (which a kind may omit only if its ``xi`` field defaults to ``None``).
    Subclasses are frozen dataclasses with those fields in that order;
    constructing one checks that each tensor matches the basis and is even
    (a product of homogeneous vectors lands in the summed parity), and that
    the maps the kind needs are present, n x n and even."""

    TENSORS: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        p = self.basis.parities
        n = len(p)
        for label, tensor in self.products():
            if tensor.dim != n:
                raise InputError(f"{label} tensor dimension {tensor.dim} does not match basis size {n}")
            odd = [key for key in tensor.constants if p[key[0]] ^ p[key[1]] ^ p[key[2]]]
            if odd:
                i, j, k = min(odd)  # the first offending triple in sorted order
                raise ParityError(
                    f"{label} constant at {(i, j, k)}: parity(k)={p[k]} "
                    f"differs from parity(i)+parity(j)={(p[i] + p[j]) % 2}"
                )
        for label in ("gamma", "xi"):
            m = getattr(self, label)
            if m is not None:
                _require_even(m, n, label)
            elif label == "gamma" or not self._xi_optional():
                raise ModeError(f"{self.name}: a {type(self).__name__} needs the structure map {label}")

    @classmethod
    def _xi_optional(cls) -> bool:
        """Whether this kind may omit xi: its ``xi`` field defaults to ``None``."""
        return cls.__dataclass_fields__["xi"].default is None

    @classmethod
    def build(cls: type[_Spec], name: str, parities: Sequence[int], *data: object) -> _Spec:
        """The spec from plain data: one constants mapping per ``TENSORS``
        entry, then gamma and xi, each a ``Matrix`` or rows of rationals; a
        map given as ``None`` (or an omitted xi) stays absent."""
        basis = SuperBasis(tuple(parities))
        n, k = basis.dimension, len(cls.TENSORS)
        tensors = [StructureTensor.build(n, constants) for constants in data[:k]]
        maps = [
            m if m is None else LinearMap.square(basis, m if isinstance(m, Matrix) else Matrix.from_rows(m))
            for m in data[k:]
        ]
        return cls(name, basis, *tensors, *maps)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def products(self) -> Iterator[tuple[str, StructureTensor]]:
        """``(name, tensor)`` for each tensor, in ``TENSORS`` order."""
        for label in self.TENSORS:
            yield label, getattr(self, label)


@dataclass(frozen=True)
class TrialgebraSpec(_GradedSpec):
    """A finite-dimensional supertrialgebra candidate given by its constants."""

    TENSORS = PRODUCT_TAGS

    name: str
    basis: SuperBasis
    left: StructureTensor
    right: StructureTensor
    perp: StructureTensor
    gamma: LinearMap
    xi: LinearMap | None = None

    def tensor(self, tag: ProductTag) -> StructureTensor:
        if tag not in PRODUCT_TAGS:
            raise InputError(f"unknown product tag {tag!r}")
        return getattr(self, tag)

    def require_xi(self) -> LinearMap:
        if self.xi is None:
            raise ModeError(f"{self.name}: this operation needs the second structure map xi")
        return self.xi


@dataclass(frozen=True)
class SuperalgebraSpec(_GradedSpec):
    """A single-product BiHom superalgebra candidate."""

    TENSORS = ("star",)

    name: str
    basis: SuperBasis
    star: StructureTensor
    gamma: LinearMap
    xi: LinearMap


def product_eval(spec: TrialgebraSpec, tag: ProductTag, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Evaluate one of the three products on arbitrary coordinate vectors."""
    return spec.tensor(tag).bilinear(x, y)


def _named(spec: _GradedSpec, mark: str = "") -> _Ops:
    """The tensors and structure maps of a graded spec by row name, suffixed with ``mark``."""
    ops: _Ops = {tag + mark: t for tag, t in spec.products()}
    ops["gamma" + mark] = spec.gamma.matrix
    if spec.xi is not None:
        ops["xi" + mark] = spec.xi.matrix
    return ops


# The structure map m is multiplicative: m(d o q) = m(d) o m(q) for each product o.
_MULTIPLICATIVE: dict[str, tuple[_Row, ...]] = {
    m: tuple((f"{m}-{tag}", (m, (tag, 0, 1)), (tag, (m, 0), (m, 1))) for tag in PRODUCT_TAGS)
    for m in ("gamma", "xi")
}

# Slots 0, 1, 2 are d, q, y; < is left, > right, . perp.
_BIHOM_TRIPLES: tuple[_Row, ...] = (
    # (d<q)<xi(y) = gamma(d)<(q>y) = gamma(d)<(q.y)
    ("ii-a", ("left", ("left", 0, 1), ("xi", 2)), ("left", ("gamma", 0), ("right", 1, 2))),
    ("ii-b", ("left", ("gamma", 0), ("right", 1, 2)), ("left", ("gamma", 0), ("perp", 1, 2))),
    # (d<q)<xi(y) = gamma(d)>(q<y)
    ("iii", ("left", ("left", 0, 1), ("xi", 2)), ("right", ("gamma", 0), ("left", 1, 2))),
    # (d<q)>gamma(y) = xi(d)>(q>y) = (d.q)>xi(y)
    ("iv-a", ("right", ("left", 0, 1), ("gamma", 2)), ("right", ("xi", 0), ("right", 1, 2))),
    ("iv-b", ("right", ("xi", 0), ("right", 1, 2)), ("right", ("perp", 0, 1), ("xi", 2))),
    # (d.q)<xi(y) = gamma(d).(q<y)
    ("v", ("left", ("perp", 0, 1), ("xi", 2)), ("perp", ("gamma", 0), ("left", 1, 2))),
    # (d<q).xi(y) = gamma(d).(q>y)
    ("vi", ("perp", ("left", 0, 1), ("xi", 2)), ("perp", ("gamma", 0), ("right", 1, 2))),
    # (d>q).xi(y) = gamma(d)>(q.y)
    ("vii", ("perp", ("right", 0, 1), ("xi", 2)), ("right", ("gamma", 0), ("perp", 1, 2))),
)

# Slots 0, 1, 2 are d, q, y; each identity reads (d o1 q) o2 g(y) = g(d) o3 (q o4 y).
_HOM_TRIPLES: tuple[_Row, ...] = (
    ("h01", ("left", ("left", 0, 1), ("gamma", 2)), ("left", ("gamma", 0), ("right", 1, 2))),
    ("h02", ("right", ("left", 0, 1), ("gamma", 2)), ("right", ("gamma", 0), ("right", 1, 2))),
    ("h03", ("left", ("left", 0, 1), ("gamma", 2)), ("left", ("gamma", 0), ("perp", 1, 2))),
    ("h04", ("perp", ("left", 0, 1), ("gamma", 2)), ("perp", ("gamma", 0), ("right", 1, 2))),
    ("h05", ("right", ("perp", 0, 1), ("gamma", 2)), ("right", ("gamma", 0), ("right", 1, 2))),
    ("h06", ("left", ("left", 0, 1), ("gamma", 2)), ("left", ("gamma", 0), ("left", 1, 2))),
    ("h07", ("left", ("right", 0, 1), ("gamma", 2)), ("right", ("gamma", 0), ("left", 1, 2))),
    ("h08", ("right", ("right", 0, 1), ("gamma", 2)), ("right", ("gamma", 0), ("right", 1, 2))),
    ("h09", ("left", ("perp", 0, 1), ("gamma", 2)), ("perp", ("gamma", 0), ("left", 1, 2))),
    ("h10", ("perp", ("right", 0, 1), ("gamma", 2)), ("right", ("gamma", 0), ("perp", 1, 2))),
    ("h11", ("perp", ("perp", 0, 1), ("gamma", 2)), ("perp", ("gamma", 0), ("perp", 1, 2))),
)


def check_bihom(spec: TrialgebraSpec) -> CheckReport:
    """Verify the BiHom-associativity axiom system on all basis triples.

    Axiom (i) asks the two structure maps to commute.  The remaining axioms
    relate re-bracketings of the three products, with gamma twisting the
    outer-left argument and xi the outer-right argument; chained equalities
    are split into consecutive pairwise checks (suffixes ``-a`` and ``-b``).
    """
    spec.require_xi()
    n = spec.dimension
    ops = _named(spec)
    commute = _sweep(n, 1, ops, (("i", ("gamma", ("xi", 0)), ("xi", ("gamma", 0))),))
    return commute.merge(_sweep(n, 3, ops, _BIHOM_TRIPLES))


def check_hom(spec: TrialgebraSpec) -> CheckReport:
    """Verify the single-twist (Hom) axiom system, ignoring ``xi``.

    Checks multiplicativity of gamma over the three products on basis pairs
    and the eleven triple identities, all twisted by gamma alone.
    """
    n = spec.dimension
    ops = _named(spec)
    return _sweep(n, 2, ops, _MULTIPLICATIVE["gamma"]).merge(_sweep(n, 3, ops, _HOM_TRIPLES))


def check_multiplicative(spec: TrialgebraSpec) -> CheckReport:
    """Check that gamma and xi are endomorphisms for all three products."""
    spec.require_xi()
    rows = _MULTIPLICATIVE["gamma"] + _MULTIPLICATIVE["xi"]
    return _sweep(spec.dimension, 2, _named(spec), rows)


def check_superalgebra(alg: SuperalgebraSpec) -> CheckReport:
    """Verify BiHom-associativity of a single product: (d*v)*xi(r) = gamma(d)*(v*r)."""
    row = ("bihom-assoc", ("star", ("star", 0, 1), ("xi", 2)), ("star", ("gamma", 0), ("star", 1, 2)))
    return _sweep(alg.dimension, 3, _named(alg), (row,))


def check_morphism(src: TrialgebraSpec, dst: TrialgebraSpec, pi: LinearMap) -> CheckReport:
    """Check that ``pi`` intertwines the structure maps and the three products.

    The map may be rectangular; its columns must match the source basis and
    its rows the target basis.
    """
    if pi.matrix.cols != src.dimension or pi.matrix.rows != dst.dimension:
        raise InputError(
            f"morphism matrix must be {dst.dimension}x{src.dimension}, "
            f"got {pi.matrix.rows}x{pi.matrix.cols}"
        )
    if (src.xi is None) != (dst.xi is None):
        raise InputError("source and target must agree on whether xi is present")
    # Primed names belong to the target algebra.
    ops = {**_named(src), **_named(dst, "'"), "pi": pi.matrix}
    labels = ("gamma",) if src.xi is None else ("gamma", "xi")
    compat = tuple((f"{m}-compat", (m + "'", ("pi", 0)), ("pi", (m, 0))) for m in labels)
    rows = tuple((tag, ("pi", (tag, 0, 1)), (tag + "'", ("pi", 0), ("pi", 1))) for tag in PRODUCT_TAGS)
    return _sweep(src.dimension, 1, ops, compat).merge(_sweep(src.dimension, 2, ops, rows))


def _annihilator(spec: TrialgebraSpec, xi: LinearMap, vecs: Matrix) -> list[Vector]:
    """Canonical kernel basis of the coefficient vectors u, one entry per
    column of the n x s matrix V, with gamma(xi(V u)) o V e_a = 0 and
    V e_a o gamma(xi(V u)) = 0 for every product o and column a.  Both
    products are tabulated once per distinct o; the row of (a, k) holds the
    k-th coordinates of their integer values at slot 1 = a."""
    products = {f"o{i}": t for i, t in enumerate(_distinct([t for _, t in spec.products()]))}
    ops = {**products, "gamma": spec.gamma.matrix, "xi": xi.matrix, "V": vecs}
    image, other = ("gamma", ("xi", ("V", 0))), ("V", 1)
    terms = [term for o in products for term in ((o, image, other), (o, other, image))]
    system = Echelon()
    for _, values in _tabulate(vecs.cols, 2, ops, terms):
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for (u, a), value in values.items():
            for k, v in value:
                rows.setdefault((a, k), {})[u] = v
        for row in rows.values():
            system.add(row)
    return system.kernel(vecs.cols)


def center(spec: TrialgebraSpec) -> tuple[Vector, ...]:
    """Canonical basis of {u : gamma(xi(u)) annihilates S on both sides, all products}."""
    xi = spec.require_xi()
    return tuple(_annihilator(spec, xi, Matrix.identity(spec.dimension)))


def centralizer(spec: TrialgebraSpec, subset: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Canonical basis of the vectors in span(subset) whose gamma-xi image
    multiplies to zero against every subset vector, on both sides, for all
    three products."""
    xi = spec.require_xi()
    n = spec.dimension
    vecs = [tuple(v) for v in subset]
    for v in vecs:
        if len(v) != n:
            raise InputError("subset vectors must match the algebra dimension")
    if not vecs:
        return ()
    # The subset vectors are the columns of V.
    v_matrix = Matrix(n, len(vecs), tuple(v[i] for i in range(n) for v in vecs))
    return canonical_span(map(v_matrix.apply, _annihilator(spec, xi, v_matrix)), n)
