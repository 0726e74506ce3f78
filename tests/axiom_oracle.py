"""Independent evaluation of the ``check_bihom``, ``check_hom`` and
``check_multiplicative`` axiom systems.

Every identity of the three systems is written out again here as a pair of
functions of a basis tuple, and evaluated straight from the structure
constants and the structure-map entries.  No checker of the package and no
method of ``StructureTensor`` or ``Matrix`` is used, so a wrong symbol in
one of the package's identity rows cannot hide behind the same symbol
here.

Notation: < is the spec's left product, > its right product, . its perp
product; g is gamma and x is xi.  Chained equalities a = b = c are split
into the pairs a = b (suffix ``-a``) and b = c (suffix ``-b``), as in the
package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from supertrial.core import TrialgebraSpec

ZERO = Fraction(0)


class _Ops:
    """The three products and the structure maps of a spec on plain tuples."""

    def __init__(self, spec: TrialgebraSpec) -> None:
        self.n = spec.dimension
        self.tables = {
            tag: dict(getattr(spec, tag).constants) for tag in ("left", "right", "perp")
        }
        self.maps = {"gamma": spec.gamma.matrix}
        if spec.xi is not None:
            self.maps["xi"] = spec.xi.matrix

    def _product(self, tag: str, a, b) -> tuple[Fraction, ...]:
        out = [ZERO] * self.n
        for (i, j, k), c in self.tables[tag].items():
            if a[i] and b[j]:
                out[k] += c * a[i] * b[j]
        return tuple(out)

    def _apply(self, name: str, a) -> tuple[Fraction, ...]:
        entries = self.maps[name].entries
        n = self.n
        return tuple(sum((entries[i * n + j] * a[j] for j in range(n)), ZERO) for i in range(n))

    def lt(self, a, b):
        return self._product("left", a, b)

    def gt(self, a, b):
        return self._product("right", a, b)

    def dot(self, a, b):
        return self._product("perp", a, b)

    def g(self, a):
        return self._apply("gamma", a)

    def x(self, a):
        return self._apply("xi", a)


# (id, lhs, rhs) as functions of the operations and basis vectors d, q, y.
BIHOM_TRIPLES = (
    ("ii-a",  # (d<q)<x(y) = g(d)<(q>y)
     lambda o, d, q, y: o.lt(o.lt(d, q), o.x(y)),
     lambda o, d, q, y: o.lt(o.g(d), o.gt(q, y))),
    ("ii-b",  # g(d)<(q>y) = g(d)<(q.y)
     lambda o, d, q, y: o.lt(o.g(d), o.gt(q, y)),
     lambda o, d, q, y: o.lt(o.g(d), o.dot(q, y))),
    ("iii",  # (d<q)<x(y) = g(d)>(q<y)
     lambda o, d, q, y: o.lt(o.lt(d, q), o.x(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.lt(q, y))),
    ("iv-a",  # (d<q)>g(y) = x(d)>(q>y)
     lambda o, d, q, y: o.gt(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.x(d), o.gt(q, y))),
    ("iv-b",  # x(d)>(q>y) = (d.q)>x(y)
     lambda o, d, q, y: o.gt(o.x(d), o.gt(q, y)),
     lambda o, d, q, y: o.gt(o.dot(d, q), o.x(y))),
    ("v",  # (d.q)<x(y) = g(d).(q<y)
     lambda o, d, q, y: o.lt(o.dot(d, q), o.x(y)),
     lambda o, d, q, y: o.dot(o.g(d), o.lt(q, y))),
    ("vi",  # (d<q).x(y) = g(d).(q>y)
     lambda o, d, q, y: o.dot(o.lt(d, q), o.x(y)),
     lambda o, d, q, y: o.dot(o.g(d), o.gt(q, y))),
    ("vii",  # (d>q).x(y) = g(d)>(q.y)
     lambda o, d, q, y: o.dot(o.gt(d, q), o.x(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.dot(q, y))),
)

HOM_PAIRS = (
    ("gamma-left",  # g(d<q) = g(d)<g(q)
     lambda o, d, q: o.g(o.lt(d, q)),
     lambda o, d, q: o.lt(o.g(d), o.g(q))),
    ("gamma-perp",  # g(d.q) = g(d).g(q)
     lambda o, d, q: o.g(o.dot(d, q)),
     lambda o, d, q: o.dot(o.g(d), o.g(q))),
    ("gamma-right",  # g(d>q) = g(d)>g(q)
     lambda o, d, q: o.g(o.gt(d, q)),
     lambda o, d, q: o.gt(o.g(d), o.g(q))),
)

XI_PAIRS = (
    ("xi-left",  # x(d<q) = x(d)<x(q)
     lambda o, d, q: o.x(o.lt(d, q)),
     lambda o, d, q: o.lt(o.x(d), o.x(q))),
    ("xi-perp",  # x(d.q) = x(d).x(q)
     lambda o, d, q: o.x(o.dot(d, q)),
     lambda o, d, q: o.dot(o.x(d), o.x(q))),
    ("xi-right",  # x(d>q) = x(d)>x(q)
     lambda o, d, q: o.x(o.gt(d, q)),
     lambda o, d, q: o.gt(o.x(d), o.x(q))),
)

HOM_TRIPLES = (
    ("h01",  # (d<q)<g(y) = g(d)<(q>y)
     lambda o, d, q, y: o.lt(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.lt(o.g(d), o.gt(q, y))),
    ("h02",  # (d<q)>g(y) = g(d)>(q>y)
     lambda o, d, q, y: o.gt(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.gt(q, y))),
    ("h03",  # (d<q)<g(y) = g(d)<(q.y)
     lambda o, d, q, y: o.lt(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.lt(o.g(d), o.dot(q, y))),
    ("h04",  # (d<q).g(y) = g(d).(q>y)
     lambda o, d, q, y: o.dot(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.dot(o.g(d), o.gt(q, y))),
    ("h05",  # (d.q)>g(y) = g(d)>(q>y)
     lambda o, d, q, y: o.gt(o.dot(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.gt(q, y))),
    ("h06",  # (d<q)<g(y) = g(d)<(q<y)
     lambda o, d, q, y: o.lt(o.lt(d, q), o.g(y)),
     lambda o, d, q, y: o.lt(o.g(d), o.lt(q, y))),
    ("h07",  # (d>q)<g(y) = g(d)>(q<y)
     lambda o, d, q, y: o.lt(o.gt(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.lt(q, y))),
    ("h08",  # (d>q)>g(y) = g(d)>(q>y)
     lambda o, d, q, y: o.gt(o.gt(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.gt(q, y))),
    ("h09",  # (d.q)<g(y) = g(d).(q<y)
     lambda o, d, q, y: o.lt(o.dot(d, q), o.g(y)),
     lambda o, d, q, y: o.dot(o.g(d), o.lt(q, y))),
    ("h10",  # (d>q).g(y) = g(d)>(q.y)
     lambda o, d, q, y: o.dot(o.gt(d, q), o.g(y)),
     lambda o, d, q, y: o.gt(o.g(d), o.dot(q, y))),
    ("h11",  # (d.q).g(y) = g(d).(q.y)
     lambda o, d, q, y: o.dot(o.dot(d, q), o.g(y)),
     lambda o, d, q, y: o.dot(o.g(d), o.dot(q, y))),
)

BIHOM_IDS = ("i",) + tuple(ident for ident, _, _ in BIHOM_TRIPLES)
HOM_IDS = tuple(ident for ident, _, _ in HOM_PAIRS + HOM_TRIPLES)


def _units(n: int) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def _sweep(ops: _Ops, arity: int, identities) -> list[tuple]:
    units = _units(ops.n)
    found = []
    for t in itertools.product(range(ops.n), repeat=arity):
        vectors = [units[i] for i in t]
        for ident, lhs, rhs in identities:
            a, b = lhs(ops, *vectors), rhs(ops, *vectors)
            if a != b:
                found.append((ident, t, a, b))
    return found


def _sorted(found: list[tuple]) -> list[tuple]:
    return sorted(found, key=lambda v: (v[0], v[1]))


def bihom_violations(spec: TrialgebraSpec) -> list[tuple]:
    """Every failed ``check_bihom`` identity as (id, indices, lhs, rhs),
    ordered by id and then by indices, as a ``CheckReport`` orders them."""
    ops = _Ops(spec)
    commute = (("i", lambda o, d: o.g(o.x(d)), lambda o, d: o.x(o.g(d))),)
    return _sorted(_sweep(ops, 1, commute) + _sweep(ops, 3, BIHOM_TRIPLES))


def multiplicative_violations(spec: TrialgebraSpec) -> list[tuple]:
    """Every failed ``check_multiplicative`` identity as (id, indices, lhs,
    rhs), in report order: gamma and xi against each of the three products."""
    return _sorted(_sweep(_Ops(spec), 2, HOM_PAIRS + XI_PAIRS))


def hom_violations(spec: TrialgebraSpec) -> list[tuple]:
    """Every failed ``check_hom`` identity as (id, indices, lhs, rhs), in
    report order; ``xi`` is ignored."""
    ops = _Ops(spec)
    return _sorted(_sweep(ops, 2, HOM_PAIRS) + _sweep(ops, 3, HOM_TRIPLES))
