"""Independent check of the BiHom-tridendriform identities.

A weight-c Rota-Baxter operator R on a BiHom-associative superalgebra
(A, *, alpha, beta), commuting with alpha and beta, splits the product into

    x < y = x * R(y),    x > y = R(x) * y,    x . y = c (x * y).

These three products satisfy the seven BiHom-tridendriform identities
below (Ebrahimi-Fard, Lett. Math. Phys. 61, 2002, for the untwisted case;
Liu, Makhlouf, Menini, Panaite, Colloq. Math., 2020, for the BiHom case).
They do not in general satisfy the triassociative-type system checked by
``supertrial.core.check_bihom``.

Here < is the spec's left product, > its right product, . its perp
product, alpha = gamma and beta = xi.  Products are evaluated straight
from the structure constants; no checker of the package is used, so a
fault in the package's sweep or in ``StructureTensor`` cannot hide here.
All products and maps are even, and no identity reorders its arguments,
so no Koszul signs arise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from supertrial.core import TrialgebraSpec

ZERO = Fraction(0)


class _Ops:
    """The three products and two structure maps of a spec on plain tuples."""

    def __init__(self, spec: TrialgebraSpec) -> None:
        self.n = spec.dimension
        self.tables = {
            tag: dict(getattr(spec, tag).constants) for tag in ("left", "right", "perp")
        }
        self.maps = {"alpha": spec.gamma.matrix, "beta": spec.xi.matrix}

    def _product(self, tag: str, x, y) -> tuple[Fraction, ...]:
        out = [ZERO] * self.n
        for (i, j, k), c in self.tables[tag].items():
            if x[i] and y[j]:
                out[k] += c * x[i] * y[j]
        return tuple(out)

    def _apply(self, name: str, x) -> tuple[Fraction, ...]:
        m = self.maps[name]
        return tuple(sum((a * b for a, b in zip(m.row(i), x)), ZERO) for i in range(self.n))

    def lt(self, x, y):
        return self._product("left", x, y)

    def gt(self, x, y):
        return self._product("right", x, y)

    def dot(self, x, y):
        return self._product("perp", x, y)

    def star(self, x, y):
        """x < y + x > y + x . y"""
        return tuple(a + b + c for a, b, c in zip(self.lt(x, y), self.gt(x, y), self.dot(x, y)))

    def alpha(self, x):
        return self._apply("alpha", x)

    def beta(self, x):
        return self._apply("beta", x)


# (id, lhs, rhs) as functions of the operations and a basis triple x, y, z.
IDENTITIES = (
    ("td1",  # (x<y)<b(z) = a(x)<(y<z + y>z + y.z)
     lambda o, x, y, z: o.lt(o.lt(x, y), o.beta(z)),
     lambda o, x, y, z: o.lt(o.alpha(x), o.star(y, z))),
    ("td2",  # (x>y)<b(z) = a(x)>(y<z)
     lambda o, x, y, z: o.lt(o.gt(x, y), o.beta(z)),
     lambda o, x, y, z: o.gt(o.alpha(x), o.lt(y, z))),
    ("td3",  # a(x)>(y>z) = (x<y + x>y + x.y)>b(z)
     lambda o, x, y, z: o.gt(o.alpha(x), o.gt(y, z)),
     lambda o, x, y, z: o.gt(o.star(x, y), o.beta(z))),
    ("td4",  # a(x).(y>z) = (x<y).b(z)
     lambda o, x, y, z: o.dot(o.alpha(x), o.gt(y, z)),
     lambda o, x, y, z: o.dot(o.lt(x, y), o.beta(z))),
    ("td5",  # (x>y).b(z) = a(x)>(y.z)
     lambda o, x, y, z: o.dot(o.gt(x, y), o.beta(z)),
     lambda o, x, y, z: o.gt(o.alpha(x), o.dot(y, z))),
    ("td6",  # (x.y)<b(z) = a(x).(y<z)
     lambda o, x, y, z: o.lt(o.dot(x, y), o.beta(z)),
     lambda o, x, y, z: o.dot(o.alpha(x), o.lt(y, z))),
    ("td7",  # (x.y).b(z) = a(x).(y.z)
     lambda o, x, y, z: o.dot(o.dot(x, y), o.beta(z)),
     lambda o, x, y, z: o.dot(o.alpha(x), o.dot(y, z))),
)


def tridendriform_violations(spec: TrialgebraSpec) -> list[tuple]:
    """Every failed identity on a basis triple, as (id, (i, j, k), lhs, rhs).

    Triples run in lexicographic order and, within a triple, identities in
    the order td1..td7.
    """
    ops = _Ops(spec)
    n = ops.n
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    found = []
    for t in itertools.product(range(n), repeat=3):
        x, y, z = (units[i] for i in t)
        for ident, lhs, rhs in IDENTITIES:
            a, b = lhs(ops, x, y, z), rhs(ops, x, y, z)
            if a != b:
                found.append((ident, t, a, b))
    return found


def rota_baxter_split(star, lam, weight) -> tuple[dict, dict, dict]:
    """Left, right and perp constants of the split of ``star`` through ``lam``.

    ``star`` maps (i, j, k) to the coefficient of e_k in e_i * e_j, and
    ``lam`` is a square matrix given as a list of rows.  The formulas are the
    defining ones: x < y = x * lam(y), x > y = lam(x) * y, x . y = c (x * y).
    Zero coefficients are left out, as in ``StructureTensor``.
    """
    c = Fraction(weight)
    n = len(lam)
    left: dict = {}
    right: dict = {}
    perp: dict = {}
    for (i, j, k), s in star.items():
        s = Fraction(s)
        for m in range(n):
            # e_i * lam(e_m) picks up lam[j][m] e_j; lam(e_m) * e_j likewise for e_i.
            if lam[j][m]:
                left[(i, m, k)] = left.get((i, m, k), ZERO) + s * Fraction(lam[j][m])
            if lam[i][m]:
                right[(m, j, k)] = right.get((m, j, k), ZERO) + s * Fraction(lam[i][m])
        perp[(i, j, k)] = c * s
    drop_zeros = lambda table: {key: v for key, v in table.items() if v}
    return drop_zeros(left), drop_zeros(right), drop_zeros(perp)
