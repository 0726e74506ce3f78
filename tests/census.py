"""A small-scope census: every valid algebra of one bounded family, in a fixed order.

The family is dimension 3 with parities ``PARITIES``, one structure tensor with
entries 0 or 1 on at most ``support`` parity-even cells (a product of
homogeneous vectors lands in their summed parity), shared as the object of all
three products, and gamma = xi = id.  ``candidates`` lists every member, the
supports by size and then in ``itertools.combinations`` order; ``valid`` keeps
those that pass ``check_bihom``.  ``test_census.py`` pins the battery's
verdicts on it.

Standard library and the package under test only.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from supertrial.core import LinearMap, StructureTensor, SuperBasis, TrialgebraSpec, check_bihom
from supertrial.linalg import Matrix

PARITIES = ((0, 0, 0), (0, 0, 1), (0, 1, 1))


def candidates(support: int) -> Iterator[TrialgebraSpec]:
    """Every member of the family with at most support nonzero cells."""
    for parities in PARITIES:
        n, basis = len(parities), SuperBasis(parities)
        cells = [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3) if parities[k] == (parities[i] + parities[j]) % 2]
        identity = LinearMap.square(basis, Matrix.identity(n))
        for size in range(support + 1):
            for chosen in itertools.combinations(cells, size):
                tensor = StructureTensor.build(n, dict.fromkeys(chosen, 1))
                name = "census-" + "".join(map(str, parities)) + "".join(f"-{i}{j}{k}" for i, j, k in chosen)
                yield TrialgebraSpec(name, basis, tensor, tensor, tensor, identity, identity)


def valid(support: int) -> list[TrialgebraSpec]:
    """The members that pass ``check_bihom``, in ``candidates`` order."""
    return [spec for spec in candidates(support) if check_bihom(spec).passed]

