"""``check_bihom`` and ``check_hom`` agree with the independent oracle.

The corpus fixtures all have left = right = perp and gamma = xi, so a row
of either system could name the wrong product or the wrong structure map
and still pass on them.  The seeded random algebras below have three
different products, both parities and gamma != xi, and between them make
every identity fail somewhere; on each, the whole violation list (ids,
indices, both sides and order) must match the oracle's.
"""

import random

import pytest
from axiom_oracle import BIHOM_IDS, HOM_IDS, bihom_violations, hom_violations

from supertrial.core import TrialgebraSpec, check_bihom, check_hom
from supertrial.fixtures import FIXTURE_NAMES, builtin, inject_violation

SEEDS = range(6)
PARITIES = ((0, 1), (0, 0, 1), (0, 1, 1))


def as_tuples(report):
    return [(v.axiom_id, v.indices, v.lhs, v.rhs) for v in report.violations]


def random_spec(seed: int) -> TrialgebraSpec:
    """A non-associative algebra with an odd vector and gamma != xi.

    Entries are small integers; the constants and maps respect the grading.
    """
    rng = random.Random(seed)
    parities = PARITIES[seed % len(PARITIES)]
    n = len(parities)

    def tensor():
        return {
            (i, j, k): rng.randint(-2, 2)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if parities[k] == (parities[i] + parities[j]) % 2
        }

    def even_map():
        return [
            [rng.randint(-2, 2) if parities[i] == parities[j] else 0 for j in range(n)]
            for i in range(n)
        ]

    gamma = even_map()
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


def test_random_algebras_fail_every_identity():
    seen_bihom = set()
    seen_hom = set()
    for seed in SEEDS:
        spec = random_spec(seed)
        seen_bihom.update(v[0] for v in bihom_violations(spec))
        seen_hom.update(v[0] for v in hom_violations(spec))
    assert seen_bihom == set(BIHOM_IDS)
    assert seen_hom == set(HOM_IDS)
