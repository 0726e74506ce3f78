"""The seeded two-step family of ``generators``: valid inputs with gamma != xi,
three distinct products and no supercommutativity, checked by the axiom
sweeps and by the independent constraint oracle."""

import pytest
from constraint_oracle import oracle_space
from generators import two_step

from supertrial.core import check_bihom, check_multiplicative
from supertrial.spaces import SPACE_KINDS, TwistPower, _build_space

SEEDS = range(10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_every_seed_is_a_valid_algebra(seed, n):
    spec = two_step(seed, n)
    assert spec.dimension == n
    assert check_bihom(spec).passed
    assert check_multiplicative(spec).passed


def test_the_family_reaches_what_the_corpus_lacks():
    """Over the seeds, most inputs have gamma != xi and three distinct
    products, and some product is not supercommutative."""
    specs = [two_step(seed, 4) for seed in SEEDS]
    assert sum(s.gamma != s.xi for s in specs) >= 6
    assert sum(len({tuple(t.items()) for _, t in s.products()}) == 3 for s in specs) >= 6

    def supercommutative(spec, tensor):
        p = spec.basis.parities
        return all(tensor.constants.get((j, i, k), 0) == (-1) ** (p[i] * p[j]) * c for (i, j, k), c in tensor.items())

    assert any(not supercommutative(s, t) for s in specs for _, t in s.products())


@pytest.mark.parametrize("power", [(0, 0), (1, 0), (0, 1)])
@pytest.mark.parametrize("seed", SEEDS)
def test_solver_matches_oracle(seed, power):
    spec = two_step(seed, 4)
    t = TwistPower(*power)
    for kind in SPACE_KINDS:
        assert _build_space(kind, spec, t).vectorized() == oracle_space(spec, kind, t), kind
