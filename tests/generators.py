"""Seeded valid inputs that the fixture corpus lacks.

``two_step(seed, n)`` builds a two-step nilpotent algebra on V = A + B with
random parities: three independent parity-even integer tensors A x A -> B,
gamma = lam on A and lam^2 on B, and xi = mu on A and mu^2 on B, with lam
and mu nonzero integers that mostly differ.  Every product lands in B and B
multiplies to zero, so each side of every triple identity vanishes; gamma
and xi are diagonal, so they commute and are even; and
gamma(x o y) = lam^2 (x o y) = gamma(x) o gamma(y) on A, likewise for xi.
So every seed is a valid BiHom-supertrialgebra, and in general its three
products differ, gamma differs from xi, and no product is supercommutative.

Standard library and the package under test only; nothing here is a
fixture of the CLI or of the benchmark.
"""

from __future__ import annotations

import random

from supertrial.core import TrialgebraSpec

SCALARS = (-2, -1, 2, 3)


def two_step(seed: int, n: int) -> TrialgebraSpec:
    """The seeded two-step algebra of dimension n >= 2 (see the module docstring)."""
    rng = random.Random(seed)
    a = rng.randint(1, n - 1)  # A is e_0 .. e_{a-1}, B the rest
    parities = [rng.randint(0, 1) for _ in range(n)]

    def tensor() -> dict[tuple[int, int, int], int]:
        cells = [(i, j, k) for i in range(a) for j in range(a) for k in range(a, n)]
        even = [(i, j, k) for i, j, k in cells if parities[k] == (parities[i] + parities[j]) % 2]
        return {cell: rng.choice((-2, -1, 1, 2, 3)) for cell in even if rng.random() < 0.6}

    lam, mu = rng.choice(SCALARS), rng.choice(SCALARS)
    gamma = [[(lam if i < a else lam * lam) if i == j else 0 for j in range(n)] for i in range(n)]
    xi = [[(mu if i < a else mu * mu) if i == j else 0 for j in range(n)] for i in range(n)]
    return TrialgebraSpec.build(f"two-step-{seed}-n{n}", parities, tensor(), tensor(), tensor(), gamma, xi)
