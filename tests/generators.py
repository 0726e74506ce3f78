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

A named set follows: three valid, multiplicative inputs, each reaching one
outcome of the proposition battery that the fixtures do not.  Then the
first input of ``census.py``'s slice in each class of failing verdicts, all
with gamma = xi = id.

Standard library and the package under test only; nothing here is a
fixture of the CLI or of the benchmark.
"""

from __future__ import annotations

import random

from supertrial.constructions import direct_sum
from supertrial.core import TrialgebraSpec
from supertrial.fixtures import builtin
from supertrial.linalg import Matrix

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


def nil3_odd_scaled() -> TrialgebraSpec:
    """e0 o e1 = e2 in all three products on parities (0, 1, 1), with gamma = xi =
    diag(1, 2, 2): regular (invertible, commuting and multiplicative maps), and since
    e1 o e0 = 0 it fails ``zd-eq-d-cap-c`` at every power, in both modes."""
    constants, diagonal = {(0, 1, 2): 1}, Matrix.diagonal([1, 2, 2])
    return TrialgebraSpec.build("nil3-odd-scaled", [0, 1, 1], constants, constants, constants, diagonal, diagonal)


def dual2_twisted_plus_grassmann2() -> TrialgebraSpec:
    """dual2-twisted + grassmann2: regular, and its Koszul battery fails ``chain-d-in-qd``
    at every power (the signed odd derivation of grassmann2 is no quasiderivation)."""
    return direct_sum(builtin("dual2-twisted"), builtin("grassmann2"))


def dsum_singular() -> TrialgebraSpec:
    """dsum-zero2-idem1 with gamma = xi = diag(1, 0, 0): valid and multiplicative but
    singular, so not regular.  Its battery passes at power 0 and fails
    ``bracket-d-zd-in-zd`` and ``zd-eq-d-cap-c`` on 15 lines of 120 at power 1."""
    spec, diagonal = builtin("dsum-zero2-idem1"), Matrix.diagonal([1, 0, 0])
    return TrialgebraSpec.build("dsum-zero2-idem1-singular", spec.basis.parities,
                                *(t.constants for _, t in spec.products()), diagonal, diagonal)


def _census(parities: list[int], cells: list[tuple[int, int, int]]) -> TrialgebraSpec:
    """The census input with these parities and unit cells, one tensor for all three
    products, gamma = xi = id, named as ``census.py`` names it."""
    name = "census-" + "".join(map(str, parities)) + "".join(f"-{i}{j}{k}" for i, j, k in cells)
    constants, identity = dict.fromkeys(cells, 1), Matrix.identity(len(parities))
    return TrialgebraSpec.build(name, parities, constants, constants, constants, identity, identity)


def census_000_012() -> TrialgebraSpec:
    """e0 o e1 = e2 on even e0, e1, e2: it fails ``zd-eq-d-cap-c`` in both modes."""
    return _census([0, 0, 0], [(0, 1, 2)])


def census_001_001_221() -> TrialgebraSpec:
    """e0 o e0 = e2 o e2 = e1 on parities (0, 0, 1): it fails ``bracket-d-d-in-d`` in the
    default mode."""
    return _census([0, 0, 1], [(0, 0, 1), (2, 2, 1)])


def census_011_012_102() -> TrialgebraSpec:
    """e0 o e1 = e1 o e0 = e2 on parities (0, 1, 1): it fails ``chain-d-in-qd`` in the
    Koszul mode."""
    return _census([0, 1, 1], [(0, 1, 2), (1, 0, 2)])
