"""Built-in example algebras and a violation injector for negative tests.

The corpus covers the structural variety the checkers need: a zero-product
algebra with an odd coordinate, a one-dimensional idempotent, the dual
numbers, their twist by a non-identity endomorphism, a graded variant of
the dual numbers with an odd square-zero generator, and a decomposable
direct sum.  Every fixture passes the full axiom and multiplicativity
checks; the test suite re-validates this on each run.
"""

from __future__ import annotations

from dataclasses import replace

from .constructions import direct_sum
from .core import StructureTensor, TrialgebraSpec
from .errors import InputError
from .linalg import RationalLike, frac

_ID2 = [[1, 0], [0, 1]]
_DUAL = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}

# name -> (parities, constants, twist): one tensor for all three products
# and one map for gamma and xi.  A pair of names is their direct sum.
_FIXTURES = {
    "zero2": ([0, 1], {}, _ID2),
    "idem1": ([0], {(0, 0, 0): 1}, [[1]]),
    "dual2": ([0, 0], _DUAL, _ID2),
    "dual2-twisted": ([0, 0], {(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 1): 2}, [[1, 0], [0, 2]]),
    "grassmann2": ([0, 1], _DUAL, _ID2),
    "dsum-zero2-idem1": ("zero2", "idem1"),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def builtin(name: str) -> TrialgebraSpec:
    """Return the named corpus fixture."""
    entry = _FIXTURES.get(name)
    if entry is None:
        known = ", ".join(FIXTURE_NAMES)
        raise InputError(f"unknown fixture {name!r}; known fixtures: {known}")
    if len(entry) == 2:
        return direct_sum(*map(builtin, entry)).with_name(name)
    parities, constants, twist = entry
    return TrialgebraSpec.build(name, parities, constants, constants, constants, twist, twist)


def corpus() -> list[TrialgebraSpec]:
    """All fixtures, in a fixed order."""
    return [builtin(name) for name in FIXTURE_NAMES]


def inject_violation(
    spec: TrialgebraSpec, op: str, triple: tuple[int, int, int], delta: RationalLike
) -> TrialgebraSpec:
    """Return a copy with one structure constant perturbed by a nonzero delta.

    The perturbed tensor must still respect the parity-evenness invariant;
    inadmissible triples are rejected rather than silently accepted.
    """
    d = frac(delta)
    if d == 0:
        raise InputError("delta must be nonzero")
    tensor = spec.tensor(op)  # type: ignore[arg-type]
    i, j, k = triple
    n = spec.dimension
    for idx in triple:
        if not 0 <= idx < n:
            raise InputError(f"triple {triple} out of range for dimension {n}")
    table = dict(tensor.constants)
    table[(i, j, k)] = table.get((i, j, k), frac(0)) + d
    return replace(spec, **{op: StructureTensor.build(n, table)})
