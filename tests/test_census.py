"""The tier-1 slice of the census (``census.py``): every valid dimension-3
algebra of one shared 0/1 tensor on at most two parity-even cells, with
gamma = xi = id.  The pinned counts are today's verdicts; a change to a
battery claim or a space's rows that moves one says so where it lands."""

import functools
from collections import Counter

import census
import pytest
from generators import census_000_012, census_001_001_221, census_011_012_102

from supertrial import spaces
from supertrial.spaces import proposition_battery

SUPPORT = 2

# Inputs failing each claim on some line, per mode.
FAILING = {
    False: {"zd-eq-d-cap-c": 40, "bracket-d-d-in-d": 2},
    True: {"zd-eq-d-cap-c": 40, "chain-d-in-qd": 2},
}


@functools.cache
def _valid():
    return tuple(census.valid(SUPPORT))


@functools.cache
def _reports(koszul):
    """Each input's battery: at max_power 1 in the default mode, where the
    line-by-line check below reads it too, and at max_power 0 in the Koszul mode."""
    return tuple(proposition_battery(spec, 0 if koszul else 1, koszul) for spec in _valid())


def test_the_slice_has_its_counts():
    kept = _valid()
    assert sum(1 for _ in census.candidates(SUPPORT)) == 577 and len(kept) == 109
    assert len({spec.name for spec in kept}) == 109
    assert all(spec.left is spec.right is spec.perp for spec in kept)
    assert all(spec.gamma.matrix.is_identity and spec.xi.matrix.is_identity for spec in kept)


@pytest.mark.parametrize("koszul", [False, True])
def test_failing_claims_per_mode(koszul):
    failing = Counter(claim for report in _reports(koszul) for claim in {ln.claim_id for ln in report.failed_lines()})
    assert failing == FAILING[koszul]


def test_each_battery_at_power_one_is_the_line_by_line_one():
    """Every census input has identity maps, so the battery decides each claim
    at T = id; the line-by-line pass over the whole grid gives every line the
    same verdict and witness."""
    grid = spaces._grid(1)
    for spec, report in zip(_valid(), _reports(False)):
        decide = spaces._witnesses(spec, False)
        witnesses = [decide(line) for line in grid]
        assert [(ln.passed, ln.witness) for ln in report.lines] == [(w is None, w) for w in witnesses]


@pytest.mark.parametrize("koszul", [False, True])
def test_the_named_inputs_are_the_first_of_each_failing_class(koszul):
    """tests/generators.py names the first input of the slice that fails each claim."""
    named = {False: {"zd-eq-d-cap-c": census_000_012, "bracket-d-d-in-d": census_001_001_221},
             True: {"zd-eq-d-cap-c": census_000_012, "chain-d-in-qd": census_011_012_102}}[koszul]
    first = {}
    for spec, report in zip(_valid(), _reports(koszul)):
        for claim in {ln.claim_id for ln in report.failed_lines()}:
            first.setdefault(claim, spec)
    assert first == {claim: make() for claim, make in named.items()}
