"""The built-in corpus self-validates and the violation injector is honest."""

from fractions import Fraction
from pathlib import Path

import pytest

from supertrial.core import check_bihom, check_multiplicative
from supertrial.errors import InputError, ParityError
from supertrial.fixtures import FIXTURE_NAMES, builtin, corpus, inject_violation
from supertrial.serialize import emit_algebra

EXPORTS = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def test_fixture_names_fixed_order():
    assert FIXTURE_NAMES == (
        "zero2",
        "idem1",
        "dual2",
        "dual2-twisted",
        "grassmann2",
        "dsum-zero2-idem1",
    )


def test_corpus_matches_names():
    assert [spec.name for spec in corpus()] == list(FIXTURE_NAMES)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_fixture_passes_both_checks(name):
    spec = builtin(name)
    assert check_bihom(spec).passed
    assert check_multiplicative(spec).passed


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_export_matches_the_benchmark_copy(name):
    """The benchmark reads each fixture from its committed export, so the
    corpus must still emit those documents byte for byte."""
    expected = (EXPORTS / f"{name}.json").read_bytes()
    assert emit_algebra(builtin(name)).encode("utf-8") == expected


def test_builders_are_reproducible():
    assert builtin("dual2") == builtin("dual2")


def test_unknown_name_lists_known_ones():
    with pytest.raises(InputError, match="zero2"):
        builtin("nope")


def test_dsum_shape():
    spec = builtin("dsum-zero2-idem1")
    assert spec.dimension == 3
    assert spec.basis.parities == (0, 1, 0)
    assert dict(spec.left.items()) is not None
    assert spec.left.constants.get((2, 2, 2), 0) == 1
    assert spec.left.constants.get((0, 0, 0), 0) == 0


class TestInjectViolation:
    def test_zero_delta_rejected(self):
        with pytest.raises(InputError):
            inject_violation(builtin("dual2"), "left", (0, 0, 0), 0)

    def test_out_of_range_triple(self):
        with pytest.raises(InputError):
            inject_violation(builtin("dual2"), "left", (0, 0, 2), 1)

    def test_parity_breaking_injection_rejected(self):
        with pytest.raises(ParityError):
            inject_violation(builtin("grassmann2"), "left", (0, 0, 1), 1)

    def test_perturbation_changes_one_constant(self):
        spec = inject_violation(builtin("dual2"), "perp", (1, 1, 0), "1/2")
        assert spec.perp.constants.get((1, 1, 0), 0) == Fraction(1, 2)
        assert spec.left == builtin("dual2").left

    def test_cancelling_delta_removes_constant(self):
        spec = inject_violation(builtin("dual2"), "left", (0, 0, 0), -1)
        assert spec.left.constants.get((0, 0, 0), 0) == 0

    @pytest.mark.parametrize("slot", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)])
    def test_dual2_left_perturbations_detected(self, slot):
        spec = inject_violation(builtin("dual2"), "left", slot, 1)
        assert not check_bihom(spec).passed
