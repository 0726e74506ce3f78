"""Acceptance checklist for the workbench.

Each test is one numbered criterion and prints exactly one
"ACCEPTANCE n: PASS" or "ACCEPTANCE n: FAIL" line.  Criteria are
independent; a failure here means the shipped behavior does not meet
the published contract, not that a unit regressed.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction as F

import constraint_oracle
from tridendriform import rota_baxter_split, tridendriform_violations

from supertrial.cli import main
from supertrial.constructions import (
    direct_sum,
    graph_subalgebra_check,
    rota_baxter_check,
    rota_baxter_induce,
    yau_twist,
)
from supertrial.core import (
    LinearMap,
    SuperalgebraSpec,
    TrialgebraSpec,
    center,
    check_bihom,
    check_multiplicative,
    check_superalgebra,
)
from supertrial.fixtures import FIXTURE_NAMES, builtin, corpus, inject_violation
from supertrial.linalg import Echelon, Matrix, invert, solve_in_span
from supertrial.serialize import emit_algebra, parse_algebra
from supertrial.spaces import (
    SPACE_KINDS,
    TwistPower,
    central_derivation_space,
    centroid,
    derivation_space,
    generalized_derivation_space,
    proposition_battery,
    quasicentroid,
    quasiderivation_space,
)

TIME_BUDGET_SECONDS = 10.0

SPACE_BUILDERS = {
    "D": derivation_space,
    "QD": quasiderivation_space,
    "GD": generalized_derivation_space,
    "ZD": central_derivation_space,
    "C": centroid,
    "QC": quasicentroid,
}


def criterion(number):
    """Print one verdict line per criterion and enforce the time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < TIME_BUDGET_SECONDS, f"criterion {number} took {elapsed:.1f}s"
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL")
                raise
            print(f"ACCEPTANCE {number}: PASS")

        return run

    return wrap


def random_even_invertible(rng, parities):
    """Invertible parity-preserving matrix with entries in -2..2."""
    n = len(parities)
    while True:
        rows = [
            [rng.randint(-2, 2) if parities[i] == parities[j] else 0 for j in range(n)]
            for i in range(n)
        ]
        m = Matrix.from_rows(rows)
        if len(Echelon(m.row(i) for i in range(m.rows))) == n:
            return m


def split_constants(spec):
    """Left, right and perp structure constants as plain dicts."""
    return tuple(dict(t.constants) for t in (spec.left, spec.right, spec.perp))


@criterion(1)
def test_1_axiom_suite():
    for spec in corpus():
        assert check_bihom(spec).passed, spec.name
        assert check_multiplicative(spec).passed, spec.name
    dual2 = builtin("dual2")
    for slot in itertools.product(range(dual2.basis.dimension), repeat=3):
        perturbed = inject_violation(dual2, "left", slot, 1)
        report = check_bihom(perturbed)
        assert not report.passed, f"undetected perturbation at {slot}"
        assert report.violations, f"no violation recorded at {slot}"


@criterion(2)
def test_2_twist_isomorphism():
    rng = random.Random(20260823)
    for spec in corpus():
        for _ in range(20):
            m = random_even_invertible(rng, spec.basis.parities)
            l = LinearMap.square(spec.basis, m)
            result = yau_twist(spec, l)
            assert result.report.passed, spec.name
            assert result.constants_match, spec.name
            l_inv = LinearMap.square(spec.basis, invert(m))
            restored = yau_twist(result.twisted, l_inv).twisted
            assert restored == spec, spec.name


@criterion(3)
def test_3_direct_sum_and_graph():
    assert check_bihom(direct_sum(builtin("zero2"), builtin("idem1"))).passed
    dual2 = builtin("dual2")
    rng = random.Random(10)
    verdicts = set()
    for _ in range(50):
        rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        pi = LinearMap.square(dual2.basis, Matrix.from_rows(rows))
        result = graph_subalgebra_check(dual2, dual2, pi)
        assert result.is_subalgebra == result.is_morphism
        verdicts.add(result.is_morphism)
    assert verdicts == {True, False}, "sweep must exercise both sides of the equivalence"


@criterion(4)
def test_4_rota_baxter():
    idem1 = builtin("idem1")
    for c in (0, 1, 2, -1):
        lam = LinearMap.square(idem1.basis, Matrix.from_rows([[-c]]))
        assert rota_baxter_check(idem1, lam, c).passed, f"weight {c}"
    ident = LinearMap.square(idem1.basis, Matrix.identity(1))
    assert not rota_baxter_check(idem1, ident, 1).passed

    # The split through a Rota-Baxter operator is BiHom-tridendriform; it is
    # not a model of the trialgebra system, whose chained pairs ii-b and iv-b
    # fail with sides c^2 and -c^2 for every nonzero weight.
    star = {(0, 0, 0): 1}
    alg = SuperalgebraSpec.build("idem1", [0], star, [[1]], [[1]])
    for c in (0, 1, 2, -1):
        neg = LinearMap.square(alg.basis, Matrix.from_rows([[-c]]))
        induced = rota_baxter_induce(alg, neg, c)
        assert split_constants(induced.spec) == rota_baxter_split(star, [[-c]], c), f"weight {c}"
        assert tridendriform_violations(induced.spec) == [], f"weight {c}"
        assert induced.report == check_bihom(induced.spec)
        expected = [] if c == 0 else [
            (axiom, (0, 0, 0), (F(c * c),), (F(-c * c),)) for axiom in ("ii-b", "iv-b")
        ]
        assert [
            (v.axiom_id, v.indices, v.lhs, v.rhs) for v in induced.report.violations
        ] == expected, f"weight {c}"

    # Negative control: the lambda = id split (not a Rota-Baxter operator,
    # so rota_baxter_induce refuses it) breaks the sum identities.
    control = TrialgebraSpec.build(
        "idem1-id-split", [0], *rota_baxter_split(star, [[1]], 1), [[1]], [[1]]
    )
    assert tridendriform_violations(control) == [
        (td, (0, 0, 0), (F(1),), (F(3),)) for td in ("td1", "td3")
    ]

    # grassmann2 twisted as alpha(x)beta(y): an odd vector, gamma != xi, and
    # products that tell left from right.
    star = {(0, 0, 0): 1, (0, 1, 1): 3, (1, 0, 1): 2}
    alg = SuperalgebraSpec.build("grassmann2-tw", [0, 1], star, [[1, 0], [0, 2]], [[1, 0], [0, 3]])
    assert check_superalgebra(alg).passed
    lam = [[0, 0], [0, -1]]
    induced = rota_baxter_induce(alg, LinearMap.square(alg.basis, Matrix.from_rows(lam)), 1)
    assert split_constants(induced.spec) == rota_baxter_split(star, lam, 1)
    assert tridendriform_violations(induced.spec) == []
    assert induced.report == check_bihom(induced.spec)
    assert {v.axiom_id for v in induced.report.violations} == {"ii-a", "ii-b", "iv-a", "iv-b"}


@criterion(5)
def test_5_operator_space_regression():
    t = TwistPower(0, 0)
    assert derivation_space(builtin("zero2"), t).dimension == 4
    assert derivation_space(builtin("idem1"), t).dimension == 0
    assert derivation_space(builtin("dual2"), t).dimension == 1
    dual2 = builtin("dual2")
    assert centroid(dual2, t).dimension == 2
    assert quasicentroid(dual2, t).dimension == 2
    assert central_derivation_space(dual2, t).dimension == 0
    g2 = builtin("grassmann2")
    assert derivation_space(g2, t).odd_dimension == 0
    assert derivation_space(g2, t, koszul=True).odd_dimension == 1


@criterion(6)
def test_6_proposition_battery():
    universal = {"chain-d-in-qd", "chain-qd-in-gd", "zd-eq-d-cap-c", "c-in-qd"}
    untwisted_only = {
        "bracket-d-c-in-c",
        "compose-c-d-in-d",
        "bracket-qd-qc-in-qc",
        "bracket-qc-qc-in-qd",
        "sum-qd-qc-in-gd",
        "bracket-d-zd-in-zd",
        "bracket-d-d-in-d",
    }
    for spec in corpus():
        report = proposition_battery(spec, 1)
        n = spec.basis.dimension
        is_untwisted = (
            spec.gamma.matrix == Matrix.identity(n) and spec.xi.matrix == Matrix.identity(n)
        )
        for line in report.lines:
            if line.claim_id in universal:
                assert line.passed, (spec.name, line.claim_id, line.s, line.r)
            if is_untwisted and line.claim_id in untwisted_only:
                assert line.passed, (spec.name, line.claim_id, line.s, line.r)
            if not line.passed:
                assert line.witness is not None, "failure without witness"

    dual2 = builtin("dual2")
    assert center(dual2) == ()
    trivial = [
        ln
        for ln in proposition_battery(dual2, 1).lines
        if ln.claim_id == "trivial-center-d-cap-c"
    ]
    assert trivial and all(ln.passed for ln in trivial)

    # failure path: signed odd derivations break the unsigned chain, and the
    # reported witness replays (inside signed D, outside unsigned QD)
    g2 = builtin("grassmann2")
    signed = proposition_battery(g2, 1, koszul=True)
    bad = [ln for ln in signed.lines if not ln.passed]
    assert bad and all(ln.claim_id == "chain-d-in-qd" for ln in bad)
    t = TwistPower(bad[0].s, bad[0].r)
    witness = bad[0].witness
    assert witness is not None
    d_signed = derivation_space(g2, t, koszul=True).vectorized()
    qd = quasiderivation_space(g2, t).vectorized()
    assert solve_in_span(list(d_signed), witness.matrix.entries) is not None
    assert solve_in_span(list(qd), witness.matrix.entries) is None


@criterion(7)
def test_7_oracle_equivalence():
    t = TwistPower(0, 0)
    for spec in corpus():
        assert spec.basis.dimension <= 3
        for kind in SPACE_KINDS:
            expected = constraint_oracle.oracle_space(spec, kind, t)
            actual = SPACE_BUILDERS[kind](spec, t).vectorized()
            assert actual == expected, (spec.name, kind)


@criterion(8)
def test_8_determinism_roundtrip(tmp_path, capsys):
    path = tmp_path / "dual2.json"
    path.write_text(emit_algebra(builtin("dual2")), encoding="utf-8")
    runs = []
    for _ in range(2):
        assert main(["verify", str(path), "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    json.loads(runs[0])

    for spec in corpus():
        text = emit_algebra(spec)
        assert parse_algebra(text) == spec
        assert emit_algebra(parse_algebra(text)) == text
