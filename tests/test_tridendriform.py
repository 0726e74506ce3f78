"""The test-side BiHom-tridendriform checker tells the roles apart.

Criterion 4 of the acceptance suite leans on ``tridendriform.py``; these
tests show that it would notice a split that mixed up the two structure
maps, the left and right products, or the weight of the perp product.
"""

from dataclasses import replace
from fractions import Fraction as F

from tridendriform import rota_baxter_split, tridendriform_violations

from supertrial.constructions import rota_baxter_induce
from supertrial.core import LinearMap, StructureTensor, SuperalgebraSpec
from supertrial.linalg import Matrix

# grassmann2 twisted as alpha(x)beta(y), with gamma = diag(1, 2), xi = diag(1, 3).
STAR = {(0, 0, 0): 1, (0, 1, 1): 3, (1, 0, 1): 2}
LAM = [[0, 0], [0, -1]]


def induced():
    alg = SuperalgebraSpec.build("grassmann2-tw", [0, 1], STAR, [[1, 0], [0, 2]], [[1, 0], [0, 3]])
    return rota_baxter_induce(alg, LinearMap.square(alg.basis, Matrix.from_rows(LAM)), 1).spec


def failing_ids(spec):
    return sorted({v[0] for v in tridendriform_violations(spec)})


def test_rota_baxter_split_passes():
    assert tridendriform_violations(induced()) == []


def test_swapped_structure_maps_detected():
    spec = induced()
    assert failing_ids(replace(spec, gamma=spec.xi, xi=spec.gamma)) == ["td5", "td6", "td7"]


def test_swapped_products_detected():
    spec = induced()
    assert failing_ids(replace(spec, left=spec.right, right=spec.left)) == [
        "td1", "td3", "td4", "td5", "td6"
    ]


def test_wrong_weight_detected():
    spec = induced()
    doubled = StructureTensor.build(2, {key: 2 * c for key, c in spec.perp.constants.items()})
    assert failing_ids(replace(spec, perp=doubled)) == ["td1", "td3"]


def test_split_formulas():
    left, right, perp = rota_baxter_split(STAR, LAM, 1)
    assert left == {(0, 1, 1): F(-3)}
    assert right == {(1, 0, 1): F(-2)}
    assert perp == {k: F(v) for k, v in STAR.items()}
    assert rota_baxter_split(STAR, LAM, 0)[2] == {}
