"""Exact workbench for finite-dimensional BiHom-associative supertrialgebras.

Everything runs over the rationals: structure constants, twist maps, and
the linear algebra behind operator spaces are all exact, so checks are
decision procedures rather than numerical estimates.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .constructions import (
    BracketPairSpec,
    CommutatorResult,
    GraphCheckResult,
    InduceResult,
    SumProductResult,
    SwapResult,
    TotalProductResult,
    TwistResult,
    averaging_check,
    commutator_construct,
    conjugate_automorphism,
    direct_sum,
    graph_subalgebra_check,
    rota_baxter_check,
    rota_baxter_induce,
    sum_product_construct,
    swap_construct,
    total_product_construct,
    yau_twist,
)
from .core import (
    PRODUCT_TAGS,
    LinearMap,
    StructureTensor,
    SuperBasis,
    SuperalgebraSpec,
    TrialgebraSpec,
    center,
    centralizer,
    check_bihom,
    check_hom,
    check_morphism,
    check_multiplicative,
    check_superalgebra,
    identity_map,
    product_eval,
)
from .errors import (
    AlgebraError,
    CommutationError,
    InputError,
    ModeError,
    NotAutomorphismError,
    ParityError,
    SingularMapError,
)
from .fixtures import FIXTURE_NAMES, builtin, corpus, inject_violation
from .linalg import (
    Matrix,
    canonical_span,
    frac,
    invert,
    nullspace_basis,
    rref,
    solve_in_span,
)
from .serialize import (
    emit_algebra,
    emit_bracket_pair,
    emit_map,
    emit_superalgebra,
    parse_algebra,
    parse_map,
    parse_rational,
    parse_superalgebra,
    rational_str,
)
from .spaces import (
    SPACE_KINDS,
    BatteryLine,
    BatteryReport,
    ContainmentResult,
    GradedOperator,
    OperatorSpace,
    TwistPower,
    central_derivation_space,
    centroid,
    derivation_space,
    generalized_derivation_space,
    proposition_battery,
    quasicentroid,
    quasiderivation_space,
    space_contains,
    supercommutator,
)
from .sweep import CheckReport, Violation

# Every public name imported above, without the submodules the imports bind.
__all__ = [
    "__version__",
    *sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)),
]
