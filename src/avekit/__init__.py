"""avekit: solve, classify, and cross-check absolute value equations
A x - |x| = b with the generalized Newton method."""

from .classify import (
    SolvabilityVerdict,
    Verdict,
    VerdictBasis,
    classify,
    solution_family,
)
from .core import (
    AveProblem,
    SignDiagonal,
    residual,
    sign_diagonal,
)
from .errors import (
    AlphaOutOfRange,
    AvekitError,
    DimensionTooLarge,
    ParseError,
    SchemaError,
    SingularSystem,
)
from .linalg import TridiagonalMatrix
from .mclass import (
    ConditionReport,
    Tolerances,
    check_condition_3a,
    check_condition_3b,
    diagnostics,
    is_m_matrix,
    is_z_matrix,
)
from .oracle import (
    SolutionCount,
    SolutionCountKind,
    SolutionSet,
    count_solutions,
    enumerate_solutions,
)
from .problems import (
    ProblemFile,
    SplitMix64,
    convert_max_form,
    gen_example1,
    gen_example_k,
    gen_random_3a,
    gen_random_3b,
    load,
    save,
)
from .solver import SolveReport, SolverConfig, SolveStatus, gnm_solve, guard_d0

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "AveProblem",
    "AvekitError",
    "ConditionReport",
    "DimensionTooLarge",
    "ParseError",
    "ProblemFile",
    "SchemaError",
    "SignDiagonal",
    "SingularSystem",
    "SolutionCount",
    "SolutionCountKind",
    "SolutionSet",
    "SolvabilityVerdict",
    "SolveReport",
    "SolverConfig",
    "SolveStatus",
    "SplitMix64",
    "Tolerances",
    "TridiagonalMatrix",
    "Verdict",
    "VerdictBasis",
    "check_condition_3a",
    "check_condition_3b",
    "classify",
    "convert_max_form",
    "count_solutions",
    "diagnostics",
    "enumerate_solutions",
    "gen_example1",
    "gen_example_k",
    "gen_random_3a",
    "gen_random_3b",
    "gnm_solve",
    "guard_d0",
    "is_m_matrix",
    "is_z_matrix",
    "load",
    "residual",
    "save",
    "sign_diagonal",
    "solution_family",
    "__version__",
]
