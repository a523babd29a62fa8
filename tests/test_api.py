"""The public API: ``avekit.__all__`` is the contract, and nothing else
public is bound in the package."""

import inspect

import avekit

PUBLIC_API = [
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
    "SolveStatus",
    "SolverConfig",
    "SplitMix64",
    "Tolerances",
    "TridiagonalMatrix",
    "Verdict",
    "VerdictBasis",
    "__version__",
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
]


def test_all_is_the_pinned_public_api():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(avekit.__all__) == PUBLIC_API
    assert len(set(avekit.__all__)) == len(avekit.__all__)


def test_every_public_name_resolves():
    for name in avekit.__all__:
        assert hasattr(avekit, name), name


def test_no_other_public_name_is_bound():
    bound = {
        name
        for name, obj in vars(avekit).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert bound == set(PUBLIC_API) - {"__version__"}
