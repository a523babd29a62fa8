"""The value semantics of every frozen record in the package: construction
by position and by keyword with defaults, the ``__post_init__`` checks,
immutability, ``repr``, equality, hash and the ``inspect`` signature."""

import dataclasses
import inspect

import numpy as np
import pytest

from avekit import _record
from avekit.classify import SolvabilityVerdict, Verdict, VerdictBasis
from avekit.core import AveProblem, SignDiagonal
from avekit.linalg import LuFactorization, PowerIterationResult, TridiagonalMatrix
from avekit.mclass import ConditionReport, Tolerances
from avekit.oracle import SingularBranch, SolutionCount, SolutionCountKind, SolutionSet
from avekit.solver import SolveReport, SolverConfig, SolveStatus

EMPTY = inspect.Parameter.empty

REPORT = ConditionReport(True, True, False, None, 0.5, 0.5, ())

# Every record, with one value for each field in declaration order and the
# default of each field that has one.
RECORDS = {
    "SignDiagonal": (SignDiagonal, {"diag": [1, 0, -1]}, {}),
    "AveProblem": (AveProblem, {"a": [[2.0, 0.0], [0.0, 3.0]], "b": [1.0, 1.0]}, {}),
    "LuFactorization": (
        LuFactorization,
        {"packed": np.eye(2), "perm": np.arange(2), "singular": False, "rank_tol": 1e-10},
        {},
    ),
    "TridiagonalMatrix": (TridiagonalMatrix, {"sub": [-1.0], "main": [4.0, 4.0], "sup": [-1.0]}, {}),
    "PowerIterationResult": (PowerIterationResult, {"value": 2.0, "converged": True, "iterations": 3}, {}),
    "SolverConfig": (
        SolverConfig,
        {"tol": 1e-8, "max_iter": 5, "x0": [1.0, -1.0], "notes": ("a",)},
        {"tol": 1e-7, "max_iter": None, "x0": None, "notes": ()},
    ),
    "SolveReport": (
        SolveReport,
        {
            "status": SolveStatus.CONVERGED,
            "iterations": 1,
            "x": np.ones(2),
            "residual_history": (1.0, 0.0),
            "sign_history": (SignDiagonal([1, 1]), SignDiagonal([1, 1])),
            "monotone_from_k1": True,
            "notes": ("b",),
        },
        {"notes": ()},
    ),
    "Tolerances": (Tolerances, {"zero_tol": 1e-13, "rank_tol": 1e-9}, {"zero_tol": 1e-12, "rank_tol": 1e-10}),
    "ConditionReport": (
        ConditionReport,
        {
            "is_z": True,
            "satisfies_3a": True,
            "satisfies_3b": False,
            "v": None,
            "norm_a_inv": 0.5,
            "rho_abs_a_inv": 0.5,
            "notes": (),
        },
        {},
    ),
    "SolvabilityVerdict": (
        SolvabilityVerdict,
        {
            "verdict": Verdict.UNIQUE_SOLUTION,
            "basis": VerdictBasis.CONDITION_3A,
            "v_dot_b": None,
            "witness": None,
            "report": REPORT,
        },
        {},
    ),
    "SingularBranch": (SingularBranch, {"pattern": (1, -1), "consistent": False}, {}),
    "SolutionSet": (
        SolutionSet,
        {"isolated": (np.zeros(1),), "singular_branches": (SingularBranch((1,), True),), "exhaustive_bound": 20},
        {},
    ),
    "SolutionCount": (SolutionCount, {"kind": SolutionCountKind.ONE, "count": 1}, {"count": None}),
}

params = pytest.mark.parametrize("name", sorted(RECORDS))


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x is y or x == y


@params
def test_construction_by_position_and_keyword_agree(name):
    cls, values, _ = RECORDS[name]
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert repr(by_position) == repr(by_keyword)
    for field in values:
        assert _same(getattr(by_position, field), getattr(by_keyword, field)), field
        assert _same(getattr(by_keyword, field), values[field]), field


@params
def test_omitted_fields_take_their_defaults(name):
    cls, values, defaults = RECORDS[name]
    record = cls(**{field: v for field, v in values.items() if field not in defaults})
    for field, default in defaults.items():
        assert _same(getattr(record, field), default), field


@params
def test_signature_names_the_fields_and_defaults(name):
    cls, values, defaults = RECORDS[name]
    parameters = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in parameters.values()] == [
        (field, defaults.get(field, EMPTY)) for field in values
    ]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters.values())
    assert cls.__match_args__ == tuple(values)


@params
def test_wrong_arguments_raise_type_error(name):
    cls, values, defaults = RECORDS[name]
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*values.values(), **{next(iter(values)): None})
    if len(defaults) < len(values):
        with pytest.raises(TypeError):
            cls()


@params
def test_records_are_frozen(name):
    cls, values, _ = RECORDS[name]
    record = cls(**values)
    field = next(iter(values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, "no_such_field", None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    assert _same(getattr(record, field), values[field])
    assert not hasattr(record, "no_such_field")


@pytest.mark.parametrize(
    "build",
    [
        lambda: SolverConfig(tol=0),
        lambda: SolverConfig(max_iter=0),
        lambda: Tolerances(zero_tol=-1),
        lambda: SignDiagonal([1, 2]),
        lambda: SignDiagonal([]),
        lambda: TridiagonalMatrix([1.0, 1.0], [2.0, 2.0], [1.0]),
        lambda: AveProblem(np.eye(2), np.ones(3)),
    ],
    ids=["tol", "max_iter", "zero_tol", "sign-entry", "sign-empty", "ragged-tridiagonal", "shape"],
)
def test_post_init_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "record, text",
    [
        (SolutionCount(SolutionCountKind.ONE, 1), "SolutionCount(kind=<SolutionCountKind.ONE: 'One'>, count=1)"),
        (
            SolutionCount(SolutionCountKind.CONTINUUM_SUSPECTED),
            "SolutionCount(kind=<SolutionCountKind.CONTINUUM_SUSPECTED: 'ContinuumSuspected'>, count=None)",
        ),
        (SingularBranch((1, -1, 1), True), "SingularBranch(pattern=(1, -1, 1), consistent=True)"),
        (Tolerances(), "Tolerances(zero_tol=1e-12, rank_tol=1e-10)"),
        (SolverConfig(), "SolverConfig(tol=1e-07, max_iter=None, x0=None, notes=())"),
        (PowerIterationResult(2.0, True, 0), "PowerIterationResult(value=2.0, converged=True, iterations=0)"),
        (SignDiagonal([1, 0, -1]), "SignDiagonal([1, 0, -1])"),
    ],
    ids=[
        "SolutionCount",
        "SolutionCount-default",
        "SingularBranch",
        "Tolerances",
        "SolverConfig",
        "PowerIterationResult",
        "SignDiagonal",
    ],
)
def test_repr_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: SolutionCount(SolutionCountKind.ONE, 1), SolutionCount(SolutionCountKind.ONE, 2)),
        (lambda: SingularBranch((1, -1), True), SingularBranch((1, -1), False)),
        (lambda: Tolerances(), Tolerances(rank_tol=1e-9)),
    ],
    ids=["SolutionCount", "SingularBranch", "Tolerances"],
)
def test_value_equality_and_hash(make, other):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != other
    assert len({first, second, other}) == 2
    # a tuple of the same fields is a different value
    assert first != tuple(getattr(first, f) for f in type(first).__match_args__)


def test_ave_problem_compares_by_identity():
    p = AveProblem(np.eye(2) * 3.0, np.ones(2))
    q = AveProblem(np.eye(2) * 3.0, np.ones(2))
    assert p == p and p != q
    assert len({p, q}) == 2


def test_sign_diagonal_keeps_its_own_equality():
    d = SignDiagonal([1, 0, -1])
    assert d == SignDiagonal(np.array([1.0, 0.0, -1.0]))
    assert d != SignDiagonal([1, 0, 1])
    assert d.__eq__((1, 0, -1)) is NotImplemented


@params
def test_bulk_built_records_equal_constructor_built_ones(name):
    # _record.build skips __init__ only for a record without __post_init__;
    # either way it must give what the constructor gives
    cls, values, _ = RECORDS[name]
    rows = [tuple(values.values()), tuple(values.values())]
    built, made = _record.build(cls, rows), [cls(*row) for row in rows]
    assert [type(r) for r in built] == [cls, cls]
    assert repr(built) == repr(made)
    for record, reference in zip(built, made):
        for field in values:
            assert _same(getattr(record, field), getattr(reference, field)), field
    with pytest.raises(dataclasses.FrozenInstanceError):
        built[0].__setattr__(next(iter(values)), None)
    if cls.__eq__ is object.__eq__:  # identity equality (eq=False)
        return
    try:
        hash(made[0])
    except TypeError:  # a field holds an array, so == and hash do not apply
        return
    assert built == made
    assert [hash(r) for r in built] == [hash(r) for r in made]


def test_bulk_built_branches_equal_constructor_built_ones():
    rows = [((1, -1, 1), True), ((-1, -1, 1), False), ((1, 1, 1), False)]
    built = _record.build(SingularBranch, rows)
    made = [SingularBranch(*row) for row in rows]
    assert built == made and repr(built) == repr(made)
    assert [hash(r) for r in built] == [hash(r) for r in made]
    assert len(set(built) | set(made)) == 3
    assert built[0] != built[1] and built[0].__dict__ == made[0].__dict__
    assert _record.build(SingularBranch, []) == []
