"""Brute-force enumeration against hand enumerations and the solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit.core import AveProblem, residual
from avekit.errors import DimensionTooLarge
from avekit.mclass import diagnostics
from avekit.oracle import (
    SolutionCountKind,
    count_solutions,
    enumerate_solutions,
)
from avekit.problems import gen_example_k, gen_random_3a, gen_random_3b
from avekit.solver import SolverConfig, gnm_solve, guard_d0


def test_reference_2x2_enumeration():
    sols = enumerate_solutions(gen_example_k(4))
    assert len(sols.isolated) == 1
    assert_allclose(sols.isolated[0], [-4.0, -6.0], atol=1e-12)
    assert len(sols.singular_branches) == 1
    br = sols.singular_branches[0]
    assert br.pattern == (1, 1)
    assert not br.consistent


def test_scalar_two_solutions():
    # 0.5 x - |x| = -1 by hand: x >= 0 branch gives -0.5 x = -1 -> x = 2;
    # x < 0 branch gives 1.5 x = -1 -> x = -2/3; both sign-consistent
    p = AveProblem(np.array([[0.5]]), np.array([-1.0]))
    sols = enumerate_solutions(p)
    got = sorted(float(x[0]) for x in sols.isolated)
    assert_allclose(got, [-2.0 / 3.0, 2.0], atol=1e-12)


def test_scalar_one_solution():
    # 2 x - |x| = 1: the negative branch gives x = 1/3 > 0, inconsistent
    p = AveProblem(np.array([[2.0]]), np.array([1.0]))
    sols = enumerate_solutions(p)
    assert len(sols.isolated) == 1
    assert_allclose(sols.isolated[0], [1.0])


def test_zero_solution_found_once():
    # x = 0 solves 2x - |x| = 0 and is consistent with both sign patterns;
    # deduplication must keep a single copy
    p = AveProblem(np.array([[2.0]]), np.array([0.0]))
    sols = enumerate_solutions(p)
    assert len(sols.isolated) == 1
    assert_allclose(sols.isolated[0], [0.0])


def test_count_branches_of_the_symmetric_family():
    a = gen_example_k(4).a
    assert count_solutions(AveProblem(a, np.array([1.0, 1.0]))).kind is SolutionCountKind.ZERO
    assert (
        count_solutions(AveProblem(a, np.array([1.0, -1.0]))).kind
        is SolutionCountKind.CONTINUUM_SUSPECTED
    )
    assert count_solutions(gen_example_k(5)).kind is SolutionCountKind.ONE


def test_continuum_branch_details():
    # b = (1,-1) lies in the range of A - I and the (+,+) branch carries
    # the solution family
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    sols = enumerate_solutions(p)
    branch = {br.pattern: br.consistent for br in sols.singular_branches}
    assert branch[(1, 1)] is True


def test_identity_matrix_degenerate_cases():
    # x - |x| = 0 holds for every x >= 0: a two-dimensional continuum
    p = AveProblem(np.eye(2), np.zeros(2))
    assert count_solutions(p).kind is SolutionCountKind.CONTINUUM_SUSPECTED
    # x - |x| = (1,1) is impossible since x - |x| <= 0
    p = AveProblem(np.eye(2), np.array([1.0, 1.0]))
    assert count_solutions(p).kind is SolutionCountKind.ZERO


def test_dimension_guard():
    n = 21
    p = AveProblem(np.eye(n) * 3.0, np.ones(n))
    with pytest.raises(DimensionTooLarge):
        enumerate_solutions(p)
    with pytest.raises(DimensionTooLarge):
        count_solutions(p)


def test_isolated_solutions_are_sound():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(1, 5))
        p = AveProblem(rng.normal(size=(n, n)) * 2.0, rng.normal(size=n) * 3.0)
        sols = enumerate_solutions(p)
        for x in sols.isolated:
            assert residual(p, x)[1] <= 1e-8
            checked += 1
    assert checked > 10


def test_no_two_isolated_solutions_coincide():
    rng = np.random.default_rng(56)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = AveProblem(rng.normal(size=(n, n)) * 2.0, rng.normal(size=n) * 3.0)
        sols = enumerate_solutions(p)
        for i, x in enumerate(sols.isolated):
            for y in sols.isolated[i + 1 :]:
                assert np.abs(x - y).max() > 1e-10


def test_certified_instances_have_unique_solution_matching_solver():
    for seed in range(1, 11):
        n = 2 + (seed - 1) % 5
        for family, p in (
            ("3a", gen_random_3a(n, seed)),
            ("3b", gen_random_3b(n, seed)),
        ):
            cfg = SolverConfig()
            if family == "3b":
                cfg = guard_d0(p, cfg, diagnostics(p.dense_a()))
            rep = gnm_solve(p, cfg)
            sols = enumerate_solutions(p)
            assert len(sols.isolated) == 1, (family, seed)
            assert np.abs(sols.isolated[0] - rep.x).max() <= 1e-8


def test_unsolvable_3b_with_positive_v_dot_b():
    for seed in (1, 2, 3):
        p = gen_random_3b(3, seed)
        rep = diagnostics(p.dense_a())
        flipped = AveProblem(p.a, -p.b)  # v.b becomes positive
        assert float(rep.v @ flipped.b) > 0
        assert count_solutions(flipped).kind is SolutionCountKind.ZERO


def test_exhaustive_bound_recorded():
    sols = enumerate_solutions(gen_example_k(2))
    assert sols.exhaustive_bound == 20


def test_import_leaves_scipy_optimize_unloaded():
    # only consistent singular branches need linprog, so `import avekit`
    # must not pay for scipy.optimize
    import avekit

    src = str(Path(avekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, avekit; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_count_is_derived_from_the_solution_set():
    for k in (2, 3, 4, 5):
        p = gen_example_k(k)
        assert enumerate_solutions(p).count() == count_solutions(p)
