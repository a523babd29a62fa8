"""Brute-force enumeration against hand enumerations and the solver."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit import oracle
from avekit.core import AveProblem, residual
from avekit.errors import DimensionTooLarge
from avekit.linalg import DEFAULT_RANK_TOL, lu_factor
from avekit.linalg import solve as lu_solve
from avekit.mclass import diagnostics
from avekit.oracle import (
    SolutionCountKind,
    _sign_consistent_affine,
    count_solutions,
    enumerate_solutions,
)
from avekit.problems import gen_example1, gen_example_k, gen_random_3a, gen_random_3b
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


@pytest.mark.parametrize("verify_tol", [-1.0, np.nan, np.inf])
def test_verify_tol_must_be_finite_and_nonnegative(verify_tol):
    with pytest.raises(ValueError, match="verify_tol"):
        enumerate_solutions(gen_example_k(4), verify_tol)


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
                cfg = guard_d0(p, cfg, diagnostics(p.dense_a()).v)
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


# ------------------------------------------- batched enumeration parity


def _reference_enumeration(p, verify_tol=1e-8, dedup_tol=1e-10):
    """The one-pattern-at-a-time loop the batched enumeration replaced."""
    a, b = p.dense_a(), p.b
    bnorm = float(np.linalg.norm(b))
    isolated, branches = [], []
    for pattern in itertools.product((-1, 1), repeat=p.n):
        s = np.array(pattern, dtype=float)
        m = a - np.diag(s)
        f = lu_factor(m, DEFAULT_RANK_TOL)
        if f.singular:
            x0, _, _, sv = np.linalg.lstsq(m, b, rcond=None)
            consistent = False
            if np.linalg.norm(m @ x0 - b) <= verify_tol * bnorm:
                _, sv2, vt = np.linalg.svd(m)
                kernel = vt[sv2 <= DEFAULT_RANK_TOL * sv[0]].T
                consistent = _sign_consistent_affine(x0, kernel, s, dedup_tol)
            branches.append((pattern, consistent))
            continue
        x = lu_solve(f, b)
        if np.any(s * x < -dedup_tol) or residual(p, x)[1] > verify_tol:
            continue
        if not any(np.max(np.abs(x - y)) <= dedup_tol for y in isolated):
            isolated.append(x)
    return isolated, branches


def _laplacian_continuum(n, seed):
    # A = I + L for a weighted path graph plus chords; b orthogonal to ones
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 1.1, n - 1)
    for _ in range(n):
        i, j = rng.choice(n, 2, replace=False)
        w[i, j] = rng.uniform(0.1, 1.1)
    w = w + w.T
    b = rng.uniform(-10.0, 10.0, n)
    return AveProblem(np.eye(n) + np.diag(w.sum(axis=1)) - w, b - b.mean())


def _singular_heavy(n, seed):
    # A = I + U, U strictly upper triangular: every pattern but s = -1 is
    # singular, and x* < 0 is the only solution
    rng = np.random.default_rng(seed)
    a = np.eye(n) + np.triu(-rng.uniform(0.1, 1.1, (n, n)), 1)
    xstar = -rng.uniform(0.5, 2.0, n)
    return AveProblem(a, a @ xstar + xstar)


def _parity_cases():
    cases = []
    for n in range(2, 13):
        cases.append(pytest.param(gen_random_3a(n, 100 + n), id=f"rand3a-{n}"))
        p = gen_random_3b(n, 200 + n)
        cases.append(pytest.param(p, id=f"rand3b-{n}"))
        if n <= 8:
            cases.append(pytest.param(AveProblem(p.a, -p.b), id=f"rand3b-neg-{n}"))
    for k in (2, 3, 4, 5):
        cases.append(pytest.param(gen_example_k(k), id=f"ex{k}"))
    cases.append(pytest.param(gen_example1(12), id="ex1-12"))
    cases.append(pytest.param(_laplacian_continuum(10, 3), id="continuum-10"))
    cases.append(pytest.param(_singular_heavy(10, 4), id="singular-heavy-10"))
    # A - I = diag(1, 1e-12) is flagged singular, yet b is in its range at
    # the least-squares cutoff, so the branch is consistent
    cases.append(
        pytest.param(AveProblem(np.diag([2.0, 1.0 + 1e-12]), np.ones(2)), id="near-singular-2")
    )
    return cases


def _assert_same_solution_set(got, p):
    isolated, branches = _reference_enumeration(p)
    assert [(br.pattern, br.consistent) for br in got.singular_branches] == branches
    assert len(got.isolated) == len(isolated)
    for x, y in zip(got.isolated, isolated):
        assert np.max(np.abs(x - y)) <= 1e-12


@pytest.mark.parametrize("p", _parity_cases())
def test_batched_enumeration_matches_the_pattern_loop(p):
    _assert_same_solution_set(enumerate_solutions(p), p)


@pytest.mark.parametrize("per_chunk", [1, 7, 64])
def test_chunk_joins_keep_order_and_dedup(monkeypatch, per_chunk):
    # chunk sizes that do and do not divide 2^n; x = 0 solves the last
    # problem under every pattern, so dedup spans every join
    n = 6
    monkeypatch.setattr(oracle, "CHUNK_BYTES", per_chunk * 8 * n * n)
    problems = [
        gen_random_3b(n, 5),
        _laplacian_continuum(n, 6),
        _singular_heavy(n, 7),
        AveProblem(gen_random_3a(n, 8).a * 3.0, np.zeros(n)),
    ]
    for p in problems:
        _assert_same_solution_set(enumerate_solutions(p), p)


def test_enumeration_memory_is_bounded_by_the_chunk():
    # the full stack of step matrices at n = 16 is 2^16 * 16^2 doubles
    # (134 MB); the enumeration must hold only a few chunks of it
    n = 16
    p = gen_random_3a(n, 9)
    tracemalloc.start()
    try:
        sols = enumerate_solutions(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sols.isolated) == 1
    assert peak <= 8 * oracle.CHUNK_BYTES
    assert peak * 50 < 2**n * n * n * 8
