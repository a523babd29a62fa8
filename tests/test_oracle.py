"""Brute-force enumeration against hand enumerations and the solver."""

import itertools
import tracemalloc

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


def test_finitely_many_isolated_solutions():
    # A = 0.5 I decouples into two copies of the scalar case above: each
    # x_i is 2 or -2/3, so there are four isolated solutions
    p = AveProblem(0.5 * np.eye(2), np.array([-1.0, -1.0]))
    count = count_solutions(p)
    assert count.kind is SolutionCountKind.FINITELY_MANY and count.count == 4
    got = sorted(tuple(x) for x in enumerate_solutions(p).isolated)
    assert_allclose(got, [[-2.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 2.0], [2.0, -2.0 / 3.0], [2.0, 2.0]], atol=1e-12)


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


def _linprog_consistent(x0, kernel, s, tol):
    from scipy.optimize import linprog

    res = linprog(
        c=np.zeros(kernel.shape[1]),
        A_ub=-(s[:, None] * kernel),
        b_ub=s * x0 + tol,
        bounds=(None, None),
        method="highs",
    )
    return res.status == 0


@pytest.mark.parametrize("tol", [0.0, 0.25])
def test_one_dimensional_kernel_interval_matches_linprog(tol):
    # Small integers keep every bound exact: rows are tight at t_star
    # where s_i (x0_i + k_i t_star) = -tol, a k_i = 0 row sits on the
    # boundary when s_i x0_i = -tol, and an empty interval misses by at
    # least 1/8, far outside linprog's feasibility tolerance
    rng = np.random.default_rng(17)
    seen = {True: 0, False: 0}
    tight = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        k = rng.integers(-2, 3, n).astype(float)
        s = rng.choice([-1.0, 1.0], n)
        t_star = float(rng.integers(-3, 4))
        margin = rng.integers(-1, 3, n) - tol
        x0 = s * margin - k * t_star
        kernel = k[:, None]
        if not k.any():
            continue
        got = _sign_consistent_affine(x0, kernel, s, tol)
        assert got == _linprog_consistent(x0, kernel, s, tol), (x0, k, s)
        seen[got] += 1
        tight += int(np.any(margin == -tol))
    assert min(seen.values()) > 50 and tight > 100


def test_one_dimensional_kernel_ignores_rounding_noise():
    # the SVD leaves ~1e-17 where the kernel entry is zero; as a half-line
    # it would be met only at t ~ 1e16, and linprog drops it as well
    x0 = np.array([-0.5, -0.5, 0.5])
    kernel = np.array([[-0.7071067811865477], [0.7071067811865477], [-6.8e-17]])
    s = np.array([-1.0, 1.0, -1.0])
    assert not _sign_consistent_affine(x0, kernel, s, 1e-10)
    assert not _linprog_consistent(x0, kernel, s, 1e-10)
    # counted as zero, that row holds on its boundary s_i x0_i = -tol
    x0[2] = 1e-10
    assert _sign_consistent_affine(x0, kernel, s, 1e-10)


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
    for p in (gen_random_3a(n, 9), gen_random_3b(n, 3)):
        tracemalloc.start()
        try:
            sols = enumerate_solutions(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sols.isolated) == 1
        assert peak <= 8 * oracle.CHUNK_BYTES
        assert peak * 50 < 2**n * n * n * 8


@pytest.mark.parametrize(
    "p", _parity_cases() + [pytest.param(_singular_heavy(12, 5), id="singular-heavy-12")]
)
def test_budget_changes_nothing_the_oracle_returns(monkeypatch, p):
    # batch and chunk boundaries move with the budget; the flags, their
    # order and the isolated solutions must not move, not even in a bit
    default = enumerate_solutions(p)
    monkeypatch.setattr(oracle, "CHUNK_BYTES", oracle.CHUNK_BYTES // 16)
    small = enumerate_solutions(p)
    assert [(br.pattern, br.consistent) for br in small.singular_branches] == [
        (br.pattern, br.consistent) for br in default.singular_branches
    ]
    assert len(small.isolated) == len(default.isolated)
    for x, y in zip(small.isolated, default.isolated):
        assert x.tobytes() == y.tobytes()


# ------------------------------------------ QR settlement of singular branches


def _svd_probe(a, b, s, deficient, range_tol):
    """The stacked-SVD body of ``_probe_singular`` that decides every
    singular branch, kept as the reference for the QR step."""
    m = a - s[:, :, None] * np.eye(len(a))
    u, sv, vt = np.linalg.svd(m)
    keep = sv > np.finfo(float).eps * m.shape[1] * sv[:, :1]
    coef = np.where(keep, np.einsum("kji,j->ki", u, b) / np.where(keep, sv, 1.0), 0.0)
    x0 = np.einsum("kji,kj->ki", vt, coef)
    ls_residual = np.linalg.norm(np.einsum("kij,kj->ki", m, x0) - b, axis=1)
    consistent = np.zeros(len(s), dtype=bool)
    for k in np.flatnonzero(ls_residual <= range_tol):
        kernel = vt[k][sv[k] <= DEFAULT_RANK_TOL * sv[k, 0]].T
        consistent[k] = oracle._sign_consistent_affine(x0[k], kernel, s[k], oracle.DEFAULT_DEDUP_TOL)
    return [oracle.SingularBranch(tuple(map(int, row)), bool(c)) for row, c in zip(s, consistent)]


def _ten_chain(n, upper):
    # A = 2I - 10L (or 10U), L and U the unit sub- and superdiagonals:
    # pivoted LU flags patterns singular whose sigma_min is above the
    # SVD's cutoff
    a = 2.0 * np.eye(n) - 10.0 * np.eye(n, k=1 if upper else -1)
    x = np.linspace(-1.0, 1.0, n)
    return AveProblem(a, a @ x - np.abs(x))


def _kernel_two():
    # two copies of a 3 x 3 block B with entries +-1: B + I has rank 2, so
    # the step matrix of s = -1 has a kernel of dimension 2, and b = A x + x
    # for an x < 0 makes that branch consistent
    block = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    a = np.kron(np.eye(2), block)
    x = -np.array([1.0, 2.0, 0.5, 3.0, 1.0, 2.0])
    return AveProblem(a, a @ x + x)


def _qr_reference_cases():
    cases = []
    for n in (8, 12):
        for seed in range(5):
            cases.append(pytest.param(_singular_heavy(n, seed), id=f"singular-heavy-{n}-{seed}"))
            cases.append(pytest.param(_laplacian_continuum(n, seed), id=f"continuum-{n}-{seed}"))
    p = gen_random_3b(12, 4)
    cases.append(pytest.param(p, id="rand3b-12"))
    cases.append(pytest.param(AveProblem(p.a, -p.b), id="rand3b-neg-12"))
    for n in range(10, 15):
        cases.append(pytest.param(_ten_chain(n, upper=False), id=f"chain-lower-{n}"))
        cases.append(pytest.param(_ten_chain(n, upper=True), id=f"chain-upper-{n}"))
    cases.append(pytest.param(_kernel_two(), id="kernel-two"))
    return cases


@pytest.mark.parametrize("p", _qr_reference_cases())
def test_qr_settlement_matches_the_stacked_svd(monkeypatch, p):
    got = enumerate_solutions(p)
    monkeypatch.setattr(oracle, "_probe_singular", _svd_probe)
    want = enumerate_solutions(p)
    assert [(br.pattern, br.consistent) for br in got.singular_branches] == [
        (br.pattern, br.consistent) for br in want.singular_branches
    ]
    assert [x.tobytes() for x in got.isolated] == [x.tobytes() for x in want.isolated]


def test_kernel_of_dimension_two_still_reaches_linprog(monkeypatch):
    dims = []

    def spy(x0, kernel, s, tol):
        dims.append(kernel.shape[1])
        return _sign_consistent_affine(x0, kernel, s, tol)

    monkeypatch.setattr(oracle, "_sign_consistent_affine", spy)
    branches = {br.pattern: br.consistent for br in enumerate_solutions(_kernel_two()).singular_branches}
    assert branches[(-1,) * 6] is True
    assert 2 in dims


def _svd_rows(monkeypatch, p):
    """The branches of p, and the step matrices that reach the SVD."""
    rows = []
    svd = np.linalg.svd

    def counting(m):
        rows.append(len(m))
        return svd(m)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return enumerate_solutions(p).singular_branches, sum(rows)


def test_only_undecided_branches_reach_the_svd(monkeypatch):
    branches, rows = _svd_rows(monkeypatch, _singular_heavy(12, 5))
    assert len(branches) == 4095 and rows == 0
    branches, rows = _svd_rows(monkeypatch, _laplacian_continuum(12, 3))
    assert [br.consistent for br in branches] == [True] and rows == 1
    branches, rows = _svd_rows(monkeypatch, _ten_chain(12, upper=False))
    assert len(branches) == 794 and rows == 794
    # b = 1 is off the range of each block's B + I; the patterns with
    # s = -1 in one block have one tiny diagonal in R, the pattern s = -1
    # has two and goes to the SVD
    branches, rows = _svd_rows(monkeypatch, AveProblem(_kernel_two().a, np.ones(6)))
    assert len(branches) == 15 and not any(br.consistent for br in branches) and rows == 1


def test_null_vector_that_overflows_leaves_the_branch_to_the_svd():
    # R of m^T is m^T itself: one zero diagonal, last, above it diagonals
    # of 1e-13 (not tiny) under a row of ones, so back substitution grows
    # y past 1e154 and |y|^2 overflows; the row is not settled, without a
    # warning, and the SVD decides it
    n = 20
    mt = np.triu(np.ones((n, n)), 1) + np.diag(np.r_[1.0, np.full(n - 2, 1e-13), 0.0])
    s = np.ones((1, n))
    a, b = mt.T + np.eye(n), np.ones(n)
    range_tol = 1e-8 * np.linalg.norm(b)
    assert oracle._off_range(a, s, b, range_tol).tolist() == [False]
    got = oracle._probe_singular(a, b, s, np.ones(1, dtype=bool), range_tol)
    assert got == _svd_probe(a, b, s, None, range_tol)
