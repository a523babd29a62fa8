"""Generalized Newton iteration: reference traces, stopping rules, and the
finite-termination properties under the certificates."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit.cli import EXIT_CAP, EXIT_SINGULAR, main
from avekit.core import AveProblem, residual, sign_diagonal
from avekit.linalg import TridiagonalMatrix
from avekit.mclass import diagnostics, is_m_matrix
from avekit.problems import gen_example1, gen_example_k, gen_random_3a, gen_random_3b, save
from avekit.solver import SolverConfig, SolveStatus, gnm_solve, guard_d0
from gnm_map import run_lengths


def test_reference_2x2_traces():
    rep = gnm_solve(gen_example_k(2), SolverConfig(x0=np.array([1.0, 1.0])))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 1
    assert_allclose(rep.x, [88.0, 32.0], atol=1e-12)

    rep = gnm_solve(gen_example_k(5), SolverConfig(x0=np.array([1.0, -1.0])))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 2
    assert_allclose(rep.x, [-2.0, -3.0], atol=1e-12)
    first = gnm_solve(gen_example_k(5), SolverConfig(max_iter=1, x0=np.array([1.0, -1.0])))
    assert first.iterations == 1
    assert_allclose(first.x, [-6.0, -7.0], atol=1e-12)


def test_scalar_already_solved_at_start():
    p = AveProblem(np.array([[2.0]]), np.array([1.0]))
    rep = gnm_solve(p, SolverConfig(x0=np.array([1.0])))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 0
    assert rep.residual == 0.0
    assert_allclose(rep.x, [1.0])


def test_histories_include_start_point():
    p = gen_example_k(3)
    rep = gnm_solve(p)
    assert len(rep.residual_history) == rep.iterations + 1
    assert len(rep.sign_history) == rep.iterations + 1
    assert rep.sign_history[0] == sign_diagonal(np.ones(2))
    assert rep.residual_history[0] == residual(p, np.ones(2))[1]
    assert rep.sign_history[-1] == sign_diagonal(rep.x)


def test_singular_step_is_reported_not_raised():
    # A = [1], x0 = 1 makes the first step matrix A - I = [0]
    p = AveProblem(np.array([[1.0]]), np.array([1.0]))
    rep = gnm_solve(p, SolverConfig(x0=np.array([1.0])))
    assert rep.status is SolveStatus.SINGULAR_STEP
    assert rep.iterations == 0


def _upper_chain(n, tridiagonal):
    # A = 2I - 10U with U the unit superdiagonal holds (3a), and ||A^-1||
    # grows like 5^n, so the iterates grow with n; x* = linspace(-1, 1, n)
    t = TridiagonalMatrix(np.zeros(n - 1), np.full(n, 2.0), np.full(n - 1, -10.0))
    x = np.linspace(-1.0, 1.0, n)
    return AveProblem(t if tridiagonal else t.to_dense(), t.matvec(x) - np.abs(x))


@pytest.mark.parametrize("tridiagonal", [False, True])
@pytest.mark.parametrize("n", [200, 300])
def test_residual_of_a_huge_iterate_is_finite(n, tridiagonal):
    # the residuals' sums of squares overflow, which warns without the
    # rescaled norm; warnings are errors in this suite
    rep = gnm_solve(_upper_chain(n, tridiagonal))
    assert rep.status is SolveStatus.SIGN_STABILIZED
    assert np.isfinite(rep.residual_history).all()


@pytest.mark.parametrize("tridiagonal", [False, True])
def test_overflowing_step_is_a_singular_step(tmp_path, capsys, tridiagonal):
    # at n = 400 the first step's solution overflows to inf
    p = _upper_chain(400, tridiagonal)
    rep = gnm_solve(p)
    assert rep.status is SolveStatus.SINGULAR_STEP
    assert rep.iterations == 0
    path = tmp_path / "chain.ave"
    save(path, p)
    assert main(["solve", str(path)]) == EXIT_SINGULAR
    assert "status=SingularStep" in capsys.readouterr().out
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: UniqueSolution (basis: Condition3a)\n" in out
    assert "solution:" not in out


def test_iteration_cap_on_unsolvable_cycling_problem():
    # 0.1 x - |x| = 1 has no solution; the iteration alternates forever
    p = AveProblem(np.array([[0.1]]), np.array([1.0]))
    rep = gnm_solve(p, SolverConfig(x0=np.array([1.0])))
    assert rep.status is SolveStatus.ITERATION_CAP
    assert rep.iterations == 2 * p.n + 2
    assert rep.residual > 1e-7


def test_repeated_sign_pattern_stops_the_run():
    # tol = 1e-16 is below the rounding floor of the residual, so only the
    # sign rule can end the run; the pattern repeats within a few steps
    n = 800
    rep = gnm_solve(gen_example1(n), SolverConfig(tol=1e-16))
    assert rep.status is SolveStatus.SIGN_STABILIZED
    assert rep.iterations <= 4
    assert rep.sign_history[-1] == rep.sign_history[-2]
    xstar = np.exp(6.0 * np.arange(n) / (n - 1) - 5.0) - 1.0
    assert np.abs(rep.x - xstar).max() <= 1e-9


# ex1 sizes whose default-tol run takes 3 steps; every other size in
# 2..200 and the Table 1 sizes take 2, and all end Converged.  Recorded
# with the gtsv-order pivoting loop on every step, before cyclic reduction
# took the dominant steps.
_EX1_THREE_STEPS = {
    8, 14, 20, 26, 32, 38, 44, 50, 56, 62, 68, 74, 80, 86, 92, 98, 104, 110, 116, 117, 122,
    123, 128, 129, 134, 135, 140, 141, 146, 147, 152, 153, 158, 159, 164, 165, 170, 171,
    176, 177, 182, 183, 188, 189, 194, 195, 200, 2000, 8000,
}


def test_ex1_status_and_iterations_are_pinned():
    for n in [*range(2, 201), 2000, 4000, 6000, 8000, 10_000]:
        rep = gnm_solve(gen_example1(n))
        want = (SolveStatus.CONVERGED, 3 if n in _EX1_THREE_STEPS else 2)
        assert (rep.status, rep.iterations) == want, n


def test_max_iter_override():
    p = AveProblem(np.array([[0.1]]), np.array([1.0]))
    rep = gnm_solve(p, SolverConfig(max_iter=1, x0=np.array([1.0])))
    assert rep.status is SolveStatus.ITERATION_CAP
    assert rep.iterations == 1


def test_config_validation():
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        gnm_solve(gen_example_k(2), SolverConfig(x0=np.ones(3)))


def test_tridiagonal_fast_path_matches_dense():
    p = gen_example1(100)
    rep_fast = gnm_solve(p)
    assert rep_fast.status is SolveStatus.CONVERGED
    assert rep_fast.iterations <= 4
    assert rep_fast.residual <= 1e-12
    p_dense = AveProblem(p.a.to_dense(), p.b)
    rep_dense = gnm_solve(p_dense)
    assert rep_dense.iterations == rep_fast.iterations
    assert np.abs(rep_dense.x - rep_fast.x).max() <= 1e-10

    # both storages decide a singular step by the same pivot rule
    cases = [
        # A - D(x0) = [[0, 1], [1, 0]] needs a row interchange
        (TridiagonalMatrix([1.0], [1.0, 1.0], [1.0]), [3.0, 5.0], SolveStatus.CONVERGED, 1, [5.0, 3.0]),
        # A - D(x0) has a pivot of 1e-13, below rank_tol * max|a|; x stays x0
        (
            TridiagonalMatrix([-1.0], [2.0, 2.0 + 1e-13], [-1.0]),
            [1.0, 1.0],
            SolveStatus.SINGULAR_STEP,
            0,
            [1.0, 1.0],
        ),
    ]
    for t, b, status, iterations, x in cases:
        for a in (t, t.to_dense()):
            rep = gnm_solve(AveProblem(a, np.array(b)))
            assert (rep.status, rep.iterations) == (status, iterations)
            assert_allclose(rep.x, x, atol=1e-12)


# ------------------------------------------------------------- guard_d0


def test_guard_flips_all_positive_start():
    p = gen_example_k(4)
    rep = diagnostics(p.dense_a())
    cfg = guard_d0(p, SolverConfig(x0=np.array([1.0, 1.0])), rep.v)
    assert_allclose(cfg.x0, [-1.0, 1.0])
    assert any("negated" in n for n in cfg.notes)


def test_guard_keeps_mixed_start():
    p = gen_example_k(4)
    rep = diagnostics(p.dense_a())
    cfg = guard_d0(p, SolverConfig(x0=np.array([1.0, -1.0])), rep.v)
    assert_allclose(cfg.x0, [1.0, -1.0])
    assert not any("negated" in n for n in cfg.notes)


def test_guard_warns_on_nonnegative_v_dot_b():
    p = gen_example_k(4)
    rep = diagnostics(p.dense_a())
    # v.b = -20 < 0: no warning
    cfg = guard_d0(p, SolverConfig(), rep.v)
    assert not any("guarantee" in n for n in cfg.notes)
    # flip b so v.b = +20 > 0: warning attached
    p_pos = AveProblem(p.a, -p.b)
    cfg = guard_d0(p_pos, SolverConfig(), rep.v)
    assert any("guarantee" in n for n in cfg.notes)


def test_guard_requires_certificate():
    p = gen_example_k(2)
    rep = diagnostics(p.dense_a())
    with pytest.raises(ValueError):
        guard_d0(p, SolverConfig(), rep.v)


# ------------------------------------------- certified-instance properties


def _certified_sample():
    for seed in range(1, 21):
        n = 2 + (seed - 1) % 6
        yield "3a", gen_random_3a(n, seed), None
    for seed in range(1, 21):
        n = 2 + (seed - 1) % 6
        p = gen_random_3b(n, seed)
        yield "3b", p, diagnostics(p.dense_a())


def test_finite_termination_and_monotonicity():
    for family, p, rep3b in _certified_sample():
        cfg = SolverConfig()
        if rep3b is not None:
            assert rep3b.satisfies_3b
            cfg = guard_d0(p, cfg, rep3b.v)
        rep = gnm_solve(p, cfg)
        assert rep.status in (SolveStatus.CONVERGED, SolveStatus.SIGN_STABILIZED), family
        assert rep.iterations <= 2 * p.n + 2
        assert rep.monotone_from_k1
        # sign monotonicity D(x^{k+1}) >= D(x^k) for k >= 1
        for da, db in zip(rep.sign_history[1:-1], rep.sign_history[2:]):
            assert (db.diag >= da.diag).all()


def test_step_matrices_stay_m_matrices_under_3a():
    for seed in range(1, 11):
        p = gen_random_3a(2 + seed % 5, seed)
        a = p.dense_a()
        rep = gnm_solve(p)
        assert rep.status is SolveStatus.CONVERGED
        for d in rep.sign_history:
            assert is_m_matrix(a - np.diag(d.diag))


def test_3b_iterates_keep_a_negative_component():
    for seed in range(1, 11):
        p = gen_random_3b(2 + seed % 5, seed)
        rep3b = diagnostics(p.dense_a())
        assert float(rep3b.v @ p.b) < 0
        rep = gnm_solve(p, guard_d0(p, SolverConfig(), rep3b.v))
        # D(x^k) has a -1 exactly when x^k has a negative component
        for d in rep.sign_history[1:]:
            assert (d.diag == -1).any()


def test_converged_status_implies_residual_within_tol():
    for _, p, rep3b in _certified_sample():
        cfg = SolverConfig() if rep3b is None else guard_d0(p, SolverConfig(), rep3b.v)
        rep = gnm_solve(p, cfg)
        if rep.status in (SolveStatus.CONVERGED, SolveStatus.SIGN_STABILIZED):
            assert residual(p, rep.x)[1] <= cfg.tol


def test_solution_sign_diagonal_matches_final_iterate():
    rep = gnm_solve(gen_example_k(4), SolverConfig(x0=np.array([1.0, -1.0])))
    assert rep.sign_history[-1] == sign_diagonal(rep.x)


def test_trace_at_the_cap_holds_n_bytes_a_step():
    # 0.1 I x - |x| = 1 has no solution, so the run takes all 2n + 2 steps;
    # the trace keeps one int8 sign pattern and one float a step, not the
    # iterates
    n = 100
    p = AveProblem(0.1 * np.eye(n), np.ones(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = gnm_solve(p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    steps = 2 * n + 2
    assert rep.status is SolveStatus.ITERATION_CAP
    assert rep.iterations == steps
    assert all(d.diag.itemsize == 1 for d in rep.sign_history)
    # per step: n sign bytes plus a few hundred bytes of array, object and
    # float overhead; float iterate copies and int64 signs would add 15 n
    assert held <= (steps + 1) * (n + 600)


def test_text_solve_at_the_cap_keeps_the_trace_as_is(tmp_path, capsys):
    # text output prints none of the trace, so `avekit solve` must not list
    # it for JSON: a Python int per sign entry would add 8 (2n + 2) n bytes,
    # 0.36 MB here
    n = 150
    t = TridiagonalMatrix(np.zeros(n - 1), np.full(n, 0.1), np.zeros(n - 1))
    path = tmp_path / "cap.ave"
    save(path, AveProblem(t, np.ones(n)))
    tracemalloc.start()
    try:
        code = main(["solve", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = 2 * n + 2
    assert code == EXIT_CAP
    assert "status=IterationCapReached" in capsys.readouterr().out
    # the trace as above, plus the parser, the file and the solver's work
    # arrays (0.19 MB in all at this size)
    assert peak <= (steps + 1) * (n + 600) + 100_000


# Longest run over every start, on each family's instances below: the
# paper's bound is 2n + 2, and these runs stop far short of it.
WORST_RUN = {"rand3a": 4, "rand3b": 5, "ex1": 3, "chain": 7}


def _chain(n):
    # A = 2I - 10L with L the unit subdiagonal, a (3a) instance whose
    # longest run is n/2 + 2 at these sizes; x* = linspace(-1, 1, n)
    a = TridiagonalMatrix(np.full(n - 1, -10.0), np.full(n, 2.0), np.zeros(n - 1))
    x = np.linspace(-1.0, 1.0, n)
    return AveProblem(a, a.matvec(x) - np.abs(x))


def _bound_instances(family):
    if family == "ex1":
        # n = 1 (mod 6) puts a component of x* exactly at 0
        return [gen_example1(n) for n in range(4, 11) if n % 6 != 1]
    if family == "chain":
        # odd n puts a component of x* exactly at 0
        return [_chain(n) for n in range(4, 11, 2)]
    gen = gen_random_3a if family == "rand3a" else gen_random_3b
    return [gen(n, seed) for n in range(4, 11) for seed in range(10)]


@pytest.mark.parametrize("family", sorted(WORST_RUN))
def test_every_start_stops_within_2n_plus_2(family):
    # singular starts, D = I under (3b), are left out as guard_d0 leaves
    # them out; a tridiagonal instance runs its starts on both storages
    rng = np.random.default_rng(3)
    worst = 0
    for p in _bound_instances(family):
        steps, singular, xs = run_lengths(p.dense_a(), p.b)
        assert (xs != 0).all()
        longest = steps[~singular].max()
        assert longest <= 2 * p.n + 2
        if family == "chain":
            assert not singular.any()
            assert longest == p.n // 2 + 2
        worst = max(worst, longest)
        storages = [p, AveProblem(p.dense_a(), p.b)] if p.is_tridiagonal else [p]
        for start in rng.choice(np.flatnonzero(~singular), 5, replace=False):
            x0 = np.where((start >> np.arange(p.n - 1, -1, -1)) & 1, 1.0, -1.0)
            for q in storages:
                rep = gnm_solve(q, SolverConfig(x0=x0))
                assert rep.status is SolveStatus.CONVERGED
                assert rep.iterations == steps[start]
    assert worst == WORST_RUN[family]
