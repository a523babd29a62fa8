"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints a single "[acceptance] <criterion>: PASS/FAIL" line (run
pytest with -s to watch them stream).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from avekit.classify import Verdict, classify, solution_family
from avekit.cli import main as cli_main
from avekit.core import AveProblem, residual
from avekit.linalg import lu_factor, spectral_norm
from avekit.mclass import diagnostics, is_m_matrix, is_z_matrix
from avekit.oracle import SolutionCountKind, count_solutions, enumerate_solutions
from avekit.problems import (
    gen_example1,
    gen_example_k,
    gen_random_3a,
    gen_random_3b,
    load,
    save,
)
from avekit.solver import SolverConfig, SolveStatus, gnm_solve, guard_d0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


TERMINATED = (SolveStatus.CONVERGED, SolveStatus.SIGN_STABILIZED)


@pytest.fixture(scope="module")
def certified_runs():
    """The 400 certified random instances with their solver runs."""
    runs = []
    for family in ("3a", "3b"):
        for seed in range(1, 201):
            n = 2 + (seed - 1) % 9
            if family == "3a":
                p = gen_random_3a(n, seed)
                cfg = SolverConfig()
            else:
                p = gen_random_3b(n, seed)
                cfg = guard_d0(p, SolverConfig(), diagnostics(p.dense_a()).v)
            runs.append((family, n, seed, p, gnm_solve(p, cfg)))
    return runs


def test_criterion_1_reference_example_regression():
    with criterion("1 reference-example regression"):
        cases = {
            2: ((88.0, 32.0), 1, (1.0, 1.0)),
            3: ((-2.24, -1.2), 2, (1.0, 1.0)),
            4: ((-4.0, -6.0), 2, (1.0, -1.0)),
            5: ((-2.0, -3.0), 2, (1.0, -1.0)),
        }
        start = time.perf_counter()
        for k, (expected, expected_it, x0) in cases.items():
            rep = gnm_solve(gen_example_k(k), SolverConfig(x0=np.array(x0)))
            assert rep.status in TERMINATED, k
            assert rep.iterations == expected_it, k
            assert np.abs(rep.x - np.array(expected)).max() <= 1e-9, k
        assert time.perf_counter() - start < 1.0


def test_criterion_2_benchmark_table_reproduction(capsys):
    with criterion("2 tridiagonal benchmark table"):
        start = time.perf_counter()
        code = cli_main(["reproduce", "--table1", "--json"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = {r["n"]: r for r in doc["table1"]}
        assert set(rows) == {2000, 4000, 6000, 8000, 10000}
        for n, row in rows.items():
            assert row["iterations"] <= 4, n
            assert row["residual"] <= 1e-10, n
        assert elapsed < 30.0

        # dense path alone at n = 2000
        p = gen_example1(2000)
        start = time.perf_counter()
        rep = gnm_solve(AveProblem(p.a.to_dense(), p.b))
        elapsed = time.perf_counter() - start
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations <= 4
        assert rep.residual <= 1e-10
        assert elapsed < 60.0
    print(f"[acceptance]   (dense n=2000 path took {elapsed:.1f}s)")


def test_criterion_3_finite_termination_bound(certified_runs):
    with criterion("3 finite-termination bound on 400 certified instances"):
        assert len(certified_runs) == 400
        for family, n, seed, p, rep in certified_runs:
            assert rep.status in TERMINATED, (family, n, seed)
            assert rep.iterations <= 2 * n + 2, (family, n, seed)
            assert rep.monotone_from_k1, (family, n, seed)


def test_criterion_4_oracle_equivalence(certified_runs):
    with criterion("4 oracle equivalence on the same instances"):
        for family, n, seed, p, rep in certified_runs:
            assert n <= 10
            sols = enumerate_solutions(p)
            assert len(sols.isolated) == 1, (family, n, seed)
            assert np.abs(sols.isolated[0] - rep.x).max() <= 1e-8, (family, n, seed)


def test_criterion_5_degenerate_branches():
    with criterion("5 no-solution and continuum branches"):
        a = gen_example_k(4).a

        p_pos = AveProblem(a, np.array([1.0, 1.0]))
        verdict = classify(p_pos)
        assert verdict.verdict is Verdict.NO_SOLUTION
        assert count_solutions(p_pos).kind is SolutionCountKind.ZERO

        p_zero = AveProblem(a, np.array([1.0, -1.0]))
        verdict = classify(p_zero)
        assert verdict.verdict is Verdict.EXISTS_NOT_UNIQUE
        assert count_solutions(p_zero).kind is SolutionCountKind.CONTINUUM_SUSPECTED
        v = verdict.report.v
        alpha_max = float(np.min(verdict.witness / v))
        points = solution_family(p_zero, v, [alpha_max - s for s in (0.5, 1.0, 2.0)])
        assert len(points) == 3
        for x in points:
            assert residual(p_zero, x)[1] <= 1e-9


def test_criterion_6_diagnostic_norms():
    with criterion("6 inverse-norm diagnostics"):
        assert diagnostics(gen_example_k(2).dense_a()).norm_a_inv == pytest.approx(
            1.0, abs=1e-3
        )
        assert diagnostics(gen_example_k(4).dense_a()).norm_a_inv == pytest.approx(
            1.0, abs=1e-3
        )
        assert diagnostics(gen_example_k(3).dense_a()).norm_a_inv == pytest.approx(
            1.6095, abs=1e-3
        )
        # the first counterexample matrix equals the third example's A
        assert spectral_norm(
            np.linalg.inv(np.array([[1.5, -3.0], [0.0, 1.5]]))
        ).value == pytest.approx(1.6095, abs=1e-3)
        assert diagnostics(gen_example_k(5).dense_a()).norm_a_inv == pytest.approx(
            1.1708, abs=1e-3
        )


def test_criterion_7_matrix_theory_properties():
    with criterion("7 matrix-theory property batteries"):
        # upward closure: Z-matrix B >= M-matrix A is an M-matrix (100 pairs)
        rng = np.random.default_rng(700)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            a = gen_random_3a(n, trial + 1).dense_a() - np.eye(n)
            b = a.copy()
            off = ~np.eye(n, dtype=bool)
            b[off] = a[off] * rng.uniform(0.0, 1.0, size=(n, n))[off]
            b[np.diag_indices(n)] += rng.uniform(0.0, 2.0, size=n)
            assert is_z_matrix(b) and (b >= a - 1e-15).all()
            assert is_m_matrix(b), trial

        # ||A^-1|| < 1 keeps every diagonal shift in [-1, 1] nonsingular
        # (200 draws)
        rng = np.random.default_rng(701)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = q1 @ np.diag(rng.uniform(1.05, 3.0, size=n)) @ q2.T
            assert spectral_norm(np.linalg.inv(a)).value < 1.0
            d = rng.uniform(-1.0, 1.0, size=n)
            assert not lu_factor(a - np.diag(d)).singular, trial

        # every Newton step matrix under certificate (3a) is an M-matrix
        # (50 instances)
        for seed in range(1, 51):
            n = 2 + (seed - 1) % 7
            p = gen_random_3a(n, seed)
            rep = gnm_solve(p)
            assert rep.status in TERMINATED
            for d in rep.sign_history:
                assert is_m_matrix(p.dense_a() - d.matrix()), seed


def test_criterion_8_round_trip_and_determinism(tmp_path):
    with criterion("8 file round-trips and regeneration determinism"):
        problems = {
            "ex1": gen_example1(50),
            "ex2": gen_example_k(2),
            "ex3": gen_example_k(3),
            "ex4": gen_example_k(4),
            "ex5": gen_example_k(5),
            "rand3a": gen_random_3a(8, 7),
            "rand3b": gen_random_3b(6, 3),
        }
        for name, p in problems.items():
            path = tmp_path / f"{name}.ave"
            save(path, p, {"family": name})
            q, meta = load(path)
            again = tmp_path / f"{name}.2.ave"
            save(again, q, meta)
            assert path.read_bytes() == again.read_bytes(), name
            assert np.array_equal(q.dense_a(), p.dense_a()), name
            assert np.array_equal(q.b, p.b), name

        # identical (family, n, seed) regenerates byte-identical files
        for name, gen in {
            "rand3a": lambda: gen_random_3a(8, 7),
            "rand3b": lambda: gen_random_3b(6, 3),
            "ex1": lambda: gen_example1(50),
        }.items():
            p1 = tmp_path / f"{name}.r1.ave"
            p2 = tmp_path / f"{name}.r2.ave"
            save(p1, gen(), {"family": name})
            save(p2, gen(), {"family": name})
            assert p1.read_bytes() == p2.read_bytes(), name
