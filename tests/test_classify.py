"""Solvability verdicts and the explicit solution family."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit.classify import (
    Verdict,
    VerdictBasis,
    classify,
    family_anchor,
    solution_family,
)
from avekit.core import AveProblem, residual
from avekit.errors import AlphaOutOfRange
from avekit.linalg import TridiagonalMatrix
from avekit.oracle import SolutionCountKind, count_solutions
from avekit.problems import gen_example1, gen_example_k, gen_random_3a, gen_random_3b


def test_classify_reference_3b_instance():
    v = classify(gen_example_k(4))
    assert v.verdict is Verdict.UNIQUE_SOLUTION
    assert v.basis is VerdictBasis.CONDITION_3B_NEG_VB
    assert v.v_dot_b == pytest.approx(-20.0, abs=1e-9)
    assert_allclose(v.witness, [-4.0, -6.0], atol=1e-9)


def test_classify_positive_v_dot_b():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, 1.0]))
    v = classify(p)
    assert v.verdict is Verdict.NO_SOLUTION
    assert v.basis is VerdictBasis.CONDITION_3B_POS_VB
    assert v.v_dot_b == pytest.approx(2.0, abs=1e-12)
    assert count_solutions(p).kind is SolutionCountKind.ZERO


def test_classify_tridiagonal_family_is_3a():
    p = gen_example1(4)
    v = classify(p)
    assert v.verdict is Verdict.UNIQUE_SOLUTION
    assert v.basis is VerdictBasis.CONDITION_3A


def test_classify_zero_v_dot_b_symmetric():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    v = classify(p)
    assert v.verdict is Verdict.EXISTS_NOT_UNIQUE
    assert v.basis is VerdictBasis.CONDITION_3B_ZERO_VB_SYMMETRIC
    assert v.v_dot_b == pytest.approx(0.0, abs=1e-12)
    # the anchor is the minimum-norm particular solution of (A - I) u = b
    assert_allclose(v.witness, [0.25, -0.25], atol=1e-12)
    assert count_solutions(p).kind is SolutionCountKind.CONTINUUM_SUSPECTED


def test_classify_zero_v_dot_b_nonsymmetric_is_unknown(no_dense_tridiagonal):
    # the (3b) matrix of the nonsymmetric reference instance with b
    # orthogonal to v = (2, 1): certificates say nothing here
    problems = [AveProblem(gen_example_k(5).a, np.array([1.0, -2.0]))]
    # tridiagonal A - I = tridiag(-1, d, -0.5) with zero column sums, so
    # v = ones, and b orthogonal to v: symmetry is decided from the bands
    n = 8
    d = np.r_[1.0, np.full(n - 2, 1.5), 0.5]
    b = np.sin(np.arange(n))
    a = TridiagonalMatrix(-np.ones(n - 1), 1.0 + d, -0.5 * np.ones(n - 1))
    problems.append(AveProblem(a, b - b.mean()))
    for p in problems:
        v = classify(p)
        assert v.report.satisfies_3b
        assert v.verdict is Verdict.UNKNOWN
        assert v.basis is VerdictBasis.NO_CERTIFICATE
        assert v.v_dot_b == pytest.approx(0.0, abs=1e-12)
    assert_allclose(v.report.v, np.ones(n), rtol=1e-12)


def test_classify_without_certificate():
    p = AveProblem(np.array([[1.0, -0.01], [0.01, 1.0]]), np.ones(2))
    v = classify(p)
    assert v.verdict is Verdict.UNKNOWN
    assert v.basis is VerdictBasis.NO_CERTIFICATE
    assert not v.report.is_z


def test_family_anchor_matches_pinv():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    u = family_anchor(p)
    want = np.linalg.pinv(p.dense_a() - np.eye(2)) @ p.b
    assert_allclose(u, want, atol=1e-12)
    assert_allclose(u, [0.25, -0.25], atol=1e-12)


def test_solution_family_points():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    v = np.array([1.0, 1.0])
    # anchor is (0.25, -0.25) so alpha must stay below -0.25
    pts = solution_family(p, v, [-1.0, -2.0])
    assert_allclose(pts[0], [1.25, 0.75], atol=1e-12)
    assert_allclose(pts[1], [2.25, 1.75], atol=1e-12)
    for x in pts:
        assert (x > 0).all()
        assert residual(p, x)[1] <= 1e-9


def test_solution_family_alpha_bound():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    v = np.array([1.0, 1.0])
    with pytest.raises(AlphaOutOfRange):
        solution_family(p, v, [0.5])
    with pytest.raises(AlphaOutOfRange):
        solution_family(p, v, [-0.2])  # above the bound min(u_i/v_i) = -0.25
    with pytest.raises(ValueError):
        solution_family(p, np.array([1.0, -1.0]), [-1.0])  # v must be positive


def test_family_points_sweep_residuals():
    p = AveProblem(gen_example_k(4).a, np.array([1.0, -1.0]))
    vr = classify(p)
    v = vr.report.v
    alpha_max = float(np.min(vr.witness / v))
    alphas = [alpha_max - s for s in (0.5, 1.0, 2.0)]
    for x in solution_family(p, v, alphas):
        assert (x > 0).all()
        assert residual(p, x)[1] <= 1e-9


def test_classifier_agrees_with_oracle_on_certified_instances():
    for seed in range(1, 9):
        n = 2 + (seed - 1) % 4
        for p in (gen_random_3a(n, seed), gen_random_3b(n, seed)):
            v = classify(p)
            assert v.verdict is Verdict.UNIQUE_SOLUTION
            assert count_solutions(p).kind is SolutionCountKind.ONE


def test_classifier_witness_agrees_with_oracle():
    from avekit.oracle import enumerate_solutions

    for seed in (1, 2, 3, 4):
        p = gen_random_3b(3, seed)
        v = classify(p)
        sols = enumerate_solutions(p)
        assert v.witness is not None
        assert np.abs(v.witness - sols.isolated[0]).max() <= 1e-8


def test_classify_large_tridiagonal_stays_banded(no_dense_tridiagonal):
    n = 10_000
    v = classify(gen_example1(n))
    assert v.verdict is Verdict.UNIQUE_SOLUTION
    assert v.basis is VerdictBasis.CONDITION_3A
    ref = 1.0 / (7.0 - 4.0 * np.cos(np.pi / (n + 1)))
    assert v.report.norm_a_inv == pytest.approx(ref, rel=1e-12)
    assert v.report.rho_abs_a_inv == pytest.approx(ref, rel=1e-12)
    xstar = np.exp(6.0 * np.arange(n) / (n - 1) - 5.0) - 1.0
    assert np.abs(v.witness - xstar).max() <= 1e-9
