"""Sign-diagonal and residual primitives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit.core import AveProblem, SignDiagonal, residual, sign_diagonal
from avekit.problems import gen_example_k


def test_sign_diagonal_reference_points():
    assert sign_diagonal([-2.24, -1.2]).diag.tolist() == [-1, -1]
    assert sign_diagonal([0.0, -3.0]).diag.tolist() == [0, -1]
    assert sign_diagonal([1.0, -1.0]).diag.tolist() == [1, -1]


def test_sign_zero_is_exact_not_banded():
    assert sign_diagonal([1e-300, -1e-300]).diag.tolist() == [1, -1]
    assert sign_diagonal([-0.0]).diag.tolist() == [0]


def test_sign_diagonal_idempotent_classification():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=6) * rng.choice([0.0, 1.0], size=6)
        d = sign_diagonal(x)
        assert sign_diagonal(d.diag.astype(float)) == d


def test_sign_times_x_is_abs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=5)
        x[rng.integers(5)] = 0.0
        d = sign_diagonal(x)
        assert_allclose(d.diag * x, np.abs(x))


def test_sign_diagonal_identity_flag():
    assert sign_diagonal([2.0, 0.5]).is_identity
    assert not sign_diagonal([2.0, 0.0]).is_identity
    assert not sign_diagonal([2.0, -0.5]).is_identity


def test_residual_zero_at_known_solutions():
    assert residual(gen_example_k(2), np.array([88.0, 32.0]))[1] == 0.0
    assert residual(gen_example_k(4), np.array([-4.0, -6.0]))[1] == 0.0


def test_residual_at_origin_is_minus_b():
    p = gen_example_k(3)
    r, norm = residual(p, np.zeros(2))
    assert_allclose(r, -p.b)
    assert norm == pytest.approx(float(np.linalg.norm(p.b)))


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        residual(gen_example_k(2), np.ones(3))


def test_residual_is_locally_lipschitz():
    # |res(x + d) - res(x)| <= (||A|| + 1) ||d||: the residual map is
    # piecewise linear with slope bounded by A and the abs term
    p = gen_example_k(5)
    rng = np.random.default_rng(3)
    bound = np.linalg.norm(p.dense_a(), 2) + 1.0
    for _ in range(50):
        x = rng.normal(size=2) * 10.0
        delta = rng.normal(size=2) * 1e-6
        r0 = residual(p, x)[1]
        r1 = residual(p, x + delta)[1]
        assert abs(r1 - r0) <= bound * np.linalg.norm(delta) + 1e-15


def test_sign_diagonal_rejects_entries_before_casting():
    with pytest.raises(ValueError, match="-1, 0, or 1"):
        SignDiagonal(np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="-1, 0, or 1"):
        SignDiagonal(np.array([300, 1]))  # would wrap to 44 in int8
    d = SignDiagonal(np.array([-1.0, 0.0, 1.0]))
    assert d.diag.dtype == np.int8
    assert d.diag.tolist() == [-1, 0, 1]


def test_problem_validation():
    with pytest.raises(ValueError):
        AveProblem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        AveProblem(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        AveProblem(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        AveProblem(np.ones((2, 2)), np.array([1.0, np.inf]))


def test_problem_arrays_are_read_only():
    p = gen_example_k(2)
    with pytest.raises(ValueError):
        p.b[0] = 5.0
    with pytest.raises(ValueError):
        p.a[0, 0] = 5.0
