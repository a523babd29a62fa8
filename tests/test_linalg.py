"""Linear-algebra kernels against closed forms and brute-force oracles."""

import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from avekit import linalg
from avekit.errors import SingularSystem
from avekit.linalg import (
    DEFAULT_RANK_TOL,
    NOPIVOT_BLOCK,
    TridiagonalMatrix,
    _lowest_eigenvalue,
    _singular,
    _structure,
    inverse,
    lu_factor,
    pattern_solve,
    solve,
    spectral_norm,
    spectral_radius_nonneg,
    tridiag_solve,
)
from avekit.problems import gen_example1, gen_random_3a, gen_random_3b
from avekit.solver import SolveStatus, gnm_solve
from left_kernel import null_space_left


def cramer2(m, rhs):
    """Independent 2x2 closed-form solve."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([(d * rhs[0] - b * rhs[1]) / det, (a * rhs[1] - c * rhs[0]) / det])


def random_with_condition(rng, n, sigma_lo, sigma_hi):
    """Random matrix with singular values drawn in [sigma_lo, sigma_hi]."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sigmas = rng.uniform(sigma_lo, sigma_hi, size=n)
    return q1 @ np.diag(sigmas) @ q2.T


# ---------------------------------------------------------------- lu_factor


def test_lu_identity():
    f = lu_factor(np.eye(3))
    assert not f.singular
    assert_allclose(np.triu(f.packed), np.eye(3))
    rng = np.random.default_rng(4)
    for _ in range(3):
        rhs = rng.normal(size=3)
        assert_allclose(solve(f, rhs), rhs)


def test_lu_flags_rank_one_matrix():
    assert lu_factor([[2.0, -2.0], [-2.0, 2.0]]).singular


def test_lu_solve_triangular_case():
    m = [[0.5, -1.25], [0.0, 0.5]]
    f = lu_factor(m)
    assert not f.singular
    x = solve(f, np.array([4.0, 16.0]))
    assert_allclose(x, [88.0, 32.0], atol=1e-12)
    assert_allclose(x, cramer2(m, [4.0, 16.0]))


def test_lu_permutation_reconstructs_input():
    # the packed factors and their row interchanges act as a: a @ solve(f, r)
    # gives r back to the backward error of a pivoted LU
    rng = np.random.default_rng(5)
    for n in (2, 5, 17):
        a = rng.normal(size=(n, n))
        f = lu_factor(a)
        scale = np.abs(a).max()
        for _ in range(3):
            rhs = rng.normal(size=n)
            x = solve(f, rhs)
            assert np.abs(a @ x - rhs).max() <= 1e-13 * n * scale * np.abs(x).max()


def _getrf(a):
    """LAPACK getrf through scipy, the reference: its row order (ipiv
    applied as interchanges) and its packed factors."""
    with warnings.catch_warnings():
        # an exactly zero pivot is expected on singular input
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        packed, ipiv = scipy.linalg.lu_factor(a)
    perm = np.arange(a.shape[0])
    for k, i in enumerate(ipiv):
        perm[[k, i]] = perm[[i, k]]
    return packed, perm


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 200])
def test_lu_factor_matches_getrf(n):
    # sizes at and around the panel width, and several panels
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.normal(size=(n, n))
        f = lu_factor(a)
        packed, perm = _getrf(a)
        assert f.perm.tolist() == perm.tolist()
        assert np.abs(np.diag(f.packed) - np.diag(packed)).max() <= 1e-12 * np.abs(a).max()
        lower = np.tril(f.packed, -1) + np.eye(n)
        assert np.abs(lower @ np.triu(f.packed) - a[f.perm]).max() <= 1e-13 * n * np.abs(a).max()


def test_lu_factor_leaves_a_zero_column():
    # column 0 is zero: no interchange, no division, pivot 0, singular
    a = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
    f = lu_factor(a)
    assert f.singular
    assert f.perm.tolist() == _getrf(a)[1].tolist()
    assert np.isfinite(f.packed).all() and f.packed[0, 0] == 0.0


def test_solve_and_inverse_across_panels():
    # the blocked substitutions against numpy's dense solve and inverse
    rng = np.random.default_rng(8)
    for n in (NOPIVOT_BLOCK - 1, NOPIVOT_BLOCK + 1, 3 * NOPIVOT_BLOCK + 5):
        a = random_with_condition(rng, n, 0.1, 10.0)
        b = rng.normal(size=n)
        assert_allclose(solve(lu_factor(a), b), np.linalg.solve(a, b), rtol=1e-11, atol=1e-12)
        assert_allclose(inverse(a), np.linalg.inv(a), rtol=1e-11, atol=1e-12)


# --------------------------------------------------------------- lu_nopivot


def _step_matrices(a, patterns):
    """a - diag(s) for the sign patterns s numbered in itertools.product
    order."""
    n = a.shape[0]
    for k in patterns:
        yield a - np.diag(2.0 * ((k >> np.arange(n - 1, -1, -1)) & 1) - 1.0)


def _lu_flags(a, patterns):
    """The reference: one lu_factor per sign pattern."""
    return [lu_factor(m).singular for m in _step_matrices(a, patterns)]


def _small_integer_ranges():
    """3000 small-integer matrices, which have many exactly singular
    patterns, each with a range of patterns; the ranges start and stop off
    subtree boundaries, and some hold one pattern."""
    rng = np.random.default_rng(17)
    for trial in range(3000):
        n = int(rng.integers(1, 8))
        a = rng.integers(-2, 3, size=(n, n)).astype(float)
        start = int(rng.integers(0, 2**n))
        stop = start + 1 if trial % 3 == 0 else int(rng.integers(start + 1, 2**n + 1))
        yield a, start, stop


@functools.cache
def _small_integer_cases():
    """Each range of :func:`_small_integer_ranges` with its
    :func:`_lu_flags`, computed once for the tests that compare them."""
    return [(a, start, stop, _lu_flags(a, range(start, stop))) for a, start, stop in _small_integer_ranges()]


def _flags(a, start, stop):
    """The singularity flags of pattern_solve, against a right-hand side
    of ones."""
    return pattern_solve(a, np.ones(a.shape[0]), DEFAULT_RANK_TOL, start, stop)[0]


def test_pattern_solve_flags_match_lu_factor():
    total = singular = 0
    for a, start, stop, expect in _small_integer_cases():
        got = _flags(a, start, stop)
        assert got.tolist() == expect, (a, start, stop)
        total += len(expect)
        singular += sum(expect)
    assert total > 20_000 and singular > 500


def test_lu_factor_flags_match_getrf():
    total = singular = 0
    for a, start, stop, flags in _small_integer_cases():
        expect = []
        for m in _step_matrices(a, range(start, stop)):
            pivots = np.abs(np.diag(_getrf(m)[0]))
            expect.append(bool(_singular(pivots, np.abs(m).max(), DEFAULT_RANK_TOL)))
        assert flags == expect, (a, start, stop)
        total += len(expect)
        singular += sum(expect)
    assert total > 20_000 and singular > 500


def test_pattern_solve_flags_scalar_and_zero_step():
    # n = 1: a - s is zero, hence singular, exactly when a = s
    for a11, expect in ((1.0, [False, True]), (-1.0, [True, False]), (0.5, [False, False])):
        assert _flags(np.array([[a11]]), 0, 2).tolist() == expect
    # A = diag(1, -1, 1): pattern (+1, -1, +1), number 5, gives the zero
    # step matrix (scale 0); pattern (-1, +1, -1), number 2, is the only
    # nonsingular one
    a = np.diag([1.0, -1.0, 1.0])
    got = _flags(a, 0, 8).tolist()
    assert got == _lu_flags(a, range(8))
    assert got == [True, True, False, True, True, True, True, True]
    assert _flags(a, 5, 6).tolist() == [True]
    # the input is left as it was
    assert np.array_equal(a, np.diag([1.0, -1.0, 1.0]))


def test_pattern_solve_flags_rand3a_16():
    # beyond the n <= 12 of the enumeration parity tests: all 2^16 flags
    # in two ranges that split a subtree, 2000 of them against lu_factor
    a = gen_random_3a(16, 3).dense_a()
    cut = 3 * 2**14 + 777
    flags = np.concatenate(
        [
            _flags(a, 0, cut),
            _flags(a, cut, 2**16),
        ]
    )
    sample = np.random.default_rng(3).choice(2**16, size=2000, replace=False)
    assert flags[sample].tolist() == _lu_flags(a, sample.tolist())


def test_pattern_solve_refuses_a_bad_range():
    a = np.eye(3)
    for start, stop in ((0, 0), (4, 3), (-1, 2), (0, 9)):
        with pytest.raises(ValueError, match="pattern range"):
            pattern_solve(a, np.ones(3), DEFAULT_RANK_TOL, start, stop)
    with pytest.raises(ValueError, match="right-hand side"):
        pattern_solve(a, np.ones(2), DEFAULT_RANK_TOL, 0, 8)


def _pattern_solve_cases():
    """rand3a, rand3b and ex1 up to n = 10 over whole ranges and ranges
    off subtree boundaries, then 600 small-integer matrices, whose ranges
    mix singular and nonsingular patterns."""
    for n in (4, 7, 10):
        ranges = [(0, 2**n), (5, 2**n - 3), (2 ** (n - 1) - 1, 2 ** (n - 1) + 2)]
        for p in (gen_random_3a(n, 30 + n), gen_random_3b(n, 40 + n), gen_example1(n)):
            for start, stop in ranges:
                yield p.dense_a(), p.b, start, stop
    rng = np.random.default_rng(29)
    for a, start, stop in itertools.islice(_small_integer_ranges(), 600):
        yield a, rng.normal(size=a.shape[0]), start, stop


def test_pattern_solve_matches_lu_factor_and_solve():
    total = mixed = 0
    for a, b, start, stop in _pattern_solve_cases():
        singular, x, _ = pattern_solve(a, b, DEFAULT_RANK_TOL, start, stop)
        factors = [lu_factor(m) for m in _step_matrices(a, range(start, stop))]
        assert singular.tolist() == [f.singular for f in factors]
        expect = [solve(f, b) for f in factors if not f.singular]
        assert x.shape == (len(expect), a.shape[0])
        for got, ref in zip(x, expect):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (a, b, start, stop)
        total += len(expect)
        mixed += 0 < len(expect) < stop - start
    assert total > 5000 and mixed > 50


def test_pattern_solve_least_pivot_matches_lu_factor():
    # the third output is the quantity the singularity rule tests: the
    # least pivot magnitude over the largest entry magnitude, 0 for the
    # zero step matrix of A = diag(1, -1, 1) at pattern (+1, -1, +1)
    for a, b, start, stop in itertools.islice(_pattern_solve_cases(), 18):
        least = pattern_solve(a, b, DEFAULT_RANK_TOL, start, stop)[2]
        expect = [
            np.abs(np.diag(lu_factor(m).packed)).min() / np.abs(m).max()
            for m in _step_matrices(a, range(start, stop))
        ]
        assert_allclose(least, expect, rtol=1e-10, atol=1e-15)
    least = pattern_solve(np.diag([1.0, -1.0, 1.0]), np.ones(3), DEFAULT_RANK_TOL, 5, 6)[2]
    assert least.tolist() == [0.0]


def _nopivot(m, floor):
    """The packed factors of LU without pivoting and the number k of
    leading pivots above ``floor``."""
    pivots, packed = _structure(m).eliminate(floor)
    return packed, pivots.size - (not pivots[-1] > floor)


def test_lu_nopivot_reconstructs_across_blocks():
    # diagonally dominant, so no pivot vanishes; n spans several panels
    rng = np.random.default_rng(21)
    n = 75
    assert n > 2 * NOPIVOT_BLOCK
    a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
    packed, k = _nopivot(a, 0.0)
    assert k == n
    lower = np.tril(packed, -1) + np.eye(n)
    assert np.abs(lower @ np.triu(packed) - a).max() <= 1e-12 * n


def test_lu_nopivot_stops_at_first_pivot_not_above_floor():
    packed, k = _nopivot([[1.0, 2.0, 0.0], [3.0, 4.0, 1.0], [0.0, 1.0, 5.0]], 0.0)
    assert k == 1
    assert packed[1, 1] == pytest.approx(-2.0)
    assert _nopivot([[0.0, 1.0], [1.0, 0.0]], 0.0)[1] == 0


def test_tridiag_pivots_match_dense_elimination():
    rng = np.random.default_rng(22)
    n = 40
    t = TridiagonalMatrix(-rng.uniform(0.1, 1.0, n - 1), rng.uniform(2.0, 3.0, n), -rng.uniform(0.1, 1.0, n - 1))
    packed, k = _nopivot(t.to_dense(), 0.0)
    assert k == n
    assert np.array_equal(_structure(t).eliminate(0.0)[0], np.diag(packed))
    # random tridiagonal Z-matrices across several panels of the dense
    # loop; a main diagonal near the couplings stops some eliminations
    # before the last pivot, and both storages stop at the same one
    stopped = 0
    for trial in range(90):
        n = (2, NOPIVOT_BLOCK + 1, 2 * NOPIVOT_BLOCK + 7)[trial % 3]
        high = 1.4 if trial % 2 else 3.0
        t = TridiagonalMatrix(-rng.uniform(0.1, 1.0, n - 1), rng.uniform(1.0, high, n), -rng.uniform(0.1, 1.0, n - 1))
        floor = DEFAULT_RANK_TOL * t.scale
        tri = _structure(t).eliminate(floor)[0]
        dense = _structure(t.to_dense()).eliminate(floor)[0]
        assert tri.shape == dense.shape and np.array_equal(tri, dense), (trial, n)
        stopped += tri.size < n
    assert stopped >= 20
    # ex1's pivots p_i = 7 - 4 / p_{i-1} fall to the fixed point (7 + sqrt(33)) / 2
    ex1 = _structure(TridiagonalMatrix([-2.0] * 19, [7.0] * 20, [-2.0] * 19)).eliminate(0.0)[0]
    assert ex1[-1] == pytest.approx((7.0 + np.sqrt(33.0)) / 2.0, rel=1e-12)


def test_tridiag_elimination_without_a_right_hand_side():
    # rhs None skips the right-hand-side updates and nothing else: both
    # modes return what they return against a zero right-hand side
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = 2 + trial
        t = TridiagonalMatrix(rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1))
        for floor in (None, 0.0):
            want = linalg._tridiag_eliminate(t, [0.0] * n, floor)
            assert linalg._tridiag_eliminate(t, None, floor) == want, (trial, floor)


def test_tridiag_pivots_stop_after_first_failure():
    t = TridiagonalMatrix([-1.0, -1.0, -1.0], [1.0, 1.0, 2.0, 2.0], [-1.0, -1.0, -1.0])
    assert_allclose(_structure(t).eliminate(0.0)[0], [1.0, 0.0])


# -------------------------------------------------------------------- solve


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.5])
    assert_allclose(solve(lu_factor(np.eye(3)), b), b)


@pytest.mark.parametrize(
    "m, rhs, expected",
    [
        ([[2.0, -1.0], [-4.0, 4.0]], [-5.0, -4.0], [-6.0, -7.0]),
        ([[4.0, -1.0], [-4.0, 4.0]], [-5.0, -4.0], [-2.0, -3.0]),
    ],
)
def test_solve_2x2_closed_form(m, rhs, expected):
    x = solve(lu_factor(m), np.array(rhs))
    assert_allclose(x, cramer2(m, rhs), atol=1e-14)
    assert_allclose(x, expected, atol=1e-12)


def test_solve_refuses_singular():
    f = lu_factor([[2.0, -2.0], [-2.0, 2.0]])
    with pytest.raises(SingularSystem):
        solve(f, np.array([1.0, 1.0]))


def test_solve_residual_contract_on_conditioned_systems():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        a = random_with_condition(rng, n, 1e-3, 1e3)  # condition <= 1e6
        b = rng.normal(size=n)
        x = solve(lu_factor(a), b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-8


# ------------------------------------------------------------------ inverse


def test_inverse_scaled_identity():
    assert_allclose(inverse(2.0 * np.eye(3)), 0.5 * np.eye(3))


def test_inverse_triangular_nonnegative():
    inv = inverse([[0.5, -1.25], [0.0, 0.5]])
    assert_allclose(inv, [[2.0, 5.0], [0.0, 2.0]], atol=1e-12)
    assert inv.min() >= 0.0


def test_inverse_can_have_negative_entries():
    inv = inverse([[1.0, -0.01], [0.01, 1.0]])
    assert inv.min() < 0.0


def test_inverse_raises_on_singular():
    with pytest.raises(SingularSystem):
        inverse([[2.0, -2.0], [-2.0, 2.0]])


def test_inverse_contract():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        a = random_with_condition(rng, n, 0.1, 10.0)
        err = np.abs(a @ inverse(a) - np.eye(n)).max()
        assert err <= 1e-9


# ------------------------------------------------------------ tridiagonal


def test_tridiag_scalar():
    t = TridiagonalMatrix([], [7.0], [])
    assert_allclose(tridiag_solve(t, [14.0]), [2.0])


def test_tridiag_2x2():
    t = TridiagonalMatrix([-2.0], [7.0, 7.0], [-2.0])
    x = tridiag_solve(t, np.array([5.0, 5.0]))
    assert_allclose(x, cramer2([[7.0, -2.0], [-2.0, 7.0]], [5.0, 5.0]))
    assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_tridiag_rejects_a_scalar_main_diagonal():
    with pytest.raises(ValueError, match="main diagonal"):
        TridiagonalMatrix([], 5.0, [])


def test_tridiag_zero_pivot():
    with pytest.raises(SingularSystem):
        tridiag_solve(TridiagonalMatrix([], [0.0], []), [1.0])


def test_tridiag_agrees_with_dense_solver():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = 50
        sub = rng.normal(size=n - 1)
        sup = rng.normal(size=n - 1)
        main = rng.normal(size=n) + 6.0 * np.sign(rng.normal(size=n))  # dominant
        t = TridiagonalMatrix(sub, main, sup)
        b = rng.normal(size=n)
        x_fast = tridiag_solve(t, b)
        x_dense = solve(lu_factor(t.to_dense()), b)
        denom = max(np.abs(x_dense).max(), 1.0)
        assert np.abs(x_fast - x_dense).max() / denom < 1e-10
    # small-integer matrices, about a third singular and many needing row
    # interchanges: the singular verdict is lu_factor's on every one, at
    # every rank tolerance
    singular = 0
    for _ in range(5000):
        n = int(rng.integers(1, 12))
        t = TridiagonalMatrix(*(rng.integers(-2, 3, size).astype(float) for size in (n - 1, n, n - 1)))
        b = rng.normal(size=n)
        f = lu_factor(t.to_dense())
        singular += f.singular
        # lu_factor's verdict at each tolerance, from its one factorization
        pivots, scale = np.abs(np.diag(f.packed)), np.abs(t.to_dense()).max()
        for tol in (0.0, 1e-10, 1e-6, 0.3):
            assert _structure(t).singular(tol) == _singular(pivots, scale, tol)
        if f.singular:
            with pytest.raises(SingularSystem):
                tridiag_solve(t, b)
        else:
            x_dense = solve(f, b)
            denom = max(np.abs(x_dense).max(), 1.0)
            assert np.abs(tridiag_solve(t, b) - x_dense).max() / denom < 1e-12
    assert 1000 < singular < 2500


def _column_dominant_case(rng, n):
    """A random tridiagonal matrix whose every column has its diagonal
    entry 1.01 to 2 times the sum of its off-diagonal magnitudes (plus
    0.001), with a random sign."""
    sub = rng.normal(size=n - 1)
    sup = rng.normal(size=n - 1)
    off = np.abs(np.append(sub, 0.0)) + np.abs(np.insert(sup, 0, 0.0))
    main = (off * rng.uniform(1.01, 2.0, n) + 1e-3) * rng.choice([-1.0, 1.0], n)
    return TridiagonalMatrix(sub, main, sup)


_CR_SIZES = list(range(1, 71)) + [m for k in range(7, 13) for m in (2**k - 1, 2**k, 2**k + 1)]


def test_cyclic_reduction_matches_pivoting_loop(monkeypatch):
    rng = np.random.default_rng(16)
    cases = [(_column_dominant_case(rng, n), rng.normal(size=n)) for n in _CR_SIZES for _ in range(3)]
    assert all(linalg._column_dominant(t, DEFAULT_RANK_TOL) for t, _ in cases)
    fast = [tridiag_solve(t, b) for t, b in cases]
    # the same calls with every matrix sent through the pivoting loop
    monkeypatch.setattr(linalg, "_column_dominant", lambda t, rank_tol: False)
    for (t, b), x in zip(cases, fast):
        x_loop = tridiag_solve(t, b)
        assert np.abs(x - x_loop).max() <= 1e-13 * np.abs(x_loop).max(), t.n


def test_cyclic_reduction_at_extreme_scales():
    # entries near the ends of the float range, and multipliers whose
    # products underflow to zero within a few levels: no RuntimeWarning
    # (warnings are errors in this suite) and a residual at rounding level
    n = 1000
    rng = np.random.default_rng(5)
    b = rng.normal(size=n)
    for scale, off in ((1e300, 0.4), (1e-300, 0.4), (1.0, 1e-200)):
        t = TridiagonalMatrix(np.full(n - 1, off * scale), np.full(n, scale), np.full(n - 1, -off * scale))
        assert linalg._column_dominant(t, DEFAULT_RANK_TOL)
        x = tridiag_solve(t, b * scale)
        assert np.abs(t.matvec(x) - b * scale).max() <= 1e-14 * scale * np.abs(x).max()


def test_dominant_steps_skip_the_pivoting_loop(monkeypatch):
    def eliminate(*args):
        raise AssertionError("pivoting loop reached")

    monkeypatch.setattr(linalg, "_tridiag_eliminate", eliminate)
    # every ex1 step matrix tridiag(-2, 7 -+ 1, -2) is column dominant
    p = gen_example1(200)
    assert gnm_solve(p).status is SolveStatus.CONVERGED
    # [[0, 1], [1, 0]] is not, and still takes the loop
    swap = TridiagonalMatrix([1.0], [0.0, 0.0], [1.0])
    with pytest.raises(AssertionError, match="pivoting loop reached"):
        tridiag_solve(swap, [1.0, 2.0])


def test_column_dominance_needs_a_margin_above_rank_tol():
    # a column of tridiag(-1, 2, -1) has margin 0: the loop decides it
    assert not linalg._column_dominant(TridiagonalMatrix([-1.0] * 2, [2.0] * 3, [-1.0] * 2), 0.0)
    t = TridiagonalMatrix([-1.0], [2.0, 2.0], [-1.0])  # margins 1, scale 2
    assert linalg._column_dominant(t, 0.49)
    assert not linalg._column_dominant(t, 0.5)
    assert not linalg._column_dominant(TridiagonalMatrix([], [0.0], []), 0.0)
    # columns, not rows: [[1, 0.5], [0.9, 0.6]] and its transpose
    assert linalg._column_dominant(TridiagonalMatrix([0.9], [1.0, 0.6], [0.5]), 0.0)
    assert not linalg._column_dominant(TridiagonalMatrix([0.5], [1.0, 0.6], [0.9]), 0.0)


def test_tridiag_matvec_matches_dense():
    rng = np.random.default_rng(2)
    t = TridiagonalMatrix(rng.normal(size=9), rng.normal(size=10), rng.normal(size=9))
    x = rng.normal(size=10)
    assert_allclose(t.matvec(x), t.to_dense() @ x)


# ------------------------------------------- lowest tridiagonal eigenvalue


def _eigvalsh_lowest(main, off):
    return scipy.linalg.eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 0))[0]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
def test_lowest_eigenvalue_matches_lapack(n):
    rng = np.random.default_rng(n)
    for trial in range(20):
        main = rng.normal(size=n) * 5.0
        off = rng.normal(size=n - 1)
        if trial % 4 == 1:
            main -= 20.0  # a negative spectrum
        if trial % 4 == 2 and n > 1:
            off[rng.random(n - 1) < 0.5] = 0.0  # reducible
        if trial % 4 == 3:
            off[:] = 0.0  # diagonal
        got = _lowest_eigenvalue(main, off * off)
        scale = np.abs(main).max() + 2.0 * np.abs(off).max(initial=0.0)
        assert abs(got - _eigvalsh_lowest(main, off)) <= 1e-14 * scale, (main, off)


def test_lowest_eigenvalue_ex1_closed_form():
    n = 10_000
    got = _lowest_eigenvalue(np.full(n, 7.0), np.full(n - 1, 4.0))
    assert got == pytest.approx(7.0 - 4.0 * np.cos(np.pi / (n + 1)), rel=1e-12)


# ------------------------------------------------------------- spectral


def test_spectral_norm_identity():
    r = spectral_norm(np.eye(4))
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_spectral_norm_reference_inverses():
    # the two reference matrices whose inverse norms are 1.6095 and 1.1708
    inv3 = inverse([[1.5, -3.0], [0.0, 1.5]])
    assert spectral_norm(inv3).value == pytest.approx(1.6095, abs=1e-3)
    inv5 = inverse([[3.0, -1.0], [-4.0, 3.0]])
    assert spectral_norm(inv5).value == pytest.approx(1.1708, abs=1e-3)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(77)
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(2, 12)),) * 2)
        want = np.linalg.svd(a, compute_uv=False)[0]
        got = spectral_norm(a).value
        assert got == pytest.approx(want, rel=1e-6)


def test_spectral_norm_transpose_and_scaling():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 6))
    na = spectral_norm(a).value
    assert spectral_norm(a.T).value == pytest.approx(na, rel=1e-8)
    assert spectral_norm(-2.5 * a).value == pytest.approx(2.5 * na, rel=1e-8)


def test_spectral_radius_reference_cases():
    # triangular case: eigenvalues sit on the diagonal, radius is 2/3; the
    # defective (Jordan) structure converges slowly, hence the loose bound
    r = spectral_radius_nonneg([[2.0 / 3.0, 5.0 / 9.0], [0.0, 2.0 / 3.0]])
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert spectral_radius_nonneg(np.eye(3)).value == pytest.approx(1.0, abs=1e-10)
    assert spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]]).value == pytest.approx(
        1.0, abs=1e-10
    )


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius_nonneg([[1.0, -0.1], [0.0, 1.0]])


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        want = float(np.abs(np.linalg.eigvals(a)).max())
        assert spectral_radius_nonneg(a).value == pytest.approx(want, rel=1e-7)


def test_spectral_radius_below_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        assert spectral_radius_nonneg(a).value <= spectral_norm(a).value * (1 + 1e-8)


# --------------------------------------------------------------- kernels


def test_null_space_symmetric_rank_one_deficient():
    ns = null_space_left([[2.0, -2.0], [-2.0, 2.0]])
    assert ns.dimension == 1
    assert_allclose(ns.basis_vector, [1.0, 1.0], atol=1e-12)


def test_null_space_nonsymmetric_case():
    # left kernel of [[2,-1],[-4,2]] is spanned by (2, 1)
    ns = null_space_left([[2.0, -1.0], [-4.0, 2.0]])
    assert ns.dimension == 1
    v = ns.basis_vector
    assert_allclose(v / v[0], [1.0, 0.5], atol=1e-12)
    assert np.abs(v @ np.array([[2.0, -1.0], [-4.0, 2.0]])).max() <= 1e-12


def test_null_space_nonsingular_matrix():
    ns = null_space_left([[3.0, -1.0], [0.0, 2.0]])
    assert ns.dimension == 0
    assert ns.basis_vector is None


def test_null_space_dimension_matches_lu_singularity():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n))
        if rng.uniform() < 0.5:
            a[:, -1] = a[:, :-1] @ rng.normal(size=n - 1)  # force rank deficiency
        ns = null_space_left(a)
        assert (ns.dimension == 0) == (not lu_factor(a.T).singular)


def test_null_space_residual_bound():
    ns = null_space_left([[2.0, -1.0], [-4.0, 2.0]])
    m = np.array([[2.0, -1.0], [-4.0, 2.0]])
    assert np.linalg.norm(ns.basis_vector @ m) <= ns.rank_tolerance * np.linalg.norm(m)


# ---------------------------------------------------------- irreducibility


def test_irreducible_cases():
    assert _structure([[2.0, -2.0], [-2.0, 2.0]]).is_irreducible(0.0)
    assert not _structure(np.diag([1.0, 2.0])).is_irreducible(0.0)
    assert not _structure([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]).is_irreducible(0.0)
    assert _structure([[5.0]]).is_irreducible(0.0)


def test_irreducible_cycle_graph():
    # a single directed cycle is strongly connected
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = -1.0
    assert _structure(a).is_irreducible(0.0)
    a[0, 1] = 0.0  # break the cycle
    assert not _structure(a).is_irreducible(0.0)
