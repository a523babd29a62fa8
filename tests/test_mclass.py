"""Z/M-matrix classification and the two termination certificates."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit import linalg
from avekit.errors import SingularSystem
from avekit.linalg import TridiagonalMatrix, _structure, lu_factor
from avekit.mclass import (
    Tolerances,
    check_condition_3a,
    check_condition_3b,
    diagnostics,
    is_m_matrix,
    is_z_matrix,
)
from avekit.problems import gen_example1, gen_example_k, gen_random_3a, gen_random_3b
from left_kernel import null_space_left


def test_z_matrix_cases():
    assert is_z_matrix(gen_example1(4).dense_a())
    assert not is_z_matrix([[1.0, -0.01], [0.01, 1.0]])
    assert is_z_matrix(np.eye(3))
    assert is_z_matrix([[5.0, 0.0], [-3.0, 2.0]])


def test_m_matrix_cases():
    assert is_m_matrix([[0.5, -1.25], [0.0, 0.5]])
    assert not is_m_matrix([[2.0, -2.0], [-2.0, 2.0]])  # singular
    assert not is_m_matrix([[1.0, 2.0], [0.0, 1.0]])  # not a Z-matrix


def test_condition_3a_cases():
    assert check_condition_3a(gen_example_k(3).dense_a())
    assert not check_condition_3a(gen_example_k(4).dense_a())
    assert not check_condition_3a(np.eye(2))


def test_condition_3b_reference_matrices():
    ok, v = check_condition_3b(gen_example_k(4).dense_a())
    assert ok
    assert_allclose(v, [1.0, 1.0], atol=1e-12)

    ok, v = check_condition_3b(gen_example_k(5).dense_a())
    assert ok
    assert_allclose(v / v[0], [1.0, 0.5], atol=1e-12)  # proportional to (2, 1)

    ok, v = check_condition_3b(gen_example_k(2).dense_a())
    assert not ok
    assert v is None


def test_condition_3b_scalar_edge():
    # A = [1]: A - I = [0] has the whole line as kernel and any positive
    # diagonal shift is trivially an M-matrix
    ok, v = check_condition_3b(np.array([[1.0]]))
    assert ok
    assert_allclose(v, [1.0])


def test_condition_3b_rejects_reducible():
    # block-diagonal singular Z-matrix: kernel is 2-dimensional
    a = np.eye(4) + np.block(
        [[np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((2, 2))],
         [np.zeros((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]])]]
    )
    ok, v = check_condition_3b(a)
    assert not ok


@pytest.mark.parametrize(
    "sub, main, sup",
    [
        # A - I has pivots (1, 1, 0) and left kernel v = (1, 1, 1) > 0, but
        # its zero superdiagonal entry makes it reducible
        ([-1.0, -1.0], [2.0, 2.0, 2.0], [0.0, -1.0]),
        # A - I = [[1, -1], [0, 0]] has pivots (1, 0) and v = (0, 1)
        ([0.0], [2.0, 1.0], [-1.0]),
    ],
    ids=["reducible", "kernel-not-positive"],
)
@pytest.mark.parametrize("dense", [False, True], ids=["tridiagonal", "dense"])
def test_condition_3b_rejects_a_zero_last_pivot_that_fails_the_probe(sub, main, sup, dense):
    t = TridiagonalMatrix(sub, main, sup)
    a = t.to_dense() if dense else t
    assert check_condition_3b(a) == (False, None)
    assert "A - I is a singular Z-matrix but fails the irreducible-kernel probe" in diagnostics(a).notes


def test_certificates_are_mutually_exclusive():
    mats = [gen_example_k(k).dense_a() for k in (2, 3, 4, 5)]
    mats += [gen_random_3a(n, seed).dense_a() for n, seed in [(3, 1), (5, 2), (8, 3)]]
    mats += [np.eye(2), np.array([[1.0, -0.01], [0.01, 1.0]])]
    for a in mats:
        s3a = check_condition_3a(a)
        s3b, _ = check_condition_3b(a)
        assert not (s3a and s3b)


def test_diagnostics_reference_values():
    d2 = diagnostics(gen_example_k(2).dense_a())
    assert d2.satisfies_3a and not d2.satisfies_3b
    assert d2.norm_a_inv == pytest.approx(1.0, abs=1e-6)

    d5 = diagnostics(gen_example_k(5).dense_a())
    assert d5.satisfies_3b and not d5.satisfies_3a
    assert d5.norm_a_inv == pytest.approx(1.1708, abs=1e-3)

    d3 = diagnostics(np.array([[1.5, -3.0], [0.0, 1.5]]))
    assert d3.satisfies_3a
    assert d3.norm_a_inv == pytest.approx(1.6095, abs=1e-3)


def test_diagnostics_skips_norms_for_singular_a():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    d = diagnostics(a)
    assert d.norm_a_inv is None and d.rho_abs_a_inv is None
    assert any("singular" in note for note in d.notes)


def test_diagnostics_rho_of_abs_inverse():
    # |A^-1| of the first reference matrix is triangular with 2/3 diagonal
    d = diagnostics(gen_example_k(2).dense_a())
    assert d.rho_abs_a_inv == pytest.approx(2.0 / 3.0, abs=1e-3)


def _random_m_matrix(n, seed):
    """Nonsingular M-matrix from the certified (3a) generator."""
    return gen_random_3a(n, seed).dense_a() - np.eye(n)


def test_upward_closure_among_z_matrices():
    # B >= A entrywise with A an M-matrix and B a Z-matrix forces B to be
    # an M-matrix; push off-diagonals toward zero and grow the diagonal
    rng = np.random.default_rng(100)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        a = _random_m_matrix(n, trial + 1)
        b = a.copy()
        off = ~np.eye(n, dtype=bool)
        b[off] = a[off] * rng.uniform(0.0, 1.0, size=(n, n))[off]
        b[np.diag_indices(n)] += rng.uniform(0.0, 2.0, size=n)
        assert (b >= a - 1e-15).all() and is_z_matrix(b)
        assert is_m_matrix(b)


def test_small_norm_inverse_keeps_shifts_nonsingular():
    # ||A^-1|| < 1 makes A - D nonsingular for any diagonal D with
    # entries in [-1, 1]
    rng = np.random.default_rng(200)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q1 @ np.diag(rng.uniform(1.1, 3.0, size=n)) @ q2.T
        assert np.linalg.norm(a, 2) >= 1.1 - 1e-6
        assert np.linalg.norm(np.linalg.inv(a), 2) < 1.0
        d = rng.uniform(-1.0, 1.0, size=n)
        assert not lu_factor(a - np.diag(d)).singular


def test_3a_matrices_stay_m_under_all_sign_shifts():
    # exhaustive over sign diagonals at small n
    for seed in (1, 2, 3):
        n = 3
        a = gen_random_3a(n, seed).dense_a()
        assert check_condition_3a(a)
        for signs in itertools.product((-1, 0, 1), repeat=n):
            assert is_m_matrix(a - np.diag(np.array(signs, dtype=float)))


def test_3b_kernel_witness_quality():
    for k in (4, 5):
        a = gen_example_k(k).dense_a()
        ok, v = check_condition_3b(a)
        assert ok
        ai = a - np.eye(2)
        assert np.linalg.norm(v @ ai) <= 1e-8 * np.linalg.norm(ai)
        assert v.min() > 0


def test_tolerances_record_defaults():
    tols = Tolerances()
    assert tols.zero_tol == 1e-12
    assert tols.rank_tol == 1e-10


@pytest.mark.parametrize("field", ["zero_tol", "rank_tol"])
@pytest.mark.parametrize("value", [-1.0, -1e-300, np.nan, np.inf])
def test_tolerances_refuse_negative_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


def test_tolerances_accept_zero():
    assert Tolerances(zero_tol=0.0, rank_tol=0.0).rank_tol == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
@pytest.mark.parametrize("rank_tol", [1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6])
def test_condition_3b_holds_across_rank_tol(n, rank_tol):
    ok, v = check_condition_3b(gen_random_3b(n, 1).dense_a(), Tolerances(rank_tol=rank_tol))
    assert ok
    assert v.min() > 0


def _path_laplacian_plus_identity(n):
    """I + L with L the path Laplacian: A - I = L is a singular irreducible
    M-matrix with left kernel vector ones."""
    off = -np.ones(n - 1)
    return TridiagonalMatrix(off, 1.0 + np.r_[1.0, 2.0 * np.ones(n - 2), 1.0], off)


@pytest.mark.parametrize(
    "storage, a",
    [
        (linalg._Dense, gen_example_k(4).dense_a()),
        (linalg._Tridiagonal, _path_laplacian_plus_identity(20)),
    ],
    ids=["dense", "tridiagonal"],
)
def test_condition_3b_is_one_elimination(monkeypatch, storage, a):
    calls = []
    inner = storage.eliminate

    def counted(*args):
        calls.append(storage)
        return inner(*args)

    monkeypatch.setattr(storage, "eliminate", counted)
    ok, v = check_condition_3b(a)
    assert ok and calls == [storage]
    assert_allclose(v, np.ones(v.size), rtol=1e-12)
    calls.clear()
    assert diagnostics(a).satisfies_3b and calls == [storage]


# ------------------------------------------------ one-pass certificate engine


def _ex1_inverse_norm(n):
    """||A^-1|| = rho(|A^-1|) = 1 / (7 - 4 cos(pi / (n + 1))) for ex1."""
    return 1.0 / (7.0 - 4.0 * np.cos(np.pi / (n + 1)))


@pytest.mark.parametrize("n", [50, 500, 10_000])
def test_ex1_diagnostics_match_closed_form(n, no_dense_tridiagonal):
    d = diagnostics(gen_example1(n).a)
    assert d.is_z and d.satisfies_3a and not d.satisfies_3b
    ref = _ex1_inverse_norm(n)
    assert d.norm_a_inv == pytest.approx(ref, rel=1e-12)
    assert d.rho_abs_a_inv == pytest.approx(ref, rel=1e-12)
    assert not any("estimate" in note for note in d.notes)


def test_symmetric_tridiagonal_diagnostics_bisect_once(monkeypatch):
    # sigma_min and lambda_min of a symmetric M-matrix are the same value
    calls = []
    inner = linalg._lowest_eigenvalue

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(linalg, "_lowest_eigenvalue", counted)
    d = diagnostics(gen_example1(50).a)
    assert len(calls) == 1
    assert d.norm_a_inv == d.rho_abs_a_inv == pytest.approx(_ex1_inverse_norm(50), rel=1e-12)


def _uncoupled_path_laplacians(n):
    """I + two path Laplacians with no coupling: A - I is a singular,
    reducible Z-matrix."""
    off = -np.ones(n - 1)
    off[n // 2 - 1] = 0.0
    degree = np.r_[0.0, -off] + np.r_[-off, 0.0]
    return TridiagonalMatrix(off, 1.0 + degree, off)


def _uncoupled_ones_blocks(n):
    """Blocks [[1, 1], [1, 1]] with no coupling: a singular A whose A - I is
    not a Z-matrix."""
    off = np.zeros(n - 1)
    off[::2] = 1.0
    return TridiagonalMatrix(off, np.ones(n), off)


def test_singular_z_note_stays_banded(no_dense_tridiagonal):
    d = diagnostics(_uncoupled_path_laplacians(10_000))
    assert d.is_z and not d.satisfies_3a and not d.satisfies_3b
    assert "A - I is a singular Z-matrix but fails the irreducible-kernel probe" in d.notes
    # A = I + L is a nonsingular M-matrix whose smallest eigenvalue is 1
    assert d.rho_abs_a_inv == pytest.approx(1.0, rel=1e-12)
    assert d.norm_a_inv == pytest.approx(1.0, rel=1e-12)


def test_singular_a_stays_banded(no_dense_tridiagonal):
    d = diagnostics(_uncoupled_ones_blocks(10_000))
    assert not d.is_z and d.norm_a_inv is None and d.rho_abs_a_inv is None
    assert "A is singular; inverse-based diagnostics unavailable" in d.notes


def test_rho_abs_inverse_of_unit_triangular_m_matrix_is_one():
    # A = I + U with U strictly upper triangular and <= 0: |A^-1| = A^-1 is
    # unit upper triangular, so its Perron root is exactly 1
    rng = np.random.default_rng(12)
    for n in (2, 5, 12, 40):
        a = np.eye(n) + np.triu(-rng.uniform(0.1, 1.1, (n, n)), 1)
        d = diagnostics(a)
        assert d.rho_abs_a_inv == pytest.approx(1.0, abs=1e-12)
        sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
        assert d.norm_a_inv == pytest.approx(1.0 / sigma_min, rel=1e-10)
        assert not any("estimate" in note for note in d.notes)


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("n", [24, 40])
def test_m_matrix_with_inverse_beyond_working_precision_is_not_singular(n, banded):
    # A = 2I - 10L, L the unit subdiagonal: A^-1 has entries 5^k / 2, so
    # sigma_min(A) is below rounding, yet A - I is a nonsingular M-matrix
    # and rho(|A^-1|) = 1 / lambda_min(A) = 1/2
    a = TridiagonalMatrix(np.full(n - 1, -10.0), np.full(n, 2.0), np.zeros(n - 1))
    d = diagnostics(a if banded else a.to_dense())
    assert d.satisfies_3a
    assert not any("A is singular" in note for note in d.notes)
    assert d.rho_abs_a_inv == pytest.approx(0.5, abs=1e-12)


def test_rho_abs_inverse_outside_m_matrices():
    # A^-1 <= 0 entrywise
    d = diagnostics(-np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert d.rho_abs_a_inv == pytest.approx(1.0, rel=1e-14)
    assert d.norm_a_inv == pytest.approx(1.0, rel=1e-14)
    # A^-1 of mixed sign
    a = np.array([[1.0, -0.01], [0.01, 1.0]])
    inv = np.linalg.inv(a)
    d = diagnostics(a)
    assert d.norm_a_inv == pytest.approx(np.linalg.norm(inv, 2), rel=1e-12)
    want = np.abs(np.linalg.eigvals(np.abs(inv))).max()
    assert d.rho_abs_a_inv == pytest.approx(want, rel=1e-12)
    # tridiag(1, 4, 1): S A S = tridiag(-1, 4, -1) with S = diag((-1)^i), so
    # |A^-1| = (S A S)^-1 and rho(|A^-1|) = 1 / (4 - 2 cos(pi / (n + 1)))
    n = 300
    d = diagnostics(TridiagonalMatrix(np.ones(n - 1), 4.0 * np.ones(n), np.ones(n - 1)))
    want = 1.0 / (4.0 - 2.0 * np.cos(np.pi / (n + 1)))
    assert d.rho_abs_a_inv == pytest.approx(want, rel=1e-12)
    assert not any("estimate" in note for note in d.notes)
    # dense A = N(0, 1) + 3 sqrt(n) I, whose inverse has both signs
    n = 12
    a = np.random.default_rng(7).standard_normal((n, n)) + 3.0 * np.sqrt(n) * np.eye(n)
    inv = np.linalg.inv(a)
    assert inv.min() < 0.0 < inv.max()
    want = np.abs(np.linalg.eigvals(np.abs(inv))).max()
    assert diagnostics(a).rho_abs_a_inv == pytest.approx(want, rel=1e-12)


def _reference_is_m(a, tols):
    """The former inverse-entry M-matrix test."""
    entry_slack = 1e-9  # relative slack on negative entries of the inverse
    n = a.shape[0]
    if not np.all(a[~np.eye(n, dtype=bool)] <= tols.zero_tol):
        return False
    if lu_factor(a, tols.rank_tol).singular:
        return False
    inv = np.linalg.inv(a)
    return bool(inv.min() >= -entry_slack * np.abs(inv).max())


def _reference_3b(a, tols):
    """The former (3b) check: LU kernel of (A - I)^T, inverse entries, and
    an M-matrix test of A - I shifted by EPS_SHIFT_REL times its scale."""
    EPS_SHIFT_REL = 1e-8
    n = a.shape[0]
    ai = a - np.eye(n)
    if not np.all(ai[~np.eye(n, dtype=bool)] <= tols.zero_tol):
        return False, None
    ns = null_space_left(ai, tols.rank_tol)
    if ns.dimension != 1 or not (ns.basis_vector > 0).all():
        return False, None
    if not _structure(ai).is_irreducible(tols.zero_tol):
        return False, None
    scale = float(np.abs(ai).max())
    eps = EPS_SHIFT_REL * (scale if scale > 0.0 else 1.0)
    if not _reference_is_m(ai + eps * np.eye(n), tols):
        return False, None
    return True, ns.basis_vector


def _parity_matrices():
    for n in range(2, 61):
        for seed in (n, 100 + n):
            yield gen_random_3a(n, seed).dense_a()
            yield gen_random_3b(n, seed).dense_a()
    for k in (2, 3, 4, 5):
        yield gen_example_k(k).dense_a()
    # Z-matrices A - I = f rho(P) I - P on both sides of the M-matrix boundary
    rng = np.random.default_rng(5)
    for n in (3, 8, 20, 40):
        for f in (0.9, 0.999, 0.99999, 1.00001, 1.001, 1.1):
            pm = rng.uniform(0.0, 1.0, (n, n))
            rho = np.abs(np.linalg.eigvals(pm)).max()
            yield (1.0 + f * rho) * np.eye(n) - pm


def test_pivot_test_matches_inverse_entry_test():
    tols = Tolerances()
    count = 0
    for a in _parity_matrices():
        n = a.shape[0]
        ai = a - np.eye(n)
        assert is_m_matrix(ai) == _reference_is_m(ai, tols)
        assert is_m_matrix(a) == _reference_is_m(a, tols)
        assert check_condition_3a(a) == _reference_is_m(ai, tols)
        ok, v = check_condition_3b(a)
        ref_ok, ref_v = _reference_3b(a, tols)
        assert ok == ref_ok
        if ok:
            assert np.abs(v - ref_v).max() <= 1e-10
        # diagnostics reads the same certificate routine
        d = diagnostics(a)
        assert d.satisfies_3a == check_condition_3a(a)
        assert d.satisfies_3b == ok
        assert (d.v is None) == (v is None)
        if ok:
            assert np.array_equal(d.v, v)
        count += 1
    assert count == 4 * 59 + 4 + 24


def _tridiagonal_cases(rng):
    """(kind, matrix) pairs: certified (3a)/(3b), mixed-sign, symmetric
    indefinite, singular and ill-conditioned tridiagonal matrices."""
    for n in (1, 2, 3, 7, 30):
        sub = -rng.uniform(0.1, 1.1, n - 1)
        sup = -rng.uniform(0.1, 1.1, n - 1)
        pad_sub, pad_sup = np.r_[np.abs(sub), 0.0], np.r_[0.0, np.abs(sup)]
        yield "3a", TridiagonalMatrix(sub, 1.0 + pad_sub + pad_sup + rng.uniform(0.1, 1.0, n), sup)
        # main diagonal chosen so that v > 0 is a left null vector of A - I
        v = rng.uniform(0.5, 1.5, n)
        col = np.zeros(n)
        col[1:] += v[:-1] * sup
        col[:-1] += v[1:] * sub
        yield "3b", TridiagonalMatrix(sub, 1.0 - col / v, sup)
        yield "mixed", TridiagonalMatrix(
            rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1)
        )
        yield "symmetric", TridiagonalMatrix(sub, rng.uniform(-1.0, 3.0, n), sub)
        yield "singular", TridiagonalMatrix(np.zeros(n - 1), np.r_[0.0, np.ones(n - 1)], np.zeros(n - 1))
    for n in (4, 7, 10):
        yield "reducible singular Z", _uncoupled_path_laplacians(n)
        yield "singular non-Z", _uncoupled_ones_blocks(n)
    for n in (8, 15, 20):
        # A - I is an upper bidiagonal nonsingular M-matrix and ||A^-1|| grows
        # like 5^n, far past where the eigenvalues of A^T A are only rounding
        yield "3a", TridiagonalMatrix(np.zeros(n - 1), np.full(n, 2.0), np.full(n - 1, -10.0))


def _shifted_solve(s, d, b):
    try:
        return s.shifted(-d).solve(b)
    except SingularSystem:
        return None


def test_tridiagonal_engine_matches_dense_engine():
    rng = np.random.default_rng(3)
    kinds = set()
    for kind, t in _tridiagonal_cases(rng):
        # the storages' own operations: a product, and a Newton step's solve
        # with A - diag(d) for a fixed sign vector d
        banded, dense = linalg._structure(t), linalg._structure(t.to_dense())
        x = np.linspace(-1.0, 1.0, t.n)
        assert_allclose(banded.matvec(x), dense.matvec(x), rtol=0, atol=1e-12 * t.scale)
        d = np.where(np.arange(t.n) % 2, 1.0, -1.0)
        step, step_dense = (_shifted_solve(s, d, np.ones(t.n)) for s in (banded, dense))
        assert (step is None) == (step_dense is None), (kind, t.n)
        if step_dense is not None:
            assert np.abs(step - step_dense).max() <= 1e-12 * np.abs(step_dense).max(), (kind, t.n)
        got, want = diagnostics(t), diagnostics(t.to_dense())
        assert (got.is_z, got.satisfies_3a, got.satisfies_3b) == (
            want.is_z,
            want.satisfies_3a,
            want.satisfies_3b,
        ), (kind, t.n)
        assert got.notes == want.notes
        for key in ("norm_a_inv", "rho_abs_a_inv"):
            g, w = getattr(got, key), getattr(want, key)
            assert (g is None) == (w is None)
            if w is not None:
                assert g == pytest.approx(w, rel=1e-9), (kind, t.n, key)
        if want.v is not None:
            assert np.abs(got.v - want.v).max() <= 1e-10
        kinds.add((kind, got.satisfies_3a, got.satisfies_3b))
    assert ("3a", True, False) in kinds and ("3b", False, True) in kinds

