"""Dense and tridiagonal linear-system kernels plus spectral diagnostics.

Dense factorizations are delegated to LAPACK through scipy; elimination
without pivoting (dense, blocked, and the O(n) tridiagonal recurrence),
the Thomas sweep, power iterations, kernel extraction, and the
irreducibility check are written out here because their exact behavior
(tolerances, flags, stopping points, deterministic starting vectors) is
part of the library contract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularSystem

DEFAULT_RANK_TOL = 1e-10
DEFAULT_POWER_TOL = 1e-10
DEFAULT_POWER_MAX_ITER = 10_000
# Panel width of lu_nopivot: wide enough that the trailing updates are
# BLAS-3 products, narrow enough that the per-column Python loop is cheap.
NOPIVOT_BLOCK = 32


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LuFactorization:
    """Partial-pivoting LU factorization of a square matrix.

    ``packed`` holds U on and above the diagonal and the unit-lower
    multipliers strictly below it (LAPACK getrf layout), with the row
    interchanges in ``ipiv``.  ``singular`` is set when any pivot magnitude
    falls below ``rank_tol`` times the largest entry magnitude of the
    input.
    """

    packed: np.ndarray
    ipiv: np.ndarray
    singular: bool
    rank_tol: float

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    @property
    def upper(self) -> np.ndarray:
        return np.triu(self.packed)


def lu_factor(m, rank_tol: float = DEFAULT_RANK_TOL) -> LuFactorization:
    """Factor a square matrix, flagging singularity instead of raising."""
    a = _square(m)
    scale = float(np.abs(a).max())
    with warnings.catch_warnings():
        # exact singularity is an expected, flagged outcome here
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        packed, ipiv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(packed))
    singular = scale == 0.0 or bool(np.any(pivots < rank_tol * scale))
    return LuFactorization(_freeze(packed), _freeze(np.asarray(ipiv)), singular, rank_tol)


def singular_flags(stack: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """``lu_factor(m, rank_tol).singular`` for every matrix m of a stack.

    Each matrix goes through the same LAPACK getrf call as in
    :func:`lu_factor`, so the pivots and flags are bit-identical; the
    factors are discarded.  The stack must be finite.
    """
    getrf = scipy.linalg.lapack.dgetrf
    # work[k].T is matrix k, column-major, so getrf factors it in place
    work = np.ascontiguousarray(np.swapaxes(stack, 1, 2), dtype=float)
    for w in work:
        getrf(w.T, overwrite_a=True)
    pivots = np.abs(np.diagonal(work, axis1=1, axis2=2))
    scale = np.abs(stack).max(axis=(1, 2))
    return (scale == 0.0) | np.any(pivots < rank_tol * scale[:, None], axis=1)


def solve(f: LuFactorization, rhs) -> np.ndarray:
    """Solve the factored system against a vector right-hand side."""
    if f.singular:
        raise SingularSystem(
            f"matrix is singular to rank tolerance {f.rank_tol:g}"
        )
    b = np.asarray(rhs, dtype=float)
    if b.shape != (f.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({f.n},)")
    return scipy.linalg.lu_solve((f.packed, f.ipiv), b, check_finite=False)


def inverse(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Explicit inverse via LU; raises SingularSystem on rank deficiency."""
    f = lu_factor(m, rank_tol)
    if f.singular:
        raise SingularSystem(
            f"matrix is singular to rank tolerance {rank_tol:g}; no inverse"
        )
    return scipy.linalg.lu_solve((f.packed, f.ipiv), np.eye(f.n), check_finite=False)


def lu_nopivot(m, floor: float) -> tuple[np.ndarray, int]:
    """Gaussian elimination without row exchanges, blocked right-looking.

    Returns the packed factors (unit-lower multipliers strictly below the
    diagonal, U on and above it) and the number k of leading pivots above
    ``floor``.  Elimination stops at the first pivot that is not, so when
    k < n only pivots 0..k and the multipliers of columns 0..k-1 are
    meaningful.  For a Z-matrix the pivots are the ratios of consecutive
    leading principal minors.
    """
    u = np.array(_square(m))
    n = u.shape[0]
    for s in range(0, n, NOPIVOT_BLOCK):
        e = min(s + NOPIVOT_BLOCK, n)
        for k in range(s, e):
            if not u[k, k] > floor:
                return u, k
            u[k + 1 :, k] /= u[k, k]
            u[k + 1 :, k + 1 : e] -= np.outer(u[k + 1 :, k], u[k, k + 1 : e])
        if e < n:
            u[s:e, e:] = scipy.linalg.solve_triangular(
                u[s:e, s:e], u[s:e, e:], lower=True, unit_diagonal=True, check_finite=False
            )
            u[e:, e:] -= u[e:, s:e] @ u[s:e, e:]
    return u, n


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Banded storage for a tridiagonal matrix: sub, main, super diagonals."""

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        main = np.asarray(self.main, dtype=float)
        sub = np.asarray(self.sub, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        if main.ndim != 1 or main.shape[0] == 0:
            raise ValueError("main diagonal must be a nonempty vector")
        n = main.shape[0]
        if sub.shape != (n - 1,) or sup.shape != (n - 1,):
            raise ValueError(
                f"off-diagonals must have length {n - 1}, got {sub.shape} and {sup.shape}"
            )
        for d in (sub, main, sup):
            if not np.isfinite(d).all():
                raise ValueError("diagonal entries must be finite")
        object.__setattr__(self, "sub", _freeze(sub.copy()))
        object.__setattr__(self, "main", _freeze(main.copy()))
        object.__setattr__(self, "sup", _freeze(sup.copy()))

    @property
    def n(self) -> int:
        return self.main.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.n},)")
        y = self.main * x
        if self.n > 1:
            y[:-1] += self.sup * x[1:]
            y[1:] += self.sub * x[:-1]
        return y

    def to_dense(self) -> np.ndarray:
        d = np.diag(self.main)
        if self.n > 1:
            d += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return d


def tridiag_pivots(t: TridiagonalMatrix, floor: float) -> np.ndarray:
    """Pivots of LU without pivoting in O(n): p_0 = m_0 and
    p_i = m_i - sub_{i-1} sup_{i-1} / p_{i-1}.

    Stops after the first pivot that is not above ``floor``, so every
    returned pivot but the last is above it.
    """
    main = t.main.tolist()
    coupling = (t.sub * t.sup).tolist()
    pivots = [main[0]]
    for m, c in zip(main[1:], coupling):
        if not pivots[-1] > floor:
            break
        pivots.append(m - c / pivots[-1])
    return np.array(pivots)


def tridiag_solve(t: TridiagonalMatrix, rhs) -> np.ndarray:
    """Thomas-algorithm solve in O(n); raises SingularSystem on a zero pivot."""
    b = np.asarray(rhs, dtype=float)
    n = t.n
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
    cp = np.empty(max(n - 1, 0))
    x = np.empty(n)
    denom = t.main[0]
    if denom == 0.0:
        raise SingularSystem("zero pivot in row 0")
    if n > 1:
        cp[0] = t.sup[0] / denom
    x[0] = b[0] / denom
    for i in range(1, n):
        denom = t.main[i] - t.sub[i - 1] * cp[i - 1]
        if denom == 0.0:
            raise SingularSystem(f"zero pivot in row {i}")
        if i < n - 1:
            cp[i] = t.sup[i] / denom
        x[i] = (b[i] - t.sub[i - 1] * x[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


@dataclass(frozen=True)
class PowerIterationResult:
    """Spectral estimate with a convergence flag.

    ``converged`` is False when the iteration cap was hit before successive
    estimates agreed to the requested relative tolerance; ``value`` is then
    the best (final) estimate rather than an error.
    """

    value: float
    converged: bool
    iterations: int


def spectral_norm(
    m, tol: float = DEFAULT_POWER_TOL, max_iter: int = DEFAULT_POWER_MAX_ITER
) -> PowerIterationResult:
    """Largest singular value by power iteration on M^T M.

    The Rayleigh estimate is monotone nondecreasing for the symmetric
    positive-semidefinite product, so the final value is a valid lower
    bound even when the convergence flag is False.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if np.abs(a).max() == 0.0:
        return PowerIterationResult(0.0, True, 0)
    cols = a.shape[1]
    v = np.ones(cols) / np.sqrt(cols)
    restart = 0
    est = 0.0
    est_prev = None
    for k in range(1, max_iter + 1):
        w = a @ v
        est = float(np.linalg.norm(w))
        if est == 0.0:
            # start vector was in the kernel; restart from a basis vector
            if restart >= cols:
                return PowerIterationResult(0.0, True, k)
            v = np.zeros(cols)
            v[restart] = 1.0
            restart += 1
            est_prev = None
            continue
        u = a.T @ w
        v = u / np.linalg.norm(u)
        if est_prev is not None and abs(est - est_prev) <= tol * est:
            return PowerIterationResult(est, True, k)
        est_prev = est
    return PowerIterationResult(est, False, max_iter)


def spectral_radius_nonneg(
    m, tol: float = DEFAULT_POWER_TOL, max_iter: int = DEFAULT_POWER_MAX_ITER
) -> PowerIterationResult:
    """Perron root of an entrywise-nonnegative matrix, from the ones vector.

    The iteration runs on M + cI with c = max(M)/2 and subtracts c at the
    end; the shift is exact for nonnegative M and suppresses the
    oscillation that periodic (e.g. permutation-like) matrices would
    otherwise cause.
    """
    a = _square(m)
    if (a < 0).any():
        raise ValueError("matrix must be entrywise nonnegative")
    scale = float(a.max())
    if scale == 0.0:
        return PowerIterationResult(0.0, True, 0)
    shift = 0.5 * scale
    n = a.shape[0]
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    est_prev = None
    for k in range(1, max_iter + 1):
        w = a @ v + shift * v
        est = float(v @ w)
        v = w / np.linalg.norm(w)
        if est_prev is not None and abs(est - est_prev) <= tol * max(abs(est), 1e-30):
            return PowerIterationResult(max(est - shift, 0.0), True, k)
        est_prev = est
    return PowerIterationResult(max(est - shift, 0.0), False, max_iter)


@dataclass(frozen=True)
class NullSpaceResult:
    """Kernel summary for the transpose of a queried matrix.

    ``basis_vector`` is present exactly when the kernel is one-dimensional,
    normalized to unit max-entry with its largest-magnitude entry positive.
    """

    dimension: int
    basis_vector: np.ndarray | None
    rank_tolerance: float


def null_space_left(m, rank_tol: float = DEFAULT_RANK_TOL) -> NullSpaceResult:
    """Dimension (and 1-D basis) of the left kernel {v : v^T M = 0}.

    Rank decisions reuse the LU pivot criterion of :func:`lu_factor` on
    M^T, so dimension zero coincides exactly with a nonsingular report
    there at the same tolerance.
    """
    a = _square(m)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        basis = _freeze(np.ones(1)) if n == 1 else None
        return NullSpaceResult(n, basis, rank_tol)
    f = lu_factor(a.T, rank_tol)
    u = f.upper
    small = np.flatnonzero(np.abs(np.diag(u)) < rank_tol * scale)
    if small.size != 1:
        return NullSpaceResult(int(small.size), None, rank_tol)
    k = int(small[0])
    v = np.zeros(n)
    v[k] = 1.0
    for i in range(k - 1, -1, -1):
        v[i] = -(u[i, i + 1 : k + 1] @ v[i + 1 : k + 1]) / u[i, i]
    v = v / v[np.argmax(np.abs(v))]
    return NullSpaceResult(1, _freeze(v), rank_tol)


def is_irreducible(m, zero_tol: float = 0.0) -> bool:
    """True iff the directed graph of off-diagonal entries above ``zero_tol``
    in magnitude is strongly connected."""
    a = _square(m)
    n = a.shape[0]
    if n == 1:
        return True
    adj = np.abs(a) > zero_tol
    np.fill_diagonal(adj, False)
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())
