"""Dense and tridiagonal linear-system kernels plus spectral diagnostics.

Every kernel here is written out in numpy.  Each storage has one LU loop
with two modes, partial pivoting or none: the blocked :func:`_factor` for
a dense matrix, the O(n) :func:`_tridiag_eliminate` for a tridiagonal one.
Without pivoting both round each pivot alike, so the certificate pivots of
a tridiagonal matrix and of its dense copy are equal bit for bit.  Beside
them are the blocked substitutions, cyclic reduction, the shared-prefix
elimination and solve of ``A - diag(s)`` over sign patterns, one power
iteration, :func:`spectral_radius_nonneg`, which gives ``gen_random_3a``
its pinned draws, and the irreducibility check.  The smallest eigenvalue
of a dense irreducible M-matrix comes from the certificate's pivot-free
factors by a shifted Collatz-Wielandt bracket
(:meth:`_Dense._perron_bracket`): solves y = M^-1 w bound it from both
sides, a refactorization at the lower bound every 3 solves speeds it up,
and it stops 4 rounding units wide; on reducible input, or when it
stalls or reaches 24 solves, a dense ``eigvals`` gives the value.  Their
exact behavior
(tolerances, flags, pivot rows, stopping points, deterministic starting
vectors) is part of the library contract.  The module imports
``scipy.linalg``, whose import costs more than most CLI calls, in one
place only, lazily: the smallest singular value of a tridiagonal matrix
that is not symmetric positive definite (for ``eigvals_banded``).  Of the
commands, only ``oracle`` on a singular pattern with a kernel of dimension
2 or more (for ``linprog``) and ``classify`` on such a matrix load scipy.

The storage of a matrix, dense or :class:`TridiagonalMatrix`, is picked
in one place, :func:`_structure`; the problem, the Newton step and the
certificates ask the ``_Dense`` or ``_Tridiagonal`` it returns.  Each
kernel that only one storage uses is that class's method.

One rule decides singularity for every partial-pivoting LU, of either
loop or over sign patterns (:func:`pattern_solve`, which also solves the
nonsingular ones): a matrix is singular when it is zero or when a pivot
magnitude falls below ``rank_tol`` times its largest entry magnitude.
:func:`lu_factor` and :func:`pattern_solve` pick getrf's pivot rows but
round as their own loops do (the first is blocked, the second is not,
and getrf scales by the reciprocal pivot), so they and getrf can differ
only on a matrix with a pivot within rounding of that threshold.

A tridiagonal matrix whose every column is strictly diagonally dominant,
by a margin above ``rank_tol`` times its largest entry, is solved by
cyclic reduction in numpy; every other one by the gtsv-order
partial-pivoting loop.  The rule never calls a dominant matrix singular,
so the verdicts are those of the loop, except on a margin within rounding
of the threshold, and the solutions agree with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem

DEFAULT_RANK_TOL = 1e-10
DEFAULT_POWER_TOL = 1e-10
DEFAULT_POWER_MAX_ITER = 10_000
# Panel width of the blocked LU and block size of its substitutions: wide
# enough that the updates are BLAS-3 products, narrow enough that the
# per-column Python loop is cheap.
NOPIVOT_BLOCK = 32
EPS = float(np.finfo(float).eps)
# The Collatz-Wielandt bracket of a dense M-matrix's lambda_min: solves
# between Wielandt shifts, the width at which it stops, in units of
# rounding, and the solves after which it gives way to ``eigvals``.
BRACKET_SHIFT_EVERY = 3
BRACKET_ULPS = 4
BRACKET_MAX_SOLVES = 24


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


def _vector(x, n: int, what: str) -> np.ndarray:
    """``x`` as a float array, which must have shape (n,)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} has shape {v.shape}, expected ({n},)")
    return v


@dataclass(frozen=True)
class LuFactorization:
    """Partial-pivoting LU factorization of a square matrix.

    ``packed`` holds U on and above the diagonal and the unit-lower
    multipliers strictly below it (the LAPACK getrf layout), and ``perm``
    the row order: ``a[perm] = L U`` for the factored matrix ``a``.
    ``singular`` follows the singularity rule of this module.
    """

    packed: np.ndarray
    perm: np.ndarray
    singular: bool
    rank_tol: float

    @property
    def n(self) -> int:
        return self.packed.shape[0]


def _singular(pivots: np.ndarray, scale, rank_tol: float):
    """The singularity rule: a zero matrix, or a pivot magnitude below
    ``rank_tol`` times the largest entry magnitude.

    ``pivots`` holds pivot magnitudes along its last axis and ``scale`` the
    largest entry magnitude of each matrix, so one call decides one matrix
    or a stack.
    """
    scale = np.asarray(scale)
    return (scale == 0.0) | np.any(pivots < rank_tol * scale[..., None], axis=-1)


def _factor(a: np.ndarray, floor: float | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Blocked LU of a copy of ``a`` in Crout (left-looking) order (Golub
    & Van Loan, *Matrix Computations*, sec. 3.4).

    Each panel of ``NOPIVOT_BLOCK`` columns first takes the updates of all
    earlier panels by one matrix product, then is eliminated column by
    column: step k takes the updates of the panel's earlier columns into
    column k, picks the pivot and finishes row k of U inside the panel,
    each by one matrix-vector product.  The block row right of the panel
    then takes the earlier panels' updates by one matrix product and the
    panel's own row by row.  So no step rewrites the whole trailing
    matrix, and every product has a long inner dimension.

    With ``floor`` None, step k interchanges row k with the first row of
    largest magnitude in column k, the row getrf picks, and a zero column
    is left as it is.  Otherwise no rows are interchanged and elimination
    stops at the first pivot that is not above ``floor``.  Returns the
    packed factors, the row order ``perm`` with ``a[perm] = L U`` and the
    number of steps taken.
    """
    u = np.array(a, order="C")
    n = u.shape[0]
    perm = np.arange(n)
    for s in range(0, n, NOPIVOT_BLOCK):
        e = min(s + NOPIVOT_BLOCK, n)
        u[s:, s:e] -= u[s:, :s] @ u[:s, s:e]
        for k in range(s, e):
            if k > s:
                u[k:, k] -= u[k:, s:k] @ u[s:k, k]
            if floor is None:
                i = k + int(np.abs(u[k:, k]).argmax())
                if i != k:
                    row = u[k].copy()
                    u[k] = u[i]
                    u[i] = row
                    perm[k], perm[i] = perm[i], perm[k]
            elif not u[k, k] > floor:
                return u, perm, k
            pivot = u[k, k]
            if pivot != 0.0:
                u[k + 1 :, k] /= pivot
            if k > s:
                u[k, k + 1 : e] -= u[k, s:k] @ u[s:k, k + 1 : e]
        if e < n:
            u[s:e, e:] -= u[s:e, :s] @ u[:s, e:]
            for k in range(s + 1, e):
                u[k, e:] -= u[k, s:k] @ u[s:k, e:]
    return u, perm, n


def triangular_solve(packed: np.ndarray, rhs, lower: bool, trans: bool = False) -> np.ndarray:
    """Solve T x = rhs, or T^T x = rhs when ``trans``, for T the unit-lower
    (``lower``) or the upper triangular factor held in ``packed``.

    Each diagonal block of ``NOPIVOT_BLOCK`` rows is solved as a small
    dense system and the rest of ``rhs`` updated by one matrix product, so
    a vector costs O(n^2) and a matrix of k columns O(k n^2).
    """
    t = packed.T if trans else packed
    x = np.array(rhs, dtype=float)
    n = t.shape[0]
    forward = lower != trans
    starts = range(0, n, NOPIVOT_BLOCK)
    for s in starts if forward else reversed(starts):
        e = min(s + NOPIVOT_BLOCK, n)
        block = packed[s:e, s:e]
        tri = np.tril(block, -1) + np.eye(e - s) if lower else np.triu(block)
        x[s:e] = np.linalg.solve(tri.T if trans else tri, x[s:e])
        if forward:
            x[e:] -= t[e:, s:e] @ x[s:e]
        else:
            x[:s] -= t[:s, s:e] @ x[s:e]
    return x


def lu_factor(m, rank_tol: float = DEFAULT_RANK_TOL) -> LuFactorization:
    """Factor a square matrix, flagging singularity instead of raising."""
    a = _square(m)
    packed, perm, _ = _factor(a, None)
    singular = bool(_singular(np.abs(np.diag(packed)), np.abs(a).max(), rank_tol))
    return LuFactorization(_freeze(packed), _freeze(perm), singular, rank_tol)


def pattern_solve(m, rhs, rank_tol: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """``lu_factor(m - diag(s), rank_tol).singular`` for the sign patterns s
    numbered start..stop-1 in ``itertools.product((-1, 1), repeat=n)``
    order, and the solutions of (m - diag(s)) x = rhs for the nonsingular
    ones, a row each in pattern order.

    Step k of partial-pivoting LU reads only s_0..s_k, so each shared
    prefix is eliminated once.  A node of the prefix tree holds the
    trailing matrix after k steps with two copies of every column j not yet
    decided, for s_j = -1 and s_j = +1, since only column j depends on s_j,
    and ``rhs`` as one more column.  Branching on s_k picks column k's
    copy, takes its first largest magnitude as pivot (the row getrf picks),
    updates every other column with the same multipliers, keeps the pivot
    and the pivot row, and carries the least pivot magnitude and the
    largest entry magnitude of the prefix, which each pattern then passes
    to the singularity rule.  Back-substitution runs from the last level
    up, one gather of pivots and pivot-row entries per level.
    """
    a = _square(m)
    n = a.shape[0]
    b = _vector(rhs, n, "right-hand side")
    if not 0 <= start < stop <= 2**n:
        raise ValueError(f"pattern range [{start}, {stop}) is not within [0, 2^{n})")
    d = np.diagonal(a)
    signs = np.array([-1.0, 1.0])
    # t[node, row, j, c]: column j of the trailing matrix with s_j = signs[c],
    # and the right-hand side as column n of both copies
    t = np.repeat(np.column_stack([a, b])[None, :, :, None], 2, axis=3)
    t[0, np.arange(n), np.arange(n)] -= signs
    scale = np.array([np.abs(a - np.diag(d)).max()])
    least = np.array([np.inf])
    levels = []
    for k in range(n):
        shift = n - 1 - k
        # both children of every node, trimmed to the prefixes of the range
        keep = slice((start >> shift) & 1, 2 * len(t) - 1 + (((stop - 1) >> shift) & 1))
        col = t[:, :, 0].transpose(0, 2, 1).reshape(-1, n - k)[keep]
        t = np.repeat(t[:, :, 1:], 2, axis=0)[keep]
        scale = np.maximum(scale[:, None], np.abs(d[k] - signs)).ravel()[keep]
        rows = np.arange(len(col))
        i = np.argmax(np.abs(col), axis=1)
        pivot = col[rows, i]
        least = np.minimum(np.repeat(least, 2)[keep], np.abs(pivot))
        # swap rows 0 and i, then eliminate below row 0; a zero column
        # (pivot 0) is left as it is, as getrf does
        top = t[rows, i]
        t[rows, i] = t[:, 0]
        col[rows, i] = col[:, 0]
        mult = col[:, 1:] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        t = t[:, 1:] - mult[:, :, None, None] * top[:, None]
        levels.append((pivot, top.reshape(len(top), -1)))
    singular = _singular(least[:, None], scale, rank_tol)
    p = np.arange(start, stop)[~singular]
    x = np.empty((len(p), n))
    # off[:, j] = 2 j + (1 if s_j = 1): the pattern's copy of column j,
    # which the pivot row of level k holds at off[:, j] - 2 (k + 1)
    off = np.empty((len(p), n), np.int8)
    for k in range(n - 1, -1, -1):
        pivot, top = levels.pop()
        prefix = p >> (n - 1 - k)
        node = prefix - (start >> (n - 1 - k))
        dot = np.einsum(
            "ij,ij->i",
            np.take(top, off[:, k + 1 :] + (top.shape[1] * node - 2 * k - 2)[:, None]),
            x[:, k + 1 :],
        )
        x[:, k] = (np.take(top[:, -1], node) - dot) / np.take(pivot, node)
        off[:, k] = 2 * k + (prefix & 1)
    return singular, x


def _lu_solve(f: LuFactorization, rhs: np.ndarray) -> np.ndarray:
    y = triangular_solve(f.packed, rhs[f.perm], lower=True)
    return triangular_solve(f.packed, y, lower=False)


def solve(f: LuFactorization, rhs) -> np.ndarray:
    """Solve the factored system against a vector right-hand side."""
    if f.singular:
        raise SingularSystem(
            f"matrix is singular to rank tolerance {f.rank_tol:g}"
        )
    return _lu_solve(f, _vector(rhs, f.n, "right-hand side"))


def inverse(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Explicit inverse via LU; raises SingularSystem on rank deficiency."""
    f = lu_factor(m, rank_tol)
    if f.singular:
        raise SingularSystem(
            f"matrix is singular to rank tolerance {rank_tol:g}; no inverse"
        )
    return _lu_solve(f, np.eye(f.n))


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

    @property
    def scale(self) -> float:
        """The largest entry magnitude."""
        return float(max(np.abs(d).max(initial=0.0) for d in (self.main, self.sub, self.sup)))

    def matvec(self, x) -> np.ndarray:
        x = _vector(x, self.n, "vector")
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


def _tridiag_eliminate(t: TridiagonalMatrix, rhs: list[float] | None, floor: float | None):
    """The one LU loop of a tridiagonal matrix, O(n), with the two modes of
    :func:`_factor`; each row operation is applied to the list ``rhs`` (of
    length at least n) in place as it is made, unless ``rhs`` is None.

    With ``floor`` None, step i takes row i or row i + 1 as pivot row,
    whichever has the larger entry in column i (row i on a tie): the order
    of LAPACK gtsv and the row choices of getrf on the dense matrix.
    Otherwise no rows are interchanged, elimination stops at the first
    pivot not above ``floor``, and each pivot m_i - (sub/p) sup is rounded
    as the dense loop rounds it.  Returns U's diagonal ``pivots`` and its
    two superdiagonals, ``sup`` and the fill ``sup2``, each padded with
    zeros to length n, and the number of steps taken.
    """
    pivots = t.main.tolist()
    sup = t.sup.tolist() + [0.0]
    sup2 = [0.0] * t.n
    for i, low in enumerate(t.sub.tolist()):
        p = pivots[i]
        if floor is not None and not p > floor:
            return pivots, sup, sup2, i
        if floor is not None or abs(p) >= abs(low):
            if p != 0.0:
                f = low / p
                pivots[i + 1] -= f * sup[i]
                if rhs is not None:
                    rhs[i + 1] -= f * rhs[i]
        else:
            f = p / low
            pivots[i] = low
            sup[i], pivots[i + 1] = pivots[i + 1], sup[i] - f * pivots[i + 1]
            sup2[i] = sup[i + 1]
            sup[i + 1] = -f * sup[i + 1]
            if rhs is not None:
                rhs[i], rhs[i + 1] = rhs[i + 1], rhs[i] - f * rhs[i + 1]
    stopped = floor is not None and not pivots[-1] > floor
    return pivots, sup, sup2, t.n - stopped


def _column_dominant(t: TridiagonalMatrix, rank_tol: float) -> bool:
    """Whether every column j of ``t`` is strictly diagonally dominant by a
    margin |main_j| - |sub_j| - |sup_{j-1}| above ``rank_tol`` times the
    largest entry magnitude.

    Partial pivoting then makes no row interchange, Schur complements keep
    every column's margin, and so every pivot is at least the margin: the
    elimination of :func:`_tridiag_eliminate` never flags such a matrix
    singular at ``rank_tol``, up to rounding of the threshold.
    """
    margin = np.abs(t.main)
    margin[:-1] -= np.abs(t.sub)
    margin[1:] -= np.abs(t.sup)
    return bool(margin.min() > rank_tol * t.scale)


def _cyclic_reduction(t: TridiagonalMatrix, b: np.ndarray) -> np.ndarray:
    """Solve t x = b by odd-even cyclic reduction (Buzbee, Golub &
    Nielson, SIAM J. Numer. Anal. 7, 1970), without pivoting.

    Each level eliminates the unknowns of the even rows from the odd rows,
    which leaves a tridiagonal system of half the size, in a few numpy
    passes; after floor(log2 n) levels one unknown is left, and the levels
    are unwound in reverse, each even unknown from its two odd neighbours.
    This is Gaussian elimination without pivoting on a symmetric
    permutation of ``t``, so on a column diagonally dominant ``t`` its
    growth factor is at most 2.  The levels take O(n) memory in all.
    """
    a = np.concatenate(([0.0], t.sub))  # a[i]: entry (i, i - 1)
    d = t.main
    c = np.concatenate((t.sup, [0.0]))  # c[i]: entry (i, i + 1)
    y = b
    levels = []
    while len(d) > 1:
        levels.append((a, d, c, y))
        if len(d) % 2 == 0:
            # an identity row after the last, so every odd row i has a row
            # i + 1; the last row's c is 0, so the identity row adds nothing
            a, d, c, y = (np.append(v, pad) for v, pad in ((a, 0.0), (d, 1.0), (c, 0.0), (y, 0.0)))
        alpha = -a[1::2] / d[:-1:2]
        gamma = -c[1::2] / d[2::2]
        a, d, c, y = (
            alpha * a[:-1:2],
            d[1::2] + alpha * c[:-1:2] + gamma * a[2::2],
            gamma * c[2::2],
            y[1::2] + alpha * y[:-1:2] + gamma * y[2::2],
        )
    x = y / d
    for a, d, c, y in reversed(levels):
        # the odd unknowns with x_{-1} = x_m = 0 on either side
        odd = np.concatenate(([0.0], x, [0.0]))
        even = len(d) - len(x)
        x = np.empty(len(d))
        x[1::2] = odd[1:-1]
        x[::2] = (y[::2] - a[::2] * odd[:even] - c[::2] * odd[1 : even + 1]) / d[::2]
    return x


def tridiag_solve(t: TridiagonalMatrix, rhs) -> np.ndarray:
    """Solve a tridiagonal system in O(n); raises SingularSystem when the
    partial-pivoting elimination flags it singular at ``DEFAULT_RANK_TOL``.

    A column diagonally dominant matrix (see :func:`_column_dominant`) is
    not flagged, up to rounding of the threshold, and is solved by cyclic
    reduction in floor(log2 n) levels of numpy passes.  Every other matrix
    takes one elimination in the order of LAPACK gtsv and one back
    substitution, a Python loop over the rows.
    The two agree to rounding, not bit for bit.
    """
    b = _vector(rhs, t.n, "right-hand side")
    n = t.n
    if _column_dominant(t, DEFAULT_RANK_TOL):
        return _cyclic_reduction(t, b)
    x = b.tolist() + [0.0, 0.0]
    pivots, sup, sup2, _ = _tridiag_eliminate(t, x, None)
    if _singular(np.abs(pivots), t.scale, DEFAULT_RANK_TOL):
        raise SingularSystem(f"matrix is singular to rank tolerance {DEFAULT_RANK_TOL:g}")
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - sup[i] * x[i + 1] - sup2[i] * x[i + 2]) / pivots[i]
    return np.array(x[:n])


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


def spectral_norm(m) -> PowerIterationResult:
    """Largest singular value, exact, by ``np.linalg.norm(m, 2)``.

    Nothing in the library calls it; the name and the result type stay
    while ``clibench/tracing.py`` wraps it and reads ``iterations`` and
    ``converged``."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return PowerIterationResult(float(np.linalg.norm(a, 2)), True, 0)


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


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())


def _finite(x: np.ndarray) -> np.ndarray:
    """``x``, unless it overflowed: the system is singular to working precision."""
    if not np.isfinite(x).all():
        raise SingularSystem("the solution overflows working precision")
    return x


class _Storage:
    """A matrix ``a`` in the storage that :func:`_structure` picked."""

    tridiagonal = False

    def __init__(self, a: np.ndarray | TridiagonalMatrix):
        self.a = a
        self.n = a.shape[0]


class _Dense(_Storage):
    """Operations on a dense matrix."""

    def to_dense(self) -> np.ndarray:
        return self.a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def shifted(self, c) -> _Dense:
        """A + diag(c) for a scalar or a vector c."""
        a = np.array(self.a)
        a[np.diag_indices(self.n)] += c
        return _Dense(a)

    def solve(self, rhs) -> np.ndarray:
        """x = A^-1 rhs by pivoted LU at ``DEFAULT_RANK_TOL``."""
        return _finite(solve(lu_factor(self.a, DEFAULT_RANK_TOL), rhs))

    def scale(self) -> float:
        return float(np.abs(self.a).max())

    def is_z(self, zero_tol: float) -> bool:
        return bool(np.all(self.a[~np.eye(self.n, dtype=bool)] <= zero_tol))

    def is_symmetric(self, tol: float) -> bool:
        return bool(np.all(np.abs(self.a - self.a.T) <= tol))

    def eliminate(self, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """LU without row exchanges, by the loop of :func:`lu_factor`,
        stopped at the first pivot not above ``floor``: the pivots up to
        and including that one, and the packed factors, whose multipliers
        are meaningful in the columns before it.  For a Z-matrix the
        pivots are the ratios of consecutive leading principal minors."""
        packed, _, k = _factor(self.a, floor)
        return np.diag(packed)[: k + 1], packed

    def left_kernel(self, packed: np.ndarray) -> np.ndarray:
        # A = L U with U's last row zero, so v^T L = e_n^T, one O(n^2)
        # substitution with L^T
        e_n = np.zeros(self.n)
        e_n[-1] = 1.0
        return triangular_solve(packed, e_n, lower=True, trans=True)

    def is_irreducible(self, zero_tol: float) -> bool:
        """Whether the directed graph of the off-diagonal entries above
        ``zero_tol`` in magnitude is strongly connected."""
        if self.n == 1:
            return True
        adj = np.abs(self.a) > zero_tol
        np.fill_diagonal(adj, False)
        return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)

    def singular(self, rank_tol: float) -> bool:
        return lu_factor(self.a, rank_tol).singular

    def inverse(self, rank_tol: float) -> np.ndarray | None:
        """A^-1, or None when A is singular."""
        try:
            return inverse(self.a, rank_tol)
        except SingularSystem:
            return None

    def sigma_min(self, m_matrix: bool = False) -> float:
        """Smallest singular value, from a dense SVD, whose error is about
        eps sigma_max.  When it is at most n eps sigma_max and A is a
        nonsingular M-matrix (``m_matrix``), it is 1/||X||_2 instead, for
        X = A^-1 formed from a pivot-free elimination of A: L^-1, U^-1 >= 0,
        so no entry of X cancels, and an SVD gives its largest singular
        value to relative accuracy.  Only that case pays the O(n^3) of X."""
        sv = np.linalg.svd(self.a, compute_uv=False)
        if m_matrix and sv[-1] <= self.n * EPS * sv[0]:
            pivots, packed = self.eliminate(0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                x = triangular_solve(packed, triangular_solve(packed, np.eye(self.n), True), False)
            if pivots.size == self.n and np.isfinite(x).all():
                return 1.0 / float(np.linalg.svd(x, compute_uv=False)[0])
        return float(sv[-1])

    def lambda_min(self, factors: np.ndarray, shift: float) -> float:
        """Smallest real part of the spectrum, which is real for an
        M-matrix.

        When A is an irreducible nonsingular M-matrix and ``factors`` are
        the pivot-free factors of the M-matrix A - shift I from
        :meth:`eliminate`, it is the shifted Collatz-Wielandt bracket of
        :meth:`_perron_bracket`: on rand3a at n = 400, 6 solves and 1
        refactorization, about 20 ms with the irreducibility test.  On
        reducible A, or when the bracket stalls or reaches its cap, it is a
        dense ``eigvals``, about 0.1 s at n = 400 (one core of a shared
        2-vCPU machine)."""
        if self.is_irreducible(0.0) and (lam := self._perron_bracket(factors, shift)) is not None:
            return lam
        return float(np.linalg.eigvals(self.a).real.min())

    def _perron_bracket(self, packed: np.ndarray, shift: float) -> float | None:
        """lambda_min(A) of an irreducible nonsingular M-matrix A from
        ``packed``, the pivot-free factors of A - shift I, or None when the
        bracket does not close.

        For an M-matrix M = A - t I, M^-1 > 0, and for any w > 0 the vector
        y = M^-1 w, two triangular solves, satisfies
        min(y/w) <= 1/lambda_min(M) <= max(y/w) (Collatz-Wielandt; Horn &
        Johnson, *Matrix Analysis*, sec. 8.1), so lambda_min(A) lies in
        [t + 1/max(y/w), t + 1/min(y/w)].  L^-1, U^-1 >= 0 (Berman &
        Plemmons, ch. 6), so the solves lose nothing to cancellation.
        w <- y is inverse iteration; every ``BRACKET_SHIFT_EVERY`` solves,
        A - lo I at the bracket's lower end lo is factored without pivoting,
        a Wielandt shift that keeps an M-matrix and speeds the iteration,
        unless the elimination stops at a pivot not above
        ``DEFAULT_RANK_TOL`` times the largest entry of A, which keeps the
        previous factors.  The bracket stops when it is ``BRACKET_ULPS``
        units of its upper end wide, and gives its midpoint.  It gives up
        (None) when a solve is not positive and finite, when a cycle of
        solves does not halve the bracket, or after ``BRACKET_MAX_SOLVES``.
        """
        floor = DEFAULT_RANK_TOL * self.scale()
        w = np.ones(self.n)
        lo, hi = -np.inf, np.inf
        last = np.inf  # the bracket's width at the previous shift
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            for k in range(1, BRACKET_MAX_SOLVES + 1):
                y = triangular_solve(packed, triangular_solve(packed, w, lower=True), lower=False)
                r = y / w
                if not (np.isfinite(r).all() and r.min() > 0.0):
                    return None
                lo, hi = max(lo, shift + 1.0 / r.max()), min(hi, shift + 1.0 / r.min())
                if hi - lo <= BRACKET_ULPS * EPS * hi:
                    return float(0.5 * lo + 0.5 * hi)
                w = y / y.max()
                if k % BRACKET_SHIFT_EVERY == 0:
                    if not hi - lo <= 0.5 * last:
                        return None
                    last = hi - lo
                    refactored, _, steps = _factor(self.shifted(-lo).a, floor)
                    if steps == self.n:
                        packed, shift = refactored, lo
        return None


def _lowest_eigenvalue(main: np.ndarray, coupling: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``main`` and squared off-diagonals ``coupling`` (all >= 0).

    Bisection on Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967, the method of LAPACK stebz) in O(n) memory: x is at or above
    the lowest eigenvalue iff T - xI has a nonpositive pivot in LU without
    pivoting, so each count stops at the first one.  The bracket runs
    from the Gershgorin lower bound to the least diagonal entry and is
    halved until it is one rounding unit of its larger end wide.
    """
    d = main.tolist()
    c = [0.0] + coupling.tolist()
    off = np.sqrt(coupling)
    radius = np.zeros(len(d))
    radius[:-1] += off
    radius[1:] += off
    lo = float((main - radius).min())
    hi = min(d)

    def not_below(x: float) -> bool:
        q = 1.0
        for di, ci in zip(d, c):
            q = di - x - ci / q
            if q <= 0.0:
                return True
        return False

    tol = EPS * max(abs(lo), abs(hi))
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if not_below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * lo + 0.5 * hi


class _Tridiagonal(_Storage):
    """Operations on a tridiagonal matrix, O(n) memory each but ``inverse``."""

    tridiagonal = True
    _lambda_min: float | None = None

    def to_dense(self) -> np.ndarray:
        return self.a.to_dense()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a.matvec(x)

    def shifted(self, c) -> _Tridiagonal:
        return _Tridiagonal(TridiagonalMatrix(self.a.sub, self.a.main + c, self.a.sup))

    def solve(self, rhs) -> np.ndarray:
        return _finite(tridiag_solve(self.a, rhs))

    def scale(self) -> float:
        return self.a.scale

    def is_z(self, zero_tol: float) -> bool:
        return bool(np.all(self.a.sub <= zero_tol) and np.all(self.a.sup <= zero_tol))

    def is_symmetric(self, tol: float) -> bool:
        return bool(np.all(np.abs(self.a.sub - self.a.sup) <= tol))

    def eliminate(self, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """The pivots of :meth:`_Dense.eliminate`, bit for bit, from the
        pivot-free mode of :func:`_tridiag_eliminate`; they are the
        factors too."""
        pivots, _, _, k = _tridiag_eliminate(self.a, None, floor)
        pivots = np.array(pivots[: k + 1])
        return pivots, pivots

    def left_kernel(self, pivots: np.ndarray) -> np.ndarray:
        # L has multipliers sub_i / p_i, so L^T v = e_n gives
        # v_i = -(sub_i / p_i) v_{i+1} from v_{n-1} = 1
        ratios = -self.a.sub / pivots[:-1]
        return np.append(np.cumprod(ratios[::-1])[::-1], 1.0)

    def is_irreducible(self, zero_tol: float) -> bool:
        return bool(np.all(np.abs(self.a.sub) > zero_tol) and np.all(np.abs(self.a.sup) > zero_tol))

    def singular(self, rank_tol: float) -> bool:
        """The verdict of the partial-pivoting elimination, in O(n)."""
        pivots = _tridiag_eliminate(self.a, None, None)[0]
        return bool(_singular(np.abs(pivots), self.a.scale, rank_tol))

    def inverse(self, rank_tol: float) -> np.ndarray | None:
        """A^-1 as a dense matrix, or None when A is singular, which is
        decided in O(n) before anything dense is built."""
        return None if self.singular(rank_tol) else _Dense(self.a.to_dense()).inverse(rank_tol)

    def sigma_min(self, m_matrix: bool = False) -> float:
        """Smallest singular value: lambda_min when A is symmetric positive
        definite, else from the banded Jordan-Wielandt matrix.  Both are as
        accurate as a dense SVD, so ``m_matrix``, which
        :meth:`_Dense.sigma_min` reads, changes nothing here."""
        t = self.a
        if np.array_equal(t.sub, t.sup) and (lam := self.lambda_min()) > 0.0:
            return lam
        import scipy.linalg

        # The symmetric [[0, A], [A^T, 0]] has eigenvalues +-sigma_i(A), and
        # interleaving the two halves makes it banded with three
        # superdiagonals (Golub & Van Loan, sec. 8.6).  Its eigenvalue n, in
        # ascending order, is sigma_min(A), to the accuracy of a dense SVD;
        # the normal matrix A^T A would square the condition number.
        band = np.zeros((4, 2 * self.n))
        band[2, 1::2] = t.main
        band[2, 2::2] = t.sub
        band[0, 3::2] = t.sup
        sigma = scipy.linalg.eigvals_banded(
            band, select="i", select_range=(self.n, self.n), check_finite=False
        )[0]
        return abs(float(sigma))

    def lambda_min(self, factors: np.ndarray | None = None, shift: float = 0.0) -> float:
        """Smallest eigenvalue of a Z-matrix, or of a symmetric matrix,
        through the symmetric matrix with off-diagonals sqrt(sub * sup),
        which has the same spectrum; one O(n) Sturm bisection, kept for the
        next call.  It needs no factors: ``factors`` and ``shift``, the
        arguments of :meth:`_Dense.lambda_min`, are ignored."""
        if self._lambda_min is None:
            coupling = np.maximum(self.a.sub * self.a.sup, 0.0)
            self._lambda_min = _lowest_eigenvalue(self.a.main, coupling)
        return self._lambda_min


def _structure(a) -> _Storage:
    """The one place where the storage of a matrix is picked."""
    if isinstance(a, TridiagonalMatrix):
        return _Tridiagonal(a)
    return _Dense(_freeze(np.array(_square(a))))
