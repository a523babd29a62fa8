"""Exhaustive ground truth for small problems by sign-pattern enumeration.

Every solution of A x - |x| = b satisfies (A - diag(s)) x = b for some
s in {-1, +1}^n: components of x that are zero are consistent with either
sign choice because diag(s) x = |x| is unaffected by zeros, so the
2^n patterns cover all solutions without enumerating zeros explicitly.
This is deliberately brute force; the problem family is NP-hard in
general, and the point here is an independent verifier, not scale.

One elimination over the prefix tree of the patterns
(:func:`avekit.linalg.pattern_solve`) flags the singular patterns and
solves the others.  A singular pattern whose least LU pivot is within
n eps of its largest entry first gets R of its step matrix's transpose,
from one batched QR: when R has exactly one diagonal at most n eps times
its largest, the left null vector y it gives decides the branch
inconsistent once |y.b| / |y| exceeds RANGE_MARGIN = 10 times the range
tolerance.  Every other singular pattern, the ones within that margin and
the ones with no tiny diagonal or more than one, goes through a stacked
SVD, which gives every consistent flag and every kernel.  So the
enumeration runs on numpy alone; only a singular branch with a kernel of
dimension 2 or more loads scipy, for ``linprog``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _record
from .core import AveProblem, residual
from .errors import DimensionTooLarge
from .linalg import DEFAULT_RANK_TOL, pattern_solve

MAX_ENUMERATION_N = 20
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_DEDUP_TOL = 1e-10
# Kernel entries this far below the largest count as zero in the
# one-dimensional consistency test; linprog (HiGHS) likewise drops
# constraint coefficients below 1e-9.
KERNEL_ZERO_TOL = 1e-9
# The enumeration's working-memory budget, in bytes.  Measured with
# tracemalloc, a batch of the shared-prefix solve and its sign test peaks
# at about 30 n bytes a pattern (372 at n = 12, 475 at n = 16, 579 at
# n = 20), and a chunk of singular step matrices A - diag(s) in the
# stacked SVD at about 28 n^2 (the matrices, u, vt and a work copy); in
# the QR, which holds the transposed matrices, a work copy and R, at
# about 26 n^2.
# Batches are sized at 32 n bytes a pattern, and a batch is the largest
# power of two within the budget, so that it is one subtree of the prefix
# tree, with a single node at each level above it: 4096 patterns at n = 12
# to 20, that is 1, 16 and 256 batches at n = 12, 16 and 20.  Chunks are
# sized at 32 n^2 bytes a pattern within a quarter of the budget (142
# patterns at n = 12, 51 at n = 20), because the stacked SVD slows once
# its arrays outgrow the core's cache: 4095 singular patterns at n = 12
# took about 4 ms more in chunks of 568 than of 227.  Memory stays flat
# in n.
CHUNK_BYTES = 5 << 19
EPS = np.finfo(float).eps
# A singular branch whose left null vector y, from R of the step matrix's
# QR, gives |y.b| / |y| beyond this many times the range tolerance is
# inconsistent without an SVD (see _off_range); the factor covers the
# rounding of y.
RANGE_MARGIN = 10.0


@_record.frozen
class SingularBranch:
    """A sign pattern whose step matrix A - diag(s) is singular.

    ``consistent`` means b lies in the range of that matrix and the
    residual-minimal affine family contains a sign-consistent point, i.e.
    the branch indicates a solution continuum.
    """

    pattern: tuple[int, ...]
    consistent: bool


@_record.frozen
class SolutionSet:
    """Deduplicated isolated solutions plus flags for singular branches."""

    isolated: tuple[np.ndarray, ...]
    singular_branches: tuple[SingularBranch, ...]
    exhaustive_bound: int

    def count(self) -> SolutionCount:
        """Zero / One / FinitelyMany(k), or ContinuumSuspected when any
        singular branch is consistent."""
        if any(br.consistent for br in self.singular_branches):
            return SolutionCount(SolutionCountKind.CONTINUUM_SUSPECTED)
        k = len(self.isolated)
        if k == 0:
            return SolutionCount(SolutionCountKind.ZERO, 0)
        if k == 1:
            return SolutionCount(SolutionCountKind.ONE, 1)
        return SolutionCount(SolutionCountKind.FINITELY_MANY, k)


class SolutionCountKind(str, Enum):
    ZERO = "Zero"
    ONE = "One"
    FINITELY_MANY = "FinitelyMany"
    CONTINUUM_SUSPECTED = "ContinuumSuspected"


@_record.frozen
class SolutionCount:
    """The summary of a :class:`SolutionSet`: its kind, and the number of
    isolated solutions, which is None for ContinuumSuspected."""

    kind: SolutionCountKind
    count: int | None = None


def _sign_consistent_affine(
    x0: np.ndarray, kernel: np.ndarray, s: np.ndarray, tol: float
) -> bool:
    """Does x0 + kernel @ t contain a point with s_i * x_i >= -tol for all i?

    With y = s * x0, row i asks y_i + a_i t >= -tol for a = s * kernel.
    On a one-dimensional kernel each row with a_i != 0 is a half-line in t
    and a row with a_i = 0 asks y_i >= -tol, so the set is an interval,
    decided here; larger kernels go to linprog.  Entries of a below
    KERNEL_ZERO_TOL times its largest count as zero: they are rounding
    noise of the SVD, whose half-lines would start near |t| = 1e16.
    """
    y = s * x0
    if kernel.shape[1] == 0:
        return bool(np.all(y >= -tol))
    if kernel.shape[1] == 1:
        a = s * kernel[:, 0]
        a[np.abs(a) <= KERNEL_ZERO_TOL * np.abs(a).max()] = 0.0
        up, down = a > 0.0, a < 0.0
        lo = np.max((-tol - y[up]) / a[up], initial=-np.inf)
        hi = np.min((-tol - y[down]) / a[down], initial=np.inf)
        return bool(np.all(y[a == 0.0] >= -tol) and lo <= hi)
    # imported here: only singular branches with a kernel of dimension 2
    # or more need it, and it would otherwise add its import time to
    # every command
    from scipy.optimize import linprog

    res = linprog(
        c=np.zeros(kernel.shape[1]),
        A_ub=-(s[:, None] * kernel),
        b_ub=y + tol,
        bounds=(None, None),
        method="highs",
    )
    return res.status == 0


def enumerate_solutions(p: AveProblem, verify_tol: float = DEFAULT_VERIFY_TOL) -> SolutionSet:
    """Solve (A - diag(s)) x = b for every s in {-1, +1}^n.

    A candidate is accepted when it is sign-consistent with its pattern
    (s_i * x_i >= -DEFAULT_DEDUP_TOL) and independently re-verified through
    the residual, then deduplicated in max-norm.  Patterns with a singular
    step matrix get a least-squares consistency probe: the branch is
    consistent when the minimal-residual solution family reaches relative
    residual verify_tol * ||b|| and contains a sign-consistent point.

    Patterns run in ``itertools.product((-1, 1), repeat=n)`` order.  A
    batch of them gets its singularity flags, least pivots and the
    solutions of its nonsingular patterns from one shared-prefix
    elimination; step matrices are built only for its singular patterns,
    which go in chunks through two steps.  The patterns whose least pivot
    is at most n eps times their largest entry get one batched QR of the
    transposed step matrices; a matrix whose R has exactly one diagonal at
    most n eps times its largest has a left null vector y, and is
    inconsistent when |y.b| / |y| exceeds RANGE_MARGIN (10) times
    verify_tol * ||b||.  The rest, and every other singular pattern, go
    through a stacked SVD, which decides each consistent branch.
    Solutions and branches keep pattern order.  Batches and chunks are
    sized from the bytes a pattern takes at the peak, about 30 n in a
    batch and 28 n^2 in a chunk, within CHUNK_BYTES: a batch is
    the largest power of two of patterns that fits, 4096 at n = 12 to 20
    (one batch at n = 12, 16 at n = 16 and 256 at n = 20), and a chunk,
    kept to a quarter of the budget, holds 142 singular patterns at
    n = 12, 80 at n = 16 and 51 at n = 20.

    Raises DimensionTooLarge above n = 20, and ValueError when verify_tol
    is negative or not finite.
    """
    if not 0.0 <= verify_tol < np.inf:
        raise ValueError(f"verify_tol must be finite and nonnegative, got {verify_tol}")
    if p.n > MAX_ENUMERATION_N:
        raise DimensionTooLarge(f"enumeration is capped at n = {MAX_ENUMERATION_N}, got n = {p.n}")
    a = p.dense_a()
    b = p.b
    n = p.n
    bnorm = float(np.linalg.norm(b))
    per_chunk = max(1, CHUNK_BYTES // (128 * n * n))
    # a batch of 2^m patterns is one subtree: its patterns share their
    # first n - m signs, and their last m run through the same table in
    # every batch
    m = min(n, max(1, CHUNK_BYTES // (32 * n)).bit_length() - 1)
    per_batch = 1 << m
    signs = np.empty((per_batch, n), np.int8)
    signs[:, n - m :] = _patterns(m, np.arange(per_batch))

    isolated: list[np.ndarray] = []
    branches: list[SingularBranch] = []
    for first in range(0, 2**n, per_batch):
        signs[:, : n - m] = _patterns(n - m, np.array([first >> m]))
        singular, xs, least = pattern_solve(a, b, DEFAULT_RANK_TOL, first, first + per_batch)
        xs = xs[~np.any(signs[~singular] * xs < -DEFAULT_DEDUP_TOL, axis=1)]
        for x in xs:
            if residual(p, x)[1] > verify_tol:
                continue
            if not any(np.max(np.abs(x - y)) <= DEFAULT_DEDUP_TOL for y in isolated):
                isolated.append(x)
        s = signs[singular]
        # a pivot at the rounding level of the largest entry marks a step
        # matrix that is rank-deficient in working precision, whose R is
        # likely to have a tiny diagonal; a pivot that is only small, as
        # in the chain 2I - 10L, gives none, and the QR would settle nothing
        deficient = least[singular] <= n * EPS
        for start in range(0, len(s), per_chunk):
            chunk = slice(start, start + per_chunk)
            branches += _probe_singular(a, b, s[chunk], deficient[chunk], verify_tol * bnorm)
    return SolutionSet(tuple(isolated), tuple(branches), MAX_ENUMERATION_N)


def _patterns(n: int, numbers: np.ndarray) -> np.ndarray:
    """The sign patterns numbered ``numbers`` as rows: the bits, most
    significant first, with -1 for a 0 bit (``itertools.product`` order)."""
    return np.where((numbers[:, None] >> np.arange(n - 1, -1, -1)) & 1, 1.0, -1.0)


def _probe_singular(
    a: np.ndarray, b: np.ndarray, s: np.ndarray, deficient: np.ndarray, range_tol: float
) -> list[SingularBranch]:
    """Branches of the singular step matrices A - diag(s), one for each row
    of s.  The rows flagged ``deficient`` first go through
    :func:`_off_range`, and those it shows off the range are inconsistent.
    The others get one stacked SVD: the least-squares x0 (with the cutoff
    of ``lstsq(rcond=None)``), its residual, and the kernel basis.  Only
    the rows whose residual is within ``range_tol`` get the
    sign-consistency test; the others are inconsistent."""
    settled = np.zeros(len(s), dtype=bool)
    if deficient.any():
        settled[deficient] = _off_range(a, s[deficient], b, range_tol)
    rows = np.flatnonzero(~settled)
    m = a - s[rows, :, None] * np.eye(len(a))
    u, sv, vt = np.linalg.svd(m)
    keep = sv > EPS * m.shape[1] * sv[:, :1]
    coef = np.where(keep, np.einsum("kji,j->ki", u, b) / np.where(keep, sv, 1.0), 0.0)
    x0 = np.einsum("kji,kj->ki", vt, coef)
    ls_residual = np.linalg.norm(np.einsum("kij,kj->ki", m, x0) - b, axis=1)
    consistent = np.zeros(len(s), dtype=bool)
    for k in np.flatnonzero(ls_residual <= range_tol):
        kernel = vt[k][sv[k] <= DEFAULT_RANK_TOL * sv[k, 0]].T
        consistent[rows[k]] = _sign_consistent_affine(x0[k], kernel, s[rows[k]], DEFAULT_DEDUP_TOL)
    return _record.build(
        SingularBranch, zip(map(tuple, s.astype(int).tolist()), consistent.tolist())
    )


def _off_range(a: np.ndarray, s: np.ndarray, b: np.ndarray, range_tol: float) -> np.ndarray:
    """Which of the step matrices m = A - diag(s), one for each row of s,
    leave b off their range by more than RANGE_MARGIN * range_tol, read
    from R of m^T = QR (Golub & Van Loan, *Matrix Computations*, sec. 5.4).

    Only a matrix whose R has exactly one tiny diagonal j, at most n eps
    times its largest, is decided.  Its sigma_min is at most |r_jj| and its
    sigma_max at least that largest diagonal, so the SVD's cutoff drops at
    least one direction.  Its left null vector y, with y_j = 1 and y_i = 0
    below j, solves the rows of R y = 0 above j by back substitution, one
    row of the whole stack at a time; m^T y = Q R y is r_jj times a unit
    vector.  Were r_jj 0, y would lie in the directions the SVD drops, and
    |y.b| / |y| would be at most the SVD's residual; the margin covers
    r_jj and the rounding of y."""
    n = len(a)
    r = np.linalg.qr(a.T - s[:, :, None] * np.eye(n), mode="r")
    d = np.abs(np.diagonal(r, axis1=1, axis2=2))
    tiny = d <= n * EPS * d.max(axis=1, keepdims=True)
    j = np.argmax(tiny, axis=1)
    y = np.zeros((len(s), n))
    y[np.arange(len(s)), j] = 1.0
    # j is the first tiny diagonal, so no division is by a tiny one; y may
    # still overflow where the leading block is ill-conditioned, and a y
    # that is not finite fails the margin test, so the SVD decides its row
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            above = i < j
            dot = np.einsum("kj,kj->k", r[above, i, i + 1 :], y[above, i + 1 :])
            y[above, i] = -dot / r[above, i, i]
        off = np.abs(y @ b) > RANGE_MARGIN * range_tol * np.linalg.norm(y, axis=1)
    return off & (tiny.sum(axis=1) == 1)


def count_solutions(p: AveProblem, verify_tol: float = DEFAULT_VERIFY_TOL) -> SolutionCount:
    """Summarize the enumeration with :meth:`SolutionSet.count`."""
    return enumerate_solutions(p, verify_tol).count()
