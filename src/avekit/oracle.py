"""Exhaustive ground truth for small problems by sign-pattern enumeration.

Every solution of A x - |x| = b satisfies (A - diag(s)) x = b for some
s in {-1, +1}^n: components of x that are zero are consistent with either
sign choice because diag(s) x = |x| is unaffected by zeros, so the
2^n patterns cover all solutions without enumerating zeros explicitly.
This is deliberately brute force; the problem family is NP-hard in
general, and the point here is an independent verifier, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import AveProblem, residual
from .errors import DimensionTooLarge
from .linalg import DEFAULT_RANK_TOL, singular_flags

MAX_ENUMERATION_N = 20
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_DEDUP_TOL = 1e-10
# Bytes of step matrices A - diag(s) handled at once; the stacked solve
# and SVD hold a few copies of a chunk, so memory stays flat in n.
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class SingularBranch:
    """A sign pattern whose step matrix A - diag(s) is singular.

    ``consistent`` means b lies in the range of that matrix and the
    residual-minimal affine family contains a sign-consistent point, i.e.
    the branch indicates a solution continuum.
    """

    pattern: tuple[int, ...]
    consistent: bool


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SolutionCount:
    kind: SolutionCountKind
    count: int | None = None


def _check_size(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise DimensionTooLarge(
            f"enumeration is capped at n = {MAX_ENUMERATION_N}, got n = {n}"
        )


def _sign_consistent_affine(
    x0: np.ndarray, kernel: np.ndarray, s: np.ndarray, tol: float
) -> bool:
    """Does x0 + kernel @ t contain a point with s_i * x_i >= -tol for all i?"""
    if kernel.shape[1] == 0:
        return bool(np.all(s * x0 >= -tol))
    # imported here: only consistent singular branches need it, and it
    # would otherwise add its import time to every command
    from scipy.optimize import linprog

    res = linprog(
        c=np.zeros(kernel.shape[1]),
        A_ub=-(s[:, None] * kernel),
        b_ub=s * x0 + tol,
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

    Patterns run in ``itertools.product((-1, 1), repeat=n)`` order, in
    chunks of at most CHUNK_BYTES of step matrices, each chunk through
    stacked LAPACK calls; solutions and branches keep that order.

    Raises DimensionTooLarge above n = 20, and ValueError when verify_tol
    is negative or not finite.
    """
    if not 0.0 <= verify_tol < np.inf:
        raise ValueError(f"verify_tol must be finite and nonnegative, got {verify_tol}")
    _check_size(p.n)
    a = p.dense_a()
    b = p.b
    n = p.n
    bnorm = float(np.linalg.norm(b))
    per_chunk = max(1, CHUNK_BYTES // (8 * n * n))
    diag = np.arange(n)

    isolated: list[np.ndarray] = []
    branches: list[SingularBranch] = []
    for start in range(0, 2**n, per_chunk):
        s = _patterns(n, start, min(start + per_chunk, 2**n))
        m = np.repeat(a[None], s.shape[0], axis=0)  # the stack A - diag(s)
        m[:, diag, diag] -= s
        singular = singular_flags(m, DEFAULT_RANK_TOL)
        ok = ~singular
        xs = np.linalg.solve(m[ok], b)
        for x in xs[~np.any(s[ok] * xs < -DEFAULT_DEDUP_TOL, axis=1)]:
            if residual(p, x)[1] > verify_tol:
                continue
            if not any(np.max(np.abs(x - y)) <= DEFAULT_DEDUP_TOL for y in isolated):
                isolated.append(x)
        branches += _probe_singular(m[singular], b, s[singular], verify_tol * bnorm)
    return SolutionSet(tuple(isolated), tuple(branches), MAX_ENUMERATION_N)


def _patterns(n: int, start: int, stop: int) -> np.ndarray:
    """Sign patterns start..stop-1 as rows: the bits of k, most significant
    first, with -1 for a 0 bit (``itertools.product`` order)."""
    bits = (np.arange(start, stop)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 2.0 * bits - 1.0


def _probe_singular(
    m: np.ndarray, b: np.ndarray, s: np.ndarray, range_tol: float
) -> list[SingularBranch]:
    """Branches of the singular stack m, whose patterns are the rows of s,
    from one stacked SVD: the least-squares x0 (with the cutoff of
    ``lstsq(rcond=None)``), its residual, and the kernel basis."""
    u, sv, vt = np.linalg.svd(m)
    keep = sv > np.finfo(float).eps * m.shape[1] * sv[:, :1]
    coef = np.where(keep, np.einsum("kji,j->ki", u, b) / np.where(keep, sv, 1.0), 0.0)
    x0 = np.einsum("kji,kj->ki", vt, coef)
    ls_residual = np.linalg.norm(np.einsum("kij,kj->ki", m, x0) - b, axis=1)
    out = []
    for k, (pattern, in_range) in enumerate(
        zip(s.astype(int).tolist(), (ls_residual <= range_tol).tolist())
    ):
        consistent = False
        if in_range:
            kernel = vt[k][sv[k] <= DEFAULT_RANK_TOL * sv[k, 0]].T
            consistent = _sign_consistent_affine(x0[k], kernel, s[k], DEFAULT_DEDUP_TOL)
        out.append(SingularBranch(tuple(pattern), consistent))
    return out


def count_solutions(p: AveProblem, verify_tol: float = DEFAULT_VERIFY_TOL) -> SolutionCount:
    """Summarize the enumeration with :meth:`SolutionSet.count`."""
    return enumerate_solutions(p, verify_tol).count()
