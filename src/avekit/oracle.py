"""Exhaustive ground truth for small problems by sign-pattern enumeration.

Every solution of A x - |x| = b satisfies (A - diag(s)) x = b for some
s in {-1, +1}^n: components of x that are zero are consistent with either
sign choice because diag(s) x = |x| is unaffected by zeros, so the
2^n patterns cover all solutions without enumerating zeros explicitly.
This is deliberately brute force; the problem family is NP-hard in
general, and the point here is an independent verifier, not scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import AveProblem, residual
from .errors import DimensionTooLarge
from .linalg import DEFAULT_RANK_TOL, lu_factor, solve

MAX_ENUMERATION_N = 20
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_DEDUP_TOL = 1e-10


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


def enumerate_solutions(
    p: AveProblem,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
) -> SolutionSet:
    """Solve (A - diag(s)) x = b for every s in {-1, +1}^n.

    A candidate is accepted when it is sign-consistent with its pattern
    (s_i * x_i >= -dedup_tol) and independently re-verified through the
    residual, then deduplicated in max-norm.  Patterns with a singular
    step matrix get a least-squares consistency probe: the branch is
    consistent when the minimal-residual solution family reaches relative
    residual verify_tol * ||b|| and contains a sign-consistent point.

    Raises DimensionTooLarge above n = 20.
    """
    _check_size(p.n)
    a = p.dense_a()
    b = p.b
    n = p.n
    bnorm = float(np.linalg.norm(b))

    isolated: list[np.ndarray] = []
    branches: list[SingularBranch] = []
    for pattern in itertools.product((-1, 1), repeat=n):
        s = np.array(pattern, dtype=float)
        m = a - np.diag(s)
        f = lu_factor(m, DEFAULT_RANK_TOL)
        if f.singular:
            x0, _, _, sv = np.linalg.lstsq(m, b, rcond=None)
            ls_residual = float(np.linalg.norm(m @ x0 - b))
            consistent = False
            if ls_residual <= verify_tol * bnorm:
                cutoff = DEFAULT_RANK_TOL * (sv[0] if sv.size else 0.0)
                kernel = _kernel_basis(m, cutoff)
                consistent = _sign_consistent_affine(x0, kernel, s, dedup_tol)
            branches.append(SingularBranch(tuple(pattern), consistent))
            continue
        x = solve(f, b)
        if np.any(s * x < -dedup_tol):
            continue
        if residual(p, x)[1] > verify_tol:
            continue
        if not any(np.max(np.abs(x - y)) <= dedup_tol for y in isolated):
            isolated.append(x)
    return SolutionSet(tuple(isolated), tuple(branches), MAX_ENUMERATION_N)


def _kernel_basis(m: np.ndarray, cutoff: float) -> np.ndarray:
    """Right-kernel basis of m as columns, by SVD with the given cutoff."""
    _, sv, vt = np.linalg.svd(m)
    small = sv <= max(cutoff, 0.0)
    return vt[small].T


def count_solutions(
    p: AveProblem,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
) -> SolutionCount:
    """Summarize the enumeration with :meth:`SolutionSet.count`."""
    return enumerate_solutions(p, verify_tol, dedup_tol).count()
