"""A reference left-kernel routine for the tests: the LU kernel of M^T,
which the (3b) certificate once used and now serves as its oracle."""

from dataclasses import dataclass

import numpy as np

from avekit.linalg import DEFAULT_RANK_TOL, lu_factor


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

    Rank decisions reuse the LU pivot criterion of ``lu_factor`` on M^T, so
    dimension zero coincides exactly with a nonsingular report there at the
    same tolerance.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return NullSpaceResult(n, np.ones(1) if n == 1 else None, rank_tol)
    u = np.triu(lu_factor(a.T, rank_tol).packed)
    small = np.flatnonzero(np.abs(np.diag(u)) < rank_tol * scale)
    if small.size != 1:
        return NullSpaceResult(int(small.size), None, rank_tol)
    k = int(small[0])
    v = np.zeros(n)
    v[k] = 1.0
    for i in range(k - 1, -1, -1):
        v[i] = -(u[i, i + 1 : k + 1] @ v[i + 1 : k + 1]) / u[i, i]
    return NullSpaceResult(1, v / v[np.argmax(np.abs(v))], rank_tol)
