"""Generalized Newton iteration x^{k+1} = [A - D(x^k)]^{-1} b with a
residual and sign trace, simultaneous stopping rules, and the
finite-termination iteration cap.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _record
from .core import AveProblem, SignDiagonal, as_vector, residual, sign_diagonal
from .errors import SingularSystem
from .linalg import _vector

# Componentwise slack when checking iterate monotonicity x^{k+1} >= x^k.
MONOTONE_SLACK = 1e-12


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    SIGN_STABILIZED = "SignStabilized"
    ITERATION_CAP = "IterationCapReached"
    SINGULAR_STEP = "SingularStep"


@_record.frozen
class SolverConfig:
    """Iteration controls.

    ``max_iter`` of None resolves to 2n + 2 at solve time, the finite
    termination bound under either certificate; ``x0`` of None resolves to
    the all-ones vector.
    """

    tol: float = 1e-7
    max_iter: int | None = None
    x0: np.ndarray | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0))


@_record.frozen
class SolveReport:
    """Trace of one generalized Newton run: the residual and sign pattern
    of every iterate, and the final iterate ``x``.

    The histories include the starting point, so each has length
    ``iterations + 1``; the trace costs n bytes a step.
    ``monotone_from_k1`` records whether x^{k+1} >= x^k held componentwise
    (with slack) for every observed k >= 1.
    """

    status: SolveStatus
    iterations: int
    x: np.ndarray
    residual_history: tuple[float, ...]
    sign_history: tuple[SignDiagonal, ...]
    monotone_from_k1: bool
    notes: tuple[str, ...] = ()

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def gnm_solve(p: AveProblem, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Run the generalized Newton method on ``p``.

    Both stopping rules are evaluated on every new iterate: the residual
    criterion ||A x - |x| - b|| <= tol, and sign stabilization
    D(x^{k+1}) == D(x^k).  The residual rule decides ties, so a stabilized
    iterate within tol reports Converged.  A stabilized iterate above tol
    reports SignStabilized: its sign pattern repeated, so further steps
    would solve the same system [A - D] x = b again.  The reported
    residual gives its accuracy, which is poor when A is ill-conditioned.
    A singular step matrix is reported as status SingularStep rather than
    raised, since outside the certificates the iteration may simply be
    undefined; so is a step whose solution overflows.  Each step is one
    ``solve`` of the storage of ``p.a``, dense or O(n) tridiagonal, by the
    singularity rule of :mod:`avekit.linalg`, so the two storages stop at
    the same step, except on a step within rounding of its threshold.
    """
    x = _vector(cfg.x0 if cfg.x0 is not None else np.ones(p.n), p.n, "x0")
    max_iter = cfg.max_iter if cfg.max_iter is not None else 2 * p.n + 2

    d = sign_diagonal(x)
    res = residual(p, x)[1]
    res_hist = [res]
    sign_hist = [d]
    monotone = True
    k = 0

    status = SolveStatus.CONVERGED if res <= cfg.tol else None
    while status is None:
        if k >= max_iter:
            status = SolveStatus.ITERATION_CAP
            break
        try:
            x_new = p.structure.shifted(-d.diag.astype(float)).solve(p.b)
        except SingularSystem:
            status = SolveStatus.SINGULAR_STEP
            break
        k += 1
        d_new = sign_diagonal(x_new)
        res = residual(p, x_new)[1]
        res_hist.append(res)
        sign_hist.append(d_new)
        if k >= 2 and np.any(x_new < x - MONOTONE_SLACK):
            monotone = False
        stabilized = d_new == d
        x, d = x_new, d_new
        if res <= cfg.tol:
            # The residual rule fires and decides ties with the sign rule,
            # so an exact solution reports Converged even when the sign
            # pattern also repeated on this step.
            status = SolveStatus.CONVERGED
        elif stabilized:
            status = SolveStatus.SIGN_STABILIZED

    return SolveReport(
        status,
        k,
        x,
        tuple(res_hist),
        tuple(sign_hist),
        monotone,
        cfg.notes,
    )


def guard_d0(p: AveProblem, cfg: SolverConfig, v: np.ndarray | None) -> SolverConfig:
    """Adjust a config for a problem holding a (3b) certificate with
    positive left kernel vector ``v`` (None when (3b) does not hold).

    If the starting point has D(x0) = I (all components positive), its
    first component is negated so the first step matrix A - D(x0) is
    nonsingular.  Also computes v.b and attaches a warning note when it is
    nonnegative, where the finite-termination guarantee does not apply.
    """
    if v is None:
        raise ValueError("guard_d0 requires the (3b) left kernel vector v")
    x0 = cfg.x0 if cfg.x0 is not None else np.ones(p.n)
    x0 = np.asarray(x0, dtype=float)
    notes = list(cfg.notes)
    if sign_diagonal(x0).is_identity:
        x0 = x0.copy()
        x0[0] = -x0[0]
        notes.append("x0 had D(x0) = I; negated its first component")
    vb = float(v @ p.b)
    if vb >= 0:
        notes.append(
            f"v.b = {vb:.6g} >= 0: the finite-termination guarantee does not apply"
        )
    return SolverConfig(cfg.tol, cfg.max_iter, x0, tuple(notes))
