"""Solvability verdicts assembled from the matrix certificates and the
sign of v.b, with the explicit solution family for the degenerate case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import AveProblem, as_vector
from .errors import AlphaOutOfRange
from .mclass import DEFAULT_TOLS, ConditionReport, Tolerances, diagnostics
from .solver import SolverConfig, SolveStatus, gnm_solve, guard_d0

# Relative band around v.b = 0; values inside it are treated as zero.
TIE_TOL_REL = 1e-10
# Relative tolerance for deciding that A is symmetric.
SYMMETRY_TOL_REL = 1e-12


class Verdict(str, Enum):
    UNIQUE_SOLUTION = "UniqueSolution"
    EXISTS_NOT_UNIQUE = "ExistsNotUnique"
    NO_SOLUTION = "NoSolution"
    UNKNOWN = "Unknown"


class VerdictBasis(str, Enum):
    CONDITION_3A = "Condition3a"
    CONDITION_3B_NEG_VB = "Condition3b_NegVb"
    CONDITION_3B_ZERO_VB_SYMMETRIC = "Condition3b_ZeroVb_Symmetric"
    CONDITION_3B_POS_VB = "Condition3b_PosVb"
    NO_CERTIFICATE = "NoCertificate"


@dataclass(frozen=True)
class SolvabilityVerdict:
    """A verdict with the certificate it rests on.

    ``witness`` is the computed solution for UniqueSolution verdicts (when
    the solver converged) or the minimum-norm anchor u of the solution
    family x(alpha) = u - alpha v for ExistsNotUnique.  ``report`` carries
    the full condition diagnostics the verdict was derived from.
    """

    verdict: Verdict
    basis: VerdictBasis
    v_dot_b: float | None
    witness: np.ndarray | None
    report: ConditionReport


def _is_symmetric(a: np.ndarray) -> bool:
    scale = float(np.abs(a).max())
    return bool(np.all(np.abs(a - a.T) <= SYMMETRY_TOL_REL * max(scale, 1.0)))


def _solver_witness(p: AveProblem, v: np.ndarray | None) -> np.ndarray | None:
    cfg = SolverConfig() if v is None else guard_d0(p, SolverConfig(), v)
    rep = gnm_solve(p, cfg)
    if rep.status in (SolveStatus.CONVERGED, SolveStatus.SIGN_STABILIZED):
        return rep.x
    return None


def classify(p: AveProblem, tols: Tolerances = DEFAULT_TOLS) -> SolvabilityVerdict:
    """Classify solvability of ``p`` from the certificates.

    UniqueSolution under (3a), or under (3b) with v.b < 0; NoSolution under
    (3b) with v.b > 0; ExistsNotUnique under (3b) with v.b = 0 (to a
    relative tie band) and A symmetric.  Anything else is Unknown - in
    particular the nonsymmetric v.b = 0 case, which the certificates do
    not cover.
    """
    report = diagnostics(p.a, tols)

    if report.satisfies_3a:
        return SolvabilityVerdict(
            Verdict.UNIQUE_SOLUTION,
            VerdictBasis.CONDITION_3A,
            None,
            _solver_witness(p, report.v),
            report,
        )

    if report.satisfies_3b and report.v is not None:
        v = report.v
        vb = float(v @ p.b)
        tie = TIE_TOL_REL * float(np.linalg.norm(v)) * float(np.linalg.norm(p.b))
        if vb < -tie:
            return SolvabilityVerdict(
                Verdict.UNIQUE_SOLUTION,
                VerdictBasis.CONDITION_3B_NEG_VB,
                vb,
                _solver_witness(p, report.v),
                report,
            )
        if vb > tie:
            return SolvabilityVerdict(
                Verdict.NO_SOLUTION, VerdictBasis.CONDITION_3B_POS_VB, vb, None, report
            )
        if _is_symmetric(p.dense_a()):
            u = family_anchor(p)
            return SolvabilityVerdict(
                Verdict.EXISTS_NOT_UNIQUE,
                VerdictBasis.CONDITION_3B_ZERO_VB_SYMMETRIC,
                vb,
                u,
                report,
            )
        # v.b = 0 without symmetry is outside both certificates
        return SolvabilityVerdict(
            Verdict.UNKNOWN, VerdictBasis.NO_CERTIFICATE, vb, None, report
        )

    return SolvabilityVerdict(
        Verdict.UNKNOWN, VerdictBasis.NO_CERTIFICATE, None, None, report
    )


def family_anchor(p: AveProblem) -> np.ndarray:
    """Minimum-norm least-squares solution u of (A - I) u = b."""
    a = p.dense_a()
    u, *_ = np.linalg.lstsq(a - np.eye(p.n), p.b, rcond=None)
    return u


def solution_family(p: AveProblem, v, alphas) -> list[np.ndarray]:
    """Points x(alpha) = u - alpha v of the solution continuum.

    ``v`` must be the strictly positive left kernel vector from the (3b)
    certificate and each alpha must satisfy alpha < min_i(u_i / v_i)
    strictly, which keeps every returned point strictly positive; a
    violating alpha raises AlphaOutOfRange.
    """
    v = as_vector(v)
    if v.shape != (p.n,):
        raise ValueError(f"v has shape {v.shape}, expected ({p.n},)")
    if not (v > 0).all():
        raise ValueError("v must be strictly positive componentwise")
    u = family_anchor(p)
    alpha_max = float(np.min(u / v))
    points = []
    for alpha in alphas:
        alpha = float(alpha)
        if not alpha < alpha_max:
            raise AlphaOutOfRange(
                f"alpha = {alpha:g} is not strictly below min_i(u_i/v_i) = {alpha_max:g}"
            )
        points.append(u - alpha * v)
    return points
