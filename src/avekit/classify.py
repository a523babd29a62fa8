"""Solvability verdicts assembled from the matrix certificates and the
sign of v.b, with the explicit solution family for the degenerate case.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _record
from .core import AveProblem, as_vector
from .errors import AlphaOutOfRange
from .linalg import _vector
from .mclass import DEFAULT_TOLS, ConditionReport, Tolerances, diagnostics, is_symmetric
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


@_record.frozen
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
    verdict, basis, vb, witness = Verdict.UNKNOWN, VerdictBasis.NO_CERTIFICATE, None, None

    if report.satisfies_3a:
        verdict, basis = Verdict.UNIQUE_SOLUTION, VerdictBasis.CONDITION_3A
        witness = _solver_witness(p, report.v)
    elif report.satisfies_3b and report.v is not None:
        v = report.v
        vb = float(v @ p.b)
        tie = TIE_TOL_REL * float(np.linalg.norm(v)) * float(np.linalg.norm(p.b))
        if vb < -tie:
            verdict, basis = Verdict.UNIQUE_SOLUTION, VerdictBasis.CONDITION_3B_NEG_VB
            witness = _solver_witness(p, report.v)
        elif vb > tie:
            verdict, basis = Verdict.NO_SOLUTION, VerdictBasis.CONDITION_3B_POS_VB
        elif is_symmetric(p.a, SYMMETRY_TOL_REL):
            verdict, basis = Verdict.EXISTS_NOT_UNIQUE, VerdictBasis.CONDITION_3B_ZERO_VB_SYMMETRIC
            witness = family_anchor(p)
        # v.b = 0 without symmetry is outside both certificates: Unknown

    return SolvabilityVerdict(verdict, basis, vb, witness, report)


def family_anchor(p: AveProblem) -> np.ndarray:
    """Minimum-norm least-squares solution u of (A - I) u = b."""
    u, *_ = np.linalg.lstsq(p.structure.shifted(-1.0).to_dense(), p.b, rcond=None)
    return u


def solution_family(p: AveProblem, v, alphas) -> list[np.ndarray]:
    """Points x(alpha) = u - alpha v of the solution continuum.

    ``v`` must be the strictly positive left kernel vector from the (3b)
    certificate and each alpha must satisfy alpha < min_i(u_i / v_i)
    strictly, which keeps every returned point strictly positive; a
    violating alpha raises AlphaOutOfRange.
    """
    v = _vector(as_vector(v), p.n, "v")
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
