"""Structural matrix classification: Z/M-matrix tests and the two
termination certificates, plus the diagnostic norms of A^-1.

Certificate (3a) asks for A - I to be a nonsingular M-matrix.  Certificate
(3b) asks for A - I to be singular with a positive left kernel vector and
every nonzero nonnegative diagonal shift of it a nonsingular M-matrix.

Both rest on one test: a Z-matrix is a nonsingular M-matrix iff every
pivot of its LU factorization without pivoting is positive, that is, iff
all its leading principal minors are (Berman & Plemmons, *Nonnegative
Matrices in the Mathematical Sciences*, Thm 6.2.3).  One elimination of
A - I decides (3a), all n pivots positive, and (3b) by the sufficient
criterion of Brugnano & Casulli (SIAM J. Sci. Comput. 30, 2008): the
first n - 1 pivots positive and the last zero, the left kernel vector from
the factors positive, and A - I irreducible.  No shift is factored: the
leading block B is a nonsingular M-matrix, 0 <= (B + eI)^-1 <= B^-1 and
the last row and column are <= 0, so a shift e >= 0 adds at least e to
the last pivot; irreducibility then makes every nonzero nonnegative
diagonal shift nonsingular (ibid., ch. 6).  Structure, dense or
:class:`TridiagonalMatrix`, is chosen once in :func:`_structure`; on
tridiagonal input every step is O(n) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import as_square_matrix
from .errors import SingularSystem
from .linalg import (
    DEFAULT_RANK_TOL,
    TridiagonalMatrix,
    inverse,
    is_irreducible,
    lu_factor,
    lu_nopivot,
    spectral_radius_nonneg,
    tridiag_factor,
    tridiag_pivots,
)


@dataclass(frozen=True)
class Tolerances:
    """The single knob set shared by all classification verdicts.

    zero_tol bounds what counts as a nonpositive off-diagonal entry and
    rank_tol is the relative pivot threshold for singularity, kernel rank
    and the M-matrix pivot test.
    """

    zero_tol: float = 1e-12
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        for name, tol in (("zero_tol", self.zero_tol), ("rank_tol", self.rank_tol)):
            if not 0.0 <= tol < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True)
class ConditionReport:
    """Certificate verdicts with witnesses and inverse-based diagnostics.

    ``v`` is the strictly positive left null vector of A - I when (3b)
    holds (unit max-entry normalization).  ``norm_a_inv`` and
    ``rho_abs_a_inv`` are the spectral norm of A^-1 and the Perron root of
    |A^-1|; both are None when A itself is singular.  They are reported as
    diagnostics only and never decide a certificate.
    """

    is_z: bool
    satisfies_3a: bool
    satisfies_3b: bool
    v: np.ndarray | None
    norm_a_inv: float | None
    rho_abs_a_inv: float | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class _Elimination:
    """Leading pivots of LU without pivoting, computed up to and including
    the first that is not above ``floor``, and the factors behind them."""

    n: int
    pivots: np.ndarray
    factors: np.ndarray
    floor: float

    @property
    def all_positive(self) -> bool:
        return self.pivots.size == self.n and bool(self.pivots[-1] > self.floor)

    @property
    def only_last_zero(self) -> bool:
        return self.pivots.size == self.n and bool(abs(self.pivots[-1]) <= self.floor)


class _Dense:
    """Certificate operations on a dense matrix."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.n = a.shape[0]

    def scale(self) -> float:
        return float(np.abs(self.a).max())

    def is_z(self, zero_tol: float) -> bool:
        return bool(np.all(self.a[~np.eye(self.n, dtype=bool)] <= zero_tol))

    def shifted(self, c: float) -> _Dense:
        a = np.array(self.a)
        a[np.diag_indices(self.n)] += c
        return _Dense(a)

    def eliminate(self, floor: float) -> _Elimination:
        packed, k = lu_nopivot(self.a, floor)
        return _Elimination(self.n, np.diag(packed)[: k + 1], packed, floor)

    def left_kernel(self, packed: np.ndarray) -> np.ndarray:
        # A = L U with U's last row zero, so v^T L = e_n^T
        e_n = np.zeros(self.n)
        e_n[-1] = 1.0
        return scipy.linalg.solve_triangular(
            packed, e_n, trans="T", lower=True, unit_diagonal=True, check_finite=False
        )

    def is_irreducible(self, zero_tol: float) -> bool:
        return is_irreducible(self.a, zero_tol)

    def singular(self, rank_tol: float) -> bool:
        return lu_factor(self.a, rank_tol).singular

    def dense_inverse(self, rank_tol: float) -> tuple[np.ndarray, np.ndarray] | None:
        """A and A^-1 as dense matrices, or None when A is singular, from
        one factorization."""
        try:
            return self.a, inverse(self.a, rank_tol)
        except SingularSystem:
            return None

    def sigma_min(self) -> float:
        return float(scipy.linalg.svdvals(self.a, check_finite=False)[-1])

    def lambda_min(self) -> float:
        """Smallest real part of the spectrum (real for an M-matrix)."""
        return float(scipy.linalg.eigvals(self.a, check_finite=False).real.min())


def _lowest_eigenvalue(main: np.ndarray, off: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal (off, main, off)."""
    return float(
        scipy.linalg.eigvalsh_tridiagonal(
            main, off, select="i", select_range=(0, 0), check_finite=False
        )[0]
    )


class _Tridiagonal:
    """Certificate operations on a tridiagonal matrix, O(n) memory each."""

    def __init__(self, t: TridiagonalMatrix):
        self.t = t
        self.n = t.n

    def scale(self) -> float:
        return float(np.abs(np.concatenate((self.t.sub, self.t.main, self.t.sup))).max())

    def is_z(self, zero_tol: float) -> bool:
        return bool(np.all(self.t.sub <= zero_tol) and np.all(self.t.sup <= zero_tol))

    def shifted(self, c: float) -> _Tridiagonal:
        return _Tridiagonal(TridiagonalMatrix(self.t.sub, self.t.main + c, self.t.sup))

    def eliminate(self, floor: float) -> _Elimination:
        pivots = tridiag_pivots(self.t, floor)
        return _Elimination(self.n, pivots, pivots, floor)

    def left_kernel(self, pivots: np.ndarray) -> np.ndarray:
        # L has multipliers sub_i / p_i, so L^T v = e_n gives
        # v_i = -(sub_i / p_i) v_{i+1} from v_{n-1} = 1
        ratios = -self.t.sub / pivots[:-1]
        return np.append(np.cumprod(ratios[::-1])[::-1], 1.0)

    def is_irreducible(self, zero_tol: float) -> bool:
        return bool(np.all(np.abs(self.t.sub) > zero_tol) and np.all(np.abs(self.t.sup) > zero_tol))

    def singular(self, rank_tol: float) -> bool:
        return tridiag_factor(self.t, rank_tol).singular

    def dense_inverse(self, rank_tol: float) -> tuple[np.ndarray, np.ndarray] | None:
        """A and A^-1 as dense matrices, or None when A is singular, which
        is decided in O(n) before anything dense is built."""
        if self.singular(rank_tol):
            return None
        return _Dense(self.t.to_dense()).dense_inverse(rank_tol)

    def sigma_min(self) -> float:
        t = self.t
        if np.array_equal(t.sub, t.sup):
            lam = _lowest_eigenvalue(t.main, t.sub)
            if lam > 0.0:
                return lam
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

    def lambda_min(self) -> float:
        """Smallest eigenvalue of a Z-matrix, through the symmetric matrix
        with off-diagonals sqrt(sub * sup), which has the same spectrum."""
        return _lowest_eigenvalue(self.t.main, np.sqrt(np.maximum(self.t.sub * self.t.sup, 0.0)))


def _reciprocal(x: float) -> float | None:
    """1/x, or None when x is not positive: A is singular to working precision."""
    return 1.0 / x if x > 0.0 else None


def _structure(a) -> _Dense | _Tridiagonal:
    """The one place where the certificate engine picks the structure."""
    if isinstance(a, TridiagonalMatrix):
        return _Tridiagonal(a)
    return _Dense(as_square_matrix(a))


def _eliminate(s: _Dense | _Tridiagonal, tols: Tolerances) -> _Elimination:
    return s.eliminate(tols.rank_tol * s.scale())


def _is_m(s: _Dense | _Tridiagonal, tols: Tolerances) -> bool:
    return s.is_z(tols.zero_tol) and _eliminate(s, tols).all_positive


def _kernel_3b(
    ai: _Dense | _Tridiagonal, elim: _Elimination, tols: Tolerances
) -> np.ndarray | None:
    """The positive left kernel vector of the Z-matrix A - I when its one
    elimination shows a singular irreducible M-matrix; else None."""
    if not elim.only_last_zero:
        return None
    v = ai.left_kernel(elim.factors)
    v = v / v[np.argmax(np.abs(v))]
    if not (v > 0).all():
        return None
    if not ai.is_irreducible(tols.zero_tol):
        return None
    v.setflags(write=False)
    return v


def is_z_matrix(m, zero_tol: float = DEFAULT_TOLS.zero_tol) -> bool:
    """True iff every off-diagonal entry is <= zero_tol."""
    return _structure(m).is_z(zero_tol)


def is_m_matrix(m, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff m is a Z-matrix whose pivots without pivoting all exceed
    rank_tol times its largest entry magnitude (a nonsingular M-matrix);
    singular inputs are False."""
    return _is_m(_structure(m), tols)


def check_condition_3a(a, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """Certificate (3a): A - I is a nonsingular M-matrix."""
    return _is_m(_structure(a).shifted(-1.0), tols)


def check_condition_3b(
    a, tols: Tolerances = DEFAULT_TOLS
) -> tuple[bool, np.ndarray | None]:
    """Certificate (3b) via the singular-irreducible-M-matrix criterion.

    Returns (True, v) when A - I is an irreducible Z-matrix whose first
    n - 1 pivots are positive and last is zero, all from one elimination,
    and v, its left null vector, is positive; else (False, None).  The
    criterion is sufficient and rejects reducible singular matrices.
    """
    ai = _structure(a).shifted(-1.0)
    if not ai.is_z(tols.zero_tol):
        return False, None
    v = _kernel_3b(ai, _eliminate(ai, tols), tols)
    return v is not None, v


def diagnostics(a, tols: Tolerances = DEFAULT_TOLS) -> ConditionReport:
    """Run all certificate checks from one elimination of A - I and attach
    ||A^-1||_2 and rho(|A^-1|).

    ||A^-1||_2 is 1/sigma_min(A).  When A is a nonsingular M-matrix,
    A^-1 >= 0 and rho(|A^-1|) = 1/lambda_min(A); when A^-1 is otherwise of
    one sign, it is 1/min|lambda(A)|.  Only an A^-1 with entries of both
    signs falls back to power iteration on |A^-1|, whose cap is noted.
    """
    s = _structure(a)
    ai = s.shifted(-1.0)
    notes: list[str] = []

    z = ai.is_z(tols.zero_tol)
    s3a = False
    v = None
    if z:
        elim = _eliminate(ai, tols)
        s3a = elim.all_positive
        if not s3a:
            v = _kernel_3b(ai, elim, tols)
    s3b = v is not None

    if not z:
        notes.append("A - I is not a Z-matrix, so neither certificate can hold")
    if s3a:
        notes.append("A - I is a nonsingular M-matrix (certificate 3a)")
    if s3b:
        notes.append(
            "A - I is a singular irreducible M-matrix with positive left kernel "
            "(certificate 3b); this criterion is sufficient, not proven "
            "equivalent, and rejects reducible singular cases"
        )
    if z and not s3a and not s3b and ai.singular(tols.rank_tol):
        notes.append(
            "A - I is a singular Z-matrix but fails the irreducible-kernel probe"
        )

    norm_a_inv = None
    rho_abs_a_inv = None
    # A = (A - I) + I is a nonsingular M-matrix whenever A - I is an
    # M-matrix, singular or not, so only the other cases need a test
    if s3a or s3b or _is_m(s, tols):
        norm_a_inv = _reciprocal(s.sigma_min())
        # under (3b), lambda_min(A) = 1 + lambda_min(A - I) = 1
        rho_abs_a_inv = 1.0 if s3b else _reciprocal(s.lambda_min())
    elif (pair := s.dense_inverse(tols.rank_tol)) is not None:
        dense, inv = pair
        norm_a_inv = _reciprocal(s.sigma_min())
        if inv.min() >= 0.0 or inv.max() <= 0.0:
            # |A^-1| = +-A^-1, whose Perron root is its spectral radius
            rho_abs_a_inv = _reciprocal(float(np.abs(scipy.linalg.eigvals(dense)).min()))
        else:
            rr = spectral_radius_nonneg(np.abs(inv))
            rho_abs_a_inv = rr.value
            if not rr.converged:
                notes.append(
                    "spectral-radius power iteration hit its cap; rho(|A^-1|) is an estimate"
                )
    if norm_a_inv is None:
        rho_abs_a_inv = None
        notes.append("A is singular; inverse-based diagnostics unavailable")

    return ConditionReport(z, s3a, s3b, v, norm_a_inv, rho_abs_a_inv, tuple(notes))
