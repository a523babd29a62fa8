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
tridiagonal input every certificate step is O(n) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_square_matrix
from .errors import SingularSystem
from .linalg import (
    DEFAULT_RANK_TOL,
    TridiagonalMatrix,
    inverse,
    is_irreducible,
    lu_factor,
    lu_nopivot,
    triangular_solve,
    tridiag_pivots,
    tridiag_singular,
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
    |A^-1|, both exact to rounding, and both None when A itself is
    singular.  ``norm_a_inv`` is also None when sigma_min(A) is zero to
    working precision; a nonsingular M-matrix A still has
    ``rho_abs_a_inv`` = 1/lambda_min(A) then.  They are reported as
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

    def is_symmetric(self, tol: float) -> bool:
        return bool(np.all(np.abs(self.a - self.a.T) <= tol))

    def shifted(self, c: float) -> _Dense:
        a = np.array(self.a)
        a[np.diag_indices(self.n)] += c
        return _Dense(a)

    def eliminate(self, floor: float) -> _Elimination:
        packed, k = lu_nopivot(self.a, floor)
        return _Elimination(self.n, np.diag(packed)[: k + 1], packed, floor)

    def left_kernel(self, packed: np.ndarray) -> np.ndarray:
        # A = L U with U's last row zero, so v^T L = e_n^T, one O(n^2)
        # substitution with L^T
        e_n = np.zeros(self.n)
        e_n[-1] = 1.0
        return triangular_solve(packed, e_n, lower=True, trans=True)

    def is_irreducible(self, zero_tol: float) -> bool:
        return is_irreducible(self.a, zero_tol)

    def singular(self, rank_tol: float) -> bool:
        return lu_factor(self.a, rank_tol).singular

    def inverse(self, rank_tol: float) -> np.ndarray | None:
        """A^-1, or None when A is singular."""
        try:
            return inverse(self.a, rank_tol)
        except SingularSystem:
            return None

    def sigma_min(self) -> float:
        """Smallest singular value, from a dense SVD."""
        return float(np.linalg.svd(self.a, compute_uv=False)[-1])

    def lambda_min(self) -> float:
        """Smallest real part of the spectrum (real for an M-matrix), from a
        dense eigenvalue solve."""
        return float(np.linalg.eigvals(self.a).real.min())


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

    tol = np.finfo(float).eps * max(abs(lo), abs(hi))
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if not_below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * lo + 0.5 * hi


class _Tridiagonal:
    """Certificate operations on a tridiagonal matrix, O(n) memory each."""

    def __init__(self, t: TridiagonalMatrix):
        self.t = t
        self.n = t.n
        self._lambda_min: float | None = None

    def scale(self) -> float:
        return self.t.scale

    def is_z(self, zero_tol: float) -> bool:
        return bool(np.all(self.t.sub <= zero_tol) and np.all(self.t.sup <= zero_tol))

    def is_symmetric(self, tol: float) -> bool:
        return bool(np.all(np.abs(self.t.sub - self.t.sup) <= tol))

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
        return tridiag_singular(self.t, rank_tol)

    def inverse(self, rank_tol: float) -> np.ndarray | None:
        """A^-1 as a dense matrix, or None when A is singular, which is
        decided in O(n) before anything dense is built."""
        if self.singular(rank_tol):
            return None
        return _Dense(self.t.to_dense()).inverse(rank_tol)

    def sigma_min(self) -> float:
        """Smallest singular value: lambda_min when A is symmetric positive
        definite, else from the banded Jordan-Wielandt matrix."""
        t = self.t
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

    def lambda_min(self) -> float:
        """Smallest eigenvalue of a Z-matrix, or of a symmetric matrix,
        through the symmetric matrix with off-diagonals sqrt(sub * sup),
        which has the same spectrum; one Sturm bisection, kept for the
        next call."""
        if self._lambda_min is None:
            coupling = np.maximum(self.t.sub * self.t.sup, 0.0)
            self._lambda_min = _lowest_eigenvalue(self.t.main, coupling)
        return self._lambda_min


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


def is_symmetric(m, rel_tol: float) -> bool:
    """True iff |m_ij - m_ji| <= rel_tol * max(max|m|, 1) for every i, j."""
    s = _structure(m)
    return s.is_symmetric(rel_tol * max(s.scale(), 1.0))


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
    A^-1 >= 0 and rho(|A^-1|) = 1/lambda_min(A), O(n) on tridiagonal
    input.  For every other nonsingular A, rho(|A^-1|) is the largest
    eigenvalue magnitude of the dense |A^-1|, which is its Perron root:
    one O(n^3) eigenvalue solve, with O(n^2) memory also on tridiagonal
    input.
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
    # M-matrix, singular or not, so only the other cases need a test; A
    # has the off-diagonal entries of A - I, so it is a Z-matrix iff z
    if s3a or s3b or (z and _eliminate(s, tols).all_positive):
        norm_a_inv = _reciprocal(s.sigma_min())
        # under (3b), lambda_min(A) = 1 + lambda_min(A - I) = 1
        rho_abs_a_inv = 1.0 if s3b else _reciprocal(s.lambda_min())
        if norm_a_inv is None:
            notes.append(
                "A is a nonsingular M-matrix whose ||A^-1||_2 is beyond "
                "working precision"
            )
    else:
        if (inv := s.inverse(tols.rank_tol)) is not None:
            norm_a_inv = _reciprocal(s.sigma_min())
            # the Perron root of the nonnegative |A^-1| is its spectral radius
            rho_abs_a_inv = float(np.abs(np.linalg.eigvals(np.abs(inv))).max())
        if norm_a_inv is None:
            rho_abs_a_inv = None
            notes.append("A is singular; inverse-based diagnostics unavailable")

    return ConditionReport(z, s3a, s3b, v, norm_a_inv, rho_abs_a_inv, tuple(notes))
