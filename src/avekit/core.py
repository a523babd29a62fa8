"""Problem types and the sign/residual primitives everything else consumes.

The equation solved throughout is A x - |x| = b with componentwise
absolute value, stored in exactly that (minus) convention.  All types are
immutable values backed by read-only numpy arrays, so they are safe to
share across threads.
"""

from __future__ import annotations

import numpy as np

from . import _record
from .linalg import TridiagonalMatrix, _structure, _vector


def as_vector(x) -> np.ndarray:
    """Coerce to a finite, read-only float vector."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    v.setflags(write=False)
    return v


@_record.frozen(eq=False)
class SignDiagonal:
    """The diagonal matrix diag(sign(x)) with entries in {-1, 0, 1},
    stored as one int8 per entry."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag)
        if d.ndim != 1 or d.shape[0] == 0:
            raise ValueError(f"expected a nonempty diagonal, got shape {d.shape}")
        if not np.isin(d, (-1, 0, 1)).all():
            raise ValueError("sign-diagonal entries must be -1, 0, or 1")
        d = d.astype(np.int8)
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.diag == 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignDiagonal):
            return NotImplemented
        return np.array_equal(self.diag, other.diag)

    def __repr__(self) -> str:
        return f"SignDiagonal({self.diag.tolist()})"


def sign_diagonal(x) -> SignDiagonal:
    """Build diag(sign(x)); sign(0) is exactly 0, with no epsilon band."""
    v = as_vector(x)
    return SignDiagonal(np.sign(v).astype(np.int8))


@_record.frozen(eq=False)
class AveProblem:
    """An instance A x - |x| = b; ``a`` is dense or tridiagonal-banded.

    ``structure``, set on construction and not a field, is the storage of
    ``a`` (a ``linalg._Storage``), which every operation on A asks.
    """

    a: np.ndarray | TridiagonalMatrix
    b: np.ndarray

    def __post_init__(self):
        b = as_vector(self.b)
        s = _structure(self.a)
        if s.n != b.shape[0]:
            raise ValueError(f"matrix is {s.n}x{s.n} but b has length {b.shape[0]}")
        object.__setattr__(self, "a", s.a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "structure", s)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def is_tridiagonal(self) -> bool:
        return self.structure.tridiagonal

    def dense_a(self) -> np.ndarray:
        """The coefficient matrix as a dense array (materializes banded storage)."""
        return self.structure.to_dense()


def residual(p: AveProblem, x) -> tuple[np.ndarray, float]:
    """Return r = A x - |x| - b and its Euclidean norm, rescaled by
    m = max |r_i| only when the plain sum of squares overflows."""
    v = _vector(x, p.n, "x")
    r = p.structure.matvec(v) - np.abs(v) - p.b
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(r))
    if norm == np.inf and (m := float(np.abs(r).max())) < np.inf:
        norm = m * float(np.linalg.norm(r / m))
    return r, norm
