"""Problem types and the sign/residual primitives everything else consumes.

The equation solved throughout is A x - |x| = b with componentwise
absolute value, stored in exactly that (minus) convention.  All types are
immutable values backed by read-only numpy arrays, so they are safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TridiagonalMatrix, _freeze, _square, _vector


def as_vector(x) -> np.ndarray:
    """Coerce to a finite, read-only float vector."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    v.setflags(write=False)
    return v


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a finite, read-only square float matrix."""
    return _freeze(np.array(_square(m)))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class AveProblem:
    """An instance A x - |x| = b; ``a`` is dense or tridiagonal-banded."""

    a: np.ndarray | TridiagonalMatrix
    b: np.ndarray

    def __post_init__(self):
        b = as_vector(self.b)
        a = self.a
        if not isinstance(a, TridiagonalMatrix):
            a = as_square_matrix(a)
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"matrix is {a.shape[0]}x{a.shape[0]} but b has length {b.shape[0]}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def is_tridiagonal(self) -> bool:
        return isinstance(self.a, TridiagonalMatrix)

    def dense_a(self) -> np.ndarray:
        """The coefficient matrix as a dense array (materializes banded storage)."""
        if isinstance(self.a, TridiagonalMatrix):
            return self.a.to_dense()
        return np.asarray(self.a)

    def matvec(self, x) -> np.ndarray:
        if isinstance(self.a, TridiagonalMatrix):
            return self.a.matvec(x)
        return self.a @ np.asarray(x, dtype=float)


def residual(p: AveProblem, x) -> tuple[np.ndarray, float]:
    """Return r = A x - |x| - b and its Euclidean norm."""
    v = _vector(x, p.n, "x")
    r = p.matvec(v) - np.abs(v) - p.b
    return r, float(np.linalg.norm(r))
