"""Problem generators, the max-form converter, and .ave file round-trips.

Random generation runs on an explicit SplitMix64 stream so that a given
(family, n, seed) triple produces bit-identical problems on every platform
and in every implementation of the same draw order.  The draw orders are
documented on each generator.

The .ave text format is line oriented and hand-writable::

    version 1
    convention minus          # or: plus, normalized to minus on load
    structure dense           # or: tridiagonal
    n 2
    A                         # n rows of n entries for dense structure
    3 -2
    -2 3
    b
    -4 -16
    meta family ex4           # optional; repeated "meta <key> <value>" lines

Tridiagonal structure replaces the ``A`` section with three sections
``A.sub``, ``A.main``, ``A.super`` holding the diagonals (lengths n-1, n,
n-1), so large banded instances stay O(n) on disk.  ``#`` starts a comment
anywhere; numbers are written with 17 significant digits, which
round-trips doubles exactly.  Plus-convention files (A x + |x| = b) are
normalized on load via y = -x to the minus problem A y - |y| = -b, with a
metadata note recording the flip.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import AveProblem, as_square_matrix, as_vector
from .errors import ParseError, SchemaError
from .linalg import TridiagonalMatrix, spectral_radius_nonneg

FILE_VERSION = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 update and finalizer)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) from the top 53 bits."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``count`` values of :meth:`uniform`, bit for bit.

        The k-th state is seed + k * gamma mod 2^64, so the whole batch is
        one pass of wrapping uint64 arithmetic.
        """
        k = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + k * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return lo + (hi - lo) * ((z >> np.uint64(11)).astype(float) * 2.0**-53)


def gen_example1(n: int) -> AveProblem:
    """Tridiagonal benchmark family: main diagonal 7, off-diagonals -2,
    right-hand side built so x*_i = exp(6 (i-1)/(n-1) - 5) - 1 solves it."""
    if n < 2:
        raise ValueError("the tridiagonal family needs n >= 2")
    t = TridiagonalMatrix(
        np.full(n - 1, -2.0), np.full(n, 7.0), np.full(n - 1, -2.0)
    )
    i = np.arange(n, dtype=float)
    xstar = np.exp(6.0 * i / (n - 1) - 5.0) - 1.0
    b = t.matvec(xstar) - np.abs(xstar)
    return AveProblem(t, b)


_EXAMPLES_2X2: dict[int, tuple[list[list[float]], list[float]]] = {
    2: ([[1.5, -1.25], [0.0, 1.5]], [4.0, 16.0]),
    3: ([[1.5, -3.0], [0.0, 1.5]], [-2.0, -3.0]),
    4: ([[3.0, -2.0], [-2.0, 3.0]], [-4.0, -16.0]),
    5: ([[3.0, -1.0], [-4.0, 3.0]], [-5.0, -4.0]),
}


def gen_example_k(k: int) -> AveProblem:
    """The four reference 2x2 instances (k in {2, 3, 4, 5})."""
    if k not in _EXAMPLES_2X2:
        raise ValueError(f"k must be one of {sorted(_EXAMPLES_2X2)}, got {k}")
    a, b = _EXAMPLES_2X2[k]
    return AveProblem(np.array(a), np.array(b))


def gen_random_3a(n: int, seed: int) -> AveProblem:
    """Random instance certified for condition (3a).

    Draw order: n*n uniforms in [0, 1) row-major for B, then n uniforms in
    [-10, 10) for b.  A = I + (s I - B) with s = 1.1 * rho(B), so A - I is
    a nonsingular M-matrix by construction.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = SplitMix64(seed)
    bmat = rng.uniforms(n * n).reshape(n, n)
    rho = spectral_radius_nonneg(bmat, tol=1e-13).value
    s = 1.1 * rho
    a = (1.0 + s) * np.eye(n) - bmat
    b = rng.uniforms(n, -10.0, 10.0)
    return AveProblem(a, b)


def gen_random_3b(n: int, seed: int) -> AveProblem:
    """Random instance certified for condition (3b) with v.b < 0.

    Draw order: n uniforms in [0.5, 1.5) for the positive left kernel
    vector v, then one uniform in [0.1, 1.1) per off-diagonal entry
    (row-major, diagonal skipped), then n uniforms in [-10, 10) for b
    (redrawn on the zero-measure tie v.b = 0, then sign-flipped if
    v.b > 0).  The diagonal of A - I is set to make v an exact left null
    vector, which realizes A - I = rho(B) I - B for an irreducible
    nonnegative B without computing the Perron root numerically.
    """
    if n < 2:
        raise ValueError("the (3b) family needs n >= 2")
    rng = SplitMix64(seed)
    v = rng.uniforms(n, 0.5, 1.5)
    ai = np.zeros((n, n))
    ai[~np.eye(n, dtype=bool)] = -rng.uniforms(n * (n - 1), 0.1, 1.1)
    for j in range(n):
        ai[j, j] = -(v @ ai[:, j]) / v[j]
    a = np.eye(n) + ai
    b = rng.uniforms(n, -10.0, 10.0)
    while float(v @ b) == 0.0:
        b = rng.uniforms(n, -10.0, 10.0)
    if float(v @ b) > 0.0:
        b = -b
    return AveProblem(a, b)


def convert_max_form(t, c) -> tuple[AveProblem, str]:
    """Convert the piecewise system max(0, x) + T x = c to minus form.

    The returned problem is A y - |y| = b with A = I + 2T and b = -2c; its
    solution y recovers the original unknown as x = -y.  The mapping note
    states exactly that.
    """
    t = as_square_matrix(t)
    c = as_vector(c)
    if t.shape[0] != c.shape[0]:
        raise ValueError(
            f"T is {t.shape[0]}x{t.shape[0]} but c has length {c.shape[0]}"
        )
    a = np.eye(t.shape[0]) + 2.0 * t
    b = -2.0 * c
    note = "solution map: x = -y where y solves this problem"
    return AveProblem(a, b), note


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save(target, p: AveProblem, metadata: dict[str, str] | None = None) -> None:
    """Write ``p`` in minus convention with one ``meta`` line per metadata
    entry; accepts a path or a text stream."""
    lines = [
        f"version {FILE_VERSION}",
        "convention minus",
        f"structure {'tridiagonal' if p.is_tridiagonal else 'dense'}",
        f"n {p.n}",
    ]
    if p.is_tridiagonal:
        lines.append("A.sub")
        lines.append(" ".join(_fmt(x) for x in p.a.sub))
        lines.append("A.main")
        lines.append(" ".join(_fmt(x) for x in p.a.main))
        lines.append("A.super")
        lines.append(" ".join(_fmt(x) for x in p.a.sup))
    else:
        lines.append("A")
        for row in p.a:
            lines.append(" ".join(_fmt(x) for x in row))
    lines.append("b")
    lines.append(" ".join(_fmt(x) for x in p.b))
    for key, value in (metadata or {}).items():
        lines.append(f"meta {key} {value}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


class _TokenReader:
    """Line-oriented token stream with comment stripping and positions."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.lineno = 0
        self.tokens: list[str] = []

    def _advance(self) -> bool:
        while not self.tokens:
            if self.lineno >= len(self.lines):
                return False
            raw = self.lines[self.lineno]
            self.lineno += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                self.tokens = body.split()
        return True

    def next_token(self, what: str) -> str:
        if not self._advance():
            raise ParseError(f"unexpected end of file while reading {what}")
        return self.tokens.pop(0)

    def rest_of_line(self) -> str:
        out = " ".join(self.tokens)
        self.tokens = []
        return out

    def at_eof(self) -> bool:
        return not self._advance()

    def next_int(self, what: str) -> int:
        tok = self.next_token(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(
                f"line {self.lineno}: expected an integer for {what}, got {tok!r}"
            ) from None

    def expect(self, literal: str) -> None:
        tok = self.next_token(f"keyword {literal!r}")
        if tok != literal:
            raise ParseError(
                f"line {self.lineno}: expected {literal!r}, got {tok!r}"
            )

    def floats(self, count: int, what: str) -> np.ndarray:
        """The next ``count`` tokens as finite floats, converted a line at
        a time; an error names the line of the first bad token.  Memory
        follows the tokens read, not ``count``, which comes from the file."""
        rows = []
        got = 0
        while got < count:
            if not self._advance():
                raise ParseError(f"unexpected end of file while reading {what}")
            take = self.tokens[: count - got]
            self.tokens = self.tokens[len(take) :]
            try:
                row = np.array([float(tok) for tok in take])
            except ValueError:
                self._raise_first_bad(take, what)
            if not np.isfinite(row).all():
                self._raise_first_bad(take, what)
            rows.append(row)
            got += len(take)
        return np.concatenate(rows)

    def _raise_first_bad(self, tokens: list[str], what: str) -> None:
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(
                    f"line {self.lineno}: expected a number for {what}, got {tok!r}"
                ) from None
            if not np.isfinite(value):
                raise SchemaError(f"line {self.lineno}: non-finite value in {what}")


def load(source) -> tuple[AveProblem, dict[str, str]]:
    """Read a problem file; accepts a path or a text stream.

    Returns the problem in minus convention and the file's metadata.
    Raises ParseError on malformed, truncated or non-UTF-8 input and
    SchemaError on dimension or value violations.  Plus-convention input is
    normalized to minus convention (b is negated) with a metadata note.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    r = _TokenReader(text)

    r.expect("version")
    version = r.next_int("version")
    if version != FILE_VERSION:
        raise SchemaError(f"unsupported file version {version}")
    r.expect("convention")
    convention = r.next_token("convention")
    if convention not in ("minus", "plus"):
        raise SchemaError(f"unknown convention {convention!r}")
    r.expect("structure")
    structure = r.next_token("structure")
    if structure not in ("dense", "tridiagonal"):
        raise SchemaError(f"unknown structure {structure!r}")
    r.expect("n")
    n = r.next_int("n")
    if n < 1:
        raise SchemaError(f"n must be positive, got {n}")
    if structure == "tridiagonal" and n < 2:
        raise SchemaError("tridiagonal structure needs n >= 2")

    a: np.ndarray | TridiagonalMatrix
    if structure == "dense":
        r.expect("A")
        a = r.floats(n * n, "matrix entries").reshape(n, n)
    else:
        r.expect("A.sub")
        sub = r.floats(n - 1, "sub-diagonal entries")
        r.expect("A.main")
        main = r.floats(n, "main-diagonal entries")
        r.expect("A.super")
        sup = r.floats(n - 1, "super-diagonal entries")
        a = TridiagonalMatrix(sub, main, sup)
    r.expect("b")
    b = r.floats(n, "right-hand side entries")

    metadata: dict[str, str] = {}
    while not r.at_eof():
        r.expect("meta")
        key = r.next_token("metadata key")
        metadata[key] = r.rest_of_line()

    if convention == "plus":
        b = -b
        metadata.setdefault(
            "normalized_from",
            "plus convention; b negated on load, solutions map back via x = -y",
        )
    return AveProblem(a, b), metadata
