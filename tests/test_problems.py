"""Generators, the max-form converter, and .ave file round-trips."""

import hashlib
import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avekit.cli import main
from avekit.core import AveProblem, residual
from avekit.errors import ParseError, SchemaError
from avekit.linalg import TridiagonalMatrix
from avekit.mclass import check_condition_3a, check_condition_3b, diagnostics
from avekit.oracle import SolutionCountKind, count_solutions, enumerate_solutions
from avekit.problems import (
    SplitMix64,
    convert_max_form,
    gen_example1,
    gen_example_k,
    gen_random_3a,
    gen_random_3b,
    load,
    save,
)
from avekit.solver import SolverConfig, SolveStatus, gnm_solve, guard_d0

# ----------------------------------------------------------------- splitmix


def test_splitmix64_reference_outputs():
    # published reference sequence for seed 0; the draws are its top 53 bits
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert _reference_u64(0, 3) == published
    assert SplitMix64(0).uniforms(3).tolist() == [(u >> 11) * 2.0**-53 for u in published]


def _reference_u64(seed: int, count: int) -> list[int]:
    # the scalar splitmix64 recurrence, one state step per draw
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 7, 123456789, (1 << 64) - 5, (1 << 64) + 3])
def test_splitmix64_uniforms_match_the_scalar_recurrence(seed):
    # seeds near and past 2^64 make the state wrap inside the batch
    ref = _reference_u64(seed, 1000)
    lo, hi = -10.0, 10.0
    expect = [lo + (hi - lo) * ((u >> 11) * 2.0**-53) for u in ref]
    g = SplitMix64(seed)
    got = np.concatenate([g.uniforms(3, lo, hi), g.uniforms(0, lo, hi), g.uniforms(996, lo, hi)])
    assert got.tolist() == expect[:999]
    # the batch advanced the state by exactly its count
    assert g.uniform(lo, hi) == expect[999]
    assert SplitMix64(seed).uniforms(5).tolist() == [(u >> 11) * 2.0**-53 for u in ref[:5]]


@pytest.mark.parametrize(
    "family,digest",
    [
        ("rand3a", "9785aeabca48dcdf3fbcbd2c6a10f3c12f0a95d3779da74d7dc2427ec76d10ae"),
        ("rand3b", "91dbc5d3a553e4a8f3fc12b50f017a2b2625f1341f3f879ffff74513468d1ab6"),
    ],
)
def test_generated_files_are_pinned(tmp_path, family, digest):
    # `avekit generate --family <family> --n 50 --seed 7`, byte for byte as
    # written by the scalar generator
    from avekit.cli import main

    path = tmp_path / "p.ave"
    assert main(["generate", "--family", family, "--n", "50", "--seed", "7", "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_splitmix64_uniform_range():
    g = SplitMix64(99)
    draws = [g.uniform(-10.0, 10.0) for _ in range(1000)]
    assert all(-10.0 <= d < 10.0 for d in draws)
    assert min(draws) < -5 and max(draws) > 5


# --------------------------------------------------------------- generators


def test_example1_small_cases():
    p = gen_example1(2)
    xstar = np.array([math.exp(-5.0) - 1.0, math.exp(1.0) - 1.0])
    assert_allclose(xstar, [-0.99326205300091453, 1.7182818284590451])
    assert residual(p, xstar)[1] <= 1e-14

    p3 = gen_example1(3)
    assert_allclose(
        p3.dense_a(), [[7.0, -2.0, 0.0], [-2.0, 7.0, -2.0], [0.0, -2.0, 7.0]]
    )


def test_example1_solution_by_construction():
    for n in (2, 10, 257):
        p = gen_example1(n)
        i = np.arange(n, dtype=float)
        xstar = np.exp(6.0 * i / (n - 1) - 5.0) - 1.0
        assert residual(p, xstar)[1] <= 1e-11


def test_example1_converges_fast_from_ones():
    for n in (100, 2000):
        rep = gnm_solve(gen_example1(n))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations <= 4
        assert rep.residual <= 1e-12


def test_example_k_data():
    assert_allclose(gen_example_k(2).dense_a(), [[1.5, -1.25], [0.0, 1.5]])
    assert_allclose(gen_example_k(2).b, [4.0, 16.0])
    assert_allclose(gen_example_k(3).dense_a(), [[1.5, -3.0], [0.0, 1.5]])
    assert_allclose(gen_example_k(3).b, [-2.0, -3.0])
    assert_allclose(gen_example_k(4).dense_a(), [[3.0, -2.0], [-2.0, 3.0]])
    assert_allclose(gen_example_k(4).b, [-4.0, -16.0])
    assert_allclose(gen_example_k(5).dense_a(), [[3.0, -1.0], [-4.0, 3.0]])
    assert_allclose(gen_example_k(5).b, [-5.0, -4.0])
    with pytest.raises(ValueError):
        gen_example_k(1)


def test_random_3a_certified_and_deterministic():
    for n, seed in [(1, 3), (4, 7), (9, 1)]:
        p = gen_random_3a(n, seed)
        assert check_condition_3a(p.dense_a())
        q = gen_random_3a(n, seed)
        assert np.array_equal(p.dense_a(), q.dense_a())
        assert np.array_equal(p.b, q.b)


def test_random_3a_solver_bound():
    p = gen_random_3a(5, 42)
    rep = gnm_solve(p)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations <= 12


def test_random_3b_certified_and_deterministic():
    for n, seed in [(2, 1), (5, 9), (8, 4)]:
        p = gen_random_3b(n, seed)
        ok, v = check_condition_3b(p.dense_a())
        assert ok
        assert float(v @ p.b) < 0
        q = gen_random_3b(n, seed)
        assert np.array_equal(p.dense_a(), q.dense_a())
        assert np.array_equal(p.b, q.b)


def test_random_3b_oracle_and_solver():
    p = gen_random_3b(2, 11)
    assert count_solutions(p).kind is SolutionCountKind.ONE
    p6 = gen_random_3b(6, 11)
    rep = gnm_solve(p6, guard_d0(p6, SolverConfig(), diagnostics(p6.dense_a()).v))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations <= 14


# ---------------------------------------------------------------- max form


def test_convert_scalar_cases():
    p, note = convert_max_form(np.array([[1.0]]), np.array([3.0]))
    assert_allclose(p.dense_a(), [[3.0]])
    assert_allclose(p.b, [-6.0])
    assert "x = -y" in note
    # 3y - |y| = -6 has y = -1.5, recovering the max-form solution x = 1.5
    assert residual(p, np.array([-1.5]))[1] == 0.0

    p, _ = convert_max_form(np.array([[0.0]]), np.array([1.0]))
    assert_allclose(p.dense_a(), [[1.0]])
    assert_allclose(p.b, [-2.0])
    assert residual(p, np.array([-1.0]))[1] == 0.0


def test_convert_decoupled_pair():
    p, _ = convert_max_form(np.eye(2), np.array([3.0, 3.0]))
    assert residual(p, np.array([-1.5, -1.5]))[1] == 0.0


def test_convert_dimension_mismatch():
    with pytest.raises(ValueError):
        convert_max_form(np.eye(2), np.array([1.0]))


def test_convert_round_trip_through_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        t = rng.normal(size=(n, n)) * 0.3
        c = rng.normal(size=n)
        p, _ = convert_max_form(t, c)
        for y in enumerate_solutions(p).isolated:
            x = -y
            assert_allclose(np.maximum(0.0, x) + t @ x, c, atol=1e-9)


# ------------------------------------------------------------------ files


def test_save_load_identity_dense(tmp_path):
    path = tmp_path / "ex4.ave"
    save(path, gen_example_k(4), {"family": "ex4"})
    p, meta = load(path)
    assert p.n == 2
    assert not p.is_tridiagonal
    assert_allclose(p.a, [[3.0, -2.0], [-2.0, 3.0]])
    assert_allclose(p.b, [-4.0, -16.0])
    assert meta["family"] == "ex4"
    # second save reproduces the file byte for byte
    path2 = tmp_path / "again.ave"
    save(path2, p, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_identity_tridiagonal(tmp_path):
    path = tmp_path / "tri.ave"
    save(path, gen_example1(5))
    p, meta = load(path)
    assert p.is_tridiagonal
    assert_allclose(p.dense_a(), gen_example1(5).dense_a())
    assert_allclose(p.b, gen_example1(5).b)
    path2 = tmp_path / "tri2.ave"
    save(path2, p, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_n1_tridiagonal_round_trips_and_solves(tmp_path, capsys):
    # the A.sub and A.super sections are empty and load back as such
    path = tmp_path / "tri1.ave"
    save(path, AveProblem(TridiagonalMatrix([], [3.0], []), [1.0]))
    p, meta = load(path)
    assert p.is_tridiagonal and p.n == 1
    assert p.dense_a().tolist() == [[3.0]] and p.b.tolist() == [1.0]
    path2 = tmp_path / "tri1_again.ave"
    save(path2, p, meta)
    assert path.read_bytes() == path2.read_bytes()
    # 3 x - |x| = 1 at x = 1/2
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "IT=1 RES=0.0000e+00 x=(0.5) status=Converged\n"


def test_round_trip_exact_doubles(tmp_path):
    rng = np.random.default_rng(77)
    a = rng.normal(size=(3, 3)) * np.pi
    b = rng.normal(size=3) / 3.0
    path = tmp_path / "rt.ave"
    save(path, AveProblem(a, b))
    p, _ = load(path)
    assert np.array_equal(p.a, a)  # bit-exact
    assert np.array_equal(p.b, b)


def test_plus_convention_is_normalized():
    text = """version 1
convention plus
structure dense
n 2
A
3 -2
-2 3
b
4 16
"""
    p, meta = load(io.StringIO(text))
    assert_allclose(p.b, [-4.0, -16.0])
    assert "normalized_from" in meta
    # saved again, the problem is written in minus convention, b still negated
    buf = io.StringIO()
    save(buf, p, meta)
    assert "convention minus\n" in buf.getvalue()
    assert "convention plus" not in buf.getvalue()
    q, _ = load(io.StringIO(buf.getvalue()))
    assert_allclose(q.b, [-4.0, -16.0])


def test_comments_and_layout_tolerance():
    text = """# a hand-written file
version 1
convention minus   # the default storage form
structure dense
n 2
A
1.5 -1.25
0 1.5
b
4 16
meta family ex2
"""
    p, meta = load(io.StringIO(text))
    assert_allclose(p.a, [[1.5, -1.25], [0.0, 1.5]])
    assert meta["family"] == "ex2"


def test_truncated_file_is_parse_error():
    text = "version 1\nconvention minus\nstructure dense\nn 2\nA\n1 2\n"
    with pytest.raises(ParseError):
        load(io.StringIO(text))


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.ave"
    path.write_bytes(b"\xff\xfe\x00")
    stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
    for source in (path, stream):
        with pytest.raises(ParseError) as info:
            load(source)
        assert str(info.value) == "not UTF-8 text: invalid start byte at byte 0"


def test_bad_token_is_parse_error():
    text = "version 1\nconvention minus\nstructure dense\nn 2\nA\n1 2\n3 oops\nb\n1 1\n"
    with pytest.raises(ParseError):
        load(io.StringIO(text))


_DENSE2 = "version 1\nconvention minus\nstructure dense\nn 2\n"


@pytest.mark.parametrize(
    "text,error,message",
    [
        (_DENSE2 + "A\n1 2\n", ParseError, "unexpected end of file while reading matrix entries"),
        (
            _DENSE2 + "A\n1 2\n3 oops\nb\n1 1\n",
            ParseError,
            "line 7: expected a number for matrix entries, got 'oops'",
        ),
        # a bad token is reported ahead of the truncation after it
        (_DENSE2 + "A\n1 oops\n", ParseError, "line 6: expected a number for matrix entries, got 'oops'"),
        (_DENSE2 + "A\n1 inf 3 x\n", SchemaError, "line 6: non-finite value in matrix entries"),
        (
            _DENSE2 + "A\n1 2 # c\n\n3 4\nb\n1 nan\n",
            SchemaError,
            "line 10: non-finite value in right-hand side entries",
        ),
        (
            "version 1\nconvention minus\nstructure tridiagonal\nn 3\nA.sub\n1 2\n"
            "A.main 1 2 3 A.super 1\n1e999\nb\n1 1 1\n",
            SchemaError,
            "line 8: non-finite value in super-diagonal entries",
        ),
    ],
)
def test_load_error_messages(text, error, message):
    with pytest.raises(error) as info:
        load(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message


# Headers that declare far more numbers than the file holds; reading must
# not reserve room for n before the numbers are there.
_HUGE_HEADERS = [
    (
        "version 1\nconvention minus\nstructure dense\nn 1000000\nA\n1 2\n",
        "unexpected end of file while reading matrix entries",
    ),
    (
        "version 1\nconvention minus\nstructure tridiagonal\nn 100000000000\nA.sub\n1 2\n",
        "unexpected end of file while reading sub-diagonal entries",
    ),
    (
        "version 1\nconvention minus\nstructure dense\nn 1000000\nA\n1 x\n",
        "line 6: expected a number for matrix entries, got 'x'",
    ),
]


@pytest.mark.parametrize(
    "text,message", _HUGE_HEADERS, ids=["dense-truncated", "tridiagonal-truncated", "dense-bad-token"]
)
def test_huge_declared_n_is_a_parse_error(tmp_path, capsys, text, message):
    with pytest.raises(ParseError) as info:
        load(io.StringIO(text))
    assert str(info.value) == message
    path = tmp_path / "huge.ave"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_schema_violations():
    with pytest.raises(SchemaError):
        load(io.StringIO("version 7\n"))
    with pytest.raises(SchemaError):
        load(
            io.StringIO(
                "version 1\nconvention minus\nstructure dense\nn 0\nA\nb\n"
            )
        )
    with pytest.raises(SchemaError):
        load(
            io.StringIO(
                "version 1\nconvention sideways\nstructure dense\nn 1\nA\n1\nb\n1\n"
            )
        )
    with pytest.raises(SchemaError):
        load(
            io.StringIO(
                "version 1\nconvention minus\nstructure dense\nn 1\nA\ninf\nb\n1\n"
            )
        )


def test_stream_round_trip():
    buf = io.StringIO()
    save(buf, gen_example_k(3))
    p, _ = load(io.StringIO(buf.getvalue()))
    assert_allclose(p.a, gen_example_k(3).dense_a())


@pytest.mark.parametrize(
    "metadata, key",
    [
        ({"note": "a#b"}, "note"),
        ({"note": "two\nlines"}, "note"),
        ({"my key": "v"}, "my key"),
        ({"note": "  two  spaces "}, "note"),
        ({"": "v"}, "''"),
        ({"a#b": "v"}, "a#b"),
        ({"tab\tkey": "v"}, "tab"),
        ({"note": "carriage\rreturn"}, "note"),
    ],
)
def test_save_refuses_metadata_that_does_not_load_back(metadata, key):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=key):
        save(buf, gen_example_k(3), metadata)
    assert buf.getvalue() == ""


def test_valid_metadata_round_trips():
    metadata = {"family": "rand3a", "n": "20", "note": "solution map: x = -y", "empty": ""}
    buf = io.StringIO()
    save(buf, gen_example_k(3), metadata)
    assert load(io.StringIO(buf.getvalue()))[1] == metadata


# ----------------------------------------------------------- reader layouts


def _reference_sections(text: str) -> dict[str, np.ndarray]:
    """The number sections of an .ave text, one ``float()`` per token."""
    tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
    n = int(tokens[7])
    counts = {"A": n * n, "A.sub": n - 1, "A.main": n, "A.super": n - 1, "b": n}
    out, i = {}, 8
    while i < len(tokens) and tokens[i] in counts:
        key, count = tokens[i], counts[tokens[i]]
        out[key] = np.array([float(t) for t in tokens[i + 1 : i + 1 + count]])
        i += 1 + count
    return out


def _loaded_sections(p: AveProblem) -> dict[str, np.ndarray]:
    if p.is_tridiagonal:
        return {"A.sub": p.a.sub, "A.main": p.a.main, "A.super": p.a.sup, "b": p.b}
    return {"A": p.a.reshape(-1), "b": p.b}


def _random_problem(structure: str, n: int, seed: int) -> AveProblem:
    # mixed signs and magnitudes from 1e-300 to 1e300, with -0.0, the
    # smallest subnormal and the largest double among them
    rng = np.random.default_rng(seed)

    def draw(size):
        v = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
        specials = np.array([-0.0, 5e-324, 1.7976931348623157e308])
        v[: min(size, 3)] = specials[: min(size, 3)]
        return rng.permutation(v)

    b = draw(n)
    if structure == "dense":
        return AveProblem(draw(n * n).reshape(n, n), b)
    return AveProblem(TridiagonalMatrix(draw(n - 1), draw(n), draw(n - 1)), b)


def _sections(p: AveProblem) -> list[tuple[str, list[list[str]]]]:
    """Each number section of ``p`` as its keyword and its rows, every
    entry written by ``repr``."""
    if p.is_tridiagonal:
        parts = [("A.sub", [p.a.sub]), ("A.main", [p.a.main]), ("A.super", [p.a.sup])]
    else:
        parts = [("A", list(p.a))]
    parts.append(("b", [p.b]))
    return [(key, [[repr(float(v)) for v in row] for row in rows]) for key, rows in parts]


def _halves(row):
    return [row[: len(row) // 2], row[len(row) // 2 :]]


# layout name -> the lines of one section from its keyword and rows
_LAYOUTS = {
    "one-row-a-line": lambda key, rows: [key] + [" ".join(r) for r in rows],
    "two-rows-a-line": lambda key, rows: [key]
    + [" ".join(rows[i] + (rows[i + 1] if i + 1 < len(rows) else [])) for i in range(0, len(rows), 2)],
    "rows-split-over-two-lines": lambda key, rows: [key]
    + [" ".join(h) for r in rows for h in _halves(r)],
    "numbers-on-the-keyword-line": lambda key, rows: [" ".join([key] + [t for r in rows for t in r])],
    "trailing-comments": lambda key, rows: [key] + [" ".join(r) + " # row" for r in rows],
    "comment-and-blank-lines": lambda key, rows: [key + "  # section", "# a comment line"]
    + [line for r in rows for line in (" ".join(r) + "  # trailing comment", "", "   ")],
    "tabs-and-runs-of-spaces": lambda key, rows: ["\t" + key + "   "]
    + ["  " + "\t \t".join(r) + "  \t" for r in rows],
}


def _layout_text(p: AveProblem, layout: str) -> str:
    structure = "tridiagonal" if p.is_tridiagonal else "dense"
    lines = ["version 1", "convention minus", f"structure {structure}", f"n {p.n}"]
    for key, rows in _sections(p):
        lines += _LAYOUTS[layout](key, rows)
    if layout == "numbers-on-the-keyword-line":
        # every section on one line, each keyword after the last number
        # of the section before it
        lines = lines[:4] + [" ".join(lines[4:])]
    return "\n".join(lines + ["meta family test"]) + "\n"


_SHAPES = [("dense", 1), ("dense", 2), ("dense", 7), ("tridiagonal", 1), ("tridiagonal", 2), ("tridiagonal", 9)]


@pytest.mark.parametrize("structure, n", _SHAPES)
@pytest.mark.parametrize("layout", ["save", *_LAYOUTS])
def test_load_is_bit_identical_to_a_float_per_token_reference(structure, n, layout):
    p = _random_problem(structure, n, seed=1000 * n + len(layout))
    if layout == "save":
        buf = io.StringIO()
        save(buf, p, {"family": "test"})
        text = buf.getvalue()
    else:
        text = _layout_text(p, layout)
    q, meta = load(io.StringIO(text))
    assert meta == {"family": "test"}
    got, ref = _loaded_sections(q), _reference_sections(text)
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == np.float64
        assert got[key].tobytes() == ref[key].tobytes(), key
    # the tokens were written by repr or %.17g, so they are p's own doubles
    assert _loaded_sections(q)["b"].tobytes() == p.b.tobytes()


@pytest.mark.parametrize(
    "body",
    [
        # whole lines that numpy's reader also converts
        "A\n+1 -.5\n4.9e-324 1e308\nb\n-0 .25\n",
        # "1_0" and non-ASCII digits are Python float() syntax only
        "A\n1_0 +1\n-.5 4.9e-324\nb\n١ 1_000.5\n",
        "A 1_0 +1\n-.5 4.9e-324 b\n+1 -.5\n",
    ],
)
def test_load_reads_every_token_float_reads(body):
    text = "version 1\nconvention minus\nstructure dense\nn 2\n" + body
    p, _ = load(io.StringIO(text))
    ref = _reference_sections(text)
    assert p.a.reshape(-1).tobytes() == ref["A"].tobytes()
    assert p.b.tobytes() == ref["b"].tobytes()


@pytest.mark.parametrize(
    "body,error,message",
    [
        # a row longer than the first: the token reader takes the numbers it
        # needs and the rest of the line is the next keyword's
        ("A\n1 2\n3 4 5\nb\n1 1\n", ParseError, "line 7: expected 'b', got '5'"),
        ("A\n1 2\n3 1e999\nb\n1 1\n", SchemaError, "line 7: non-finite value in matrix entries"),
        ("A\n1 2\n3 4\nb\n1 nan\n", SchemaError, "line 9: non-finite value in right-hand side entries"),
        ("A\n1 2\n3 4\nb\n1 1 2\n", ParseError, "line 9: expected 'meta', got '2'"),
        ("A\n1 2\n3 4\nb\n1\n", ParseError, "unexpected end of file while reading right-hand side entries"),
        ("A\n1 2\n3\nb\n1 1\n", ParseError, "line 8: expected a number for matrix entries, got 'b'"),
    ],
)
def test_whole_line_sections_keep_the_token_reader_errors(body, error, message):
    with pytest.raises(error) as info:
        load(io.StringIO(_DENSE2 + body))
    assert type(info.value) is error
    assert str(info.value) == message


def test_saved_dense_file_loads_without_the_token_loop(tmp_path, monkeypatch):
    # save's layout is whole lines, so a later change that sends it back
    # to the per-token loop fails here
    from avekit import problems

    p = gen_random_3a(30, 5)
    path = tmp_path / "dense30.ave"
    save(path, p)

    def refuse(self, count, what):
        raise AssertionError(f"{what} went through the per-token loop")

    monkeypatch.setattr(problems._TokenReader, "token_floats", refuse)
    q, _ = load(path)
    assert q.a.tobytes() == p.a.tobytes() and q.b.tobytes() == p.b.tobytes()
