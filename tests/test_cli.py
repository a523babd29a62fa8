"""End-to-end CLI behavior: output shapes, exit codes, JSON round-trips."""

import builtins
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avekit
from avekit import cli
from avekit.cli import _json, build_parser, main
from avekit.core import AveProblem
from avekit.problems import save


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_problem(tmp_path, name, a, b):
    path = tmp_path / name
    save(path, AveProblem(np.array(a), np.array(b)))
    return str(path)


@pytest.fixture()
def ex_files(tmp_path, capsys):
    paths = {}
    for k in (2, 3, 4, 5):
        path = str(tmp_path / f"ex{k}.ave")
        code = main(["generate", "--family", f"ex{k}", "-o", path])
        assert code == 0
        paths[k] = path
    capsys.readouterr()
    return paths


def test_solve_reference_outputs(ex_files, capsys):
    code, out, _ = run(capsys, "solve", ex_files[2])
    assert code == 0
    assert "IT=1" in out
    assert "x=(88, 32)" in out

    code, out, _ = run(capsys, "solve", ex_files[3])
    assert code == 0
    assert "IT=2" in out
    assert "x=(-2.24, -1.2)" in out


def test_solve_json_round_trip(ex_files, capsys):
    code, out, _ = run(capsys, "solve", ex_files[2], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "Converged"
    assert doc["result"]["iterations"] == 1
    assert doc["result"]["x"] == [88.0, 32.0]
    assert doc["result"]["sign_history"][0] == [1, 1]
    with open(ex_files[2], "rb") as fh:
        assert doc["input_digest"] == hashlib.sha256(fh.read()).hexdigest()


def test_solve_trace_rows(ex_files, capsys):
    code, out, _ = run(capsys, "solve", ex_files[5], "--trace")
    assert code == 0
    assert "k=0" in out and "k=2" in out
    assert "d=(" in out


def test_solve_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "garbage.txt"
    bad.write_text("this is not a problem file\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error" in err


def test_solve_missing_file_exit(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/nope.ave")
    assert code == 2


def test_solve_singular_step_exit(tmp_path, capsys):
    # A = [1] holds (3b), so the guard negates x0 = 1; the step from -1
    # gives x = 0.5, and the next step matrix A - I = [0] is singular
    path = write_problem(tmp_path, "sing.ave", [[1.0]], [1.0])
    code, out, _ = run(capsys, "solve", path, "--x0", "1")
    assert code == 3


def test_solve_iteration_cap_exit(tmp_path, capsys):
    path = write_problem(tmp_path, "cap.ave", [[0.1]], [1.0])
    code, out, _ = run(capsys, "solve", path)
    assert code == 4
    assert "IterationCapReached" in out


def test_solve_guard_runs_for_large_rand3b(tmp_path, capsys):
    # the (3b) start-point guard must run at every n: without it the first
    # step matrix A - D(ones) = A - I is singular
    path = str(tmp_path / "rand3b_600.ave")
    assert main(["generate", "--family", "rand3b", "--n", "600", "--seed", "1", "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "Converged"
    assert result["sign_history"][0][0] == -1


def test_oracle_enumerates_once_per_call(ex_files, capsys, monkeypatch):
    import avekit.cli
    import avekit.oracle

    calls = []
    enumerate_solutions = avekit.oracle.enumerate_solutions

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_solutions(*args, **kwargs)

    monkeypatch.setattr(avekit.oracle, "enumerate_solutions", counted)
    monkeypatch.setattr(avekit.cli, "enumerate_solutions", counted)
    for flags in ((), ("--json",)):
        calls.clear()
        code, _, _ = run(capsys, "oracle", ex_files[4], *flags)
        assert code == 0
        assert len(calls) == 1


def test_solve_usage_error_on_bad_x0(ex_files, capsys):
    code, _, err = run(capsys, "solve", ex_files[2], "--x0", "1,banana")
    assert code == 6


def test_classify_outputs(ex_files, capsys):
    code, out, _ = run(capsys, "classify", ex_files[5])
    assert code == 0
    assert "3b: yes" in out
    assert "v: (1, 0.5)" in out
    assert "v.b: -7" in out
    assert "verdict: UniqueSolution (basis: Condition3b_NegVb)" in out

    code, out, _ = run(capsys, "classify", ex_files[2])
    assert code == 0
    assert "3a: yes" in out
    assert "||A^-1||: 1" in out


def test_classify_unknown_verdict(tmp_path, capsys):
    path = write_problem(
        tmp_path, "nz.ave", [[1.0, -0.01], [0.01, 1.0]], [1.0, 1.0]
    )
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert "3a: no" in out
    assert "verdict: Unknown" in out


def test_classify_prints_rho_without_the_norm(tmp_path, capsys):
    # A = 2I - 1e9 L is a nonsingular M-matrix whose ||A^-1||_2, about
    # (5e8)^39, overflows the float range; rho(|A^-1|) = 1/2 is still known
    n = 40
    a = 2.0 * np.eye(n) - 1e9 * np.eye(n, k=-1)
    code, out, _ = run(capsys, "classify", write_problem(tmp_path, "m.ave", a, np.ones(n)))
    assert code == 0
    assert "||A^-1||:" not in out
    assert "rho(|A^-1|): 0.5\n" in out
    assert "A is singular" not in out


def test_classify_prints_a_norm_beyond_the_svd(tmp_path, capsys):
    # A = 2I - 10L: sigma_min(A) is below the SVD's rounding, but
    # ||A^-1||_2 = 6.2088e15 comes from A^-1 formed from pivot-free factors
    n = 24
    a = 2.0 * np.eye(n) - 10.0 * np.eye(n, k=-1)
    code, out, _ = run(capsys, "classify", write_problem(tmp_path, "m.ave", a, np.ones(n)))
    assert code == 0
    assert "||A^-1||: 6.20882e+15\n" in out
    assert "rho(|A^-1|): 0.5\n" in out
    assert "beyond working precision" not in out


def test_classify_entry_tol_is_a_usage_error(ex_files, capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", ex_files[5], "--entry-tol", "0.5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --entry-tol 0.5" in capsys.readouterr().err


def test_classify_3b_under_a_user_rank_tol(ex_files, capsys):
    code, out, _ = run(capsys, "classify", ex_files[4], "--rank-tol", "1e-7")
    assert code == 0
    assert "3b: yes" in out
    assert "verdict: UniqueSolution (basis: Condition3b_NegVb)" in out


def test_classify_negative_rank_tol_is_a_usage_error(ex_files, capsys):
    code, out, err = run(capsys, "classify", ex_files[4], "--rank-tol", "-1")
    assert code == 6
    assert out == ""
    assert "rank_tol must be finite and nonnegative" in err


def test_classify_json(ex_files, capsys):
    code, out, _ = run(capsys, "classify", ex_files[4], "--json")
    doc = json.loads(out)
    r = doc["result"]
    assert r["satisfies_3b"] is True
    assert r["v"] == [1.0, 1.0]
    assert r["v_dot_b"] == -20.0
    assert r["verdict"] == "UniqueSolution"
    assert r["basis"] == "Condition3b_NegVb"


def test_oracle_outputs(ex_files, capsys):
    code, out, _ = run(capsys, "oracle", ex_files[4])
    assert code == 0
    assert "solution: (-4, -6)" in out
    assert "singular branch (+1,+1): inconsistent" in out

    code, out, _ = run(capsys, "oracle", ex_files[4], "--json")
    doc = json.loads(out)
    assert doc["result"]["isolated"] == [[-4.0, -6.0]]
    assert doc["result"]["count"]["kind"] == "One"


def test_oracle_negative_tol_is_a_usage_error(ex_files, capsys):
    code, out, err = run(capsys, "oracle", ex_files[4], "--tol", "-1")
    assert code == 6
    assert out == ""
    assert "verify_tol must be finite and nonnegative" in err


def test_oracle_no_solutions(tmp_path, capsys):
    path = write_problem(tmp_path, "none.ave", [[3.0, -2.0], [-2.0, 3.0]], [1.0, 1.0])
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "no isolated solutions" in out
    assert "count: Zero" in out


def test_oracle_finitely_many(tmp_path, capsys):
    path = write_problem(tmp_path, "four.ave", [[0.5, 0.0], [0.0, 0.5]], [-1.0, -1.0])
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert out.splitlines()[-1] == "count: FinitelyMany (4)"


def test_oracle_size_cap(tmp_path, capsys):
    n = 21
    path = write_problem(tmp_path, "big.ave", (3.0 * np.eye(n)).tolist(), [1.0] * n)
    code, _, err = run(capsys, "oracle", path)
    assert code == 5


def test_generate_determinism(tmp_path, capsys):
    p1 = str(tmp_path / "a.ave")
    p2 = str(tmp_path / "b.ave")
    code1, out1, _ = run(capsys, "generate", "--family", "rand3a", "--n", "8", "--seed", "7", "-o", p1)
    code2, out2, _ = run(capsys, "generate", "--family", "rand3a", "--n", "8", "--seed", "7", "-o", p2)
    assert code1 == code2 == 0
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    # the printed digests agree too
    assert out1.split("sha256=")[1] == out2.split("sha256=")[1]


def test_generate_flag_validation(tmp_path, capsys):
    out_path = str(tmp_path / "x.ave")
    assert run(capsys, "generate", "--family", "ex4", "--n", "5", "-o", out_path)[0] == 6
    assert run(capsys, "generate", "--family", "rand3a", "--n", "5", "-o", out_path)[0] == 6
    assert run(capsys, "generate", "--family", "ex1", "-o", out_path)[0] == 6
    assert run(capsys, "generate", "--family", "ex1", "--n", "1", "-o", out_path)[0] == 6


def test_generate_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.ave")
    code, out, err = run(capsys, "generate", "--family", "ex4", "-o", path)
    assert code == 6
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_generate_solve_pipeline(tmp_path, capsys):
    path = str(tmp_path / "tri.ave")
    code, _, _ = run(capsys, "generate", "--family", "ex1", "--n", "50", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "solve", path, "--json")
    doc = json.loads(out)
    assert doc["result"]["status"] == "Converged"
    assert doc["result"]["iterations"] <= 4


def test_generated_benchmark_file_reproduces_table_row(tmp_path, capsys):
    # the n = 2000 tridiagonal instance from a file matches the reference
    # row: a handful of iterations down to near machine residual
    path = str(tmp_path / "tri2000.ave")
    code, _, _ = run(capsys, "generate", "--family", "ex1", "--n", "2000", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "Converged"
    assert doc["result"]["iterations"] <= 4
    assert doc["result"]["residual"] <= 1e-10


def test_convert_scalar(tmp_path, capsys):
    path = str(tmp_path / "conv.ave")
    code, out, _ = run(capsys, "convert", "--T", "1", "--c", "3", "-o", path)
    assert code == 0
    text = Path(path).read_text()
    assert "A\n3" in text
    assert "b\n-6" in text
    assert "x = -y" in text


def test_convert_2x2_zero_t(tmp_path, capsys):
    path = str(tmp_path / "conv2.ave")
    code, _, _ = run(capsys, "convert", "--T", "0,0;0,0", "--c", "1,1", "-o", path)
    assert code == 0
    from avekit.problems import load

    p, _ = load(path)
    assert np.array_equal(p.a, np.eye(2))
    assert np.array_equal(p.b, np.array([-2.0, -2.0]))


def test_convert_dimension_mismatch(tmp_path, capsys):
    path = str(tmp_path / "conv3.ave")
    code, _, err = run(capsys, "convert", "--T", "1,0;0,1", "--c", "3", "-o", path)
    assert code == 6


def test_convert_t_from_file(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_text("1 0\n0 1\n")
    path = str(tmp_path / "conv4.ave")
    code, _, _ = run(capsys, "convert", "--T", str(tfile), "--c", "3,3", "-o", path)
    assert code == 0
    from avekit.problems import load

    p, _ = load(path)
    assert np.array_equal(p.a, 3.0 * np.eye(2))


def test_convert_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "missing" / "c.ave")
    code, out, err = run(capsys, "convert", "--T", "1", "--c", "3", "-o", path)
    assert code == 6
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_convert_t_that_cannot_be_read_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "c.ave")
    code, out, err = run(capsys, "convert", "--T", str(tmp_path), "--c", "3", "-o", path)
    assert code == 6
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path}: ")
    assert not Path(path).exists()


def test_convert_t_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_bytes(b"\xff 1")
    path = str(tmp_path / "c.ave")
    code, out, err = run(capsys, "convert", "--T", str(tfile), "--c", "3", "-o", path)
    assert code == 6
    assert out == ""
    assert err.startswith(f"error: cannot read {tfile}: ")
    assert not Path(path).exists()


def test_convert_t_with_unequal_rows_names_the_file_and_rows(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_text("1 0 0\n# a comment\n0 1\n0 0 1\n")
    path = str(tmp_path / "c.ave")
    code, out, err = run(capsys, "convert", "--T", str(tfile), "--c", "3,3,3", "-o", path)
    assert code == 6
    assert out == ""
    assert err == f"error: {tfile}: row 2 has 2 values, row 1 has 3\n"
    assert not Path(path).exists()


def test_solve_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ave"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: not UTF-8 text: invalid start byte at byte 0\n"


def test_solve_opens_its_input_once(tmp_path, capsys, monkeypatch):
    # the digest in --json describes the bytes that were parsed, so the
    # file is read once for both
    path = write_problem(tmp_path, "p.ave", [[3.0, 0.0], [0.0, 3.0]], [2.0, 4.0])
    opened = []

    def counting(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    real_open = io.open
    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    assert opened.count(path) == 1
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert json.loads(out)["input_digest"] == digest


def test_reproduce_examples(capsys):
    code, out, _ = run(capsys, "reproduce", "--examples")
    assert code == 0
    assert "ex4: IT=2 (reference: 2)" in out
    assert "examples: PASS" in out


def test_reproduce_small_size_has_no_reference_column(capsys):
    code, out, _ = run(capsys, "reproduce", "--table1", "--sizes", "10")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("10 ")]
    assert lines and "-" in lines[0]
    assert "table1: PASS" in out


def test_reproduce_malformed_sizes_is_a_usage_error(capsys):
    code, out, err = run(capsys, "reproduce", "--table1", "--sizes", "10,abc")
    assert code == 6
    assert out == ""
    assert err == "error: --sizes '10,abc': expected comma-separated integers\n"


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--examples", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["table1"] is None
    assert {r["example"] for r in doc["examples"]} == {"ex2", "ex3", "ex4", "ex5"}


# Full default text output on the four 2x2 examples, byte for byte.  The
# default text is the interface scripts read, so it changes only on purpose.
PINNED_TEXT = {
    ("solve", 2): (
        "k=0 res=1.621149e+01 d=(+1,+1)\n"
        "k=1 res=0.000000e+00 d=(+1,+1)\n"
        "IT=1 RES=0.0000e+00 x=(88, 32) status=Converged\n"
    ),
    ("solve", 3): (
        "k=0 res=3.535534e+00 d=(+1,+1)\n"
        "k=1 res=8.089499e+01 d=(-1,-1)\n"
        "k=2 res=2.220446e-16 d=(-1,-1)\n"
        "IT=2 RES=2.2204e-16 x=(-2.24, -1.2) status=Converged\n"
    ),
    ("solve", 4): (
        "note: x0 had D(x0) = I; negated its first component\n"
        "k=0 res=2.009975e+01 d=(-1,+1)\n"
        "k=1 res=3.600000e+01 d=(-1,-1)\n"
        "k=2 res=0.000000e+00 d=(-1,-1)\n"
        "IT=2 RES=0.0000e+00 x=(-4, -6) status=Converged\n"
    ),
    ("solve", 5): (
        "note: x0 had D(x0) = I; negated its first component\n"
        "k=0 res=1.000000e+01 d=(-1,+1)\n"
        "k=1 res=1.800000e+01 d=(-1,-1)\n"
        "k=2 res=0.000000e+00 d=(-1,-1)\n"
        "IT=2 RES=0.0000e+00 x=(-2, -3) status=Converged\n"
    ),
    ("classify", 2): (
        "3a: yes\n"
        "3b: no\n"
        "||A^-1||: 1\n"
        "rho(|A^-1|): 0.666667\n"
        "note: A - I is a nonsingular M-matrix (certificate 3a)\n"
        "verdict: UniqueSolution (basis: Condition3a)\n"
        "solution: (88, 32)\n"
    ),
    ("classify", 3): (
        "3a: yes\n"
        "3b: no\n"
        "||A^-1||: 1.60948\n"
        "rho(|A^-1|): 0.666667\n"
        "note: A - I is a nonsingular M-matrix (certificate 3a)\n"
        "verdict: UniqueSolution (basis: Condition3a)\n"
        "solution: (-2.24, -1.2)\n"
    ),
    ("classify", 4): (
        "3a: no\n"
        "3b: yes\n"
        "v: (1, 1)\n"
        "v.b: -20\n"
        "||A^-1||: 1\n"
        "rho(|A^-1|): 1\n"
        "note: A - I is a singular irreducible M-matrix with positive left kernel (certificate 3b); this criterion is sufficient, not proven equivalent, and rejects reducible singular cases\n"
        "verdict: UniqueSolution (basis: Condition3b_NegVb)\n"
        "solution: (-4, -6)\n"
    ),
    ("classify", 5): (
        "3a: no\n"
        "3b: yes\n"
        "v: (1, 0.5)\n"
        "v.b: -7\n"
        "||A^-1||: 1.17082\n"
        "rho(|A^-1|): 1\n"
        "note: A - I is a singular irreducible M-matrix with positive left kernel (certificate 3b); this criterion is sufficient, not proven equivalent, and rejects reducible singular cases\n"
        "verdict: UniqueSolution (basis: Condition3b_NegVb)\n"
        "solution: (-2, -3)\n"
    ),
    ("oracle", 2): (
        "solution: (88, 32)\n"
        "count: One (1)\n"
    ),
    ("oracle", 3): (
        "solution: (-2.24, -1.2)\n"
        "count: One (1)\n"
    ),
    ("oracle", 4): (
        "solution: (-4, -6)\n"
        "singular branch (+1,+1): inconsistent\n"
        "count: One (1)\n"
    ),
    ("oracle", 5): (
        "solution: (-2, -3)\n"
        "singular branch (+1,+1): inconsistent\n"
        "count: One (1)\n"
    ),
}

PINNED_REPRODUCE_EXAMPLES = (
    "ex2: IT=1 (reference: 1) x=(88, 32) maxerr=0.00e+00\n"
    "ex3: IT=2 (reference: 2) x=(-2.24, -1.2) maxerr=4.44e-16\n"
    "ex4: IT=2 (reference: 2) x=(-4, -6) maxerr=0.00e+00\n"
    "ex5: IT=2 (reference: 2) x=(-2, -3) maxerr=0.00e+00\n"
    "examples: PASS\n"
)


@pytest.mark.parametrize("command, k", sorted(PINNED_TEXT))
def test_default_text_output_is_pinned(ex_files, capsys, command, k):
    flags = ("--trace",) if command == "solve" else ()
    code, out, err = run(capsys, command, ex_files[k], *flags)
    assert code == 0
    assert err == ""
    assert out == PINNED_TEXT[command, k]


def test_reproduce_examples_text_is_pinned(capsys):
    code, out, err = run(capsys, "reproduce", "--examples")
    assert code == 0
    assert err == ""
    assert out == PINNED_REPRODUCE_EXAMPLES


# Full --json output, byte for byte: each pinned document, dumped with
# indent=2 as the CLI dumps it, must equal what the call prints, so key
# order, int against float and every digit count.  "{tmp}" stands for the
# test's temporary directory.
PINNED_JSON = {
    ("solve", "{tmp}/ex4.ave", "--trace", "--json"): {
        "command": "avekit solve {tmp}/ex4.ave --trace --json",
        "input": "{tmp}/ex4.ave",
        "input_digest": "84eb1a00617767c11222a02d20157b52fa757d2856ed56d42ebf4cdcfa332aba",
        "result": {
            "status": "Converged",
            "iterations": 2,
            "x": [-4.0, -6.0],
            "residual": 0.0,
            "residual_history": [20.09975124224178, 36.0, 0.0],
            "sign_history": [[-1, 1], [-1, -1], [-1, -1]],
            "monotone_from_k1": True,
            "notes": ["x0 had D(x0) = I; negated its first component"],
        },
    },
    ("classify", "{tmp}/ex4.ave", "--json"): {
        "command": "avekit classify {tmp}/ex4.ave --json",
        "input": "{tmp}/ex4.ave",
        "input_digest": "84eb1a00617767c11222a02d20157b52fa757d2856ed56d42ebf4cdcfa332aba",
        "result": {
            "is_z": True,
            "satisfies_3a": False,
            "satisfies_3b": True,
            "v": [1.0, 1.0],
            "v_dot_b": -20.0,
            "norm_a_inv": 0.9999999999999996,
            "rho_abs_a_inv": 1.0,
            "verdict": "UniqueSolution",
            "basis": "Condition3b_NegVb",
            "witness": [-4.0, -6.0],
            "notes": [
                (
                    "A - I is a singular irreducible M-matrix with positive left kernel "
                    "(certificate 3b); this criterion is sufficient, not proven equivalent, and "
                    "rejects reducible singular cases"
                ),
            ],
        },
    },
    ("oracle", "{tmp}/ex4.ave", "--json"): {
        "command": "avekit oracle {tmp}/ex4.ave --json",
        "input": "{tmp}/ex4.ave",
        "input_digest": "84eb1a00617767c11222a02d20157b52fa757d2856ed56d42ebf4cdcfa332aba",
        "result": {
            "isolated": [[-4.0, -6.0]],
            "singular_branches": [{"pattern": [1, 1], "consistent": False}],
            "count": {"kind": "One", "count": 1},
            "exhaustive_bound": 20,
        },
    },
    ("solve", "{tmp}/ex5.ave", "--trace", "--json"): {
        "command": "avekit solve {tmp}/ex5.ave --trace --json",
        "input": "{tmp}/ex5.ave",
        "input_digest": "6f94263a172ba5659d48a4e9ceb42bd2bc51220ab224230198f8eed5dbfdcedf",
        "result": {
            "status": "Converged",
            "iterations": 2,
            "x": [-2.0, -3.0],
            "residual": 0.0,
            "residual_history": [10.0, 18.0, 0.0],
            "sign_history": [[-1, 1], [-1, -1], [-1, -1]],
            "monotone_from_k1": True,
            "notes": ["x0 had D(x0) = I; negated its first component"],
        },
    },
    ("classify", "{tmp}/ex5.ave", "--json"): {
        "command": "avekit classify {tmp}/ex5.ave --json",
        "input": "{tmp}/ex5.ave",
        "input_digest": "6f94263a172ba5659d48a4e9ceb42bd2bc51220ab224230198f8eed5dbfdcedf",
        "result": {
            "is_z": True,
            "satisfies_3a": False,
            "satisfies_3b": True,
            "v": [1.0, 0.5],
            "v_dot_b": -7.0,
            "norm_a_inv": 1.170820393249937,
            "rho_abs_a_inv": 1.0,
            "verdict": "UniqueSolution",
            "basis": "Condition3b_NegVb",
            "witness": [-2.0, -3.0],
            "notes": [
                (
                    "A - I is a singular irreducible M-matrix with positive left kernel "
                    "(certificate 3b); this criterion is sufficient, not proven equivalent, and "
                    "rejects reducible singular cases"
                ),
            ],
        },
    },
    ("oracle", "{tmp}/ex5.ave", "--json"): {
        "command": "avekit oracle {tmp}/ex5.ave --json",
        "input": "{tmp}/ex5.ave",
        "input_digest": "6f94263a172ba5659d48a4e9ceb42bd2bc51220ab224230198f8eed5dbfdcedf",
        "result": {
            "isolated": [[-2.0, -3.0]],
            "singular_branches": [{"pattern": [1, 1], "consistent": False}],
            "count": {"kind": "One", "count": 1},
            "exhaustive_bound": 20,
        },
    },
    ("reproduce", "--examples", "--json"): {
        "command": "avekit reproduce --examples --json",
        "table1": None,
        "examples": [
            {
                "example": "ex2",
                "iterations": 1,
                "reference_iterations": 1,
                "x": [88.0, 32.0],
                "reference_x": [88.0, 32.0],
                "max_error": 0.0,
                "pass": True,
            },
            {
                "example": "ex3",
                "iterations": 2,
                "reference_iterations": 2,
                "x": [-2.2399999999999998, -1.2],
                "reference_x": [-2.24, -1.2],
                "max_error": 4.440892098500626e-16,
                "pass": True,
            },
            {
                "example": "ex4",
                "iterations": 2,
                "reference_iterations": 2,
                "x": [-4.0, -6.0],
                "reference_x": [-4.0, -6.0],
                "max_error": 0.0,
                "pass": True,
            },
            {
                "example": "ex5",
                "iterations": 2,
                "reference_iterations": 2,
                "x": [-2.0, -3.0],
                "reference_x": [-2.0, -3.0],
                "max_error": 0.0,
                "pass": True,
            },
        ],
        "pass": True,
    },
    ("generate", "--family", "ex4", "-o", "{tmp}/g.ave", "--json"): {
        "command": "avekit generate --family ex4 -o {tmp}/g.ave --json",
        "family": "ex4",
        "n": 2,
        "seed": None,
        "path": "{tmp}/g.ave",
        "digest": "84eb1a00617767c11222a02d20157b52fa757d2856ed56d42ebf4cdcfa332aba",
    },
    ("convert", "--T", "1", "--c", "3", "-o", "{tmp}/c.ave", "--json"): {
        "command": "avekit convert --T 1 --c 3 -o {tmp}/c.ave --json",
        "path": "{tmp}/c.ave",
        "digest": "f9bc138c04ce645a5d41d83f4073237e5b4bcee4a365bba66dab859f5ccad553",
        "note": "solution map: x = -y where y solves this problem",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_JSON), ids=[" ".join(a) for a in PINNED_JSON])
def test_json_output_is_pinned(ex_files, tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert err == ""
    assert out.replace(str(tmp_path), "{tmp}") == json.dumps(PINNED_JSON[argv], indent=2) + "\n"


# --json is written by cli._json, which must print what
# json.dumps(doc, indent=2, default=np.ndarray.tolist) prints.
def _reference_json(doc):
    return json.dumps(doc, indent=2, default=np.ndarray.tolist)


def test_json_writer_matches_json_dumps_on_the_pinned_documents():
    for doc in PINNED_JSON.values():
        assert _json(doc) == _reference_json(doc)


_SYNTHETIC_DOCS = [
    {"nan": float("nan"), "inf": [1.0, float("inf"), -float("inf")], "array": np.array([np.nan, 1.5, -np.inf])},
    {"f64": np.float64(0.1), "list": [np.float64(1e300), 2.5], "scalar_array": np.array(2.5)},
    {"consts": [True, False, None], "ints_and_bools": [1, True, 0, False], "bools": np.array([True, False])},
    {"empty_list": [], "empty_dict": {}, "empty_tuple": (), "nested": [[], {}, ()], "empty_array": np.array([])},
    {"tuple_of_arrays": (np.arange(3), np.array([[1.0, 2.0], [3.0, 4.0]])), "pair": (1, 2.0)},
    {"int8": np.array([-1, 1, 0], dtype=np.int8), "uint64": np.arange(3, dtype=np.uint64), "big": [10**30, -(10**30)]},
    {"tiny": np.array([1e-310, 5e-324, -0.0, 1.7976931348623157e308]), "mixed": [1, 2.5, "three", None]},
    {"naïve ☃": "ünïcode \U0001f600", "esc": "quote \" backslash \\ tab \t newline \n nul \x00", "\n": " "},
    [[[1.0, [2, [3.0, {"deep": [None]}]]]]],
    0.1,
    float("nan"),
    "just a string",
    None,
    7,
    [],
    {},
]


@pytest.mark.parametrize("doc", _SYNTHETIC_DOCS)
def test_json_writer_matches_json_dumps_on_synthetic_documents(doc):
    assert _json(doc) == _reference_json(doc)


def _singular_heavy(n):
    # A = I + U, U strictly upper triangular and nonpositive, b = A x* + x*
    # for x* < 0: every step matrix but one is singular
    rng = np.random.default_rng(8)
    a = np.eye(n) + np.triu(-rng.uniform(0.1, 1.1, (n, n)), 1)
    xstar = -rng.uniform(0.5, 2.0, n)
    return a, a @ xstar + xstar


def _document(argv):
    args = build_parser().parse_args(argv)
    args.command_echo = "avekit " + " ".join(argv)
    return args.func(args)[1]


def test_every_subcommand_prints_the_json_dumps_bytes(tmp_path, capsys):
    ex1, rand3a = str(tmp_path / "ex1_2000.ave"), str(tmp_path / "rand3a_50.ave")
    singular = write_problem(tmp_path, "singular_8.ave", *_singular_heavy(8))
    calls = [
        ["generate", "--family", "ex1", "--n", "2000", "-o", ex1, "--json"],
        ["generate", "--family", "rand3a", "--n", "50", "--seed", "3", "-o", rand3a, "--json"],
        ["convert", "--T", "1,0.5;0,1", "--c", "3,-3", "-o", str(tmp_path / "c.ave"), "--json"],
        ["reproduce", "--table1", "--sizes", "2000", "--json"],
        ["reproduce", "--examples", "--json"],
    ]
    for path in (ex1, rand3a, singular):
        calls += [["solve", path, "--json"], ["classify", path, "--json"]]
    calls.append(["oracle", singular, "--json"])
    for argv in calls:
        code, out, err = run(capsys, *argv)
        # from ones, the singular-heavy solve meets a singular step matrix
        assert code == (3 if argv[:2] == ["solve", singular] else 0), argv
        assert err == "", argv
        assert out == _reference_json(_document(argv)) + "\n", argv
    # the oracle document lists one singular branch per pattern but one
    assert len(json.loads(out)["result"]["singular_branches"]) == 2**8 - 1


def test_json_output_does_not_use_the_indenting_python_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps(..., indent=2) runs json's pure-Python encoder; a later
    # change that falls back to it fails here
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    path = str(tmp_path / "ex1_12.ave")
    assert main(["generate", "--family", "ex1", "--n", "12", "-o", path, "--json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for command in ("solve", "classify", "oracle"):
        code, out, err = run(capsys, command, path, "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["input"] == path


# main() without arguments, as the process runs it; the freeze count goes
# to stderr after everything the call wrote there
PROGRAM = (
    "import gc, sys; from avekit.cli import main; c = main(); "
    "sys.stderr.write(f'{gc.get_freeze_count()}'); sys.exit(c)"
)


def _launch(*args, stdout=subprocess.PIPE):
    src = str(Path(avekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_program_mode_writes_what_the_library_writes_and_freezes_the_import_heap(ex_files, capsys):
    calls = [
        ["solve", ex_files[2]],
        ["classify", ex_files[4]],
        ["oracle", ex_files[4], "--json"],
        ["solve", "/nonexistent/nope.ave"],
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        proc = _launch("-c", PROGRAM, *argv)
        stdout, stderr = proc.communicate(timeout=60)
        prefix, count = re.fullmatch(rb"(.*?)(\d+)", stderr, re.DOTALL).groups()
        assert (proc.returncode, stdout, prefix) == (code, out.encode(), err.encode()), argv
        assert int(count) > 0, argv
    assert code == 2 and err.startswith("error: cannot read /nonexistent/nope.ave")


@pytest.mark.parametrize("command, k, flags", [("solve", 2, []), ("oracle", 4, ["--json"])])
def test_program_mode_exits_141_without_a_traceback_on_a_closed_pipe(ex_files, command, k, flags):
    # the read end is closed before the child starts, so its first write
    # fails with EPIPE whatever the size of the output
    read, write = os.pipe()
    os.close(read)
    proc = _launch("-m", "avekit.cli", command, ex_files[k], *flags, stdout=write)
    os.close(write)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""


def test_library_mode_leaves_the_collector_alone(ex_files, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main(argv) froze the collector")

    monkeypatch.setattr(gc, "freeze", refuse)
    frozen = gc.get_freeze_count()
    calls = [
        ["generate", "--family", "ex1", "--n", "8", "-o", str(tmp_path / "g.ave")],
        ["convert", "--T", "1,0;0,1", "--c", "3,3", "-o", str(tmp_path / "c.ave")],
        ["solve", ex_files[2], "--json"],
        ["classify", ex_files[4]],
        ["oracle", ex_files[4]],
        ["reproduce", "--examples"],
        ["solve", "/nonexistent/nope.ave"],
    ]
    for argv in calls:
        main(argv)
        assert gc.get_freeze_count() == frozen, argv
        assert gc.isenabled(), argv


# A list of same-shaped dicts goes through one % template in cli._json;
# any other list goes node by node.  Both must print the json.dumps bytes.
def _count_json_calls(m) -> list:
    """Patch cli._json through ``m`` to note the value of every call."""
    calls = []
    real = cli._json

    def counting(o, pad=""):
        calls.append(o)
        return real(o, pad)

    m.setattr(cli, "_json", counting)
    return calls


def _json_calls(monkeypatch, doc):
    """The text cli._json writes for doc, and the values of its calls."""
    with monkeypatch.context() as m:
        calls = _count_json_calls(m)
        text = cli._json(doc)
    return text, calls


def _branch_list(flags):
    return [
        {"pattern": [1 if k >> i & 1 else -1 for i in range(3)], "consistent": flag}
        for k, flag in enumerate(flags)
    ]


MIXED = _branch_list([True, False, False, True, False, True, True])
_TEMPLATE_LISTS = {
    "one branch": _branch_list([False]),
    "mixed flags": MIXED,
    "mixed leaves": [
        {"name": "a\"%s", "x": 0.1, "k": 3, "v": [0.5, -2.0, 1e300], "none": None},
        {"name": "b%%", "x": -2.5e-310, "k": -(10**30), "v": [1.0], "none": None},
    ],
    "mixed kinds in a column": [{"v": 1, "w": [7]}, {"v": "one", "w": [8, 9]}, {"v": None, "w": [10**40]}],
    "percent in a key": [{"%s %d": True}, {"%s %d": False}],
}
_NODE_LISTS = {
    "keys differ": [{"pattern": [1], "consistent": True}, {"pattern": [1], "flag": True}],
    "key order differs": [{"pattern": [1], "consistent": True}, {"consistent": True, "pattern": [1]}],
    "NaN leaf": [{"x": 1.0}, {"x": float("nan")}],
    "infinite entry": [{"v": [1.0, 2.0]}, {"v": [float("inf")]}],
    "numpy float": [{"x": np.float64(0.5)}, {"x": np.float64(1.5)}],
    "bool among ints": [{"pattern": [1, -1]}, {"pattern": [True, -1]}],
    "ints and floats across items": [{"v": [1, 2]}, {"v": [1.5]}],
    "empty list value": [{"v": [1]}, {"v": []}],
    "tuple value": [{"v": (1, 2)}, {"v": (3, 4)}],
    "nested dict": [{"d": {"a": 1}}, {"d": {"a": 2}}],
    "empty dicts": [{}, {}],
    "not all dicts": [{"a": 1}, [1]],
}


def _at_depths(items):
    # the list itself, then nested one and two levels deeper
    return [items, {"singular_branches": items}, {"result": {"count": 1, "singular_branches": items}}]


@pytest.mark.parametrize("name", list(_TEMPLATE_LISTS))
def test_json_template_writes_the_json_dumps_bytes(monkeypatch, name):
    items = _TEMPLATE_LISTS[name]
    for doc in _at_depths(items):
        text, calls = _json_calls(monkeypatch, doc)
        assert text == _reference_json(doc)
        # the items are written by the template, not by a call each
        assert not any(o is item for o in calls for item in items)


@pytest.mark.parametrize("name", list(_NODE_LISTS))
def test_json_lists_unlike_the_template_go_node_by_node(monkeypatch, name):
    items = _NODE_LISTS[name]
    for doc in _at_depths(items):
        text, calls = _json_calls(monkeypatch, doc)
        assert text == _reference_json(doc)
        assert all(any(o is item for o in calls) for item in items)


def test_json_template_leaves_empty_lists_to_the_leaf_path(monkeypatch):
    for doc in _at_depths([]):
        assert _json_calls(monkeypatch, doc)[0] == _reference_json(doc)


def test_oracle_branches_are_written_by_the_template(tmp_path, capsys, monkeypatch):
    # 255 of the 256 patterns of this problem are singular branches
    path = write_problem(tmp_path, "singular_8.ave", *_singular_heavy(8))
    calls = _count_json_calls(monkeypatch)
    code, out, err = run(capsys, "oracle", path, "--json")
    assert code == 0 and err == ""
    assert out == _reference_json(_document(["oracle", path, "--json"])) + "\n"
    assert len(json.loads(out)["result"]["singular_branches"]) == 255
    # node by node would take a call for each branch and each of its values
    assert len(calls) < 50
