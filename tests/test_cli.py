"""End-to-end CLI behavior: output shapes, exit codes, JSON round-trips."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from avekit.cli import main
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


def test_solve_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ave"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: not UTF-8 text: invalid start byte at byte 0\n"


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
