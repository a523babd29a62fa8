"""Output checks for the CLI benchmark, computed apart from the program.

Nothing here imports avekit.  Expected values come from closed forms
(the ex1 family, its inverse norm, the 2x2 reference solutions), from the
benchmark's own reading of the problem files, and from numpy.  Each
checker takes the call's exit code and its standard output and returns a
list of problems; an empty list means the call passed.

``python3 clibench/checks.py`` runs :func:`self_test`, which shows that
every checker accepts a correct answer and rejects a perturbed one.  The
benchmark also runs it before every measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Exit codes as the project README lists them.
EXIT_BY_STATUS = {
    "Converged": 0,
    "SignStabilized": 0,
    "SingularStep": 3,
    "IterationCapReached": 4,
}
RESIDUAL_REL = 1e-8  # ||Ax - |x| - b|| <= RESIDUAL_REL * ||b||
EX1_X_REL = 1e-9  # max|x - x*| <= EX1_X_REL * max|x*|
EX1_NORM_REL = 1e-5  # inverse-norm diagnostics against the closed form
KERNEL_REL = 1e-10  # ||v^T (A - I)|| <= KERNEL_REL * ||A||
TABLE1_SIZES = (2000, 4000, 6000, 8000, 10000)
# The paper's four 2x2 examples and their solutions.
EXAMPLES_2X2 = {
    "ex2": (88.0, 32.0),
    "ex3": (-2.24, -1.2),
    "ex4": (-4.0, -6.0),
    "ex5": (-2.0, -3.0),
}


# --------------------------------------------------------------------------
# .ave files, read and written without the program


def read_ave(path) -> dict:
    """Parse a minus- or plus-convention .ave file into numpy arrays.

    Returns {"n", "structure", "a", "b"}; ``a`` is a dense array or a
    (sub, main, super) tuple.  Plus convention is mapped to minus by
    negating b, as the format specifies.
    """
    tokens = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].split()
        if body and body[0] == "meta":
            break
        tokens.extend(body)
    it = iter(tokens)
    head = {}
    for key in ("version", "convention", "structure", "n"):
        if next(it) != key:
            raise ValueError(f"{path}: expected {key!r}")
        head[key] = next(it)
    n = int(head["n"])

    def floats(label, count):
        if next(it) != label:
            raise ValueError(f"{path}: expected section {label!r}")
        return np.array([float(next(it)) for _ in range(count)])

    if head["structure"] == "dense":
        a = floats("A", n * n).reshape(n, n)
    else:
        a = (floats("A.sub", n - 1), floats("A.main", n), floats("A.super", n - 1))
    b = floats("b", n)
    if head["convention"] == "plus":
        b = -b
    return {"n": n, "structure": head["structure"], "a": a, "b": b}


def write_ave(path, a: np.ndarray, b: np.ndarray, family: str) -> None:
    """Write a dense minus-convention .ave file with round-trip digits."""
    n = b.shape[0]
    lines = ["version 1", "convention minus", "structure dense", f"n {n}", "A"]
    lines += [" ".join(format(float(t), ".17g") for t in row) for row in a]
    lines += ["b", " ".join(format(float(t), ".17g") for t in b)]
    lines.append(f"meta family {family}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# Independent numerics


def matvec(a, x: np.ndarray) -> np.ndarray:
    if isinstance(a, tuple):
        sub, main, sup = a
        y = main * x
        y[1:] += sub * x[:-1]
        y[:-1] += sup * x[1:]
        return y
    return a @ x


def residual_problem(a, b, x) -> str | None:
    x = np.asarray(x, dtype=float)
    if x.shape != b.shape:
        return f"solution has shape {x.shape}, expected {b.shape}"
    r = float(np.linalg.norm(matvec(a, x) - np.abs(x) - b))
    limit = RESIDUAL_REL * float(np.linalg.norm(b))
    if not r <= limit:
        return f"residual {r:.3e} exceeds {limit:.3e}"
    return None


def ex1_matrix(n: int):
    return (np.full(n - 1, -2.0), np.full(n, 7.0), np.full(n - 1, -2.0))


def ex1_xstar(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return np.exp(6.0 * (i - 1.0) / (n - 1.0) - 5.0) - 1.0


def ex1_rhs(n: int) -> np.ndarray:
    x = ex1_xstar(n)
    return matvec(ex1_matrix(n), x) - np.abs(x)


def ex1_inverse_norm(n: int) -> float:
    """||A^-1||_2 = rho(|A^-1|) = 1 / lambda_min for tridiag(-2, 7, -2)."""
    return 1.0 / (7.0 - 4.0 * math.cos(math.pi / (n + 1)))


def left_kernel(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit left singular vector of A - I for its smallest singular value,
    signed to have a positive sum, and that singular value."""
    m = a - np.eye(a.shape[0])
    u, s, _ = np.linalg.svd(m)
    v = u[:, -1]
    return (v if v.sum() >= 0 else -v), float(s[-1])


def newton_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax - |x| = b by Newton steps from x0 = -1 with numpy solves.

    Used only for instances certified by (3a) or by (3b) with v.b < 0,
    where the iteration ends in at most 2n + 2 steps.
    """
    n = b.shape[0]
    x = -np.ones(n)
    for _ in range(2 * n + 2):
        x = np.linalg.solve(a - np.diag(np.where(x >= 0.0, 1.0, -1.0)), b)
        if residual_problem(a, b, x) is None:
            return x
    raise RuntimeError("reference Newton iteration did not converge")


def family_points(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list]:
    """Anchor u and points u - alpha v of a (3b), v.b = 0 continuum,
    with v = ones (the kernel of a graph Laplacian) and alpha < min u."""
    u = np.linalg.pinv(a - np.eye(b.shape[0])) @ b
    return u, [u - alpha * np.ones_like(u) for alpha in (u.min() - 0.5, u.min() - 3.0)]


# --------------------------------------------------------------------------
# Checkers


def _json(out: str):
    try:
        return json.loads(out), None
    except ValueError:
        return None, "standard output is not a JSON document"


def _close(x, ref, rel) -> str | None:
    x = np.asarray(x, dtype=float)
    if x.shape != ref.shape:
        return f"vector has shape {x.shape}, expected {ref.shape}"
    err = float(np.max(np.abs(x - ref)))
    limit = rel * float(np.max(np.abs(ref)))
    if not err <= limit:
        return f"max error {err:.3e} exceeds {limit:.3e}"
    return None


def check_generate(path, ref_digest: str | None, validate):
    """The file is the one the JSON names, byte-identical to the
    reference, and passes ``validate(parsed_file) -> list[str]``."""

    def check(code: int, out: str) -> list[str]:
        doc, err = _json(out)
        if err:
            return [err]
        probs = [] if code == 0 else [f"exit code {code}, expected 0"]
        digest = sha256(path)
        if doc.get("digest") != digest:
            probs.append("reported digest differs from the written file")
        if ref_digest is not None and digest != ref_digest:
            probs.append("file differs from the reference generated with the same family, n and seed")
        if not probs:
            probs += validate(read_ave(path))
        return probs

    return check


def validate_ex1(n: int):
    def validate(f) -> list[str]:
        if f["n"] != n or f["structure"] != "tridiagonal":
            return [f"expected tridiagonal n={n}, got {f['structure']} n={f['n']}"]
        probs = []
        for got, want in zip(f["a"], ex1_matrix(n)):
            if not np.array_equal(got, want):
                probs.append("diagonals differ from tridiag(-2, 7, -2)")
        ref = ex1_rhs(n)
        if not float(np.max(np.abs(f["b"] - ref))) <= 1e-12 * float(np.max(np.abs(ref))):
            probs.append("b differs from A x* - |x*| for the closed-form x*")
        return probs

    return validate


def validate_certified(n: int, family: str):
    """rand3a: A - I is a Z-matrix with (A - I)^-1 >= 0.  rand3b: A - I is a
    singular Z-matrix with a positive left kernel vector v and v.b < 0."""

    def validate(f) -> list[str]:
        if f["n"] != n or f["structure"] != "dense":
            return [f"expected dense n={n}, got {f['structure']} n={f['n']}"]
        a, b = f["a"], f["b"]
        m = a - np.eye(n)
        off = m[~np.eye(n, dtype=bool)]
        if not (off <= 0.0).all():
            return ["A - I has a positive off-diagonal entry"]
        if family == "rand3a":
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                return ["A - I is singular"]
            if not inv.min() >= -1e-9 * np.abs(inv).max():
                return ["(A - I)^-1 has a negative entry"]
            return []
        v, smin = left_kernel(a)
        probs = []
        if not smin <= KERNEL_REL * np.linalg.norm(a):
            probs.append(f"A - I is not singular (smallest singular value {smin:.3e})")
        if not (v > 0).all():
            probs.append("left kernel vector of A - I is not positive")
        if not float(v @ b) < 0:
            probs.append("v.b is not negative")
        return probs

    return validate


def check_solve(a, b, x_expect=None, statuses=("Converged",), max_iter=None):
    """Status in ``statuses`` with the README's exit code, residual within
    bounds, and x close to ``x_expect`` when it is given."""

    def check(code: int, out: str) -> list[str]:
        doc, err = _json(out)
        if err:
            return [err]
        res = doc["result"]
        status = res["status"]
        probs = []
        if status not in statuses:
            probs.append(f"status {status}, expected one of {', '.join(statuses)}")
        if code != EXIT_BY_STATUS.get(status):
            probs.append(f"exit code {code} does not match status {status}")
        if max_iter is not None and res["iterations"] > max_iter:
            probs.append(f"{res['iterations']} iterations, expected at most {max_iter}")
        probs.append(residual_problem(a, b, res["x"]))
        if x_expect is not None:
            probs.append(_close(res["x"], x_expect, EX1_X_REL))
        return [p for p in probs if p]

    return check


def _kernel_problems(a, b, res, sign: int) -> list[str]:
    if res["v"] is None:
        return ["no kernel vector reported"]
    v = np.asarray(res["v"], dtype=float)
    probs = []
    if not (v > 0).all():
        probs.append("reported v is not positive")
    m = a - np.eye(b.shape[0])
    if not np.linalg.norm(v @ m) <= KERNEL_REL * np.linalg.norm(a):
        probs.append("reported v is not a left kernel vector of A - I")
    vb = float(v @ b)
    if sign and not (vb * sign > 0 and res["v_dot_b"] is not None and res["v_dot_b"] * sign > 0):
        probs.append(f"sign of v.b = {vb:.6g} (reported {res['v_dot_b']}) does not match the verdict")
    return probs


def check_classify(a, b, kind: str, ex1_n: int | None = None):
    """Verdict for an instance the benchmark knows the theory of.

    kind: "3a" (UniqueSolution by 3a), "3b-neg" (UniqueSolution by 3b with
    v.b < 0), "3b-pos" (NoSolution), "continuum" (ExistsNotUnique with
    anchor u), or "none" (Unknown, neither certificate).
    """
    expect = {
        "3a": ("UniqueSolution", "Condition3a"),
        "3b-neg": ("UniqueSolution", "Condition3b_NegVb"),
        "3b-pos": ("NoSolution", "Condition3b_PosVb"),
        "continuum": ("ExistsNotUnique", "Condition3b_ZeroVb_Symmetric"),
        "none": ("Unknown", "NoCertificate"),
    }[kind]

    def check(code: int, out: str) -> list[str]:
        doc, err = _json(out)
        if err:
            return [err]
        res = doc["result"]
        probs = [] if code == 0 else [f"exit code {code}, expected 0"]
        if (res["verdict"], res["basis"]) != expect:
            probs.append(f"verdict {res['verdict']}/{res['basis']}, expected {'/'.join(expect)}")
            return probs
        if kind in ("3a", "3b-neg"):
            if res["witness"] is None:
                probs.append("no solution witness")
            else:
                probs.append(residual_problem(a, b, res["witness"]))
        if kind == "3a":
            if not (res["is_z"] and res["satisfies_3a"]):
                probs.append("3a verdict without is_z and satisfies_3a")
        elif kind == "none":
            if res["satisfies_3a"] or res["satisfies_3b"]:
                probs.append("a certificate is claimed where none holds")
        else:
            sign = {"3b-neg": -1, "3b-pos": 1, "continuum": 0}[kind]
            probs += _kernel_problems(a, b, res, sign)
        if kind == "continuum" and res["witness"] is not None:
            u = np.asarray(res["witness"], dtype=float)
            m = a - np.eye(b.shape[0])
            if not np.linalg.norm(m @ u - b) <= RESIDUAL_REL * np.linalg.norm(b):
                probs.append("anchor u does not solve (A - I) u = b")
            for alpha in (u.min() - 0.5, u.min() - 3.0):
                probs.append(residual_problem(a, b, u - alpha))
        elif kind == "continuum":
            probs.append("no family anchor reported")
        if ex1_n is not None:
            ref = ex1_inverse_norm(ex1_n)
            for key in ("norm_a_inv", "rho_abs_a_inv"):
                got = res[key]
                if got is None or not abs(got - ref) <= EX1_NORM_REL * ref:
                    probs.append(f"{key} = {got}, closed form {ref:.12g}")
        return [p for p in probs if p]

    return check


def check_oracle(a, b, kind: str, x_expect=None):
    """Count kind from the theory, every isolated solution verified by the
    residual, and ``x_expect`` among them when it is given."""

    def check(code: int, out: str) -> list[str]:
        doc, err = _json(out)
        if err:
            return [err]
        res = doc["result"]
        probs = [] if code == 0 else [f"exit code {code}, expected 0"]
        if res["count"]["kind"] != kind:
            probs.append(f"count {res['count']['kind']}, expected {kind}")
        isolated = [np.asarray(x, dtype=float) for x in res["isolated"]]
        probs += [residual_problem(a, b, x) for x in isolated]
        consistent = any(br["consistent"] for br in res["singular_branches"])
        if kind == "ContinuumSuspected" and not consistent:
            probs.append("no consistent singular branch for a continuum")
        if kind in ("Zero", "One") and consistent:
            probs.append("a singular branch is flagged consistent")
        if kind == "Zero" and isolated:
            probs.append("isolated solutions reported where none exists")
        if kind == "One" and len(isolated) != 1:
            probs.append(f"{len(isolated)} isolated solutions, expected 1")
        if x_expect is not None and not any(
            _close(x, x_expect, RESIDUAL_REL) is None for x in isolated if x.shape == x_expect.shape
        ):
            probs.append("the known solution is not among the isolated solutions")
        return [p for p in probs if p]

    return check


def check_table1(code: int, out: str) -> list[str]:
    doc, err = _json(out)
    if err:
        return [err]
    probs = [] if code == 0 else [f"exit code {code}, expected 0"]
    rows = doc.get("table1") or []
    if tuple(r["n"] for r in rows) != TABLE1_SIZES:
        return probs + [f"table1 sizes {[r['n'] for r in rows]}, expected {list(TABLE1_SIZES)}"]
    for r in rows:
        if not r["residual"] <= 1e-10:
            probs.append(f"n={r['n']}: residual {r['residual']:.3e} above 1e-10")
        if not r["iterations"] <= 4:
            probs.append(f"n={r['n']}: {r['iterations']} iterations, more than 4")
    return probs


def check_examples(code: int, out: str) -> list[str]:
    doc, err = _json(out)
    if err:
        return [err]
    probs = [] if code == 0 else [f"exit code {code}, expected 0"]
    got = {r["example"]: r["x"] for r in doc.get("examples") or []}
    if set(got) != set(EXAMPLES_2X2):
        return probs + [f"examples {sorted(got)}, expected {sorted(EXAMPLES_2X2)}"]
    for name, ref in EXAMPLES_2X2.items():
        p = _close(got[name], np.array(ref), EX1_X_REL)
        if p:
            probs.append(f"{name}: {p}")
    return probs


# --------------------------------------------------------------------------
# Self-test: every checker accepts a correct answer and rejects a perturbed one


def _doc(**result) -> str:
    return json.dumps({"result": result})


def _solve_doc(x, status="Converged", iterations=3) -> str:
    return _doc(status=status, iterations=iterations, x=list(map(float, x)))


def _classify_doc(verdict, basis, witness=None, v=None, vb=None, norm=None, rho=None, z=True, s3a=False, s3b=False) -> str:
    return _doc(
        verdict=verdict, basis=basis, is_z=z, satisfies_3a=s3a, satisfies_3b=s3b,
        witness=None if witness is None else list(map(float, witness)),
        v=None if v is None else list(map(float, v)), v_dot_b=vb,
        norm_a_inv=norm, rho_abs_a_inv=rho,
    )


def _oracle_doc(isolated, kind, consistent=()) -> str:
    return _doc(
        isolated=[list(map(float, x)) for x in isolated],
        singular_branches=[{"pattern": [1], "consistent": c} for c in consistent],
        count={"kind": kind, "count": None},
    )


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"checker self-test: {what}")


def _judge(check, good, bad: list, code=0) -> None:
    """``check`` accepts ``good`` and rejects every answer in ``bad``."""
    _require(check(code, good) == [], f"a correct answer was rejected: {check(code, good)}")
    for out in bad:
        _require(bool(check(code, out)), f"a perturbed answer passed: {out[:120]}")


def _judge_file(validate, good: dict, bad: dict) -> None:
    _require(validate(good) == [], f"a valid input was rejected: {validate(good)}")
    _require(bool(validate(bad)), "an invalid input passed")


def self_test(workdir) -> None:
    """Raise AssertionError when a checker misjudges a known answer."""
    workdir = Path(workdir)

    n = 12
    t, xs, b1 = ex1_matrix(n), ex1_xstar(n), ex1_rhs(n)
    off = xs.copy()
    off[3] += 1e-6
    _judge(check_solve(t, b1, xs), _solve_doc(xs), [_solve_doc(off), _solve_doc(xs, "IterationCapReached")])
    _require(bool(check_solve(t, b1, xs)(4, _solve_doc(xs))), "a wrong exit code passed")
    strict = check_solve(t, b1, xs, ("Converged", "SignStabilized"), 4)
    _judge(strict, _solve_doc(xs, "SignStabilized", 4), [_solve_doc(xs, iterations=5)])

    ref = ex1_inverse_norm(n)
    _judge(
        check_classify(t, b1, "3a", ex1_n=n),
        _classify_doc("UniqueSolution", "Condition3a", xs, norm=ref, rho=ref, s3a=True),
        [
            _classify_doc("UniqueSolution", "Condition3a", xs, norm=ref * (1 - 1e-4), rho=ref, s3a=True),
            _classify_doc("UniqueSolution", "Condition3a", off, norm=ref, rho=ref, s3a=True),
            _classify_doc("Unknown", "NoCertificate", norm=ref, rho=ref),
        ],
    )
    _judge(check_oracle(t, b1, "One", xs), _oracle_doc([xs], "One"),
           [_oracle_doc([off], "One"), _oracle_doc([xs], "Zero")])

    # A (3b) instance with v = ones: A = I + L for the path-graph Laplacian L.
    lap = np.diag([1.0] + [2.0] * (n - 2) + [1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)
    a = np.eye(n) + lap
    ones = np.ones(n)
    bneg = -np.linspace(1.0, 3.0, n)
    xneg = newton_solution(a, bneg)
    vbad = ones.copy()
    vbad[0] = 2.0
    _judge(
        check_classify(a, bneg, "3b-neg"),
        _classify_doc("UniqueSolution", "Condition3b_NegVb", xneg, ones, float(ones @ bneg), s3b=True),
        [
            _classify_doc("UniqueSolution", "Condition3b_NegVb", xneg, vbad, float(ones @ bneg), s3b=True),
            _classify_doc("UniqueSolution", "Condition3b_NegVb", xneg, -ones, float(ones @ bneg), s3b=True),
            _classify_doc("UniqueSolution", "Condition3b_NegVb", xneg, ones, 1.0, s3b=True),
        ],
    )
    _judge(
        check_classify(a, -bneg, "3b-pos"),
        _classify_doc("NoSolution", "Condition3b_PosVb", None, ones, float(-ones @ bneg), s3b=True),
        [_classify_doc("UniqueSolution", "Condition3b_NegVb", xneg, ones, float(-ones @ bneg), s3b=True)],
    )
    _judge(check_oracle(a, -bneg, "Zero"), _oracle_doc([], "Zero"),
           [_oracle_doc([xneg], "Zero"), _oracle_doc([], "Zero", [True])])

    bzero = bneg - bneg.mean()
    u, points = family_points(a, bzero)
    _require(all(residual_problem(a, bzero, x) is None for x in points), "family points do not solve")
    _judge(
        check_classify(a, bzero, "continuum"),
        _classify_doc("ExistsNotUnique", "Condition3b_ZeroVb_Symmetric", u, ones, 0.0, s3b=True),
        [_classify_doc("ExistsNotUnique", "Condition3b_ZeroVb_Symmetric", u + 1e-3 * np.arange(n), ones, 0.0,
                       s3b=True)],
    )
    _judge(
        check_oracle(a, bzero, "ContinuumSuspected"),
        _oracle_doc([points[0]], "ContinuumSuspected", [True]),
        [
            _oracle_doc([points[0]], "ContinuumSuspected", [False]),
            _oracle_doc([points[0] + 1e-3 * np.arange(n)], "ContinuumSuspected", [True]),
        ],
    )
    _judge(
        check_classify(a, bzero, "none"),
        _classify_doc("Unknown", "NoCertificate"),
        [_classify_doc("Unknown", "NoCertificate", s3b=True)],
    )

    _judge(
        check_table1,
        _doc_table([(m, 3, 5e-14) for m in TABLE1_SIZES]),
        [_doc_table([(m, 3, 5e-10) for m in TABLE1_SIZES]), _doc_table([(m, 5, 5e-14) for m in TABLE1_SIZES])],
    )
    good = {k: list(v) for k, v in EXAMPLES_2X2.items()}
    bad = dict(good, ex3=[-2.24, -1.2 + 1e-6])
    _judge(check_examples, _doc_examples(good), [_doc_examples(bad)])

    # generate: the written file round-trips through read_ave and passes its
    # validation; a wrong reported digest or a changed file fails
    path = workdir / "selftest.ave"
    write_ave(path, a, bneg, "selftest")
    reported = json.dumps({"digest": sha256(path)})
    _judge(check_generate(path, sha256(path), validate_certified(n, "rand3b")), reported,
           [json.dumps({"digest": "0" * 64})])
    _require(bool(check_generate(path, "0" * 64, validate_certified(n, "rand3b"))(0, reported)),
             "a file that differs from its reference passed")
    path.unlink()

    def dense_file(m, rhs):
        return {"n": n, "structure": "dense", "a": m, "b": rhs}

    _judge_file(validate_certified(n, "rand3b"), dense_file(a, bneg), dense_file(a, -bneg))
    _judge_file(validate_certified(n, "rand3a"), dense_file(a + 0.5 * np.eye(n), bneg), dense_file(a, bneg))
    tri = {"n": n, "structure": "tridiagonal", "a": t, "b": b1}
    _judge_file(validate_ex1(n), tri, dict(tri, b=b1 * (1 + 1e-9)))


def _doc_table(rows) -> str:
    return json.dumps({"table1": [{"n": n, "iterations": k, "residual": r} for n, k, r in rows]})


def _doc_examples(xs) -> str:
    return json.dumps({"examples": [{"example": k, "x": v} for k, v in xs.items()]})


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as d:
        self_test(d)
    print("checker self-test passed")
