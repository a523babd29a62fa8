"""What a CLI call loads: scipy is imported on first use, so the calls
that never reach a scipy routine never pay for its import.  Only
``oracle`` with a kernel of dimension 2 or more and ``classify`` on a
nonsingular tridiagonal matrix that is not symmetric positive definite
reach one.  No call imports json, and only a call that makes a file
digest imports hashlib.  Nor does a call compile source text at run
time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avekit
from avekit.core import AveProblem
from avekit.linalg import TridiagonalMatrix
from avekit.problems import gen_example1, gen_random_3a, gen_random_3b, save

SRC = Path(avekit.__file__).resolve().parent

# Runs one CLI call (or only `import avekit`) and prints its exit code and
# the scipy modules it left loaded.
PROBE = """
import sys
if len(sys.argv) > 1:
    from avekit.cli import main
    code = main(sys.argv[1:])
else:
    import avekit
    code = 0
print(code, [m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules])
"""


def _tridiagonal_3b(n):
    # A - I = tridiag(-1; 1, 2, ..., 2, 1; -1) is a singular irreducible
    # M-matrix, so `solve` goes through the (3b) guard
    main = np.full(n, 3.0)
    main[[0, -1]] = 2.0
    return AveProblem(TridiagonalMatrix(-np.ones(n - 1), main, -np.ones(n - 1)), -np.ones(n))


def _singular_heavy(n):
    # A = I + U, U strictly upper triangular and nonpositive: every step
    # matrix but that of s = -1 has a zero on its diagonal
    a = np.eye(n) - np.triu(np.random.default_rng(2).uniform(0.1, 1.1, (n, n)), 1)
    x = -np.linspace(0.5, 2.0, n)
    return AveProblem(a, a @ x + x)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="import"),
        pytest.param(["generate", "--family", "ex1", "--n", "50", "-o", "g.ave"], id="generate-ex1"),
        pytest.param(
            ["generate", "--family", "rand3a", "--n", "20", "--seed", "1", "-o", "g.ave"],
            id="generate-rand3a",
        ),
        pytest.param(["solve", "ex1.ave"], id="solve-ex1"),
        pytest.param(["solve", "t3b.ave"], id="solve-tridiagonal-3b"),
        pytest.param(["reproduce", "--table1"], id="reproduce-table1"),
        pytest.param(["convert", "--T", "1,0;0,1", "--c", "3,3", "-o", "c.ave"], id="convert"),
        pytest.param(["oracle", "ex1_8.ave"], id="oracle-ex1"),
        pytest.param(["oracle", "rand3a_8.ave"], id="oracle-rand3a"),
        # one singular pattern, s = (1, ..., 1), settled by the QR step
        pytest.param(["oracle", "rand3b_8.ave"], id="oracle-rand3b"),
        # 255 of 256 patterns singular, each settled by the QR step
        pytest.param(["oracle", "heavy_8.ave"], id="oracle-singular-heavy"),
        # the dense LU, SVD and eigenvalue kernels and the Sturm bisection
        pytest.param(["classify", "ex1.ave"], id="classify-ex1"),
        pytest.param(["classify", "rand3a_8.ave"], id="classify-rand3a"),
        pytest.param(["classify", "rand3b_8.ave"], id="classify-rand3b"),
        # n = 40 runs the blocked elimination and substitutions past one panel
        pytest.param(["solve", "rand3a_40.ave"], id="solve-rand3a-blocked"),
        pytest.param(["classify", "rand3a_40.ave"], id="classify-rand3a-blocked"),
        pytest.param(["reproduce", "--examples"], id="reproduce-examples"),
    ],
)
def test_call_leaves_scipy_unloaded(tmp_path, argv):
    save(tmp_path / "ex1.ave", gen_example1(50), {})
    save(tmp_path / "t3b.ave", _tridiagonal_3b(50), {})
    save(tmp_path / "ex1_8.ave", gen_example1(8), {})
    save(tmp_path / "rand3a_8.ave", gen_random_3a(8, 1), {})
    save(tmp_path / "rand3b_8.ave", gen_random_3b(8, 1), {})
    save(tmp_path / "rand3a_40.ave", gen_random_3a(40, 1), {})
    save(tmp_path / "heavy_8.ave", _singular_heavy(8), {})
    pythonpath = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"


# Runs one CLI call with its output captured and prints its exit code and
# which of json and hashlib it left loaded.
STDLIB_PROBE = """
import contextlib, io, sys
from avekit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, [m for m in ("json", "hashlib") if m in sys.modules])
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # --json is written without json, and no digest is made
        pytest.param(["reproduce", "--examples", "--json"], [], id="reproduce-examples"),
        # the digest of the input needs hashlib
        pytest.param(["solve", "ex1.ave", "--json"], ["hashlib"], id="solve-ex1"),
    ],
)
def test_call_leaves_json_unloaded(tmp_path, argv, loaded):
    save(tmp_path / "ex1.ave", gen_example1(50), {})
    pythonpath = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == f"0 {loaded}"


# Imports numpy, then counts the source texts passed to exec, eval or
# compile (other than a module's source, compiled by the import system)
# while avekit.cli is imported and one command runs.
CODEGEN_PROBE = """
import builtins, contextlib, io, sys
import numpy
compiled = []
def counting(builtin):
    def wrapper(source, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if isinstance(source, (str, bytes)) and not caller.startswith(("importlib", "_frozen_importlib")):
            compiled.append(caller)
        return builtin(source, *args, **kwargs)
    return wrapper
for name in ("exec", "eval", "compile"):
    setattr(builtins, name, counting(getattr(builtins, name)))
from avekit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["reproduce", "--examples", "--json"])
print(code, len(compiled), sorted(set(compiled)))
"""


def test_no_source_text_is_compiled_at_run_time():
    pythonpath = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    out = subprocess.run(
        [sys.executable, "-c", CODEGEN_PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 0 []"


def _import_time_imports(node):
    """Import statements that run when the module is imported: everything
    outside function bodies, class bodies included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _import_time_imports(child)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] if node.level == 0 else []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [
        f"{path.name}:{node.lineno}"
        for node in _import_time_imports(tree)
        for name in _imported_modules(node)
        if name.split(".")[0] == "scipy"
    ]
    assert offending == []


def _tridiagonal_isinstance_calls(node, scope):
    """(scope, line) of every ``isinstance(..., TridiagonalMatrix)`` call,
    scope being the name of the innermost enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "isinstance"
            and len(child.args) == 2
            and "TridiagonalMatrix" in ast.unparse(child.args[1])
        ):
            yield inner, child.lineno
        yield from _tridiagonal_isinstance_calls(child, inner)


def test_storage_is_checked_only_in_the_picker():
    found = [
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in _tridiagonal_isinstance_calls(ast.parse(path.read_text(encoding="utf-8")), None)
    ]
    assert [(name, scope) for name, scope, _ in found] == [("linalg.py", "_structure")], found
