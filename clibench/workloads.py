"""The workloads: their instances, the calls of one round, and the
check attached to each call.

A workload's set-up makes its input files (through ``avekit generate``
where the family exists, and with the benchmark's own writer where it
does not) and works out every expected answer apart from the program.
A round is the same list of calls every time, so a run that finishes k
rounds attempts exactly k times as many calls, and the known failure is
the same share of them whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Sizes.  A run should hold at least two rounds, so that its figures are
# medians: at n = 600 and 1000 the ex1 classify and the failing solve
# alone take about 11 s, and the oracle part at n = 14 about 22 s.
EX1_SOLVE_N = 10_000
EX1_CLASSIFY_N = 500
EX1_ORACLE_N = 12
EX1_FAIL_N = 800
DENSE_N = 400
ENUM_N = 12

KINDS = ("generate", "solve", "classify", "oracle", "reproduce")


class SetupError(Exception):
    """A set-up call failed or produced an input that fails its check."""


@dataclass(frozen=True)
class Call:
    """One CLI call: ``avekit <args>``, whose first argument is its kind."""

    args: tuple[str, ...]
    check: Callable[[int, str], list[str]]
    known_failure: bool = False

    @property
    def kind(self) -> str:
        return self.args[0]


CliRunner = Callable[[list[str]], tuple[int, str]]


def _generate_args(name: str, family: str, n: int, seed=None) -> tuple[str, ...]:
    seed_args = () if seed is None else ("--seed", str(seed))
    return ("generate", "--family", family, "--n", str(n), *seed_args, "-o", name, "--json")


def _generate(cli: CliRunner, work: Path, name: str, family: str, n: int, seed=None, validate=None) -> str:
    """Run one set-up ``generate``, check it, and return the file's digest."""
    args = _generate_args(name, family, n, seed)
    code, out = cli(list(args))
    probs = checks.check_generate(work / name, None, validate)(code, out)
    if probs:
        raise SetupError(f"{' '.join(args)}: {'; '.join(probs)}")
    return checks.sha256(work / name)


def _regenerate(work: Path, name: str, family: str, n: int, digest: str, seed=None, validate=None) -> Call:
    """The round's ``generate``: same file, byte for byte, as at set-up."""
    args = _generate_args(name, family, n, seed)
    return Call(args, checks.check_generate(work / name, digest, validate))


def instance_seed(seed: int, k: int) -> int:
    """Seed passed to ``generate --seed`` for the k-th random instance."""
    return 16 * seed + k


def paper_tridiag(seed: int, work: Path, cli: CliRunner) -> list[Call]:
    del seed  # the ex1 family has no random draws
    digests = {}
    for n in (EX1_SOLVE_N, EX1_CLASSIFY_N, EX1_ORACLE_N, EX1_FAIL_N):
        digests[n] = _generate(cli, work, f"ex1_{n}.ave", "ex1", n, validate=checks.validate_ex1(n))

    def ex1(n):
        return checks.ex1_matrix(n), checks.ex1_rhs(n)

    t, b = ex1(EX1_SOLVE_N)
    return [
        _regenerate(work, f"ex1_{EX1_SOLVE_N}.ave", "ex1", EX1_SOLVE_N, digests[EX1_SOLVE_N],
                    validate=checks.validate_ex1(EX1_SOLVE_N)),
        Call(("solve", f"ex1_{EX1_SOLVE_N}.ave", "--json"),
             checks.check_solve(t, b, checks.ex1_xstar(EX1_SOLVE_N))),
        Call(("classify", f"ex1_{EX1_CLASSIFY_N}.ave", "--json"),
             checks.check_classify(*ex1(EX1_CLASSIFY_N), "3a", ex1_n=EX1_CLASSIFY_N)),
        Call(("oracle", f"ex1_{EX1_ORACLE_N}.ave", "--json"),
             checks.check_oracle(*ex1(EX1_ORACLE_N), "One", checks.ex1_xstar(EX1_ORACLE_N))),
        Call(("reproduce", "--table1", "--json"), checks.check_table1),
        # Known failure: the sign pattern repeats at k = 3, but the solver
        # runs on to the 2n + 2 cap and returns IterationCapReached.
        Call(("solve", f"ex1_{EX1_FAIL_N}.ave", "--tol", "1e-16", "--json"),
             checks.check_solve(*ex1(EX1_FAIL_N), checks.ex1_xstar(EX1_FAIL_N),
                                ("Converged", "SignStabilized"), max_iter=4),
             known_failure=True),
    ]


def _dense_part(seed: int, work: Path, cli: CliRunner) -> list[Call]:
    """rand3a and rand3b at n = DENSE_N, each through generate, solve and
    classify on the same file."""
    calls = []
    for k, family, kind in ((1, "rand3a", "3a"), (2, "rand3b", "3b-neg")):
        s = instance_seed(seed, k)
        name = f"{family}_{DENSE_N}.ave"
        validate = checks.validate_certified(DENSE_N, family)
        digest = _generate(cli, work, name, family, DENSE_N, s, validate)
        f = checks.read_ave(work / name)
        a, b = f["a"], f["b"]
        calls += [
            _regenerate(work, name, family, DENSE_N, digest, s, validate),
            Call(("solve", name, "--json"), checks.check_solve(a, b)),
            Call(("classify", name, "--json"), checks.check_classify(a, b, kind)),
        ]
    return calls


def continuum_instance(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A = I + L for the Laplacian L of a connected weighted graph (a path
    plus n random chords), and b orthogonal to the ones vector: (3b) with
    v = ones, v.b = 0 and A symmetric, so the solutions form a continuum."""
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 1.1, n - 1)
    for _ in range(n):
        i, j = rng.choice(n, 2, replace=False)
        w[i, j] = rng.uniform(0.1, 1.1)
    w = w + w.T
    a = np.eye(n) + np.diag(w.sum(axis=1)) - w
    b = rng.uniform(-10.0, 10.0, n)
    return a, b - b.mean()


def singular_heavy_instance(n: int, rng: np.random.Generator):
    """A = I + U with U strictly upper triangular and nonpositive, and
    b = A x* + x* for a chosen x* < 0.  A - diag(s) is triangular with
    diagonal 1 - s_i, so it is singular for every pattern but s = -1, and
    back substitution shows x* is the only solution."""
    u = np.triu(-rng.uniform(0.1, 1.1, (n, n)), 1)
    xstar = -rng.uniform(0.5, 2.0, n)
    a = np.eye(n) + u
    return a, a @ xstar + xstar, xstar


def _enum_part(seed: int, work: Path, cli: CliRunner) -> list[Call]:
    """Five n = ENUM_N instances, each through oracle and classify, and
    solve on the first."""
    n = ENUM_N
    gen_calls, inst = [], {}
    for k, family in ((3, "rand3a"), (4, "rand3b")):
        s = instance_seed(seed, k)
        name = f"enum_{family}.ave"
        validate = checks.validate_certified(n, family)
        digest = _generate(cli, work, name, family, n, s, validate)
        gen_calls.append(_regenerate(work, name, family, n, digest, s, validate))
        f = checks.read_ave(work / name)
        inst[family] = (name, f["a"], f["b"])

    name, a, b = inst["rand3b"]
    checks.write_ave(work / "enum_rand3b_neg.ave", a, -b, "rand3b-negated")
    inst["rand3b-neg"] = ("enum_rand3b_neg.ave", a, -b)

    rng = np.random.default_rng([seed, 1])
    a, b = continuum_instance(n, rng)
    _, points = checks.family_points(a, b)
    if any(checks.residual_problem(a, b, x) for x in points):
        raise SetupError("the continuum instance's own family points do not solve it")
    checks.write_ave(work / "enum_continuum.ave", a, b, "continuum")
    inst["continuum"] = ("enum_continuum.ave", a, b)

    a, b, xstar = singular_heavy_instance(n, np.random.default_rng([seed, 2]))
    checks.write_ave(work / "enum_singular.ave", a, b, "singular-heavy")
    inst["singular"] = ("enum_singular.ave", a, b)

    expect = {  # instance -> (oracle count, known solution, classify kind)
        "rand3a": ("One", checks.newton_solution(*inst["rand3a"][1:]), "3a"),
        "rand3b": ("One", checks.newton_solution(*inst["rand3b"][1:]), "3b-neg"),
        "rand3b-neg": ("Zero", None, "3b-pos"),
        "continuum": ("ContinuumSuspected", None, "continuum"),
        "singular": ("One", xstar, "none"),
    }
    calls = list(gen_calls)
    for key, (count, x, kind) in expect.items():
        name, a, b = inst[key]
        calls += [
            Call(("oracle", name, "--json"), checks.check_oracle(a, b, count, x)),
            Call(("classify", name, "--json"), checks.check_classify(a, b, kind)),
        ]
        if key == "rand3a":
            calls.append(Call(("solve", name, "--json"), checks.check_solve(a, b, x)))
    return calls


def dense_oracle(seed: int, work: Path, cli: CliRunner) -> list[Call]:
    return (
        _dense_part(seed, work, cli)
        + _enum_part(seed, work, cli)
        + [Call(("reproduce", "--examples", "--json"), checks.check_examples)]
    )


BUILDERS = {
    "paper-tridiag": paper_tridiag,
    "dense-oracle": dense_oracle,
}


SIZES = {
    "paper-tridiag": {"ex1 generate+solve": EX1_SOLVE_N, "ex1 classify": EX1_CLASSIFY_N,
                      "ex1 oracle": EX1_ORACLE_N, "ex1 solve --tol 1e-16": EX1_FAIL_N},
    "dense-oracle": {"rand3a/rand3b generate, solve, classify": DENSE_N, "five oracle instances": ENUM_N},
}
