"""Command-line frontend.

Subcommands: solve, classify, oracle, generate, convert, reproduce.
Exit codes: 0 ok (solve: Converged or SignStabilized), 2 parse error,
3 singular step, 4 iteration cap, 5 oracle size cap, 6 usage error
(argparse's own syntax failures exit 2).
Every subcommand accepts --json for machine-readable output; numeric
fields are emitted at full precision so they round-trip.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .classify import Verdict, classify
from .core import AveProblem
from .errors import (
    AlphaOutOfRange,
    DimensionTooLarge,
    ParseError,
    SchemaError,
    SingularSystem,
)
from .mclass import Tolerances, check_condition_3b
from .oracle import enumerate_solutions
from .problems import (
    convert_max_form,
    gen_example1,
    gen_example_k,
    gen_random_3a,
    gen_random_3b,
    load,
    save,
)
from .solver import SolverConfig, SolveStatus, gnm_solve, guard_d0

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_CAP = 4
EXIT_ORACLE_SIZE = 5
EXIT_USAGE = 6

# Reference results for the tridiagonal benchmark family (reproduce --table1):
# size -> (iterations, residual).
REFERENCE_TABLE1: dict[int, tuple[int, float]] = {
    2000: (3, 2.6634e-14),
    4000: (3, 3.6610e-14),
    6000: (2, 4.5385e-14),
    8000: (3, 5.1692e-14),
    10000: (2, 5.7936e-14),
}

# Reference results for the 2x2 examples: k -> (solution, iterations, x0).
REFERENCE_EXAMPLES: dict[int, tuple[tuple[float, float], int, tuple[float, float]]] = {
    2: ((88.0, 32.0), 1, (1.0, 1.0)),
    3: ((-2.24, -1.2), 2, (1.0, 1.0)),
    4: ((-4.0, -6.0), 2, (1.0, -1.0)),
    5: ((-2.0, -3.0), 2, (1.0, -1.0)),
}


class UsageError(Exception):
    """Invalid flags, inline payload, or unusable --T or output file; exit 6."""


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fmt_vec(x, max_entries: int = 16) -> str:
    v = np.asarray(x)
    if v.shape[0] <= max_entries:
        return "(" + ", ".join(format(float(t), ".10g") for t in v) + ")"
    head = ", ".join(format(float(t), ".10g") for t in v[:4])
    return f"({head}, ... {v.shape[0]} entries, max |x_i| = {np.abs(v).max():.6g})"


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _load_file(path: str) -> tuple[AveProblem, str]:
    try:
        p, _ = load(path)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return p, _sha256(path)


def _save_file(path: str, p: AveProblem, metadata: dict[str, str]) -> str:
    try:
        save(path, p, metadata)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e
    return _sha256(path)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}; expected comma-separated numbers")


def _parse_inline_matrix(text: str) -> np.ndarray:
    try:
        rows = [
            [float(t) for t in row.split(",") if t.strip() != ""]
            for row in text.split(";")
            if row.strip() != ""
        ]
        return np.array(rows)
    except ValueError:
        raise UsageError(
            f"cannot parse matrix {text!r}; expected rows separated by ';' "
            "with comma-separated entries"
        )


def cmd_solve(args) -> int:
    p, digest = _load_file(args.file)
    x0 = _parse_vector(args.x0) if args.x0 else None
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, x0=x0)
    ok, v = check_condition_3b(p.a)
    if ok:
        cfg = guard_d0(p, cfg, v)
    report = gnm_solve(p, cfg)

    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "input": args.file,
                "input_digest": digest,
                "result": {
                    "status": report.status.value,
                    "iterations": report.iterations,
                    "x": report.x.tolist(),
                    "residual": report.residual,
                    "residual_history": list(report.residual_history),
                    "sign_history": [s.diag.tolist() for s in report.sign_history],
                    "monotone_from_k1": report.monotone_from_k1,
                    "notes": list(report.notes),
                },
            }
        )
    else:
        for note in report.notes:
            print(f"note: {note}")
        if args.trace:
            for k, (res, s) in enumerate(
                zip(report.residual_history, report.sign_history)
            ):
                signs = ",".join(f"{d:+d}" for d in s.diag) if p.n <= 32 else "..."
                print(f"k={k} res={res:.6e} d=({signs})")
        print(
            f"IT={report.iterations} RES={report.residual:.4e} "
            f"x={_fmt_vec(report.x)} status={report.status.value}"
        )

    if report.status is SolveStatus.SINGULAR_STEP:
        return EXIT_SINGULAR
    if report.status is SolveStatus.ITERATION_CAP:
        return EXIT_CAP
    return EXIT_OK


def cmd_classify(args) -> int:
    p, digest = _load_file(args.file)
    tols = Tolerances(zero_tol=args.zero_tol, rank_tol=args.rank_tol)
    verdict = classify(p, tols)
    rep = verdict.report

    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "input": args.file,
                "input_digest": digest,
                "result": {
                    "is_z": rep.is_z,
                    "satisfies_3a": rep.satisfies_3a,
                    "satisfies_3b": rep.satisfies_3b,
                    "v": None if rep.v is None else rep.v.tolist(),
                    "v_dot_b": verdict.v_dot_b,
                    "norm_a_inv": rep.norm_a_inv,
                    "rho_abs_a_inv": rep.rho_abs_a_inv,
                    "verdict": verdict.verdict.value,
                    "basis": verdict.basis.value,
                    "witness": None
                    if verdict.witness is None
                    else verdict.witness.tolist(),
                    "notes": list(rep.notes),
                },
            }
        )
        return EXIT_OK

    print(f"3a: {'yes' if rep.satisfies_3a else 'no'}")
    print(f"3b: {'yes' if rep.satisfies_3b else 'no'}")
    if rep.v is not None:
        print(f"v: {_fmt_vec(rep.v)}")
    if verdict.v_dot_b is not None:
        print(f"v.b: {verdict.v_dot_b:.10g}")
    if rep.norm_a_inv is not None:
        print(f"||A^-1||: {rep.norm_a_inv:.6g}")
        print(f"rho(|A^-1|): {rep.rho_abs_a_inv:.6g}")
    for note in rep.notes:
        print(f"note: {note}")
    print(f"verdict: {verdict.verdict.value} (basis: {verdict.basis.value})")
    if verdict.witness is not None:
        label = (
            "solution"
            if verdict.verdict is Verdict.UNIQUE_SOLUTION
            else "family anchor u"
        )
        print(f"{label}: {_fmt_vec(verdict.witness)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    p, digest = _load_file(args.file)
    sols = enumerate_solutions(p, verify_tol=args.tol)
    count = sols.count()

    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "input": args.file,
                "input_digest": digest,
                "result": {
                    "isolated": [x.tolist() for x in sols.isolated],
                    "singular_branches": [
                        {"pattern": list(br.pattern), "consistent": br.consistent}
                        for br in sols.singular_branches
                    ],
                    "count": {"kind": count.kind.value, "count": count.count},
                    "exhaustive_bound": sols.exhaustive_bound,
                },
            }
        )
        return EXIT_OK

    if not sols.isolated:
        print("no isolated solutions")
    for x in sols.isolated:
        print(f"solution: {_fmt_vec(x)}")
    for br in sols.singular_branches:
        pat = ",".join(f"{s:+d}" for s in br.pattern)
        flag = "consistent (continuum suspected)" if br.consistent else "inconsistent"
        print(f"singular branch ({pat}): {flag}")
    print(f"count: {count.kind.value}" + ("" if count.count is None else f" ({count.count})"))
    return EXIT_OK


def cmd_generate(args) -> int:
    fam = args.family
    needs_n = fam in ("ex1", "rand3a", "rand3b")
    needs_seed = fam in ("rand3a", "rand3b")
    if needs_n and args.n is None:
        raise UsageError(f"family {fam} requires --n")
    if not needs_n and args.n is not None:
        raise UsageError(f"family {fam} does not take --n")
    if needs_seed and args.seed is None:
        raise UsageError(f"family {fam} requires --seed")
    if not needs_seed and args.seed is not None:
        raise UsageError(f"family {fam} does not take --seed")

    metadata = {"family": fam}
    if fam == "ex1":
        p = gen_example1(args.n)
        metadata["n"] = str(args.n)
    elif fam in ("rand3a", "rand3b"):
        gen = gen_random_3a if fam == "rand3a" else gen_random_3b
        p = gen(args.n, args.seed)
        metadata["n"] = str(args.n)
        metadata["seed"] = str(args.seed)
    else:
        p = gen_example_k(int(fam[2:]))

    digest = _save_file(args.output, p, metadata)
    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "family": fam,
                "n": p.n,
                "seed": args.seed,
                "path": str(args.output),
                "digest": digest,
            }
        )
    else:
        print(f"wrote {args.output} sha256={digest}")
    return EXIT_OK


def cmd_convert(args) -> int:
    if Path(args.T).exists():
        try:
            text = Path(args.T).read_text()
        except OSError as e:
            raise UsageError(f"cannot read {args.T}: {e}") from e
        rows = []
        for line in text.splitlines():
            body = line.split("#", 1)[0].strip()
            if body:
                try:
                    rows.append([float(tok) for tok in body.split()])
                except ValueError:
                    raise UsageError(f"bad matrix row in {args.T}: {body!r}") from None
        t = np.array(rows)
    else:
        t = _parse_inline_matrix(args.T)
    c = _parse_vector(args.c)
    p, note = convert_max_form(t, c)
    digest = _save_file(args.output, p, {"source": "max-form", "note": note})
    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "path": str(args.output),
                "digest": digest,
                "note": note,
            }
        )
    else:
        print(f"wrote {args.output} sha256={digest}")
        print(f"note: {note}")
    return EXIT_OK


def _run_table1(sizes: list[int]) -> tuple[list[dict], bool]:
    rows = []
    ok = True
    for n in sizes:
        report = gnm_solve(gen_example1(n), SolverConfig())
        ref = REFERENCE_TABLE1.get(n)
        row_ok = (
            report.status is SolveStatus.CONVERGED
            and report.iterations <= 4
            and report.residual <= 1e-10
        )
        ok = ok and row_ok
        rows.append(
            {
                "n": n,
                "iterations": report.iterations,
                "residual": report.residual,
                "reference_iterations": None if ref is None else ref[0],
                "reference_residual": None if ref is None else ref[1],
                "pass": row_ok,
            }
        )
    return rows, ok


def _run_examples() -> tuple[list[dict], bool]:
    rows = []
    ok = True
    for k, (expected, ref_it, x0) in REFERENCE_EXAMPLES.items():
        report = gnm_solve(gen_example_k(k), SolverConfig(x0=np.array(x0)))
        err = float(np.max(np.abs(report.x - np.array(expected))))
        row_ok = err <= 1e-9 and report.iterations <= ref_it + 1
        ok = ok and row_ok
        rows.append(
            {
                "example": f"ex{k}",
                "iterations": report.iterations,
                "reference_iterations": ref_it,
                "x": report.x.tolist(),
                "reference_x": list(expected),
                "max_error": err,
                "pass": row_ok,
            }
        )
    return rows, ok


def cmd_reproduce(args) -> int:
    run_table = args.table1 or not args.examples
    run_examples = args.examples or not args.table1

    table_rows: list[dict] | None = None
    example_rows: list[dict] | None = None
    all_ok = True
    if run_table:
        sizes = (
            [int(t) for t in args.sizes.split(",")]
            if args.sizes
            else sorted(REFERENCE_TABLE1)
        )
        table_rows, ok = _run_table1(sizes)
        all_ok = all_ok and ok
    if run_examples:
        example_rows, ok = _run_examples()
        all_ok = all_ok and ok

    if args.json:
        _print_json(
            {
                "command": args.command_echo,
                "table1": table_rows,
                "examples": example_rows,
                "pass": all_ok,
            }
        )
        return EXIT_OK if all_ok else 1

    if table_rows is not None:
        print(f"{'n':>8} {'IT':>4} {'RES':>12}   {'ref IT':>6} {'ref RES':>12}")
        for r in table_rows:
            ref_it = "-" if r["reference_iterations"] is None else str(r["reference_iterations"])
            ref_res = (
                "-"
                if r["reference_residual"] is None
                else f"{r['reference_residual']:.4e}"
            )
            print(
                f"{r['n']:>8} {r['iterations']:>4} {r['residual']:>12.4e}   "
                f"{ref_it:>6} {ref_res:>12}"
            )
        print(f"table1: {'PASS' if all(r['pass'] for r in table_rows) else 'FAIL'}")
    if example_rows is not None:
        for r in example_rows:
            print(
                f"{r['example']}: IT={r['iterations']} "
                f"(reference: {r['reference_iterations']}) "
                f"x={_fmt_vec(r['x'])} maxerr={r['max_error']:.2e}"
            )
        print(f"examples: {'PASS' if all(r['pass'] for r in example_rows) else 'FAIL'}")
    return EXIT_OK if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avekit",
        description="Solve, classify, and cross-check absolute value equations "
        "A x - |x| = b.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="run the generalized Newton method on a .ave file")
    p_solve.add_argument("file")
    p_solve.add_argument("--x0", help="comma-separated starting point (default: all ones)")
    p_solve.add_argument("--tol", type=float, default=1e-7, help="residual stop (default 1e-7)")
    p_solve.add_argument("--max-iter", type=int, default=None, help="iteration cap (default 2n+2)")
    p_solve.add_argument("--trace", action="store_true", help="print per-iteration residual and sign rows")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_cls = sub.add_parser("classify", help="certificate checks, diagnostics, and solvability verdict")
    p_cls.add_argument("file")
    p_cls.add_argument("--zero-tol", type=float, default=Tolerances().zero_tol)
    p_cls.add_argument("--rank-tol", type=float, default=Tolerances().rank_tol)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=cmd_classify)

    p_orc = sub.add_parser("oracle", help="brute-force sign enumeration (n <= 20)")
    p_orc.add_argument("file")
    p_orc.add_argument("--tol", type=float, default=1e-8, help="solution verification tolerance")
    p_orc.add_argument("--json", action="store_true")
    p_orc.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("generate", help="write a problem file for a named family")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=["ex1", "ex2", "ex3", "ex4", "ex5", "rand3a", "rand3b"],
    )
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=cmd_generate)

    p_cnv = sub.add_parser(
        "convert", help="convert max(0,x) + Tx = c to a minus-convention problem file"
    )
    p_cnv.add_argument(
        "--T",
        required=True,
        help="matrix T: a file of whitespace rows, or inline rows 'a,b;c,d'",
    )
    p_cnv.add_argument("--c", required=True, help="right-hand side c, comma-separated")
    p_cnv.add_argument("-o", "--output", required=True)
    p_cnv.add_argument("--json", action="store_true")
    p_cnv.set_defaults(func=cmd_convert)

    p_rep = sub.add_parser(
        "reproduce", help="rerun the reference experiments and compare (default: both)"
    )
    p_rep.add_argument("--table1", action="store_true", help="tridiagonal family size sweep")
    p_rep.add_argument("--sizes", help="comma-separated size override for --table1")
    p_rep.add_argument("--examples", action="store_true", help="the four 2x2 examples")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = "avekit " + " ".join(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SingularSystem as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR
    except DimensionTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ORACLE_SIZE
    except (UsageError, AlphaOutOfRange, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
