"""Command-line frontend.

Subcommands: solve, classify, oracle, generate, convert, reproduce.
Exit codes: 0 ok (solve: Converged or SignStabilized), 2 parse error,
3 singular step, 4 iteration cap, 5 oracle size cap, 6 usage error
(argparse's own syntax failures exit 2), and, when ``main()`` runs as
the process, 141 when the reader closed standard output early.
Every subcommand accepts --json for machine-readable output; numeric
fields are emitted at full precision so they round-trip.

Each ``cmd_*`` returns ``(exit_code, json_doc, text_lines)`` and prints
nothing; ``main`` prints the document under --json, listing its arrays
only then, and the text lines otherwise (``oracle`` formats them only
then).  The --json bytes are those of ``json.dumps(doc, indent=2)``.  An
error raised by a command is mapped to its exit code by the one table
``ERROR_EXITS`` and printed to stderr.

``main()`` without arguments is the process: the console script,
``python -m avekit.cli`` and ``sys.exit(main())`` all call it so.  It
first calls ``gc.freeze()``, which moves every object the imports made
(about 22 000, most of them numpy's) into the collector's permanent
generation: they live until the process ends, and neither a collection
during the command nor the full collections of interpreter exit visit
them again, which saves about 20 ms a call.  Objects the command makes
are collected as usual.  In this mode a reader that closes the output
pipe early ends the call with exit code 141 (128 + SIGPIPE, as a shell
reports a process killed by that signal) and no traceback; the output
left unwritten goes to ``os.devnull``.  ``main(argv)`` with a list is the
library: it touches neither ``gc`` nor the process's file descriptors.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import sys
from collections.abc import Iterator
from itertools import chain
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
# the reader of standard output closed it before the output was written
_EXIT_CLOSED_PIPE = 141

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


# A subclass of a listed class (of ValueError, say) takes that class's exit code.
ERROR_EXITS = {
    ParseError: EXIT_PARSE,
    SchemaError: EXIT_PARSE,
    SingularSystem: EXIT_SINGULAR,
    DimensionTooLarge: EXIT_ORACLE_SIZE,
    UsageError: EXIT_USAGE,
    AlphaOutOfRange: EXIT_USAGE,
    ValueError: EXIT_USAGE,
}

STATUS_EXITS = {SolveStatus.SINGULAR_STEP: EXIT_SINGULAR, SolveStatus.ITERATION_CAP: EXIT_CAP}


def _fmt_vec(x, max_entries: int = 16) -> str:
    v = np.asarray(x)
    if v.shape[0] <= max_entries:
        return "(" + ", ".join(format(float(t), ".10g") for t in v) + ")"
    head = ", ".join(format(float(t), ".10g") for t in v[:4])
    return f"({head}, ... {v.shape[0]} entries, max |x_i| = {np.abs(v).max():.6g})"


_quote = json.encoder.encode_basestring_ascii
# json's text for the scalars that need no check; a float may be NaN or
# infinite, so it goes to json
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda o: "null",
}


def _plain_numbers(o) -> bool:
    """Is ``o`` a nonempty run of plain ints, or of finite floats, whose json
    text is that of their reprs?"""
    kinds = set(map(type, o))
    return kinds == {int} or (kinds == {float} and all(map(math.isfinite, o)))


def _json(o, pad: str = "") -> str:
    """``json.dumps(o, indent=2, default=np.ndarray.tolist)`` nested ``pad``
    deep, byte for byte, for a document whose dict keys are strings.  The
    indented layout is written here: a list of plain ints or finite floats
    is one join of their reprs, and a list of same-shaped dicts goes
    through one ``%`` template (:func:`_dict_rows`); strings are quoted by
    json's C routine, and floats and any other value are left to json's C
    encoder."""
    if isinstance(o, np.ndarray):
        o = o.tolist()
    inner = pad + "  "
    sep = ",\n" + inner
    # one f-string copies a long join once, where + would copy it at each step
    if isinstance(o, (list, tuple)) and o:
        if _plain_numbers(o):
            items = map(repr, o)
        elif (rows := _dict_rows(o, inner)) is not None:
            items = rows
        else:
            items = (_json(v, inner) for v in o)
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    if isinstance(o, dict) and o:
        items = (_quote(k) + ": " + _json(v, inner) for k, v in o.items())
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    leaf = _LEAVES.get(type(o))
    return leaf(o) if leaf else json.dumps(o, default=np.ndarray.tolist)


def _dict_rows(o, pad: str):
    """The texts of the dicts ``o`` as list items ``pad`` deep, from one
    ``%`` template, when every item is a dict with the same string keys in
    the same order and each key's values pass :func:`_column`; else None."""
    if set(map(type, o)) != {dict}:
        return None
    keys = tuple(o[0])
    if not keys or set(map(tuple, o)) != {keys} or not all(type(k) is str for k in keys):
        return None
    inner = pad + "  "
    columns = [_column(values, inner) for values in zip(*map(dict.values, o))]
    if None in columns:
        return None
    fields = (",\n" + inner).join(_quote(k).replace("%", "%%") + ": %s" for k in keys)
    return map(("{\n" + inner + fields + "\n" + pad + "}").__mod__, zip(*columns))


def _column(values: tuple, pad: str) -> list[str] | None:
    """The texts of ``values`` as dict entries ``pad`` deep, when they are
    all leaves of _LEAVES, all finite floats, or all nonempty lists whose
    entries together are plain numbers (:func:`_plain_numbers`); else
    None."""
    kinds = set(map(type, values))
    if kinds <= _LEAVES.keys():
        return [_LEAVES[type(v)](v) for v in values]
    if _plain_numbers(values):
        return list(map(repr, values))
    if kinds == {list} and all(values) and _plain_numbers(list(chain.from_iterable(values))):
        # one repr of them all, laid out by string replacements: their
        # entries hold no brackets, so "], [" is the only join of two lists
        text = repr(list(values))[1:-1].replace("], [", "]\0[")
        text = text.replace(", ", ",\n" + pad + "  ").replace("[", "[\n" + pad + "  ")
        return text.replace("]", "\n" + pad + "]").split("\0")
    return None


def _envelope(args, digest: str, result: dict) -> dict:
    return {"command": args.command_echo, "input": args.file, "input_digest": digest, "result": result}


class _FileText(io.TextIOWrapper):
    """The UTF-8 text of bytes read from the file at ``path``, as a stream
    for :func:`load` that still names that file to ``os.fspath``, as a
    path argument would."""

    def __init__(self, path: str, data: bytes):
        super().__init__(io.BytesIO(data), encoding="utf-8")
        self.path = path

    def __fspath__(self) -> str:
        return self.path


def _load_file(path: str) -> tuple[AveProblem, str]:
    """The problem in the file and the sha256 of the bytes it was parsed
    from: the file is read once."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    with _FileText(path, data) as text:
        p, _ = load(text)
    return p, hashlib.sha256(data).hexdigest()


def _save_file(path: str, p: AveProblem, metadata: dict[str, str]) -> str:
    """Write the problem and return the sha256 of the bytes written."""
    try:
        text = save(path, p, metadata)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def cmd_solve(args) -> tuple[int, dict, list[str]]:
    p, digest = _load_file(args.file)
    x0 = _parse_vector(args.x0) if args.x0 else None
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, x0=x0)
    ok, v = check_condition_3b(p.a)
    if ok:
        cfg = guard_d0(p, cfg, v)
    report = gnm_solve(p, cfg)

    doc = _envelope(
        args,
        digest,
        {
            "status": report.status.value,
            "iterations": report.iterations,
            "x": report.x,
            "residual": report.residual,
            "residual_history": report.residual_history,
            "sign_history": [s.diag for s in report.sign_history],
            "monotone_from_k1": report.monotone_from_k1,
            "notes": list(report.notes),
        },
    )
    lines = [f"note: {note}" for note in report.notes]
    if args.trace:
        for k, (res, s) in enumerate(zip(report.residual_history, report.sign_history)):
            signs = ",".join(f"{d:+d}" for d in s.diag) if p.n <= 32 else "..."
            lines.append(f"k={k} res={res:.6e} d=({signs})")
    lines.append(
        f"IT={report.iterations} RES={report.residual:.4e} "
        f"x={_fmt_vec(report.x)} status={report.status.value}"
    )
    return STATUS_EXITS.get(report.status, EXIT_OK), doc, lines


def cmd_classify(args) -> tuple[int, dict, list[str]]:
    p, digest = _load_file(args.file)
    tols = Tolerances(zero_tol=args.zero_tol, rank_tol=args.rank_tol)
    verdict = classify(p, tols)
    rep = verdict.report

    doc = _envelope(
        args,
        digest,
        {
            "is_z": rep.is_z,
            "satisfies_3a": rep.satisfies_3a,
            "satisfies_3b": rep.satisfies_3b,
            "v": rep.v,
            "v_dot_b": verdict.v_dot_b,
            "norm_a_inv": rep.norm_a_inv,
            "rho_abs_a_inv": rep.rho_abs_a_inv,
            "verdict": verdict.verdict.value,
            "basis": verdict.basis.value,
            "witness": verdict.witness,
            "notes": list(rep.notes),
        },
    )
    lines = [
        f"3a: {'yes' if rep.satisfies_3a else 'no'}",
        f"3b: {'yes' if rep.satisfies_3b else 'no'}",
    ]
    if rep.v is not None:
        lines.append(f"v: {_fmt_vec(rep.v)}")
    if verdict.v_dot_b is not None:
        lines.append(f"v.b: {verdict.v_dot_b:.10g}")
    if rep.norm_a_inv is not None:
        lines.append(f"||A^-1||: {rep.norm_a_inv:.6g}")
    if rep.rho_abs_a_inv is not None:
        lines.append(f"rho(|A^-1|): {rep.rho_abs_a_inv:.6g}")
    lines += [f"note: {note}" for note in rep.notes]
    lines.append(f"verdict: {verdict.verdict.value} (basis: {verdict.basis.value})")
    if verdict.witness is not None:
        label = (
            "solution"
            if verdict.verdict is Verdict.UNIQUE_SOLUTION
            else "family anchor u"
        )
        lines.append(f"{label}: {_fmt_vec(verdict.witness)}")
    return EXIT_OK, doc, lines


def cmd_oracle(args) -> tuple[int, dict, Iterator[str]]:
    p, digest = _load_file(args.file)
    sols = enumerate_solutions(p, verify_tol=args.tol)
    count = sols.count()

    doc = _envelope(
        args,
        digest,
        {
            "isolated": sols.isolated,
            "singular_branches": [
                {"pattern": list(br.pattern), "consistent": br.consistent}
                for br in sols.singular_branches
            ],
            "count": {"kind": count.kind.value, "count": count.count},
            "exhaustive_bound": sols.exhaustive_bound,
        },
    )
    def lines():
        # a generator, so that --json formats none of the branch lines
        if not sols.isolated:
            yield "no isolated solutions"
        for x in sols.isolated:
            yield f"solution: {_fmt_vec(x)}"
        for br in sols.singular_branches:
            pat = ",".join(f"{s:+d}" for s in br.pattern)
            flag = "consistent (continuum suspected)" if br.consistent else "inconsistent"
            yield f"singular branch ({pat}): {flag}"
        yield f"count: {count.kind.value}" + ("" if count.count is None else f" ({count.count})")

    return EXIT_OK, doc, lines()


def cmd_generate(args) -> tuple[int, dict, list[str]]:
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
    doc = {
        "command": args.command_echo,
        "family": fam,
        "n": p.n,
        "seed": args.seed,
        "path": str(args.output),
        "digest": digest,
    }
    return EXIT_OK, doc, [f"wrote {args.output} sha256={digest}"]


def cmd_convert(args) -> tuple[int, dict, list[str]]:
    if Path(args.T).exists():
        try:
            text = Path(args.T).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read {args.T}: {e}") from e
        rows = []
        for line in text.splitlines():
            body = line.split("#", 1)[0].strip()
            if body:
                try:
                    rows.append([float(tok) for tok in body.split()])
                except ValueError:
                    raise UsageError(f"bad matrix row in {args.T}: {body!r}") from None
        for i, r in enumerate(rows, 1):
            if len(r) != len(rows[0]):
                raise UsageError(f"{args.T}: row {i} has {len(r)} values, row 1 has {len(rows[0])}")
        t = np.array(rows)
    else:
        t = _parse_inline_matrix(args.T)
    c = _parse_vector(args.c)
    p, note = convert_max_form(t, c)
    digest = _save_file(args.output, p, {"source": "max-form", "note": note})
    doc = {"command": args.command_echo, "path": str(args.output), "digest": digest, "note": note}
    return EXIT_OK, doc, [f"wrote {args.output} sha256={digest}", f"note: {note}"]


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
                "x": report.x,
                "reference_x": list(expected),
                "max_error": err,
                "pass": row_ok,
            }
        )
    return rows, ok


def cmd_reproduce(args) -> tuple[int, dict, list[str]]:
    run_table = args.table1 or not args.examples
    run_examples = args.examples or not args.table1

    table_rows: list[dict] | None = None
    example_rows: list[dict] | None = None
    lines: list[str] = []
    all_ok = True
    if run_table:
        try:
            sizes = list(map(int, args.sizes.split(","))) if args.sizes else sorted(REFERENCE_TABLE1)
        except ValueError:
            raise UsageError(f"--sizes {args.sizes!r}: expected comma-separated integers") from None
        table_rows, ok = _run_table1(sizes)
        all_ok = all_ok and ok
        lines.append(f"{'n':>8} {'IT':>4} {'RES':>12}   {'ref IT':>6} {'ref RES':>12}")
        for r in table_rows:
            ref_it = "-" if r["reference_iterations"] is None else str(r["reference_iterations"])
            ref_res = (
                "-"
                if r["reference_residual"] is None
                else f"{r['reference_residual']:.4e}"
            )
            lines.append(
                f"{r['n']:>8} {r['iterations']:>4} {r['residual']:>12.4e}   "
                f"{ref_it:>6} {ref_res:>12}"
            )
        lines.append(f"table1: {'PASS' if ok else 'FAIL'}")
    if run_examples:
        example_rows, ok = _run_examples()
        all_ok = all_ok and ok
        for r in example_rows:
            lines.append(
                f"{r['example']}: IT={r['iterations']} "
                f"(reference: {r['reference_iterations']}) "
                f"x={_fmt_vec(r['x'])} maxerr={r['max_error']:.2e}"
            )
        lines.append(f"examples: {'PASS' if ok else 'FAIL'}")

    doc = {
        "command": args.command_echo,
        "table1": table_rows,
        "examples": example_rows,
        "pass": all_ok,
    }
    return (EXIT_OK if all_ok else 1), doc, lines


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
    program = argv is None
    if program:
        gc.freeze()
    argv = list(sys.argv[1:]) if program else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = "avekit " + " ".join(argv)
    try:
        code, doc, lines = args.func(args)
    except tuple(ERROR_EXITS) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for t, code in ERROR_EXITS.items() if isinstance(e, t))
    try:
        print(_json(doc) if args.json else "\n".join(lines), flush=program)
    except BrokenPipeError:
        if not program:
            raise
        # what is still buffered goes to os.devnull at exit, so the
        # interpreter's own flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
