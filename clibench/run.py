"""Closed-loop benchmark of the avekit command line.

    python3 clibench/run.py --workload paper-tridiag --seed 1 --seconds 58 --trace 0

Run from the root of a checkout.  One benchmark process makes one CLI call
at a time, each a fresh ``python -c 'from avekit.cli import main ...'``
process on the checkout's ``src``, and checks every output against values
it works out itself (see checks.py).  It repeats whole rounds of the
workload's calls while another round still fits into ``--seconds``.
Each call's wall time is scaled by a speed probe made next to it (see
PROBE), and the end-to-end times are medians of these scaled times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same calls in-process through ``avekit.cli.main(argv)``, alternating
rounds without and with the span wrappers of tracing.py, and prints the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a record of the run, with the machine and the
settings, is written to ``clibench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

# One BLAS thread everywhere, set before numpy is imported here or in a child.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENTRY = "import sys; from avekit.cli import main; sys.exit(main())"
# Children read the bytecode that measure() compiles under src/ and write none.
CHILD_PYTHON_ENV = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    **CHILD_PYTHON_ENV,
    **THREAD_ENV,
}
CALL_TIMEOUT_S = 90.0
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
# On a shared 2-vCPU VM (the reference machine of the README) the same
# call runs at speeds up to 1.6x apart, in spells of a few seconds.  A bare
# interpreter start (PROBE), launched between every two timed children,
# measures the speed of the moment: it does what the start of every CLI
# call does (exec, dynamic loading, site imports) and nothing of the
# program.  A child's wall time is scaled by REF_PROBE_S over the median
# of the four probes nearest to it (two before, two after).  That is the
# time the call would have taken at the speed at which the probe takes
# REF_PROBE_S, about its median on the reference machine.
PROBE = [sys.executable, "-c", "pass"]
REF_PROBE_S = 0.060

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    **{f"{kind}_s": "s" for kind in workloads.KINDS},
    "peak_rss_mb": "MB",
}


def speed_probe() -> float:
    """Wall seconds of one bare interpreter start.  The wait blocks: a wait
    with a timeout polls, and its steps would show in the time."""
    t0 = time.perf_counter()
    code = subprocess.Popen(PROBE, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).wait()
    wall = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"{' '.join(PROBE)} exited with {code}")
    return wall


def paced(run, items) -> tuple[list, list[float]]:
    """``run(item)`` for each item, with a speed probe before the first and
    after each one; return the results and, for each item, the median of
    the probes nearest to it."""
    probes = [speed_probe()]
    results = []
    for item in items:
        results.append(run(item))
        probes.append(speed_probe())
    return results, [statistics.median(probes[max(0, k - 1):k + 3]) for k in range(len(results))]


def normalised(wall: float, probe_s: float) -> float:
    return wall * REF_PROBE_S / probe_s


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def launch(cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one child to its end; return exit code, wall seconds and max RSS
    in MB.  A child still running after CALL_TIMEOUT_S is killed."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=CHILD_ENV)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def python(work: Path, *argv) -> tuple[int, float, str, str]:
    """Run ``python3 <argv>`` in ``work``; return exit code, wall seconds,
    standard output and standard error."""
    out, err = work / "child.out", work / "child.err"
    code, wall, _ = launch([sys.executable, *argv], work, out, err)
    return code, wall, out.read_text(errors="replace"), err.read_text(errors="replace")


class SubprocessRunner:
    """Each call is a fresh interpreter, as a user's shell would start it."""

    def __init__(self, work: Path):
        self.work = work

    def __call__(self, args) -> tuple[int, float, float, str]:
        out, err = self.work / "call.out", self.work / "call.err"
        code, wall, rss = launch([sys.executable, "-c", ENTRY, *args], self.work, out, err)
        text = out.read_text(encoding="utf-8", errors="replace")
        out.unlink()
        return code, wall, rss, text

    def setup_cli(self, args) -> tuple[int, str]:
        code, _, _, text = self(args)
        return code, text


class InProcessRunner:
    """Each call is ``avekit.cli.main(argv)`` in this process."""

    def __init__(self, work: Path):
        sys.path.insert(0, str(SRC))
        import avekit.cli

        self.cli = avekit.cli
        self.work = work

    def __call__(self, args) -> tuple[int, float, float, str]:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(args))
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
                except Exception:
                    # what an uncaught exception does to a CLI process
                    traceback.print_exc()
                    code = 1
            wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return code, wall, 0.0, out.getvalue()


def run_round(calls, runner) -> dict:
    """Make every call of one round, then check each output."""
    t0 = time.perf_counter()
    raw, probes = paced(runner, [call.args for call in calls])
    wall = time.perf_counter() - t0
    results = []
    for call, (code, secs, rss, text), probe_s in zip(calls, raw, probes):
        try:
            problems = [f"killed after {CALL_TIMEOUT_S:g} s"] if code < 0 else call.check(code, text)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            problems = [f"output lacks an expected field or value: {e!r}"]
        results.append(
            {"args": list(call.args), "kind": call.kind, "exit": code, "wall_s": secs,
             "probe_s": probe_s, "norm_s": normalised(secs, probe_s), "max_rss_mb": rss,
             "problems": problems, "known_failure": call.known_failure}
        )
    return {"wall_s": wall, "norm_s": sum(c["norm_s"] for c in results), "calls": results}


def run_rounds(calls, runner, seconds: float, before=None, after=None) -> list[dict]:
    """Whole rounds while the time used so far plus the longest round
    still fits into ``seconds``; at least one."""
    t0 = time.perf_counter()
    rounds = []
    while True:
        if before:
            before(len(rounds))
        rounds.append(run_round(calls, runner))
        if after:
            after(len(rounds) - 1, rounds[-1])
        longest = max(r["wall_s"] for r in rounds)
        if time.perf_counter() - t0 + longest > seconds:
            return rounds


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict[str, float]:
    def per_round(kind):
        return statistics.median(
            sum(c["norm_s"] for c in r["calls"] if c["kind"] == kind) for r in rounds
        )

    metrics = {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(r["norm_s"] for r in rounds),
    }
    metrics.update({f"{kind}_s": per_round(kind) for kind in workloads.KINDS})
    metrics["peak_rss_mb"] = max(c["max_rss_mb"] for r in rounds for c in r["calls"])
    return metrics


def traced_run(calls, work: Path, seconds: float, spans_path: Path) -> tuple[list[dict], dict, list[str]]:
    """Alternate plain and traced in-process rounds; return all rounds, the
    per-layer metrics (medians over traced rounds) and absent names.  The
    spans of the last traced round are written to ``spans_path``."""
    stderr = [python(work, "-X", "importtime", "-c", "import avekit")[3] for _ in range(IMPORTTIME_LAUNCHES)]
    runner = InProcessRunner(work)
    state = {"tracer": None, "last": None, "plain": [], "traced": [], "layers": [], "absent": []}

    def before(i):
        if i % 2:
            state["tracer"] = tracing.Tracer()
            state["tracer"].install()

    def after(i, rnd):
        tr = state["tracer"]
        if tr is None:
            state["plain"].append(rnd["norm_s"])
            return
        tr.uninstall()
        state["tracer"], state["last"] = None, tr
        state["traced"].append(rnd["norm_s"])
        layers, state["absent"] = tracing.layer_metrics(tr)
        state["layers"].append(layers)

    # A pair (plain, traced) is the unit: the traced round is the longer.
    rounds = run_rounds(calls, runner, seconds, before, after)
    if len(rounds) % 2:
        before(len(rounds))
        rounds.append(run_round(calls, runner))
        after(len(rounds) - 1, rounds[-1])
    last = state["last"]
    spans_path.write_text(json.dumps(last.spans(last.starts[0] if last.starts else 0.0)))
    names = state["layers"][0].keys()
    metrics = {k: statistics.median(m[k] for m in state["layers"]) for k in names}
    metrics.update(tracing.import_times(stderr))
    plain, traced = statistics.median(state["plain"]), statistics.median(state["traced"])
    metrics["trace.round_s"] = plain
    metrics["trace.overhead_s"] = traced - plain
    return rounds, metrics, state["absent"]


def machine() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "avekit" / "cli.py").is_file():
        raise BenchError(f"no avekit sources under {SRC}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    checks.self_test(work)
    code, _, out, err = python(work, "-m", "compileall", "-q", str(SRC / "avekit"))
    if code != 0:
        raise BenchError(f"compiling {SRC / 'avekit'} failed: {out}{err}")
    code, _, out, err = python(work, "-c", "import avekit; print(avekit.__file__)")
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"avekit does not import from {SRC}: {out}{err}")
    setup_times = []
    if not args.trace:
        walls, probes = paced(lambda _: python(work, "-c", "import avekit")[1], range(SETUP_LAUNCHES))
        setup_times = [normalised(w, p) for w, p in zip(walls, probes)]

    sub = SubprocessRunner(work)
    try:
        calls = workloads.BUILDERS[args.workload](args.seed, work, sub.setup_cli)
    except workloads.SetupError as e:
        raise BenchError(f"set-up failed: {e}") from e

    absent = []
    if args.trace:
        spans = OUT / f"SPANS_{args.workload}_seed{args.seed}.json"
        rounds, metrics, absent = traced_run(calls, work, args.seconds, spans)
        units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
    else:
        rounds = run_rounds(calls, sub, args.seconds)
        metrics = end_to_end(rounds, setup_times)
        units = END_TO_END

    results = [c for r in rounds for c in r["calls"]]
    failed = [c for c in results if c["problems"]]
    unexpected = [c for c in failed if not c["known_failure"]]
    report = {
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {
        "machine": machine(),
        "settings": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "sizes": workloads.SIZES[args.workload],
            "child_env": {**CHILD_PYTHON_ENV, "PYTHONPATH": "<checkout>/src", **THREAD_ENV},
            "call_timeout_s": CALL_TIMEOUT_S, "setup_launches": SETUP_LAUNCHES,
            "probe": PROBE[1:], "ref_probe_s": REF_PROBE_S, "rounds": len(rounds),
            "calls_per_round": len(calls),
        },
        **report,
        "absent_metrics": absent,
        "rounds": rounds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for c in failed:
        tag = "known failure" if c["known_failure"] else "FAILED"
        print(f"{tag}: avekit {' '.join(c['args'])}: {'; '.join(c['problems'])}", file=sys.stderr)
    for k in absent:
        print(f"absent: {k} (the program no longer has a function it reads)", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"calls attempted {report['attempted']}  failed {report['failed']}")
    for k, m in report["metrics"].items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"clibench: {e}", file=sys.stderr)
        sys.exit(2)
