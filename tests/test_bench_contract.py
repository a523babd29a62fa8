"""The names the benchmark's tracer reads from the program.

``clibench/tracing.py`` rebinds the public functions of the layer modules
and computes each per-layer metric only when every function it reads
still exists; the others it lists as absent.  One test installs the
tracer once and checks that no metric is absent and that the metrics,
with the four that ``clibench/run.py`` adds, are the ``per_layer`` names
of ``BENCHMARK.json``; the other runs a small CLI round under it.
"""

import importlib.util
import json
from pathlib import Path

from avekit.cli import main

ROOT = Path(__file__).resolve().parents[1]
ADDED_BY_RUN = {"cli.import_s", "cli.import_scipy_optimize_s", "trace.round_s", "trace.overhead_s"}


def _tracing():
    spec = importlib.util.spec_from_file_location("clibench_tracing", ROOT / "clibench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_per_layer_metric():
    tracing = _tracing()
    tr = tracing.Tracer()
    try:
        tr.install()
    finally:
        tr.uninstall()
    metrics, absent = tracing.layer_metrics(tr)
    assert absent == []
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) | ADDED_BY_RUN == declared


# The metrics that read 0 on this round by design: nothing calls
# spectral_norm (linalg.spectral_norm_iters, linalg.spectral_norm_s),
# diagnostics of these M-matrices takes no inverse and no pivoted LU
# (linalg.inverse_calls, mclass.lu_per_diagnostics), no power iteration
# stops at its cap (linalg.power_unconverged), no solve reaches the cap
# (solver.cap_reached), no rand3a step pattern is singular
# (oracle.singular_patterns), and solver.trace_mb sums a report field that
# no longer exists, so it reads 0 on working code.
NONZERO_ON_ROUND = (
    "problems.draws_per_s",
    "problems.gen_s",
    "problems.save_mb_per_s",
    "problems.load_s",
    "problems.load_mb_per_s",
    "linalg.lu_factor_calls",
    "linalg.lu_factor_s",
    "linalg.tridiag_solve_s",
    "linalg.spectral_radius_iters",
    "linalg.spectral_radius_s",
    "mclass.diagnostics_s",
    "mclass.check_3b_s",
    "classify.self_s",
    "solver.gnm_solve_s",
    "solver.steps",
    "solver.step_s",
    "core.residual_calls",
    "core.residual_s",
    "oracle.enumerate_s",
    "oracle.patterns_per_s",
)


def test_traced_round_loses_no_span(tmp_path, capsys):
    # A function the program reaches through a captured reference (a table,
    # a default argument, a private alias) escapes the tracer's rebinding
    # and reads 0 without being listed as absent; one small round through
    # the CLI shows that every span still records.
    tracing = _tracing()
    tr = tracing.Tracer()
    ex1, r3a, r3b = (str(tmp_path / f"{name}.ave") for name in ("ex1", "r3a", "r3b"))
    calls = [
        ["generate", "--family", "ex1", "--n", "50", "-o", ex1],
        ["generate", "--family", "rand3a", "--n", "8", "--seed", "1", "-o", r3a],
        ["generate", "--family", "rand3b", "--n", "8", "--seed", "2", "-o", r3b],
        *(["solve", path] for path in (ex1, r3a, r3b)),
        *(["classify", path] for path in (ex1, r3a)),
        ["oracle", r3a],
        ["reproduce", "--examples"],
    ]
    try:
        tr.install()
        for argv in calls:
            assert main([*argv, "--json"]) == 0, argv
    finally:
        tr.uninstall()
    capsys.readouterr()
    metrics, absent = tracing.layer_metrics(tr)
    assert absent == []
    assert metrics["cli.enumerations_per_oracle_call"] == 1
    assert [name for name in NONZERO_ON_ROUND if not metrics[name] > 0] == []
