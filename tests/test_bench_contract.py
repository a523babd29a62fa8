"""The names the benchmark's tracer reads from the program.

``clibench/tracing.py`` rebinds the public functions of the layer modules
and computes each per-layer metric only when every function it reads
still exists; the others it lists as absent.  This test installs the
tracer once and checks that no metric is absent and that the metrics,
with the four that ``clibench/run.py`` adds, are the ``per_layer`` names
of ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

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
