"""Spans and counters around avekit's layers, put in from outside.

:meth:`Tracer.install` rebinds every public function of the layer modules
(``cli``, ``problems``, ``linalg``, ``mclass``, ``classify``, ``solver``,
``core``, ``oracle``) to a wrapper, in the module that defines it and in
every layer module that imported it by name, so that for example
``avekit.mclass.lu_factor`` and ``avekit.oracle.lu_factor`` both record
spans named ``linalg.lu_factor``.  ``SplitMix64.uniform`` and
``SplitMix64.uniforms`` get counters instead of spans, since they run
once per random draw.  Each span keeps its name, start, end and parent in
memory; :meth:`Tracer.uninstall` puts the original functions back.

:func:`layer_metrics` turns one traced round into the per-layer metrics.
A metric whose functions the program no longer has is left out and named
in the returned ``absent`` list.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import statistics
from time import perf_counter

LAYERS = ("cli", "problems", "linalg", "mclass", "classify", "solver", "core", "oracle")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_optimize_s": ("s", "lower"),
    "cli.enumerations_per_oracle_call": ("count", "lower"),
    "problems.draws_per_s": ("1/s", "higher"),
    "problems.gen_s": ("s", "lower"),
    "problems.save_mb_per_s": ("MB/s", "higher"),
    "problems.load_s": ("s", "lower"),
    "problems.load_mb_per_s": ("MB/s", "higher"),
    "linalg.lu_factor_calls": ("count", "lower"),
    "linalg.inverse_calls": ("count", "lower"),
    "linalg.lu_factor_s": ("s", "lower"),
    "linalg.tridiag_solve_s": ("s", "lower"),
    "linalg.spectral_norm_iters": ("count", "lower"),
    "linalg.spectral_radius_iters": ("count", "lower"),
    "linalg.spectral_norm_s": ("s", "lower"),
    "linalg.spectral_radius_s": ("s", "lower"),
    "linalg.power_unconverged": ("count", "lower"),
    "mclass.diagnostics_s": ("s", "lower"),
    "mclass.check_3b_s": ("s", "lower"),
    "mclass.lu_per_diagnostics": ("count", "lower"),
    "classify.self_s": ("s", "lower"),
    "solver.gnm_solve_s": ("s", "lower"),
    "solver.steps": ("count", "lower"),
    "solver.step_s": ("s", "lower"),
    "solver.trace_mb": ("MB", "lower"),
    "solver.cap_reached": ("count", "lower"),
    "core.residual_calls": ("count", "lower"),
    "core.residual_s": ("s", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.patterns_per_s": ("1/s", "higher"),
    "oracle.singular_patterns": ("count", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _file_bytes(counts, key, args):
    if args and isinstance(args[0], (str, os.PathLike)):
        counts[key] += os.path.getsize(args[0])


def _power(prefix):
    def observe(counts, args, out):
        counts[f"{prefix}_iters"] += out.iterations
        counts["power_unconverged"] += not out.converged

    return observe


def _solver(counts, args, out):
    counts["steps"] += out.iterations
    counts["cap_reached"] += out.status.value == "IterationCapReached"
    counts["trace_bytes"] += sum(x.nbytes for x in getattr(out, "iterate_history", ()))


def _oracle(counts, args, out):
    counts["patterns"] += 2 ** args[0].n
    counts["singular_patterns"] += len(out.singular_branches)


# Counters read from arguments and return values, by span name.
OBSERVERS = {
    "linalg.spectral_norm": _power("spectral_norm"),
    "linalg.spectral_radius_nonneg": _power("spectral_radius"),
    "solver.gnm_solve": _solver,
    "oracle.enumerate_solutions": _oracle,
    "problems.save": lambda counts, args, out: _file_bytes(counts, "save_bytes", args),
    "problems.load": lambda counts, args, out: _file_bytes(counts, "load_bytes", args),
}
DRAWS = "problems.SplitMix64.uniforms"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts = collections.Counter()
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[sid] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"avekit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("avekit."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    wrappers[obj] = self._span(name, obj)
                    self.wrapped.add(name)
                self._rebind(mod, attr, wrappers[obj])
        rng = getattr(importlib.import_module("avekit.problems"), "SplitMix64", None)
        if rng is not None and hasattr(rng, "uniforms") and hasattr(rng, "uniform"):
            self._count_draws(rng)
            self.wrapped.add(DRAWS)

    def _count_draws(self, cls) -> None:
        """Count draws and the time spent drawing; a ``uniform`` call made
        inside ``uniforms`` is part of that call's count."""
        uniforms, uniform = cls.uniforms, cls.uniform
        counts = self.counts
        inside = [0]

        def uniforms_counted(rng, count, *args, **kwargs):
            inside[0] += 1
            t0 = perf_counter()
            try:
                return uniforms(rng, count, *args, **kwargs)
            finally:
                inside[0] -= 1
                counts["draws"] += count
                counts["draw_s"] += perf_counter() - t0

        def uniform_counted(rng, *args, **kwargs):
            if inside[0]:
                return uniform(rng, *args, **kwargs)
            t0 = perf_counter()
            try:
                return uniform(rng, *args, **kwargs)
            finally:
                counts["draws"] += 1
                counts["draw_s"] += perf_counter() - t0

        self._rebind(cls, "uniforms", uniforms_counted)
        self._rebind(cls, "uniform", uniform_counted)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def spans(self, origin: float) -> list[dict]:
        return [
            {"name": n, "parent": p, "start": s - origin, "end": e - origin}
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced round, and the names left out
    because a function they read is no longer in the program."""
    by_name = collections.defaultdict(list)
    for i, name in enumerate(tr.names):
        by_name[name].append(i)

    def under(i: int, names) -> bool:
        p = tr.parents[i]
        while p >= 0:
            if tr.names[p] in names:
                return True
            p = tr.parents[p]
        return False

    def total(*names) -> float:
        """Wall time inside the named spans, each interval counted once."""
        return sum(
            tr.ends[i] - tr.starts[i]
            for name in names
            for i in by_name[name]
            if not under(i, names)
        )

    def count(name, within=None) -> int:
        return sum(1 for i in by_name[name] if within is None or under(i, (within,)))

    c = tr.counts
    gens = ("problems.gen_example1", "problems.gen_example_k", "problems.gen_random_3a", "problems.gen_random_3b")
    # metric -> (spans or counters it reads, how to compute it)
    table = {
        "cli.enumerations_per_oracle_call": (
            ("cli.cmd_oracle", "oracle.enumerate_solutions"),
            lambda: _ratio(count("oracle.enumerate_solutions", "cli.cmd_oracle"), count("cli.cmd_oracle")),
        ),
        "problems.draws_per_s": ((DRAWS,), lambda: _ratio(c["draws"], c["draw_s"])),
        "problems.gen_s": (gens, lambda: total(*gens)),
        "problems.save_mb_per_s": (("problems.save",), lambda: _ratio(c["save_bytes"] / 1e6, total("problems.save"))),
        "problems.load_s": (("problems.load",), lambda: total("problems.load")),
        "problems.load_mb_per_s": (("problems.load",), lambda: _ratio(c["load_bytes"] / 1e6, total("problems.load"))),
        "linalg.lu_factor_calls": (("linalg.lu_factor",), lambda: count("linalg.lu_factor")),
        "linalg.inverse_calls": (("linalg.inverse",), lambda: count("linalg.inverse")),
        "linalg.lu_factor_s": (("linalg.lu_factor",), lambda: total("linalg.lu_factor")),
        "linalg.tridiag_solve_s": (("linalg.tridiag_solve",), lambda: total("linalg.tridiag_solve")),
        "linalg.spectral_norm_iters": (("linalg.spectral_norm",), lambda: c["spectral_norm_iters"]),
        "linalg.spectral_radius_iters": (("linalg.spectral_radius_nonneg",), lambda: c["spectral_radius_iters"]),
        "linalg.spectral_norm_s": (("linalg.spectral_norm",), lambda: total("linalg.spectral_norm")),
        "linalg.spectral_radius_s": (("linalg.spectral_radius_nonneg",), lambda: total("linalg.spectral_radius_nonneg")),
        "linalg.power_unconverged": (
            ("linalg.spectral_norm", "linalg.spectral_radius_nonneg"),
            lambda: c["power_unconverged"],
        ),
        "mclass.diagnostics_s": (("mclass.diagnostics",), lambda: total("mclass.diagnostics")),
        "mclass.check_3b_s": (("mclass.check_condition_3b",), lambda: total("mclass.check_condition_3b")),
        "mclass.lu_per_diagnostics": (
            ("mclass.diagnostics", "linalg.lu_factor"),
            lambda: _ratio(count("linalg.lu_factor", "mclass.diagnostics"), count("mclass.diagnostics")),
        ),
        "classify.self_s": (
            ("classify.classify", "mclass.diagnostics", "solver.gnm_solve"),
            lambda: total("classify.classify")
            - sum(
                tr.ends[i] - tr.starts[i]
                for name in ("mclass.diagnostics", "solver.gnm_solve")
                for i in by_name[name]
                if under(i, ("classify.classify",))
            ),
        ),
        "solver.gnm_solve_s": (("solver.gnm_solve",), lambda: total("solver.gnm_solve")),
        "solver.steps": (("solver.gnm_solve",), lambda: c["steps"]),
        "solver.step_s": (("solver.gnm_solve",), lambda: _ratio(total("solver.gnm_solve"), c["steps"])),
        "solver.trace_mb": (("solver.gnm_solve",), lambda: c["trace_bytes"] / 1e6),
        "solver.cap_reached": (("solver.gnm_solve",), lambda: c["cap_reached"]),
        "core.residual_calls": (("core.residual",), lambda: count("core.residual")),
        "core.residual_s": (("core.residual",), lambda: total("core.residual")),
        "oracle.enumerate_s": (("oracle.enumerate_solutions",), lambda: total("oracle.enumerate_solutions")),
        "oracle.patterns_per_s": (
            ("oracle.enumerate_solutions",),
            lambda: _ratio(c["patterns"], total("oracle.enumerate_solutions")),
        ),
        "oracle.singular_patterns": (("oracle.enumerate_solutions",), lambda: c["singular_patterns"]),
    }
    metrics, absent = {}, []
    for name, (needs, compute) in table.items():
        if all(n in tr.wrapped for n in needs):
            metrics[name] = float(compute())
        else:
            absent.append(name)
    return metrics, absent


def import_times(stderr_texts: list[str]) -> dict[str, float]:
    """Medians of the cumulative ``-X importtime`` figures of avekit and
    scipy.optimize (0 when scipy.optimize is not imported)."""
    found = {"cli.import_s": [], "cli.import_scipy_optimize_s": []}
    for text in stderr_texts:
        cum = {}
        for line in text.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        found["cli.import_s"].append(cum.get("avekit", 0.0))
        found["cli.import_scipy_optimize_s"].append(cum.get("scipy.optimize", 0.0))
    return {k: statistics.median(v) for k, v in found.items()}
