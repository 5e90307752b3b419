"""Per-layer tracing by wrapping package functions where they are looked up.

Each hook replaces one module attribute (``cli.minimize`` is the binding the
CLI calls, distinct from ``solver.minimize``) with a wrapper that records a
span: calls, inclusive time and self time, i.e. the span's duration minus the
time covered by the spans it encloses.  Spans live on one stack, which is
sound because every op runs with ``jobs = 1`` on one thread.  A hook whose
target no longer exists is reported as absent; the untraced run never imports
this module.

Metrics are per traced op.  Layer times are self times, except
``solver.minimize_s``, ``verify.report_s`` and ``cli.config_s``, which include
their children.  The verify defects are maxima over the op's symmetry reports,
and ``verify.verdict_pass`` is the share of reports within the CLI's default
gates.  Byte counts of the FFT pair are computed from array sizes.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

from workloads import MINKOWSKI_MAX, S_MAX

# (module, attribute, span).  Two attributes may share a span.
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.config"),
    ("cli", "minimize", "solver.minimize"),
    ("cli", "write_gnf", "fields.gnf"),
    ("cli", "read_gnf", "fields.gnf"),
    ("cli", "symmetry_report", "verify.report"),
    ("solver", "weinstein", "solver.weinstein"),
    ("solver", "_nonlinearity", "solver.nonlinearity"),
    ("solver", "_residual_parts", "solver.residual"),
    ("solver", "canonicalize", "solver.canonicalize"),
    ("solver", "dispersion_floor", "symbols.floor"),
    ("fields", "_phys_to_spec", "fields.fft"),
    ("fields", "_spec_to_phys", "fields.fft"),
    ("verify", "support_set", "verify.support"),
    ("verify", "is_connected", "verify.connected"),
    ("verify", "phase_affinity", "verify.phase"),
    ("verify", "minkowski_defect", "verify.minkowski"),
    ("verify", "fourier_rearrange", "rearrange"),
)
PLAN_CACHE = ("rearrange", "_plan")  # lru_cache whose misses are plan builds

# metric -> (unit, spans it is computed from)
METRICS = {
    "fields.fft_calls": ("count", ("fields.fft",)),
    "fields.fft_s": ("s", ("fields.fft",)),
    "fields.fft_bytes": ("B_computed", ("fields.fft",)),
    "solver.fft_per_iter": ("count", ("fields.fft", "solver.minimize")),
    "fields.gnf_s": ("s", ("fields.gnf",)),
    "fields.gnf_bytes": ("B", ("fields.gnf",)),
    "solver.iterations": ("count", ("solver.minimize",)),
    "solver.halvings": ("count", ("solver.minimize", "solver.weinstein")),
    "solver.converged": ("count", ("solver.minimize",)),
    "solver.minimize_s": ("s", ("solver.minimize",)),
    "solver.self_s": ("s", ("solver.minimize",)),
    "solver.weinstein_s": ("s", ("solver.weinstein",)),
    "solver.nonlinearity_s": ("s", ("solver.nonlinearity",)),
    "solver.residual_s": ("s", ("solver.residual",)),
    "solver.canonicalize_s": ("s", ("solver.canonicalize",)),
    "symbols.floor_calls": ("count", ("symbols.floor",)),
    "symbols.floor_s": ("s", ("symbols.floor",)),
    "verify.report_s": ("s", ("verify.report",)),
    "verify.phase_s": ("s", ("verify.phase",)),
    "verify.connected_s": ("s", ("verify.connected",)),
    "verify.support_s": ("s", ("verify.support",)),
    "verify.minkowski_s": ("s", ("verify.minkowski",)),
    "verify.verdict_pass": ("ratio", ("verify.report",)),
    "verify.s1": ("rel", ("verify.report",)),
    "verify.s2": ("rel", ("verify.report",)),
    "verify.modrearr": ("rel", ("verify.report",)),
    "verify.minkowski": ("rel", ("verify.report",)),
    "rearrange.s": ("s", ("rearrange",)),
    "rearrange.plan_builds": ("count", ("rearrange.plan",)),
    "cli.config_s": ("s", ("cli.config",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.rows": ("count", ()),
    "cli.rows_failed": ("count", ()),
    "proc.cpu_s": ("s", ()),
    "trace.op_s_p50": ("s", ()),
    "trace.overhead_s": ("s", ()),
}
# Exact counts: machine-independent, they must repeat across same-seed runs.
EXACT_COUNTS = ("solver.iterations", "solver.halvings", "fields.fft_calls",
                "symbols.floor_calls", "rearrange.plan_builds")


def _lookup(mod, attr):
    """``boostedwaves.<mod>.<attr>``, or None when either is gone."""
    try:
        module = importlib.import_module(f"boostedwaves.{mod}")
    except ModuleNotFoundError:
        return None
    return getattr(module, attr, None)


class _Span:
    __slots__ = ("name", "children")

    def __init__(self, name):
        self.name = name
        self.children = 0.0


class Tracer:
    """Installs the hooks around traced ops and accumulates their spans."""

    def __init__(self):
        self.targets = []
        self.absent = []  # hook targets that no longer exist
        self.missing_spans = set()  # spans with an absent target or unreadable results
        for mod, attr, span in HOOKS:
            func = _lookup(mod, attr)
            if callable(func):
                self.targets.append((sys.modules[f"boostedwaves.{mod}"], attr, span, func))
            else:
                self.absent.append(f"{mod}.{attr}")
                self.missing_spans.add(span)
        self.plan_cache = _lookup(*PLAN_CACHE)
        if not hasattr(self.plan_cache, "cache_info"):
            self.plan_cache = None
            self.absent.append(".".join(PLAN_CACHE))
            self.missing_spans.add("rearrange.plan")
        self.stack: list[_Span] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.fft_bytes = 0
        self.fft_in_minimize = 0
        self.gnf_bytes = 0
        self.iterations = 0
        self.converged = 0
        self.reports = []  # (s1, s2, modrearr, minkowski, passes the CLI gates)
        self.plan_builds = 0
        self.ops = 0
        self.rows = 0
        self.rows_failed = 0
        self.cpu_s = 0.0

    # -- hooks ----------------------------------------------------------------

    def _wrap(self, span_name, func):
        def traced(*args, **kwargs):
            span = _Span(span_name)
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1].children += dt
                self.calls[span_name] += 1
                self.total[span_name] += dt
                self.self_time[span_name] += dt - span.children
            try:
                self._observe(span_name, args, result)
            except (AttributeError, IndexError, TypeError, OSError):
                self.missing_spans.add(span_name)  # the target's signature changed
            return result

        return traced

    def _observe(self, span, args, result):
        if span == "fields.fft":
            self.fft_bytes += 2 * result.nbytes  # one read and one write of the lattice
            if any(s.name == "solver.minimize" for s in self.stack):
                self.fft_in_minimize += 1
        elif span == "fields.gnf":
            self.gnf_bytes += os.path.getsize(args[0])
        elif span == "solver.minimize":
            self.iterations += result.iterations
            self.converged += bool(result.converged)
        elif span == "verify.report":
            defects = (result.s1_defect, result.s2_defect,
                       result.modulus_rearranged_defect, result.minkowski_defect)
            passed = result.connected and max(defects[:3]) <= S_MAX and defects[3] <= MINKOWSKI_MAX
            self.reports.append(defects + (passed,))

    def install(self):
        for module, attr, span, func in self.targets:
            setattr(module, attr, self._wrap(span, func))

    def uninstall(self):
        for module, attr, _, func in self.targets:
            setattr(module, attr, func)

    # -- one traced op ----------------------------------------------------------

    def run(self, op):
        """Run ``op()`` with the hooks installed; returns (result, wall seconds)."""
        misses = self.plan_cache.cache_info().misses if self.plan_cache else 0
        self.install()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = op()
            dt = time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0
        finally:
            self.uninstall()
        if self.plan_cache:
            self.plan_builds += self.plan_cache.cache_info().misses - misses
        self.ops += 1
        return result, dt

    def record_rows(self, rows: int, rows_failed: int):
        self.rows += rows
        self.rows_failed += rows_failed

    # -- per-layer metrics --------------------------------------------------------

    def metrics(self, traced_op_s: list[float], plain_op_s: list[float]) -> dict:
        """Per-op layer metrics; absent ones read 0 and are named by ``absent_metrics``."""
        n = max(self.ops, 1)
        # minimize calls weinstein once before the loop, once per accepted
        # candidate (every iteration but a converged last one), once per
        # halving, and once on the canonicalized result.
        steps = self.iterations - self.converged
        halvings = self.calls["solver.weinstein"] - 2 * self.calls["solver.minimize"] - steps
        reps = self.reports
        trace_p50 = statistics.median(traced_op_s)
        plain_p50 = statistics.median(plain_op_s) if plain_op_s else trace_p50
        values = {
            "fields.fft_calls": self.calls["fields.fft"] / n,
            "fields.fft_s": self.self_time["fields.fft"] / n,
            "fields.fft_bytes": self.fft_bytes / n,
            "solver.fft_per_iter": self.fft_in_minimize / self.iterations if self.iterations else 0.0,
            "fields.gnf_s": self.self_time["fields.gnf"] / n,
            "fields.gnf_bytes": self.gnf_bytes / n,
            "solver.iterations": self.iterations / n,
            "solver.halvings": halvings / n,
            "solver.converged": self.converged / n,
            "solver.minimize_s": self.total["solver.minimize"] / n,
            "solver.self_s": self.self_time["solver.minimize"] / n,
            "solver.weinstein_s": self.self_time["solver.weinstein"] / n,
            "solver.nonlinearity_s": self.self_time["solver.nonlinearity"] / n,
            "solver.residual_s": self.self_time["solver.residual"] / n,
            "solver.canonicalize_s": self.self_time["solver.canonicalize"] / n,
            "symbols.floor_calls": self.calls["symbols.floor"] / n,
            "symbols.floor_s": self.self_time["symbols.floor"] / n,
            "verify.report_s": self.total["verify.report"] / n,
            "verify.phase_s": self.self_time["verify.phase"] / n,
            "verify.connected_s": self.self_time["verify.connected"] / n,
            "verify.support_s": self.self_time["verify.support"] / n,
            "verify.minkowski_s": self.self_time["verify.minkowski"] / n,
            "verify.verdict_pass": sum(r[4] for r in reps) / len(reps) if reps else 0.0,
            "verify.s1": max((r[0] for r in reps), default=0.0),
            "verify.s2": max((r[1] for r in reps), default=0.0),
            "verify.modrearr": max((r[2] for r in reps), default=0.0),
            "verify.minkowski": max((r[3] for r in reps), default=0.0),
            "rearrange.s": self.self_time["rearrange"] / n,
            "rearrange.plan_builds": self.plan_builds / n,
            "cli.config_s": self.total["cli.config"] / n,
            "cli.self_s": self.self_time["cli.main"] / n,
            "cli.rows": self.rows / n,
            "cli.rows_failed": self.rows_failed / n,
            "proc.cpu_s": self.cpu_s / n,
            "trace.op_s_p50": trace_p50,
            "trace.overhead_s": trace_p50 - plain_p50,
        }
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}

    def absent_metrics(self) -> list[str]:
        """Layer metrics that could not be measured: a hook target is gone or changed."""
        return [m for m, (_, spans) in METRICS.items() if self.missing_spans.intersection(spans)]
