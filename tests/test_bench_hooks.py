"""The benchmark drives the package by name: hooks, and generated configs.

``bench/tracing.py`` reports a hook whose target is gone as absent instead of
failing, so a rename in the package would silently blind the trace.  The first
test imports the tracing module (without writing bytecode next to it) and
checks that every hook target and the rearrangement plan cache resolve.  The
second loads the config of every workload in ``bench/workloads.py``, so a
config key the benchmark writes cannot be deleted without a failing test; the
benchmark would only show such a cut as ops that all fail.  The third sweeps
the sweep-1d workload's config and bounds its iteration count, which does not
depend on the machine's speed, so a lost warm start fails a test instead of
showing only as a slower op.

``verify.minkowski_defect`` is gone with the Minkowski set fold, and
``verify.fourier_rearrange`` since a report sorts the support's modulus
through ``verify.rearrange_modulus``; the benchmark still hooks both.  Its
own change re-points them (to ``verify.unit_residual`` and
``verify.rearrange_modulus``), and this test then expects no absent target.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

from boostedwaves import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
GONE = (("verify", "minkowski_defect"), ("verify", "fourier_rearrange"))  # hooked, in HOOKS order


@pytest.fixture
def bench_path(monkeypatch):
    """``bench/`` importable by module name, with no bytecode written next to it."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_every_trace_hook_resolves(bench_path):
    tracing = importlib.import_module("tracing")
    for mod, attr, _span in tracing.HOOKS:
        if (mod, attr) in GONE:
            continue
        target = getattr(importlib.import_module(f"boostedwaves.{mod}"), attr, None)
        assert callable(target), f"boostedwaves.{mod}.{attr}"
    mod, attr = tracing.PLAN_CACHE
    assert hasattr(getattr(importlib.import_module(f"boostedwaves.{mod}"), attr), "cache_info")
    assert tracing.Tracer().absent == [f"{mod}.{attr}" for mod, attr in GONE]


def test_every_workload_config_loads(bench_path, tmp_path):
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(workload.case.config_text(1.0))
        cfg = cli.load_config(path)
        assert cfg.grid.ndim == workload.case.ndim, name


def test_sweep_1d_continuation_stays_warm(bench_path, tmp_path, capsys):
    # 219 iterations with the cold chain heads at rows 6 and 12, 194 with
    # one chain from row 0 and the three-row extrapolant
    workloads = importlib.import_module("workloads")
    path = tmp_path / "sweep-1d.cfg"
    path.write_text(workloads.WORKLOADS["sweep-1d"].case.config_text(1.0))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"),
                     "--param", "v", "--range", workloads.SWEEP_RANGE]) == 0
    rows = len(workloads.SWEEP_J)
    summary = re.search(r"sweep: (\d+)/(\d+) rows converged, (\d+) iterations",
                        capsys.readouterr().out)
    assert summary and summary.group(1, 2) == (str(rows), str(rows))
    assert int(summary.group(3)) <= 200
