"""Smoke test of the benchmark harness on a tiny 1D solve (a few seconds).

Run from the repository root with ``python3 -m pytest bench/smoke.py``.  The
file name keeps it out of the default test collection.
"""

import json
import subprocess
import sys
from pathlib import Path

from tracing import EXACT_COUNTS, METRICS, Tracer
from workloads import SWEEP_J, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SRC = RUN.parent.parent / "src"


def bench(*args):
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=120, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def test_untraced_run_reports_end_to_end_metrics():
    diag, result = bench("--workload", "smoke-1d", "--seed", "3", "--seconds", "0.5",
                         "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {"op_s_min", "ok_frac", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
    assert len(diag["setup_samples_s"]) == 3
    assert diag["op_s_p50"]["value"] >= metrics["op_s_min"]["value"]
    assert diag["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert diag["environment"]["numpy"] and diag["environment"]["lattice_bytes_computed"]


def test_traced_runs_repeat_exact_counts():
    runs = [bench("--workload", "smoke-1d", "--seed", "3", "--seconds", "0.5", "--trace", "1")
            for _ in range(2)]
    for diag, result in runs:
        assert result["correct"] and set(result["metrics"]) == set(METRICS)
        assert diag["absent_hooks"] == [] and diag["absent_layer_metrics"] == []
    (diag_a, result_a), (diag_b, _) = runs
    assert diag_a["exact_counts"] == diag_b["exact_counts"]
    assert set(diag_a["exact_counts"]) == set(EXACT_COUNTS)
    metrics = result_a["metrics"]
    # Q = sqrt(2) sech x: one converged solve of about 30 iterations, two FFTs each
    assert metrics["solver.converged"]["value"] == 1.0
    assert 20 <= metrics["solver.iterations"]["value"] <= 40
    assert 1.5 <= metrics["solver.fft_per_iter"]["value"] <= 3.0
    assert metrics["symbols.floor_calls"]["value"] == 1.0


def test_missing_package_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench_dir / name).write_text((RUN.parent / name).read_text())
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"), "--workload", "smoke-1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from boostedwaves import fields

    monkeypatch.delattr(fields, "_phys_to_spec")
    tracer = Tracer()
    assert tracer.absent == ["fields._phys_to_spec"]
    absent = tracer.absent_metrics()
    assert {"fields.fft_calls", "fields.fft_s", "solver.fft_per_iter"} <= set(absent)
    assert "solver.iterations" not in absent


def test_checks_flag_failed_ops(tmp_path):
    solve, verify, sweep = (WORKLOADS[n] for n in ("solve-3d", "verify-2d", "sweep-1d"))
    report = "converged     : True\nJ             : {}\nresidual      : 5e-11\n"
    (tmp_path / "report.txt").write_text(report.format(repr(solve.j_ref)))
    assert solve.check(0, tmp_path).ok
    assert not solve.check(2, tmp_path).ok
    assert not solve.check(None, tmp_path, "ValueError: boom").ok
    (tmp_path / "report.txt").write_text(report.format(repr(solve.j_ref * (1 + 1e-8))))
    assert not solve.check(0, tmp_path).ok

    header = "case,s1,s2,modrearr,connected,minkowski,alpha,beta0,beta1,residual\n"
    (tmp_path / "symmetry.csv").write_text(header + "Q.gnf,0,1e-15,0,1,0.28,0,0,0,0\n")
    assert verify.check(4, tmp_path).ok  # the known Minkowski false negative
    assert not verify.check(3, tmp_path).ok
    (tmp_path / "symmetry.csv").write_text(header + "Q.gnf,0,2e-5,0,1,0.28,0,0,0,0\n")
    assert not verify.check(0, tmp_path).ok

    rows = [f"{0.05 * i!r},{j!r},5e-11,0,0,1,1" for i, j in enumerate(SWEEP_J)]
    csv_head = "param,J,residual,s2_defect,modrearr_defect,E,M\n"
    (tmp_path / "sweep.csv").write_text(csv_head + "\n".join(rows) + "\n")
    assert sweep.check(0, tmp_path).ok
    rows[3] = "0.15,nan,nan,nan,nan,nan,nan"
    (tmp_path / "sweep.csv").write_text(csv_head + "\n".join(rows) + "\n")
    outcome = sweep.check(0, tmp_path)
    assert not outcome.ok and outcome.rows == 17 and outcome.rows_failed == 1
    (tmp_path / "sweep.csv").unlink()
    assert not sweep.check(0, tmp_path).ok  # missing output is a failure, not a crash
