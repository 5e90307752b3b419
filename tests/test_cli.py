import numpy as np
import pytest

import boostedwaves as bw
from boostedwaves.cli import main

CLASSICAL = """
# classical 1D cubic NLS at rest; spectral box sized so the support
# threshold is reached at the lattice edge
[symbol]
symbol = fractional; s = 1.0

[grid]
n = 1
sizes = 512
L = 75.39822368615503

[problem]
v = 0.0
omega = 1.0
sigma = 1

[solver]
tol = 1e-10
max_iter = 5000

[output]
seed = 1
"""


@pytest.fixture()
def classical_cfg(tmp_path):
    path = tmp_path / "classical.cfg"
    path.write_text(CLASSICAL)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_solve_writes_outputs_and_hits_target(classical_cfg, tmp_path, capsys):
    out = tmp_path / "run1"
    code = run("solve", "--config", classical_cfg, "--out", out)
    assert code == 0
    assert (out / "Q.gnf").exists()
    assert (out / "trace.csv").exists()
    report = (out / "report.txt").read_text()
    j_line = next(line for line in report.splitlines() if line.startswith("J "))
    j = float(j_line.split(":")[1])
    assert abs(j - 16.0 / 3.0) <= 1e-6
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,J,residual,Mk,halvings,accel"


def test_solve_rejects_bad_omega(classical_cfg, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CLASSICAL.replace("omega = 1.0", "omega = -0.5"))
    code = run("solve", "--config", bad, "--out", tmp_path / "x")
    assert code == 1
    assert "omega > -Sigma_v" in capsys.readouterr().err


def test_solve_rejects_energy_critical(tmp_path, capsys):
    cfg = tmp_path / "crit.cfg"
    cfg.write_text(
        "symbol = fractional; s = 0.5\nn = 2\nsizes = 32\nL = 12.0\n"
        "v = 0.0,0.0\nomega = 1.0\nsigma = 1\n"
    )
    code = run("solve", "--config", cfg, "--out", tmp_path / "x")
    assert code == 1
    assert "critical" in capsys.readouterr().err


def test_config_errors_carry_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("n = 1\nsizes = 512\nL = 10.0\nmystery = 3\n")
    code = run("solve", "--config", cfg)
    assert code == 1
    assert "line 4" in capsys.readouterr().err


def test_verify_pipeline_and_noise(classical_cfg, tmp_path, capsys):
    out = tmp_path / "run2"
    assert run("solve", "--config", classical_cfg, "--out", out) == 0
    assert run("verify", "--config", classical_cfg, "--field", out / "Q.gnf",
               "--out", out) == 0
    header = (out / "symmetry.csv").read_text().splitlines()[0]
    assert header == "case,s1,s2,modrearr,connected,minkowski,alpha,beta0,residual"

    # random-noise field fails the thresholds
    rng = np.random.default_rng(0)
    grid = bw.Grid.make(512, 75.39822368615503)
    noise = bw.Field.from_values(
        grid, rng.standard_normal(512) + 1j * rng.standard_normal(512)
    )
    bw.write_gnf(tmp_path / "noise.gnf", noise)
    assert run("verify", "--config", classical_cfg, "--field", tmp_path / "noise.gnf",
               "--out", tmp_path / "v2") != 0


def test_verify_corrupted_header_reports_offset(classical_cfg, tmp_path, capsys):
    bad = tmp_path / "bad.gnf"
    bad.write_bytes(b"GNXX\nn=1\n\n" + b"\x00" * 16)
    code = run("verify", "--config", classical_cfg, "--field", bad)
    assert code == 1
    assert "byte offset" in capsys.readouterr().err


def test_rearrange_roundtrip(classical_cfg, tmp_path):
    out = tmp_path / "run3"
    assert run("solve", "--config", classical_cfg, "--out", out) == 0
    dst = tmp_path / "Qm.gnf"
    assert run("rearrange", "--field", out / "Q.gnf", "--mode", "modulus",
               "--output", dst) == 0
    f = bw.read_gnf(out / "Q.gnf")
    g = bw.read_gnf(dst)
    assert np.max(np.abs(np.abs(g.spectrum) - np.abs(f.spectrum))) < 1e-12


def test_sigma_prints_floor(classical_cfg, capsys):
    assert run("sigma", "--config", classical_cfg) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_sweep_gauge_covariance(classical_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = run("sweep", "--config", classical_cfg, "--param", "v",
               "--range", "0:1:3", "--out", out)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,J,residual,s2_defect,modrearr_defect,E,M"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    # gauge covariance: J(v, omega) = J(0, omega - v^2/4) = (16/3)(1 - v^2/4)^{3/2}
    for v, j, *_ in rows:
        expected = (16.0 / 3.0) * (1.0 - v * v / 4.0) ** 1.5
        assert j == pytest.approx(expected, rel=1e-5)


def test_sweep_empty_range_rejected(classical_cfg, tmp_path, capsys):
    code = run("sweep", "--config", classical_cfg, "--param", "v",
               "--range", "0:1:0", "--out", tmp_path / "x")
    assert code == 1


def test_sweep_failed_rows_named_on_stderr(classical_cfg, tmp_path, capsys):
    # Sigma_v = 0 here, so omega = -0.5 and omega = 0 violate omega > -Sigma_v
    out = tmp_path / "sweep"
    code = run("sweep", "--config", classical_cfg, "--param", "omega",
               "--range=-0.5:1:4", "--out", out)
    assert code == 0
    rows = [list(map(float, line.split(",")))
            for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [np.isnan(row[1]) for row in rows] == [True, True, False, False]
    err = capsys.readouterr().err
    assert "sweep: row omega=-0.5 failed: HypothesisViolatedError: " in err
    assert "sweep: row omega=0.0 failed: HypothesisViolatedError: " in err
    assert "omega=0.5" not in err and "omega=1.0" not in err

    # a row that stops at max_iter keeps its numbers and is named too
    short = tmp_path / "short.cfg"
    short.write_text(CLASSICAL.replace("max_iter = 5000", "max_iter = 3"))
    assert run("sweep", "--config", short, "--param", "v", "--range", "0:0:1",
               "--out", tmp_path / "short") == 2
    err = capsys.readouterr().err
    assert "sweep: row v=0.0 failed: not converged after 3 iterations" in err


def test_sweep_jobs_deterministic(classical_cfg, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run("sweep", "--config", classical_cfg, "--param", "omega",
               "--range", "0.8:1.2:3", "--out", out1, "--jobs", "2") == 0
    assert run("sweep", "--config", classical_cfg, "--param", "omega",
               "--range", "0.8:1.2:3", "--out", out2) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_solve_outputs_deterministic(classical_cfg, tmp_path):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    assert run("solve", "--config", classical_cfg, "--out", out1) == 0
    assert run("solve", "--config", classical_cfg, "--out", out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "Q.gnf").read_bytes() == (out2 / "Q.gnf").read_bytes()


def test_props_suites_pass(capsys):
    assert run("props", "--suite", "setops", "--seed", "1", "--trials", "1500") == 0
    assert run("props", "--suite", "rearrange", "--seed", "2", "--trials", "25") == 0
    assert run("props", "--suite", "convolution", "--seed", "3", "--trials", "25") == 0


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        run("--help")
    text = capsys.readouterr().out
    assert "exit codes" in text
