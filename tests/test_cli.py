import json
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import boostedwaves as bw
from boostedwaves import cli, verify
from boostedwaves.cli import load_config, main
from boostedwaves.errors import ZeroFieldError
from boostedwaves.symbols import KINDS
from references import norm_l2

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

    # an axis the dimension does not have names its line too
    cfg.write_text(CLASSICAL + "axis = 3\n")
    lineno = cfg.read_text().splitlines().index("axis = 3") + 1
    assert run("solve", "--config", cfg, "--out", tmp_path / "x") == 1
    assert f"line {lineno}: axis out of range" in capsys.readouterr().err


@pytest.mark.parametrize("symbol, message", [
    ("wavelet; s = 1", "unknown symbol kind 'wavelet'"),
    ("custom", "unknown symbol kind 'custom'"),
    ("fractional", "symbol 'fractional' needs parameter 's'"),
    ("biharmonic; mu = x", "bad symbol parameter 'mu': 'x'"),
    ("half_wave; s = 1", "unused symbol parameters ['s']"),
    ("biharmonic; mu = 1; A = 2", "unused symbol parameters ['A']"),
    ("fractional; s = nan", "symbol parameter 's' must be finite, got nan"),
    ("fractional; s = inf", "symbol parameter 's' must be finite, got inf"),
    ("biharmonic; mu = nan", "symbol parameter 'mu' must be finite, got nan"),
    ("biharmonic; mu = inf", "symbol parameter 'mu' must be finite, got inf"),
    ("sqrt_klein_gordon; m = nan", "symbol parameter 'm' must be finite, got nan"),
    ("sqrt_klein_gordon; m = inf", "symbol parameter 'm' must be finite, got inf"),
    ("fractional; s = 1; s = 0.75", "duplicate symbol parameter 's'"),
])
def test_symbol_errors_carry_one_line_number(tmp_path, capsys, symbol, message):
    cfg = tmp_path / "symbol.cfg"
    cfg.write_text(f"n = 1\nsizes = 64\nL = 10.0\nsymbol = {symbol}\nomega = 1\nsigma = 1\n")
    assert run("solve", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.count("line ") == 1
    assert f"config error: line 4: {message}" in err
    assert not (tmp_path / "x").exists()


# A sample value for every parameter a table kind takes.
SYMBOL_PARAMS = {"s": 0.75, "mu": -1.0, "m": 1.0}


@pytest.mark.parametrize("name", list(KINDS))
def test_every_table_kind_parses_and_solves(name, tmp_path, capsys):
    kind = KINDS[name]
    values = {key: SYMBOL_PARAMS[key] for key in kind.params}
    text = "; ".join([name] + [f"{key} = {value!r}" for key, value in values.items()])
    cfg = tmp_path / "kind.cfg"
    cfg.write_text(f"symbol = {text}\nn = 1\nsizes = 128\nL = {8 * np.pi!r}\n"
                   "omega = 1\nsigma = 1\n")
    assert load_config(cfg).symbol == kind.factory(ndim=1, **values)
    assert run("solve", "--config", cfg, "--out", tmp_path / "out") == 0


def test_verify_pipeline_and_noise(classical_cfg, tmp_path, capsys):
    out = tmp_path / "run2"
    assert run("solve", "--config", classical_cfg, "--out", out) == 0
    assert run("verify", "--config", classical_cfg, "--field", out / "Q.gnf",
               "--out", out) == 0
    header = (out / "symmetry.csv").read_text().splitlines()[0]
    assert header == "case,s1,s2,modrearr,connected,unit_residual,alpha,beta0,residual"

    # random-noise field fails the thresholds
    rng = np.random.default_rng(0)
    grid = bw.Grid.make(512, 75.39822368615503)
    noise = bw.Field.from_values(
        grid, rng.standard_normal(512) + 1j * rng.standard_normal(512)
    )
    bw.write_gnf(tmp_path / "noise.gnf", noise)
    assert run("verify", "--config", classical_cfg, "--field", tmp_path / "noise.gnf",
               "--out", tmp_path / "v2") != 0


def test_rearrange_bad_axis_or_mode_is_one_line_error(tmp_path, capsys):
    g2 = bw.Grid.make((16, 16), 4.0)
    g1 = bw.Grid.make(16, 4.0)
    bw.write_gnf(tmp_path / "f2.gnf", bw.Field.from_values(g2, np.ones((16, 16))))
    bw.write_gnf(tmp_path / "f1.gnf", bw.Field.from_values(g1, np.ones(16)))
    for field, extra, message in (
        ("f2.gnf", ("--axis", "5"), "axis 5 is out of range for a 2D field"),
        ("f1.gnf", ("--mode", "axial"), "axial rearrangement needs dimension >= 2"),
    ):
        dst = tmp_path / f"out-{field}"
        assert run("rearrange", "--field", tmp_path / field, *extra, "--output", dst) == 1
        assert capsys.readouterr().err == f"rearrange error: {message}\n"
        assert not dst.exists()


def test_verify_refuses_a_field_from_another_grid(tmp_path, capsys):
    # a 2D config whose axis 1 a 1D field does not have
    cfg = tmp_path / "c2.cfg"
    cfg.write_text("symbol = fractional; s = 1.0\nn = 2\nsizes = 32\nL = 8.0\n"
                   "omega = 1.0\nsigma = 1\naxis = 1\n")
    g1 = bw.Grid.make(16, 8.0)
    bw.write_gnf(tmp_path / "f1.gnf", bw.Field.from_values(g1, np.exp(-g1.coords(0) ** 2)))
    out = tmp_path / "v"
    assert run("verify", "--config", cfg, "--field", tmp_path / "f1.gnf", "--out", out) == 1
    assert capsys.readouterr().err == (
        "verify error: field grid n=1 sizes=16 L=8.0 differs from the config grid "
        "n=2 sizes=32,32 L=8.0,8.0\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # the one line is all: no numpy warning before it
@pytest.mark.parametrize("spoil, reason", [
    ("zero", "support of the zero field is empty"),
    ("nan", "support of a field with non-finite values"),
    ("inf", "support of a field with non-finite values"),
])
def test_verify_zero_or_non_finite_field_is_one_line_error(tmp_path, capsys, spoil, reason):
    cfg = tmp_path / "c2.cfg"
    cfg.write_text("symbol = fractional; s = 1.0\nn = 2\nsizes = 32\nL = 8.0\n"
                   "omega = 1.0\nsigma = 1\n")
    g = bw.Grid.make((32, 32), 8.0)
    if spoil == "zero":
        values = np.zeros((32, 32), dtype=complex)
    else:
        values = np.exp(-g.coords(0)[:, None] ** 2 - g.coords(1)[None, :] ** 2).astype(complex)
        values[3, 5] = np.nan if spoil == "nan" else np.inf
    bw.write_gnf(tmp_path / "f.gnf", bw.Field.from_values(g, values))
    out = tmp_path / "v"
    assert run("verify", "--config", cfg, "--field", tmp_path / "f.gnf", "--out", out) == 1
    assert capsys.readouterr().err == f"verify error: {reason}\n"
    assert not out.exists()


def test_verify_infinite_field_prints_one_line_in_a_fresh_process(tmp_path):
    # The report's worker takes s1 of the values before the support cut
    # refuses them; a reflection along axis 1 swaps the two infinite values,
    # so s1 meets inf - inf.  Under pytest a worker's warnings are recorded,
    # not printed, so only a fresh interpreter shows that stderr holds the
    # one line and no numpy warning.
    cfg = tmp_path / "c2.cfg"
    cfg.write_text("symbol = fractional; s = 1.0\nn = 2\nsizes = 32\nL = 8.0\n"
                   "omega = 1.0\nsigma = 1\n")
    g = bw.Grid.make((32, 32), 8.0)
    values = np.exp(-g.coords(0)[:, None] ** 2 - g.coords(1)[None, :] ** 2).astype(complex)
    values[3, [5, -5]] = np.inf
    bw.write_gnf(tmp_path / "f.gnf", bw.Field.from_values(g, values))
    code = (
        "import sys\n"
        "from boostedwaves import cli\n"
        "cfg, field, out = sys.argv[1:]\n"
        "print(cli.main(['verify', '--config', cfg, '--field', field, '--out', out]))\n"
    )
    proc = _run_python(code, cfg, tmp_path / "f.gnf", tmp_path / "v")
    assert proc.stdout.splitlines()[-1] == "1"
    assert proc.stderr == "verify error: support of a field with non-finite values\n"


def _line_cfg(tmp_path, v, omega=1.0):
    """1D s = 1 at speed ``v`` on 1,024 points of [-20 pi, 20 pi)."""
    path = tmp_path / "line.cfg"
    path.write_text(f"symbol = fractional; s = 1\nn = 1\nsizes = 1024\nL = {20 * np.pi!r}\n"
                    f"v = {v}\nomega = {omega}\nsigma = 1\n")
    return path


def _plane_cfg(tmp_path, size):
    """2D s = 1 at speed 0.3 along axis 0, ``size``^2 points of [-8 pi, 8 pi)^2."""
    path = tmp_path / f"plane{size}.cfg"
    path.write_text(f"symbol = fractional; s = 1\nn = 2\nsizes = {size}\nL = {8 * np.pi!r}\n"
                    "v = 0.3\nomega = 1\nsigma = 1\n")
    return path


def _printed_residual(out: str) -> float:
    return float(out.split("residual=")[1].split()[0])


@pytest.mark.parametrize("v", [0.0, 0.5])
def test_verify_passes_the_sech_oracle(tmp_path, capsys, v):
    # Q = sqrt(2 w) sech(sqrt(w) x) e^{i v x / 2} with w = omega - v^2 / 4
    # solves (-d^2/dx^2 - v . D + omega) Q = |Q|^2 Q in the continuum; the
    # Minkowski set fold failed it (1.10 at v = 0)
    g = bw.Grid.make(1024, 20 * np.pi)
    x = g.coords(0)
    w = 1.0 - v * v / 4
    q = np.sqrt(2 * w) / np.cosh(np.sqrt(w) * x) * np.exp(0.5j * v * x)
    bw.write_gnf(tmp_path / "sech.gnf", bw.Field.from_values(g, q))
    assert run("verify", "--config", _line_cfg(tmp_path, v), "--field", tmp_path / "sech.gnf",
               "--out", tmp_path / "v") == 0
    assert _printed_residual(capsys.readouterr().out) <= 1e-13


@pytest.mark.parametrize("size", [128, 256])
def test_verify_passes_one_problem_at_two_resolutions(tmp_path, capsys, size):
    # the same physical problem gets the same verdict on either lattice (the
    # set fold failed the 256^2 state), and verify reads the solve's residual
    cfg, out = _plane_cfg(tmp_path, size), tmp_path / "run"
    assert run("solve", "--config", cfg, "--out", out) == 0
    report = (out / "report.txt").read_text().splitlines()
    solved = float(next(line for line in report if line.startswith("residual")).split(":")[1])
    capsys.readouterr()
    assert run("verify", "--config", cfg, "--field", out / "Q.gnf", "--out", out) == 0
    assert _printed_residual(capsys.readouterr().out) == pytest.approx(solved, rel=1e-3)


@pytest.mark.parametrize("control", ["gauss-0.05", "gauss-0.3", "gauss-1d", "noise"])
def test_verify_fails_fields_that_solve_nothing(tmp_path, capsys, control):
    # symmetric fields that are not solutions: their spectra fill the box, so
    # the set fold passed both 2D Gaussians; the residual gate fails them
    rng = np.random.default_rng(0)
    if control.startswith("gauss-0"):
        cfg, g = _plane_cfg(tmp_path, 128), bw.Grid.make((128, 128), 8 * np.pi)
        width = float(control.split("-")[1])
        x0, x1 = g.coord_mesh()
        values = np.exp(-(x0**2 + x1**2) / (2 * width**2)).astype(complex)
    else:
        cfg, g = _line_cfg(tmp_path, 0.0), bw.Grid.make(1024, 20 * np.pi)
        x = g.coords(0)
        values = (np.exp(-x**2 / 2).astype(complex) if control == "gauss-1d"
                  else rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    bw.write_gnf(tmp_path / "f.gnf", bw.Field.from_values(g, values))
    assert run("verify", "--config", cfg, "--field", tmp_path / "f.gnf",
               "--out", tmp_path / "v") == 4
    residual = _printed_residual(capsys.readouterr().out)
    assert residual > 0.5
    if control == "gauss-1d":
        assert residual == pytest.approx(0.557, abs=1e-3)


def test_verify_gapped_ground_state_is_disconnected(tmp_path, capsys, frac2d_report):
    # the 128^2 ground state with Q_hat zeroed on 1 < |xi| < 1.5
    q = frac2d_report.Q
    radius = np.sqrt(sum(m**2 for m in q.grid.freq_mesh()))
    gapped = np.where((radius > 1.0) & (radius < 1.5), 0.0, q.spectrum)
    bw.write_gnf(tmp_path / "gap.gnf", bw.Field.from_spectrum(q.grid, gapped))
    assert run("verify", "--config", _plane_cfg(tmp_path, 128), "--field", tmp_path / "gap.gnf",
               "--out", tmp_path / "v") == 3
    assert capsys.readouterr().err == "verify: spectral support is disconnected\n"


def test_verify_enforces_the_problem_hypotheses(tmp_path, capsys):
    # omega = -Sigma_v exactly: Sigma_v = -v^2 / 4 for s = 1
    g = bw.Grid.make(1024, 20 * np.pi)
    bw.write_gnf(tmp_path / "f.gnf", bw.Field.from_values(g, np.exp(-g.coords(0) ** 2)))
    out = tmp_path / "v"
    assert run("verify", "--config", _line_cfg(tmp_path, 0.5, omega=0.0625),
               "--field", tmp_path / "f.gnf", "--out", out) == 1
    assert capsys.readouterr().err.startswith("config error: requires omega > -Sigma_v")
    assert not out.exists()


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


@pytest.mark.parametrize("param", ["v", "omega"])
@pytest.mark.parametrize("bounds", ["nan:1", "0:nan", "inf:1", "1:inf", "-inf:1", "0:-inf"])
def test_sweep_non_finite_range_rejected(classical_cfg, tmp_path, capsys, param, bounds):
    # refused up front like an empty range: no solve, no warning, no output
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("sweep", "--config", classical_cfg, "--param", param,
                   "--range", f"{bounds}:3", "--out", out)
    assert code == 1
    assert "config error: sweep range bounds must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_range_negative_start_as_separate_word(classical_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = run("sweep", "--config", classical_cfg, "--param", "omega",
               "--range", "-0.5:1:4", "--out", out)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [-0.5, 0.0, 0.5, 1.0]


def test_sweep_jobs_deterministic(tmp_path):
    # sweep.csv must not depend on the jobs key, and a rerun must repeat the bytes
    rows = 15
    outs = [tmp_path / f"s{i}" for i in range(3)]
    for out, jobs in zip(outs, ("2", "1", "1")):
        cfg = tmp_path / f"jobs{jobs}.cfg"
        cfg.write_text(CLASSICAL + f"jobs = {jobs}\n")
        assert run("sweep", "--config", cfg, "--param", "omega",
                   "--range", f"0.8:1.2:{rows}", "--out", out) == 0
    first = (outs[0] / "sweep.csv").read_bytes()
    assert len(first.splitlines()) == rows + 1
    assert all((out / "sweep.csv").read_bytes() == first for out in outs[1:])


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, value):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(CLASSICAL + f"jobs = {value}\n")
    assert run("sweep", "--config", cfg, "--param", "v", "--range", "0:0.5:2",
               "--out", tmp_path / "s") == 1
    lineno = len(cfg.read_text().splitlines())
    err = capsys.readouterr().err
    assert err == f"config error: line {lineno}: jobs must be >= 1, got {value}\n"
    assert not (tmp_path / "s" / "sweep.csv").exists()


def _with_key(key, value):
    """CLASSICAL with ``key = value`` as its last line, and that line's number."""
    lines = [line for line in CLASSICAL.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n", len(lines) + 1


# (key, value, what the error says): a malformed value for every key but out,
# which takes any text, and each key's out-of-range values
BAD_VALUES = [
    ("n", "x", "bad integer for 'n': 'x'"),
    ("n", "4", "n must be 1, 2, or 3"),
    ("sizes", "512.0", "bad vector for 'sizes': '512.0'"),
    ("sizes", "100", "grid sizes must be powers of two >= 8, got (100,)"),
    ("L", "x", "bad vector for 'L': 'x'"),
    ("L", "1,2", "'L' needs 1 components, got 2"),
    ("L", "0", "L must be positive and finite, got (0.0,)"),
    ("L", "inf", "L must be positive and finite, got (inf,)"),
    ("symbol", "wavelet", "unknown symbol kind 'wavelet'"),
    ("v", "x", "bad vector for 'v': 'x'"),
    ("v", "nan", "v must be finite, got (nan,)"),
    ("v", "inf", "v must be finite, got (inf,)"),
    ("omega", "x", "bad number for 'omega': 'x'"),
    ("omega", "inf", "omega must be finite, got inf"),
    ("sigma", "1.5", "bad integer for 'sigma': '1.5'"),
    ("sigma", "0", "sigma must be >= 1, got 0"),
    ("tol", "x", "bad number for 'tol': 'x'"),
    ("tol", "0", "tol must be positive and finite, got 0.0"),
    ("tol", "-1", "tol must be positive and finite, got -1.0"),
    ("max_iter", "x", "bad integer for 'max_iter': 'x'"),
    ("max_iter", "0", "max_iter must be >= 1, got 0"),
    ("max_iter", "-3", "max_iter must be >= 1, got -3"),
    ("init_width", "x", "bad number for 'init_width': 'x'"),
    ("init_width", "0", "init_width must be positive and finite, got 0.0"),
    ("init_width", "nan", "init_width must be positive and finite, got nan"),
    ("axis", "x", "bad integer for 'axis': 'x'"),
    ("axis", "1", "axis out of range"),
    ("jobs", "x", "bad integer for 'jobs': 'x'"),
    ("jobs", "0", "jobs must be >= 1, got 0"),
]


def test_bad_values_cover_every_key():
    assert {key for key, _, _ in BAD_VALUES} == set(cli.KEYS) - {"out"}


@pytest.mark.parametrize("key, value, message", BAD_VALUES)
def test_bad_value_is_one_line_numbered_config_error(tmp_path, capsys, key, value, message):
    text, lineno = _with_key(key, value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run("solve", "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}: {message}")
    assert err.count("line ") == 1 and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("tol, message", [
    ("-1", "tol must be positive and finite, got -1.0"),
    ("x", "bad number for 'tol': 'x'"),
])
def test_flag_value_gets_its_key_check(classical_cfg, tmp_path, capsys, tol, message):
    assert run("solve", "--config", classical_cfg, "--out", tmp_path / "x", "--tol", tol) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


# keys the config does not take: verify gates s1, s2 and modrearr on the
# constant verify.DEFECT_MAX and the residual on tol; the support threshold
# is the constant verify.SUPPORT_TAU, and the cold start's phase the library's
@pytest.mark.parametrize("key, value", [
    ("seed", "1"), ("minkowski_max", "0.05"), ("s1_max", "1e-5"), ("s2_max", "1e-5"),
    ("modrearr_max", "1e-5"), ("tau", "1e-8"), ("init_phase", "0"),
])
def test_removed_key_is_unknown(tmp_path, capsys, key, value):
    text, lineno = _with_key(key, value)
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(text)
    assert run("solve", "--config", cfg, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == f"config error: line {lineno}: unknown key '{key}'\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flag", [
    ("solve", "--seed"), ("verify", "--seed"), ("sweep", "--seed"),
    ("solve", "--jobs"), ("verify", "--jobs"), ("sweep", "--jobs"),
    ("verify", "--tol"),
])
def test_removed_flags_are_rejected(classical_cfg, tmp_path, capsys, command, flag):
    extra = {"verify": ("--field", tmp_path / "Q.gnf"),
             "sweep": ("--param", "v", "--range", "0:0.5:2")}.get(command, ())
    with pytest.raises(SystemExit) as info:
        run(command, "--config", classical_cfg, *extra, flag, "1")
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["props", "sigma"])
def test_removed_subcommands_are_rejected(classical_cfg, capsys, command):
    with pytest.raises(SystemExit) as info:
        run(command, "--config", classical_cfg)
    assert info.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def _run_python(code: str, *args) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True)


def test_cli_and_1d_runs_leave_scipy_unloaded(classical_cfg, tmp_path):
    # numpy.fft and the run-length connectivity serve every transform and
    # label of a 1D solve and sweep, and every floor is in closed form, off
    # the axis too: the package imports no scipy.  The CLI loads every module
    # of the package, so a module that only the tests use cannot sit in it.
    bih = tmp_path / "biharmonic.cfg"
    bih.write_text("symbol = biharmonic; mu = 1\nn = 2\nsizes = 32\nL = 12.0\n"
                   "v = 0.3, 0.3\nomega = 1\nsigma = 1\n")
    code = (
        "import sys\n"
        "from boostedwaves import cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'boostedwaves'))\n"
        "cfg, bih, out = sys.argv[1:]\n"
        "assert cli.main(['solve', '--config', cfg, '--out', out]) == 0\n"
        "assert cli.main(['sweep', '--config', cfg, '--out', out, '--param', 'v',\n"
        "                 '--range', '0:0.4:3']) == 0\n"
        "print(repr(cli.make_problem(cli.load_config(bih)).floor))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run_python(code, classical_cfg, bih, tmp_path / "run")
    lines = proc.stdout.splitlines()
    package = Path(cli.__file__).parent
    modules = sorted("boostedwaves" if p.stem == "__init__" else f"boostedwaves.{p.stem}"
                     for p in package.glob("*.py"))
    assert lines[0] == repr(modules)
    floor = bw.dispersion_floor(bw.BoostedSymbol.make(bw.biharmonic(1.0, 2), (0.3, 0.3)))
    assert float(lines[-2]) == floor
    assert lines[-1] == "[]"


# Runs every subcommand in-process under a profiler on every thread, the
# symmetry report's worker too, and prints what the package defines and
# exports that no run called: the exported functions, then the methods of the
# exported classes.  The four configs cover the four symbol kinds; "kg" stops
# at max_iter, so the solver takes its final quotient (weinstein), and the
# last two runs refuse a config and a field.
_REACH = r"""
import inspect, json, sys, threading
from pathlib import Path
import boostedwaves as bw
from boostedwaves import cli

tmp = Path(sys.argv[1])
configs = {
    "frac": "symbol = fractional; s = 1\nn = 1\nsizes = 128\nL = 25.0\nv = 0.3\n",
    "bih": "symbol = biharmonic; mu = -1\nn = 2\nsizes = 32\nL = 12.0\nv = 0.3\n",
    "kg": "symbol = sqrt_klein_gordon; m = 1\nn = 1\nsizes = 128\nL = 25.0\nv = 0.3\n"
          "max_iter = 3\n",
    "half": "symbol = half_wave\nn = 1\nsizes = 128\nL = 25.0\nv = 0.5\n",
}
for name, text in configs.items():
    (tmp / f"{name}.cfg").write_text(text + "omega = 1\nsigma = 1\n")
(tmp / "bad.cfg").write_text("colour = 1\n")
(tmp / "bad.gnf").write_bytes(b"GNF2\n\n")
runs = [["solve", "--config", tmp / f"{name}.cfg", "--out", tmp / name] for name in configs]
runs += [["verify", "--config", tmp / "bih.cfg", "--field", tmp / "bih" / "Q.gnf",
          "--out", tmp / "verify"]]
runs += [["rearrange", "--field", tmp / "bih" / "Q.gnf", "--mode", mode,
          "--output", tmp / f"{mode}.gnf"] for mode in ("full", "axial", "modulus")]
runs += [["sweep", "--config", tmp / "frac.cfg", "--out", tmp / "v-sweep",
          "--param", "v", "--range", "0:0.4:3"],
         ["sweep", "--config", tmp / "half.cfg", "--out", tmp / "omega-sweep",
          "--param", "omega", "--range", "1:2:3"],
         ["solve", "--config", tmp / "bad.cfg", "--out", tmp / "bad"],
         ["verify", "--config", tmp / "frac.cfg", "--field", tmp / "bad.gnf",
          "--out", tmp / "bad"]]

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
codes = [cli.main([str(a) for a in argv]) for argv in runs]
sys.setprofile(None)
threading.setprofile(None)

package = str(Path(bw.__file__).parent)
functions, methods = {}, {}
for name in dir(bw):
    obj = getattr(bw, name)
    if inspect.isfunction(obj):
        functions[name] = inspect.unwrap(obj)
    elif inspect.isclass(obj):
        for attr, raw in vars(obj).items():
            raw = raw.fget if isinstance(raw, property) else raw
            f = inspect.unwrap(getattr(raw, "__func__", getattr(raw, "func", raw)))
            if inspect.isfunction(f) and f.__code__.co_filename.startswith(package):
                methods[f"{name}.{attr}"] = f
print(json.dumps(codes))
print(json.dumps(sorted(n for n, f in functions.items() if f.__code__ not in called)))
print(json.dumps(sorted(n for n, f in methods.items() if f.__code__ not in called)))
"""

# Methods of exported classes that only the tests call.  Field.shifted is
# canonicalize's sub-cell shift, taken only when a state's modulus centroid
# sits a quarter cell or more off the lattice once its peak is rolled to the
# centre; none of the Gaussian-start solves here ends so.
_TEST_ONLY_METHODS = ["BoostedSymbol.make", "Field.shifted", "Grid.coords", "Grid.make"]


def test_cli_runs_call_every_exported_function(tmp_path):
    lines = _run_python(_REACH, tmp_path).stdout.splitlines()[-3:]
    codes, functions, methods = (json.loads(line) for line in lines)
    assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 1]
    assert functions == []
    assert methods == _TEST_ONLY_METHODS


def test_sweep_leaves_the_thread_pool_unloaded(classical_cfg, tmp_path):
    # concurrent.futures, and logging with it, cost ~4 ms of every start-up;
    # a sweep solves its rows on one thread, whatever the jobs key says
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from boostedwaves import cli\n"
        "base, out = sys.argv[1:]\n"
        "pool = ('concurrent.futures', 'logging')\n"
        "for jobs in ('1', '2'):\n"
        "    cfg = Path(out + f'-jobs{jobs}.cfg')\n"
        "    cfg.write_text(Path(base).read_text() + f'jobs = {jobs}\\n')\n"
        "    assert cli.main(['sweep', '--config', str(cfg), '--out', out, '--param', 'v',\n"
        "                     '--range', '0:0.4:7']) == 0\n"
        "    print([m for m in pool if m in sys.modules])\n"
    )
    proc = _run_python(code, classical_cfg, tmp_path / "run")
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]", "[]"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are glibc's")
def test_repeated_verify_maps_no_fresh_pages(tmp_path):
    # With the heap thresholds fixed, a second report of a 256^2 ground state
    # reuses the pages of the first one's temporaries.  A fresh process that
    # only verifies maps about 2,200 fresh pages per report without them.
    # About axis 1 the report's worker sorts a moved copy of |Q_hat| in its
    # borrowed buffers; about axis 0 an unmoved one.
    text = ("symbol = fractional; s = 1\nn = 2\nsizes = 256\nL = 25.132741228718345\n"
            "v = 0.3\nomega = 1\nsigma = 1\n")
    cfg = tmp_path / "frac2d.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run("solve", "--config", cfg, "--out", out) == 0
    code = (
        "import resource, sys\n"
        "from boostedwaves import cli\n"
        "cfg, out = sys.argv[1:]\n"
        "verify = ['verify', '--config', cfg, '--out', out, '--field', out + '/Q.gnf']\n"
        "cli.main(verify)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "cli.main(verify)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    for axis in (0, 1):
        axis_cfg = tmp_path / f"frac2d-axis{axis}.cfg"
        axis_cfg.write_text(text + f"axis = {axis}\n")
        proc = _run_python(code, axis_cfg, out)
        assert int(proc.stdout.splitlines()[-1]) <= 50, axis


def _half_wave_cfg(tmp_path, size):
    """The classical config with the half-wave symbol, ``size`` points on [-20 pi, 20 pi)."""
    path = tmp_path / "half_wave.cfg"
    path.write_text(CLASSICAL.replace("fractional; s = 1.0", "half_wave")
                    .replace("sizes = 512", f"sizes = {size}")
                    .replace("L = 75.39822368615503", f"L = {20 * np.pi!r}"))
    return path


@pytest.fixture()
def traced_minimize(monkeypatch):
    """Record each sweep solve: the problem, whether it started cold, its report."""
    calls = []
    real = cli.minimize

    def traced(prob, init=None, opts=None):
        report = real(prob, init=init, opts=opts)
        calls.append((prob, init is None, report))
        return report

    monkeypatch.setattr(cli, "minimize", traced)
    return calls


@pytest.mark.parametrize("param, span, cold_rows", [
    # v-sweep: only row 0 starts cold
    ("v", "0:0.6:7", [0]),
    # Sigma_v = 0: omega = -0.5, -0.25, 0 fail, and omega = 0.25 after them
    # must start cold
    ("omega", "-0.5:1:7", [3]),
])
def test_sweep_continuation_matches_cold_solves(tmp_path, capsys, traced_minimize,
                                                param, span, cold_rows):
    # The half-wave ground state takes ~14 cold iterations here; the classical
    # one converges in ~10 from the Gaussian, which leaves continuation no room.
    path = _half_wave_cfg(tmp_path, 256)
    out = tmp_path / "sweep"
    assert run("sweep", "--config", path, "--param", param, "--range", span,
               "--out", out) == 0
    rows = [list(map(float, line.split(",")))
            for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    solved = [i for i, row in enumerate(rows) if not np.isnan(row[1])]
    assert len(rows) == 7 and len(solved) == len(traced_minimize)
    cfg = load_config(path)
    opts = bw.SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter, init_width=cfg.init_width)
    assert [i for i, (_, cold, _) in zip(solved, traced_minimize) if cold] == cold_rows
    warm_total = cold_total = 0
    for i, (prob, _, report) in zip(solved, traced_minimize):
        cold = bw.minimize(prob, opts=opts)
        assert rows[i][1] == pytest.approx(cold.J_value, rel=1e-12, abs=0.0)
        assert report.converged and rows[i][2] <= cfg.tol
        warm_total += report.iterations
        cold_total += cold.iterations
    if param == "v":  # six rows continue from their predecessors
        assert warm_total < cold_total
    summary = f"{len(solved)}/7 rows converged, {warm_total} iterations -> "
    assert summary in capsys.readouterr().out


def test_sweep_rows_keep_the_conjugation_symmetry(tmp_path):
    # The map preserves Q(x) = conj(Q(-x)), i.e. a real spectrum (s2 = 0), and
    # so does real Anderson mixing.  Complex mixing let warm rows drift to
    # s2 = 4e-11 here.
    path = _half_wave_cfg(tmp_path, 1024)
    out = tmp_path / "sweep"
    assert run("sweep", "--config", path, "--param", "v", "--range", "0:0.25:6",
               "--out", out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    column = lines[0].split(",").index("s2_defect")
    s2 = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(s2) == 6 and max(s2) <= 1e-14


def test_sweep_speed_goes_along_the_config_axis(tmp_path):
    # --param v sets the speed along the config's symmetry axis.  Put on axis
    # 0 while axis = 1, it left |Q_hat| off symmetry about axis 1 (modrearr
    # 0.118 at v = 0.4).  The symbol is radial, so J does not depend on the axis.
    rows = {}
    for axis in (0, 1):
        path = tmp_path / f"axis{axis}.cfg"
        path.write_text(f"symbol = fractional; s = 1\nn = 2\nsizes = 64\nL = {4 * np.pi!r}\n"
                        f"omega = 1\nsigma = 1\naxis = {axis}\n")
        out = tmp_path / f"sweep{axis}"
        assert run("sweep", "--config", path, "--param", "v", "--range", "0.4:0.4:1",
                   "--out", out) == 0
        header, line = (out / "sweep.csv").read_text().splitlines()
        rows[axis] = dict(zip(header.split(","), map(float, line.split(","))))
        assert rows[axis]["modrearr_defect"] <= 1e-14
        assert rows[axis]["s2_defect"] <= 1e-14
    assert rows[1]["J"] == pytest.approx(rows[0]["J"], rel=1e-13, abs=0.0)


def _energy_mass_reference(f, sym, sigma):
    """E and M as sums over the lattice, p evaluated afresh on the mesh."""
    kinetic = np.sum(sym.evaluate(f.grid.freq_mesh()) * np.abs(f.spectrum) ** 2)
    potential = np.sum(np.abs(f.values) ** (2 * sigma + 2)) * f.grid.cell_volume()
    energy = 0.5 * kinetic * f.grid.freq_cell_volume() - potential / (2 * sigma + 2)
    return energy, norm_l2(f) ** 2


def _row_config(tmp_path, symbol, sizes, half_length, axis=0, sigma=1):
    path = tmp_path / "row.cfg"
    ndim = len(sizes.split(","))
    path.write_text(f"symbol = {symbol}\nn = {ndim}\nsizes = {sizes}\nL = {half_length!r}\n"
                    f"omega = 1\nsigma = {sigma}\naxis = {axis}\n")
    return load_config(path)


def _thin_field(shape, index):
    spec_c = np.zeros(shape, dtype=complex)
    k = np.arange(np.size(spec_c[index])).reshape(np.shape(spec_c[index]))
    spec_c[index] = np.exp(0.3j - 0.1 * k + 0.7j * k)
    return bw.Field.from_spectrum(bw.Grid.make(shape, 4.0), np.fft.ifftshift(spec_c))


@pytest.mark.parametrize("case", [
    "solved-1d", "solved-2d-axis1", "start-rolled", "start-resampled", "thin-bin", "thin-line",
])
def test_row_report_matches_its_definitions(tmp_path, monkeypatch, case):
    # A sweep row keeps the solve's J and residual and takes its defects, E and
    # M in one pass over the returned state; each must equal its definition
    # evaluated afresh on that state.  The random starts end off centre: one
    # state is only rolled back (the loop's J and residual are kept), the other
    # (sigma = 2) also shifted by a fraction of a cell, which raises its
    # residual from below tol to about 2e-7 (both are recomputed).
    from test_solver import _random_start

    if case.startswith("thin"):  # one bin thick: the phase fit is minimum-norm
        f = (_thin_field((16,), 11) if case == "thin-bin"
             else _thin_field((16, 16), (slice(2, 12), 3)))
        sym = bw.fractional(1.0, f.grid.ndim)
        got = verify.sweep_defects(f, axis=0) + bw.energy_mass(f, sym, 1)
        prob = bw.Problem.make(bw.BoostedSymbol.make(sym, 0.0), 1.0, 1, f.grid)
        rep = bw.symmetry_report(f, prob, axis=0)
        want = (rep.s2_defect, rep.modulus_rearranged_defect) + _energy_mass_reference(f, sym, 1)
        assert rep.connected
    else:
        if case == "solved-2d-axis1":
            cfg, value, init = _row_config(tmp_path, "fractional; s = 1", "64,64", 4 * np.pi,
                                           axis=1), 0.4, None
        elif case == "solved-1d":
            cfg, value, init = _row_config(tmp_path, "half_wave", "1024", 20 * np.pi), 0.5, None
        else:
            rolled = case == "start-rolled"
            cfg = _row_config(tmp_path, "fractional; s = 1", "1024", 20 * np.pi,
                              sigma=1 if rolled else 2)
            value, init = 0.0, _random_start(cfg.grid, 1 if rolled else 2)
        reports = []  # the row's solve, also when it did not converge
        solve = cli.minimize

        def recorded(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "minimize", recorded)
        row, _ = cli._sweep_value(cfg, "v", value, init)
        q = reports[0].Q
        assert (row.failure is None) == (case != "start-resampled")
        speed = tuple(value if i == cfg.axis else 0.0 for i in range(cfg.grid.ndim))
        prob = bw.Problem.make(bw.BoostedSymbol.make(cfg.symbol, speed), cfg.omega, cfg.sigma,
                               cfg.grid)
        rep = bw.symmetry_report(q, prob, axis=cfg.axis)
        got = row.cells[1:]
        want = ((bw.weinstein(prob, q), bw.unit_residual(prob, q), rep.s2_defect,
                 rep.modulus_rearranged_defect) + _energy_mass_reference(q, cfg.symbol, cfg.sigma))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


# The benchmark's sweep-1d op: iterations and transforms per row.  A row of k
# iterations makes 2k transforms (one to start, two per step, one for the last
# nonlinearity); the cold row 0 adds one for a rejected Anderson candidate and
# one for the spectrum of its rolled final state.  The report keeps the loop's
# J and residual, so it no longer transforms the state back nor its
# nonlinearity again.  Row k starts from the Newton extrapolant of up to eight
# converged rows, of the order their differences allow: 166 iterations,
# against 194 from the three-row extrapolant.
SWEEP_1D_ITERATIONS = (18, 13, 12, 11, 10, 10, 9, 9, 8, 8, 8, 8, 8, 8, 9, 9, 8)
SWEEP_1D_TRANSFORMS = (38, 26, 24, 22, 20, 20, 18, 18, 16, 16, 16, 16, 16, 16, 18, 18, 16)


def test_sweep_1d_work_is_pinned(tmp_path, monkeypatch):
    # Every row keeps its iteration count, which only the start of the row
    # sets, and its number of n-D transforms, counted on the module pair that
    # the solver and Field call: a faster iteration must come from cheaper
    # calls, and fewer iterations from a better start.
    transforms = [0]

    def counted(pair_half):
        def call(*args, **kwargs):
            transforms[0] += 1
            return pair_half(*args, **kwargs)
        return call

    from boostedwaves import fields

    for name in ("_phys_to_spec", "_spec_to_phys"):
        monkeypatch.setattr(fields, name, counted(getattr(fields, name)))
    rows = []
    solve_row = cli._sweep_value

    def counted_row(*args, **kwargs):
        before = transforms[0]
        row, q = solve_row(*args, **kwargs)
        rows.append((row.iterations, transforms[0] - before))
        return row, q

    monkeypatch.setattr(cli, "_sweep_value", counted_row)
    path = _half_wave_cfg(tmp_path, 1024)
    assert run("sweep", "--config", path, "--param", "v", "--range", "0:0.8:17",
               "--out", tmp_path / "sweep") == 0
    assert tuple(it for it, _ in rows) == SWEEP_1D_ITERATIONS
    assert tuple(n for _, n in rows) == SWEEP_1D_TRANSFORMS
    assert (sum(SWEEP_1D_ITERATIONS), transforms[0]) == (166, 334)


@pytest.mark.parametrize("symbol, v, sigma, span, most", [
    ("half_wave", 0.3, 1, "0.2:5:9", 103),
    ("fractional; s = 1", 0.5, 2, "0.1:10:12", 112),
])
def test_coarse_sweep_takes_no_more_iterations_than_three_rows(tmp_path, capsys, symbol, v,
                                                               sigma, span, most):
    # Coarse omega sweeps on 1,024 points, bounded by their totals from the
    # three-row extrapolant.  Extrapolating from all of the last eight rows
    # at a fixed order took 112 and 125 iterations here.
    path = tmp_path / "coarse.cfg"
    path.write_text(_half_wave_cfg(tmp_path, 1024).read_text()
                    .replace("half_wave", symbol).replace("v = 0.0", f"v = {v}")
                    .replace("sigma = 1", f"sigma = {sigma}"))
    assert run("sweep", "--config", path, "--param", "omega", "--range", span,
               "--out", tmp_path / "sweep") == 0
    rows = int(span.rsplit(":", 1)[1])
    summary = re.search(r"sweep: (\d+)/(\d+) rows converged, (\d+) iterations",
                        capsys.readouterr().out)
    assert summary and summary.group(1, 2) == (str(rows), str(rows))
    assert int(summary.group(3)) <= most


@pytest.mark.parametrize("outcome", ["unconverged", "raises"])
def test_sweep_restarts_cold_after_failed_row(classical_cfg, tmp_path, monkeypatch,
                                              capsys, traced_minimize, outcome):
    # the third solve fails after two converged ones; the fourth must start cold
    traced = cli.minimize

    def third_fails(prob, init=None, opts=None):
        report = traced(prob, init=init, opts=opts)
        if len(traced_minimize) == 3:
            if outcome == "raises":
                raise ZeroFieldError("injected")
            report = replace(report, converged=False)
        return report

    monkeypatch.setattr(cli, "minimize", third_fails)
    assert run("sweep", "--config", classical_cfg, "--param", "v", "--range", "0:0.5:5",
               "--out", tmp_path / "sweep") == 0
    assert [cold for _, cold, _ in traced_minimize] == [True, False, False, True, False]
    captured = capsys.readouterr()
    assert "sweep: 4/5 rows converged" in captured.out
    assert "sweep: row v=0.25 failed: " in captured.err


def _table_starts(spectra):
    """The start of the row after each of ``spectra``, converged in a row,
    formed here from the definitions: the backward differences by recursion,
    ∇^j Q_k = ∇^(j-1) Q_k - ∇^(j-1) Q_(k-1), below order eight; the order p,
    at least 1, raised while the next difference is smaller in norm; the
    Newton sum Q_k + ∇Q_k + ... + ∇^p Q_k from order p down."""
    starts, table = [], []
    for q in spectra:
        new = [q]
        for j in range(min(len(table), cli.PREDICTOR_ROWS - 1)):
            new.append(new[j] - table[j])
        table = new
        if len(table) == 1:
            starts.append(q)
            continue
        p = 1
        while p + 1 < len(table) and np.linalg.norm(table[p + 1]) < np.linalg.norm(table[p]):
            p += 1
        start = table[p]
        for j in range(p - 1, -1, -1):
            start = start + table[j]
        starts.append(start)
    return starts


def _predicted(spectra):
    """The module's start after each of ``spectra``, fed in order."""
    grid = bw.Grid.make(spectra[0].shape, 4.0)
    table, starts = [], []
    for q in spectra:
        table = cli._push_row(table, q)
        starts.append(cli._predictor(grid, table).spectrum)
    return starts


@pytest.mark.parametrize("degree", range(7))
def test_predictor_continues_polynomial_rows(degree):
    # Spectra of degree d in the row index k, the coefficient of k^j scaled by
    # 0.1^j so that the differences fall with their order: once d + 1 rows
    # are in, the start is the next row.
    rng = np.random.default_rng(100 + degree)
    coef = [0.1 ** j * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            for j in range(degree + 1)]
    rows = [sum(c * float(k) ** j for j, c in enumerate(coef)) for k in range(13)]
    starts = _predicted(rows[:-1])
    for k in range(degree + 1, 13):
        err = np.linalg.norm(starts[k - 1] - rows[k]) / np.linalg.norm(rows[k])
        assert err <= 1e-12, (k, err)


def test_predictor_takes_the_secant_when_differences_grow():
    # Alternating rows: every difference is twice the one before in norm, so
    # the start is the secant 2 Q_(k-1) - Q_(k-2), not a wilder extrapolant.
    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2))
    rows = [a if k % 2 == 0 else b for k in range(10)]
    starts = _predicted(rows)
    assert starts[0] is rows[0]
    for k in range(1, 10):
        np.testing.assert_allclose(starts[k], 2.0 * rows[k] - rows[k - 1], rtol=0, atol=1e-14)


def test_sweep_rebuilds_the_difference_table_after_a_failed_row(
        classical_cfg, tmp_path, monkeypatch, traced_minimize):
    # Rows 1 to 5 start from the table of rows 0 to 4.  Row 5 does not
    # converge, so row 6 starts cold, row 7 from Q_6 and rows 8 and 9 from the
    # table rebuilt from Q_6 on, each bit for bit.
    inits = []
    traced = cli.minimize

    def sixth_fails(prob, init=None, opts=None):
        inits.append(init)
        report = traced(prob, init=init, opts=opts)
        return replace(report, converged=False) if len(inits) == 6 else report

    monkeypatch.setattr(cli, "minimize", sixth_fails)
    assert run("sweep", "--config", classical_cfg, "--param", "v", "--range", "0:0.9:10",
               "--out", tmp_path / "sweep") == 0
    q = [report.Q.spectrum for _, _, report in traced_minimize]
    want = [None] + _table_starts(q[:5]) + [None] + _table_starts(q[6:9])
    assert len(inits) == len(want) == 10
    for row, (init, spec) in enumerate(zip(inits, want)):
        if spec is None:
            assert init is None, row
        else:
            assert init.spectrum.tobytes() == spec.tobytes(), row


def test_sweep_of_identical_rows_starts_from_the_last_state(
        classical_cfg, tmp_path, monkeypatch, traced_minimize):
    # Five rows of one problem.  The solves leave their states ~1e-12 apart,
    # and the differences of that noise grow with their order, so each start
    # stays within the last step of Q_(k-1) instead of amplifying it.
    inits = []
    traced = cli.minimize

    def recorded(prob, init=None, opts=None):
        inits.append(init)
        return traced(prob, init=init, opts=opts)

    monkeypatch.setattr(cli, "minimize", recorded)
    assert run("sweep", "--config", classical_cfg, "--param", "v", "--range", "0.3:0.3:5",
               "--out", tmp_path / "sweep") == 0
    q = [report.Q.spectrum for _, _, report in traced_minimize]
    assert inits[0] is None and inits[1].spectrum is q[0]
    for k in range(2, 5):
        drift = np.linalg.norm(inits[k].spectrum - q[k - 1])
        assert drift <= 2.0 * np.linalg.norm(q[k - 1] - q[k - 2]), k
        assert drift <= 1e-10 * np.linalg.norm(q[k - 1]), k


@pytest.mark.parametrize("spoil, reason", [
    ("zero", "ZeroFieldError: support of the zero field is empty"),
    ("nan", "ValueError: support of a field with non-finite values"),
])
def test_sweep_zero_or_non_finite_state_is_a_named_failure_row(
        classical_cfg, tmp_path, monkeypatch, capsys, spoil, reason):
    solve = cli.minimize

    def spoiled(prob, init=None, opts=None):
        report = solve(prob, init=init, opts=opts)
        values = report.Q.values.copy()
        if spoil == "zero":
            values[:] = 0.0
        else:
            values[3] = np.nan
        return replace(report, Q=bw.Field.from_values(report.Q.grid, values))

    monkeypatch.setattr(cli, "minimize", spoiled)
    out = tmp_path / "sweep"
    assert run("sweep", "--config", classical_cfg, "--param", "v", "--range", "0:0:1",
               "--out", out) == 2
    (line,) = (out / "sweep.csv").read_text().splitlines()[1:]
    assert line == "0,nan,nan,nan,nan,nan,nan"
    assert f"sweep: row v=0.0 failed: {reason}" in capsys.readouterr().err


def test_solve_outputs_deterministic(classical_cfg, tmp_path):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    assert run("solve", "--config", classical_cfg, "--out", out1) == 0
    assert run("solve", "--config", classical_cfg, "--out", out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "Q.gnf").read_bytes() == (out2 / "Q.gnf").read_bytes()


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        run("--help")
    text = capsys.readouterr().out
    assert "exit codes" in text and "4 failed verify gate" in text
    with pytest.raises(SystemExit):
        run("verify", "--help")
    text = " ".join(capsys.readouterr().out.split())
    for gate in ("s1, s2 and modrearr", f"at most {verify.DEFECT_MAX:g}", "connected",
                 "unit residual", "tol"):
        assert gate in text
