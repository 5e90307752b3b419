"""Command-line front end: solve, verify, rearrange, sweep, props, sigma.

Configuration is plain ``key = value`` text with optional ``[section]``
headers; parsing failures carry the offending line number.  All CSV output
uses a fixed column order and 17-significant-digit floats so identical config
plus seed reproduces byte-identical files.

Exit codes: 0 success, 1 configuration or I/O error, 2 solver did not
converge, 3 disconnected spectral support, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DisconnectedSupportError, GnfFormatError, HypothesisViolatedError
from .fields import Field, Grid, energy_mass, read_gnf, write_gnf
from .rearrange import REARRANGE_MODES, fourier_rearrange
from .solver import Problem, SolveOptions, SolveReport, minimize
from .suites import SUITES, run_suite
from .symbols import (
    BoostedSymbol,
    Symbol,
    anisotropic_half_wave,
    biharmonic,
    dispersion_floor,
    fractional,
    half_wave,
    sqrt_klein_gordon,
)
from .verify import symmetry_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_DISCONNECTED = 3
EXIT_PROPERTY = 4

_EXIT_DOC = (
    "exit codes: 0 ok; 1 config or I/O error; 2 solver did not converge; "
    "3 disconnected spectral support; 4 property-suite failure"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# -- configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    symbol: Symbol
    grid: Grid
    velocity: tuple[float, ...]
    omega: float
    sigma: int
    tol: float
    max_iter: int
    init_width: float
    init_phase: tuple[float, ...] | None
    axis: int
    tau: float
    s1_max: float
    s2_max: float
    modrearr_max: float
    minkowski_max: float
    out_dir: str
    seed: int
    jobs: int


_KNOWN_KEYS = {
    "symbol", "n", "sizes", "L", "v", "omega", "sigma", "tol", "max_iter",
    "init_width", "init_phase", "axis", "tau", "s1_max", "s2_max",
    "modrearr_max", "minkowski_max", "out", "seed", "jobs",
}


def _read_pairs(path) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        pairs[key] = (value.strip(), lineno)
    return pairs


def _get(pairs, key, default=None, required=False):
    if key in pairs:
        return pairs[key]
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return (default, None)


def _parse_float(pairs, key, default=None, required=False) -> float:
    value, lineno = _get(pairs, key, default, required)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"bad number for {key!r}: {value!r}", line=lineno)
    return value


def _parse_int(pairs, key, default=None, required=False) -> int:
    value, lineno = _get(pairs, key, default, required)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"bad integer for {key!r}: {value!r}", line=lineno)
    return value


def _parse_vector(text: str, n: int, key: str, lineno) -> tuple[float, ...]:
    try:
        parts = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"bad vector for {key!r}: {text!r}", line=lineno)
    if len(parts) == 1:
        return parts + (0.0,) * (n - 1) if key == "v" else parts * n
    if len(parts) != n:
        raise ConfigError(f"{key!r} needs {n} components, got {len(parts)}", line=lineno)
    return parts


def _parse_symbol(text: str, ndim: int, lineno) -> Symbol:
    pieces = [p.strip() for p in text.split(";")]
    kind = pieces[0]
    params: dict[str, str] = {}
    for piece in pieces[1:]:
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad symbol parameter {piece!r}", line=lineno)
        k, _, v = piece.partition("=")
        params[k.strip()] = v.strip()

    def fnum(name, default=None):
        if name in params:
            try:
                return float(params.pop(name))
            except ValueError:
                raise ConfigError(f"bad symbol parameter {name!r}", line=lineno)
        if default is None:
            raise ConfigError(f"symbol {kind!r} needs parameter {name!r}", line=lineno)
        return default

    try:
        if kind == "fractional":
            sym = fractional(fnum("s"), ndim)
        elif kind == "biharmonic":
            sym = biharmonic(fnum("mu", 0.0), ndim, lower_coef=fnum("A", 0.5))
        elif kind == "sqrt_klein_gordon":
            sym = sqrt_klein_gordon(fnum("m"), ndim)
        elif kind == "half_wave":
            sym = half_wave(ndim)
        elif kind == "anisotropic_hws":
            split = params.pop("split", "1|1")
            try:
                k, l = (int(tok) for tok in split.split("|"))
            except ValueError:
                raise ConfigError(f"bad split {split!r}", line=lineno)
            if k + l != ndim:
                raise ConfigError(f"split {split!r} does not sum to n={ndim}", line=lineno)
            sym = anisotropic_half_wave(fnum("gamma"), (k, l))
        else:
            raise ConfigError(f"unknown symbol kind {kind!r}", line=lineno)
    except ValueError as exc:
        raise ConfigError(str(exc), line=lineno)
    if params:
        raise ConfigError(f"unused symbol parameters {sorted(params)}", line=lineno)
    return sym


def load_config(path, out_override=None, seed_override=None, tol_override=None,
                jobs_override=None) -> RunConfig:
    pairs = _read_pairs(path)
    n = _parse_int(pairs, "n", required=True)
    if not 1 <= n <= 3:
        raise ConfigError("n must be 1, 2, or 3", line=pairs["n"][1])

    sizes_text, sizes_line = _get(pairs, "sizes", required=True)
    try:
        sizes = tuple(int(tok) for tok in sizes_text.split(","))
    except ValueError:
        raise ConfigError(f"bad sizes {sizes_text!r}", line=sizes_line)
    if len(sizes) == 1:
        sizes = sizes * n

    l_text, l_line = _get(pairs, "L", required=True)
    half_lengths = _parse_vector(l_text, n, "L", l_line)
    try:
        grid = Grid(sizes, half_lengths)
    except ValueError as exc:
        raise ConfigError(str(exc), line=sizes_line)

    sym_text, sym_line = _get(pairs, "symbol", required=True)
    symbol = _parse_symbol(sym_text, n, sym_line)

    v_text, v_line = _get(pairs, "v", default="0", required=False)
    velocity = _parse_vector(v_text, n, "v", v_line)

    init_phase = None
    if "init_phase" in pairs:
        ip_text, ip_line = pairs["init_phase"]
        init_phase = _parse_vector(ip_text, n, "init_phase", ip_line)

    cfg = RunConfig(
        symbol=symbol,
        grid=grid,
        velocity=velocity,
        omega=_parse_float(pairs, "omega", required=True),
        sigma=_parse_int(pairs, "sigma", required=True),
        tol=_parse_float(pairs, "tol", default=1e-10),
        max_iter=_parse_int(pairs, "max_iter", default=5000),
        init_width=_parse_float(pairs, "init_width", default=1.0),
        init_phase=init_phase,
        axis=_parse_int(pairs, "axis", default=0),
        tau=_parse_float(pairs, "tau", default=1e-8),
        s1_max=_parse_float(pairs, "s1_max", default=1e-5),
        s2_max=_parse_float(pairs, "s2_max", default=1e-5),
        modrearr_max=_parse_float(pairs, "modrearr_max", default=1e-5),
        minkowski_max=_parse_float(pairs, "minkowski_max", default=0.05),
        out_dir=_get(pairs, "out", default="out")[0],
        seed=_parse_int(pairs, "seed", default=1),
        jobs=_parse_int(pairs, "jobs", default=1),
    )
    if out_override:
        cfg.out_dir = out_override
    if seed_override is not None:
        cfg.seed = seed_override
    if tol_override is not None:
        cfg.tol = tol_override
    if jobs_override is not None:
        cfg.jobs = jobs_override
    if not 0 <= cfg.axis < n:
        raise ConfigError("axis out of range")
    return cfg


def make_problem(cfg: RunConfig) -> Problem:
    bsym = BoostedSymbol(cfg.symbol, cfg.velocity)
    return Problem.make(bsym, cfg.omega, cfg.sigma, cfg.grid)


# -- output helpers ------------------------------------------------------------


def _write_trace(path, report: SolveReport):
    lines = ["iter,J,residual,Mk,halvings,accel"]
    for row in report.trace:
        lines.append(
            f"{row.iteration},{_fmt(row.quotient)},{_fmt(row.residual)},{_fmt(row.stabilizer)},"
            f"{row.halvings},{int(row.accelerated)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _write_report_txt(path, cfg: RunConfig, prob: Problem, report: SolveReport):
    e, m = energy_mass(report.Q, cfg.symbol, cfg.sigma)
    text = (
        f"symbol        : {cfg.symbol.kind} {dict(cfg.symbol.params)}\n"
        f"grid          : sizes={cfg.grid.sizes} L={cfg.grid.half_lengths}\n"
        f"velocity      : {cfg.velocity}\n"
        f"omega         : {_fmt(cfg.omega)}\n"
        f"sigma         : {cfg.sigma}\n"
        f"Sigma_v       : {_fmt(prob.floor)}\n"
        f"converged     : {report.converged}\n"
        f"iterations    : {report.iterations}\n"
        f"J             : {_fmt(report.J_value)}\n"
        f"residual      : {_fmt(report.residual)}\n"
        f"energy        : {_fmt(e)}\n"
        f"mass          : {_fmt(m)}\n"
    )
    Path(path).write_text(text)


def _symmetry_csv_row(case: str, rep, ndim: int) -> str:
    beta = rep.phase.beta if rep.phase else (math.nan,) * ndim
    alpha = rep.phase.alpha if rep.phase else math.nan
    residual = rep.phase.residual if rep.phase else math.nan
    cells = [
        case,
        _fmt(rep.s1_defect),
        _fmt(rep.s2_defect),
        _fmt(rep.modulus_rearranged_defect),
        "1" if rep.connected else "0",
        _fmt(rep.minkowski_defect),
        _fmt(alpha),
    ]
    cells.extend(_fmt(b) for b in beta)
    cells.append(_fmt(residual))
    return ",".join(cells)


def _symmetry_csv(path, case: str, rep, ndim: int):
    beta_cols = ",".join(f"beta{i}" for i in range(ndim))
    header = f"case,s1,s2,modrearr,connected,minkowski,alpha,{beta_cols},residual"
    Path(path).write_text(header + "\n" + _symmetry_csv_row(case, rep, ndim) + "\n")


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.out, args.seed, args.tol, args.jobs)
    prob = make_problem(cfg)
    opts = SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter,
                        init_width=cfg.init_width, init_phase=cfg.init_phase)
    report = minimize(prob, opts=opts)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_gnf(out / "Q.gnf", report.Q)
    _write_trace(out / "trace.csv", report)
    _write_report_txt(out / "report.txt", cfg, prob, report)
    if not report.converged:
        print(f"solve: no convergence after {report.iterations} iterations "
              f"(residual {report.residual:.3e})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"solve: J = {report.J_value:.12g}, residual = {report.residual:.3e}, "
          f"{report.iterations} iterations -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args.out, args.seed, args.tol, args.jobs)
    f = read_gnf(args.field)
    rep = symmetry_report(f, axis=cfg.axis, sigma=cfg.sigma, tau=cfg.tau)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _symmetry_csv(out / "symmetry.csv", Path(args.field).name, rep, f.grid.ndim)
    if not rep.connected:
        print("verify: spectral support is disconnected", file=sys.stderr)
        return EXIT_DISCONNECTED
    ok = (
        rep.s1_defect <= cfg.s1_max
        and rep.s2_defect <= cfg.s2_max
        and rep.modulus_rearranged_defect <= cfg.modrearr_max
        and rep.minkowski_defect <= cfg.minkowski_max
    )
    print(f"verify: s1={rep.s1_defect:.3e} s2={rep.s2_defect:.3e} "
          f"modrearr={rep.modulus_rearranged_defect:.3e} "
          f"minkowski={rep.minkowski_defect:.3e} connected={rep.connected}")
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_rearrange(args) -> int:
    f = read_gnf(args.field)
    g = fourier_rearrange(f, args.mode, axis=args.axis)
    write_gnf(args.output, g)
    print(f"rearrange: wrote {args.output}")
    return EXIT_OK


def _sweep_value(cfg: RunConfig, param: str, value: float):
    """One sweep row: its CSV cells, and why it failed (None when it converged)."""
    if param == "v":
        velocity = (value,) + (0.0,) * (cfg.grid.ndim - 1)
        local = replace(cfg, velocity=velocity)
    else:
        local = replace(cfg, omega=value)
    try:
        prob = make_problem(local)
        opts = SolveOptions(tol=local.tol, max_iter=local.max_iter,
                            init_width=local.init_width, init_phase=local.init_phase)
        report = minimize(prob, opts=opts)
        rep = symmetry_report(report.Q, axis=local.axis, sigma=local.sigma, tau=local.tau)
        e, m = energy_mass(report.Q, local.symbol, local.sigma)
    except ValueError as exc:  # HypothesisViolatedError, ZeroFieldError, ...
        return (value,) + (math.nan,) * 6, f"{type(exc).__name__}: {exc}"
    cells = (value, report.J_value, report.residual, rep.s2_defect,
             rep.modulus_rearranged_defect, e, m)
    if report.converged:
        return cells, None
    return cells, (f"not converged after {report.iterations} iterations "
                   f"(residual {report.residual:.3e})")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.out, args.seed, args.tol, args.jobs)
    try:
        start_s, stop_s, count_s = args.range.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ConfigError(f"bad sweep range {args.range!r}; expected start:stop:count")
    if count < 1:
        raise ConfigError("empty sweep range")
    values = np.linspace(start, stop, count)

    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(lambda x: _sweep_value(cfg, args.param, float(x)), values))
    else:
        rows = [_sweep_value(cfg, args.param, float(x)) for x in values]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["param,J,residual,s2_defect,modrearr_defect,E,M"]
    for cells, failure in rows:
        lines.append(",".join(_fmt(x) for x in cells))
        if failure:
            print(f"sweep: row {args.param}={cells[0]!r} failed: {failure}", file=sys.stderr)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    converged = sum(1 for _, failure in rows if failure is None)
    print(f"sweep: {converged}/{len(rows)} rows converged -> {out / 'sweep.csv'}")
    return EXIT_OK if converged >= 1 else EXIT_NOT_CONVERGED


def cmd_props(args) -> int:
    result = run_suite(args.suite, args.seed, args.trials)
    for line in result.violations:
        print(f"FAIL {line}")
    status = "ok" if result.passed else "FAILED"
    print(f"props[{result.name}]: {result.checks} checks, "
          f"{len(result.violations)} violations ({status})")
    return EXIT_OK if result.passed else EXIT_PROPERTY


def cmd_sigma(args) -> int:
    cfg = load_config(args.config, args.out, args.seed, args.tol, args.jobs)
    bsym = BoostedSymbol(cfg.symbol, cfg.velocity)
    print(_fmt(dispersion_floor(bsym)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostedwaves",
        description="Boosted ground states of dispersion-generalized NLS: "
                    "solve, rearrange, and verify symmetry properties.",
        epilog=_EXIT_DOC,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--jobs", type=int, default=None, help="parallel solves for sweeps")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")

    p = sub.add_parser("solve", help="minimize the quotient and write Q.gnf/trace.csv/report.txt")
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="symmetry report for a GNF1 field")
    common(p)
    p.add_argument("--field", required=True, help="input GNF1 field file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("rearrange", help="spectral rearrangement of a GNF1 field")
    p.add_argument("--field", required=True)
    p.add_argument("--mode", choices=REARRANGE_MODES, default="axial")
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--output", required=True, help="output GNF1 path")
    p.set_defaults(handler=cmd_rearrange)

    p = sub.add_parser("sweep", help="parameter sweep writing sweep.csv")
    common(p)
    p.add_argument("--param", choices=("v", "omega"), required=True)
    p.add_argument("--range", required=True, help="start:stop:count")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("props", help="run a randomized invariant suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(handler=cmd_props)

    p = sub.add_parser("sigma", help="print the dispersion floor Sigma_v")
    common(p)
    p.set_defaults(handler=cmd_sigma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolatedError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GnfFormatError as exc:
        print(f"field file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DisconnectedSupportError as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
