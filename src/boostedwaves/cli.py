"""Command-line front end: solve, verify, rearrange, sweep, props, sigma.

Configuration is plain ``key = value`` text with optional ``[section]``
headers; parsing failures carry the offending line number.  The ``symbol``
value is ``<kind>; name = value; ...``.  This module names no kind: the kinds,
their parameters and the parameters' defaults are read from the table
``symbols.KINDS`` (a kind built from a Python callable cannot be configured),
and the kind's factory builds the symbol.

All CSV output uses a fixed column order and 17-significant-digit floats so
identical config plus seed reproduces byte-identical files.

``sweep`` walks its values in consecutive chains of ``SWEEP_CHAIN`` rows and
continues each solve from its neighbours (natural-parameter continuation,
Allgower & Georg, *Introduction to Numerical Continuation Methods*, ch. 2).
A row whose two predecessors in the chain converged starts from the secant
predictor 2 Q_{k-1} - Q_{k-2}, a row with one from Q_{k-1}.  A chain head, and
a row after one that failed or did not converge, starts cold from the
Gaussian set by ``init_width`` and ``init_phase``; in a sweep those keys set
only these cold starts.  ``--jobs`` solves whole chains in parallel.  The
split depends only on the row index, so ``sweep.csv`` does not depend on
``--jobs``.

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
from .symbols import KINDS, BoostedSymbol, Symbol, dispersion_floor
from .verify import symmetry_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_DISCONNECTED = 3
EXIT_PROPERTY = 4

SWEEP_CHAIN = 6  # sweep rows per continuation chain

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
    """``<kind>; name = value; ...`` -> the Symbol the kind's factory builds."""
    name, *pieces = [p.strip() for p in text.split(";")]
    kind = KINDS.get(name)
    if kind is None or kind.params is None:
        known = ", ".join(k for k, row in KINDS.items() if row.params is not None)
        raise ConfigError(f"unknown symbol kind {name!r} (known: {known})", line=lineno)
    given: dict[str, str] = {}
    for piece in filter(None, pieces):
        key, eq, value = piece.partition("=")
        if not eq:
            raise ConfigError(f"bad symbol parameter {piece!r}", line=lineno)
        given[key.strip()] = value.strip()
    unused = sorted(set(given) - set(kind.params))
    if unused:
        raise ConfigError(f"unused symbol parameters {unused}", line=lineno)
    values = {}
    for key, default in kind.params.items():
        raw = given.get(key)
        if raw is None and default is None:
            raise ConfigError(f"symbol {name!r} needs parameter {key!r}", line=lineno)
        try:
            values[key] = default if raw is None else float(raw)
        except ValueError:
            raise ConfigError(f"bad symbol parameter {key!r}: {raw!r}", line=lineno)
    try:
        return kind.factory(ndim=ndim, **values)
    except ValueError as exc:  # the factory's own range checks
        raise ConfigError(str(exc), line=lineno) from exc


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
        raise ConfigError("axis out of range", line=pairs["axis"][1])
    if not 0.0 < cfg.tau < 1.0:
        raise ConfigError(f"tau must lie in (0, 1), got {cfg.tau!r}", line=pairs["tau"][1])
    if cfg.jobs < 1:
        line = pairs["jobs"][1] if jobs_override is None else None
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}", line=line)
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
    try:
        g = fourier_rearrange(f, args.mode, axis=args.axis)
    except ValueError as exc:  # an axis or mode the field's dimension cannot take
        print(f"rearrange error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_gnf(args.output, g)
    print(f"rearrange: wrote {args.output}")
    return EXIT_OK


@dataclass
class _SweepRow:
    cells: tuple[float, ...]
    failure: str | None  # why the row failed; None when it converged
    iterations: int = 0


def _sweep_value(cfg: RunConfig, param: str, value: float,
                 init: Field | None = None) -> tuple[_SweepRow, Field | None]:
    """Solve one sweep row, from ``init`` or, when it is None, cold.

    Returns the row and its converged state, None when the row failed.
    """
    if param == "v":
        velocity = (value,) + (0.0,) * (cfg.grid.ndim - 1)
        local = replace(cfg, velocity=velocity)
    else:
        local = replace(cfg, omega=value)
    try:
        prob = make_problem(local)
        opts = SolveOptions(tol=local.tol, max_iter=local.max_iter,
                            init_width=local.init_width, init_phase=local.init_phase)
        report = minimize(prob, init=init, opts=opts)
        rep = symmetry_report(report.Q, axis=local.axis, sigma=local.sigma, tau=local.tau)
        e, m = energy_mass(report.Q, local.symbol, local.sigma)
    except ValueError as exc:  # HypothesisViolatedError, ZeroFieldError, ...
        return _SweepRow((value,) + (math.nan,) * 6, f"{type(exc).__name__}: {exc}"), None
    cells = (value, report.J_value, report.residual, rep.s2_defect,
             rep.modulus_rearranged_defect, e, m)
    if report.converged:
        return _SweepRow(cells, None, report.iterations), report.Q
    failure = (f"not converged after {report.iterations} iterations "
               f"(residual {report.residual:.3e})")
    return _SweepRow(cells, failure, report.iterations), None


def _sweep_chain(cfg: RunConfig, param: str, values) -> list[_SweepRow]:
    """One continuation chain: each row starts from its converged predecessors."""
    rows: list[_SweepRow] = []
    done: list[Field] = []  # the last one or two states, converged in a row
    for value in values:
        if len(done) == 2:  # secant predictor 2 Q_{k-1} - Q_{k-2}
            init = Field.from_spectrum(cfg.grid, 2.0 * done[1].spectrum - done[0].spectrum)
        else:
            init = done[0] if done else None
        row, q = _sweep_value(cfg, param, float(value), init)
        done = (done + [q])[-2:] if q is not None else []
        rows.append(row)
    return rows


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
    chains = [values[i:i + SWEEP_CHAIN] for i in range(0, count, SWEEP_CHAIN)]

    def solve_chain(chain):
        return _sweep_chain(cfg, args.param, chain)

    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = [row for chain in pool.map(solve_chain, chains) for row in chain]
    else:
        rows = [row for chain in chains for row in solve_chain(chain)]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["param,J,residual,s2_defect,modrearr_defect,E,M"]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row.cells))
        if row.failure:
            print(f"sweep: row {args.param}={row.cells[0]!r} failed: {row.failure}",
                  file=sys.stderr)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    converged = sum(1 for row in rows if row.failure is None)
    iterations = sum(row.iterations for row in rows)
    print(f"sweep: {converged}/{len(rows)} rows converged, {iterations} iterations "
          f"-> {out / 'sweep.csv'}")
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
        p.add_argument("--jobs", type=int, default=None, help="sweep chains solved in parallel (>= 1)")
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

    p = sub.add_parser(
        "sweep", help="parameter sweep writing sweep.csv",
        description="Solve one row per value of --range, in consecutive chains of "
                    f"{SWEEP_CHAIN} rows. A row starts from the secant predictor "
                    "2 Q_(k-1) - Q_(k-2) of its two converged predecessors in the chain, "
                    "or from Q_(k-1) when only one converged; a chain head, and a row after "
                    "a failed or unconverged one, starts cold from init_width/init_phase, "
                    "which set only these cold starts. --jobs solves chains in parallel; "
                    "sweep.csv does not depend on it.",
    )
    common(p)
    p.add_argument("--param", choices=("v", "omega"), required=True)
    p.add_argument("--range", required=True,
                   help="start:stop:count; the start may be negative (--range -0.5:1:4)")
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


def _glue_range(argv: list[str]) -> list[str]:
    """``--range V`` -> ``--range=V``: argparse takes a V such as -0.5:1:4 for
    an option and would reject the pair, but reads the glued form as a value."""
    for i, tok in enumerate(argv[:-1]):
        if tok == "--range":
            return argv[:i] + [f"--range={argv[i + 1]}"] + argv[i + 2:]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_range(list(sys.argv[1:] if argv is None else argv)))
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
