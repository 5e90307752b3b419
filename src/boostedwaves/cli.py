"""Command-line front end: solve, verify, rearrange, sweep.

Configuration is plain ``key = value`` text with optional ``[section]``
headers.  The table ``KEYS`` holds every key with its parser, its default (or
``REQUIRED``) and its validity check; an unknown, malformed or out-of-range
value is refused with the number of the line it came from.  The flags
``--out`` and ``--tol`` replace their config keys and go through the same
parser and check.  The ``symbol`` value is
``<kind>; name = value; ...``.  This module names no kind: the kinds, their
parameters and the parameters' defaults are read from the table
``symbols.KINDS``, which lists every kind the package has, and the kind's
factory builds the symbol.

All CSV output uses a fixed column order and 17-significant-digit floats, so
the same config reproduces byte-identical files.

``sweep`` solves its rows in order as one continuation (natural-parameter
continuation, Allgower & Georg, *Introduction to Numerical Continuation
Methods*, ch. 2).  The values are equally spaced, so a row starts from the
Newton backward-difference extrapolant Q + ∇Q + ... + ∇^p Q of its newest
converged predecessor Q, which is the Lagrange extrapolant through the last
p + 1 rows.  As in variable-order multistep codes (Shampine & Gordon,
*Computer Solution of Ordinary Differential Equations*, 1975) the order comes
from the differences: ∇Q is always taken, and p grows while each difference
is smaller in norm than the one before, up to ``PREDICTOR_ROWS`` (8) rows.
A sweep keeps that newest row of the difference table, up to eight spectra
(32 MiB at 64^3).  Row 0, and a row after one that failed or did not
converge, starts cold from the Gaussian of width ``init_width``
(:func:`solver.minimize`), and the table restarts with the next converged
row; in a sweep that key sets only these cold starts.
The ``jobs`` key is accepted and checked (>= 1), and nothing reads it.
``--param v`` sets the speed along the config's ``axis``, the
symmetry axis of the row's defects, and the other components to 0.  A row's
J and residual are the solve's own (see :func:`solver.minimize`), and its
defects, energy and mass come from one pass over the returned state
(:func:`verify.sweep_defects`, :func:`fields.energy_mass`).

Exit codes: 0 success, 1 configuration or I/O error, 2 solver did not
converge, 3 disconnected spectral support, 4 a failed ``verify`` gate.
``verify`` builds the config's problem, so its hypotheses are enforced as in
``solve``, and passes when the support is connected, s1, s2 and the
rearrangement defect are within ``verify.DEFECT_MAX`` (1e-5), and the unit
residual of the profile equation is within ``tol``
(:meth:`verify.SymmetryReport.passes`).

``main`` fixes two glibc heap thresholds and caps OpenBLAS at one thread, once
per process (:func:`_fix_process_settings`), so that repeated in-process calls
reuse the pages of their temporaries and no BLAS call competes for the cores.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import ConfigError, GnfFormatError, HypothesisViolatedError
from .fields import Field, Grid, energy_mass, flat_norm, read_gnf, write_gnf
from .rearrange import REARRANGE_MODES, fourier_rearrange
from .solver import Problem, SolveOptions, SolveReport, minimize
from .symbols import KINDS, BoostedSymbol, Symbol
from .verify import DEFECT_MAX, sweep_defects, symmetry_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_DISCONNECTED = 3
EXIT_GATE_FAILED = 4

_EXIT_DOC = (
    "exit codes: 0 ok; 1 config, field or I/O error; 2 solver did not converge; "
    "3 disconnected spectral support; 4 failed verify gate"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# -- configuration ------------------------------------------------------------


class RunConfig(SimpleNamespace):
    """A loaded config: one attribute per key of ``KEYS``, except that ``n``,
    ``sizes`` and ``L`` are held as the ``grid`` they describe."""

    def solve_options(self) -> SolveOptions:
        return SolveOptions(tol=self.tol, max_iter=self.max_iter, init_width=self.init_width)


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
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        pairs[key] = (value.strip(), lineno)
    return pairs


def _scalar(cast, what):
    def parse(name, text, n):
        try:
            return cast(text)
        except ValueError:
            raise ValueError(f"bad {what} for {name!r}: {text!r}") from None
    return parse


def _vector(cast, pad=None):
    """n comma-separated values.  One value fills every axis or, with ``pad``
    given, only the first, the others taking ``pad``."""
    def parse(name, text, n):
        try:
            parts = tuple(cast(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad vector for {name!r}: {text!r}") from None
        if len(parts) == 1:
            return parts * n if pad is None else parts + (pad,) * (n - 1)
        if len(parts) != n:
            raise ValueError(f"{name!r} needs {n} components, got {len(parts)}")
        return parts
    return parse


def _symbol(_, text: str, ndim: int) -> Symbol:
    """``<kind>; name = value; ...`` -> the Symbol the kind's factory builds."""
    name, *pieces = [p.strip() for p in text.split(";")]
    kind = KINDS.get(name)
    if kind is None:
        known = ", ".join(KINDS)
        raise ValueError(f"unknown symbol kind {name!r} (known: {known})")
    given: dict[str, str] = {}
    for piece in filter(None, pieces):
        key, eq, value = (s.strip() for s in piece.partition("="))
        if not eq:
            raise ValueError(f"bad symbol parameter {piece!r}")
        if key in given:
            raise ValueError(f"duplicate symbol parameter {key!r}")
        given[key] = value
    unused = sorted(set(given) - set(kind.params))
    if unused:
        raise ValueError(f"unused symbol parameters {unused}")
    values = {}
    for key, default in kind.params.items():
        raw = given.get(key)
        if raw is None and default is None:
            raise ValueError(f"symbol {name!r} needs parameter {key!r}")
        try:
            values[key] = default if raw is None else float(raw)
        except ValueError:
            raise ValueError(f"bad symbol parameter {key!r}: {raw!r}") from None
    return kind.factory(ndim=ndim, **values)  # ValueError from its own range checks


_int = _scalar(int, "integer")
_float = _scalar(float, "number")

# (valid, rule) pairs shared by several keys
_FINITE = (lambda x, n: math.isfinite(x), "{name} must be finite, got {value}")
_POSITIVE = (lambda x, n: 0.0 < x < math.inf, "{name} must be positive and finite, got {value}")
_COUNT = (lambda k, n: k >= 1, "{name} must be >= 1, got {value}")

REQUIRED = object()  # default of a key the config must give


@dataclass(frozen=True)
class Key:
    """One config key.

    ``parse(name, text, n)`` reads the key's text and raises ValueError with a
    message when it is malformed.  ``default`` is the text used when the key is
    absent, ``REQUIRED`` when it must be given.  ``valid(x, n)`` accepts the
    parsed value, or each component of a vector; ``rule``, formatted with the
    key's name and value, says why a value it refuses is wrong.
    """

    parse: Callable[[str, str, int], object]
    default: object = REQUIRED
    valid: Callable[[object, int], bool] = lambda value, n: True
    rule: str = ""


# Every config key, in the order it is read: ``n`` first, as the vectors and
# the symbol need it.
KEYS = {
    "n": Key(_int, REQUIRED, lambda n, _: 1 <= n <= 3, "n must be 1, 2, or 3"),
    "sizes": Key(_vector(int), REQUIRED,
                 lambda k, _: k >= 8 and k & (k - 1) == 0,
                 "grid sizes must be powers of two >= 8, got {value}"),
    "L": Key(_vector(float), REQUIRED, *_POSITIVE),
    "symbol": Key(_symbol),
    "v": Key(_vector(float, pad=0.0), "0", *_FINITE),
    "omega": Key(_float, REQUIRED, *_FINITE),
    "sigma": Key(_int, REQUIRED, *_COUNT),
    "tol": Key(_float, "1e-10", *_POSITIVE),
    "max_iter": Key(_int, "5000", *_COUNT),
    "init_width": Key(_float, "1", *_POSITIVE),
    "axis": Key(_int, "0", lambda axis, n: 0 <= axis < n, "axis out of range"),
    "out": Key(lambda name, text, n: text, "out"),
    "jobs": Key(_int, "1", *_COUNT),
}


def load_config(path, **flags) -> RunConfig:
    """Read the config file at ``path``.

    Each of ``flags`` is command-line text for a key and replaces the file's
    value.  Every value, from the file, a flag or a default, goes through its
    key's parser and check; an error names the file line the value came from.
    """
    unknown = sorted(flags.keys() - KEYS.keys())
    if unknown:
        raise TypeError(f"unknown config keys {unknown}")
    pairs = _read_pairs(path)
    values: dict[str, object] = {}
    for name, key in KEYS.items():
        n = values.get("n")
        if name in flags:
            text, line = flags[name], None
        elif name in pairs:
            text, line = pairs[name]
        elif key.default is REQUIRED:
            raise ConfigError(f"missing required key {name!r}")
        else:
            text, line = key.default, None
        try:
            value = key.parse(name, text, n)
        except ValueError as exc:
            raise ConfigError(str(exc), line=line) from exc
        parts = value if isinstance(value, tuple) else (value,)
        if not all(key.valid(x, n) for x in parts):
            raise ConfigError(key.rule.format(name=name, value=value), line=line)
        values[name] = value
    del values["n"]
    grid = Grid(values.pop("sizes"), values.pop("L"))
    return RunConfig(grid=grid, **values)


def _config(args) -> RunConfig:
    """The ``--config`` file with the subcommand's key flags laid over it."""
    return load_config(args.config, **{name: value for name, value in vars(args).items()
                                       if name in KEYS and value is not None})


def make_problem(cfg: RunConfig) -> Problem:
    bsym = BoostedSymbol(cfg.symbol, cfg.v)
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
        f"velocity      : {cfg.v}\n"
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


def _symmetry_csv(path, case: str, rep, ndim: int):
    beta_cols = ",".join(f"beta{i}" for i in range(ndim))
    header = f"case,s1,s2,modrearr,connected,unit_residual,alpha,{beta_cols},residual"
    fit = rep.phase
    cells = [
        case,
        _fmt(rep.s1_defect),
        _fmt(rep.s2_defect),
        _fmt(rep.modulus_rearranged_defect),
        "1" if rep.connected else "0",
        _fmt(rep.unit_residual),
        _fmt(fit.alpha if fit else math.nan),
        *(_fmt(b) for b in (fit.beta if fit else (math.nan,) * ndim)),
        _fmt(fit.residual if fit else math.nan),
    ]
    Path(path).write_text(header + "\n" + ",".join(cells) + "\n")


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = _config(args)
    prob = make_problem(cfg)
    report = minimize(prob, opts=cfg.solve_options())
    out = Path(cfg.out)
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


def _grid_text(grid: Grid) -> str:
    return (f"n={grid.ndim} sizes={','.join(map(str, grid.sizes))} "
            f"L={','.join(map(repr, grid.half_lengths))}")


def cmd_verify(args) -> int:
    cfg = _config(args)
    prob = make_problem(cfg)
    f = read_gnf(args.field)
    if f.grid != cfg.grid:
        print(f"verify error: field grid {_grid_text(f.grid)} differs from the config grid "
              f"{_grid_text(cfg.grid)}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rep = symmetry_report(f, prob, axis=cfg.axis)
    except ValueError as exc:  # the zero field, or non-finite values
        print(f"verify error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _symmetry_csv(out / "symmetry.csv", Path(args.field).name, rep, f.grid.ndim)
    if not rep.connected:
        print("verify: spectral support is disconnected", file=sys.stderr)
        return EXIT_DISCONNECTED
    print(f"verify: s1={rep.s1_defect:.3e} s2={rep.s2_defect:.3e} "
          f"modrearr={rep.modulus_rearranged_defect:.3e} "
          f"residual={rep.unit_residual:.3e} connected={rep.connected}")
    return EXIT_OK if rep.passes(cfg.tol) else EXIT_GATE_FAILED


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

    A speed ``value`` is set along ``cfg.axis``.  Returns the row and its
    converged state, None when the row failed.
    """
    if param == "v":  # the speed along the config's symmetry axis
        setting = tuple(value if i == cfg.axis else 0.0 for i in range(cfg.grid.ndim))
    else:
        setting = value
    local = RunConfig(**{**vars(cfg), param: setting})
    try:
        prob = make_problem(local)
        report = minimize(prob, init=init, opts=local.solve_options())
        s2, modrearr = sweep_defects(report.Q, axis=local.axis)
        e, m = energy_mass(report.Q, local.symbol, local.sigma)
    except ValueError as exc:  # HypothesisViolatedError, ZeroFieldError, ...
        return _SweepRow((value,) + (math.nan,) * 6, f"{type(exc).__name__}: {exc}"), None
    cells = (value, report.J_value, report.residual, s2, modrearr, e, m)
    if report.converged:
        return _SweepRow(cells, None, report.iterations), report.Q
    failure = (f"not converged after {report.iterations} iterations "
               f"(residual {report.residual:.3e})")
    return _SweepRow(cells, failure, report.iterations), None


# Converged rows a sweep row's start is extrapolated from, at most: the table
# holds Q and its backward differences of orders 1 to 7.
PREDICTOR_ROWS = 8


def _push_row(table: list[np.ndarray], q: np.ndarray) -> list[np.ndarray]:
    """The difference table after the converged spectrum ``q``.

    ``table`` is the newest row of the backward-difference table,
    Q_(k-1), ∇Q_(k-1), ..., and the result is q, ∇q = q - Q_(k-1),
    ∇^2 q = ∇q - ∇Q_(k-1), ..., cut at ``PREDICTOR_ROWS`` entries: one
    subtraction per order.  Each old difference is overwritten by the new one
    of the next order; ``q`` and the old Q_(k-1), the arrays of solved states,
    are never written.
    """
    row = [q]
    for j, old in enumerate(table[:PREDICTOR_ROWS - 1]):
        row.append(np.subtract(row[-1], old, out=old if j else None))
    return row


def _predictor(grid: Grid, table: list[np.ndarray]) -> Field | None:
    """Start of the next row from the difference table of its converged
    predecessors (:func:`_push_row`); None (cold) when the table is empty.

    The start is the Newton backward-difference extrapolant
    Q + ∇Q + ... + ∇^p Q of the newest row Q, summed from order p down.  ∇Q
    is always taken once two rows exist, and p then grows while each
    difference is smaller in norm than the one before, so at most
    ``PREDICTOR_ROWS`` rows are used.  The rows are equally spaced, so this is
    the Lagrange extrapolant through the last p + 1 of them; p = 2 gives
    3 Q_(k-1) - 3 Q_(k-2) + Q_(k-3) up to rounding.  Where the differences
    grow, as across a coarse step, the order stays low.  The table holds up to
    eight spectra: 32 MiB at 64^3.
    """
    if len(table) < 2:
        return Field.from_spectrum(grid, table[0]) if table else None
    p, size = 1, flat_norm(table[1])
    while p + 1 < len(table) and (nxt := flat_norm(table[p + 1])) < size:
        p, size = p + 1, nxt
    start = table[p] + table[p - 1]
    for diff in reversed(table[:p - 1]):
        start += diff
    return Field.from_spectrum(grid, start)


def cmd_sweep(args) -> int:
    cfg = _config(args)
    try:
        start_s, stop_s, count_s = args.range.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ConfigError(f"bad sweep range {args.range!r}; expected start:stop:count")
    if count < 1:
        raise ConfigError("empty sweep range")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep range bounds must be finite, got {args.range!r}")
    rows: list[_SweepRow] = []
    table: list[np.ndarray] = []  # difference table of the rows converged in a row
    for value in np.linspace(start, stop, count):
        row, q = _sweep_value(cfg, args.param, float(value), _predictor(cfg.grid, table))
        table = _push_row(table, q.spectrum) if q is not None else []
        rows.append(row)

    out = Path(cfg.out)
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


@functools.cache  # once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostedwaves",
        description="Boosted ground states of dispersion-generalized NLS: "
                    "solve, rearrange, and verify symmetry properties.",
        epilog=_EXIT_DOC,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_help = {"out": "output directory", "tol": "solver tolerance"}

    def configured(name, flags, **kwargs):
        """A subcommand that reads --config; each of ``flags`` replaces that config key."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="run configuration file")
        for flag in flags:
            p.add_argument(f"--{flag}", help=f"{flag_help[flag]}; replaces the {flag} key")
        return p

    p = configured("solve", ("out", "tol"),
                   help="minimize the quotient and write Q.gnf/trace.csv/report.txt")
    p.set_defaults(handler=cmd_solve)

    p = configured("verify", ("out",),
                   help="symmetry report for a GNF1 field on the config's grid",
                   description="Exit 0 when the spectral support is connected, s1, s2 "
                               f"and modrearr are at most {DEFECT_MAX:g}, and the unit "
                               "residual of the config's profile equation is within tol; "
                               "exit 3 when the support is disconnected, and 4 when "
                               "another of these gates fails.")
    p.add_argument("--field", required=True, help="input GNF1 field file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("rearrange", help="spectral rearrangement of a GNF1 field")
    p.add_argument("--field", required=True)
    p.add_argument("--mode", choices=REARRANGE_MODES, default="axial")
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--output", required=True, help="output GNF1 path")
    p.set_defaults(handler=cmd_rearrange)

    p = configured(
        "sweep", ("out", "tol"), help="parameter sweep writing sweep.csv",
        description="Solve one row per value of --range, in order. A row starts from "
                    "the Newton extrapolant Q + dQ + ... + d^p Q of the backward "
                    "differences of its last converged rows (Q_(k-1) alone after one): "
                    "dQ is always taken, and the order p grows while each difference "
                    "is smaller in norm than the one before, over at most "
                    f"{PREDICTOR_ROWS} rows, whose spectra the sweep holds. Row 0, and "
                    "a row after a failed or unconverged one, starts cold from the "
                    "Gaussian of width init_width, which sets only these cold starts.",
    )
    p.add_argument("--param", choices=("v", "omega"), required=True,
                   help="the config key each row sets (v: its component along the "
                        "config's axis, the others 0)")
    p.add_argument("--range", required=True,
                   help="start:stop:count; the start may be negative (--range -0.5:1:4)")
    p.set_defaults(handler=cmd_sweep)

    return parser


def _glue_range(argv: list[str]) -> list[str]:
    """``--range V`` -> ``--range=V``: argparse takes a V such as -0.5:1:4 for
    an option and would reject the pair, but reads the glued form as a value."""
    for i, tok in enumerate(argv[:-1]):
        if tok == "--range":
            return argv[:i] + [f"--range={argv[i + 1]}"] + argv[i + 2:]
    return argv


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_OPENBLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"  # in numpy's wheels


def _c_function(library: str | None, name: str, argtypes: tuple, restype):
    """C function ``name`` of the library ``library`` (None: this process), typed, or None."""
    try:
        function = getattr(ctypes.CDLL(library), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


@functools.cache
def _fix_process_settings() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 256 MiB,
    and cap OpenBLAS at one thread.

    glibc serves a block above the mmap threshold (128 KiB at start) with its
    own mapping, whose pages fault in afresh on first touch and go back to the
    system on free.  It raises that threshold, and the trim threshold, only
    after it has freed such a block, so without fixing them the page reuse of
    a process depends on what it happened to run or import before.  A 256^2
    ``verify`` makes temporaries of up to 4 MiB: in a process that only
    verifies, each report mapped about 2,200 fresh pages with the defaults,
    and none with these values.  32 MiB is the largest mmap threshold glibc
    accepts on 64-bit systems.

    glibc gives a thread that meets a locked arena an arena of its own, up to
    8 per core, and each arena keeps its freed blocks under the same
    thresholds.  The number of arenas is left at that default.  The residual
    worker of a symmetry report (:func:`verify.symmetry_report`) works in
    lattice buffers that the calling thread allocates, so only its small
    temporaries go to its own arena, and each thread's heap takes the same
    layout in every report.  Capped at one arena (``M_ARENA_MAX`` 1), the
    worker's small blocks and the calling thread's lattice temporaries
    interleaved in one heap: in 2 of 40 fresh processes the second 256^2
    report mapped 132 fresh pages, against 0 of 40 uncapped, and the
    ``verify`` benchmark peaked at 61.3 to 61.6 MB resident capped and 60.4
    to 60.7 MB uncapped (seven 8 s runs each).  Where the C library has no
    ``mallopt`` (not glibc), nothing is set.

    OpenBLAS runs a product on up to one thread per CPU, while the solver's
    inner products and the two lanes of a symmetry report keep the cores busy
    already.  The fastest of 40 reports on a 512^2 Gaussian took 8.9 to
    19.4 ms (median 12.1 ms, CPU 15 to 21 ms) with the cap and 13.4 to
    19.2 ms (median 17.3 ms, CPU 25 to 39 ms) with two BLAS threads, nine
    processes each (2-CPU machine).  The setter is the one of the BLAS that
    numpy's extension module links; where it has none, nothing is set.

    Only :func:`main` calls this.  A Python caller of :func:`solver.minimize`,
    :func:`verify.symmetry_report` or :func:`verify.phase_affinity` outside
    ``main`` runs under glibc's defaults and OpenBLAS's threads unless it
    calls this once itself.  In a process that read a 256^2 ground state from
    its GNF1 file, the fastest of 20 reports took 4.3 to 6.4 ms under the
    defaults and 2.4 to 2.8 ms with these thresholds, and ``phase_affinity``
    2.6 to 2.9 ms against 1.5 to 1.9 ms (2-CPU machine, one BLAS thread).  A
    solve of the 256^2 state in the same process does not make up for the
    thresholds: the benchmark's verify-2d, which makes that solve during its
    set-up, took 5.46 to 5.99 ms for its fastest op without them and 3.41 to
    3.52 ms with them (medians 5.71 and 3.47 ms, five alternating pairs of
    12 s runs, 2-CPU machine), and peaked at 59.7 MB resident against 60.6 to
    60.7 MB.  sweep-1d, whose arrays of 1,024 points stay below the 128 KiB
    default, read 15.6 to 15.8 ms with them and 15.6 to 16.4 ms without.
    """
    mallopt = _c_function(None, "mallopt", (ctypes.c_int, ctypes.c_int), ctypes.c_int)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    set_threads = _c_function(np._core._multiarray_umath.__file__, _OPENBLAS_SET_THREADS,
                              (ctypes.c_int,), None)
    if set_threads is not None:
        set_threads(1)


def main(argv=None) -> int:
    _fix_process_settings()
    parser = build_parser()
    args = parser.parse_args(_glue_range(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.handler(args)
    except (ConfigError, HypothesisViolatedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GnfFormatError as exc:
        print(f"field file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
