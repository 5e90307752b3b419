"""The benchmark's workloads: generated configs, one CLI call per op, output checks.

Every op drives ``boostedwaves.cli.main`` in-process, exactly as a user's
``boostedwaves <command>`` would, with ``jobs = 1``.  The workload seed only
draws the solver's ``init_width``; the converged answer does not depend on it
(J agrees to ~1e-15 across widths 0.7 .. 1.5), so the references below are
fixed.  They were computed with ``init_width = 1`` by the package as it was
when this benchmark was added.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Width range for the seeded Gaussian start.  Narrow on purpose: across
# 0.7 .. 1.5 the 3D solve takes 47 .. 51 iterations, which would add a
# seed-driven spread to op time; 0.9 .. 1.1 keeps it to 49 .. 50.
WIDTH_RANGE = (0.9, 1.1)

TOL = 1e-10
J_RTOL = 1e-9
S_MAX = 1e-5  # CLI default gates for s1, s2 and the rearrangement defect
MINKOWSKI_MAX = 0.05  # CLI default Minkowski gate

SWEEP_RANGE = "0:0.8:17"
SWEEP_J = (  # half_wave, N=1024, L=20 pi, omega=1, sigma=1; v = 0, 0.05, .., 0.8
    4.9372076370546996, 4.9263895768588828, 4.8939064782786215, 4.8396709318818658,
    4.7635350308201936, 4.6652868963931091, 4.5446455485379111, 4.4012539134224404,
    4.2346699089504902, 4.0443562144303966, 3.8296714004004642, 3.5898705286826127,
    3.3241353051776188, 3.0316735811569546, 2.7119433610589767, 2.3650339123681143,
    1.9921648159265599,
)


@dataclass(frozen=True)
class Case:
    """One physical problem as the CLI config describes it."""

    symbol: str
    ndim: int
    size: int
    half_length: float
    velocity: str = "0"

    def lattice_bytes(self) -> int:
        """Bytes of one complex128 field on the lattice (computed)."""
        return 16 * self.size**self.ndim

    def config_text(self, width: float) -> str:
        return (
            f"symbol = {self.symbol}\n"
            f"n = {self.ndim}\n"
            f"sizes = {self.size}\n"
            f"L = {self.half_length!r}\n"
            f"v = {self.velocity}\n"
            "omega = 1\n"
            "sigma = 1\n"
            f"tol = {TOL!r}\n"
            f"init_width = {width!r}\n"
            "jobs = 1\n"
        )


@dataclass
class Outcome:
    """Result of checking one op's exit code and output files."""

    ok: bool
    rows: int
    rows_failed: int
    reason: str = ""


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= J_RTOL * abs(ref)


def _report_fields(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def check_solve(code: int, out: Path, j_ref: float) -> Outcome:
    if code != 0:
        return Outcome(False, 1, 1, f"exit code {code}")
    rep = _report_fields(out / "report.txt")
    j, residual = float(rep["J"]), float(rep["residual"])
    if rep["converged"] != "True" or not residual <= TOL:
        return Outcome(False, 1, 1, f"not converged (residual {residual:.3e})")
    if not _close(j, j_ref):
        return Outcome(False, 1, 1, f"J = {j!r}, expected {j_ref!r}")
    return Outcome(True, 1, 0)


def check_verify(code: int, out: Path) -> Outcome:
    # Exit 4 is the known Minkowski false negative of a resolved ground state
    # at 256^2 (defect ~0.28 against the 0.05 gate), not a failed op.
    if code not in (0, 4):
        return Outcome(False, 1, 1, f"exit code {code}")
    with open(out / "symmetry.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    s1, s2 = float(row["s1"]), float(row["s2"])
    if row["connected"] != "1":
        return Outcome(False, 1, 1, "disconnected support")
    if not (s1 <= S_MAX and s2 <= S_MAX):
        return Outcome(False, 1, 1, f"s1 = {s1:.3e}, s2 = {s2:.3e}")
    return Outcome(True, 1, 0)


def check_sweep(code: int, out: Path) -> Outcome:
    if code != 0:
        return Outcome(False, len(SWEEP_J), len(SWEEP_J), f"exit code {code}")
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(SWEEP_J):
        return Outcome(False, len(SWEEP_J), len(SWEEP_J), f"{len(rows)} rows")
    bad = []
    for row, j_ref in zip(rows, SWEEP_J):
        values = [float(x) for x in row.values()]
        finite = all(math.isfinite(x) for x in values)
        if not (finite and float(row["residual"]) <= TOL and _close(float(row["J"]), j_ref)):
            bad.append(row["param"])
    reason = f"rows v={', '.join(bad)} off reference" if bad else ""
    return Outcome(not bad, len(rows), len(bad), reason)


@dataclass(frozen=True)
class Workload:
    """A case, the CLI command each op runs on it, and how to check the op."""

    name: str
    case: Case
    command: str  # "solve", "verify" or "sweep"
    j_ref: float | None = None  # reference J of the solved case

    def draw_width(self, seed: int) -> float:
        return random.Random(f"{self.name}:{seed}").uniform(*WIDTH_RANGE)

    def argv(self, config: Path, out: Path, field: Path | None) -> list[str]:
        args = [self.command, "--config", str(config), "--out", str(out)]
        if self.command == "verify":
            args += ["--field", str(field)]
        elif self.command == "sweep":
            args += ["--param", "v", "--range", SWEEP_RANGE]
        return args

    @property
    def rows(self) -> int:
        """Result rows one op produces."""
        return len(SWEEP_J) if self.command == "sweep" else 1

    def check(self, code: int | None, out: Path, error: str = "") -> Outcome:
        """Check one op from its exit code (None: it raised ``error``) and outputs."""
        if code is None:
            return Outcome(False, self.rows, self.rows, f"raised {error}")
        try:
            if self.command == "solve":
                return check_solve(code, out, self.j_ref)
            if self.command == "verify":
                return check_verify(code, out)
            return check_sweep(code, out)
        except (OSError, KeyError, ValueError) as exc:
            return Outcome(False, self.rows, self.rows, f"unreadable output: {exc!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-2d", Case("fractional; s=1", 2, 256, 8 * math.pi, "0.3"),
                 "verify", j_ref=22.87525270546034),
        Workload("sweep-1d", Case("half_wave", 1, 1024, 20 * math.pi), "sweep"),
        # Runnable by name but not gated in BENCHMARK.json: ~10 ops of ~3 s per
        # run leave its op time too unsteady on a shared 2-CPU machine.
        Workload("solve-3d", Case("fractional; s=1", 3, 64, 6 * math.pi, "0.3"),
                 "solve", j_ref=67.11389144403114),
        # Harness smoke case, not a measured workload: Q = sqrt(2) sech x, J = 16/3.
        Workload("smoke-1d", Case("fractional; s=1", 1, 256, 8 * math.pi), "solve",
                 j_ref=16.0 / 3.0),
    )
}
