"""Benchmark of the boostedwaves CLI: verify-2d, sweep-1d and solve-3d.

Run from the repository root:

    python3 bench/run.py --workload verify-2d --seed 1 --seconds 45 --trace 0

One process per run, a closed loop of one op at a time (one op = one in-process
``boostedwaves.cli.main`` call), ``jobs = 1``.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones:

* ``op_s_min``    fastest wall seconds of the ops that passed their check;
* ``ok_frac``     ops that passed / ops attempted (1 - failed fraction);
* ``setup_s``     median of several set-ups, each in a fresh process: imports,
                  config generation, the verify-2d ground-state solve and one
                  checked warm-up op;
* ``peak_rss_mb`` peak resident memory of the run's process.

The op time is gated on the fastest op, not the median, because the speed of
a shared 2-CPU machine swings by up to 2x for tens of seconds at a time: over
25 .. 40 s windows of verify-2d ops the median spread (quartile distance over
median) was 0.09 .. 0.6, the minimum's 0.06 .. 0.13.  The median, the highest
percentile with ten samples beyond it, the op count and the failed fraction
are printed on a ``diagnostics`` JSON line before the result, with an
environment echo.

With ``--trace 1`` the ops alternate between traced and plain, and the metrics
are per-layer values per traced op (see ``tracing.py``), plus the tracing
overhead: traced minus plain median op time.  Work files go under
``.bench_run/`` and are removed.
"""

import time

T0 = time.perf_counter()  # the set-up clock starts before any heavy import

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, check_solve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus two fresh ones
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    pass


class Terminated(BaseException):
    """SIGTERM arrived.  Not an ``Exception``, so no op handler swallows it."""


def _terminate(signum, frame):
    # Unwind: subprocess.run kills a running set-up process, and main's
    # finally clause removes the work directory.
    raise Terminated


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)  # work directory
    return p.parse_args(argv)


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "boostedwaves").is_dir():
        raise SetupError(f"no boostedwaves package under {SRC}")
    sys.path.insert(0, str(SRC))
    from boostedwaves import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"boostedwaves imported from {cli.__file__}, not {SRC}")
    return cli


def call_cli(cli, argv):
    """``cli.main(argv)`` with its console output swallowed.

    Returns (exit code, error); the code is None when the call raised.
    ``cli.main`` is looked up at each call, so a traced op goes through its hook.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), ""
        except SystemExit as exc:  # argparse rejected the arguments
            return (exc.code if isinstance(exc.code, int) else 1), ""
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"


class Op:
    """One CLI call of a workload on its generated config; the output is checked."""

    def __init__(self, cli, workload, config, field, work):
        self.cli = cli
        self.workload = workload
        self.out = work / "op"
        self.argv = workload.argv(config, self.out, field)

    def prepare(self):
        """Remove the last op's outputs, so a check never reads stale files."""
        shutil.rmtree(self.out, ignore_errors=True)

    def __call__(self):
        return call_cli(self.cli, self.argv)

    def check(self, result):
        code, error = result
        return self.workload.check(code, self.out, error)


def setup(workload, seed, work):
    """Generate the config, solve the verify-2d ground state, run one warm-up op."""
    cli = import_cli()
    config = work / "case.cfg"
    config.write_text(workload.case.config_text(workload.draw_width(seed)))
    field = None
    if workload.command == "verify":
        ground = work / "ground"
        code, error = call_cli(cli, ["solve", "--config", str(config), "--out", str(ground)])
        outcome = check_solve(code, ground, workload.j_ref)
        if not outcome.ok:
            raise SetupError(f"ground-state solve failed: {outcome.reason} {error}")
        field = ground / "Q.gnf"
    op = Op(cli, workload, config, field, work)
    op.prepare()
    outcome = op.check(op())
    if not outcome.ok:
        raise SetupError(f"warm-up op failed: {outcome.reason}")
    return op


def setup_in_fresh_processes(args, work, count):
    """Set-up seconds of ``count`` fresh processes, run one after another.

    Each works in a directory under ``work``, so their files go with it.
    """
    samples = []
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--setup-only", str(work / f"setup-{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(op, seconds, tracer=None):
    """Closed loop of ops for ``seconds`` (at least one op).

    Returns a list of (wall seconds, outcome, traced).  With a tracer, every
    other op runs traced, starting with the first.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        traced = tracer is not None and len(runs) % 2 == 0
        op.prepare()
        if traced:
            result, dt = tracer.run(op)
        else:
            t0 = time.perf_counter()
            result = op()
            dt = time.perf_counter() - t0
        outcome = op.check(result)
        if traced:
            tracer.record_rows(outcome.rows, outcome.rows_failed)
        runs.append((dt, outcome, traced))
    return runs


def tail(times):
    """Highest percentile with at least ten samples beyond it, and its value."""
    for p in TAIL_PERCENTILES:
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100)[p - 1]
    return None, None


def llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except OSError:
        return None
    return int(out) if out.isdigit() else None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "lattice_bytes_computed": {name: w.case.lattice_bytes() for name, w in WORKLOADS.items()},
        "llc_bytes": llc_bytes(),
    }


def run(args, work):
    workload = WORKLOADS[args.workload]
    op = setup(workload, args.seed, work)
    own_setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import EXACT_COUNTS, Tracer

        tracer = Tracer()
        setup_samples = [own_setup_s]
    else:
        setup_samples = [own_setup_s] + setup_in_fresh_processes(args, work, SETUP_SAMPLES - 1)

    runs = measure(op, args.seconds, tracer)
    failures = [o.reason for _, o, _ in runs if not o.ok]
    good = [dt for dt, o, _ in runs if o.ok] or [dt for dt, _, _ in runs]
    percentile, tail_s = tail(good)
    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "init_width": workload.draw_width(args.seed),
        "ops": len(runs),
        "op_s_each": [round(dt, 4) for dt, _, _ in runs],
        "op_s_p50": {"value": statistics.median(good), "unit": "s"},
        "failed_frac": {"value": len(failures) / len(runs), "unit": "ratio"},
        "failures": sorted(set(failures)),
        "tail_percentile": percentile,
        "tail_op_s": {"value": tail_s, "unit": "s"},
        "setup_samples_s": setup_samples,
        "environment": environment(),
    }
    if tracer is None:
        metrics = {
            "op_s_min": {"value": min(good), "unit": "s"},
            "ok_frac": {"value": 1.0 - len(failures) / len(runs), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        traced = [dt for dt, _, traced in runs if traced]
        plain = [dt for dt, o, traced in runs if o.ok and not traced]
        metrics = tracer.metrics(traced, plain)
        diagnostics["traced_ops"] = tracer.ops
        diagnostics["absent_layer_metrics"] = tracer.absent_metrics()
        diagnostics["absent_hooks"] = tracer.absent
        diagnostics["exact_counts"] = {name: metrics[name]["value"] for name in EXACT_COUNTS}
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }))


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    runs_dir = ROOT / ".bench_run"
    work = Path(args.setup_only or runs_dir / f"{args.workload}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    try:
        run(args, work)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            runs_dir.rmdir()  # only once no other run uses it
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
