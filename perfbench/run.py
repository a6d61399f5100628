"""netsteer benchmark runner.

    python3 perfbench/run.py --workload cli-sweeps --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run reports
the end-to-end metrics of one workload, with ``--trace 1`` the per-layer
metrics from a traced run (see tracing.py).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with provenance, goes to
``.bench_runs/`` at the repository root.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise.  Set before numpy is
# imported (by workloads below).  On a 2-core machine the extra BLAS threads
# gave no wall-clock gain on these small matrices, but their spin-waiting
# added CPU time and run-to-run noise to every CPU-time metric.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
import workloads
from workloads import Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 5
TAIL_BEYOND = 10          # op_tail_s: the highest percentile with 10 samples beyond it
# Nominal CPU time of Calibration.measure().  It only sets the unit of scaled
# times: about what the kernel takes on the 2-core Xeon VM the benchmark was
# built on, outside its CPU's boost bursts.
CALIBRATION_NOMINAL_S = 0.005
END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "netsteer").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, argv) -> dict:
    import netsteer
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "netsteer": getattr(netsteer, "__version__", None),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python_env": {k: os.environ.get(k) for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")},
        "platform": platform.platform(),
        "argv": list(argv),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def import_package() -> None:
    """Import netsteer.cli from SRC and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import netsteer.cli

    where = Path(netsteer.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported netsteer from {where}, not from {SRC}")


class Calibration:
    """A fixed numpy/Python kernel, timed between operations.

    The CPU of a shared host runs at a steady speed with bursts up to ~1.5x
    faster lasting seconds to tens of seconds, which no amount of repetition
    averages out.  ``scale`` converts an operation's CPU time to seconds at
    the kernel's nominal speed, using the kernel's CPU time just before and
    just after the operation.  The kernel is benchmark code, so a change to
    netsteer cannot change it.
    """

    def __init__(self):
        self._sources = [ref.dew(0.9, 0.95)] * 4
        self._effects = [ref.bell_swap(3)[0]] * 3
        self._stack = np.stack([ref.dew(0.9, w) for w in np.linspace(0.1, 0.9, 16)])
        self.restart()

    def restart(self) -> None:
        """Take a fresh 'before' measurement after untimed work."""
        self._last = self.measure()

    def measure(self) -> float:
        start = time.process_time()
        for _ in range(4):
            ref.line_element(self._sources, [(3, 3)] * 4, self._effects)
            ref.min_pt_eigenvalues(self._stack, 3, 3)
        return time.process_time() - start

    def scale(self, cpu: float) -> float:
        """Scale CPU time measured since the previous call or restart."""
        before, self._last = self._last, self.measure()
        return cpu * CALIBRATION_NOMINAL_S / ((before + self._last) / 2.0)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(args, calibration: Calibration) -> tuple:
    """(scaled, raw) median CPU time of fresh interpreters that import
    netsteer.cli and build the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    scaled, raw = [], []
    calibration.restart()
    for _ in range(SETUP_PROBES):
        start = _children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        raw.append(_children_cpu() - start)
        scaled.append(calibration.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Items attempted and failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems = defaultdict(int)

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.items
        self.failed += outcome.failed
        self.known += outcome.known
        for p in outcome.problems:
            self.problems[p] += 1


def run_pass(workload: Workload, calibration: Calibration, tally: Tally, latencies: list) -> float:
    """One pass over the workload's operations; returns the scaled CPU time
    spent in operations.  Each latency is recorded as (kind, scaled CPU s,
    CPU s, wall s).  Checks run between operations, outside the timed region."""
    busy = 0.0
    calibration.restart()
    for op in workload.ops:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except (Exception, SystemExit) as exc:    # a crash is a failed operation
            outcome = Outcome.broken(op.items, f"{op.kind}: {type(exc).__name__}: {exc}")
        else:
            outcome = None
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        scaled = calibration.scale(cpu)
        if outcome is None:
            try:
                outcome = op.check(result)
            except (Exception, SystemExit) as exc:  # unreadable output
                outcome = Outcome.broken(op.items, f"{op.kind}: output unreadable: {type(exc).__name__}: {exc}")
        busy += scaled
        latencies.append((op.kind, scaled, cpu, wall))
        tally.add(outcome)
    return busy


def run_passes(workload: Workload, calibration: Calibration, seconds: float, min_passes: int,
               tally: Tally, latencies: list, tracer=None) -> list:
    """Repeat passes until ``seconds`` of scaled operation time and
    ``min_passes`` passes; the pass count then does not depend on how fast
    the host happens to be."""
    busy = []
    while len(busy) < min_passes or sum(busy) < seconds:
        if tracer is not None:
            tracer.begin_pass()
        busy.append(run_pass(workload, calibration, tally, latencies))
        if tracer is not None:
            tracer.end_pass()
    return busy


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, i.e. the (TAIL_BEYOND+1)-th largest sample."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def warm_up(workload: Workload) -> None:
    for call in workload.warmup:
        call()


def end_to_end(args, workload: Workload, tally: Tally, detail: dict) -> dict:
    calibration = Calibration()
    setup, setup_raw = setup_seconds(args, calibration)
    warm_up(workload)
    latencies = []
    busy = run_passes(workload, calibration, args.seconds, workload.min_passes, tally, latencies)
    items = sum(op.items for op in workload.ops) * len(busy)
    scaled = [x[1] for x in latencies]
    by_kind = defaultdict(list)
    for kind, t, _, _ in latencies:
        by_kind[kind].append(t)
    tail_value, tail_pct = tail(scaled)
    detail.update(passes=len(busy), operations=len(scaled), op_tail_percentile=tail_pct,
                  scaled_median_by_kind={k: statistics.median(v) for k, v in sorted(by_kind.items())})
    for name, column in (("cpu", 2), ("wall_clock", 3)):
        values = [x[column] for x in latencies]
        detail[name] = {"items_per_s": items / sum(values), "op_p50_s": statistics.median(values),
                        "op_tail_s": tail(values)[0]}
    detail["cpu"]["setup_s"] = setup_raw
    return {
        "setup_s": setup,
        "items_per_s": items / sum(busy),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, workload: Workload, tally: Tally, detail: dict) -> dict:
    import tracing

    import_s = tracing.import_seconds(sys.executable, str(SRC), "netsteer.nlhs")
    calibration = Calibration()
    warm_up(workload)
    untraced = run_passes(workload, calibration, args.seconds / 3.0, 1, tally, [])
    tracer = tracing.Tracer()
    tracer.install()
    traced = run_passes(workload, calibration, args.seconds * 2.0 / 3.0, 1, tally, [], tracer)
    metrics = tracer.layer_metrics()
    metrics["nlhs.import_s"] = import_s
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    detail.update(untraced_passes=len(untraced), traced_passes=len(traced))
    spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans, "w") as fh:
        json.dump(tracer.dump(), fh)
    detail["spans_file"] = str(spans.relative_to(ROOT))
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(args, argv) -> int:
    import_package()
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        detail = {}
        if args.trace:
            values = per_layer(args, workload, tally, detail)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        else:
            values = end_to_end(args, workload, tally, detail)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, provenance=provenance(args, argv), detail=detail,
                  failed_ratio=tally.failed / tally.attempted,
                  failed_known_defect=tally.known,
                  problems=dict(list(tally.problems.items())[:20]))
    with open(RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  {json.dumps(detail)}")
    print(f"provenance {json.dumps(record['provenance'])}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "op_tail_percentile" in detail:
        print(f"  op_tail_s is p{detail['op_tail_percentile']:.2f} of {detail['operations']} operations")
    print(f"  correct={result['correct']}  attempted={tally.attempted}  failed={tally.failed}  "
          f"failed_ratio={record['failed_ratio']:.6g}  (known absolute-cutoff defect: {tally.known})")
    for problem, count in record["problems"].items():
        print(f"  problem x{count}: {problem}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(RUNS / f"result-{name}-seed{args.seed}-trace{args.trace}.json") as fh:
            detail = json.load(fh)["detail"]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
            rows.append((name, metric, m["value"], m["unit"]))
        if "op_tail_percentile" in detail:
            rows.append((name, "op_tail_s percentile", detail["op_tail_percentile"],
                         f"of {detail['operations']} operations"))
        rows.append((name, "correct", result["correct"], ""))
        rows.append((name, "failed_ratio", result["failed"] / result["attempted"], ""))
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:18s} {metric:32s} {shown:>14s} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "netsteer" / "__init__.py").is_file():
        print(f"error: no netsteer package under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        import_package()
        workloads.WORKLOADS[args.workload](args.seed, RUNS / "probe")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, argv)


if __name__ == "__main__":
    raise SystemExit(main())
