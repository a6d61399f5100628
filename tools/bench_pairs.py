"""Run the benchmark in alternating pairs: a git ref against the working tree.

    python3 tools/bench_pairs.py REF --workload W[,W2,...] --pairs N --seed S

Extracts ``git archive REF src perfbench`` and a copy of the working tree's
``src/`` and ``perfbench/`` into two sibling directories of a new temporary
directory, ``parent/`` and ``change/``.  Their paths have equal length:
the length of the directory name alone can move cli-sweeps' scaled metrics
by a fifth, since it shifts where the process's arrays land.  Then runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` N times in
each side for each workload named, with T the ``run_seconds`` of
``BENCHMARK.json``.  Pair p runs every workload in the order given, both
sides of one workload back to back, the parent first in odd pairs and the
change first in even ones.  Every result record is kept as
``records/{parent,change}-<workload>-<pair>.json`` in the temporary
directory, which is left in place and named on the last line; nothing is
written outside it.  For each workload and each end-to-end metric of
``BENCHMARK.json`` it prints the parent's and the change's median with
quartiles, the same for the unscaled ``detail.cpu`` value where the record
has one, and the pairs the change won (ties count for neither side).  The
last column says whether the scaled and the unscaled medians moved the same
way ("same"), opposite ways ("opposite"), or one of them did not move
("flat"); a scaled move whose unscaled CPU time moved the other way says
more about the calibration than about the change.  Last, per side, it
prints each run's failed ratio and its calibration ratio, the unscaled
``detail.cpu`` ``items_per_s`` over the scaled one: the calibration
kernel's speed in that run, which takes one of two levels from one process
to the next and moves every scaled metric with it.  Exits 2 when a step
fails.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")     # equal length, so the two paths are too
COPIED = ("src", "perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("ref")
    p.add_argument("--workload", required=True, type=lambda text: text.split(","),
                   help="one workload, or several separated by commas")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def extract(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", ref, *COPIED],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        shutil.copytree(REPO / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_runs"))


def run_once(root: Path, workload: str, seed: int, seconds: float, keep: Path) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    result = root / ".bench_runs" / f"result-{workload}-seed{seed}-trace0.json"
    shutil.copyfile(result, keep)
    with open(keep) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def direction(parent: float, change: float, sign: int) -> int:
    """+1 when the change's value is better, -1 when worse, 0 when equal."""
    return (sign * (change - parent) > 0) - (sign * (change - parent) < 0)


def calibration(record: dict) -> float | None:
    """Unscaled over scaled ``items_per_s`` of one run, or None where the
    record has no unscaled value."""
    cpu = record["detail"].get("cpu", {}).get("items_per_s")
    return None if cpu is None else cpu / record["metrics"]["items_per_s"]["value"]


def report(metrics: list[dict], records: dict) -> None:
    pairs = len(records["parent"])
    print(f"{'metric':22s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s}  "
          f"won  cpu")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        moved = []
        rows = []
        for label, read in ((name, lambda r: r["metrics"][name]["value"]),
                            (f"cpu.{name}", lambda r: r["detail"].get("cpu", {}).get(name))):
            values = {side: [read(r) for r in records[side]] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                continue
            won = sum(direction(p, c, sign) > 0 for p, c in zip(values["parent"], values["change"]))
            cells, medians = [], []
            for side in SIDES:
                q1, q2, q3 = quartiles(values[side])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
                medians.append(q2)
            moved.append(direction(*medians, sign))
            rows.append(f"{label:22s} {cells[0]:>36s} {cells[1]:>36s}  {won}/{pairs}")
        if len(moved) == 2:
            rows[0] += "  " + ("flat" if 0 in moved else "same" if moved[0] == moved[1] else "opposite")
        print("\n".join(rows))
    for side in SIDES:
        ratios = [r["failed_ratio"] for r in records[side]]
        print(f"failed_ratio {side}: {', '.join(f'{x:.6g}' for x in ratios)}")
    for side in SIDES:
        ratios = [calibration(r) for r in records[side]]
        print(f"calibration {side}: "
              f"{', '.join('n/a' if x is None else f'{x:.4g}' for x in ratios)}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(REPO / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    keep = tmp / "records"
    keep.mkdir()
    roots = {side: tmp / side for side in SIDES}
    records = {(side, w): [] for side in SIDES for w in args.workload}
    try:
        extract(args.ref, roots["parent"])
        copy_tree(roots["change"])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    got = run_once(roots[side], workload, args.seed, bench["run_seconds"],
                                   keep / f"{side}-{workload}-{pair + 1}.json")
                    records[side, workload].append(got)
                    print(f"pair {pair + 1} {workload} {side}: "
                          f"{got['metrics']['items_per_s']['value']:.6g} items_per_s", file=sys.stderr)
    except (subprocess.CalledProcessError, OSError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        if getattr(exc, "stderr", None):
            sys.stderr.write(exc.stderr.decode(errors="replace"))
        return 2
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
    for workload in args.workload:
        print(f"{workload}  seed={args.seed}  ref={args.ref}  pairs={args.pairs}  "
              f"parent first in odd pairs")
        report(bench["end_to_end"], {side: records[side, workload] for side in SIDES})
    print(f"records: {keep}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
