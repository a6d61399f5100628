"""The benchmark workloads: seeded inputs, operations and correctness checks.

Each workload is one closed loop: a single thread issues the operations of a
pass in a seeded order, each one only after the previous one returned, and
repeats passes until the run time is up.  An operation is one public call
into the package: one ``netsteer.cli.main(argv)`` command, or one
``line_assemblage`` followed by ``certify_network_steering``.  Every output is
checked against ``reference.py``, never against the package's own ``ok``
flag.  See README.md for why each workload exists and which layers it
stresses.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Tolerances of the checks.
SWAP_TOL = 1e-10          # verify-swap deviation
MODEL_TOL = 1e-10         # NLHS reconstruction and realisation deviation
ASM_TOL = 1e-10           # trace sum, product marginal, closed-form element
WITNESS_TOL = 1e-9        # claims-demo witness value and bound
# The package calls an element entangled only when its *unnormalised*
# negativity exceeds 1e-12.  A missed activation point whose closed-form
# unnormalised negativity is below ten times that cutoff has the signature of
# that known defect; it still counts as failed, but does not make the run
# incorrect.  Any other disagreement does.
ABS_CUTOFF_SIGNATURE = 1e-11

CERTIFIED = "NetworkSteeringCertified"
INCONCLUSIVE = "Inconclusive"

# Axis presets of claims-demo, written out here so the witness bound used by
# the check is computed independently of the package.
CLAIMS_AXES = {
    "zx": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
    "zxy": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
}
# claims-demo calls: (omega range, seeded draws) per axis preset.  The ranges
# straddle each preset's witness bound (1/sqrt(2) for zx, 1/sqrt(3) for zxy)
# and keep 0.01 away from it, so every seed has the same mix of certified
# calls and precondition failures (exit 2).  Certified zx calls are the
# largest group, which puts the median operation (op_p50_s) in the middle of
# one kind of call instead of on the boundary between two.
CLAIMS_DRAWS = {
    "zx": (((0.45, 0.697), 5), ((0.717, 0.98), 24)),
    "zxy": (((0.45, 0.567), 5), ((0.587, 0.98), 6)),
}

# The n=8 activation window around the swap threshold (1/3)^(1/7) = 0.8548.
N8_WINDOW = (0.80, 0.95, 151)

DEW_PARTIES = 13          # 2^11 = 2048 elements per DEW line
DEW_ETA = 0.9
# Fixed rather than seeded: the eigensolver's cost depends on omega by up to
# ~10%, which would show up as seed-to-seed spread.
DEW_OMEGA_CERTIFIED = 0.95           # omega^12 = 0.54 > 1/3: steering certified
DEW_OMEGA_BELOW = 0.86               # omega^12 = 0.16 < 1/3: inconclusive
RANDOM_LINES = 10
RANDOM_PARTIES = 11       # 2^9 = 512 elements per random line
RANDOM_DIM_CYCLE = (2, 3, 4)
RANDOM_SAMPLED_ELEMENTS = 4

BUNDLED_FIXTURES = (
    "sep_loc_sep", "uns_sep_uns", "sep_uns_uns", "uns_uns_sep", "percolation_star_n6",
)
# Repeats per pass.  The Werner case (about 90% of a pass) runs once; the
# bundled fixtures are repeated so that the latency percentiles rest on
# enough samples of each.
FIXTURE_REPEATS = {"percolation_star_n6": 6, "werner_sep_uns": 1}
DEFAULT_FIXTURE_REPEATS = 3

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """Result of checking one operation, in items (see README.md)."""

    items: int
    failed: int = 0
    known: int = 0                      # failures matching the known defect
    problems: list = field(default_factory=list)

    @classmethod
    def broken(cls, items: int, problem: str) -> "Outcome":
        return cls(items, failed=items, problems=[problem])


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    items: int


@dataclass
class Workload:
    name: str
    ops: list            # one pass, in seeded order
    warmup: list         # callables run once before timing, not checked
    min_passes: int


def _cli_call(cli, argv: list) -> Callable[[], tuple]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _consume(path: Path) -> None:
    """Remove an output file once checked, so the next pass cannot pass a
    check on a stale file."""
    path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# cli-sweeps
# --------------------------------------------------------------------------


def _verify_swap_op(cli, workdir: Path) -> Op:
    out = workdir / "swap.csv"
    grid = np.linspace(0.0, 1.0, 21)
    points = [(e, w) for e in grid for w in grid]

    def check(result) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome.broken(len(points), f"verify-swap exit {code}: {err.strip()}")
        rows = _read_csv(out)
        _consume(out)
        if len(rows) != len(points):
            return Outcome.broken(len(points), f"verify-swap wrote {len(rows)} rows")
        failed = 0
        for (eta, omega), row in zip(points, rows):
            on_grid = abs(float(row["eta"]) - eta) <= 1e-15 and abs(float(row["omega"]) - omega) <= 1e-15
            if not on_grid or not float(row["deviation"]) <= SWAP_TOL:
                failed += 1
        problems = [f"verify-swap: {failed} grid points off grid or above {SWAP_TOL}"] if failed else []
        return Outcome(len(points), failed, 0, problems)

    argv = ["verify-swap", "--out", str(out)]
    return Op("verify-swap", _cli_call(cli, argv), check, len(points))


def _activation_op(cli, workdir: Path, n: int, lo: float, hi: float, steps: int) -> Op:
    out = workdir / f"activation-n{n}.csv"
    omegas = np.linspace(lo, hi, steps)

    def check(result) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome.broken(steps, f"activation n={n} exit {code}: {err.strip()}")
        rows = _read_csv(out)
        _consume(out)
        if len(rows) != steps:
            return Outcome.broken(steps, f"activation n={n} wrote {len(rows)} rows")
        failed = known = 0
        for omega, row in zip(omegas, rows):
            eta = (2.0 / 3.0) * (1.0 - omega)
            visibility = omega ** (n - 1)
            expected = eta > 0.0 and visibility > 1.0 / 3.0
            got = row["network_steering"] == "1"
            fine = (
                abs(float(row["omega"]) - omega) <= 1e-15
                and row["source_unsteerable"] == "1"
                and got == expected
            )
            if fine:
                continue
            failed += 1
            missed = row["source_unsteerable"] == "1" and expected and not got
            unnormalised = (eta * eta / 4.0) ** (n - 2) * ref.dew_negativity(eta, visibility)
            if missed and unnormalised <= ABS_CUTOFF_SIGNATURE:
                known += 1
        problems = []
        if failed > known:
            problems.append(f"activation n={n}: {failed - known} points disagree with the closed form")
        return Outcome(steps, failed, known, problems)

    argv = ["activation", "--n", str(n), "--eta-boundary",
            "--omega-min", repr(lo), "--omega-max", repr(hi), "--omega-steps", str(steps),
            "--out", str(out)]
    return Op(f"activation-n{n}", _cli_call(cli, argv), check, steps)


def _claims_op(cli, workdir: Path, index: int, omega: float, preset: str) -> Op:
    out = workdir / f"claims-{index}.json"
    bound = ref.witness_bound(CLAIMS_AXES[preset])
    certifiable = omega > bound

    def check(result) -> Outcome:
        code, _, err = result
        where = f"claims-demo omega={omega:.6f} axes={preset}"
        if not certifiable:
            written = out.exists()
            _consume(out)
            if code != 2 or written:
                return Outcome.broken(1, f"{where}: expected exit 2 and no output, got exit {code}")
            return Outcome(1)
        if code != 0:
            return Outcome.broken(1, f"{where}: exit {code}: {err.strip()}")
        with open(out) as fh:
            doc = json.load(fh)
        _consume(out)
        record = doc["records"][0]
        fine = (
            doc.get("status") == CERTIFIED
            and abs(record["recovered_witness_value"] - omega) <= WITNESS_TOL
            and abs(record["witness_bound"] - bound) <= WITNESS_TOL
        )
        return Outcome(1) if fine else Outcome.broken(1, f"{where}: wrong certificate")

    argv = ["claims-demo", "--omega", repr(omega), "--axes", preset,
            "--format", "json", "--out", str(out)]
    return Op(f"claims-demo-{preset}", _cli_call(cli, argv), check, 1)


def cli_sweeps(seed: int, workdir: Path) -> Workload:
    from netsteer import cli

    rng = np.random.default_rng(seed)
    ops = [
        _verify_swap_op(cli, workdir),
        _activation_op(cli, workdir, 5, 0.0, 1.0, 1001),
        _activation_op(cli, workdir, 8, *N8_WINDOW),
    ]
    for preset, draws in CLAIMS_DRAWS.items():
        for (lo, hi), count in draws:
            for omega in rng.uniform(lo, hi, size=count):
                ops.append(_claims_op(cli, workdir, len(ops), float(omega), preset))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warmup = [
        _cli_call(cli, ["verify-swap", "--eta-steps", "3", "--omega-steps", "3",
                        "--out", str(workdir / "warm.csv")]),
        _cli_call(cli, ["activation", "--n", "3", "--eta-boundary", "--omega-steps", "5",
                        "--out", str(workdir / "warm.csv")]),
    ] + [
        _cli_call(cli, ["claims-demo", "--omega", "0.9", "--axes", preset,
                        "--format", "json", "--out", str(workdir / "warm.json")])
        for preset in CLAIMS_AXES
    ]
    # With five passes the 11th-slowest operation (op_tail_s) is the slowest
    # n=8 activation: ten n=5 activations and verify-swaps lie beyond it.
    return Workload("cli-sweeps", ops, warmup, min_passes=5)


# --------------------------------------------------------------------------
# line-contraction
# --------------------------------------------------------------------------


@dataclass
class _Line:
    """A line in both forms: package objects and reference arrays."""

    net: object
    sources: list
    dims: list
    measurements: list
    dew: tuple = None        # (eta, omega) for DEW lines

    @property
    def n_parties(self) -> int:
        return len(self.sources) + 1


def _dew_line(ns, eta: float, omega: float, n: int) -> _Line:
    src = ns.dew(ns.DEWParams(eta, omega))
    net = ns.LinearNetwork([src] * (n - 1), [ns.bell_swap_povm(3)] * (n - 2))
    sources = [ref.dew(eta, omega)] * (n - 1)
    return _Line(net, sources, [(3, 3)] * (n - 1), [ref.bell_swap(3)] * (n - 2), (eta, omega))


def _random_line(ns, rng: np.random.Generator, n: int, shift: int) -> _Line:
    """Random full-rank sources and two-outcome projective measurements on
    local dimensions cycling through 2, 3, 4.  The dimension profile is fixed
    by ``shift``, so every seed does the same amount of work."""
    local = [RANDOM_DIM_CYCLE[(i + shift) % len(RANDOM_DIM_CYCLE)] for i in range(n)]
    dims = [(local[i], local[i + 1]) for i in range(n - 1)]
    sources = [ref.random_density(rng, a * b) for a, b in dims]
    measurements = [ref.random_two_outcome(rng, local[i + 1] ** 2) for i in range(n - 2)]
    net = ns.LinearNetwork(
        [ns.QOperator(s, d) for s, d in zip(sources, dims)],
        [ns.POVM([ns.QOperator(e, (local[i + 1],) * 2) for e in m])
         for i, m in enumerate(measurements)],
    )
    return _Line(net, sources, dims, measurements)


def _check_line(line: _Line, result, samples: list) -> Outcome:
    asm, verdict = result
    n_out = [len(m) for m in line.measurements]
    items = math.prod(n_out)
    expected_keys = set(itertools.product(*[range(k) for k in n_out]))
    if set(asm.elements) != expected_keys:
        return Outcome.broken(items, f"line n={line.n_parties}: wrong outcome tuples")
    mats = {k: op.matrix for k, op in asm.elements.items()}
    problems = []
    total = sum(np.trace(m).real for m in mats.values())
    if abs(total - 1.0) > ASM_TOL:
        problems.append(f"element traces sum to {total!r}")
    marginal = ref.endpoint_marginals(line.sources, line.dims)
    if np.max(np.abs(sum(mats.values()) - marginal)) > ASM_TOL:
        problems.append("product-marginal invariant broken")
    a, d = line.dims[0][0], line.dims[-1][1]
    if line.dew is not None:
        eta, omega = line.dew
        n = line.n_parties
        success = mats[(0,) * (n - 2)]
        trace = np.trace(success).real
        scale = (eta * eta / 4.0) ** (n - 2)
        if abs(trace - scale) > 1e-9 * scale:
            problems.append(f"all-success trace {trace!r}, closed form {scale!r}")
        elif np.max(np.abs(success / trace - ref.dew(eta, omega ** (n - 1)))) > ASM_TOL:
            problems.append("all-success element differs from DEW(eta, omega^(n-1))")
        expected = CERTIFIED if eta > 0 and omega ** (n - 1) > 1.0 / 3.0 else INCONCLUSIVE
    else:
        for outcome in samples:
            want = ref.line_element(
                line.sources, line.dims, [m[k] for m, k in zip(line.measurements, outcome)]
            )
            if np.max(np.abs(mats[outcome] - want)) > 1e-9 * np.max(np.abs(want)):
                problems.append(f"element {outcome} differs from the reference contraction")
        stack = np.stack(list(mats.values()))
        traces = np.trace(stack, axis1=1, axis2=2).real
        min_evs = ref.min_pt_eigenvalues(stack, a, d)
        if np.any(traces * -min_evs > 1e-9):
            expected = CERTIFIED
        elif np.all(min_evs >= -1e-12):
            expected = INCONCLUSIVE
        else:
            expected = verdict.status     # too close to the cutoff to judge
    if verdict.status != expected:
        problems.append(f"verdict {verdict.status}, reference {expected}")
    if problems:
        return Outcome.broken(items, f"line n={line.n_parties}: " + "; ".join(problems))
    return Outcome(items)


def _line_op(ns, line: _Line, kind: str, samples: list) -> Op:
    def call():
        asm = ns.line_assemblage(line.net)
        return asm, ns.certify_network_steering(asm)

    items = math.prod(len(m) for m in line.measurements)
    return Op(kind, call, lambda result: _check_line(line, result, samples), items)


def line_contraction(seed: int, workdir: Path) -> Workload:
    import netsteer as ns

    rng = np.random.default_rng(seed)
    ops = [
        _line_op(ns, _dew_line(ns, DEW_ETA, DEW_OMEGA_CERTIFIED, DEW_PARTIES), "dew-certified", []),
        _line_op(ns, _dew_line(ns, DEW_ETA, DEW_OMEGA_BELOW, DEW_PARTIES), "dew-below", []),
    ]
    for k in range(RANDOM_LINES):
        line = _random_line(ns, rng, RANDOM_PARTIES, k)
        samples = [tuple(int(b) for b in rng.integers(0, 2, size=RANDOM_PARTIES - 2))
                   for _ in range(RANDOM_SAMPLED_ELEMENTS)]
        ops.append(_line_op(ns, line, "random", samples))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm_lines = [_dew_line(ns, DEW_ETA, DEW_OMEGA_CERTIFIED, 5), _random_line(ns, rng, 5, 0)]
    warmup = [_line_op(ns, line, "warmup", []).call for line in warm_lines]
    # With up to five passes at most ten DEW lines lie beyond the 11th-slowest
    # operation, so op_tail_s is one of the slowest random lines.
    return Workload("line-contraction", ops, warmup, min_passes=3)


# --------------------------------------------------------------------------
# nlhs-resolve
# --------------------------------------------------------------------------


def _nlhs_op(cli, workdir: Path, index: int, name: str, fixture: str, doc: dict) -> Op:
    out = workdir / f"nlhs-{index}.json"
    model_out = workdir / f"model-{index}.json"
    quantum = ref.line_assemblage(*ref.fixture_line(doc))

    def check(result) -> Outcome:
        code, _, err = result
        if code != 0:
            return Outcome.broken(1, f"nlhs {name}: exit {code}: {err.strip()}")
        with open(out) as fh:
            report = json.load(fh)
        with open(model_out) as fh:
            model = json.load(fh)
        _consume(out)
        _consume(model_out)
        problems = ref.model_problems(model)
        if not problems:
            rebuilt = ref.model_assemblage(model)
            if set(rebuilt) != set(quantum):
                problems.append("model outcome tuples differ from the line's")
            elif max(np.max(np.abs(rebuilt[k] - quantum[k])) for k in quantum) > MODEL_TOL:
                problems.append("model does not reproduce the quantum assemblage")
        if not report["max_deviation"] <= MODEL_TOL:
            problems.append(f"reported deviation {report['max_deviation']!r}")
        if not report.get("realization_deviation", math.inf) <= MODEL_TOL:
            problems.append("realisation deviation missing or above tolerance")
        if problems:
            return Outcome.broken(1, f"nlhs {name}: " + "; ".join(problems))
        return Outcome(1)

    argv = ["nlhs", "--fixture", fixture, "--realize", "--model-out", str(model_out),
            "--format", "json", "--out", str(out)]
    return Op(f"nlhs-{name}", _cli_call(cli, argv), check, 1)


def fixture_sources(root: Path) -> dict:
    """name -> (value passed to --fixture, fixture document)."""
    out = {}
    for name in BUNDLED_FIXTURES:
        with open(root / "src" / "netsteer" / "fixtures" / f"{name}.json") as fh:
            out[name] = (name, json.load(fh))
    path = HERE / "fixtures" / "werner_sep_uns.json"
    with open(path) as fh:
        out["werner_sep_uns"] = (str(path), json.load(fh))
    return out


def nlhs_resolve(seed: int, workdir: Path) -> Workload:
    from netsteer import cli

    rng = np.random.default_rng(seed)
    ops = []
    for name, (fixture, doc) in fixture_sources(HERE.parent).items():
        for _ in range(FIXTURE_REPEATS.get(name, DEFAULT_FIXTURE_REPEATS)):
            ops.append(_nlhs_op(cli, workdir, len(ops), name, fixture, doc))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warmup = [_cli_call(cli, [
        "nlhs", "--fixture", "sep_loc_sep", "--realize", "--model-out", str(workdir / "warm-model.json"),
        "--format", "json", "--out", str(workdir / "warm.json")])]
    # With two to ten passes the 11th-slowest operation is a
    # percolation_star_n6 run, behind the Werner runs.  Three passes rather
    # than two: two Werner runs take about 15 s, so the pass count would
    # depend on noise at the default --seconds.
    return Workload("nlhs-resolve", ops, warmup, min_passes=3)


WORKLOADS = {
    "cli-sweeps": cli_sweeps,
    "line-contraction": line_contraction,
    "nlhs-resolve": nlhs_resolve,
}
