"""Named experiments behind the CLI: swap-identity verification, the
activation sweep, the input-encoding pipeline demo, and NLHS fixture runs.

Records are listed in grid order.  Parameters are checked before any
computation; an out-of-range one raises ``SpecError``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .operators import DimensionError, QOperator, max_entry_distance
from .measurements import bell_swap_povm
from .network import LinearNetwork, NetworkAssemblage, assemblage_element, line_assemblage
from .states import DEWParams, dew, werner
from .certificates import _endpoint_negativities, claims_pipeline, dew_unsteerable_both_ways
from .nlhs import (RECONSTRUCTION_TOL, build_percolation_line, nlhs_to_separable_realization,
                   reconstruct)
from .nlhs_io import load_fixture, model_to_json

SWAP_TOL = 1e-10
PIPELINE_TOL = 1e-12
_SWAP = bell_swap_povm(3)    # the qutrit-pair swap measurement of every sweep


class SpecError(ValueError):
    """Raised on an out-of-range experiment parameter."""


@dataclass
class SweepSpec:
    eta_range: tuple[float, float, int] = (0.0, 1.0, 21)
    omega_range: tuple[float, float, int] = (0.0, 1.0, 21)
    n_parties: int = 3
    eta_boundary: bool = False   # tie eta to (2/3)(1 - omega) along the sweep

    def __post_init__(self):
        for lo, hi, steps in (self.eta_range, self.omega_range):
            if steps < 1:
                raise SpecError(f"steps must be >= 1, got {steps}")
            if not (0.0 <= lo <= hi <= 1.0):
                raise SpecError(f"range ({lo}, {hi}) must satisfy 0 <= min <= max <= 1")
        if self.n_parties < 3:
            raise SpecError(f"need at least three parties, got {self.n_parties}")

    def etas(self) -> np.ndarray:
        lo, hi, steps = self.eta_range
        return np.linspace(lo, hi, steps)

    def omegas(self) -> np.ndarray:
        lo, hi, steps = self.omega_range
        return np.linspace(lo, hi, steps)


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    records: list
    ok: bool
    max_deviation: float = 0.0
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)


def swap_deviation(eta: float, omega: float) -> float:
    """Max-entry distance between the successful-swap element of two erased
    Werner sources and (eta^2/4) times the squared-visibility state."""
    src = dew(DEWParams(eta, omega))
    net = LinearNetwork([src, src], [_SWAP])
    element = assemblage_element(net, (0,))
    target = dew(DEWParams(eta, omega * omega))
    expected = QOperator(eta * eta / 4.0 * target.matrix, target.dims)
    return max_entry_distance(element, expected)


def run_verify_swap(spec: SweepSpec) -> ExperimentReport:
    start = time.perf_counter()
    grid = [(e, w) for e in spec.etas() for w in spec.omegas()]
    devs = [swap_deviation(e, w) for e, w in grid]
    records = [
        {"eta": e, "omega": w, "deviation": d} for (e, w), d in zip(grid, devs)
    ]
    max_dev = max(devs)
    return ExperimentReport(
        name="verify-swap",
        inputs={"eta_range": spec.eta_range, "omega_range": spec.omega_range},
        records=records,
        ok=max_dev <= SWAP_TOL,
        max_deviation=float(max_dev),
        wall_time=time.perf_counter() - start,
    )


def activation_point(n_parties: int, eta: float, omega: float) -> dict:
    """One grid point of the activation sweep: source certificates plus the
    network-steering certificate on the all-successful-swaps element."""
    src = dew(DEWParams(eta, omega))
    n_src = n_parties - 1
    unsteerable = dew_unsteerable_both_ways(DEWParams(eta, omega))
    net = LinearNetwork([src] * n_src, [_SWAP] * (n_src - 1))
    sigma0 = assemblage_element(net, (0,) * (n_src - 1))
    negs, entangled = _endpoint_negativities(np.stack([src.matrix, sigma0.matrix]), src.dims)
    return {
        "n": n_parties,
        "eta": eta,
        "omega": omega,
        "source_negativity": float(negs[0]),
        "source_unsteerable": bool(unsteerable),
        "swap_visibility": float(omega ** (n_parties - 1)),
        "success_prob": float(sigma0.trace()),
        "sigma0_negativity": float(negs[1]),
        "network_steering": bool(entangled[1]),
    }


def run_activation(spec: SweepSpec) -> ExperimentReport:
    start = time.perf_counter()
    if spec.eta_boundary:
        grid = [((2.0 / 3.0) * (1.0 - w), w) for w in spec.omegas()]
    else:
        grid = [(e, w) for e in spec.etas() for w in spec.omegas()]
    records = [activation_point(spec.n_parties, e, w) for e, w in grid]
    # a reported negativity is a signed zero or above the certifying cutoff
    activated = [
        r for r in records
        if r["network_steering"] and r["source_unsteerable"] and r["source_negativity"] > 0
    ]
    return ExperimentReport(
        name="activation",
        inputs={
            "n": spec.n_parties,
            "eta_range": spec.eta_range,
            "omega_range": spec.omega_range,
            "eta_boundary": spec.eta_boundary,
        },
        records=records,
        ok=True,
        wall_time=time.perf_counter() - start,
        extra={
            "activation_points": len(activated),
            "swap_threshold": (1.0 / 3.0) ** (1.0 / (spec.n_parties - 1)),
        },
    )


AXIS_PRESETS = {
    "zx": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
    "zxy": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
}


def run_claims_demo(omega: float, axes_preset: str = "zx") -> ExperimentReport:
    if not (0.0 <= omega <= 1.0):
        raise SpecError(f"omega must be in [0, 1], got {omega}")
    start = time.perf_counter()
    axes = AXIS_PRESETS[axes_preset]
    verdict, transcript = claims_pipeline(werner(omega), axes)
    max_dev = max(
        transcript["block_identity_deviation"], transcript["round_trip_deviation"]
    )
    return ExperimentReport(
        name="claims-demo",
        inputs={"omega": omega, "axes": axes_preset},
        records=[transcript],
        ok=verdict.certified and max_dev <= PIPELINE_TOL,
        max_deviation=float(max_dev),
        wall_time=time.perf_counter() - start,
        extra={"status": verdict.status},
    )


def _stack_distance(a: NetworkAssemblage, b: NetworkAssemblage) -> float:
    """Largest entry distance between two assemblages over the same outcomes."""
    if (a.outcomes, a.dims) != (b.outcomes, b.dims):
        raise DimensionError("assemblages differ in outcomes or endpoint dims")
    return float(np.max(np.abs(a.matrices - b.matrices)))


def run_nlhs(fixture_path, realize: bool = False) -> ExperimentReport:
    start = time.perf_counter()
    name, slots, net = load_fixture(fixture_path)
    model, transcript = build_percolation_line(slots, net.central_measurements)
    quantum = line_assemblage(net)
    rebuilt = reconstruct(model)
    dev = _stack_distance(rebuilt, quantum)
    extra = {"transcript": transcript, "model": model_to_json(model)}
    ok = dev <= RECONSTRUCTION_TOL
    if realize:
        realization = nlhs_to_separable_realization(model)
        rdev = _stack_distance(line_assemblage(realization.network), rebuilt)
        extra["realization_deviation"] = rdev
        ok = ok and rdev <= RECONSTRUCTION_TOL
        dev = max(dev, rdev)
    return ExperimentReport(
        name=f"nlhs:{name}",
        inputs={"fixture": str(fixture_path), "realize": realize},
        records=[{"reconstruction_deviation": float(dev)}],
        ok=ok,
        max_deviation=float(dev),
        wall_time=time.perf_counter() - start,
        extra=extra,
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(report: ExperimentReport, path) -> None:
    if not report.records:
        raise ValueError("nothing to write")
    fields = list(report.records[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in report.records:
            writer.writerow([_fmt(rec[f]) for f in fields])


def write_json(report: ExperimentReport, path) -> None:
    doc = {
        "experiment": report.name,
        "inputs": report.inputs,
        "ok": report.ok,
        "max_deviation": report.max_deviation,
        "wall_time": report.wall_time,
        "records": report.records,
    }
    doc.update(report.extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
