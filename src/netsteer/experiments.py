"""Named experiments behind the CLI: swap-identity verification, the
activation sweep, the input-encoding pipeline demo, and NLHS fixture runs.

Records are listed in grid order.  The two sweeps build, check, contract
and certify their grid one ``_blocks`` block of points at a time, each
step on the stack of the block.  Parameters are checked before any
computation; an out-of-range one raises ``SpecError``.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .operators import TOL_CHECK, DimensionError, _blocks, _density_extremes, _psd_screened
from .measurements import bell_swap_povm
from .network import NetworkAssemblage, _contract, _tensors, line_assemblage
from .states import _dew_stack, werner
from .certificates import _dew_unsteerable, _endpoint_negativities, claims_pipeline
from .nlhs import (RECONSTRUCTION_TOL, build_percolation_line, nlhs_to_separable_realization,
                   reconstruct)
from .nlhs_io import _json_text, load_fixture, model_to_json

SWAP_TOL = 1e-10
PIPELINE_TOL = 1e-12
_SUCCESS = bell_swap_povm(3).matrices[:1]   # successful swap of the qutrit pairs of every sweep


class SpecError(ValueError):
    """Raised on an out-of-range experiment parameter."""


@dataclass(frozen=True)
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
    columns: dict           # field name -> list of plain values, in record order
    ok: bool
    max_deviation: float = 0.0
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def records(self) -> list[dict]:
        """One dict per record, its fields in column order."""
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())]


def _grid_blocks(n: int) -> list[slice]:
    """``_blocks`` of n grid points, each point holding its 9 x 9 complex
    source and element, so a sweep's memory does not grow with its grid."""
    return _blocks(n, 2 * 81 * 16)


def _sources(etas: np.ndarray, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The DEW sources of a block of grid points as (G, 3, 3, 3, 3) tensors,
    checked to be density matrices as ``LinearNetwork`` checks a line's,
    and the (G, 2) eigenvalue extremes of that check (``_density_extremes``:
    NaN for the sources its screen proved PSD)."""
    mats = _dew_stack(etas, omegas)
    extremes = _density_extremes(mats, TOL_CHECK)
    if extremes is None:
        raise ValueError("every source must be a density matrix")
    return mats.reshape(-1, 3, 3, 3, 3), extremes


def _swap_deviations(etas: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Max-entry distance, per grid point, between the successful-swap
    element of two erased Werner sources and (eta^2/4) times the
    squared-visibility state."""
    src, _ = _sources(etas, omegas)
    element, _ = _contract([src, src], [_SUCCESS])
    expected = (etas * etas / 4.0)[:, None, None] * _dew_stack(etas, omegas * omegas)
    return np.max(np.abs(element - expected), axis=(1, 2))


def run_verify_swap(spec: SweepSpec) -> ExperimentReport:
    start = time.perf_counter()
    etas, omegas = (g.ravel() for g in np.meshgrid(spec.etas(), spec.omegas(), indexing="ij"))
    devs = np.concatenate([_swap_deviations(etas[b], omegas[b]) for b in _grid_blocks(len(etas))])
    return ExperimentReport(
        name="verify-swap",
        inputs={"eta_range": spec.eta_range, "omega_range": spec.omega_range},
        columns={"eta": etas.tolist(), "omega": omegas.tolist(), "deviation": devs.tolist()},
        # numpy's max and comparison propagate a NaN deviation, wherever it is
        ok=bool(np.all(devs <= SWAP_TOL)),
        max_deviation=float(np.max(devs)),
        wall_time=time.perf_counter() - start,
    )


def _activation_columns(n_parties: int, etas: np.ndarray, omegas: np.ndarray) -> dict:
    """The record fields of a block of activation grid points, one array
    per field in record order: source certificates plus the
    network-steering certificate on the all-successful-swaps element of
    each point's line."""
    n_src = n_parties - 1
    src, src_extremes = _sources(etas, omegas)
    sigma0, _ = _contract([src] * n_src, [_SUCCESS] * (n_src - 1))
    g = len(etas)
    mats = np.concatenate([src.reshape(g, 9, 9), sigma0])
    # sigma0's extremes for the negativity precondition alone: no tolerance
    extremes = np.concatenate([src_extremes, _psd_screened(sigma0, np.inf)])
    negs, entangled = _endpoint_negativities(mats, (3, 3), extremes)
    return {
        "n": np.full(g, n_parties),
        "eta": etas,
        "omega": omegas,
        "source_negativity": negs[:g],
        "source_unsteerable": _dew_unsteerable(etas, omegas),
        # a scalar power per point: numpy's array power rounds differently
        "swap_visibility": np.array([w ** (n_parties - 1) for w in omegas.tolist()]),
        "success_prob": np.trace(sigma0, axis1=1, axis2=2).real,
        "sigma0_negativity": negs[g:],
        "network_steering": entangled[g:],
    }


def run_activation(spec: SweepSpec) -> ExperimentReport:
    start = time.perf_counter()
    if spec.eta_boundary:
        omegas = spec.omegas()
        etas = (2.0 / 3.0) * (1.0 - omegas)
    else:
        etas, omegas = (g.ravel() for g in np.meshgrid(spec.etas(), spec.omegas(), indexing="ij"))
    blocks = [_activation_columns(spec.n_parties, etas[b], omegas[b])
              for b in _grid_blocks(len(etas))]
    columns = {key: np.concatenate([c[key] for c in blocks]) for key in blocks[0]}
    # a reported negativity is a signed zero or above the certifying cutoff
    activated = (columns["network_steering"] & columns["source_unsteerable"]
                 & (columns["source_negativity"] > 0))
    return ExperimentReport(
        name="activation",
        inputs={
            "n": spec.n_parties,
            "eta_range": spec.eta_range,
            "omega_range": spec.omega_range,
            "eta_boundary": spec.eta_boundary,
        },
        # plain Python ints, floats and bools, as the CSV and JSON writers expect
        columns={key: col.tolist() for key, col in columns.items()},
        ok=True,
        wall_time=time.perf_counter() - start,
        extra={
            "activation_points": int(np.count_nonzero(activated)),
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
        columns={key: [value] for key, value in transcript.items()},
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
        # the realised line, outcome tuples in the order of ``rebuilt`` by construction
        realization = nlhs_to_separable_realization(model)
        rows, index = _contract(_tensors([dec.state() for dec in realization.source_decompositions]),
                                [cert.matrices for cert in realization.measurement_certificates])
        rdev = float(np.max(np.abs(rows[index] - rebuilt.matrices)))
        extra["realization_deviation"] = rdev
        ok = ok and rdev <= RECONSTRUCTION_TOL
        dev = max(dev, rdev)
    return ExperimentReport(
        name=f"nlhs:{name}",
        inputs={"fixture": str(fixture_path), "realize": realize},
        columns={"reconstruction_deviation": [float(dev)]},
        ok=ok,
        max_deviation=float(dev),
        wall_time=time.perf_counter() - start,
        extra=extra,
    )


def _cells(column: list) -> list[str]:
    """The CSV cells of a column of values of one kind, the kind of its
    first value: bools as 1 and 0, floats in round-trip ``.17g``, anything
    else as ``str`` gives it."""
    if isinstance(column[0], bool):
        return ["1" if v else "0" for v in column]
    if isinstance(column[0], float):
        return [format(v, ".17g") for v in column]
    return [str(v) for v in column]


def write_csv(report: ExperimentReport, path) -> None:
    if not any(report.columns.values()):
        raise ValueError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        writer.writerows(zip(*map(_cells, report.columns.values())))


def write_json(report: ExperimentReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text({"experiment": report.name, "inputs": report.inputs, "ok": report.ok,
                             "max_deviation": report.max_deviation, "wall_time": report.wall_time,
                             "records": report.records, **report.extra}))
