"""The grid sweeps against their per-point oracles, field by field and bit
for bit: floats are compared by their bytes (so the sign of a zero counts),
bools and ints by value and type."""

import numpy as np
import pytest

from netsteer import experiments
from netsteer.certificates import (
    BlochData,
    _dew_unsteerable,
    dew_unsteerable_both_ways,
    erased_unsteerable,
)
from netsteer.cli import main
from netsteer.experiments import SweepSpec, run_activation, run_verify_swap
from netsteer.operators import CHECK_BLOCK_BYTES
from netsteer.states import DEWParams

from sweep_oracles import activation_point, swap_deviation

# points per block of a sweep: each holds a 9 x 9 complex source and element
BLOCK_POINTS = CHECK_BLOCK_BYTES // (2 * 81 * 16)


def _same(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, float):
            assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key
        else:
            assert got[key] == value, key


def _check_activation(spec):
    report = run_activation(spec)
    omegas = spec.omegas()
    if spec.eta_boundary:
        assert len(report.records) == len(omegas)
    else:
        assert len(report.records) == len(spec.etas()) * len(omegas)
    for rec in report.records:
        _same(rec, activation_point(spec.n_parties, rec["eta"], rec["omega"]))
    activated = sum(r["network_steering"] and r["source_unsteerable"]
                    and r["source_negativity"] > 0 for r in report.records)
    assert report.extra["activation_points"] == activated
    return report


def _check_swap(spec):
    report = run_verify_swap(spec)
    grid = [(e, w) for e in spec.etas() for w in spec.omegas()]
    assert [(r["eta"], r["omega"]) for r in report.records] == grid
    for rec in report.records:
        _same(rec, {"eta": rec["eta"], "omega": rec["omega"],
                    "deviation": swap_deviation(rec["eta"], rec["omega"])})
    assert report.max_deviation == max(r["deviation"] for r in report.records)
    return report


class TestActivation:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_boundary_sweep_matches_oracle(self, n):
        # omega 0 and 1 (eta 0) are grid points
        report = _check_activation(SweepSpec(omega_range=(0.0, 1.0, 101), n_parties=n,
                                             eta_boundary=True))
        assert report.records[-1]["eta"] == 0.0

    def test_threshold_window_matches_oracle(self):
        _check_activation(SweepSpec(omega_range=(0.80, 0.95, 151), n_parties=8,
                                    eta_boundary=True))

    def test_eta_omega_grid_matches_oracle(self):
        # eta 0 and omega 0 and 1 are grid points
        _check_activation(SweepSpec(n_parties=3))

    def test_one_point(self):
        report = _check_activation(SweepSpec(eta_range=(0.1, 0.1, 1),
                                             omega_range=(0.9, 0.9, 1), n_parties=5))
        assert len(report.records) == 1

    def test_one_point_more_than_a_block(self):
        _check_activation(SweepSpec(omega_range=(0.0, 1.0, BLOCK_POINTS + 1), n_parties=4,
                                    eta_boundary=True))

    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr("netsteer.operators.CHECK_BLOCK_BYTES", 3 * 2 * 81 * 16)
        _check_activation(SweepSpec(eta_range=(0.0, 0.3, 2), omega_range=(0.5, 1.0, 5),
                                    n_parties=6))


class TestVerifySwap:
    def test_grid_matches_oracle(self):
        assert _check_swap(SweepSpec()).ok

    def test_one_point(self):
        report = _check_swap(SweepSpec(eta_range=(0.5, 0.5, 1), omega_range=(0.9, 0.9, 1)))
        assert len(report.records) == 1

    def test_one_point_more_than_a_block(self):
        _check_swap(SweepSpec(eta_range=(0.0, 1.0, 1), omega_range=(0.0, 1.0, BLOCK_POINTS + 1)))

    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr("netsteer.operators.CHECK_BLOCK_BYTES", 3 * 2 * 81 * 16)
        _check_swap(SweepSpec(eta_range=(0.0, 1.0, 3), omega_range=(0.0, 1.0, 4)))

    @pytest.mark.parametrize("where", [1, -1])
    def test_nan_deviation_fails(self, tmp_path, capsys, monkeypatch, where):
        # a NaN after the first point must not be skipped by the maximum
        deviations = experiments._swap_deviations

        def with_nan(etas, omegas):
            devs = deviations(etas, omegas)
            devs[where] = np.nan
            return devs

        monkeypatch.setattr(experiments, "_swap_deviations", with_nan)
        argv = ["verify-swap", "--eta-steps", "2", "--omega-steps", "2"]
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 1
        assert "FAILED" in capsys.readouterr().out
        report = run_verify_swap(SweepSpec(eta_range=(0.0, 1.0, 2), omega_range=(0.0, 1.0, 2)))
        assert not report.ok and np.isnan(report.max_deviation)


class TestDEWUnsteerable:
    @staticmethod
    def _lattice(eta, omega):
        return erased_unsteerable(BlochData(np.zeros(3), -omega * np.eye(3)), eta)[0]

    def test_grid_agrees_with_criterion(self):
        grid = np.linspace(0.0, 1.0, 201)
        etas, omegas = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        stacked = _dew_unsteerable(etas, omegas)
        for eta, omega, verdict in zip(etas.tolist(), omegas.tolist(), stacked.tolist()):
            want = self._lattice(eta, omega)
            assert verdict is want
            assert dew_unsteerable_both_ways(DEWParams(eta, omega)) is want

    def test_boundary_agrees_with_criterion(self):
        omegas = np.linspace(0.0, 1.0, 1001)
        etas = (2.0 / 3.0) * (1.0 - omegas)
        stacked = _dew_unsteerable(etas, omegas)
        assert stacked.all()
        for eta, omega, verdict in zip(etas.tolist(), omegas.tolist(), stacked.tolist()):
            assert verdict is self._lattice(eta, omega)
            assert dew_unsteerable_both_ways(DEWParams(eta, omega)) is verdict
