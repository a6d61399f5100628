"""The grid sweeps against their per-point oracles, field by field and bit
for bit: floats are compared by their bytes (so the sign of a zero counts),
bools and ints by value and type."""

import json
import math

import numpy as np
import pytest
import sympy as sp

from netsteer import experiments
from netsteer.certificates import _dew_unsteerable
from netsteer.cli import main
from netsteer.experiments import SweepSpec, run_activation, run_verify_swap
from netsteer.measurements import bell_swap_povm
from netsteer.network import _contract, _tensors
from netsteer.operators import CHECK_BLOCK_BYTES
from netsteer.states import DEWParams, dew

from exact_oracles import ETA, OMEGA, dew_exact, swap_threshold_exact, symbolic_swap_element
from sweep_oracles import BlochData, activation_point, erased_unsteerable, swap_deviation

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

    def test_boundary_agrees_with_criterion(self):
        omegas = np.linspace(0.0, 1.0, 1001)
        etas = (2.0 / 3.0) * (1.0 - omegas)
        stacked = _dew_unsteerable(etas, omegas)
        assert stacked.all()
        for eta, omega, verdict in zip(etas.tolist(), omegas.tolist(), stacked.tolist()):
            assert verdict is self._lattice(eta, omega)


class TestExactOracles:
    """The swap identity and the activation threshold, exact (sympy) against
    the package's floats."""

    def test_swap_identity_is_exact(self):
        want = ETA**2 / 4 * dew_exact(ETA, OMEGA**2)
        assert (symbolic_swap_element() - want).applyfunc(sp.expand) == sp.zeros(9, 9)

    @pytest.mark.parametrize("eta,omega", [(sp.Rational(1, 2), sp.Rational(1, 3)),
                                           (sp.Rational(9, 10), sp.Rational(19, 20)),
                                           (sp.Rational(4, 5), sp.Rational(7, 10)),
                                           (sp.Rational(2, 9), sp.Rational(2, 3)),
                                           (sp.Integer(1), sp.Integer(1))])
    def test_contraction_matches_exact_swap_element(self, eta, omega):
        exact = symbolic_swap_element().subs({ETA: eta, OMEGA: omega})
        assert exact == (eta**2 / 4 * dew_exact(eta, omega**2)).applyfunc(sp.expand)
        source = dew(DEWParams(float(eta), float(omega)))
        rows, index = _contract(_tensors([source, source]), [bell_swap_povm(3).matrices[:1]])
        got = rows[index[0]]
        assert np.max(np.abs(got - np.array(exact, dtype=float))) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cli_swap_threshold_is_exact(self, n, tmp_path):
        out = tmp_path / "act.json"
        argv = ["activation", "--n", str(n), "--eta-steps", "2", "--omega-steps", "2",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        exact = swap_threshold_exact(n)
        got = json.loads(out.read_text())["swap_threshold"]
        assert abs(sp.Float(got, 40) - sp.N(exact, 40)) <= math.ulp(float(exact))
