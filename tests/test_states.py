import numpy as np
import pytest

from netsteer.operators import (
    QOperator,
    is_density,
)
from netsteer.experiments import SweepSpec
from netsteer.states import (
    DEWParams,
    _dew_stack,
    classical_correlated,
    dew,
    psi_minus,
    werner,
)

from conftest import hermitian_eigenvalues, max_entry_distance, partial_trace, rand_density, tensor
from sweep_oracles import Channel, apply_channel, dew_channels, dew_kraus_stack, erasure_channel


def _grid(spec):
    """The (eta, omega) points of a sweep spec's grid, in the sweeps' order."""
    return tuple(g.ravel() for g in np.meshgrid(spec.etas(), spec.omegas(), indexing="ij"))


def _boundary(spec):
    """The points eta = (2/3)(1 - omega) of a sweep spec's visibilities."""
    omegas = spec.omegas()
    return (2.0 / 3.0) * (1.0 - omegas), omegas


def _dew_stack_inputs():
    """(etas, omegas) of the stacks the sweeps build and of edge cases."""
    etas, omegas = _grid(SweepSpec())
    uniform = np.random.default_rng(20211).uniform(size=(2, 20000))
    cases = {
        "verify-swap-grid": (etas, omegas),
        "verify-swap-expected": (etas, omegas * omegas),
        "activation-boundary": _boundary(SweepSpec(omega_range=(0.0, 1.0, 1001))),
        "activation-n8-window": _boundary(SweepSpec(omega_range=(0.80, 0.95, 151))),
        "corners": _grid(SweepSpec(eta_range=(0.0, 1.0, 2), omega_range=(0.0, 1.0, 2))),
        "uniform": (uniform[0], uniform[1]),
        "one-point": (np.array([0.35]), np.array([0.8])),
        # eta * (omega / 2) underflows: a -0 product must come out +0
        "underflow": (np.array([1e-170]), np.array([0.5])),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


def dew_block_oracle(eta, omega):
    """Independent construction of the doubly-erased Werner state.

    Written out block by block: the surviving two-qubit Werner block at
    weight eta^2, the two one-sided-loss blocks carrying the maximally
    mixed marginal at weight eta(1 - eta) each, and the double-loss flag.
    """
    w = werner(omega).matrix
    embed = np.zeros((3, 2), dtype=complex)
    embed[:2, :] = np.eye(2)
    ww = np.kron(embed, embed) @ w @ np.kron(embed, embed).conj().T
    flag = np.zeros((3, 3), dtype=complex)
    flag[2, 2] = 1.0
    half = np.zeros((3, 3), dtype=complex)
    half[:2, :2] = np.eye(2) / 2
    mat = (
        eta * eta * ww
        + eta * (1 - eta) * (np.kron(half, flag) + np.kron(flag, half))
        + (1 - eta) * (1 - eta) * np.kron(flag, flag)
    )
    return QOperator(mat, [3, 3])


class TestBasicStates:
    def test_psi_minus_is_pure(self):
        p = psi_minus()
        assert abs(np.trace(p.matrix) - 1.0) < 1e-12
        assert np.allclose(p.matrix @ p.matrix, p.matrix)

    def test_psi_minus_entries(self):
        m = psi_minus().matrix
        assert m[1, 1] == pytest.approx(0.5)
        assert m[2, 2] == pytest.approx(0.5)
        assert m[1, 2] == pytest.approx(-0.5)
        assert m[2, 1] == pytest.approx(-0.5)

    def test_werner_extremes(self):
        assert max_entry_distance(werner(0.0), QOperator(np.eye(4) / 4, [2, 2])) == 0
        assert max_entry_distance(werner(1.0), psi_minus()) == 0

    def test_werner_is_density(self):
        for w in (0.0, 0.3, 0.7, 1.0):
            assert is_density(werner(w))

    def test_werner_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner(1.5)

    def test_classical_correlated(self):
        cc = classical_correlated(3)
        assert cc.dims == (3, 3)
        assert is_density(cc)
        # only |xx><xx| entries populated
        for x in range(3):
            assert cc.matrix[x * 3 + x, x * 3 + x] == pytest.approx(1 / 3)
        assert np.count_nonzero(cc.matrix) == 3

    def test_classical_correlated_rejects_small_d(self):
        with pytest.raises(ValueError):
            classical_correlated(1)


class TestChannels:
    def test_channel_validates_completeness(self):
        with pytest.raises(ValueError):
            Channel([np.eye(2) * 0.5])

    def test_channel_validates_shapes(self):
        with pytest.raises(ValueError):
            Channel([np.eye(2), np.zeros((3, 2))])

    def test_erasure_action_oracle(self, rng):
        # Lambda_eta(rho) = eta * embed(rho) + (1 - eta) |2><2|
        eta = 0.37
        ch = erasure_channel(eta, 2)
        rho = rand_density(rng, [2])
        out = apply_channel(ch, rho, 0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = eta * rho.matrix
        expected[2, 2] = 1 - eta
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_erasure_extremes(self, rng):
        rho = rand_density(rng, [2])
        kept = apply_channel(erasure_channel(1.0), rho, 0)
        assert np.allclose(kept.matrix[:2, :2], rho.matrix)
        lost = apply_channel(erasure_channel(0.0), rho, 0)
        assert lost.matrix[2, 2] == pytest.approx(1.0)

    def test_apply_channel_targets_one_factor(self, rng):
        rho = rand_density(rng, [2])
        tau = rand_density(rng, [2])
        ch = erasure_channel(0.6)
        out = apply_channel(ch, tensor(rho, tau), 1)
        assert out.dims == (2, 3)
        # the untouched factor's marginal is preserved
        assert max_entry_distance(partial_trace(out, keep=[0]), rho) < 1e-12

    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_apply_channel_matches_kraus_definition(self, rng, factor):
        # sum_k (1 (x) K_k (x) 1) rho (1 (x) K_k (x) 1)^dag with Kraus
        # operators cut from a random isometry, on each factor of a 3-factor state
        dims = [2, 3, 2]
        d_in, d_out, n_kraus = dims[factor], 4, 3
        g = rng.normal(size=(n_kraus * d_out, d_in)) + 1j * rng.normal(size=(n_kraus * d_out, d_in))
        iso, _ = np.linalg.qr(g)
        kraus = [iso[k * d_out:(k + 1) * d_out] for k in range(n_kraus)]
        rho = rand_density(rng, dims)
        out = apply_channel(Channel(kraus), rho, factor)
        eye_l = np.eye(int(np.prod(dims[:factor])))
        eye_r = np.eye(int(np.prod(dims[factor + 1:])))
        full = [np.kron(np.kron(eye_l, k), eye_r) for k in kraus]
        expected = sum(f @ rho.matrix @ f.conj().T for f in full)
        assert out.dims == tuple(dims[:factor] + [d_out] + dims[factor + 1:])
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_apply_channel_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_channel(erasure_channel(0.5, 2), rand_density(rng, [3]), 0)


class TestDEW:
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("omega", [0.0, 1 / 3, 0.7, 1.0])
    def test_matches_block_oracle(self, eta, omega):
        state = dew(DEWParams(eta, omega))
        assert max_entry_distance(state, dew_block_oracle(eta, omega)) < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.9, 1.0])
    @pytest.mark.parametrize("omega", [0.0, 1 / 3, 0.7, 1.0])
    def test_matches_channel_oracle_bit_for_bit(self, eta, omega):
        # the sweep oracles build their sources through the channel oracle
        state = dew(DEWParams(eta, omega))
        assert state.matrix.tobytes() == dew_channels(eta, omega).matrix.tobytes()

    @pytest.mark.parametrize("etas,omegas", _dew_stack_inputs())
    def test_stack_matches_kraus_einsum_bit_for_bit(self, etas, omegas):
        # the direct block build against the erasure einsum it replaced
        stack = _dew_stack(etas, omegas)
        assert stack.shape == (len(etas), 9, 9)
        assert stack.tobytes() == dew_kraus_stack(etas, omegas).tobytes()

    def test_is_density(self):
        assert is_density(dew(DEWParams(0.4, 0.8)))

    def test_full_loss_is_double_flag(self):
        state = dew(DEWParams(0.0, 0.5))
        assert state.matrix[8, 8] == pytest.approx(1.0)
        assert np.trace(state.matrix).real == pytest.approx(1.0)

    def test_dew_params_validated(self):
        with pytest.raises(ValueError):
            DEWParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            DEWParams(0.5, 1.1)

    def test_qubit_block_is_scaled_werner(self):
        eta, omega = 0.6, 0.8
        state = dew(DEWParams(eta, omega))
        idx = [0, 1, 3, 4]
        block = state.matrix[np.ix_(idx, idx)]
        assert np.max(np.abs(block - eta * eta * werner(omega).matrix)) < 1e-12

    def test_spectrum_nonnegative(self):
        evs = hermitian_eigenvalues(dew(DEWParams(0.3, 0.9)))
        assert evs[0] >= -1e-12
