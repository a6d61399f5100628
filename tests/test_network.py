import importlib.resources
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsteer import certificates, network
from netsteer.certificates import (
    CERTIFIED,
    INCONCLUSIVE,
    _endpoint_negativities,
    certify_network_steering,
)
from netsteer.experiments import AXIS_PRESETS
from netsteer.measurements import (
    POVM,
    bell_swap_povm,
    computational_basis_povm,
    pauli_projective,
)
from netsteer.network import (
    LinearNetwork,
    NetworkAssemblage,
    _contract,
    _distinct,
    _step,
    _tensors,
    condition_on_trusted_measurement,
    lift_inputless_to_conditional,
    line_assemblage,
    standard_assemblage,
    untrusted_input_to_outcome,
)
from netsteer.nlhs_io import load_fixture
from netsteer.operators import (
    CHECK_BLOCK_BYTES,
    NEG_CUTOFF,
    PAULI_Z,
    DimensionError,
    QOperator,
    basis_ket,
    projector,
)
from netsteer.states import DEWParams, dew, psi_minus, werner

from conftest import (
    apply_and_trace,
    assemblage_of,
    brute_force_assemblage,
    einsum_step,
    max_entry_distance,
    partial_trace,
    rand_density,
    rand_psd,
    rand_unit_vector,
    random_linear_network,
    spectra,
    spectral_extremes,
    tensor,
    unmerged_contract,
)
from sweep_oracles import assemblage_element


class TestLinearNetworkValidation:
    def test_needs_two_sources(self):
        with pytest.raises(ValueError):
            LinearNetwork([werner(0.5)], [])

    def test_measurement_count(self):
        with pytest.raises(ValueError):
            LinearNetwork([werner(0.5), werner(0.5)], [])

    def test_measurement_dims_must_match(self):
        with pytest.raises(ValueError):
            LinearNetwork([werner(0.5), werner(0.5)], [bell_swap_povm(3)])

    def test_sources_must_be_densities(self):
        bad = QOperator(np.eye(4), [2, 2])
        with pytest.raises(ValueError):
            LinearNetwork([bad, werner(0.5)], [bell_swap_povm(2)])

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_density_source_at(self, rng, position):
        # sources of three shapes along one line: (2, 2), (2, 3), (3, 2)
        dims = [(2, 2), (2, 3), (3, 2)]
        sources = [rand_density(rng, d) for d in dims]
        central = [bell_swap_povm(2), bell_swap_povm(3)]
        LinearNetwork(sources, central)
        j = 0 if position == "first" else -1
        diag = np.zeros(int(np.prod(dims[j])))
        diag[:2] = [1.5, -0.5]
        sources[j] = QOperator(np.diag(diag), dims[j])
        with pytest.raises(ValueError, match="density matrix"):
            LinearNetwork(sources, central)

    def test_properties(self):
        net = LinearNetwork([werner(0.5)] * 3, [bell_swap_povm(2)] * 2)
        assert net.endpoint_dims == (2, 2)


class TestLineAssemblage:
    def test_two_singlets_swap_oracle(self):
        # frozen oracle: perfect entanglement swapping projects the
        # endpoints onto the singlet with probability 1/4
        net = LinearNetwork([werner(1.0), werner(1.0)], [bell_swap_povm(2)])
        asm = line_assemblage(net)
        elem = asm.elements[(0,)]
        assert abs(np.trace(elem.matrix).real - 0.25) < 1e-12
        assert max_entry_distance(
            elem, QOperator(psi_minus().matrix / 4, (2, 2))
        ) < 1e-12

    def test_matches_brute_force_oracle(self, rng):
        for n in (3, 4, 5):
            net = random_linear_network(rng, n, max_dim=3)
            asm = line_assemblage(net)
            oracle = brute_force_assemblage(net)
            assert asm.elements.keys() == oracle.keys()
            for k in oracle:
                assert max_entry_distance(asm.elements[k], oracle[k]) < 1e-11

    def test_matches_brute_force_oracle_three_outcomes(self):
        # six parties, 3^4 = 81 outcome tuples; the oracle's key order is
        # prefix-major (itertools.product), which the assemblage keeps
        net = random_linear_network(np.random.default_rng(6), 6, max_dim=2, n_out=3)
        asm = line_assemblage(net)
        oracle = brute_force_assemblage(net)
        assert list(asm.elements) == list(oracle)
        for k in oracle:
            assert max_entry_distance(asm.elements[k], oracle[k]) < 1e-11

    def test_string_outcome_labels(self, rng):
        swap = bell_swap_povm(2)
        named = POVM([QOperator(mat, swap.dims) for mat in swap.matrices],
                     outcome_labels=("singlet", "rest"))
        net = LinearNetwork([rand_density(rng, (2, 2)) for _ in range(3)], [named, named])
        asm = line_assemblage(net)
        oracle = brute_force_assemblage(net)
        assert list(asm.elements) == [("singlet", "singlet"), ("singlet", "rest"),
                                      ("rest", "singlet"), ("rest", "rest")]
        for k in oracle:
            assert max_entry_distance(asm.elements[k], oracle[k]) < 1e-12
            assert max_entry_distance(assemblage_element(net, k), oracle[k]) < 1e-12

    def test_endpoint_dims_differ_from_interior(self, rng):
        # endpoints of dims 4 and 2 around qutrit interior parties
        dims = [(4, 3), (3, 3), (3, 2)]
        net = LinearNetwork([rand_density(rng, d) for d in dims], [bell_swap_povm(3)] * 2)
        asm = line_assemblage(net)
        oracle = brute_force_assemblage(net)
        assert list(asm.elements) == list(oracle)
        for k in oracle:
            assert asm.elements[k].dims == (4, 2)
            assert max_entry_distance(asm.elements[k], oracle[k]) < 1e-12
            assert max_entry_distance(assemblage_element(net, k), oracle[k]) < 1e-12

    def test_assemblage_element_matches_full(self, rng):
        net = random_linear_network(rng, 4, max_dim=3)
        asm = line_assemblage(net)
        for k, op in asm.elements.items():
            assert max_entry_distance(assemblage_element(net, k), op) < 1e-11

    def test_assemblage_element_outcome_length(self, rng):
        net = random_linear_network(rng, 3)
        with pytest.raises(ValueError):
            assemblage_element(net, (0, 0))

    def test_trace_sums_to_one(self, rng):
        net = random_linear_network(rng, 4)
        asm = line_assemblage(net)
        total = sum(np.trace(mat).real for mat in asm.matrices)
        assert abs(total - 1.0) < 1e-10

    def test_product_marginal(self, rng):
        net = random_linear_network(rng, 4, max_dim=3)
        asm = line_assemblage(net)
        expected = tensor(
            partial_trace(net.sources[0], keep=[0]),
            partial_trace(net.sources[-1], keep=[1]),
        )
        assert np.max(np.abs(asm.matrices.sum(axis=0) - expected.matrix)) < 1e-10


def _random_steps(rng):
    """A step's operands for every factor dims (a, b, c, d) in 1..4 and 1, 2
    or 4 effects, in the shared-source and the per-row (grid) form: 16
    random complex prefixes, the effects and the source or 16 sources."""
    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        for k in (1, 2, 4):
            prefixes, effects = normal(16, a, b, a, b), normal(k, b * c, b * c)
            yield prefixes, effects, normal(c, d, c, d)
            yield prefixes, effects, normal(16, c, d, c, d)


def _relative_distance(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestStep:
    """``_step`` computes each prefix row on its own: the same bytes whatever
    block the row sits in, and the einsum oracle's numbers up to rounding."""

    def test_rows_do_not_depend_on_their_block(self, rng, monkeypatch):
        size = [16]
        monkeypatch.setattr("netsteer.network._blocks",
                            lambda p, _: [slice(i, i + size[0]) for i in range(0, p, size[0])])
        cases = 0
        for prefixes, effects, source in _random_steps(rng):
            size[0] = 16
            whole = _step(prefixes, effects, source).tobytes()
            for size[0] in (1, 2, 3, 5, 15):
                assert _step(prefixes, effects, source).tobytes() == whole
            cases += 1
        assert cases == 2 * 768

    def test_matches_einsum_oracle(self, rng):
        for prefixes, effects, source in _random_steps(rng):
            got = _step(prefixes, effects, source)
            assert _relative_distance(got, einsum_step(prefixes, effects, source)) <= 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_einsum_oracle_along_random_lines(self, seed):
        net = random_linear_network(np.random.default_rng(seed), 7, max_dim=4, n_out=3)
        sources = _tensors(net.sources)
        t = sources[0][None]
        for m, source in zip(net.central_measurements, sources[1:]):
            got = _step(t, m.matrices, source)
            assert _relative_distance(got, einsum_step(t, m.matrices, source)) <= 1e-15
            t = got


class TestGridContraction:
    """The grid form of ``_contract``: G lines of equal dims, each with its
    own sources, contracted through one effect per measurement."""

    # one block, and blocks of one to three lines (1,088 to 2,304 bytes per line, by step)
    @pytest.mark.parametrize("block_bytes", [CHECK_BLOCK_BYTES, 4096])
    def test_rows_equal_each_line_alone(self, rng, monkeypatch, block_bytes):
        monkeypatch.setattr("netsteer.operators.CHECK_BLOCK_BYTES", block_bytes)
        dims, n_lines = [2, 3, 4, 2, 3], 40
        pairs = list(zip(dims, dims[1:]))
        lines = [[rand_density(rng, pair) for pair in pairs] for _ in range(n_lines)]
        choices = [rand_psd(rng, (d, d)).matrix[None] for d in dims[1:-1]]
        stacks = [np.stack([line[i].matrix for line in lines]).reshape((n_lines,) + pair * 2)
                  for i, pair in enumerate(pairs)]
        grid, index = _contract(stacks, choices)
        assert grid.shape == (n_lines, 6, 6)
        assert index.tolist() == list(range(n_lines))
        for row, line in zip(grid, lines):
            alone, index = _contract([s.matrix.reshape(s.dims * 2) for s in line], choices)
            assert index.tolist() == [0]
            assert row.tobytes() == alone[0].tobytes()


class TestDEWLine:
    """A 12-party line of doubly-erased Werner sources against closed forms."""

    def test_twelve_party_closed_forms(self):
        eta, omega, n = 0.9, 0.95, 12
        src = dew(DEWParams(eta, omega))
        net = LinearNetwork([src] * (n - 1), [bell_swap_povm(3)] * (n - 2))
        asm = line_assemblage(net)
        assert len(asm.elements) == 2 ** (n - 2)
        # the last steps contract their 9 x 9 prefixes in several blocks
        assert 2 ** (n - 3) * src.matrix.nbytes > 2 * CHECK_BLOCK_BYTES
        # all swaps succeed: (eta^2/4)^(n-2) DEW(eta, omega^(n-1))
        scale = (eta * eta / 4.0) ** (n - 2)
        success = asm.elements[(0,) * (n - 2)]
        expected = scale * dew(DEWParams(eta, omega ** (n - 1))).matrix
        assert np.max(np.abs(success.matrix - expected)) < 1e-12 * scale
        total = sum(np.trace(mat).real for mat in asm.matrices)
        assert abs(total - 1.0) < 1e-12
        marginals = tensor(partial_trace(src, keep=[0]), partial_trace(src, keep=[1]))
        assert np.max(np.abs(asm.matrices.sum(axis=0) - marginals.matrix)) < 1e-12

    def test_bitwise_equal_to_single_element_contraction(self):
        # the reported DEW numbers come from these elements: batching the
        # outcomes must not move a bit against contracting each element alone
        src = dew(DEWParams(0.9, 0.95))
        swap = bell_swap_povm(3)
        net = LinearNetwork([src] * 5, [swap] * 4)
        sm = src.matrix.reshape(3, 3, 3, 3)
        for outcome, op in line_assemblage(net).elements.items():
            t = sm
            for label in outcome:
                em = swap.matrices[swap.outcome_labels.index(label)].reshape(3, 3, 3, 3)
                t = np.einsum("uvbc,abxu,cdvy->adxy", em, t, sm, optimize=True)
            assert op.matrix.tobytes() == t.reshape(9, 9).tobytes()
            assert assemblage_element(net, outcome).matrix.tobytes() == op.matrix.tobytes()


class TestNetworkAssemblage:
    def test_rejects_unnormalised(self):
        op = QOperator(np.eye(4) / 2, (2, 2))
        with pytest.raises(ValueError):
            assemblage_of({(0,): op, (1,): op})

    def test_rejects_non_psd_element(self):
        good = QOperator(np.eye(4) / 8, (2, 2))
        bad = QOperator(np.diag([1.0, -0.5, 0.0, 0.0]), (2, 2))
        with pytest.raises(ValueError):
            assemblage_of({(0,): good, (1,): bad})

    # 3 elements, or one more than fits in one stacked check of 4 x 4 matrices
    @pytest.mark.parametrize("n", [3, CHECK_BLOCK_BYTES // 256 + 1])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_psd_element_at(self, n, position):
        mats = np.array([np.eye(4) / (4 * n)] * n)
        keys = [(k,) for k in range(n)]
        NetworkAssemblage(mats, keys, (2, 2))
        mats[0 if position == "first" else -1] = np.diag([1.0 / n + 0.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="not PSD"):
            NetworkAssemblage(mats, keys, (2, 2))

    # distinct elements: one more than fits in one stacked check of 4 x 4 matrices
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_psd_distinct_element_at(self, position):
        n = CHECK_BLOCK_BYTES // 256 + 1
        weights = np.arange(1, n + 1) / (n * (n + 1) / 2)
        mats = weights[:, None, None] * np.eye(4) / 4
        keys = [(k,) for k in range(n)]
        assert len(NetworkAssemblage(mats, keys, (2, 2))._rows) == n
        j = 0 if position == "first" else -1
        mats[j] = np.diag([weights[j] + 0.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="not PSD"):
            NetworkAssemblage(mats, keys, (2, 2))

    def test_rejects_stack_length_other_than_outcome_count(self):
        mats = np.array([np.eye(4) / 8] * 2)
        with pytest.raises(DimensionError, match="3 outcomes"):
            NetworkAssemblage(mats, [(0,), (1,), (2,)], (2, 2))

    def test_rejects_repeated_outcome_keys(self):
        mats = np.array([np.eye(4) / 8] * 2)
        with pytest.raises(ValueError, match="distinct"):
            NetworkAssemblage(mats, [(0,), (0,)], (2, 2))

    def test_rejects_dims_other_than_matrix_side(self):
        mats = np.array([np.eye(4) / 8] * 2)
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            NetworkAssemblage(mats, [(0,), (1,)], (2, 3))

    def test_matrices_are_a_read_only_copy(self):
        mats = np.array([np.eye(4) / 8] * 2)
        asm = NetworkAssemblage(mats, [(0,), (1,)], (2, 2))
        assert not asm.matrices.flags.writeable
        with pytest.raises(ValueError):
            asm.matrices[0, 0, 0] = 1.0
        mats[0, 0, 0] = 1.0
        assert asm.matrices[0, 0, 0] == 1 / 8

    def test_elements_are_rows_in_outcome_order(self, rng):
        net = random_linear_network(rng, 4, max_dim=3)
        asm = line_assemblage(net)
        before = asm.matrices.tobytes()
        elements = asm.elements
        assert list(elements) == list(asm.outcomes)
        for op, row in zip(elements.values(), asm.matrices):
            assert op.dims == asm.dims
            assert op.matrix.tobytes() == row.tobytes()
        # changing what elements handed out leaves the assemblage as it was
        op = elements.pop(asm.outcomes[0])
        op.matrix.flags.writeable = True
        op.matrix[:] = 7.0
        assert asm.matrices.tobytes() == before
        assert list(asm.elements) == list(asm.outcomes)


def _assert_extremes_of_rows(asm):
    """The extremes the PSD check stored are read-only, one pair per
    distinct row and, row by row, the ends of the spectrum of that element
    alone, or NaN for a row the screen proved free of eigenvalues below
    -NEG_CUTOFF."""
    stored = asm._row_extremes
    assert stored.shape == (len(asm._rows), 2)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0, 0] = 1.0
    for row, extremes in zip(asm._rows, stored):
        spectrum = spectra(row)
        if np.isnan(extremes).all():
            assert spectrum[0] >= -NEG_CUTOFF
        else:
            assert extremes.tobytes() == spectrum[[0, -1]].tobytes()


class TestStoredExtremes:
    # 2,048 elements of 9 x 9, across blocks of CHECK_BLOCK_BYTES // 1296
    @pytest.mark.parametrize("omega", [0.95, 0.86])
    def test_dew_line(self, omega):
        _assert_extremes_of_rows(line_assemblage(_dew_line(omega)))

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_dimension_line(self, seed):
        rng = np.random.default_rng(seed)
        net = random_linear_network(rng, int(rng.integers(3, 8)), max_dim=4)
        _assert_extremes_of_rows(line_assemblage(net))


class TestBilocal:
    def test_matches_line(self, rng):
        # the swapping line of two sources, keyed by one-label tuples (b,)
        a = rand_density(rng, (2, 2))
        b = rand_density(rng, (2, 2))
        m = bell_swap_povm(2)
        net = LinearNetwork([a, b], [m])
        asm = line_assemblage(net)
        assert asm.outcomes == tuple((lab,) for lab in m.outcome_labels)
        assert asm.dims == (2, 2)
        oracle = brute_force_assemblage(net)
        for outcome, mat in zip(asm.outcomes, asm.matrices):
            assert np.max(np.abs(mat - oracle[outcome].matrix)) < 1e-12


class TestStandardAssemblage:
    def test_werner_z_oracle(self):
        # frozen oracle: sigma_{0|z} of the Werner state is (I - omega Z)/4
        omega = 0.7
        asm = standard_assemblage(
            werner(omega), [pauli_projective((0, 0, 1))], side="left"
        )
        assert asm.shape == (2, 1, 2, 2)
        expected = (np.eye(2) - omega * PAULI_Z) / 4
        assert np.max(np.abs(asm[0, 0] - expected)) < 1e-12
        assert np.max(np.abs(asm[1, 0] - (np.eye(2) + omega * PAULI_Z) / 4)) < 1e-12

    @pytest.mark.parametrize("side,measured", [("left", 0), ("right", 1)])
    def test_rows_are_per_effect_apply_and_trace(self, rng, side, measured):
        rho = rand_density(rng, (2, 3) if side == "left" else (3, 2))
        povms = [pauli_projective(rand_unit_vector(rng)) for _ in range(3)]
        asm = standard_assemblage(rho, povms, side)
        assert asm.shape == (2, 3, 3, 3)
        for x, povm in enumerate(povms):
            for a, effect in enumerate(povm.matrices):
                row = apply_and_trace(rho, QOperator(effect, povm.dims), measured).matrix
                assert asm[a, x].tobytes() == row.tobytes()

    def test_sides_agree_for_symmetric_state(self):
        asm_l = standard_assemblage(werner(0.6), [pauli_projective((0, 0, 1))], "left")
        asm_r = standard_assemblage(werner(0.6), [pauli_projective((0, 0, 1))], "right")
        assert np.max(np.abs(asm_l - asm_r)) < 1e-12

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            standard_assemblage(werner(0.5), [pauli_projective((0, 0, 1))], "middle")

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            standard_assemblage(werner(0.5), [computational_basis_povm(3)], "left")

    def test_rejects_unequal_outcome_counts(self):
        rho = QOperator(np.eye(9) / 9, (3, 3))
        povms = [computational_basis_povm(3), POVM([QOperator(np.eye(3), [3])])]
        with pytest.raises(DimensionError, match="equal outcome counts"):
            standard_assemblage(rho, povms, "left")

    def test_rejects_no_measurements(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            standard_assemblage(werner(0.5), [], "left")


class TestConditioningAndLifting:
    def test_conditioning_traces_correctly(self, rng):
        net = random_linear_network(rng, 3, max_dim=2)
        asm = line_assemblage(net)
        cond = condition_on_trusted_measurement(
            asm, computational_basis_povm(asm.dims[0]), "left"
        )
        assert cond.shape == (len(asm.outcomes), asm.dims[0], asm.dims[1], asm.dims[1])
        assert abs(np.trace(cond, axis1=2, axis2=3).real.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("endpoint,measured", [("left", 0), ("right", 1)])
    def test_rows_are_per_effect_apply_and_trace(self, rng, endpoint, measured):
        net = random_linear_network(rng, 4, max_dim=3)
        asm = line_assemblage(net)
        m = computational_basis_povm(asm.dims[measured])
        cond = condition_on_trusted_measurement(asm, m, endpoint)
        assert cond.shape[:2] == (len(asm.outcomes), m.n_outcomes)
        for k, op in enumerate(asm.elements.values()):
            for j, effect in enumerate(m.matrices):
                row = apply_and_trace(op, QOperator(effect, m.dims), measured).matrix
                assert cond[k, j].tobytes() == row.tobytes()

    def test_conditioning_rejects_effect_of_other_dim(self, rng):
        asm = line_assemblage(LinearNetwork([rand_density(rng, (2, 2))] * 2, [bell_swap_povm(2)]))
        with pytest.raises(DimensionError, match="effect dim 3 != endpoint dim 2"):
            condition_on_trusted_measurement(asm, computational_basis_povm(3), "right")

    def test_lift_recovers_uniform_inputs(self):
        subs = [pauli_projective((0, 0, 1)), pauli_projective((1, 0, 0))]
        net = untrusted_input_to_outcome(werner(0.8), subs)
        asm = line_assemblage(net)
        cond = condition_on_trusted_measurement(asm, computational_basis_povm(2), "left")
        p, lifted = lift_inputless_to_conditional(cond)
        direct = standard_assemblage(werner(0.8), subs, side="left")
        assert np.max(np.abs(p - 0.5)) < 1e-12
        assert lifted.shape == direct.shape
        assert np.max(np.abs(lifted - direct)) < 1e-12

    def test_lift_rejects_zero_probability_input(self):
        full = np.eye(2) / 2
        asm = np.array([[full, np.zeros((2, 2))], [full, np.zeros((2, 2))]], dtype=complex)
        with pytest.raises(ValueError, match="x=1"):
            lift_inputless_to_conditional(asm)

    def test_untrusted_input_single_povm(self):
        net = untrusted_input_to_outcome(werner(0.8), [pauli_projective((0, 0, 1))])
        assert net.sources[0].dims == (1, 1)
        asm = line_assemblage(net)
        total = sum(np.trace(mat).real for mat in asm.matrices)
        assert abs(total - 1.0) < 1e-10


def _unmerged_line(net):
    """The elements, their extremes and the verdict (status, negativity,
    outcome) of a line with every branch contracted, checked and its
    partial transpose eigendecomposed, repeats included."""
    mats = unmerged_contract(_tensors(net.sources), [m.matrices for m in net.central_measurements])
    extremes = spectral_extremes(mats)
    values, entangled = _endpoint_negativities(mats, net.endpoint_dims, extremes)
    if not entangled.any():
        return mats, extremes, (INCONCLUSIVE, None, None)
    best = int(np.argmax(values))
    outcomes = list(itertools.product(*(m.outcome_labels for m in net.central_measurements)))
    return mats, extremes, (CERTIFIED, values[best], outcomes[best])


def _assert_equals_unmerged(net):
    asm = line_assemblage(net)
    verdict = certify_network_steering(asm)
    mats, extremes, (status, value, outcome) = _unmerged_line(net)
    assert asm.matrices.tobytes() == mats.tobytes()
    # the PSD check's extremes: NaN where the screen proved a row PSD
    checked = asm._row_extremes[asm._index]
    left = ~np.isnan(checked[:, 0])
    assert checked[left].tobytes() == extremes[left].tobytes()
    assert verdict.status == status
    if status == CERTIFIED:
        assert verdict.witness["outcome"] == outcome
        assert np.float64(verdict.witness["negativity"]).tobytes() == value.tobytes()
    return asm


def _computational_pair(d):
    """The d^2-outcome computational-basis measurement on a (d, d) pair."""
    return POVM([projector(basis_ket(i, d * d), (d, d)) for i in range(d * d)])


def _coin(d):
    """Two equal effects I/2 on a (d, d) pair: the outcome is a coin flip, so
    the two children of every prefix are equal."""
    half = QOperator(np.eye(d * d) / 2, (d, d))
    return POVM([half, half])


@st.composite
def _lines_with_repeats(draw):
    """Lines of 3 to 8 parties of local dims 1 to 3 (two or three interior
    qubits, the other interior parties of dim 1, so that the brute-force
    oracle stays small) whose sources are classically correlated, with some
    zero weights, or product states, and whose central measurements are
    computational-basis, swap or coin measurements, one of them a coin."""
    n = draw(st.integers(3, 8))
    qubits = draw(st.sets(st.integers(0, n - 3), min_size=min(2, n - 2), max_size=3))
    local = ([draw(st.sampled_from([1, 2, 3]))] + [2 if i in qubits else 1 for i in range(n - 2)]
             + [draw(st.sampled_from([1, 2, 3]))])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sources = []
    for a, b in zip(local, local[1:]):
        if draw(st.booleans()):         # classically correlated: sum_x p_x |x, x mod b><..|
            p = np.array(draw(st.lists(st.integers(0, 3), min_size=a, max_size=a)), dtype=float)
            p[0] += p.sum() == 0        # at least one nonzero weight
            mat = np.zeros((a * b, a * b), dtype=complex)
            for x in range(a):
                mat[x * b + x % b, x * b + x % b] = p[x] / p.sum()
        else:                           # product of two random densities
            left, right = (rand_density(rng, (d,)).matrix for d in (a, b))
            mat = np.kron(left, right)
        sources.append(QOperator(mat, (a, b)))
    coin = draw(st.integers(0, n - 3))
    central = []
    for i, d in enumerate(local[1:-1]):
        kind = "coin" if i == coin else draw(st.sampled_from(["computational", "swap", "coin"]))
        if kind == "swap" and d > 1:
            central.append(bell_swap_povm(d))
        elif kind == "computational":
            central.append(_computational_pair(d))
        else:
            central.append(_coin(d))
    return LinearNetwork(sources, central)


def _dew_line(omega):
    """One of the benchmark's two 13-party lines of doubly-erased Werner sources."""
    return LinearNetwork([dew(DEWParams(0.9, omega))] * 12, [bell_swap_povm(3)] * 11)


def _assert_one_merge(net):
    """The distinct rows and index that ``line_assemblage`` takes from the
    contraction, and what its check makes of them, equal byte for byte what
    the constructor finds in the gathered stack."""
    asm = line_assemblage(net)
    again = NetworkAssemblage(asm.matrices.copy(), asm.outcomes, asm.dims)
    for name in ("_rows", "_index", "_row_extremes", "matrices"):
        got, want = getattr(asm, name), getattr(again, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    return asm


FIXTURE_PATHS = sorted(path for path in (importlib.resources.files("netsteer") / "fixtures").iterdir()
                       if path.name.endswith(".json"))


def _claims_line(preset):
    """The input-encoded line that ``claims_pipeline`` contracts, caught on its way in."""
    lines = []

    def catching(net, _line_assemblage=certificates.line_assemblage):
        lines.append(net)
        return _line_assemblage(net)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificates, "line_assemblage", catching)
        certificates.claims_pipeline(werner(0.9), AXIS_PRESETS[preset])
    (net,) = lines
    return net


class TestOneMerge:
    """``line_assemblage`` holds the contraction's distinct rows and index as
    they are: the gathered stack is never merged again, and what it holds
    equals the public constructor's merge byte for byte."""

    @pytest.mark.parametrize("omega", [0.95, 0.86])
    def test_dew_line(self, omega):
        assert len(_assert_one_merge(_dew_line(omega))._rows) == {0.95: 825, 0.86: 759}[omega]

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_dimension_line(self, seed):
        rng = np.random.default_rng(seed)
        _assert_one_merge(random_linear_network(rng, int(rng.integers(3, 8)), max_dim=4))

    @pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.name)
    def test_bundled_fixture_line(self, path):
        _assert_one_merge(load_fixture(path)[2])

    @pytest.mark.parametrize("preset", sorted(AXIS_PRESETS))
    def test_claims_pipeline_line(self, preset):
        _assert_one_merge(_claims_line(preset))

    @pytest.mark.parametrize("omega,last", [(0.95, 1120), (0.86, 1026)])
    def test_dew_line_merges_once_per_step(self, omega, last, monkeypatch):
        # 11 steps, 11 merges: the last step's children of the distinct
        # prefixes, and never the 2,048 gathered elements
        sizes = []

        def counting(stack, _distinct=network._distinct):
            sizes.append(len(stack))
            return _distinct(stack)

        monkeypatch.setattr(network, "_distinct", counting)
        asm = line_assemblage(_dew_line(omega))
        assert len(sizes) == 11 and 2048 not in sizes
        assert sizes[-1] == last
        assert (len(asm.matrices), len(asm._rows)) == (2048, {0.95: 825, 0.86: 759}[omega])


class TestMergedBranches:
    """``_contract`` merges byte-identical prefix rows and the assemblage and
    its verdict handle each distinct element once.  On every line the
    merged elements equal the unmerged contraction's, byte for byte, and
    match the brute-force oracle; on the benchmark's lines so does every
    reported number."""

    @pytest.mark.parametrize("omega,distinct", [(0.95, 825), (0.86, 759)])
    def test_dew_lines_equal_unmerged_contraction(self, omega, distinct):
        net = _dew_line(omega)
        asm = _assert_equals_unmerged(net)
        assert (len(asm.matrices), len(asm._rows)) == (2048, distinct)
        for k, row in enumerate(asm._index):
            assert asm._rows[row].tobytes() == asm.matrices[k].tobytes()

    def test_verdict_names_the_first_outcome_of_the_best_row(self):
        # the swap's complement split into two equal halves ahead of the
        # singlet: outcomes 0 and 1 share row 0, the singlet's row 1 is outcome 2
        singlet, rest = bell_swap_povm(2).matrices
        halves = POVM([QOperator(m, (2, 2)) for m in (rest / 2, rest / 2, singlet)])
        net = LinearNetwork([werner(1.0)] * 2, [halves])
        asm = _assert_equals_unmerged(net)
        assert asm._index.tolist() == [0, 0, 1]
        assert certify_network_steering(asm).witness["outcome"] == (2,)

    def test_mixed_dimension_line_equals_unmerged_contraction(self):
        net = random_linear_network(np.random.default_rng(5), 9, max_dim=4)
        assert len(set(net.endpoint_dims + tuple(m.dims[0] for m in net.central_measurements))) > 1
        asm = _assert_equals_unmerged(net)
        # no repeats here: the identity index, and the rows are the matrices
        assert asm._index.tolist() == list(range(len(asm.matrices)))
        assert asm._rows is asm.matrices

    @settings(max_examples=40, deadline=None)
    @given(_lines_with_repeats())
    def test_lines_with_repeats_match_brute_force_oracle(self, net):
        asm = line_assemblage(net)
        assert len(asm._rows) < len(asm.matrices)      # the coin repeats every branch
        assert asm._rows[asm._index].tobytes() == asm.matrices.tobytes()
        # the PSD check's extremes: NaN where the screen proved a row PSD
        checked = asm._row_extremes[asm._index]
        left = ~np.isnan(checked[:, 0])
        assert np.isnan(checked[~left]).all()
        assert checked[left].tobytes() == spectral_extremes(asm.matrices)[left].tobytes()
        assert len({row.tobytes() for row in asm.matrices}) == len(asm._rows)
        _assert_one_merge(net)
        unmerged = unmerged_contract(_tensors(net.sources),
                                     [m.matrices for m in net.central_measurements])
        assert asm.matrices.tobytes() == unmerged.tobytes()
        oracle = brute_force_assemblage(net)
        assert list(oracle) == list(asm.outcomes)
        for k, op in oracle.items():
            assert max_entry_distance(asm.elements[k], op) < 1e-12

    # with the package's keys, and with one key for every row, so that the
    # rows are told apart by their bytes alone
    @pytest.mark.parametrize("keys", ["weighted", "colliding"])
    def test_rows_one_ulp_or_a_zero_sign_apart_are_not_merged(self, rng, monkeypatch, keys):
        if keys == "colliding":
            monkeypatch.setattr("netsteer.network._key_weights", lambda n: np.zeros(n, np.uint64))
        base = rand_density(rng, (2, 2)).matrix.copy()
        base[0, 1] = base[1, 0] = 0.0
        ulp = base.copy()               # the last word differs
        ulp[3, 3] = complex(ulp[3, 3].real, np.nextafter(ulp[3, 3].imag, 1.0))
        signed = base.copy()            # the first off-diagonal word differs
        signed[0, 1] = complex(-0.0, 0.0)
        stack = np.array([base, ulp, base, signed, ulp])
        rows, index = _distinct(stack)
        assert rows.tobytes() == stack[[0, 1, 3]].tobytes()
        assert index.tolist() == [0, 1, 0, 2, 1]
        distinct = stack[[0, 1, 3]]
        rows, index = _distinct(distinct)
        assert rows is distinct and index.tolist() == [0, 1, 2]

    def test_key_collisions_are_compared_byte_for_byte(self, rng, monkeypatch):
        # every row gets the same key: the rows are told apart by bytes alone
        monkeypatch.setattr("netsteer.network._key_weights", lambda n: np.zeros(n, np.uint64))
        a, b, c = (rand_density(rng, (2, 2)).matrix for _ in range(3))
        stack = np.array([a, b, a, c, b, c, c])
        rows, index = _distinct(stack)
        assert rows.tobytes() == np.array([a, b, c]).tobytes()
        assert index.tolist() == [0, 1, 0, 2, 1, 2, 2]

    def test_rows_with_permuted_entries_are_not_merged(self, rng):
        # equal sums of their words, different bytes
        a = rand_density(rng, (2, 2)).matrix
        stack = np.array([a, a.T, a.T, a])
        rows, index = _distinct(stack)
        assert rows.tobytes() == stack[:2].tobytes()
        assert index.tolist() == [0, 1, 1, 0]
