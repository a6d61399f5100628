from collections import Counter

import numpy as np
import pytest

from netsteer.certificates import (
    CERTIFIED,
    INCONCLUSIVE,
    PipelinePreconditionError,
    Verdict,
    certify_network_steering,
    claims_pipeline,
    linear_steering_witness,
    _dew_unsteerable,
    _endpoint_negativities,
    _row_negativities,
)
from netsteer.measurements import POVM, bell_swap_povm, pauli_projective
from netsteer.experiments import SweepSpec, run_activation
from netsteer.network import (LinearNetwork, NetworkAssemblage, _contract, line_assemblage,
                              standard_assemblage, untrusted_input_to_outcome)
from netsteer.operators import (
    CHECK_BLOCK_BYTES,
    NEG_CUTOFF,
    TOL_CHECK,
    DimensionError,
    NotPositiveError,
    QOperator,
    _blocks,
    _transpose_factors,
)
from netsteer.states import DEWParams, _dew_stack, classical_correlated, dew, psi_minus, werner

from conftest import (assemblage_of, distinct_elements, haar_unitary, negativities_from_scratch,
                      negativity, rand_density, random_linear_network, spectra,
                      spectral_extremes, unmerged_contract)
from sweep_oracles import BlochData, bloch_data, erased_unsteerable

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


class TestCertify:
    def test_swapped_singlets_certified(self):
        net = LinearNetwork([werner(1.0)] * 2, [bell_swap_povm(2)])
        verdict = certify_network_steering(line_assemblage(net))
        assert verdict.certified
        assert verdict.witness["negativity"] == pytest.approx(1 / 8)
        assert verdict.witness["outcome"] == (0,)

    def test_classical_sources_inconclusive(self):
        net = LinearNetwork(
            [classical_correlated(2)] * 2, [bell_swap_povm(2)]
        )
        verdict = certify_network_steering(line_assemblage(net))
        assert verdict.status == INCONCLUSIVE
        assert not verdict.certified


def _certify_per_element(asm):
    """The element-by-element definition: skip traces up to NEG_CUTOFF,
    keep the first element of largest negativity."""
    best_val, best_outcome = 0.0, None
    for outcome, op in asm.elements.items():
        if np.trace(op.matrix).real <= NEG_CUTOFF:
            continue
        val = negativity(op.matrix, op.dims)
        if val > best_val:
            best_val, best_outcome = val, outcome
    if best_val > NEG_CUTOFF:
        return CERTIFIED, {"negativity": best_val, "outcome": best_outcome}
    return INCONCLUSIVE, None


def _normalised(mats, dims, keys):
    total = sum(np.trace(m).real for m in mats)
    return assemblage_of({k: QOperator(m / total, dims) for k, m in zip(keys, mats)})


def _max_entangled(d):
    v = np.eye(d).reshape(d * d) / np.sqrt(d)
    return np.outer(v, v)


class TestCertifyStacked:
    """certify_network_steering on stacked spectra against the per-element
    definition, on assemblages larger than one stacked block."""

    @pytest.mark.parametrize("omega", [0.95, 0.86])
    def test_dew_line_matches_per_element(self, omega):
        # 1,024 elements of 9 x 9 (a block holds CHECK_BLOCK_BYTES // 1296)
        n = 12
        net = LinearNetwork([dew(DEWParams(0.9, omega))] * (n - 1), [bell_swap_povm(3)] * (n - 2))
        asm = line_assemblage(net)
        assert len(asm.elements) * 1296 > 2 * CHECK_BLOCK_BYTES
        verdict = certify_network_steering(asm)
        assert (verdict.status, verdict.witness) == _certify_per_element(asm)

    def test_random_line_matches_per_element(self):
        # 512 elements with endpoint dims up to 4
        net = random_linear_network(np.random.default_rng(11), 11, max_dim=4)
        asm = line_assemblage(net)
        verdict = certify_network_steering(asm)
        assert (verdict.status, verdict.witness) == _certify_per_element(asm)

    # same block; different blocks (202 matrices of 9 x 9 per block)
    @pytest.mark.parametrize("first,second", [(0, 1), (10, 240)])
    def test_equal_maxima_give_first_key(self, first, second):
        n = 250
        mats = [np.eye(9) / 9] * n
        mats[first] = mats[second] = _max_entangled(3)
        keys = [(n - i,) for i in range(n)]        # dict order is not label order
        asm = _normalised(mats, (3, 3), keys)
        verdict = certify_network_steering(asm)
        assert verdict.witness["outcome"] == keys[first]
        assert verdict.witness["negativity"] == negativity(asm.matrices[second], (3, 3))

    # below the cutoff the non-PSD element is skipped; above it, it is checked
    @pytest.mark.parametrize("trace,skipped", [(-1e-11, True), (1e-11, False)])
    def test_skips_elements_below_cutoff_trace(self, trace, skipped):
        tiny = QOperator(np.diag([trace + 5e-11, -5e-11, 0.0, 0.0]), (2, 2))
        asm = assemblage_of({(0,): psi_minus(), (1,): tiny})
        if skipped:
            verdict = certify_network_steering(asm)
            assert verdict.witness == {"negativity": negativity(psi_minus().matrix, (2, 2)),
                                       "outcome": (0,)}
        else:
            with pytest.raises(NotPositiveError):
                certify_network_steering(asm)

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_negative_eigenvalue_at(self, position):
        # 300 elements of 9 x 9, so the last one sits in a later block;
        # -1e-10 passes NetworkAssemblage (TOL_CHECK) but not the precondition
        n = 300
        mats = [np.eye(9) / (9 * n)] * n
        bad = np.diag([1.0 / n + 1e-10, -1e-10] + [0.0] * 7)
        mats[0 if position == "first" else n - 1] = bad
        asm = assemblage_of({(k,): QOperator(m, (3, 3)) for k, m in enumerate(mats)})
        with pytest.raises(NotPositiveError, match="negative eigenvalue -1.000e-10"):
            certify_network_steering(asm)


def _certify_from_scratch(asm):
    """certify_network_steering with every element eigendecomposed on its
    own (``conftest.negativities_from_scratch``)."""
    best = None
    for outcome, value in zip(asm.outcomes, negativities_from_scratch(asm.matrices, asm.dims)):
        if value > NEG_CUTOFF and (best is None or value > best[0]):
            best = (value, outcome)
    if best is None:
        return INCONCLUSIVE, None
    return CERTIFIED, {"negativity": float(best[0]), "outcome": best[1]}


def _symmetrised(mats):
    """The matrices ``_hermitian`` hands on to ``eigvalsh``, one bytes key each."""
    return [((m + m.conj().T) / 2).tobytes() for m in mats]


@pytest.fixture
def eigvalsh_inputs(monkeypatch):
    """Every matrix passed to ``np.linalg.eigvalsh``, counted by its bytes."""
    seen = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.update(m.tobytes() for m in np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


def _dew_line(omega):
    return LinearNetwork([dew(DEWParams(0.9, omega))] * 12, [bell_swap_povm(3)] * 11)


def _noisy_line(rng, noise):
    """A 4-party qutrit line of random pure sources, the last mixed with
    white noise of weight ``noise``, and rank-one projective central
    measurements: its elements are NPT up to a noise of about 0.75."""
    def source(weight):
        g = rng.normal(size=9) + 1j * rng.normal(size=9)
        return QOperator((1 - weight) * np.outer(g, g.conj()) / np.vdot(g, g).real
                         + weight * np.eye(9) / 9, (3, 3))

    def povm():
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        return POVM([QOperator(np.outer(v, v.conj()), (3, 3)) for v in q.T])

    return LinearNetwork([source(0.0), source(0.0), source(noise)], [povm(), povm()])


def _random_lines():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        yield random_linear_network(rng, int(rng.integers(3, 8)), max_dim=4)


class TestOneSpectrumPerCheck:
    """The assemblage's PSD check eigendecomposes only the distinct elements
    that the Cholesky screen (``operators._psd_cleared``) does not prove
    PSD, and the negativity precondition reads their extremes.  A partial
    transpose is eigendecomposed only where the same screen did not clear
    it, and every value is the one of eigendecomposing each element from
    scratch."""

    @staticmethod
    def _assert_matches_from_scratch_oracle(asm):
        verdict = certify_network_steering(asm)
        status, witness = _certify_from_scratch(asm)
        assert verdict.status == status
        assert (verdict.witness is None) == (witness is None)
        if witness is not None:
            assert verdict.witness["outcome"] == witness["outcome"]
            assert (np.float64(verdict.witness["negativity"]).tobytes()
                    == np.float64(witness["negativity"]).tobytes())

    @pytest.mark.parametrize("omega", [0.95, 0.86])
    def test_dew_line_matches_from_scratch_oracle(self, omega):
        self._assert_matches_from_scratch_oracle(line_assemblage(_dew_line(omega)))

    def test_random_lines_match_from_scratch_oracle(self):
        for net in _random_lines():
            self._assert_matches_from_scratch_oracle(line_assemblage(net))

    @pytest.mark.parametrize("omega", [0.95, 0.86])
    def test_each_element_eigendecomposed_once(self, omega, eigvalsh_inputs):
        # each distinct element by bytes, in order of first occurrence
        net = _dew_line(omega)
        eigvalsh_inputs.clear()     # the sources' and POVMs' own checks
        asm = line_assemblage(net)
        assert not eigvalsh_inputs      # every element proven PSD by the screen
        assert np.isnan(asm._row_extremes).all()
        certify_network_steering(asm)
        seen = Counter(eigvalsh_inputs)
        mats = unmerged_contract([s.matrix.reshape(s.dims * 2) for s in net.sources],
                                 [m.matrices for m in net.central_measurements])
        assert np.all(np.trace(mats, axis1=1, axis2=2).real > NEG_CUTOFF)   # none skipped
        distinct = np.array(list({m.tobytes(): m for m in mats}.values()))
        assert (len(mats), len(distinct)) == (2048, {0.95: 825, 0.86: 759}[omega])
        transposed = _transpose_factors(distinct, (3, 3), [1])
        lowest = np.array([spectra(m)[0] for m in transposed])
        # ω = 0.95: only the all-success element is NPT, and only its partial
        # transpose is eigendecomposed; ω = 0.86: none is
        npt = transposed[lowest < -NEG_CUTOFF]
        assert len(npt) == {0.95: 1, 0.86: 0}[omega]
        assert seen == Counter(_symmetrised(npt))

    def test_each_activation_source_eigendecomposed_once(self, eigvalsh_inputs):
        # 301 points: three sweep blocks
        spec = SweepSpec(omega_range=(0.0, 1.0, 301), n_parties=5, eta_boundary=True)
        run_activation(spec)
        seen = Counter(eigvalsh_inputs)
        omegas = spec.omegas()
        sources = _dew_stack((2.0 / 3.0) * (1.0 - omegas), omegas)
        tensors = sources.reshape(-1, 3, 3, 3, 3)
        sigma0, _ = _contract([tensors] * 4, [bell_swap_povm(3).matrices[:1]] * 3)
        live = sigma0[np.trace(sigma0, axis1=1, axis2=2).real > NEG_CUTOFF]
        transposed = _transpose_factors(np.concatenate([sources, live]), (3, 3), [1])
        lowest = np.array([spectra(m)[0] for m in transposed])
        # Every NPT partial transpose here has a negative 2 x 2 minor, so it
        # skips the factorisation, which then clears the rest of its block;
        # and none lies within 1e-14 of the shift, so those eigendecomposed
        # are exactly the ones with an eigenvalue below -NEG_CUTOFF / 2.
        assert np.abs(lowest + NEG_CUTOFF / 2).min() > 1e-14
        uncleared = transposed[lowest < -NEG_CUTOFF / 2]
        assert 0 < len(uncleared) < len(transposed) // 2
        # The sources and sigma0 are PSD with room to spare, so the screen
        # clears every one of them, in the sources' density check and in
        # sigma0's extremes alike: only the partial transposes it did not
        # clear are eigendecomposed.
        assert spectral_extremes(np.concatenate([sources, sigma0]))[:, 0].min() > -NEG_CUTOFF / 4
        assert seen == Counter(_symmetrised(uncleared))

    # Every per-element value, not only the verdict's maximum, on inputs with
    # NPT elements, where the screen must leave blocks or rows to eigvalsh.

    def test_npt_lines_shuffled_match_per_element_oracle(self):
        # rows of lines with and without NPT elements, shuffled into shared blocks
        rng = np.random.default_rng(31)
        asms = [line_assemblage(_noisy_line(rng, noise)) for noise in (0.3, 0.6, 0.7, 0.85, 0.9, 0.95)]
        rows = np.concatenate([asm._rows for asm in asms])
        elements = np.concatenate([distinct_elements(asm) for asm in asms])
        extremes = np.concatenate([asm._row_extremes for asm in asms])
        order = rng.permutation(len(rows))
        rows, elements, extremes = rows[order], elements[order], extremes[order]
        oracle = negativities_from_scratch(elements, (3, 3))
        blocks = _blocks(len(rows), rows[0].nbytes)
        assert len(blocks) == 3
        assert all(np.any(oracle[b] > 0) and np.any(oracle[b] == 0) for b in blocks)
        values, entangled = _endpoint_negativities(rows, (3, 3), extremes)
        assert values.tobytes() == oracle.tobytes()
        assert np.array_equal(entangled, oracle > NEG_CUTOFF)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_activation_grid_matches_per_element_oracle(self, n):
        spec = SweepSpec(omega_range=(0.0, 1.0, 301), n_parties=n, eta_boundary=True)
        columns = run_activation(spec).columns
        omegas = spec.omegas()
        sources = _dew_stack((2.0 / 3.0) * (1.0 - omegas), omegas)
        sigma0, _ = _contract([sources.reshape(-1, 3, 3, 3, 3)] * (n - 1),
                              [bell_swap_povm(3).matrices[:1]] * (n - 2))
        values = np.array(columns["source_negativity"] + columns["sigma0_negativity"])
        oracle = negativities_from_scratch(np.concatenate([sources, sigma0]), (3, 3))
        assert np.any(oracle > 0) and np.any(oracle <= 0)
        assert values.tobytes() == oracle.tobytes()

    def test_claims_demo_matches_per_element_oracle(self):
        asm = line_assemblage(untrusted_input_to_outcome(
            werner(0.9), [pauli_projective(Z), pauli_projective(X)]))
        values, entangled = _row_negativities(asm)
        oracle = negativities_from_scratch(distinct_elements(asm), asm.dims)
        assert values.tobytes() == oracle.tobytes()
        assert not entangled.any()


def _element_stack(rng, dims, lowest, largest, rotate, n=12):
    """n distinct assemblage elements on ``dims`` whose traces sum to 1:
    n - 1 random full-rank ones and, at a random position, one with
    smallest eigenvalue ``lowest``, largest ``largest`` and small positive
    ones in between, under a random local unitary (``rotate``) or with its
    spectrum on the diagonal.  Returns the stack and that position."""
    a, b = dims
    d = a * b
    spectrum = np.concatenate([[lowest, largest], rng.uniform(0.1, 1.0, d - 2) * 0.05 / d])
    u = np.kron(haar_unitary(rng, a), haar_unitary(rng, b)) if rotate else np.eye(d)
    special = (u * spectrum) @ u.conj().T
    weights = rng.uniform(0.5, 1.0, n - 1)
    weights *= (1.0 - np.trace(special).real) / weights.sum()
    fillers = [w * rand_density(rng, dims).matrix for w in weights]
    at = int(rng.integers(n))
    return np.array(fillers[:at] + [special] + fillers[at:]), at


class TestElementScreen:
    """The assemblage's PSD check proves elements PSD with the Cholesky
    screen and eigendecomposes only the rest.  At the PSD tolerance
    (TOL_CHECK) and at the negativity cutoff (NEG_CUTOFF), under local
    unitaries or not, and within the norm guard or past it, the assemblage
    accepts and rejects exactly as the full eigendecomposition does, the
    verdict raises NotPositiveError exactly where an element's own spectrum
    fails the precondition, and ``_row_extremes`` holds the extremes of
    every element the screen did not clear."""

    LOWEST = [-2e-9, -1.001e-9, -0.999e-9, -5e-10, -1.001e-12, -0.999e-12, -5e-13]

    # (3, 3): the guard ||H||_F <= NEG_CUTOFF / (8 D^2 eps) is about 7, past
    # any element; (6, 6): about 0.43, so an element of largest eigenvalue
    # 0.85 is past it
    @pytest.mark.parametrize("lowest", LOWEST)
    @pytest.mark.parametrize("dims,largest", [((3, 3), 0.01), ((3, 3), 0.85),
                                              ((6, 6), 0.01), ((6, 6), 0.85)])
    @pytest.mark.parametrize("rotate", [True, False])
    def test_agrees_with_full_eigendecomposition(self, lowest, dims, largest, rotate):
        rng = np.random.default_rng(int(-np.log10(-lowest) * 1000) + int(largest * 100) + dims[0])
        mats, at = _element_stack(rng, dims, lowest, largest, rotate)
        keys = [(k,) for k in range(len(mats))]
        d = dims[0] * dims[1]
        past = np.linalg.norm(mats[at]) > NEG_CUTOFF / (8 * d * d * np.finfo(float).eps)
        assert past == (dims == (6, 6) and largest == 0.85)
        accepted = spectral_extremes(mats)[:, 0].min() >= -TOL_CHECK
        assert accepted == (lowest > -TOL_CHECK)
        if not accepted:
            with pytest.raises(ValueError, match="not PSD"):
                NetworkAssemblage(mats, keys, dims)
            return
        asm = NetworkAssemblage(mats, keys, dims)
        extremes = spectral_extremes(asm.matrices)
        screened = np.isnan(asm._row_extremes[:, 0])
        assert asm._row_extremes[~screened].tobytes() == extremes[~screened].tobytes()
        # sound: an element the screen clears has no eigenvalue below
        # -NEG_CUTOFF; not vacuous: the special element is not cleared away
        # from the shift, and the others are whenever it cannot make the
        # factorisation fail
        assert np.all(extremes[screened, 0] >= -NEG_CUTOFF)
        if lowest < -0.75 * NEG_CUTOFF:
            assert not screened[at]
        if past or not rotate:
            assert screened.sum() == len(mats) - 1
        try:
            status, witness = _certify_from_scratch(asm)
        except NotPositiveError as exc:
            with pytest.raises(NotPositiveError, match=str(exc)):
                certify_network_steering(asm)
            raised = True
        else:
            verdict = certify_network_steering(asm)
            assert (verdict.status, verdict.witness) == (status, witness)
            raised = False
        if not rotate:      # a diagonal element: its spectrum is exact
            assert raised == (lowest < -NEG_CUTOFF)


class TestBlochData:
    def test_werner(self):
        b = bloch_data(werner(0.8))
        assert np.allclose(b.a, 0.0, atol=1e-12)
        assert np.allclose(b.t, -0.8 * np.eye(3), atol=1e-12)

    def test_dew_block_renormalises_to_werner(self):
        b = bloch_data(dew(DEWParams(0.5, 0.6)))
        assert np.allclose(b.a, 0.0, atol=1e-12)
        assert np.allclose(b.t, -0.6 * np.eye(3), atol=1e-12)

    def test_rejects_unsupported_dims(self):
        with pytest.raises(ValueError):
            bloch_data(classical_correlated(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            BlochData(np.ones(3) * 2, np.eye(3))
        with pytest.raises(ValueError):
            BlochData(np.zeros(2), np.eye(3))


class TestErasedUnsteerable:
    def test_closed_form_boundary(self):
        # a = 0 path: value is 1.5 eta + sigma_max(T) exactly
        omega = 0.4
        b = BlochData(np.zeros(3), -omega * np.eye(3))
        eta_star = (2 / 3) * (1 - omega)
        ok, val = erased_unsteerable(b, eta_star)
        assert ok
        assert val == pytest.approx(1.0, abs=1e-12)
        ok, val = erased_unsteerable(b, eta_star + 1e-3)
        assert not ok

    def test_sphere_path_agrees_with_closed_form(self):
        # force the lattice path with a tiny nonzero Bloch vector; the
        # objective is then numerically identical to the a = 0 case
        omega, eta = 0.55, 0.2
        tiny = np.zeros(3)
        tiny[0] = 1e-9
        b = BlochData(tiny, -omega * np.eye(3))
        _, val = erased_unsteerable(BlochData(np.zeros(3), -omega * np.eye(3)), eta)
        b2 = BlochData(np.full(3, 1e-7), -omega * np.eye(3))
        _, val2 = erased_unsteerable(b2, eta)
        assert abs(val - val2) < 1e-6

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            erased_unsteerable(BlochData(np.zeros(3), np.eye(3) * 0.5), 1.5)

    def test_dew_boundary(self):
        for omega in (0.0, 0.3, 0.9, 1.0):     # eta_star = 0 at omega = 1
            eta_star = (2 / 3) * (1 - omega)
            assert _dew_unsteerable(eta_star, omega)
            if eta_star + 1e-3 <= 1.0:
                assert not _dew_unsteerable(eta_star + 1e-3, omega)

    def test_zero_eta_always_unsteerable(self):
        assert _dew_unsteerable(0.0, 1.0)


class TestWitness:
    def test_werner_two_axes(self):
        omega = 0.9
        asm = standard_assemblage(
            werner(omega), [pauli_projective(Z), pauli_projective(X)], "left"
        )
        value, bound, violated = linear_steering_witness(asm, [Z, X])
        assert value == pytest.approx(omega, abs=1e-12)
        assert bound == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert violated

    def test_werner_three_axes(self):
        omega = 0.6
        axes = [Z, X, Y]
        asm = standard_assemblage(
            werner(omega), [pauli_projective(v) for v in axes], "left"
        )
        value, bound, violated = linear_steering_witness(asm, axes)
        assert value == pytest.approx(omega, abs=1e-12)
        assert bound == pytest.approx(np.sqrt(3) / 3, abs=1e-12)
        assert violated  # 0.6 > 1/sqrt(3)

    def test_below_bound_not_violated(self):
        asm = standard_assemblage(
            werner(0.5), [pauli_projective(Z), pauli_projective(X)], "left"
        )
        _, _, violated = linear_steering_witness(asm, [Z, X])
        assert not violated

    def test_missing_outcomes_rejected(self):
        with pytest.raises(ValueError, match="dichotomic outcomes"):
            linear_steering_witness(np.zeros((1, 1, 2, 2), dtype=complex), [Z])     # one outcome
        with pytest.raises(ValueError, match="dichotomic outcomes"):
            linear_steering_witness(np.zeros((2, 1, 2, 2), dtype=complex), [Z, X])  # one input
        with pytest.raises(DimensionError, match="qubit"):
            linear_steering_witness(np.zeros((2, 1, 3, 3), dtype=complex), [Z])

    def test_rejects_no_measurements(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            linear_steering_witness(np.zeros((2, 0, 2, 2), dtype=complex), [])


class TestClaimsPipeline:
    def test_certifies_steerable_werner(self):
        verdict, transcript = claims_pipeline(werner(0.8), [Z, X])
        assert verdict.status == CERTIFIED
        assert transcript["witness_value"] == pytest.approx(0.8, abs=1e-10)
        assert transcript["block_identity_deviation"] <= 1e-12
        assert transcript["round_trip_deviation"] <= 1e-12
        assert transcript["input_probability_deviation"] <= 1e-12
        assert transcript["elements_separable"]
        assert transcript["recovered_witness_violated"]

    def test_rejects_unsteerable_input(self):
        with pytest.raises(PipelinePreconditionError):
            claims_pipeline(werner(0.7), [Z, X])

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            claims_pipeline(classical_correlated(3), [Z, X])

    def test_rejects_no_axes(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            claims_pipeline(werner(0.8), [])

    def test_three_axis_threshold(self):
        # with three orthogonal axes the LHS bound drops to 1/sqrt(3)
        verdict, _ = claims_pipeline(werner(0.65), [Z, X, Y])
        assert verdict.certified
        with pytest.raises(PipelinePreconditionError):
            claims_pipeline(werner(0.55), [Z, X, Y])

    def test_verdict_dataclass(self):
        v = Verdict(CERTIFIED, {"negativity": 0.1})
        assert v.certified
        assert not Verdict(INCONCLUSIVE).certified
