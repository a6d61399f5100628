import importlib.resources
import importlib.util
import itertools
import json
import re
from collections import Counter
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsteer import experiments, measurements, network, nlhs, operators
from netsteer.measurements import POVM, SeparableMeasurement, bell_swap_povm, pauli_projective
from netsteer.experiments import run_nlhs
from netsteer.network import (LinearNetwork, NetworkAssemblage, _distinct, line_assemblage,
                              standard_assemblage)
from netsteer.nlhs import (
    LOC,
    RECONSTRUCTION_TOL,
    ModelNotFoundError,
    NLHSModel,
    PatternError,
    SEP,
    SeparableDecomposition,
    SourceSlot,
    UNS_LEFT,
    UNS_RIGHT,
    build_percolation_line,
    classical_correlated_decomposition,
    fibonacci_sphere,
    nlhs_to_separable_realization,
    reconstruct,
    separabilize_endpoint,
    solve_lhv,
    werner_separable_decomposition,
)
from netsteer.nlhs_io import _build_measurement, _build_source, load_fixture
from netsteer.operators import (
    NEG_CUTOFF,
    PAULIS,
    DimensionError,
    QOperator,
    basis_ket,
    projector,
)
from netsteer.states import classical_correlated, werner

from conftest import (
    apply_and_trace,
    max_entry_distance,
    negativity,
    rand_density,
    rand_psd,
    random_model,
    realization_network,
    spectral_extremes,
    tensor,
)
from nlhs_oracles import (
    build_sep_unsteer_bilocal,
    build_triangle_patterns,
    decomposition_state_sum,
    diagonal_effects,
    direct_response_kron,
    distinct_inputs,
    effect_stack,
    induced_measurement,
    lhv_behavior,
    lhv_behavior_kron,
    reconstruct_kron_loop,
)

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def _assemblage_deviation(model, net):
    quantum = line_assemblage(net)
    rebuilt = reconstruct(model)
    assert rebuilt.elements.keys() == quantum.elements.keys()
    return max(
        max_entry_distance(rebuilt.elements[k], quantum.elements[k])
        for k in quantum.elements
    )


def _slots(pattern, omega_uns=0.3, omega_loc=0.5):
    cc = classical_correlated_decomposition(2)
    w = werner_separable_decomposition(omega_uns)
    out = []
    for kind in pattern:
        if kind == SEP:
            out.append(SourceSlot(SEP, cc.state(), decomposition=cc))
        elif kind == LOC:
            out.append(SourceSlot(LOC, werner(omega_loc)))
        else:
            out.append(SourceSlot(kind, werner(omega_uns), decomposition=w))
    return out


class TestNLHSModelValidation:
    def test_trivial_model_reconstructs_product(self, rng):
        left = rand_density(rng, [2])
        right = rand_density(rng, [2])
        model = NLHSModel(
            [np.array([1.0]), np.array([1.0])],
            [np.ones((1, 1, 1))],
            [left.matrix],
            [right.matrix],
        )
        asm = reconstruct(model)
        assert max_entry_distance(asm.elements[(0,)], tensor(left, right)) < 1e-12

    def test_hand_weighted_model(self, rng):
        # two hidden values per source, deterministic response b = lam_0
        lefts = [rand_density(rng, [2]) for _ in range(2)]
        rights = [rand_density(rng, [2]) for _ in range(2)]
        p = np.array([0.25, 0.75])
        q = np.array([0.6, 0.4])
        resp = np.zeros((2, 2, 2))
        resp[0, 0, :] = 1.0
        resp[1, 1, :] = 1.0
        model = NLHSModel([p, q], [resp], [s.matrix for s in lefts], [s.matrix for s in rights])
        asm = reconstruct(model)
        for b in range(2):
            expected = sum(
                p[b] * q[k] * np.kron(lefts[b].matrix, rights[k].matrix)
                for k in range(2)
            )
            assert np.max(np.abs(asm.elements[(b,)].matrix - expected)) < 1e-12

    def test_rejects_unnormalised_dist(self, rng):
        s = rand_density(rng, [2]).matrix
        with pytest.raises(ValueError):
            NLHSModel(
                [np.array([0.5]), np.array([1.0])],
                [np.ones((1, 1, 1))],
                [s],
                [s],
            )

    def test_rejects_bad_response_shape(self, rng):
        s = rand_density(rng, [2]).matrix
        with pytest.raises(ValueError):
            NLHSModel(
                [np.array([1.0]), np.array([1.0])],
                [np.ones((1, 2, 1))],
                [s],
                [s],
            )

    def test_rejects_non_conditional_response(self, rng):
        s = rand_density(rng, [2]).matrix
        with pytest.raises(ValueError):
            NLHSModel(
                [np.array([1.0]), np.array([1.0])],
                [np.full((2, 1, 1), 0.7)],
                [s],
                [s],
            )

    def test_rejects_endpoint_count_mismatch(self, rng):
        s = rand_density(rng, [2]).matrix
        with pytest.raises(ValueError):
            NLHSModel(
                [np.array([0.5, 0.5]), np.array([1.0])],
                [np.ones((1, 2, 1))],
                [s],
                [s],
            )


    @pytest.mark.parametrize(
        "dists,responses",
        [([[np.nan], [1.0]], [[[[np.nan]], [[np.nan]]]]),
         ([[np.nan], [1.0]], [np.full((2, 1, 1), 0.5)]),
         ([[1.0], [1.0]], [[[[np.nan]], [[1.0]]]])],
        ids=["both", "dist", "response"],
    )
    def test_rejects_nan(self, dists, responses):
        # NaN fails every comparison, so a check written as "reject if x < 0"
        # would let it through
        with pytest.raises(ValueError, match="normalised|conditional"):
            NLHSModel(dists, responses, [np.eye(2) / 2], [np.eye(2) / 2])

    def test_rejects_labels_not_one_distinct_per_outcome(self, rng):
        s = rand_density(rng, [2]).matrix
        args = ([np.array([1.0]), np.array([1.0])], [np.full((2, 1, 1), 0.5)], [s], [s])
        assert NLHSModel(*args, outcome_labels=[("a", "b")]).outcome_labels == (("a", "b"),)
        for labels in ([(0,)], [(0, 0)], [(0, 1, 2)], [(0, 1), (0, 1)], []):
            with pytest.raises(ValueError, match="one distinct outcome label"):
                NLHSModel(*args, outcome_labels=labels)

    def test_rejects_states_that_are_no_stack(self, rng):
        dists = [np.array([0.5, 0.5]), np.array([1.0])]
        s2, s3 = rand_density(rng, [2]).matrix, rand_density(rng, [3]).matrix
        with pytest.raises(DimensionError, match="stack"):
            NLHSModel(dists, [np.ones((1, 2, 1))], s2, [s2])
        with pytest.raises(ValueError):
            NLHSModel(dists, [np.ones((1, 2, 1))], [s2, s3], [s2])

    def test_hidden_state_stacks_are_read_only(self, rng):
        model = random_model(rng, n_parties=4)
        real = nlhs_to_separable_realization(model)
        stacks = [model.left_states, model.right_states]
        for dec in real.source_decompositions:
            stacks += [dec.left_states, dec.right_states]
        for cert in real.measurement_certificates:
            stacks += [factors for pair in cert.terms for factors in pair]
        for stack in stacks:
            assert stack.ndim == 3 and stack.dtype == complex and not stack.flags.writeable

    def test_inputs_changed_after_construction_leave_the_objects(self):
        p, q, w = np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.5, 0.5])
        r = np.array([[[1.0, 0.0], [0.5, 1.0]], [[0.0, 1.0], [0.5, 0.0]]])
        states = [np.eye(2) / 2] * 2
        model = NLHSModel([p, q], [r], states, states)
        dec = SeparableDecomposition(w, states, states)
        p[0], r[0, 0, 0], w[0] = 7.0, -3.0, 9.0
        assert model.source_dists[0].tolist() == [0.5, 0.5]
        assert model.responses[0][0, 0, 0] == 1.0
        assert dec.weights.tolist() == [0.5, 0.5]
        for a in (*model.source_dists, *model.responses, dec.weights):
            assert a.dtype == float and not a.flags.writeable

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_density_state_at(self, rng, side, position):
        dists = [np.full(3, 1 / 3), np.full(3, 1 / 3)]
        states = {s: [rand_density(rng, [2]).matrix for _ in range(3)] for s in ("left", "right")}
        NLHSModel(dists, [np.ones((1, 3, 3))], states["left"], states["right"])
        states[side][0 if position == "first" else -1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="densities"):
            NLHSModel(dists, [np.ones((1, 3, 3))], states["left"], states["right"])


BUNDLED = ("sep_loc_sep", "uns_sep_uns", "sep_uns_uns", "uns_uns_sep", "percolation_star_n6")
# the bundled fixtures and the benchmark's Werner fixture, with their ids
FIXTURES = dict(
    [(name, importlib.resources.files("netsteer") / "fixtures" / f"{name}.json")
     for name in BUNDLED]
    + [("werner_sep_uns", Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
        / "werner_sep_uns.json")]
)


class TestValidatedOnce:
    """The resolver builds its induced effects from the checked POVMs and
    hidden states without checking them again: the only eigendecompositions
    of ``build_percolation_line`` are NLHSModel's checks of its left and
    right hidden-state stacks, and only of the rows their screen does not
    prove PSD.  ``run_nlhs`` validates the fixture's line once and
    contracts the separable realisation without validating it as a second
    network; the closed forms and the realisation build their parts
    without a PSD check of their own."""

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_two_eigvalsh_calls(self, path, monkeypatch):
        _, slots, net = load_fixture(path)
        seen = Counter()
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.update(m.tobytes() for m in np.reshape(a, (-1,) + np.shape(a)[-2:]))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        model, _ = build_percolation_line(slots, net.central_measurements)
        monkeypatch.undo()
        stacks = (model.left_states, model.right_states)
        # The hidden states are PSD with room to spare, so the screen clears
        # every stack of 8 or more; a smaller one is eigendecomposed in full.
        assert min(spectral_extremes(s)[:, 0].min() for s in stacks) > -NEG_CUTOFF / 4
        assert seen == Counter(((m + m.conj().T) / 2).tobytes()
                               for s in stacks if len(s) < 8 for m in s)

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_one_network_two_assemblages(self, path, monkeypatch):
        # the fixture's line, then its quantum assemblage and the model's,
        # each through the assemblage's one check body
        built = []
        for cls, name in ((LinearNetwork, "__init__"), (NetworkAssemblage, "_hold")):
            def counting(self, *args, _method=getattr(cls, name), _name=cls.__name__, **kwargs):
                built.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
        report = run_nlhs(path, realize=True)
        assert report.ok and report.extra["realization_deviation"] <= RECONSTRUCTION_TOL
        assert built == ["LinearNetwork", "NetworkAssemblage", "NetworkAssemblage"]

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_five_psd_checks(self, path, monkeypatch):
        # the line's sources, NLHSModel's left and right hidden states, and
        # the quantum and the rebuilt assemblage
        calls = []

        def counting(mats, tol, _check=operators._psd_screened):
            calls.append(mats.shape)
            return _check(mats, tol)

        for module in (operators, measurements, network, experiments):
            monkeypatch.setattr(module, "_psd_screened", counting)
        report = run_nlhs(path, realize=True)
        assert report.ok and len(calls) == 5, calls


class TestReconstruct:
    def _check(self, model):
        rebuilt = reconstruct(model)
        oracle = reconstruct_kron_loop(model)
        assert list(rebuilt.elements) == list(oracle)
        for k, mat in oracle.items():
            assert np.max(np.abs(rebuilt.elements[k].matrix - mat)) < 1e-14

    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_kron_loop_on_fixture(self, name):
        path = importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"
        _, slots, net = load_fixture(path)
        self._check(build_percolation_line(slots, net.central_measurements)[0])

    def test_matches_kron_loop_on_random_models(self):
        rng = np.random.default_rng(2025)
        for n_parties in (2, 3, 4, 5, 6):
            for n_outcomes in (1, 2, 3):
                model = random_model(rng, n_parties=n_parties, max_hidden=4,
                                     n_outcomes=n_outcomes,
                                     endpoint_dim=int(rng.integers(1, 4)))
                self._check(model)


class TestDecompositions:
    @pytest.mark.parametrize("omega", [0.0, 0.2, 1 / 3])
    def test_werner_decomposition_reproduces_state(self, omega):
        dec = werner_separable_decomposition(omega)
        assert max_entry_distance(dec.state(), werner(omega)) < 1e-12

    @pytest.mark.parametrize("omega", [0.5, -0.1, np.nan, 1 / 3 + 2e-12])
    def test_werner_decomposition_refuses_omega_outside_separable_range(self, omega):
        with pytest.raises(ValueError, match=f"omega = {omega!r}$"):
            werner_separable_decomposition(omega)

    # on both sides of the one bound, and at it
    @pytest.mark.parametrize("omega", [0.3, nlhs.WERNER_SEPARABLE_MAX,
                                       float(np.nextafter(nlhs.WERNER_SEPARABLE_MAX, 1.0)), 0.5])
    def test_fixture_werner_gets_a_decomposition_where_one_is_built(self, omega):
        accepted = omega <= 1 / 3 + 1e-12
        if not accepted:
            with pytest.raises(ValueError, match="no separable form"):
                werner_separable_decomposition(omega)
        state, dec = _build_source({"kind": "werner", "omega": omega})
        assert state.matrix.tobytes() == werner(omega).matrix.tobytes()
        assert (dec is not None) == accepted
        if accepted:
            assert max_entry_distance(dec.state(), state) < 1e-12

    @pytest.mark.parametrize("d", [0, -1])
    def test_classical_correlated_decomposition_refuses_d_below_one(self, d):
        with pytest.raises(ValueError, match=f"got {d}$"):
            classical_correlated_decomposition(d)

    def test_classical_correlated_decomposition(self):
        dec = classical_correlated_decomposition(3)
        assert max_entry_distance(dec.state(), classical_correlated(3)) < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_density_state_at(self, rng, side, position):
        weights = np.full(3, 1 / 3)
        states = {s: [rand_density(rng, [2]).matrix for _ in range(3)] for s in ("left", "right")}
        SeparableDecomposition(weights, states["left"], states["right"])
        states[side][0 if position == "first" else -1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="densities"):
            SeparableDecomposition(weights, states["left"], states["right"])

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], [0.5, np.nan]])
    def test_rejects_nan_weights(self, weights):
        states = [np.eye(2) / 2] * len(weights)
        with pytest.raises(ValueError, match="probability distribution"):
            SeparableDecomposition(weights, states, states)

    def test_product_decomposition(self, rng):
        a = rand_density(rng, [2])
        b = rand_density(rng, [3])
        dec = SeparableDecomposition([1.0], [a.matrix], [b.matrix])
        assert max_entry_distance(dec.state(), tensor(a, b)) < 1e-12


def _random_decomposition(rng, terms, d_left, d_right):
    w = rng.random(terms) + 0.1
    return SeparableDecomposition(w / w.sum(),
                                  [rand_density(rng, [d_left]).matrix for _ in range(terms)],
                                  [rand_density(rng, [d_right]).matrix for _ in range(terms)])


def _random_povm(rng, dims):
    """Two-outcome POVM {E, 1 - E} of a random PSD E with largest eigenvalue 1."""
    psd = rand_psd(rng, dims).matrix
    e0 = psd / np.linalg.eigvalsh(psd)[-1]
    return POVM([QOperator(e0, dims), QOperator(np.eye(len(e0)) - e0, dims)])


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestKronOracles:
    """The stacked products against the nested ``np.kron`` loops they
    replaced, compared by their bytes (so the sign of a zero counts)."""

    def _check_line(self, decs, ms, rho=None):
        """state() of every decomposition; the direct response of every
        measurement of the all-SEP line of ``decs``; and the behaviour a LOC
        slot in place of each interior source would solve for (of ``rho``
        if given, else of the decomposition's state)."""
        for dec in decs:
            _same_bits(dec.state().matrix, decomposition_state_sum(dec))
        model, _ = build_percolation_line([SourceSlot(SEP, d.state(), d) for d in decs], ms)
        for j, m in enumerate(ms):
            _same_bits(model.responses[j],
                       direct_response_kron(m, decs[j].right_states, decs[j + 1].left_states))
        for i in range(1, len(decs) - 1):
            lp = effect_stack([induced_measurement(ms[i - 1], r, "left")
                               for r in decs[i - 1].right_states])
            rp = effect_stack([induced_measurement(ms[i], l, "right")
                               for l in decs[i + 1].left_states])
            src = decs[i].state() if rho is None else rho
            _same_bits(nlhs._lhv_behavior(src, lp, rp), lhv_behavior_kron(src, lp, rp))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_fixture(self, name, monkeypatch):
        path = importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"
        _, slots, net = load_fixture(path)
        calls = []
        behavior = nlhs._lhv_behavior

        def spy(*args):
            calls.append((args, behavior(*args)))
            return calls[-1][1]

        monkeypatch.setattr(nlhs, "_lhv_behavior", spy)
        model, _ = build_percolation_line(slots, net.central_measurements)
        for args, got in calls:                # the fixture's own LOC slots
            _same_bits(got, lhv_behavior_kron(*args))
        assert len(calls) == sum(s.kind == LOC for s in slots)
        monkeypatch.undo()
        for slot in slots:
            if slot.decomposition is not None:
                _same_bits(slot.decomposition.state().matrix,
                           decomposition_state_sum(slot.decomposition))
        real = nlhs_to_separable_realization(model)
        self._check_line(real.source_decompositions,
                         realization_network(real).central_measurements)

    def test_random_decompositions_of_unequal_dims(self):
        rng = np.random.default_rng(12)
        decs = [_random_decomposition(rng, 5, 2, 3), _random_decomposition(rng, 4, 2, 3),
                _random_decomposition(rng, 3, 2, 4)]
        ms = [_random_povm(rng, (3, 2)), _random_povm(rng, (3, 2))]
        self._check_line(decs, ms)
        self._check_line(decs, ms, rho=rand_density(rng, (2, 3)))

    @staticmethod
    def _check_state(dec, path):
        """state() of ``dec`` against the oracle, by its bytes, and the path
        it took: "flags" when it wrote the flag blocks, "kron" when it summed
        the Kronecker products."""
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nlhs, "_kron", lambda a, b, _kron=nlhs._kron: calls.append(1) or _kron(a, b))
            got = dec.state().matrix
        _same_bits(got, decomposition_state_sum(dec))
        assert ("kron" if calls else "flags") == path

    def test_realised_snapshot_fixtures_take_the_flag_path(self, tmp_path):
        for path in _snapshot_fixtures(tmp_path).values():
            _, slots, net = load_fixture(path)
            model, _ = build_percolation_line(slots, net.central_measurements)
            for dec in nlhs_to_separable_realization(model).source_decompositions:
                self._check_state(dec, "flags")

    def test_realised_random_models_take_the_flag_path(self):
        # a line of one source realises it as the model's two endpoint stacks
        rng = np.random.default_rng(2028)
        for n_parties in (2, 3, 4, 5):
            for endpoint_dim in (1, 2, 3):
                model = random_model(rng, n_parties=n_parties, max_hidden=4,
                                     endpoint_dim=endpoint_dim)
                for dec in nlhs_to_separable_realization(model).source_decompositions:
                    self._check_state(dec, "kron" if n_parties == 2 else "flags")

    @pytest.mark.parametrize("d", range(1, 7))
    def test_classical_correlated_takes_the_flag_path(self, d):
        self._check_state(classical_correlated_decomposition(d), "flags")

    def test_near_flags_take_the_kron_path(self):
        rng = np.random.default_rng(13)
        flags = np.eye(3)[:, :, None] * np.eye(3)[:, None, :]
        others = [rand_density(rng, [2]).matrix for _ in range(4)]
        for near in (flags[[1, 0, 2]],                         # permuted
                     flags[:2],                                # fewer terms than the side
                     flags * (1 - 2 ** -52),                   # scaled just below the flags
                     np.concatenate([flags, flags[:1]])):      # one extra term
            w = rng.random(len(near)) + 0.1
            w /= w.sum()
            self._check_state(SeparableDecomposition(w, near, others[:len(near)]), "kron")
            self._check_state(SeparableDecomposition(w, others[:len(near)], near), "kron")

    def test_negative_zero_parts(self):
        # flags, hidden states and a weight whose zeros are -0.0: the sum
        # from 0 leaves every zero +0.0
        def parts(re, im):
            out = np.empty(np.shape(re), dtype=complex)
            out.real, out.imag = re, im
            return out

        flags = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]
        neg_flags = parts(np.where(flags == 1, 1.0, -0.0), -0.0)
        neg_states = parts(np.array([[[1.0, -0.0], [-0.0, -0.0]], [[0.5, -0.0], [-0.0, 0.5]]]),
                           np.array([[[-0.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.1], [-0.1, -0.0]]]))
        for w in ([1.0, -0.0], [0.25, 0.75]):
            self._check_state(SeparableDecomposition(w, neg_flags, neg_states), "flags")
            self._check_state(SeparableDecomposition(w, neg_states, neg_flags), "flags")
            self._check_state(SeparableDecomposition(w, flags, neg_states), "flags")
            self._check_state(SeparableDecomposition(w, neg_states, neg_states), "kron")


class TestLHSModels:
    """The two LHS models of an UNS slot: read off its decomposition, or
    found by the search.  Factor ``measured`` of the source is measured; the
    hidden states live on the other factor."""

    @staticmethod
    def _check_lhs(model, rho, povms, measured):
        dist, resp, states = model[:3]
        asm = standard_assemblage(rho, povms, side=("left", "right")[measured])
        assert asm.shape[:2] == resp.shape[:2]
        for b, x in np.ndindex(asm.shape[:2]):
            rebuilt = sum(dist[l] * resp[b, x, l] * states[l] for l in range(len(dist)))
            assert np.max(np.abs(rebuilt - asm[b, x])) < 1e-9

    @pytest.mark.parametrize("measured", [0, 1])
    def test_read_off_decomposition(self, measured):
        dec = werner_separable_decomposition(0.3)
        povms = [pauli_projective(Z), pauli_projective(X)]
        model = nlhs._read_off(dec, effect_stack(povms), measured)
        assert model[0] is dec.weights
        assert model[2] is (dec.right_states, dec.left_states)[measured]
        self._check_lhs(model, werner(0.3), povms, measured)

    def test_search_finds_unsteerable_model(self):
        povms = [pauli_projective(Z), pauli_projective(X)]
        model = nlhs._lhs_search(werner(0.5), effect_stack(povms), 0)
        self._check_lhs(model, werner(0.5), povms, 0)

    def test_search_fails_on_steerable_behaviour(self):
        # omega = 0.9 violates the two-axis witness, so no LHS model exists
        povms = [pauli_projective(Z), pauli_projective(X)]
        with pytest.raises(ModelNotFoundError):
            nlhs._lhs_search(werner(0.9), effect_stack(povms), 0)

    @pytest.mark.parametrize("measured", [0, 1])
    @pytest.mark.parametrize("axes", [(Z, X), (Z, X, Y)], ids=["zx", "zxy"])
    def test_search_both_directions(self, axes, measured):
        povms = [pauli_projective(a) for a in axes]
        model = nlhs._lhs_search(werner(0.4), effect_stack(povms), measured)
        self._check_lhs(model, werner(0.4), povms, measured)

    def test_search_refuses_oversized_search(self):
        # 24 distinct axes stay 24 inputs after the merge of equal inputs:
        # 2^24 strategies x 74 candidates x 384 rows, refused before it is built
        povms = [pauli_projective(u) for u in fibonacci_sphere(24)]
        start = time.perf_counter()
        with pytest.raises(ModelNotFoundError, match="search limit"):
            nlhs._lhs_search(werner(0.4), effect_stack(povms), 0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "axes,reps",
        [((Z, Z, X), (0, 0, 1)), ((Z, X, X), (0, 1, 1)), ((Z, X, Z, Y, X, Z), (0, 1, 0, 2, 1, 0))],
        ids=["first", "last", "interleaved"],
    )
    @pytest.mark.parametrize("measured", [0, 1])
    def test_search_merges_repeated_inputs(self, axes, reps, measured):
        rho = werner(0.4)
        povms = [pauli_projective(a) for a in axes]
        dist, resp, states, n_in = nlhs._lhs_search(rho, effect_stack(povms), measured)
        assert n_in == max(reps) + 1
        assert resp.shape[:2] == (2, len(axes))
        for x, r in enumerate(reps):
            # a duplicate answers exactly as its representative, the first occurrence
            assert np.array_equal(resp[:, x], resp[:, reps.index(r)])
        asm = standard_assemblage(rho, povms, side=("left", "right")[measured])
        rebuilt = np.einsum("l,bxl,lij->bxij", dist, resp, states)
        assert np.max(np.abs(rebuilt - asm)) <= RECONSTRUCTION_TOL

    def test_search_keeps_inputs_one_ulp_apart(self):
        # Tr_A[(E (x) 1) 1/4] = Tr(E)/4 exactly, so the steered states of the
        # two inputs differ in one entry by one ulp
        bumped = np.diag([np.nextafter(1.0, 2.0), 0.0])
        z_bumped = POVM([QOperator(bumped, [2]), QOperator(pauli_projective(Z).matrices[1], [2])])
        mixed = QOperator(np.eye(4) / 4, [2, 2])
        effects = effect_stack([pauli_projective(Z), z_bumped])
        assert nlhs._lhs_search(mixed, effects, 0)[3] == 2


class TestSolveLHV:
    def test_local_behaviour_decomposes(self):
        povms = [pauli_projective(Z), pauli_projective(X)]
        behavior = lhv_behavior(werner(0.5), povms, povms)
        dist, resp_b, resp_c, _, _ = solve_lhv(behavior)
        rebuilt = np.einsum("l,bxl,cyl->bcxy", dist, resp_b, resp_c)
        assert np.max(np.abs(rebuilt - behavior)) < 1e-10
        assert abs(dist.sum() - 1.0) < 1e-10

    def test_nonlocal_behaviour_rejected(self):
        # the PR box sits outside the local polytope
        pr = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                for b in range(2):
                    for c in range(2):
                        if (b + c) % 2 == (x * y):
                            pr[b, c, x, y] = 0.5
        with pytest.raises(ModelNotFoundError):
            solve_lhv(pr)

    def test_asymmetric_shapes(self):
        # (n_b, n_c, n_x, n_y) = (2, 3, 3, 2): a swapped axis cannot rebuild it
        rng = np.random.default_rng(11)
        weights = rng.dirichlet(np.ones(5))
        lefts = rng.integers(0, 2, size=(5, 3))
        rights = rng.integers(0, 3, size=(5, 2))
        behavior = np.zeros((2, 3, 3, 2))
        for w, b_of_x, c_of_y in zip(weights, lefts, rights):
            for x in range(3):
                for y in range(2):
                    behavior[b_of_x[x], c_of_y[y], x, y] += w
        dist, resp_b, resp_c, _, _ = solve_lhv(behavior)
        assert resp_b.shape == (2, 3, len(dist))
        assert resp_c.shape == (3, 2, len(dist))
        rebuilt = np.einsum("l,bxl,cyl->bcxy", dist, resp_b, resp_c)
        assert np.max(np.abs(rebuilt - behavior)) < 1e-10

    def test_refuses_oversized_system(self):
        # a random behaviour keeps all 30 x- and 30 y-inputs distinct
        rng = np.random.default_rng(30)
        behavior = rng.random((2, 2, 30, 30))
        behavior /= behavior.sum(axis=(0, 1))
        start = time.perf_counter()
        with pytest.raises(ModelNotFoundError, match="search limit"):
            solve_lhv(behavior)
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize(
        "x_axes,y_axes",
        [((Z, Z, X), (X, Z)), ((Z, X), (Z, X, X)), ((Z, X, Z, Y, X), (X, Z, X, Y, Z))],
        ids=["first", "last", "interleaved"],
    )
    def test_merges_repeated_inputs(self, x_axes, y_axes):
        behavior = lhv_behavior(werner(0.5), [pauli_projective(a) for a in x_axes],
                                [pauli_projective(a) for a in y_axes])
        dist, resp_b, resp_c, n_x, n_y = solve_lhv(behavior)
        assert (n_x, n_y) == (len(set(x_axes)), len(set(y_axes)))
        assert resp_b.shape[1] == len(x_axes) and resp_c.shape[1] == len(y_axes)
        for axes, resp in ((x_axes, resp_b), (y_axes, resp_c)):
            for x, a in enumerate(axes):
                assert np.array_equal(resp[:, x], resp[:, axes.index(a)])
        rebuilt = np.einsum("l,bxl,cyl->bcxy", dist, resp_b, resp_c)
        assert np.max(np.abs(rebuilt - behavior)) <= RECONSTRUCTION_TOL

    def test_keeps_inputs_one_ulp_apart(self):
        # the x-slices p(., . | x, .) and the y-slices p(., . | ., y), as solve_lhv merges them
        def counts(behavior):
            return [len(_distinct(np.moveaxis(behavior, axis, 0))[0]) for axis in (2, 3)]

        behavior = lhv_behavior(werner(0.5), [pauli_projective(Z)] * 2, [pauli_projective(X)] * 2)
        assert counts(behavior) == [1, 1]
        behavior[0, 0, 1, 1] = np.nextafter(behavior[0, 0, 1, 1], 1.0)
        assert counts(behavior) == [2, 2]


# one-ulp neighbours, both zeros, subnormals, infinities and NaNs of two payloads
_SPECIAL_WORDS = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 5e-324, -5e-324, np.inf, -np.inf,
                  np.nan, -np.nan]


@st.composite
def _input_stacks(draw):
    """Float or complex stacks of 2-12 rows drawn from a pool of 1-4 rows,
    so that rows repeat, some with one entry bumped by one ulp, its sign
    flipped or replaced by NaN; a third of them handed over transposed."""
    n = draw(st.integers(2, 12))
    shape = draw(st.sampled_from([(1,), (2, 3), (2, 2, 2)]))
    complex_rows = draw(st.booleans())
    size = int(np.prod(shape)) * (2 if complex_rows else 1)
    words = st.one_of(st.sampled_from(_SPECIAL_WORDS), st.floats(width=64))
    pool = draw(st.lists(st.lists(words, min_size=size, max_size=size), min_size=1, max_size=4))
    rows = []
    for _ in range(n):
        row = np.array(draw(st.sampled_from(pool)))
        k = draw(st.integers(0, size - 1))
        edit = draw(st.sampled_from(["none", "none", "ulp", "sign", "nan"]))
        if edit == "ulp":
            with np.errstate(over="ignore"):
                row[k] = np.nextafter(row[k], np.inf)
        elif edit == "sign":
            row[k] = -row[k]
        elif edit == "nan":
            row[k] = np.nan
        rows.append(row)
    stack = np.array(rows)
    stack = (stack.view(complex) if complex_rows else stack).reshape((n,) + shape)
    if draw(st.integers(0, 2)) == 0:
        stack = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
    return stack


class TestDistinctInputs:
    def test_first_occurrences_and_representatives(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0], [3.0, 4.0]])
        distinct, rep = _distinct(rows)
        assert distinct.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert rep.tolist() == [0, 1, 0, 2, 1]
        assert np.array_equal(distinct[rep], rows)

    def test_one_ulp_is_distinct(self):
        rows = np.zeros((2, 3, 3), dtype=complex)
        rows[1, 2, 0] = np.nextafter(0.0, 1.0) * 1j
        distinct, rep = _distinct(rows)
        assert distinct is rows and rep.tolist() == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(_input_stacks())
    def test_matches_dict_merge_oracle(self, stack):
        first, rep = distinct_inputs(stack)
        rows, index = _distinct(stack)
        assert rows.tobytes() == stack[first].tobytes()
        assert index.tolist() == rep.tolist()
        assert (rows is stack) == (len(rows) == len(stack))


class TestConstructors:
    def test_sep_unsteer_bilocal(self):
        cc = classical_correlated_decomposition(2)
        m = bell_swap_povm(2)
        model = build_sep_unsteer_bilocal(cc, werner(0.3), m)
        net = LinearNetwork([cc.state(), werner(0.3)], [m])
        assert _assemblage_deviation(model, net) < 1e-10

    @pytest.mark.parametrize(
        "pattern,kinds",
        [
            ("SEP-LOC-SEP", (SEP, LOC, SEP)),
            ("UNS-SEP-UNS", (UNS_LEFT, SEP, UNS_RIGHT)),
            ("SEP-UNS-UNS", (SEP, UNS_RIGHT, UNS_RIGHT)),
            ("UNS-UNS-SEP", (UNS_LEFT, UNS_LEFT, SEP)),
        ],
    )
    def test_triangle_patterns_match_quantum(self, pattern, kinds):
        slots = _slots(kinds)
        ms = [bell_swap_povm(2), bell_swap_povm(2)]
        model = build_triangle_patterns(pattern, slots, ms)
        net = LinearNetwork([s.state for s in slots], ms)
        assert _assemblage_deviation(model, net) < 1e-10

    def test_triangle_rejects_unknown_pattern(self):
        slots = _slots((SEP, LOC, SEP))
        ms = [bell_swap_povm(2), bell_swap_povm(2)]
        with pytest.raises(PatternError):
            build_triangle_patterns("LOC-LOC-LOC", slots, ms)

    def test_triangle_rejects_wrong_arity(self):
        slots = _slots((SEP, SEP))
        with pytest.raises(PatternError):
            build_triangle_patterns("SEP-LOC-SEP", slots, [bell_swap_povm(2)])

    @pytest.mark.parametrize(
        "pattern,kinds",
        [
            ("SEP-LOC-SEP", (SEP, LOC, SEP)),
            ("UNS-SEP-UNS", (UNS_LEFT, SEP, UNS_RIGHT)),
            ("SEP-UNS-UNS", (SEP, UNS_RIGHT, UNS_RIGHT)),
            ("UNS-UNS-SEP", (UNS_LEFT, UNS_LEFT, SEP)),
        ],
    )
    def test_percolation_agrees_with_triangle_route(self, pattern, kinds):
        # two structurally independent constructions of the same model class
        # must reproduce the same assemblage
        slots = _slots(kinds)
        ms = [bell_swap_povm(2), bell_swap_povm(2)]
        triangle = reconstruct(build_triangle_patterns(pattern, slots, ms))
        generic, _ = build_percolation_line(slots, ms)
        generic = reconstruct(generic)
        for k in triangle.elements:
            assert max_entry_distance(triangle.elements[k], generic.elements[k]) < 1e-10

    def test_percolation_longer_line(self):
        kinds = (UNS_LEFT, SEP, UNS_RIGHT, LOC, SEP)
        slots = _slots(kinds)
        ms = [bell_swap_povm(2)] * 4
        model, transcript = build_percolation_line(slots, ms)
        net = LinearNetwork([s.state for s in slots], ms)
        assert _assemblage_deviation(model, net) < 1e-10
        assert len(transcript) >= len(kinds)

    @pytest.mark.parametrize(
        "kinds", [(SEP, UNS_RIGHT, SEP), (SEP, SEP)], ids=["SEP-UNS-SEP", "SEP-SEP"]
    )
    def test_percolation_direct_response(self, kinds):
        # the last measurement is consumed by no slot, so it responds directly
        slots = _slots(kinds)
        ms = [bell_swap_povm(2)] * (len(kinds) - 1)
        model, transcript = build_percolation_line(slots, ms)
        net = LinearNetwork([s.state for s in slots], ms)
        assert _assemblage_deviation(model, net) < 1e-10
        assert any("direct response" in line for line in transcript)

    def test_percolation_rejects_measurement_conflict(self):
        slots = _slots((UNS_LEFT, UNS_RIGHT))
        with pytest.raises(PatternError):
            build_percolation_line(slots, [bell_swap_povm(2)])

    def test_percolation_rejects_measurement_off_the_hidden_states(self):
        # qubit hidden states on both sides of a qutrit swap
        w = werner_separable_decomposition(0.3)
        slots = [SourceSlot(SEP, werner(0.3), w), SourceSlot(UNS_RIGHT, werner(0.4))]
        with pytest.raises(DimensionError, match=r"measurement 0 acts on \(3, 3\), "
                                                 r"adjacent sources need \(2, 2\)"):
            build_percolation_line(slots, [bell_swap_povm(3)])

    def test_percolation_rejects_measurement_between_unequal_sources(self):
        cc, w = classical_correlated_decomposition(3), werner_separable_decomposition(0.3)
        slots = [SourceSlot(SEP, classical_correlated(3), cc), SourceSlot(SEP, werner(0.3), w)]
        with pytest.raises(DimensionError, match=r"measurement 0 acts on \(2, 2\), "
                                                 r"adjacent sources need \(3, 2\)"):
            build_percolation_line(slots, [bell_swap_povm(2)])

    @pytest.mark.parametrize("d", [2, 3], ids=["same-dims", "other-dims"])
    def test_percolation_rejects_sep_decomposition_of_another_state(self, d):
        # a classical-correlated decomposition handed over for a Werner source
        slots = [SourceSlot(SEP, werner(0.3), classical_correlated_decomposition(d)),
                 SourceSlot(SEP, werner(0.3), werner_separable_decomposition(0.3))]
        with pytest.raises(PatternError, match="slot 0: SEP decomposition does not "
                                               "reproduce the slot's state"):
            build_percolation_line(slots, [bell_swap_povm(2)])

    @pytest.mark.parametrize("kinds,bad", [((UNS_LEFT, UNS_LEFT, SEP), 0),
                                           ((UNS_LEFT, SEP, UNS_RIGHT), 2)],
                             ids=["UNS_LEFT", "UNS_RIGHT"])
    def test_percolation_rejects_uns_decomposition_of_another_state(self, monkeypatch, kinds, bad):
        # a Werner(0.3) decomposition handed over for a Werner(0.4) source, on
        # a line whose other UNS slot has no decomposition and is resolved
        # first: the check runs before any search
        cc, w = classical_correlated_decomposition(2), werner_separable_decomposition(0.3)
        slots = [SourceSlot(SEP, cc.state(), cc) if k == SEP
                 else SourceSlot(k, werner(0.4), w if i == bad else None)
                 for i, k in enumerate(kinds)]
        searches = []
        monkeypatch.setattr(nlhs, "_lhs_search", lambda *args: searches.append(args))
        with pytest.raises(PatternError, match=f"slot {bad}: {kinds[bad]} decomposition does "
                                               "not reproduce the slot's state"):
            build_percolation_line(slots, [bell_swap_povm(2)] * 2)
        assert searches == []

    def test_percolation_rejects_bad_endpoints(self):
        with pytest.raises(PatternError):
            build_percolation_line(
                _slots((UNS_RIGHT, SEP)), [bell_swap_povm(2)]
            )
        with pytest.raises(PatternError):
            build_percolation_line(
                _slots((SEP, UNS_LEFT)), [bell_swap_povm(2)]
            )


BUNDLED_TRANSCRIPTS = {
    "sep_loc_sep": [
        "slot 0: SEP resolved from decomposition",
        "slot 2: SEP resolved from decomposition",
        "slot 1: LOC resolved via measurements 0 and 1 "
        "(2 of 2 x-inputs and 2 of 2 y-inputs distinct)",
    ],
    "uns_sep_uns": [
        "slot 1: SEP resolved from decomposition",
        "slot 0: UNS_LEFT resolved via measurement 0",
        "slot 2: UNS_RIGHT resolved via measurement 1",
    ],
    "sep_uns_uns": [
        "slot 0: SEP resolved from decomposition",
        "slot 1: UNS_RIGHT resolved via measurement 0",
        "slot 2: UNS_RIGHT resolved via measurement 1",
    ],
    "uns_uns_sep": [
        "slot 2: SEP resolved from decomposition",
        "slot 1: UNS_LEFT resolved via measurement 1",
        "slot 0: UNS_LEFT resolved via measurement 0",
    ],
    "percolation_star_n6": [
        "slot 1: SEP resolved from decomposition",
        "slot 4: SEP resolved from decomposition",
        "slot 0: UNS_LEFT resolved via measurement 0",
        "slot 2: UNS_RIGHT resolved via measurement 1",
        "slot 3: LOC resolved via measurements 2 and 3 "
        "(3 of 10 x-inputs and 2 of 2 y-inputs distinct)",
    ],
}


def _valid_pattern(kinds):
    """The pattern rules, stated independently of the constructor: endpoint
    slots that give endpoint states, and no measurement claimed from both
    sides."""
    claims_right = (UNS_LEFT, LOC)
    claims_left = (UNS_RIGHT, LOC)
    return (kinds[0] in (SEP, UNS_LEFT) and kinds[-1] in (SEP, UNS_RIGHT)
            and not any(a in claims_right and b in claims_left
                        for a, b in zip(kinds, kinds[1:])))


class TestResolutionSchedule:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_transcripts(self, name):
        path = importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"
        _, slots, net = load_fixture(path)
        _, transcript = build_percolation_line(slots, net.central_measurements)
        assert transcript == BUNDLED_TRANSCRIPTS[name]

    def test_uns_left_sweep_precedes_uns_right(self):
        slots = _slots((UNS_LEFT, UNS_LEFT, SEP, UNS_RIGHT))
        _, transcript = build_percolation_line(slots, [bell_swap_povm(2)] * 3)
        assert transcript == [
            "slot 2: SEP resolved from decomposition",
            "slot 1: UNS_LEFT resolved via measurement 1",
            "slot 0: UNS_LEFT resolved via measurement 0",
            "slot 3: UNS_RIGHT resolved via measurement 2",
        ]

    def test_only_searched_uns_slots_print_a_count(self):
        # the same Werner(0.3) source, once with its decomposition and once
        # without; slot 1 passes on the decomposition's ten right states, six
        # Pauli eigenprojectors and four flags equal to Z's, so six inputs
        cc, w = classical_correlated_decomposition(2), werner_separable_decomposition(0.3)
        slots = [SourceSlot(SEP, cc.state(), cc), SourceSlot(UNS_RIGHT, werner(0.3), w),
                 SourceSlot(UNS_RIGHT, werner(0.3))]
        _, transcript = build_percolation_line(slots, [bell_swap_povm(2)] * 2)
        assert transcript == [
            "slot 0: SEP resolved from decomposition",
            "slot 1: UNS_RIGHT resolved via measurement 0",
            "slot 2: UNS_RIGHT resolved via measurement 1 (6 of 10 inputs distinct)",
        ]

    def test_every_pattern_of_two_to_five_sources(self):
        cc = classical_correlated_decomposition(2)
        w = werner_separable_decomposition(0.3)
        slot = {SEP: (cc.state(), cc), LOC: (cc.state(), cc),
                UNS_LEFT: (werner(0.3), w), UNS_RIGHT: (werner(0.3), w)}
        m = bell_swap_povm(2)
        valid = invalid = 0
        for n_src in range(2, 6):
            for kinds in itertools.product((SEP, UNS_RIGHT, UNS_LEFT, LOC), repeat=n_src):
                slots = [SourceSlot(k, *slot[k]) for k in kinds]
                ms = [m] * (n_src - 1)
                if not _valid_pattern(kinds):
                    with pytest.raises(PatternError):
                        build_percolation_line(slots, ms)
                    invalid += 1
                    continue
                model, transcript = build_percolation_line(slots, ms)
                quantum = line_assemblage(LinearNetwork([s.state for s in slots], ms))
                rebuilt = reconstruct(model)
                assert (rebuilt.outcomes, rebuilt.dims) == (quantum.outcomes, quantum.dims)
                assert np.max(np.abs(rebuilt.matrices - quantum.matrices)) <= 1e-10, kinds
                resolved = [line.split(":")[0] for line in transcript if line.startswith("slot")]
                assert sorted(resolved) == [f"slot {i}" for i in range(n_src)], kinds
                valid += 1
        assert (valid, invalid) == (120, 1240)


class TestSoundness:
    def test_fuzzed_models_never_certified(self):
        from netsteer.certificates import certify_network_steering

        rng = np.random.default_rng(2024)
        for _ in range(30):
            model = random_model(rng, n_parties=int(rng.integers(3, 6)))
            verdict = certify_network_steering(reconstruct(model))
            assert not verdict.certified


class TestSeparabilize:
    def test_endpoint_probabilities_preserved(self, rng):
        for _ in range(20):
            rho = rand_density(rng, (2, 3))
            m_a = pauli_projective(Z)
            rho_sep, flag_povm = separabilize_endpoint(rho, m_a)
            for a in range(m_a.n_outcomes):
                for _ in range(5):
                    eff = rand_psd(rng, [3])
                    p_orig = np.trace(
                        np.kron(m_a.matrices[a], eff.matrix) @ rho.matrix
                    ).real
                    p_new = np.trace(
                        np.kron(flag_povm.matrices[a], eff.matrix)
                        @ rho_sep.matrix
                    ).real
                    assert abs(p_orig - p_new) < 1e-12

    def test_flag_state_is_block_diagonal(self, rng):
        rho = rand_density(rng, (2, 2))
        rho_sep, _ = separabilize_endpoint(rho, pauli_projective(Z))
        assert rho_sep.dims == (2, 2)
        assert np.allclose(rho_sep.matrix[0:2, 2:4], 0)
        assert abs(np.trace(rho_sep.matrix) - 1.0) < 1e-12
        assert negativity(rho_sep.matrix, rho_sep.dims) == 0.0

    @pytest.mark.parametrize("n_out", [2, 3, 4])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_flag_state_equals_block_diag_bytes(self, dims, n_out):
        from scipy.linalg import block_diag

        rng = np.random.default_rng(10 * n_out + dims[0] + 3 * dims[1])
        rho = rand_density(rng, dims)
        # n_out random PSD matrices rescaled to sum to the identity
        gs = [rand_psd(rng, [dims[0]]).matrix for _ in range(n_out)]
        w, v = np.linalg.eigh(sum(gs))
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        m_a = POVM([QOperator(inv_sqrt @ g @ inv_sqrt, [dims[0]]) for g in gs])
        rho_sep, _ = separabilize_endpoint(rho, m_a)
        steered = standard_assemblage(rho, [m_a], "left")[:, 0]
        assert rho_sep.matrix.tobytes() == block_diag(*steered).tobytes()

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            separabilize_endpoint(rand_density(rng, (3, 2)), pauli_projective(Z))


class TestRealization:
    def test_round_trip_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            model = random_model(rng, n_parties=int(rng.integers(3, 6)))
            real = nlhs_to_separable_realization(model)
            realized = line_assemblage(realization_network(real))
            target = reconstruct(model)
            for k in target.elements:
                assert max_entry_distance(
                    realized.elements[k], target.elements[k]
                ) < 1e-10

    def test_sources_carry_zero_negativity(self):
        rng = np.random.default_rng(78)
        model = random_model(rng, n_parties=4)
        real = nlhs_to_separable_realization(model)
        for src in realization_network(real).sources:
            assert negativity(src.matrix, src.dims) == 0.0

    def test_certificates_cover_all_measurements(self):
        rng = np.random.default_rng(79)
        model = random_model(rng, n_parties=4)
        real = nlhs_to_separable_realization(model)
        net = realization_network(real)
        assert len(real.measurement_certificates) == len(net.central_measurements)
        assert len(real.source_decompositions) == len(net.sources)

    @staticmethod
    def _check_diagonal(model):
        real = nlhs_to_separable_realization(model)
        for cert, resp, labels in zip(real.measurement_certificates, model.responses,
                                      model.outcome_labels, strict=True):
            oracle = diagonal_effects(resp)
            assert cert.matrices.shape == oracle.shape and cert.dims == resp.shape[1:]
            assert cert.matrices.tobytes() == oracle.tobytes()
            assert cert.outcome_labels == labels

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_certificates_match_diagonal_oracle_on_fixture(self, path):
        _, slots, net = load_fixture(path)
        self._check_diagonal(build_percolation_line(slots, net.central_measurements)[0])

    def test_certificates_match_diagonal_oracle_on_random_models(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            self._check_diagonal(random_model(rng, n_parties=int(rng.integers(3, 6))))


def _snapshot_fixtures(directory: Path) -> dict:
    """The extra fixtures of ``tools/cli_snapshot.py``, written into
    ``directory``: name -> path."""
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    paths = {}
    for name, (pattern, sources, povms) in snapshot.EXTRA_FIXTURES.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(
            {"pattern": pattern, "sources": sources, "measurements": povms}))
    return paths


def _assert_same(got, want):
    """Equal field by field: arrays by dtype, shape, bytes and write flag,
    tuples entry by entry, anything else by type and value."""
    if isinstance(want, np.ndarray):
        _same_bits(got, want)
        assert got.flags.writeable == want.flags.writeable
    elif isinstance(want, tuple):
        assert type(got) is tuple and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif hasattr(want, "__dataclass_fields__"):
        assert type(got) is type(want)
        for name in want.__dataclass_fields__:
            _assert_same(getattr(got, name), getattr(want, name))
    else:
        assert type(got) is type(want) and got == want


def _through_public_constructor(obj):
    """``obj`` built again from its own fields by its public constructor,
    every check of which must pass."""
    if isinstance(obj, SeparableDecomposition):
        return SeparableDecomposition(obj.weights, obj.left_states, obj.right_states)
    if isinstance(obj, SeparableMeasurement):
        return SeparableMeasurement(obj.terms, obj.outcome_labels)
    return POVM([QOperator(m, obj.dims) for m in obj.matrices], obj.outcome_labels)


class TestTranscriptCounts:
    """Every count of inputs the transcript prints is the ``distinct_inputs``
    recount of what its search was handed: the steered states of each input
    of an UNS search, each formed by the single-matrix ``apply_and_trace``
    oracle, and the x- and y-slices of a LOC search's full behaviour.  Each
    search prints one line of counts and nothing else prints one."""

    @staticmethod
    def _recount(name, args):
        if name == "solve_lhv":
            (behavior,) = args
            return [(len(distinct_inputs(np.moveaxis(behavior, axis, 0))[0]), behavior.shape[axis])
                    for axis in (2, 3)]
        rho, effects, measured = args
        dim = rho.dims[measured]
        steered = np.array([[apply_and_trace(rho, QOperator(e, [dim]), measured).matrix
                             for e in povm] for povm in effects])
        return [(len(distinct_inputs(steered)[0]), len(effects))]

    def _check(self, monkeypatch, paths):
        searches = []
        for fn in (nlhs._lhs_search, nlhs.solve_lhv):
            def spy(*args, fn=fn):
                searches.append((fn.__name__, args))
                return fn(*args)
            monkeypatch.setattr(nlhs, fn.__name__, spy)
        for path in paths:
            searches.clear()
            _, slots, net = load_fixture(path)
            _, transcript = build_percolation_line(slots, net.central_measurements)
            printed = [[tuple(map(int, pair)) for pair in re.findall(r"(\d+) of (\d+)", line)]
                       for line in transcript if " of " in line]
            assert printed == [self._recount(*search) for search in searches], path

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_fixture(self, monkeypatch, path):
        self._check(monkeypatch, [path])

    def test_snapshot_fixtures(self, monkeypatch, tmp_path):
        self._check(monkeypatch, _snapshot_fixtures(tmp_path).values())


class TestUncheckedPartsPassTheChecks:
    """What the closed forms and the realisation no longer check: each of
    their decompositions, certificates and POVMs passes its public
    constructor's checks, and is the object that constructor builds, field
    by field and byte for byte."""

    @staticmethod
    def _check(*objs):
        for obj in objs:
            _assert_same(obj, _through_public_constructor(obj))

    def _check_model(self, model):
        real = nlhs_to_separable_realization(model)
        self._check(*real.source_decompositions, *real.measurement_certificates)

    def _check_fixture(self, path):
        _, slots, net = load_fixture(path)
        self._check(*(s.decomposition for s in slots if s.decomposition is not None),
                    *net.central_measurements)
        self._check_model(build_percolation_line(slots, net.central_measurements)[0])

    @pytest.mark.parametrize("path", FIXTURES.values(), ids=FIXTURES.keys())
    def test_fixture(self, path):
        self._check_fixture(path)

    def test_snapshot_fixtures(self, tmp_path):
        for path in _snapshot_fixtures(tmp_path).values():
            self._check_fixture(path)

    def test_random_models(self):
        rng = np.random.default_rng(2027)
        for n_parties in (2, 3, 4, 5, 6):
            for n_outcomes in (1, 2, 3):
                self._check_model(random_model(rng, n_parties=n_parties, max_hidden=4,
                                               n_outcomes=n_outcomes,
                                               endpoint_dim=int(rng.integers(1, 4))))

    def test_responses_at_the_model_tolerance(self):
        # zeros of both signs and a response entry of -1e-11, which the
        # realisation clips to +0.0
        resp = np.array([[[1.0, -1e-11], [-0.0, 0.5]], [[0.0, 1.0], [1.0, 0.5]]])
        states = [np.eye(2) / 2] * 2
        self._check_model(NLHSModel([[0.5, 0.5]] * 2, [resp], states, states))

    @pytest.mark.parametrize("omega", [0.0, 0.1, 0.3, 1 / 3, 1 / 3 + 1e-12])
    def test_werner_decomposition(self, omega):
        dec = werner_separable_decomposition(omega)
        self._check(dec)
        assert max_entry_distance(dec.state(), werner(min(omega, 1 / 3))) < 1e-11
        # (P+, P-) and (P-, P+) of X, Y and Z, then |i><i| (x) |j><j|, through the constructor
        proj = [[(np.eye(2) + sign * s) / 2 for sign in (1, -1)] for s in PAULIS]
        flags = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        _assert_same(dec, SeparableDecomposition(
            [3 * omega / 6] * 6 + [(1 - 3 * omega) / 4] * 4,
            [p[a] for p in proj for a in (0, 1)] + [flags[i] for i in (0, 0, 1, 1)],
            [p[1 - a] for p in proj for a in (0, 1)] + [flags[j] for j in (0, 1, 0, 1)]))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_classical_correlated_decomposition(self, d):
        dec = classical_correlated_decomposition(d)
        self._check(dec)
        # sum_x |xx><xx| / d, for d = 1 too, which ``classical_correlated`` refuses
        diag = np.arange(d) * (d + 1)
        assert dec.state().matrix.tobytes() == np.diag(np.isin(np.arange(d * d), diag) / d
                                                       ).astype(complex).tobytes()

    @pytest.mark.parametrize("local_dim", range(2, 6))
    def test_bell_swap_povm(self, local_dim):
        povm = bell_swap_povm(local_dim)
        self._check(povm)
        # the swap measurement as built through POVM, its complement from the projector
        d = local_dim
        v = np.zeros(d * d, dtype=complex)
        v[1], v[d] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        m0 = projector(v, [d, d])
        _assert_same(povm, POVM([m0, QOperator(np.eye(d * d) - m0.matrix, [d, d])], (0, 1)))

    @pytest.mark.parametrize("d", range(1, 5))
    def test_computational_fixture_measurement(self, d):
        povm = _build_measurement({"kind": "computational", "d": d})
        self._check(povm)
        _assert_same(povm, POVM([projector(basis_ket(i, d * d), [d, d]) for i in range(d * d)]))
