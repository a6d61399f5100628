import numpy as np
import pytest

from netsteer.measurements import (
    POVM,
    InvalidPOVMError,
    SeparableMeasurement,
    bell_swap_povm,
    computational_basis_povm,
    input_encoded_measurement,
    pauli_projective,
)
from netsteer.operators import (
    DimensionError,
    QOperator,
    projector,
    basis_ket,
)
from netsteer.states import psi_minus

from conftest import identity, rand_density
from nlhs_oracles import induced_measurement


class TestPOVMValidation:
    def test_accepts_projective(self):
        povm = computational_basis_povm(3)
        assert povm.n_outcomes == 3
        assert povm.outcome_labels == (0, 1, 2)

    def test_rejects_incomplete(self):
        half = QOperator(np.eye(2) / 2, [2])
        with pytest.raises(InvalidPOVMError):
            POVM([half])

    def test_of_diagonals_matches_constructor(self):
        diagonals = np.array([[0.25, 1.0, 0.0, 0.5], [0.75, 0.0, 1.0, 0.5]])
        povm = SeparableMeasurement(_diagonal_terms(diagonals, (2, 2)), ("a", "b"))
        reference = POVM([QOperator(np.diag(d), (2, 2)) for d in diagonals], ("a", "b"))
        assert povm.outcome_labels == reference.outcome_labels
        assert povm.dims == reference.dims
        assert povm.matrices.tobytes() == reference.matrices.tobytes()

    @pytest.mark.parametrize(
        "diagonals,message",
        [([[0.5, 1.0], [0.4, 0.0]], "sum to the identity"),
         ([[1.5, 1.0], [-0.5, 0.0]], "factor not PSD")],
        ids=["incomplete", "negative"],
    )
    def test_of_diagonals_rejects(self, diagonals, message):
        with pytest.raises(InvalidPOVMError, match=message):
            SeparableMeasurement(_diagonal_terms(diagonals, (1, 2)))

    def test_of_diagonals_rejects_nan(self):
        # a NaN never sums to the identity, so completeness rejects it first
        with pytest.raises(InvalidPOVMError, match="sum to the identity"):
            SeparableMeasurement(_diagonal_terms([[np.nan, 1.0], [1.0, 0.0]], (1, 2)))

    def test_matrices_are_read_only(self):
        povm = bell_swap_povm(2)
        assert povm.matrices.shape == (2, 4, 4) and povm.matrices.dtype == complex
        assert povm.dims == (2, 2)
        assert not povm.matrices.flags.writeable
        with pytest.raises(ValueError):
            povm.matrices[0, 0, 0] = 1.0

    def test_rejects_non_psd_effect(self):
        e0 = QOperator(np.diag([1.5, -0.5]), [2])
        e1 = QOperator(np.diag([-0.5, 1.5]), [2])
        with pytest.raises(InvalidPOVMError):
            POVM([e0, e1])

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_psd_effect_at(self, position):
        bad = QOperator(np.diag([0.5, -0.1]), [2])
        good = [QOperator(np.diag([0.5, 0.55]), [2]), QOperator(np.diag([0.0, 0.55]), [2])]
        effects = [bad] + good if position == "first" else good + [bad]
        with pytest.raises(InvalidPOVMError, match="positive semidefinite"):
            POVM(effects)

    def test_rejects_non_hermitian_effect(self):
        e0 = QOperator(np.array([[0.5, 0.3], [0.0, 0.5]]), [2])
        e1 = QOperator(np.array([[0.5, -0.3], [0.0, 0.5]]), [2])
        with pytest.raises(InvalidPOVMError, match="positive semidefinite"):
            POVM([e0, e1])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(InvalidPOVMError):
            POVM([identity([2])], outcome_labels=("a", "b"))


class TestBellSwap:
    def test_qubit_singlet_effect(self):
        povm = bell_swap_povm(2)
        assert np.array_equal(povm.matrices[0], psi_minus().matrix)
        assert np.allclose(
            povm.matrices[0] + povm.matrices[1], np.eye(4)
        )

    def test_qutrit_embedding(self):
        povm = bell_swap_povm(3)
        e0 = povm.matrices[0]
        assert e0[1, 1] == e0[3, 3] == pytest.approx(0.5)
        assert e0[1, 3] == e0[3, 1] == pytest.approx(-0.5)
        assert np.trace(e0) == pytest.approx(1.0)
        assert povm.dims == (3, 3)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            bell_swap_povm(1)


class TestInputEncoded:
    def test_block_structure(self):
        subs = [pauli_projective((0, 0, 1)), pauli_projective((1, 0, 0))]
        m = input_encoded_measurement(subs, 2)
        assert m.dims == (2, 2)
        for b in range(2):
            mat = m.matrices[b]
            for x in range(2):
                block = mat[2 * x:2 * x + 2, 2 * x:2 * x + 2]
                assert np.allclose(block, subs[x].matrices[b])
            # off-diagonal blocks vanish
            assert np.allclose(mat[0:2, 2:4], 0)

    def test_rejects_count_mismatch(self):
        with pytest.raises(InvalidPOVMError):
            input_encoded_measurement([pauli_projective((0, 0, 1))], 2)

    def test_rejects_mixed_outcome_counts(self):
        with pytest.raises(InvalidPOVMError):
            input_encoded_measurement(
                [pauli_projective((0, 0, 1)), computational_basis_povm(2),
                 computational_basis_povm(3)],
                3,
            )


class TestPauliProjective:
    def test_z_axis_is_computational(self):
        povm = pauli_projective((0.0, 0.0, 1.0))
        assert np.allclose(povm.matrices[0], np.diag([1.0, 0.0]))
        assert np.allclose(povm.matrices[1], np.diag([0.0, 1.0]))

    def test_effects_project_along_axis(self):
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        povm = pauli_projective(axis)
        obs = povm.matrices[0] - povm.matrices[1]
        evs = np.linalg.eigvalsh(obs)
        assert np.allclose(evs, [-1.0, 1.0])

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            pauli_projective((0.0, 0.0, 2.0))


class TestInduced:
    def test_maximally_mixed_hidden_state(self):
        povm = bell_swap_povm(2)
        ind = induced_measurement(povm, np.eye(2) / 2, side="left")
        # Tr_A[psi_minus (I/2 x 1)] = I/4
        assert np.allclose(ind.matrices[0], np.eye(2) / 4)
        assert np.allclose(ind.matrices[1], 3 * np.eye(2) / 4)

    def test_projective_hidden_state_steers(self):
        povm = bell_swap_povm(2)
        up = projector(basis_ket(0, 2), [2])
        ind = induced_measurement(povm, up.matrix, side="left")
        # <0| psi_minus |0> on the left factor leaves |1><1| / 2
        assert np.allclose(ind.matrices[0], np.diag([0.0, 0.5]))

    def test_completeness_inherited(self, rng):
        povm = bell_swap_povm(3)
        ind = induced_measurement(povm, rand_density(rng, [3]).matrix, side="right")
        total = ind.matrices.sum(axis=0)
        assert np.allclose(total, np.eye(3))

    def test_rejects_one_factor_povm(self):
        with pytest.raises(ValueError):
            induced_measurement(
                computational_basis_povm(2), np.eye(2), side="left"
            )

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            induced_measurement(bell_swap_povm(2), rand_density(rng, [3]).matrix, "left")


def _diagonal_certificate():
    """A valid product certificate of the two-outcome POVM on (2, 2) of
    diag(1, 0, 0, 0) and its complement."""
    p00 = projector(basis_ket(0, 2), [2])
    p11 = projector(basis_ket(1, 2), [2])
    return [[(p00, p00)], [(p00, p11), (p11, identity([2]))]]


def _split(pair, side):
    """(l, r) as (2l, r) + (-l, r), or the same on the right: the sum is
    unchanged but one factor is not PSD."""
    left, right = pair
    if side == "left":
        return [(QOperator(2 * left.matrix, left.dims), right),
                (QOperator(-left.matrix, left.dims), right)]
    return [(left, QOperator(2 * right.matrix, right.dims)),
            (left, QOperator(-right.matrix, right.dims))]


def _stacked(terms):
    """Per-effect lists of (left, right) operator pairs as the certificate's
    (left stack, right stack) pairs; every list must be non-empty."""
    return [(np.array([l.matrix for l, _ in pairs]), np.array([r.matrix for _, r in pairs]))
            for pairs in terms]


def _diagonal_terms(diagonals, dims):
    """Certificate of the effects diag(d_b) on ``dims``, one row d_b of
    ``diagonals`` per outcome: effect b is sum_a |a><a| (x) diag(d_b[a, :])
    with d_b read as a dims[0] x dims[1] table, one term per left flag."""
    rows = np.asarray(diagonals, dtype=float).reshape((len(diagonals),) + tuple(dims))
    flags = np.eye(dims[0])[:, :, None] * np.eye(dims[0])[:, None, :]
    return [(flags, r[:, :, None] * np.eye(dims[1])) for r in rows]


class TestSeparableMeasurement:
    def test_valid_certificate(self):
        povm = computational_basis_povm(2)
        # lift to a product POVM on (2, 1)-shaped factors is overkill; use a
        # two-factor diagonal POVM instead
        e0 = QOperator(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        e1 = QOperator(np.eye(4) - e0.matrix, (2, 2))
        povm2 = POVM([e0, e1])
        p00 = projector(basis_ket(0, 2), [2])
        p11 = projector(basis_ket(1, 2), [2])
        eye = identity([2])
        terms = [
            [(p00, p00)],
            [(p00, p11), (p11, eye)],
        ]
        cert = SeparableMeasurement(_stacked(terms))
        assert isinstance(cert, POVM)
        assert cert.dims == povm2.dims and cert.outcome_labels == povm2.outcome_labels
        assert np.array_equal(cert.matrices, povm2.matrices)

    def test_rejects_bad_certificate(self):
        eye = identity([2])
        with pytest.raises(InvalidPOVMError):
            SeparableMeasurement(_stacked([[(eye, eye)], [(eye, eye)]]))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_rejects_non_psd_factor_at(self, side, position):
        terms = _diagonal_certificate()
        SeparableMeasurement(_stacked(terms))
        if position == "first":
            terms[0] = _split(terms[0][0], side) + terms[0][1:]
        else:
            terms[-1] = terms[-1][:-1] + _split(terms[-1][-1], side)
        with pytest.raises(InvalidPOVMError, match="factor not PSD"):
            SeparableMeasurement(_stacked(terms))

    def test_valid_certificate_unequal_factor_dims(self):
        # effects on (2, 3): |0><0| (x) diag(1, 0, 0) + |1><1| (x) diag(0, 1, 1)
        # and its complement
        p0, p1 = (projector(basis_ket(i, 2), [2]) for i in range(2))
        a = QOperator(np.diag([1.0, 0.0, 0.0]), [3])
        b = QOperator(np.diag([0.0, 1.0, 1.0]), [3])
        e0 = QOperator(np.kron(p0.matrix, a.matrix) + np.kron(p1.matrix, b.matrix), (2, 3))
        e1 = QOperator(np.eye(6) - e0.matrix, (2, 3))
        povm = POVM([e0, e1])
        cert = SeparableMeasurement(_stacked([[(p0, a), (p1, b)], [(p0, b), (p1, a)]]))
        assert cert.dims == (2, 3) and np.array_equal(cert.matrices, povm.matrices)

    def test_rejects_swapped_factor_order(self):
        # |0><0| (x) |1><1| is not |1><1| (x) |0><0|
        p0, p1 = (projector(basis_ket(i, 2), [2]) for i in range(2))
        e0 = QOperator(np.kron(p0.matrix, p1.matrix), (2, 2))
        povm = POVM([e0, QOperator(np.eye(4) - e0.matrix, (2, 2))])
        rest = [(p0, p0), (p1, identity([2]))]
        cert = SeparableMeasurement(_stacked([[(p0, p1)], rest]))
        assert np.array_equal(cert.matrices, povm.matrices)
        assert not np.array_equal(cert.matrices[0], np.kron(p1.matrix, p0.matrix))

    def test_rejects_factors_off_the_povm_dims(self):
        # 1_4 (x) [1] is the identity on C^4, but not a product on (2, 2)
        none = np.zeros((0, 2, 2))
        with pytest.raises(DimensionError, match="equally many factors"):
            SeparableMeasurement([(np.eye(4)[None], np.ones((1, 1, 1))), (none, none)])
        with pytest.raises(DimensionError, match="equally many factors"):
            SeparableMeasurement([(np.stack([np.eye(2)] * 2), np.eye(2)[None]), (none, none)])

    def test_accepts_empty_terms_for_zero_effect(self):
        none = np.zeros((0, 2, 2))
        terms = _stacked([[(identity([2]), identity([2]))]]) + [(none, none)]
        cert = SeparableMeasurement(terms)
        assert [len(factors) for factors in cert.terms[1]] == [0, 0]

    def test_rejects_all_empty_certificate_as_incomplete(self):
        none = np.zeros((0, 2, 2))
        with pytest.raises(InvalidPOVMError, match="sum to the identity"):
            SeparableMeasurement([(none, none), (none, none)])

    def test_rejects_no_effects(self):
        with pytest.raises(DimensionError, match="equally many factors"):
            SeparableMeasurement([])

    def test_labels_checked(self):
        terms = _stacked(_diagonal_certificate())
        assert SeparableMeasurement(terms, ("a", "b")).outcome_labels == ("a", "b")
        with pytest.raises(InvalidPOVMError, match="one label per effect"):
            SeparableMeasurement(terms, ("a",))
