import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsteer.operators import (
    CHECK_BLOCK_BYTES,
    NEG_CUTOFF,
    PAULI_X,
    PAULI_Z,
    DimensionError,
    NotHermitianError,
    NotPositiveError,
    QOperator,
    TOL_CHECK,
    TOL_EQ,
    TOL_NORM,
    basis_ket,
    is_density,
    projector,
    _apply_and_trace,
    _hermitian,
    _negativities,
    _psd_cleared,
    _psd_screened,
    _transpose_factors,
)
from netsteer.measurements import POVM
from netsteer.network import NetworkAssemblage
from netsteer.nlhs import NLHSModel, SeparableDecomposition
from netsteer.states import werner

from conftest import (apply_and_trace, haar_unitary, hermitian_eigenvalues, identity,
                      max_entry_distance, negativity, partial_trace, rand_density, rand_psd,
                      spectral_extremes, tensor)


def _negativity(op):
    """``_negativities`` of one operator over factor 1, from its Hermitian
    part, its precondition read from the operator's own extremes."""
    mats = op.matrix[None]
    return _negativities(_hermitian(mats), op.dims, spectral_extremes(mats))[0]


class TestQOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            QOperator(np.zeros((2, 3)), [2])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            QOperator(np.eye(4), [2, 3])

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(DimensionError):
            QOperator(np.eye(2), [2, 0])

    def test_matrix_is_read_only(self):
        op = identity([2])
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_nfactors(self):
        assert QOperator(np.diag([1.0, 2.0, 3.0, 4.0]), [2, 2]).nfactors == 2


class TestTensorAndPartials:
    def test_tensor_is_kron(self, rng):
        a = rand_psd(rng, [2])
        b = rand_psd(rng, [3])
        c = tensor(a, b)
        assert c.dims == (2, 3)
        assert np.allclose(c.matrix, np.kron(a.matrix, b.matrix))

    def test_tensor_varargs(self):
        out = tensor(identity([2]), identity([3]), identity([2]))
        assert out.dims == (2, 3, 2)
        assert np.allclose(out.matrix, np.eye(12))

    def test_partial_trace_of_product(self, rng):
        a = rand_density(rng, [2])
        b = rand_density(rng, [3])
        ab = tensor(a, b)
        assert max_entry_distance(partial_trace(ab, keep=[0]), a) < 1e-12
        assert max_entry_distance(partial_trace(ab, keep=[1]), b) < 1e-12

    def test_partial_trace_everything(self, rng):
        op = rand_psd(rng, [2, 2])
        out = partial_trace(op, keep=[])
        assert out.dims == (1,)
        assert abs(out.matrix[0, 0] - np.trace(op.matrix)) < 1e-12

    def test_partial_trace_bad_factor(self):
        with pytest.raises(DimensionError):
            partial_trace(identity([2, 2]), keep=[2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_partial_trace_preserves_trace(self, seed):
        rng = np.random.default_rng(seed)
        op = rand_psd(rng, [2, 3, 2])
        for keep in ([0], [1], [0, 2], [0, 1, 2]):
            out = partial_trace(op, keep=keep)
            assert abs(np.trace(out.matrix) - np.trace(op.matrix)) < 1e-10

    def test_partial_transpose_involution(self, rng):
        op = rand_psd(rng, [2, 3])
        back = _transpose_factors(_transpose_factors(op.matrix, op.dims, [1]), op.dims, [1])
        assert np.max(np.abs(back - op.matrix)) == 0.0

    def test_partial_transpose_all_factors_is_transpose(self, rng):
        op = rand_psd(rng, [2, 3])
        full = _transpose_factors(op.matrix, op.dims, [0, 1])
        assert np.allclose(full, op.matrix.T)

    def test_partial_transpose_product_acts_locally(self, rng):
        a = rand_psd(rng, [2])
        b = rand_psd(rng, [3])
        pt = _transpose_factors(tensor(a, b).matrix, (2, 3), [1])
        assert np.allclose(pt, np.kron(a.matrix, b.matrix.T))


class TestApplyAndTrace:
    @staticmethod
    def _rand_op(rng, dims):
        d = int(np.prod(dims))
        return QOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), dims)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 2)])
    @pytest.mark.parametrize("factor", [0, 1])
    def test_matches_definition(self, rng, dims, factor):
        for _ in range(3):
            op = self._rand_op(rng, dims)
            local = self._rand_op(rng, [dims[factor]])
            eye = np.eye(dims[1 - factor])
            full = np.kron(local.matrix, eye) if factor == 0 else np.kron(eye, local.matrix)
            expected = partial_trace(QOperator(full @ op.matrix, dims), keep=[1 - factor])
            # by cyclicity inside the partial trace the order does not matter
            swapped = partial_trace(QOperator(op.matrix @ full, dims), keep=[1 - factor])
            got = apply_and_trace(op, local, factor)
            assert got.dims == (dims[1 - factor],)
            assert max_entry_distance(got, expected) < 1e-12
            assert max_entry_distance(got, swapped) < 1e-12

    def test_rejects_local_dim_mismatch(self, rng):
        op = self._rand_op(rng, (2, 3))
        with pytest.raises(DimensionError):
            apply_and_trace(op, self._rand_op(rng, [3]), 0)
        with pytest.raises(DimensionError):
            apply_and_trace(op, self._rand_op(rng, [2]), 1)

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 2)])
    def test_rejects_non_bipartite_operator(self, rng, dims):
        with pytest.raises(DimensionError):
            apply_and_trace(self._rand_op(rng, dims), self._rand_op(rng, [dims[0]]), 0)

    @pytest.mark.parametrize("lead", [(), (4,), (3, 2)], ids=["single", "stack", "grid"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("factor", [0, 1])
    def test_stacked_equals_single_matrix_oracle(self, rng, dims, factor, lead):
        d, side = dims[factor], dims[0] * dims[1]
        mats = rng.normal(size=(3, side, side)) + 1j * rng.normal(size=(3, side, side))
        shape = lead + (d, d)
        local = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stacks = [local]
        if len(lead) == 2:
            # the same values as a swapaxes view of the lead axes, the
            # non-contiguous form standard_assemblage and the resolver pass
            view = np.ascontiguousarray(local.swapaxes(0, 1)).swapaxes(0, 1)
            assert not view.flags.c_contiguous and np.array_equal(view, local)
            stacks.append(view)
        for stack in stacks:
            got = _apply_and_trace(mats, dims, stack, factor)
            assert got.shape == (3,) + lead + (dims[1 - factor],) * 2
            for n, idx in itertools.product(range(3), np.ndindex(*lead)):
                want = apply_and_trace(QOperator(mats[n], dims),
                                       QOperator(stack[idx], [d]), factor).matrix
                assert got[(n,) + idx].tobytes() == want.tobytes()


class TestSpectra:
    def test_eigenvalues_sorted(self):
        op = QOperator(np.diag([3.0, -1.0, 2.0]), [3])
        assert np.allclose(hermitian_eigenvalues(op), [-1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        op = QOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), [2])
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(op)

    def test_singlet_pt_spectrum(self):
        # frozen oracle: eigvalsh of the partially transposed singlet
        pt = _transpose_factors(werner(1.0).matrix, (2, 2), [1])
        evs = hermitian_eigenvalues(QOperator(pt, (2, 2)))
        assert np.allclose(evs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("omega", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_negativity_closed_form(self, omega):
        # frozen oracle: PT spectrum of the Werner family gives
        # negativity max(0, (3 omega - 1) / 4)
        expected = max(0.0, (3 * omega - 1) / 4)
        assert abs(_negativity(werner(omega)) - expected) < 1e-12

    def test_negativity_rejects_non_psd(self):
        op = QOperator(np.diag([1.0, -0.5, 0.3, 0.2]), [2, 2])
        with pytest.raises(NotPositiveError):
            _negativity(op)

    def test_non_finite_is_not_hermitian(self):
        # a NaN defect fails every comparison, so it must not pass as Hermitian:
        # the PSD check refuses the stack even without a tolerance, so no
        # Hermitian part of it reaches ``_negativities``
        mats = np.full((1, 4, 4), np.nan, dtype=complex)
        with pytest.raises(NotHermitianError, match="nan"):
            _hermitian(mats)
        assert _psd_screened(mats, np.inf) is None

    def test_symmetrised_as_the_halved_sum(self, rng):
        # (M + M^dagger) / 2 byte for byte, the sign of every zero included:
        # entries drawn from signed zeros, subnormals and large values, with
        # the signs of the zeros of each pair (ij, ji) drawn apart
        values = [0.0, -0.0, 5e-324, -5e-324, 3e-308, -3e-308, 1.5, -1.5, 1e300, -1e300]
        mats = np.empty((60, 4, 4), dtype=complex)
        mats.real = rng.choice(values, mats.shape)
        mats.imag = rng.choice(values, mats.shape)
        upper = np.triu_indices(4, 1)
        mats[:, upper[0], upper[1]] = mats[:, upper[1], upper[0]].conj()
        for part in (mats.real, mats.imag):
            part[(part == 0) & (rng.random(mats.shape) < 0.5)] *= -1.0
        mats.imag[:, range(4), range(4)] = rng.choice([0.0, -0.0], (60, 4))
        assert (np.signbit(mats.real) != np.signbit(mats.real.swapaxes(1, 2))).any()
        want = (mats + mats.conj().swapaxes(-1, -2)) / 2
        assert _hermitian(mats).tobytes() == want.tobytes()
        assert _hermitian(mats[0]).tobytes() == want[0].tobytes()
        real = mats.real.copy()
        real[:, upper[0], upper[1]] = real[:, upper[1], upper[0]]
        assert _hermitian(real).tobytes() == ((real + real.swapaxes(-1, -2)) / 2).tobytes()

    def test_negativity_zero_for_separable(self, rng):
        a = rand_density(rng, [2])
        b = rand_density(rng, [2])
        assert _negativity(tensor(a, b)) <= NEG_CUTOFF


class TestOneHermitianPart:
    """The negativity verdict partial-transposes the Hermitian parts the PSD
    check formed instead of symmetrising the partial transposes again.  That
    is exact: the partial transpose of ``_hermitian(M)`` is
    ``_hermitian`` of the partial transpose of M, byte for byte, and the two
    Hermiticity defects are one number, so the check of M is the check of
    its partial transpose."""

    # signed zeros, subnormals, huge and plain values
    VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 0.75, -1.5]
    # non-Hermitian noise within TOL_HERM, subnormal noise included
    NOISE = [0.0, -0.0, 5e-324, 1e-12, -3e-11, 4e-10]

    def _stack(self, rng, d, n=40):
        """n near-Hermitian complex d x d matrices: Hermitian entries drawn
        from VALUES (a signed zero on the imaginary diagonal), the signs of
        the zeros of each pair (ij, ji) drawn apart, and NOISE added to
        every entry's real and imaginary part."""
        mats = np.empty((n, d, d), dtype=complex)
        mats.real = rng.choice(self.VALUES, mats.shape)
        mats.imag = rng.choice(self.VALUES, mats.shape)
        upper = np.triu_indices(d, 1)
        mats[:, upper[0], upper[1]] = mats[:, upper[1], upper[0]].conj()
        mats.imag[:, range(d), range(d)] = 0.0
        for part in (mats.real, mats.imag):
            part[(part == 0) & (rng.random(mats.shape) < 0.5)] *= -1.0
            part += rng.choice(self.NOISE, mats.shape) * rng.choice([1.0, -1.0], mats.shape)
        return mats

    @staticmethod
    def _defects(mats):
        return np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_partial_transpose_commutes_with_the_hermitian_part(self, dims):
        rng = np.random.default_rng(10 * dims[0] + dims[1])
        mats = self._stack(rng, dims[0] * dims[1])
        pt = _transpose_factors(mats, dims, [1])
        assert (self._defects(mats) > 0).any()          # the noise is not Hermitian
        assert self._defects(mats).tobytes() == self._defects(pt).tobytes()
        assert _transpose_factors(_hermitian(mats), dims, [1]).tobytes() == _hermitian(pt).tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2)])
    @pytest.mark.parametrize("defect", [1e-6, 1e-6j, np.nan, np.inf])
    def test_a_defect_past_the_tolerance_is_the_same_for_both(self, dims, defect):
        rng = np.random.default_rng(10 * dims[0] + dims[1])
        mats = self._stack(rng, dims[0] * dims[1], n=8)
        mats[3, 0, 1], mats[3, 1, 0] = 0.5, 0.5 + defect
        messages = []
        for stack in (mats, _transpose_factors(mats, dims, [1])):
            with pytest.raises(NotHermitianError) as exc:
                _hermitian(stack)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    # a stack of three blocks of 4 x 4 matrices; a NaN defect must not be
    # lost behind the finite defects of the other blocks
    @pytest.mark.parametrize("defect", [1e-6, np.nan])
    @pytest.mark.parametrize("position", ["first", "block end", "block start", "last"])
    def test_every_block_is_checked(self, defect, position):
        step = CHECK_BLOCK_BYTES // 256
        mats = self._stack(np.random.default_rng(5), 4, n=3 * step)
        at = {"first": 0, "block end": step - 1, "block start": step,
              "last": len(mats) - 1}[position]
        mats[at, 0, 1], mats[at, 1, 0] = 0.5, 0.5 + defect
        with pytest.raises(NotHermitianError, match="nan" if np.isnan(defect) else "1.000e-06"):
            _hermitian(mats)
        with np.errstate(over="ignore"):    # the blocks before the defect square 1e300
            assert _psd_screened(mats, np.inf) is None

    def test_parts_filled_block_by_block_are_the_hermitian_part(self):
        step = CHECK_BLOCK_BYTES // 256
        rng = np.random.default_rng(6)
        mats = rng.normal(size=(3 * step, 4, 4)) + 1j * rng.normal(size=(3 * step, 4, 4))
        mats += mats.conj().swapaxes(-1, -2)
        mats += 1e-12 * rng.normal(size=mats.shape)     # not Hermitian to the last bit
        parts, _ = _psd_screened(mats, np.inf)
        assert parts.tobytes() != mats.tobytes()
        assert parts.tobytes() == _hermitian(mats).tobytes()


def _pt_family(rng, dims, lam, norm, rotate=True):
    """A PSD matrix on ``dims`` of largest eigenvalue about ``norm``
    whose partial transpose over factor 1 has smallest eigenvalue ``lam``:
    scale (p |psi><psi| + (1 - p) I / d) for a maximally entangled qubit pair
    psi, whose partial transpose has eigenvalues scale (-p/2 + (1 - p)/d)
    once, scale (p/2 + (1 - p)/d) three times and scale (1 - p)/d otherwise,
    under a random local unitary, which keeps that spectrum."""
    a, b = dims
    d = a * b
    psi = np.zeros(d)
    psi[0] = psi[b + 1] = 2 ** -0.5
    scale = norm * (d + 2) / 3
    p = (1 / d - lam / scale) / (0.5 + 1 / d)
    mat = scale * (p * np.outer(psi, psi) + (1 - p) * np.eye(d) / d)
    u = np.kron(haar_unitary(rng, a), haar_unitary(rng, b)) if rotate else np.eye(d)
    return u @ mat @ u.conj().T


def _negativities_one_by_one(mats, dims):
    """The per-matrix oracle of ``_negativities``, ``conftest.negativity``
    of each matrix."""
    return np.array([negativity(mat, dims) for mat in mats])


@pytest.fixture
def linalg_calls(monkeypatch):
    """The number of matrices passed to ``np.linalg.eigvalsh``, and the
    number of ``np.linalg.cholesky`` calls."""
    seen = {"eigvalsh": 0, "cholesky": 0}
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def counting_eigvalsh(a, *args, **kwargs):
        seen["eigvalsh"] += len(np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return eigvalsh(a, *args, **kwargs)

    def counting_cholesky(a, *args, **kwargs):
        seen["cholesky"] += 1
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return seen


class TestPPTScreen:
    """``_psd_cleared`` proves partial transposes free of eigenvalues below
    -NEG_CUTOFF by a Cholesky factorisation shifted by NEG_CUTOFF / 2, within
    a norm guard on ||H||_F, and ``_negativities`` eigendecomposes only the
    rest: its values are the per-matrix oracle's, byte for byte."""

    # around -NEG_CUTOFF and -NEG_CUTOFF / 2
    LAMBDAS = np.concatenate([np.linspace(-2e-12, 0.0, 21),
                              [-1.001e-12, -0.999e-12, -0.501e-12, -0.499e-12]])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_sound_at_the_cutoff_and_at_scale(self, dims, linalg_calls):
        rng = np.random.default_rng(sum(dims))
        d = dims[0] * dims[1]
        guard = NEG_CUTOFF / (8 * d ** 2 * np.finfo(float).eps)
        # Frobenius norms; _pt_family's largest eigenvalue is about
        # ||M||_F / sqrt(1 + (d - 1) / 9), and ||H||_F = ||M||_F
        norms = [1e-8, 1e-4, 1e-2, 0.5 * guard, 0.99 * guard, 1.5 * guard, 4 * guard]
        lams = np.tile(self.LAMBDAS, len(norms))
        mats = np.array([_pt_family(rng, dims, lam, norm / np.sqrt(1 + (d - 1) / 9))
                         for norm in norms for lam in self.LAMBDAS])
        extremes = spectral_extremes(mats)
        parts = _hermitian(mats)
        h = _transpose_factors(parts, dims, [1])
        past = np.linalg.norm(h, axis=(1, 2)) > guard
        assert past.sum() == 2 * len(self.LAMBDAS)

        # each row screened alone
        cleared = np.concatenate([_psd_cleared(h[i:i + 1]) for i in range(len(h))])
        assert np.all(np.linalg.eigvalsh(h[cleared])[:, 0] >= -NEG_CUTOFF)
        assert not cleared[past].any()
        assert cleared[~past & (lams >= -NEG_CUTOFF / 4)].all()      # not vacuous

        oracle = _negativities_one_by_one(mats, dims)
        assert np.any(oracle > 0) and np.any(oracle == 0)
        # shuffled, so that cleared and uncleared rows share blocks
        order = rng.permutation(len(mats))
        assert _negativities(parts[order], dims, extremes[order]).tobytes() \
            == oracle[order].tobytes()
        # the cleared rows and the rows past the guard: only the latter are
        # eigendecomposed
        keep = rng.permutation(np.flatnonzero(cleared | past))
        linalg_calls["eigvalsh"] = 0
        values = _negativities(parts[keep], dims, extremes[keep])
        assert values.tobytes() == oracle[keep].tobytes()
        assert linalg_calls["eigvalsh"] == past.sum()

    @staticmethod
    def _clearable(n=12):
        rng = np.random.default_rng(7)
        mats = np.array([_pt_family(rng, (3, 3), 1e-3, 0.1) for _ in range(n)])
        return mats, spectral_extremes(mats)

    def test_clearable_stack_is_cleared(self, linalg_calls):
        mats, extremes = self._clearable()
        linalg_calls["eigvalsh"] = 0
        values = _negativities(_hermitian(mats), (3, 3), extremes)
        assert values.tobytes() == np.full(len(mats), -0.0).tobytes()
        assert linalg_calls == {"eigvalsh": 0, "cholesky": 1}

    def test_fully_cleared_stack_makes_no_eigvalsh_call(self, monkeypatch):
        mats, _ = self._clearable()
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        parts, extremes = _psd_screened(mats, TOL_CHECK)
        values = _negativities(parts, (3, 3), extremes)
        assert shapes == []
        # the values of an eigendecomposition of the empty stack of uncleared rows
        assert extremes.tobytes() == np.full((len(mats), 2), np.nan).tobytes()
        assert values.tobytes() == np.full(len(mats), -0.0).tobytes()

    # refused by the PSD check that forms the Hermitian parts
    # ``_negativities`` reads, even without a tolerance, and by the
    # assemblage, whose check it is
    @pytest.mark.parametrize("defect", [1e-6, np.nan, np.inf])
    def test_non_hermitian_or_non_finite_raises(self, defect):
        mats, _ = self._clearable()
        mats /= np.trace(mats, axis1=1, axis2=2).real.sum()
        mats[5, 0, 1] += defect
        with pytest.raises(NotHermitianError):
            _hermitian(mats)
        assert _psd_screened(mats, np.inf) is None
        with pytest.raises(ValueError, match="not PSD"):
            NetworkAssemblage(mats, [(k,) for k in range(len(mats))], (3, 3))

    # an imaginary diagonal entry is a Hermiticity defect, as is NaN there:
    # no Hermitian part is formed, so no partial transpose of one is screened
    @pytest.mark.parametrize("defect", [1e-6j, np.nan])
    def test_diagonal_defect_raises(self, defect):
        mats, _ = self._clearable()
        mats[5, 4, 4] += defect
        with pytest.raises(NotHermitianError):
            _hermitian(mats)
        assert _psd_screened(mats, 1e-9) is None
        assert _psd_screened(mats, np.inf) is None

    def test_precondition_fires_before_the_screen(self, linalg_calls):
        mats, extremes = self._clearable()
        extremes[-1, 0] = -1e-10
        linalg_calls["eigvalsh"] = 0
        with pytest.raises(NotPositiveError, match="-1.000e-10"):
            _negativities(_hermitian(mats), (3, 3), extremes)
        assert linalg_calls == {"eigvalsh": 0, "cholesky": 0}

    # with a negative 2 x 2 minor the row skips the factorisation, which
    # clears the rest; without one the factorisation fails and the whole
    # block is eigendecomposed
    @pytest.mark.parametrize("rotate,eigendecomposed", [(False, 1), (True, 12)])
    def test_one_npt_row_reads_its_exact_negativity(self, rotate, eigendecomposed,
                                                    linalg_calls):
        mats, _ = self._clearable()
        mats[4] = _pt_family(np.random.default_rng(3), (3, 3), -1e-11, 0.1, rotate)
        extremes = spectral_extremes(mats)
        shifted = _hermitian(_transpose_factors(mats[4], (3, 3), [1])) + NEG_CUTOFF / 2 * np.eye(9)
        diag = shifted.diagonal().real
        assert (np.abs(shifted) ** 2 <= np.outer(diag, diag)).all() == rotate
        linalg_calls["eigvalsh"] = 0
        values = _negativities(_hermitian(mats), (3, 3), extremes)
        assert linalg_calls["eigvalsh"] == eigendecomposed
        oracle = _negativities_one_by_one(mats, (3, 3))
        assert values.tobytes() == oracle.tobytes()
        assert values[4] == pytest.approx(1e-11, rel=1e-3)
        assert np.all(oracle[np.arange(12) != 4] == 0)


class TestPredicates:
    # one row eigendecomposed alone, and 8, which the screen runs on
    @pytest.mark.parametrize("rows", [1, 8])
    def test_psd_screened(self, rows):
        eye = np.array([np.eye(2, dtype=complex)] * rows)
        assert _psd_screened(eye, TOL_EQ) is not None
        for bad in (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])):
            mats = eye.copy()
            mats[-1] = bad
            assert _psd_screened(mats, TOL_EQ) is None

    def test_is_density(self, rng):
        assert is_density(rand_density(rng, [3]))
        assert not is_density(identity([2]))

    # unit trace, so that only the PSD part of the check can fail
    def test_is_density_many_psd(self, rng):
        good = [rand_density(rng, [2]) for _ in range(3)]
        bad = QOperator(np.diag([1.5, -0.5]), [2])
        non_hermitian = QOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), [2])
        assert is_density()
        assert is_density(*good)
        assert not is_density(bad, *good)
        assert not is_density(*good, bad)
        assert not is_density(*good, non_hermitian)
        assert is_density(bad, tol=1.0)

    def test_is_density_mixed_shapes_psd(self, rng):
        assert is_density(rand_density(rng, [2]), rand_density(rng, [3]), rand_density(rng, [2]))
        assert not is_density(rand_density(rng, [2]), QOperator(np.diag([1.0, 1.0, -1.0]), [3]))

    # maximally mixed rows, within the screen's norm guard, in blocks of
    # 4,096 and of 10 rows, the last of 8, all screened; and in blocks of
    # one row, eigendecomposed.  Unrotated, the failing row has a negative
    # diagonal entry, so the screen skips it and clears the rest of its
    # block; rotated, it makes the block's factorisation fail.
    @pytest.mark.parametrize("position", ["first", "block end", "block start", "last"])
    @pytest.mark.parametrize("d", [2, 40, 200])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_psd_screened_checks_every_block(self, position, d, rotate):
        step = max(1, CHECK_BLOCK_BYTES // identity([d]).matrix.nbytes)
        mats = np.array([identity([d]).matrix / d] * (2 * step + 8))
        assert np.isnan(_psd_screened(mats, TOL_EQ)[1]).all() == (step >= 8)
        index = {"first": 0, "block end": step - 1, "block start": step, "last": len(mats) - 1}
        u = haar_unitary(np.random.default_rng(d), d) if rotate else np.eye(d)
        mats[index[position]] = (u * ([1.0] * (d - 1) + [-1e-3])) @ u.conj().T / d
        assert _psd_screened(mats, TOL_EQ) is None

    def test_is_density_refuses_a_tolerance_below_the_cutoff(self, rng):
        assert is_density(rand_density(rng, [2]), tol=NEG_CUTOFF)
        with pytest.raises(ValueError, match="NEG_CUTOFF"):
            is_density(rand_density(rng, [2]), tol=1e-13)

    def test_is_density_many(self, rng):
        rhos = [rand_density(rng, [2]), rand_density(rng, [3]), rand_density(rng, [2])]
        assert is_density(*rhos)
        assert not is_density(*rhos, identity([2]))                         # trace 2
        assert not is_density(QOperator(np.diag([1.5, -0.5]), [2]), *rhos)  # not PSD
        assert is_density(QOperator(np.diag([1.05, 0.0]), [2]), tol=0.1)

    def test_max_entry_distance(self):
        a = QOperator(np.zeros((2, 2)), [2])
        b = QOperator(np.array([[0.0, 3.0], [0.0, 0.0]]), [2])
        assert max_entry_distance(a, b) == 3.0

    def test_projector_and_basis_ket(self):
        p = projector(basis_ket(1, 3), [3])
        assert p.matrix[1, 1] == 1.0
        assert np.trace(p.matrix).real == 1.0

    def test_pauli_anticommutation(self):
        assert np.allclose(PAULI_X @ PAULI_Z + PAULI_Z @ PAULI_X, 0)


def _with_lowest(rng, d, lowest, rotate):
    """A d x d unit-trace Hermitian matrix of smallest eigenvalue ``lowest``,
    the rest of its spectrum positive and below 1, under a Haar unitary
    (``rotate``) or on the diagonal."""
    rest = rng.uniform(0.5, 1.0, d - 1)
    spectrum = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    u = haar_unitary(rng, d) if rotate else np.eye(d)
    return (u * spectrum) @ u.conj().T


class TestScreenedConstructors:
    """Every construction-time PSD check is ``_psd_screened``.  On stacks of
    12 rows, which the screen runs on, with one row of smallest eigenvalue
    just past or just inside the check's tolerance, each constructor
    accepts and refuses exactly as eigendecomposing every row in full does.
    Only that row is eigendecomposed, unless it makes its block's
    factorisation fail: unrotated, its negative diagonal entry has the
    screen skip it and clear the rest."""

    D, N = 4, 12
    REFUSAL = {"POVM": "not positive semidefinite", "SeparableDecomposition": "densities",
               "NLHSModel": "densities"}

    def _stack(self, rng, kind, lowest, rotate):
        """The checked stack: a POVM's effects, the special row and shares of
        the identity's remainder; else densities."""
        special = _with_lowest(rng, self.D, lowest, rotate)
        if kind == "POVM":
            w = rng.uniform(0.5, 1.0, self.N - 1)
            others = [x * (np.eye(self.D) - special) for x in w / w.sum()]
        else:
            others = [rand_density(rng, [self.D]).matrix for _ in range(self.N - 1)]
        at = int(rng.integers(self.N))
        return np.array(others[:at] + [special] + others[at:])

    def _accepts(self, kind, mats, tol):
        """Whether ``kind`` accepts ``mats`` as its checked stack, the other
        stacks it checks being 12 maximally mixed qubits."""
        n, mixed = len(mats), [np.eye(2) / 2] * len(mats)
        if kind == "is_density":
            return is_density(*[QOperator(m, [self.D]) for m in mats], tol=tol)
        try:
            if kind == "POVM":
                POVM([QOperator(m, [self.D]) for m in mats])
            elif kind == "SeparableDecomposition":
                SeparableDecomposition(np.full(n, 1 / n), mats, mixed)
            else:
                NLHSModel([np.full(n, 1 / n)] * 2, [np.ones((1, n, n))], mats, mixed)
        except ValueError as exc:
            assert self.REFUSAL[kind] in str(exc)
            return False
        return True

    @pytest.mark.parametrize("kind,tol", [("POVM", TOL_CHECK), ("SeparableDecomposition", TOL_NORM),
                                          ("NLHSModel", TOL_NORM), ("is_density", TOL_EQ),
                                          ("is_density", NEG_CUTOFF)])
    @pytest.mark.parametrize("past", [False, True])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_agrees_with_full_eigendecomposition(self, kind, tol, past, rotate, linalg_calls):
        rng = np.random.default_rng(len(kind) + int(-np.log10(tol)))
        lowest = -tol * (1 + 1e-3 if past else 1 - 1e-3)
        mats = self._stack(rng, kind, lowest, rotate)
        oracle = spectral_extremes(mats)[:, 0].min() >= -tol
        assert oracle != past
        linalg_calls["eigvalsh"] = 0
        assert self._accepts(kind, mats, tol) == oracle
        assert linalg_calls["eigvalsh"] == (self.N if rotate else 1)
