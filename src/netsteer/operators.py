"""Dense complex-operator kernel: tensor algebra, partial operations, spectra.

Convention: tensor factors are combined with a row-major Kronecker product,
so the *first* factor occupies the most significant index block.  This is
the numpy ``np.kron`` convention and is used consistently everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerances.  All identities implemented here are exact algebra, so double
# precision leaves ample headroom.
TOL_EQ = 1e-10       # operator equality (max absolute entry)
TOL_HERM = 1e-9      # Hermiticity defect
TOL_CHECK = 1e-9     # slack of input checks: PSD parts, density sources, unit axes, Bloch data
TOL_NORM = 1e-8      # slack of normalisation: hidden states, responses, weights, trace sums
NEG_CUTOFF = 1e-12   # eigenvalue cutoff below which we call something negative
CHECK_BLOCK_BYTES = 2 ** 18   # matrix bytes per stacked eigendecomposition in is_psd

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class DimensionError(ValueError):
    """Raised on mismatched or invalid tensor-factor dimensions."""


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian input."""


class NotPositiveError(ValueError):
    """Raised when an operation requires a positive semidefinite input."""


@dataclass(frozen=True)
class QOperator:
    """A square complex matrix tagged with its tensor-factor dimensions.

    Hermiticity, positivity and normalisation are checkable predicates, not
    construction-time requirements: sub-normalised assemblage elements and
    POVM effects are first-class citizens.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims: Sequence[int]):
        matrix = np.asarray(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {matrix.shape}")
        if any(d < 1 for d in dims):
            raise DimensionError(f"dimensions must be >= 1, got {dims}")
        if int(np.prod(dims)) != matrix.shape[0]:
            raise DimensionError(
                f"product of dims {dims} != matrix side {matrix.shape[0]}"
            )
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self):
        return f"QOperator(dim={self.dim}, dims={list(self.dims)})"


def identity(dims: Sequence[int]) -> QOperator:
    d = int(np.prod(list(dims)))
    return QOperator(np.eye(d, dtype=complex), dims)


def basis_ket(i: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def projector(vec: np.ndarray, dims: Sequence[int]) -> QOperator:
    vec = np.asarray(vec, dtype=complex)
    return QOperator(np.outer(vec, vec.conj()), dims)


def tensor(a: QOperator, b: QOperator, *rest: QOperator) -> QOperator:
    """Kronecker product; dims are concatenated."""
    out = QOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    for r in rest:
        out = QOperator(np.kron(out.matrix, r.matrix), out.dims + r.dims)
    return out


def _check_factors(op: QOperator, factors: Iterable[int]) -> list[int]:
    factors = sorted(set(int(f) for f in factors))
    for f in factors:
        if f < 0 or f >= op.nfactors:
            raise DimensionError(f"factor index {f} out of range for dims {op.dims}")
    return factors


def partial_trace(op: QOperator, keep: Iterable[int]) -> QOperator:
    """Trace out every factor not in ``keep``, preserving factor order."""
    keep = _check_factors(op, keep)
    k = op.nfactors
    t = op.matrix.reshape(op.dims + op.dims)
    row = list(range(k))
    col = [i if i not in keep else k + i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    mat = np.einsum(t, row + col, out)
    new_dims = [op.dims[i] for i in keep]
    side = int(np.prod(new_dims)) if new_dims else 1
    return QOperator(mat.reshape(side, side), new_dims or [1])


def apply_and_trace(op: QOperator, local: QOperator, factor: int) -> QOperator:
    """Tr_factor[(local (x) 1) op] for a two-factor ``op``.

    ``local`` acts on factor ``factor`` (0 or 1), which is then traced out;
    the result carries the other factor.  This is how an effect steers the
    remaining party, and how a hidden state is plugged into one side of a
    two-party effect (by cyclicity the order of ``local`` and ``op`` inside
    the partial trace is immaterial).
    """
    if op.nfactors != 2:
        raise DimensionError(f"apply_and_trace needs a two-factor operator, got {op.dims}")
    if factor not in (0, 1):
        raise DimensionError(f"factor must be 0 or 1, got {factor}")
    if local.dim != op.dims[factor]:
        raise DimensionError(f"local dim {local.dim} != factor dim {op.dims[factor]}")
    t = op.matrix.reshape(op.dims + op.dims)
    if factor == 0:
        out = np.einsum("ik,kjil->jl", local.matrix, t)
    else:
        out = np.einsum("jl,ilkj->ik", local.matrix, t)
    return QOperator(out, [op.dims[1 - factor]])


def partial_transpose(op: QOperator, factors: Iterable[int]) -> QOperator:
    """Transpose the listed factors in place."""
    factors = _check_factors(op, factors)
    k = op.nfactors
    t = op.matrix.reshape(op.dims + op.dims)
    axes = list(range(2 * k))
    for f in factors:
        axes[f], axes[k + f] = axes[k + f], axes[f]
    return QOperator(t.transpose(axes).reshape(op.dim, op.dim), op.dims)


def _spectra(mats: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Ascending real eigenvalues of a matrix, or of each matrix of a
    (k, d, d) stack.  The input is checked Hermitian to ``tol`` and then
    explicitly symmetrised, which stabilises the solver without masking
    real errors."""
    adjoint = mats.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(mats - adjoint))
    if defect > tol:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return np.linalg.eigvalsh((mats + adjoint) / 2)


def hermitian_eigenvalues(op: QOperator, tol: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues in ascending order (see ``_spectra``)."""
    return _spectra(op.matrix, tol)


def negativity(op: QOperator, transpose_factors: Iterable[int]) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    A strictly positive value certifies entanglement across the bipartition
    (NPT implies entangled in any dimension); zero is inconclusive.
    """
    evs = hermitian_eigenvalues(op)
    if evs[0] < -NEG_CUTOFF * max(1.0, abs(evs[-1])):
        raise NotPositiveError(f"input has negative eigenvalue {evs[0]:.3e}")
    pt = partial_transpose(op, transpose_factors)
    pt_evs = hermitian_eigenvalues(pt)
    return float(-np.sum(pt_evs[pt_evs < -NEG_CUTOFF]))


def is_psd(*ops: QOperator, tol: float = TOL_EQ) -> bool:
    """True iff every operator is Hermitian with no eigenvalue below -tol
    (true for none).  Checked per stack of same-shape matrices, not per
    operator; a stack holds at most ``CHECK_BLOCK_BYTES`` (or one matrix),
    which bounds the check's memory whatever the number and size of parts."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.matrix.shape, []).append(op.matrix)
    try:
        for mats in groups.values():
            step = max(1, CHECK_BLOCK_BYTES // mats[0].nbytes)
            for i in range(0, len(mats), step):
                if not np.all(_spectra(np.stack(mats[i:i + step]))[:, 0] >= -tol):
                    return False
    except NotHermitianError:
        return False
    return True


def is_density(*ops: QOperator, tol: float = TOL_EQ) -> bool:
    """``is_psd`` plus unit trace, each to ``tol``."""
    return is_psd(*ops, tol=tol) and all(abs(np.trace(op.matrix) - 1.0) <= tol for op in ops)


def op_equal(a: QOperator, b: QOperator, tol: float = TOL_EQ) -> bool:
    """Max-absolute-entry comparison.  Dims must match exactly."""
    if a.dims != b.dims:
        raise DimensionError(f"dims mismatch: {a.dims} vs {b.dims}")
    return bool(np.max(np.abs(a.matrix - b.matrix)) <= tol)


def max_entry_distance(a: QOperator, b: QOperator) -> float:
    if a.dims != b.dims:
        raise DimensionError(f"dims mismatch: {a.dims} vs {b.dims}")
    return float(np.max(np.abs(a.matrix - b.matrix)))
