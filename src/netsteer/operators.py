"""Dense complex-operator kernel: factor-tagged operators, apply-and-trace,
partial transposes, stacked PSD checks, spectra and negativities.

Convention: tensor factors are combined with a row-major Kronecker product,
so the *first* factor occupies the most significant index block.  This is
the numpy ``np.kron`` convention and is used consistently everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Tolerances.  All identities implemented here are exact algebra, so double
# precision leaves ample headroom.
TOL_EQ = 1e-10       # operator equality (max absolute entry)
TOL_HERM = 1e-9      # Hermiticity defect
TOL_CHECK = 1e-9     # slack of input checks: PSD parts, density sources, unit axes, Bloch data
TOL_NORM = 1e-8      # slack of normalisation: hidden states, responses, weights, trace sums
NEG_CUTOFF = 1e-12   # eigenvalue cutoff below which we call something negative
CHECK_BLOCK_BYTES = 2 ** 18   # bytes per stacked eigendecomposition or contraction block

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
        if math.prod(dims) != matrix.shape[0]:
            raise DimensionError(
                f"product of dims {dims} != matrix side {matrix.shape[0]}"
            )
        matrix = matrix.copy()
        matrix.flags.writeable = False
        _set_fields(self, matrix=matrix, dims=dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)


def _set_fields(obj, **fields):
    """Set the fields of ``obj``, an instance of a frozen dataclass, and
    return it.  Every constructor ends with it once its checks pass; on
    ``object.__new__(cls)`` it makes an instance of ``cls`` from parts
    already known valid, in the form its constructor would hold them,
    without running the constructor's checks again."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def basis_ket(i: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def projector(vec: np.ndarray, dims: Sequence[int]) -> QOperator:
    vec = np.asarray(vec, dtype=complex)
    return QOperator(np.outer(vec, vec.conj()), dims)


def _apply_and_trace(mats: np.ndarray, dims: tuple[int, int], local: np.ndarray,
                     factor: int) -> np.ndarray:
    """Tr_factor[(local (x) 1) mat] for each matrix mat of a (k, D, D) stack
    ``mats`` on two factors of dims ``dims`` and each of a (..., d, d) stack
    ``local`` on factor ``factor`` (0 or 1), which is traced out: a
    (k, ..., d', d') stack from one einsum.  This is how an effect steers
    the remaining party, and how a hidden state is plugged into one side of
    a two-party effect (by cyclicity the order inside the partial trace is
    immaterial).  Callers check the dims.  Each entry is summed in the order
    of the single-matrix einsum as long as the matrix axes of ``local`` are
    row-major in memory (its lead axes may be any view)."""
    t = mats.reshape((len(mats),) + dims + dims)
    if factor == 0:
        return np.einsum("...ik,nkjil->n...jl", local, t)
    return np.einsum("...jl,nilkj->n...ik", local, t)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a (x) b of broadcast stacks of square matrices,
    each entry the one product ``np.kron`` forms for it."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def _square_stack(mats, what: str) -> np.ndarray:
    """``mats`` as a read-only (k, d, d) complex stack."""
    stack = np.array(mats, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"{what} must form a (k, d, d) stack, got shape {stack.shape}")
    stack.flags.writeable = False
    return stack


def _transpose_factors(mats: np.ndarray, dims: tuple[int, ...], factors: list[int]) -> np.ndarray:
    """Partial transpose of a matrix, or of each matrix of a (k, d, d) stack."""
    lead = mats.shape[:-2]
    k, n = len(dims), len(lead)
    axes = list(range(n + 2 * k))
    for f in factors:
        axes[n + f], axes[n + k + f] = axes[n + k + f], axes[n + f]
    return mats.reshape(lead + dims + dims).transpose(axes).reshape(mats.shape)


def _hermitian(mats: np.ndarray) -> np.ndarray:
    """A matrix, or a (k, d, d) stack, checked Hermitian to ``TOL_HERM`` and
    then explicitly symmetrised, which stabilises the solvers without
    masking real errors.  The defect is the largest |M - M^dagger| entry,
    the diagonal included (an imaginary diagonal entry is a defect), and
    (M + M^dagger) / 2 is written into the one buffer of the adjoint."""
    out = np.conjugate(mats.swapaxes(-1, -2), order="C")
    defect = np.abs(mats - out).max()
    if not defect <= TOL_HERM:      # so a non-finite matrix is not Hermitian
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e}")
    np.add(mats, out, out=out)
    # halved as the complex division by 2 halves, the sign of every zero
    # included: times (1 - 0i), then each real part times 0.5
    if np.iscomplexobj(out):
        np.multiply(out, complex(1.0, -0.0), out=out)
    parts = out.view(float)
    parts *= 0.5
    return out


def _psd_cleared(h: np.ndarray) -> np.ndarray:
    """Which matrices of a ``_hermitian`` (k, d, d) stack ``h`` are proven
    to have no eigenvalue below -NEG_CUTOFF, so that ``eigvalsh`` would
    find none either, without eigendecomposing them.  It screens the
    matrices of every PSD check (``_psd_screened``) and the partial
    transposes of the negativity verdict (``_negativities``) alike.

    One Cholesky factorisation of the stack of h + s I, s = NEG_CUTOFF / 2,
    clears every matrix it takes, or none if it fails.  It takes the
    matrices within the norm guard ||h||_F <= NEG_CUTOFF / (8 d^2 eps),
    summed from the |h_ij|^2 of the minor test, whose 2 x 2 principal
    minors of h + s I are all non-negative: a negative minor means the
    factorisation would fail, and skipping it keeps a block that cannot
    be cleared cheap.  Success is a proof: the factorisation is backward
    stable, so lambda_min(h) >= -s - O(d^2 eps ||h||), and ``eigvalsh``
    finds lambda_min to within O(d eps ||h||); the guard keeps
    ||h||_2 <= ||h||_F so small that neither error reaches the other half
    of the cutoff.  The shift is tied to the cutoff: a change of the
    cutoff moves both."""
    k, d = h.shape[:2]
    square = np.abs(h) ** 2
    diag = h.diagonal(axis1=1, axis2=2).real + NEG_CUTOFF / 2
    # written so that a non-finite entry fails both tests
    cleared = ((square.reshape(k, -1).sum(1) <= (NEG_CUTOFF / (8 * d * d * np.finfo(float).eps)) ** 2)
               & (square <= diag[:, :, None] * diag[:, None, :]).reshape(k, -1).all(1))
    try:
        np.linalg.cholesky(h[cleared] + NEG_CUTOFF / 2 * np.eye(d))
    except np.linalg.LinAlgError:
        cleared[:] = False
    return cleared


def _screened_spectra(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a ``_hermitian`` (k, d, d) stack ``h`` that ``_psd_cleared``
    does not clear, and their ascending eigenvalues; an empty (0, d)
    spectrum, without an ``eigvalsh`` call, when it clears them all.  A
    stack of fewer than 8 is not screened: it costs less to eigendecompose
    than to screen."""
    rows = np.arange(len(h))
    if len(h) >= 8:
        rows = rows[~_psd_cleared(h)]
        if not len(rows):
            return rows, np.empty((0, h.shape[1]))
    return rows, np.linalg.eigvalsh(h if len(rows) == len(h) else h[rows])


def _negativities(mats: np.ndarray, dims: tuple[int, ...], extremes: np.ndarray) -> np.ndarray:
    """Negativity of each matrix of a non-empty (k, d, d) stack with factor
    dims ``dims``: the sum of |eigenvalues below -NEG_CUTOFF| of its partial
    transpose over factor 1, one ``_blocks`` block at a time.  ``extremes``
    holds the (k, 2) smallest and largest eigenvalue of each matrix, or NaN
    for a matrix proven to have none below -NEG_CUTOFF, as ``_psd_screened``
    returns them; raises NotPositiveError for the first matrix with an
    eigenvalue below -NEG_CUTOFF * max(1, |largest|).

    Each block's partial transposes are checked Hermitian and symmetrised
    (``_hermitian``), and only those that ``_psd_cleared`` does not clear
    are eigendecomposed (``_screened_spectra``).  A cleared one reads
    -0.0, the value its spectrum would give, so every value is the one of
    eigendecomposing each matrix on its own."""
    bad = extremes[:, 0] < -NEG_CUTOFF * np.maximum(1.0, np.abs(extremes[:, 1]))
    if bad.any():
        raise NotPositiveError(f"input has negative eigenvalue {extremes[np.argmax(bad), 0]:.3e}")
    out = np.full(len(mats), -0.0)
    for block in _blocks(len(mats), mats[0].nbytes):
        rows, pt = _screened_spectra(_hermitian(_transpose_factors(mats[block], dims, [1])))
        # Summed row by row over the negative eigenvalues alone, as a single
        # matrix would be, so the value does not depend on the stack; a row
        # without any reads -0.0, the negated empty sum.
        below = pt < -NEG_CUTOFF
        for i in np.flatnonzero(below[:, 0]):
            out[block.start + rows[i]] = -pt[i][below[i]].sum()
    return out


def _blocks(n: int, item_bytes: int) -> list[slice]:
    """Slices covering ``range(n)``, each of at most ``CHECK_BLOCK_BYTES``
    (or one item) of items of ``item_bytes`` bytes: every stacked check,
    spectrum and contraction step runs one block at a time, so its memory
    stays bounded whatever the number and size of the items."""
    step = max(1, CHECK_BLOCK_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def _psd_screened(mats: np.ndarray, tol: float) -> np.ndarray | None:
    """The (k, 2) smallest and largest eigenvalue of each matrix of a
    non-empty (k, d, d) stack ``mats`` if every matrix is Hermitian with no
    eigenvalue below -tol, else None: the one PSD decision of the package,
    which every construction-time check makes.  ``tol`` is at least
    NEG_CUTOFF; ``np.inf`` asks for the extremes alone.

    Each ``_blocks`` block is checked Hermitian and symmetrised
    (``_hermitian``), and only the matrices that ``_psd_cleared`` does not
    prove free of eigenvalues below -NEG_CUTOFF are eigendecomposed
    (``_screened_spectra``).  The proven ones read NaN: they pass the check,
    which is why ``tol`` may not be smaller, and the negativity
    precondition skips them.  Every other row holds the ends of its
    ``eigvalsh`` spectrum, which does not depend on the stack or block the
    row sits in, so every accept and reject is the one of eigendecomposing
    each matrix on its own."""
    extremes = np.full((len(mats), 2), np.nan)
    for block in _blocks(len(mats), mats[0].nbytes):
        try:
            rows, spectra = _screened_spectra(_hermitian(mats[block]))
        except NotHermitianError:
            return None
        if not (spectra[:, 0] >= -tol).all():
            return None
        extremes[block.start + rows] = spectra[:, [0, -1]]
    return extremes


def _density_extremes(mats, tol: float) -> np.ndarray | None:
    """``_psd_screened`` of ``mats``, a non-empty (k, d, d) array or list of
    equal-shape matrices, if every matrix has unit trace to ``tol``, else
    None."""
    mats = np.asarray(mats)
    traces = np.trace(mats, axis1=-2, axis2=-1)
    return _psd_screened(mats, tol) if np.abs(traces - 1.0).max() <= tol else None


def _by_dims(ops: Sequence[QOperator]) -> list[list[np.ndarray]]:
    """The matrices of ``ops`` grouped by dims, to be checked as stacks."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.dims, []).append(op.matrix)
    return list(groups.values())


def is_density(*ops: QOperator, tol: float = TOL_EQ) -> bool:
    """True iff every operator is Hermitian with no eigenvalue below -tol
    and has unit trace to ``tol`` (true for none).  The matrices of
    operators with equal dims are checked as stacks
    (``_density_extremes``), not one by one.  A ``tol`` below NEG_CUTOFF
    is refused: the screen proves nothing finer."""
    if not tol >= NEG_CUTOFF:
        raise ValueError(f"tol must be at least NEG_CUTOFF = {NEG_CUTOFF:.0e}, got {tol!r}")
    return all(_density_extremes(mats, tol) is not None for mats in _by_dims(ops))
