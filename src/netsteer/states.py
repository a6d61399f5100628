"""State and channel generators: Werner, singlet, erasure, doubly-erased Werner."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionError,
    QOperator,
    basis_ket,
    projector,
)


@dataclass(frozen=True)
class DEWParams:
    """Survival probability ``eta`` and Werner visibility ``omega``."""

    eta: float
    omega: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must be in [0,1], got {self.eta}")
        if not (0.0 <= self.omega <= 1.0):
            raise ValueError(f"omega must be in [0,1], got {self.omega}")


def psi_minus() -> QOperator:
    """Projector onto the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return projector(v, [2, 2])


def werner(omega: float) -> QOperator:
    """Two-qubit Werner state: omega * singlet + (1 - omega) * I/4."""
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must be in [0,1], got {omega}")
    return QOperator(_werner_mix(omega), [2, 2])


def _werner_mix(omegas) -> np.ndarray:
    """The Werner matrix of a visibility, or the (G, 4, 4) stack of an array of G."""
    w = np.asarray(omegas)[..., None, None]
    return w * psi_minus().matrix + (1 - w) * np.eye(4) / 4


def _erasure_kraus(etas, d_in: int) -> np.ndarray:
    """The (d_in + 1, d_out, d_in) Kraus operators of the erasure channel of
    a survival probability, or their (G, d_in + 1, d_out, d_in) stack for an
    array of G: sqrt(eta) times the embedding, then sqrt(1 - eta) times the
    map of each basis state to the loss flag."""
    d_out = d_in + 1
    embed = np.zeros((d_out, d_in), dtype=complex)
    embed[:d_in, :] = np.eye(d_in)
    flag = basis_ket(d_in, d_out)
    losses = [np.outer(flag, basis_ket(i, d_in).conj()) for i in range(d_in)]
    etas = np.asarray(etas)[..., None, None]
    return np.stack([np.sqrt(etas) * embed] + [np.sqrt(1 - etas) * loss for loss in losses],
                    axis=-3)


# sum_k (1 (x) K_k (x) 1) op (1 (x) K_k (x) 1)^dag on the factor's index pair,
# per row of a leading grid index
_KRAUS = "...koi,...aibcjd,...kpj->...aobcpd"


def _apply_kraus(kraus: np.ndarray, mats: np.ndarray, dims: tuple, factor: int) -> np.ndarray:
    """A channel on one tensor factor: the (..., K, d_out, d_in) Kraus
    operators applied to factor ``factor`` of the (..., D, D) matrices on
    ``dims``, for callers that checked the dims."""
    d_out, d_in = kraus.shape[-2:]
    d_left = math.prod(dims[:factor])
    d_right = math.prod(dims[factor + 1:])
    lead = mats.shape[:-2]
    t = mats.reshape(lead + (d_left, d_in, d_right, d_left, d_in, d_right))
    side = d_left * d_out * d_right
    return np.einsum(_KRAUS, kraus, t, kraus.conj()).reshape(lead + (side, side))


def dew(params: DEWParams) -> QOperator:
    """Doubly-erased Werner state on a qutrit pair: one row of ``_dew_stack``.

    Built by pushing the Werner state through the erasure channel on both
    sides; the closed-form block expansion is used as a test oracle only.
    """
    return QOperator(_dew_stack(np.array([params.eta]), np.array([params.omega]))[0], [3, 3])


def _dew_stack(etas: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The (G, 9, 9) doubly-erased Werner states of G survival probabilities
    and G visibilities (in range, unchecked): the Werner mix of each
    visibility, erased on both sides with the Kraus operators of its eta."""
    kraus = _erasure_kraus(etas, 2)
    mats = _apply_kraus(kraus, _werner_mix(omegas), (2, 2), 0)
    return _apply_kraus(kraus, mats, (3, 2), 1)


def classical_correlated(d: int) -> QOperator:
    """Perfectly correlated classical state sum_x |xx><xx| / d."""
    if d < 2:
        raise DimensionError(f"d must be >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        mat[x * d + x, x * d + x] = 1.0 / d
    return QOperator(mat, [d, d])
