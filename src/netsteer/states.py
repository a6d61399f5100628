"""State and channel generators: Werner, singlet, erasure, doubly-erased Werner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionError,
    QOperator,
    TOL_EQ,
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


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map given by Kraus operators.

    All Kraus operators share the shape (d_out, d_in); trace preservation
    (sum of K^dag K equal to the identity) is validated at construction.
    """

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus):
        kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not kraus:
            raise ValueError("at least one Kraus operator required")
        shape = kraus[0].shape
        if any(k.shape != shape for k in kraus):
            raise DimensionError("all Kraus operators must share one shape")
        acc = sum(k.conj().T @ k for k in kraus)
        if np.max(np.abs(acc - np.eye(shape[1]))) > TOL_EQ:
            raise ValueError("Kraus operators do not sum to the identity")
        object.__setattr__(self, "kraus", kraus)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]


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
    mat = omega * psi_minus().matrix + (1 - omega) * np.eye(4) / 4
    return QOperator(mat, [2, 2])


def erasure_channel(eta: float, d_in: int = 2) -> Channel:
    """Erasure with survival probability ``eta``.

    Maps dimension d_in to d_in + 1; basis index d_in is the loss flag.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0,1], got {eta}")
    if d_in < 1:
        raise DimensionError("d_in must be >= 1")
    d_out = d_in + 1
    embed = np.zeros((d_out, d_in), dtype=complex)
    embed[:d_in, :] = np.eye(d_in)
    ops = [np.sqrt(eta) * embed]
    flag = basis_ket(d_in, d_out)
    for i in range(d_in):
        ops.append(np.sqrt(1 - eta) * np.outer(flag, basis_ket(i, d_in).conj()))
    return Channel(ops)


def apply_channel(ch: Channel, op: QOperator, factor: int) -> QOperator:
    """Apply a channel to one tensor factor; the dims entry is updated."""
    if factor < 0 or factor >= op.nfactors:
        raise DimensionError(f"factor {factor} out of range for dims {op.dims}")
    if op.dims[factor] != ch.d_in:
        raise DimensionError(
            f"factor dim {op.dims[factor]} does not match channel input {ch.d_in}"
        )
    d_left = int(np.prod(op.dims[:factor]))
    d_right = int(np.prod(op.dims[factor + 1:]))
    out_dims = list(op.dims)
    out_dims[factor] = ch.d_out
    t = op.matrix.reshape(d_left, ch.d_in, d_right, d_left, ch.d_in, d_right)
    k = np.array(ch.kraus)
    # sum_k (1 (x) K_k (x) 1) op (1 (x) K_k (x) 1)^dag on the factor's index pair
    out = np.einsum("koi,aibcjd,kpj->aobcpd", k, t, k.conj())
    side = d_left * ch.d_out * d_right
    return QOperator(out.reshape(side, side), out_dims)


def dew(params: DEWParams) -> QOperator:
    """Doubly-erased Werner state on a qutrit pair.

    Built by pushing the Werner state through the erasure channel on both
    sides; the closed-form block expansion is used as a test oracle only.
    """
    ch = erasure_channel(params.eta, 2)
    out = apply_channel(ch, werner(params.omega), 0)
    return apply_channel(ch, out, 1)


def classical_correlated(d: int) -> QOperator:
    """Perfectly correlated classical state sum_x |xx><xx| / d."""
    if d < 2:
        raise DimensionError(f"d must be >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        mat[x * d + x, x * d + x] = 1.0 / d
    return QOperator(mat, [d, d])
