"""State generators: singlet, Werner, doubly-erased Werner (each erased qubit's
blocks written directly, bit for bit the erasure channel's) and classical
correlated states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionError,
    QOperator,
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


def _erase(mats: np.ndarray, etas: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """The erasure of the qubit factor of G (d_left * 2 * d_right)-square
    matrices on dims (d_left, 2, d_right), each with its own survival
    probability: the (G, D, D) stack on dims (d_left, 3, d_right), index 2
    of the erased factor being the loss flag.

    Only the two nonzero blocks are written: the kept qubit block
    (k t) k* with k = sqrt(eta), and the flag entry (l t_00) l* + (l t_11) l*
    of the two lost basis states with l = sqrt(1 - eta).  Each entry equals
    that of the Kraus sum sum_k (1 (x) K_k (x) 1) t (1 (x) K_k (x) 1)^dag
    bit for bit: of the twelve terms summed into it, at most two are
    nonzero, each is formed in the same order, a sum of two does not
    depend on order, and exact zeros add nothing.  The blocks are added to
    the zeroed output, as the Kraus sum adds its terms to +0, so an entry
    that underflows to -0 comes out +0 in both.
    """
    g = len(etas)
    t = mats.reshape(g, d_left, 2, d_right, d_left, 2, d_right)
    out = np.zeros((g, d_left, 3, d_right, d_left, 3, d_right), dtype=complex)
    k = np.sqrt(etas).reshape(g, 1, 1, 1, 1, 1, 1) + 0j
    l = np.sqrt(1 - etas).reshape(g, 1, 1, 1, 1) + 0j
    out[:, :, :2, :, :, :2] += (k * t) * k.conj()
    out[:, :, 2, :, :, 2] += ((l * t[:, :, 0, :, :, 0]) * l.conj()
                              + (l * t[:, :, 1, :, :, 1]) * l.conj())
    side = d_left * 3 * d_right
    return out.reshape(g, side, side)


def dew(params: DEWParams) -> QOperator:
    """Doubly-erased Werner state on a qutrit pair: one row of ``_dew_stack``,
    so a lone source and a sweep's block of sources agree bit for bit."""
    return QOperator(_dew_stack(np.array([params.eta]), np.array([params.omega]))[0], [3, 3])


def _dew_stack(etas: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The (G, 9, 9) doubly-erased Werner states of G survival probabilities
    and G visibilities (in range, unchecked): the Werner mix of each
    visibility with its left qubit erased, then its right one, each by
    ``_erase``'s direct block build, equal bit for bit to the erasure
    channel's Kraus sum (kept as a test oracle)."""
    return _erase(_erase(_werner_mix(omegas), etas, 1, 2), etas, 3, 1)


def classical_correlated(d: int) -> QOperator:
    """Perfectly correlated classical state sum_x |xx><xx| / d."""
    if d < 2:
        raise DimensionError(f"d must be >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        mat[x * d + x, x * d + x] = 1.0 / d
    return QOperator(mat, [d, d])
