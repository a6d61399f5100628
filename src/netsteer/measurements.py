"""POVM construction and validation.

Outcome labels are explicit rather than positional, so that multi-party
outcome tuples in network assemblages stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .operators import (
    DimensionError,
    PAULIS,
    QOperator,
    TOL_CHECK,
    TOL_EQ,
    _psd_screened,
    _set_fields,
    _square_stack,
    basis_ket,
    projector,
)


class InvalidPOVMError(ValueError):
    """Raised when effects are not PSD or do not sum to the identity."""


@dataclass(frozen=True)
class POVM:
    """Ordered PSD effects summing to the identity, as one read-only complex
    (k, d, d) stack: ``matrices[b]`` is the effect of ``outcome_labels[b]``
    on the factors ``dims``."""

    matrices: np.ndarray
    dims: tuple[int, ...]
    outcome_labels: tuple[Hashable, ...]

    def __init__(self, effects: Sequence[QOperator], outcome_labels=None):
        effects = tuple(effects)
        if not effects:
            raise InvalidPOVMError("POVM needs at least one effect")
        dims = effects[0].dims
        if any(e.dims != dims for e in effects):
            raise DimensionError("all effects must share one DimList")
        matrices = np.array([e.matrix for e in effects])
        if _psd_screened(matrices, TOL_CHECK) is None:
            raise InvalidPOVMError("effect is not positive semidefinite")
        self._complete(matrices, dims, outcome_labels)

    def _complete(self, matrices: np.ndarray, dims: tuple[int, ...], outcome_labels) -> POVM:
        """Check completeness and the labels of a complex (k, d, d) stack of
        effects, then set the fields and return the POVM."""
        total = sum(matrices)
        if not np.max(np.abs(total - np.eye(len(total)))) <= TOL_EQ:
            raise InvalidPOVMError("effects do not sum to the identity")
        if outcome_labels is None:
            outcome_labels = tuple(range(len(matrices)))
        else:
            outcome_labels = tuple(outcome_labels)
            if len(outcome_labels) != len(matrices):
                raise InvalidPOVMError("one label per effect required")
        matrices.flags.writeable = False
        return _set_fields(self, matrices=matrices, dims=dims, outcome_labels=outcome_labels)

    @property
    def n_outcomes(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class SeparableMeasurement(POVM):
    """A POVM defined by an explicit tensor-decomposition certificate.

    Each effect is given by a (left, right) pair of equally long (t, d, d)
    stacks of PSD factors, one pair of factor dims for all effects, and is
    their tensor sum sum_t left[t] (x) right[t].  Separability detection
    being hard in general, the certificate is stored, never searched for.
    """

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __init__(self, terms, outcome_labels=None):
        terms = tuple((_square_stack(left, "left factors"), _square_stack(right, "right factors"))
                      for left, right in terms)
        pairs = {(l.shape[1], r.shape[1]) for l, r in terms}
        if len(pairs) != 1 or any(len(l) != len(r) for l, r in terms):
            raise DimensionError("each effect needs equally many factors on one pair of dims")
        (dims,) = pairs
        # sum_t left_t (x) right_t of each effect, as one einsum over the stacked pairs
        d = dims[0] * dims[1]
        matrices = np.array([np.einsum("tij,tkl->ikjl", l, r, optimize=True).reshape(d, d)
                             for l, r in terms])
        self._complete(matrices, dims, outcome_labels)
        # not all empty: the effects sum to the identity, so one has factors
        if any(_psd_screened(np.concatenate(side), TOL_CHECK) is None for side in zip(*terms)):
            raise InvalidPOVMError("decomposition factor not PSD")
        _set_fields(self, terms=terms)


def _psd_povm(matrices: np.ndarray, dims: tuple[int, ...], outcome_labels=None) -> POVM:
    """The POVM of a complex (k, d, d) stack of effects that are PSD by
    construction: completeness and the labels are checked
    (``POVM._complete``), the spectra are not."""
    return object.__new__(POVM)._complete(matrices, dims, outcome_labels)


def bell_swap_povm(local_dim: int = 3) -> POVM:
    """Two-outcome swap measurement {singlet projector, complement}.

    For ``local_dim`` > 2 the singlet lives in the {|0>, |1>} x {|0>, |1>}
    qubit block; the default qutrit pair is the erasure-channel setting.
    """
    if local_dim < 2:
        raise DimensionError("local_dim must be >= 2")
    d = local_dim
    v = np.zeros(d * d, dtype=complex)
    v[0 * d + 1] = 1 / np.sqrt(2)
    v[1 * d + 0] = -1 / np.sqrt(2)
    # a rank-one projector and its complement, PSD by construction
    m0 = projector(v, [d, d]).matrix
    return _psd_povm(np.array([m0, np.eye(d * d) - m0]), (d, d), (0, 1))


def input_encoded_measurement(sub_povms: Sequence[POVM], d: int) -> POVM:
    """Block-diagonal POVM sum_x |x><x| (x) M_{b|x} over ``d`` sub-POVMs."""
    sub_povms = list(sub_povms)
    if len(sub_povms) != d:
        raise InvalidPOVMError(f"expected {d} sub-POVMs, got {len(sub_povms)}")
    n_out = sub_povms[0].n_outcomes
    labels = sub_povms[0].outcome_labels
    target = sub_povms[0].dims
    if any(p.n_outcomes != n_out or p.dims != target for p in sub_povms):
        raise InvalidPOVMError("sub-POVMs must share outcome count and dims")
    d_t = sub_povms[0].matrices.shape[1]
    mats = np.zeros((n_out, d * d_t, d * d_t), dtype=complex)
    for x, p in enumerate(sub_povms):
        mats[:, x * d_t:(x + 1) * d_t, x * d_t:(x + 1) * d_t] = p.matrices
    effects = [QOperator(mat, (d,) + tuple(target)) for mat in mats]
    return POVM(effects, outcome_labels=labels)


def pauli_projective(axis) -> POVM:
    """Dichotomic qubit measurement (I +/- axis . sigma)/2 along a unit axis."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1.0) > TOL_CHECK:
        raise ValueError(f"axis must be a unit 3-vector, got {axis}")
    obs = sum(a * s for a, s in zip(axis, PAULIS))
    plus = QOperator((np.eye(2) + obs) / 2, [2])
    minus = QOperator((np.eye(2) - obs) / 2, [2])
    return POVM([plus, minus], outcome_labels=(0, 1))


def computational_basis_povm(d: int) -> POVM:
    return POVM(
        [projector(basis_ket(i, d), [d]) for i in range(d)],
        outcome_labels=tuple(range(d)),
    )

