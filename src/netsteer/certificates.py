"""Steering verdicts: entanglement certificates, the erased-state
unsteerability criterion, a linear steering witness, and the separable
input-encoding pipeline that promotes ordinary steering to network steering.

A positive verdict is only ever issued from a sound certificate (NPT
negativity, or witness violation); failure of a sufficient unsteerability
condition is always reported as Inconclusive, never as "steerable".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operators import (
    DimensionError,
    NEG_CUTOFF,
    PAULIS,
    QOperator,
    _negativities,
)
from .measurements import computational_basis_povm, pauli_projective
from .network import (
    NetworkAssemblage,
    condition_on_trusted_measurement,
    lift_inputless_to_conditional,
    line_assemblage,
    standard_assemblage,
    untrusted_input_to_outcome,
)

TOL_OPT = 1e-6

CERTIFIED = "NetworkSteeringCertified"
INCONCLUSIVE = "Inconclusive"


class PipelinePreconditionError(ValueError):
    """Raised when the input state does not violate the steering witness."""


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[dict] = None

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def _endpoint_negativities(h: np.ndarray, dims: tuple,
                           extremes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativity across the endpoints of each matrix of a (k, d, d) stack
    on ``dims``, given by its Hermitian parts ``h`` and (k, 2) smallest and
    largest eigenvalues ``extremes`` as ``operators._psd_screened`` returns
    them (NaN for a matrix its screen proved to have none below
    -NEG_CUTOFF), and whether it certifies entanglement (exceeds
    ``NEG_CUTOFF``).  A matrix of trace at most ``NEG_CUTOFF`` is skipped
    with +0.0 (a Hermitian part has the real diagonal of its matrix); an
    evaluated one without negative eigenvalue reads -0.0.  The values come
    from ``operators._negativities``, which partial-transposes the parts
    as they are and eigendecomposes only the transposes that its shifted
    Cholesky screen does not prove free of eigenvalues below -NEG_CUTOFF;
    a proven one reads the -0.0 its spectrum would give."""
    live = np.trace(h, axis1=1, axis2=2).real > NEG_CUTOFF
    values = np.zeros(len(h))
    if live.any():
        rows = slice(None) if live.all() else live      # a slice gathers nothing
        values[rows] = _negativities(h[rows], dims, extremes[rows])
    return values, values > NEG_CUTOFF


def _row_negativities(asm: NetworkAssemblage) -> tuple[np.ndarray, np.ndarray]:
    """``_endpoint_negativities`` of the assemblage's distinct elements, from
    the Hermitian parts and extremes it kept from its own PSD check: NaN
    for the rows that the check's screen proved PSD, which the
    precondition then skips."""
    return _endpoint_negativities(asm._rows, asm.dims, asm._row_extremes)


def certify_network_steering(asm: NetworkAssemblage) -> Verdict:
    """Entanglement of any single element rules out an NLHS model.

    The negativities of the distinct elements come from
    ``_endpoint_negativities``, which partial-transposes the Hermitian parts
    the assemblage kept from its own PSD check.  Its positivity
    precondition reads the eigenvalue extremes of that check, for the rows
    its Cholesky screen did not prove PSD; its partial transposes are
    eigendecomposed only where a Cholesky factorisation shifted by
    NEG_CUTOFF / 2 does not prove them PPT, which on most lines is all but
    the entangled elements.  The first element of largest negativity is
    reported, found without gathering: the rows are in order of first
    occurrence, so the first row of largest negativity holds it, and it is
    that row's first element.  Negativity is sufficient but not necessary,
    so the only negative answer is Inconclusive.
    """
    values, entangled = _row_negativities(asm)
    if entangled.any():
        best = int(np.argmax(values))
        return Verdict(CERTIFIED, {"negativity": float(values[best]),
                                   "outcome": asm.outcomes[int(np.argmax(asm._index == best))]})
    return Verdict(INCONCLUSIVE)


def _dew_unsteerable(etas, omegas):
    """Two-way unsteerability of the doubly-erased Werner states of survival
    probabilities and visibilities in [0, 1], elementwise over arrays.

    The erased-state criterion: after one-sided erasure a two-qubit state
    of Bloch data (a, T) is unsteerable from the erased side, for arbitrary
    measurements, if (1 - 3 eta)|a.x| + (3 eta / 2)(1 + (a.x)^2) + ||T x||
    is at most 1 for every unit vector x.  On the Werner data (0, -omega I)
    it reads 3 eta / 2 + omega <= 1 (to ``TOL_OPT``).  The second erasure
    is absorbed by channel monotonicity of unsteerability, and swap
    symmetry of the state covers the reverse direction.  The criterion on
    any Bloch data, ``erased_unsteerable`` in ``tests/sweep_oracles.py``,
    is the reference this closed form is tested against."""
    return 1.5 * etas + omegas <= 1.0 + TOL_OPT


def linear_steering_witness(asm: np.ndarray, axes: Sequence) -> tuple[float, float, bool]:
    """Linear witness for a (2, m, 2, 2) standard assemblage of m dichotomic
    qubit measurements along ``axes``.

    value = (1/m) |sum_k tr((sigma_{0|k} - sigma_{1|k}) v_k . sigma)|;
    the LHS bound is the exact maximum over deterministic sign patterns,
    max_s ||sum_k s_k v_k|| / m.  Violation certifies steerability.
    """
    axes = [np.asarray(v, dtype=float) for v in axes]
    m = len(axes)
    if m == 0:
        raise ValueError("the witness needs at least one measurement")
    if asm.shape[:2] != (2, m):
        raise ValueError(f"witness needs dichotomic outcomes for {m} inputs, got shape {asm.shape}")
    if asm.shape[2:] != (2, 2):
        raise DimensionError("witness needs qubit steered states")
    acc = 0.0
    for k, v in enumerate(axes):
        obs = sum(c * s for c, s in zip(v, PAULIS))
        acc += np.trace((asm[0, k] - asm[1, k]) @ obs).real
    value = abs(acc) / m
    bound = max(
        np.linalg.norm(sum(s * v for s, v in zip(signs, axes)))
        for signs in itertools.product((1, -1), repeat=m)
    ) / m
    return float(value), float(bound), bool(value > bound + TOL_OPT)


def claims_pipeline(rho_steerable: QOperator, axes: Sequence) -> tuple[Verdict, dict]:
    """Promote a steerable two-qubit state to certified network steering.

    The input-choice is encoded into a perfectly correlated classical
    source and a block-diagonal fixed measurement; every resulting
    assemblage element is separable by construction, yet conditioning the
    flag endpoint and renormalising recovers the original steered
    assemblage, whose witness violation contradicts any NLHS model.
    """
    if rho_steerable.dims != (2, 2):
        raise DimensionError("pipeline expects a two-qubit state")
    axes = [np.asarray(v, dtype=float) for v in axes]
    d = len(axes)
    sub_povms = [pauli_projective(v) for v in axes]

    direct = standard_assemblage(rho_steerable, sub_povms, side="left")
    value, bound, violated = linear_steering_witness(direct, axes)
    if not violated:
        raise PipelinePreconditionError(
            f"witness value {value:.6f} does not exceed LHS bound {bound:.6f}"
        )

    asm = line_assemblage(untrusted_input_to_outcome(rho_steerable, sub_povms))

    # block identity: sigma_b = sum_x (1/d) |x><x| (x) sigma_{b|x}
    expected = np.zeros_like(asm.matrices)
    for x in range(d):
        expected[:, 2 * x:2 * x + 2, 2 * x:2 * x + 2] = direct[:, x] / d
    block_dev = float(np.max(np.abs(asm.matrices - expected)))

    separable_elements = not _row_negativities(asm)[1].any()

    conditioned = condition_on_trusted_measurement(asm, computational_basis_povm(d), "left")
    p, cond = lift_inputless_to_conditional(conditioned)
    round_trip_dev = float(np.max(np.abs(cond - direct)))
    p_dev = float(np.max(np.abs(p - 1.0 / d)))
    value2, bound2, violated2 = linear_steering_witness(cond, axes)

    transcript = {
        "witness_value": value,
        "witness_bound": bound,
        "block_identity_deviation": block_dev,
        "elements_separable": separable_elements,
        "input_probability_deviation": p_dev,
        "round_trip_deviation": round_trip_dev,
        "recovered_witness_value": value2,
        "recovered_witness_violated": violated2,
    }
    status = CERTIFIED if violated2 else INCONCLUSIVE
    return Verdict(status, {"witness_value": value2, "bound": bound2}), transcript
