"""Per-point oracles of the grid sweeps, and the channel and single-element
helpers they are built from.

``run_verify_swap`` and ``run_activation`` build, contract and certify one
block of grid points at a time.  These are the one-point computations they
replace, kept as references: each builds its own ``LinearNetwork`` of DEW
sources (pushed through the erasure channel one factor at a time, with this
module's own Kraus einsum), contracts one element with ``assemblage_element``
and certifies it on its own.  ``dew_kraus_stack`` is the same Kraus einsum
on a stack of (eta, omega) pairs, the reference of ``states._dew_stack``'s
direct block build.  ``erased_unsteerable`` is the erased-state criterion
on the Bloch data of any two-qubit state (``bloch_data``), the reference of
the sweeps' closed form ``certificates._dew_unsteerable``.
``write_csv_records`` is the per-record CSV writer
that ``experiments.write_csv``, which formats one column at a time,
replaced.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from netsteer.certificates import TOL_OPT, _endpoint_negativities
from netsteer.measurements import bell_swap_povm
from netsteer.network import LinearNetwork, _contract, _tensors
from netsteer.operators import (PAULIS, TOL_CHECK, TOL_EQ, DimensionError, QOperator, _hermitian,
                                basis_ket)
from netsteer.states import _werner_mix, werner

from conftest import max_entry_distance, spectral_extremes

SWAP = bell_swap_povm(3)


@dataclass(frozen=True)
class BlochData:
    """Local Bloch vector of the measuring party and correlation matrix
    T_ij = Tr(rho sigma_i (x) sigma_j) of a two-qubit state."""

    a: np.ndarray
    t: np.ndarray

    def __init__(self, a, t):
        a = np.asarray(a, dtype=float)
        t = np.asarray(t, dtype=float)
        if a.shape != (3,) or t.shape != (3, 3):
            raise ValueError("need a 3-vector and a 3x3 matrix")
        if np.linalg.norm(a) > 1 + TOL_CHECK or np.max(np.abs(t)) > 1 + TOL_CHECK:
            raise ValueError("Bloch data out of physical range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "t", t)


def bloch_data(rho: QOperator) -> BlochData:
    """Extract Bloch data from a two-qubit state.

    A qutrit pair produced by erasing both sides is accepted too: the
    {|0>,|1>} x {|0>,|1>} block is extracted and renormalised (the erasure
    weight is carried separately by the criterion's eta argument).
    """
    if rho.dims == (2, 2):
        mat = rho.matrix
    elif rho.dims == (3, 3):
        idx = [0, 1, 3, 4]
        block = rho.matrix[np.ix_(idx, idx)]
        tr = np.trace(block).real
        if tr < 1e-14:
            raise DimensionError("qubit block has zero weight")
        mat = block / tr
    else:
        raise DimensionError(f"unsupported dims {rho.dims}")
    a = np.array(
        [np.trace(np.kron(s, np.eye(2)) @ mat).real for s in PAULIS]
    )
    t = np.array(
        [[np.trace(np.kron(si, sj) @ mat).real for sj in PAULIS] for si in PAULIS]
    )
    return BlochData(a, t)


def erased_unsteerable(b: BlochData, eta: float) -> tuple[bool, float]:
    """Sufficient unsteerability condition after one-sided erasure.

    The erased state is unsteerable from the erased side, for arbitrary
    measurements, if (1-3 eta)|a.x| + (3 eta/2)(1 + (a.x)^2) + ||Tx|| is at
    most 1 for every unit vector x.  The returned value is a closed-form
    upper bound on that maximum: the objective depends on x through
    t = |a.x| in [0, |a|], convexly, so its t-part peaks at an end of that
    interval, and ||Tx|| is at most the largest singular value of T.  At
    a = 0 the bound is the maximum, 3 eta/2 + sigma_max(T).
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0,1], got {eta}")
    a = float(np.linalg.norm(b.a))
    value = (max(1.5 * eta, (1.0 - 3.0 * eta) * a + 1.5 * eta * (1.0 + a * a))
             + float(np.linalg.svd(b.t, compute_uv=False)[0]))
    return value <= 1.0 + TOL_OPT, float(value)


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map given by Kraus operators.

    All Kraus operators share the shape (d_out, d_in); trace preservation
    (sum of K^dag K equal to the identity) is validated at construction.
    """

    kraus: tuple

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


def erasure_kraus(etas, d_in=2):
    """The (d_in + 1, d_out, d_in) Kraus operators of the erasure channel of
    a survival probability, or their (G, d_in + 1, d_out, d_in) stack for an
    array of G: sqrt(eta) times the embedding, then sqrt(1 - eta) times the
    map of each basis state to the loss flag, index d_in."""
    d_out = d_in + 1
    embed = np.zeros((d_out, d_in), dtype=complex)
    embed[:d_in, :] = np.eye(d_in)
    flag = basis_ket(d_in, d_out)
    losses = [np.outer(flag, basis_ket(i, d_in).conj()) for i in range(d_in)]
    etas = np.asarray(etas)[..., None, None]
    return np.stack([np.sqrt(etas) * embed] + [np.sqrt(1 - etas) * loss for loss in losses],
                    axis=-3)


def erasure_channel(eta, d_in=2):
    """Erasure with survival probability ``eta``: d_in -> d_in + 1, basis
    index d_in being the loss flag."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0,1], got {eta}")
    return Channel(erasure_kraus(eta, d_in))


def apply_kraus(kraus, mats, dims, factor):
    """sum_k (1 (x) K_k (x) 1) op (1 (x) K_k (x) 1)^dag on factor ``factor``
    of the (..., D, D) matrices on ``dims``, with the (..., K, d_out, d_in)
    Kraus operators of each row: one unplanned three-operand einsum."""
    d_out, d_in = kraus.shape[-2:]
    d_left = math.prod(dims[:factor])
    d_right = math.prod(dims[factor + 1:])
    lead = mats.shape[:-2]
    t = mats.reshape(lead + (d_left, d_in, d_right, d_left, d_in, d_right))
    side = d_left * d_out * d_right
    out = np.einsum("...koi,...aibcjd,...kpj->...aobcpd", kraus, t, kraus.conj())
    return out.reshape(lead + (side, side))


def apply_channel(ch, op, factor):
    """``apply_kraus`` of a channel on one tensor factor of an operator;
    the dims entry is updated."""
    if factor < 0 or factor >= op.nfactors:
        raise DimensionError(f"factor {factor} out of range for dims {op.dims}")
    kraus = np.array(ch.kraus)
    if op.dims[factor] != kraus.shape[-1]:
        raise DimensionError(
            f"factor dim {op.dims[factor]} does not match channel input {kraus.shape[-1]}")
    dims = list(op.dims)
    dims[factor] = kraus.shape[-2]
    return QOperator(apply_kraus(kraus, op.matrix, op.dims, factor), dims)


def dew_kraus_stack(etas, omegas):
    """The (G, 9, 9) DEW states of G (eta, omega) pairs: the Werner mix of
    each visibility erased on both sides by the Kraus einsum."""
    kraus = erasure_kraus(etas, 2)
    mats = apply_kraus(kraus, _werner_mix(omegas), (2, 2), 0)
    return apply_kraus(kraus, mats, (3, 2), 1)


def assemblage_element(net, outcome):
    """Single assemblage element of ``net`` without materialising the other
    outcomes: one effect per central measurement through ``_contract``."""
    outcome = tuple(outcome)
    if len(outcome) != len(net.central_measurements):
        raise DimensionError("one outcome label per central measurement required")
    choices = [m.matrices[m.outcome_labels.index(label)][None]
               for m, label in zip(net.central_measurements, outcome)]
    rows, index = _contract(_tensors(net.sources), choices)
    return QOperator(rows[index[0]], net.endpoint_dims)


def dew_channels(eta, omega):
    """The DEW state as two applications of the erasure channel."""
    ch = erasure_channel(eta, 2)
    return apply_channel(ch, apply_channel(ch, werner(omega), 0), 1)


def swap_deviation(eta, omega):
    """Max-entry distance between the successful-swap element of two erased
    Werner sources and (eta^2/4) times the squared-visibility state."""
    src = dew_channels(eta, omega)
    net = LinearNetwork([src, src], [SWAP])
    element = assemblage_element(net, (0,))
    target = dew_channels(eta, omega * omega)
    expected = QOperator(eta * eta / 4.0 * target.matrix, target.dims)
    return max_entry_distance(element, expected)


def activation_point(n_parties, eta, omega):
    """One grid point of the activation sweep: source certificates plus the
    network-steering certificate on the all-successful-swaps element."""
    src = dew_channels(eta, omega)
    n_src = n_parties - 1
    unsteerable, _ = erased_unsteerable(BlochData(np.zeros(3), -omega * np.eye(3)), eta)
    net = LinearNetwork([src] * n_src, [SWAP] * (n_src - 1))
    sigma0 = assemblage_element(net, (0,) * (n_src - 1))
    mats = np.stack([src.matrix, sigma0.matrix])
    negs, entangled = _endpoint_negativities(_hermitian(mats), src.dims, spectral_extremes(mats))
    return {
        "n": n_parties,
        "eta": eta,
        "omega": omega,
        "source_negativity": float(negs[0]),
        "source_unsteerable": bool(unsteerable),
        "swap_visibility": float(omega ** (n_parties - 1)),
        "success_prob": float(np.trace(sigma0.matrix).real),
        "sigma0_negativity": float(negs[1]),
        "network_steering": bool(entangled[1]),
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv_records(records: list, path) -> None:
    """Write a report's records as CSV, one record and one value at a time."""
    if not records:
        raise ValueError("nothing to write")
    fields = list(records[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_fmt(rec[f]) for f in fields])
