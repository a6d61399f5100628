"""Explicit network-local-hidden-state models: constructors, reconstruction,
the LHS and LHV searches, and the separable-realisation transforms.

Hidden variables are finite and explicitly enumerated throughout.  A failed
search is always reported as "model not found" and never as a steering
verdict: absence of a found model is not evidence of network steering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import (
    DimensionError,
    PAULIS,
    QOperator,
    TOL_CHECK,
    TOL_EQ,
    TOL_NORM,
    _apply_and_trace,
    _density_extremes,
    _kron,
    _set_fields,
    _square_stack,
)
from .measurements import (
    POVM,
    SeparableMeasurement,
    computational_basis_povm,
)
from .network import NetworkAssemblage, _distinct, standard_assemblage

RECONSTRUCTION_TOL = 1e-10
N_BLOCH = 26              # Fibonacci-grid qubit states added to the LHS candidates
# The largest Werner visibility given a separable decomposition: the
# separability bound 1/3, with room for the rounding of a visibility read as 1/3.
WERNER_SEPARABLE_MAX = 1.0 / 3.0 + 1e-12
# Rows x columns of the largest NNLS system built: 2**25 float64 entries,
# 256 MiB.  It bounds the system's size, not its solve time: a LOC slot on a
# maximally mixed (4, 2) source between classical_correlated d=4 and d=2
# sources, through computational d=4 and bell_swap 2, builds a 128 x 131,072
# system, half the limit, and its one nnls call runs for about 12 s on one
# core of an Intel Xeon (scipy 1.17).
MAX_SYSTEM_ENTRIES = 2 ** 25


class ModelNotFoundError(RuntimeError):
    """A search could not exhibit the required local model.

    This is not a steering claim; it only means this toolkit's finite
    search failed.
    """


class PatternError(ValueError):
    """The requested slot pattern cannot be resolved (bad slot, wrong
    measurement count, bad endpoint, or a measurement claimed twice)."""


# --------------------------------------------------------------------------
# model and reconstruction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NLHSModel:
    """Per-source hidden distributions, per-party response tables, and
    hidden endpoint states.

    responses[j][b, lam_j, lam_{j+1}] is the response of the central party
    sitting between sources j and j+1; outcome axis b is indexed by
    ``outcome_labels[j]``.  ``left_states[i]`` (``right_states[k]``) is the
    endpoint state for hidden value i of the first (k of the last) source:
    read-only (k, d, d) stacks.
    """

    source_dists: tuple[np.ndarray, ...]
    responses: tuple[np.ndarray, ...]
    left_states: np.ndarray
    right_states: np.ndarray
    outcome_labels: tuple[tuple, ...]

    def __init__(self, source_dists, responses, left_states, right_states, outcome_labels=None):
        source_dists = tuple(_float_array(p) for p in source_dists)
        responses = tuple(_float_array(r) for r in responses)
        left_states = _square_stack(left_states, "left endpoint states")
        right_states = _square_stack(right_states, "right endpoint states")
        if len(responses) != len(source_dists) - 1:
            raise ValueError("need one response table per central party")
        for p in source_dists:
            if p.ndim != 1 or not (np.all(p >= -1e-12) and abs(p.sum() - 1) <= TOL_EQ):
                raise ValueError("hidden distributions must be normalised")
        for j, r in enumerate(responses):
            if r.shape[1:] != (len(source_dists[j]), len(source_dists[j + 1])):
                raise ValueError(f"response table {j} has wrong hidden-variable shape")
            norm = r.sum(axis=0)
            if not (np.all(np.abs(norm - 1) <= TOL_NORM) and np.all(r >= -1e-10)):
                raise ValueError(f"response table {j} is not a conditional distribution")
        if len(left_states) != len(source_dists[0]):
            raise ValueError("one left endpoint state per first hidden value")
        if len(right_states) != len(source_dists[-1]):
            raise ValueError("one right endpoint state per last hidden value")
        if not _densities(left_states, right_states):
            raise ValueError("endpoint hidden states must be densities")
        if outcome_labels is None:
            outcome_labels = [range(len(r)) for r in responses]
        outcome_labels = tuple(tuple(l) for l in outcome_labels)
        if [(len(l), len(set(l))) for l in outcome_labels] != [(len(r),) * 2 for r in responses]:
            raise ValueError("need one distinct outcome label per outcome of each response table")
        _set_fields(self, source_dists=source_dists, responses=responses, left_states=left_states,
                    right_states=right_states, outcome_labels=outcome_labels)

    @property
    def n_parties(self) -> int:
        return len(self.source_dists) + 1


def _float_array(values) -> np.ndarray:
    """``values`` copied into a read-only float array, so that no caller's
    array can change a checked object."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _is_flags(stack: np.ndarray) -> bool:
    """Whether a (k, d, d) stack is exactly the d flag projectors |t><t|, in
    order: k == d, and its only non-zero entries are a 1 at [t, t, t]."""
    n, flat = len(stack), stack.ravel()
    return (stack.shape[1] == n and np.count_nonzero(flat) == n
            and bool(np.all(flat[::n * n + n + 1] == 1)))


def _densities(*stacks: np.ndarray) -> bool:
    """True iff every matrix of every non-empty stack is a density to ``TOL_NORM``."""
    return all(_density_extremes(s, TOL_NORM) is not None for s in stacks)


def reconstruct(model: NLHSModel) -> NetworkAssemblage:
    """Assemble the (separable-by-construction) network assemblage.

    Element ``bs`` is sum_{i,k} w_bs[i, k] L_i (x) R_k, where the chained
    hidden weights are w_bs = diag(p_0) R_0[b_0] diag(p_1) ... diag(p_last);
    all outcome tuples are computed as one stack, prefix-major like
    ``itertools.product``.
    """
    w = np.diag(model.source_dists[0])[None]
    for resp, p in zip(model.responses, model.source_dists[1:]):
        w = (w[:, None] @ (resp * p)[None]).reshape(-1, w.shape[1], len(p))
    mats = np.einsum("pik,iac,kbd->pabcd", w, model.left_states, model.right_states, optimize=True)
    side = mats.shape[1] * mats.shape[2]
    return NetworkAssemblage(mats.reshape(len(w), side, side),
                             itertools.product(*model.outcome_labels), mats.shape[1:3])


# --------------------------------------------------------------------------
# separable decompositions and the LHS and LHV searches
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableDecomposition:
    """Explicit convex decomposition sum_g p(g) L_g (x) R_g of a source,
    with the p(g) held as a read-only float vector and the L_g and R_g as
    read-only (k, d, d) stacks."""

    weights: np.ndarray
    left_states: np.ndarray
    right_states: np.ndarray

    def __init__(self, weights, left_states, right_states):
        weights = _float_array(weights)
        left_states = _square_stack(left_states, "left states")
        right_states = _square_stack(right_states, "right states")
        if not (len(weights) == len(left_states) == len(right_states)):
            raise ValueError("one (left, right) pair per weight required")
        if not (np.all(weights >= -1e-12) and abs(weights.sum() - 1) <= TOL_EQ):
            raise ValueError("weights must be a probability distribution")
        if not _densities(left_states, right_states):
            raise ValueError("decomposition states must be densities")
        _set_fields(self, weights=weights, left_states=left_states, right_states=right_states)

    def state(self) -> QOperator:
        """sum_g p(g) L_g (x) R_g, each entry the one the sum of the weighted
        Kronecker products, term by term from 0, gives."""
        dims = (self.left_states.shape[1], self.right_states.shape[1])
        left_flags = _is_flags(self.left_states)
        if left_flags or _is_flags(self.right_states):
            # term t is block (t, t) of the flag side, p(t) times the other
            # factor, and zero elsewhere; + 0.0 gives every zero the +0.0
            # that the sum from 0 gives it
            t = np.arange(len(self.weights))
            out = np.zeros(dims + dims, dtype=complex)
            if left_flags:
                out[t, :, t, :] = self.weights[:, None, None] * self.right_states
            else:
                out[:, t, :, t] = self.weights[:, None, None] * self.left_states
            return QOperator(out.reshape(dims[0] * dims[1], -1) + 0.0, dims)
        # the weighted products in one stack, summed term by term in order
        terms = self.weights[:, None, None] * _kron(self.left_states, self.right_states)
        return QOperator(sum(terms), dims)


def _reproduces(dec: SeparableDecomposition, rho: QOperator) -> bool:
    """Whether ``dec`` decomposes ``rho``: equal dims and every entry
    within ``TOL_CHECK``."""
    state = dec.state()
    return state.dims == rho.dims and np.max(np.abs(state.matrix - rho.matrix)) <= TOL_CHECK


def _decomposition(weights: np.ndarray, left_states: np.ndarray,
                   right_states: np.ndarray) -> SeparableDecomposition:
    """The ``SeparableDecomposition`` of parts already known valid, held as
    its constructor would hold them: a read-only float probability vector
    and read-only complex (k, d, d) stacks of densities, one pair per weight."""
    return _set_fields(object.__new__(SeparableDecomposition), weights=weights,
                       left_states=left_states, right_states=right_states)


def _flags(n: int) -> np.ndarray:
    """The read-only complex (n, n, n) stack of flag projectors |a><a|."""
    return _square_stack(np.eye(n)[:, :, None] * np.eye(n)[:, None, :], "flags")


def classical_correlated_decomposition(d: int) -> SeparableDecomposition:
    """sum_a |a><a| (x) |a><a| / d, for d >= 1: flag projectors, uniform
    weights, so neither is checked."""
    if not d >= 1:
        raise ValueError(f"classical correlated source needs d >= 1, got {d!r}")
    return _decomposition(_float_array(np.full(d, 1.0 / d)), _flags(d), _flags(d))


def werner_separable_decomposition(omega: float) -> SeparableDecomposition:
    """Explicit separable form of the Werner state for 0 <= omega <= 1/3.

    Mixes the six antipodal Pauli eigenstate pairs (which reproduce the
    omega = 1/3 state) with the four computational products for the
    remaining white noise.  For every omega accepted the weights pass
    ``SeparableDecomposition``'s checks and the states are projectors, so
    neither is checked.
    """
    if not 0.0 <= omega <= WERNER_SEPARABLE_MAX:
        raise ValueError(f"Werner state has no separable form for omega = {omega!r}")
    eye = np.eye(2, dtype=complex)
    # (P+, P-) and (P-, P+) for the eigenprojectors of each Pauli, then |i><i| (x) |j><j|
    pairs = [((eye + s) / 2, (eye - s) / 2) for s in PAULIS]
    lefts = [m for plus, minus in pairs for m in (plus, minus)] + list(_flags(2)[[0, 0, 1, 1]])
    rights = [m for plus, minus in pairs for m in (minus, plus)] + list(_flags(2)[[0, 1, 0, 1]])
    return _decomposition(_float_array([3 * omega / 6] * 6 + [(1 - 3 * omega) / 4] * 4),
                          _square_stack(lefts, "left states"), _square_stack(rights, "right states"))


def _strategies(n_out: int, n_in: int) -> np.ndarray:
    """0/1 table d[s, b, x] = [s(x) == b] of the deterministic strategies
    s: inputs -> outcomes, in ``itertools.product(range(n_out), repeat=n_in)``
    order."""
    digits = np.indices((n_out,) * n_in).reshape(n_in, -1).T
    return (digits[:, None, :] == np.arange(n_out)[:, None]).astype(float)


def _check_size(rows: int, cols: int) -> None:
    """Refuse, before it is built, a system the finite search cannot hold."""
    if rows * cols > MAX_SYSTEM_ENTRIES:
        raise ModelNotFoundError(
            f"{rows} x {cols} system exceeds the search limit of "
            f"{MAX_SYSTEM_ENTRIES} entries"
        )


def _nnls_weights(a_mat: np.ndarray, b_vec: np.ndarray, what: str) -> np.ndarray:
    """Nonnegative w with a_mat @ w = b_vec within ``RECONSTRUCTION_TOL``."""
    # imported here, so that importing the package does not load scipy
    from scipy.optimize import nnls
    w, _ = nnls(a_mat, b_vec, maxiter=10 * a_mat.shape[1])
    resid = np.max(np.abs(a_mat @ w - b_vec))
    if resid > RECONSTRUCTION_TOL:
        raise ModelNotFoundError(
            f"{what} residual {resid:.3e} exceeds {RECONSTRUCTION_TOL:.1e}"
        )
    return w


def _born(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re Tr(E S) over broadcast stacks of effect and state matrices."""
    return np.trace(effects @ states, axis1=-2, axis2=-1).real


def _real_rows(mats: np.ndarray) -> np.ndarray:
    """Each complex matrix of a stack as one real row: real part, then
    imaginary part, both row-major."""
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _read_off(dec: SeparableDecomposition, effects: np.ndarray, measured: int):
    """The LHS model a decomposition of the source gives, the term index as
    the hidden variable: its weights, the Born responses resp[b, x, g] of
    factor ``measured`` to the (inputs, outcomes, d, d) ``effects``, and the
    other factor's states."""
    stacks = (dec.left_states, dec.right_states)
    resp = _born(effects[:, :, None], stacks[measured]).transpose(1, 0, 2)
    return dec.weights, resp, stacks[1 - measured]


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors, shape (n, 3)."""
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _lhs_search(rho: QOperator, effects: np.ndarray, measured: int):
    """LHS model of the states that factor ``measured`` of ``rho``, measured
    with the (inputs, outcomes, d, d) ``effects``, steers on the other
    factor: (weights, responses resp[b, x, l], read-only hidden states, the
    number of distinct inputs solved for).

    A finite-behaviour search: deterministic response functions paired with
    hidden states drawn from the normalised steered states plus, for a qubit,
    a fixed grid of ``N_BLOCH`` = 26 Fibonacci-sphere Bloch vectors; weights
    solved by nonnegative least squares.  Only reconstructions within
    ``RECONSTRUCTION_TOL`` are accepted.  Inputs whose steered states
    sigma_{.|x} are equal byte for byte are solved once, as one input, and
    answered as their first occurrence through the index of
    ``network._distinct``, the contraction's merge (the identity when no
    input repeats).  A search whose system, after that merge,
    would exceed ``MAX_SYSTEM_ENTRIES`` = 2**25 entries raises
    ``ModelNotFoundError`` before any of it is enumerated.  The limit bounds
    the system's size (256 MiB), not its solve time, which can run to
    seconds below it (see ``MAX_SYSTEM_ENTRIES``)."""
    n_out = effects.shape[1]
    steered, rep = _distinct(_apply_and_trace(rho.matrix[None], rho.dims, effects, measured)[0])
    n_in = len(steered)
    sigma = _real_rows(steered)
    # the normalised steered states of the distinct inputs, then the qubit grid
    mats = steered.reshape((-1,) + steered.shape[2:])
    traces = np.trace(mats, axis1=1, axis2=2).real
    cands = list(mats[traces > TOL_CHECK] / traces[traces > TOL_CHECK, None, None])
    if rho.dims[1 - measured] == 2:
        cands += [(np.eye(2) + sum(c * s for c, s in zip(u, PAULIS))) / 2
                  for u in fibonacci_sphere(N_BLOCH)]
    cands = np.array(cands)
    n_cand = len(cands)
    _check_size(sigma.size, n_out ** n_in * n_cand)
    # unknowns: c[s, j] >= 0 with
    #   sum_{s: s(x)=b} sum_j c[s, j] tau_j = sigma_{b|x}
    # rows [x, b, entry of sigma_{b|x}], columns [s, j], x over the distinct inputs
    strat = _strategies(n_out, n_in)
    tau = _real_rows(cands).T
    a_mat = np.zeros((n_in, n_out, len(tau), len(strat), n_cand))
    for x in range(n_in):
        for b in range(n_out):
            a_mat[x, b][:, strat[:, b, x] > 0] = tau[:, None, :]
    c = _nnls_weights(a_mat.reshape(sigma.size, -1), sigma.ravel(), "NNLS")
    weights = c.reshape(len(strat), n_cand)
    keep_s, keep_j = np.nonzero(weights > 1e-14)
    dist = weights[keep_s, keep_j]
    total = dist.sum()
    if abs(total - 1.0) > TOL_NORM:
        raise ModelNotFoundError(f"weights sum to {total}, expected 1")
    resp = strat[keep_s][:, :, rep].transpose(1, 2, 0)
    return dist / total, resp, _square_stack(cands[keep_j], "hidden states"), n_in


def solve_lhv(behavior: np.ndarray):
    """Local-hidden-variable decomposition of p(b, c | x, y).

    ``behavior`` has shape (n_b, n_c, n_x, n_y).  Returns (dist over
    deterministic strategy pairs, left responses resp_b[b, x, l],
    right responses resp_c[c, y, l], the numbers of distinct x- and
    y-inputs solved for).  x-inputs whose slices p(., . | x, .) are equal
    byte for byte, and then likewise y-inputs, are solved once, as one input,
    and answered through the index of ``network._distinct``, the
    contraction's merge (the identity when no input repeats).
    Deterministic-vertex weights are found by nonnegative least squares;
    first-feasible tie-break is the lowest lexicographic strategy index
    (nnls is deterministic).  A system over ``MAX_SYSTEM_ENTRIES`` after
    that merge raises ``ModelNotFoundError``.  The limit bounds the size,
    not the solve time: the 128 x 131,072 system of the example at
    ``MAX_SYSTEM_ENTRIES`` passes it and takes seconds to solve.
    """
    n_b, n_c = behavior.shape[:2]
    # the distinct x-slices [x, b, c, y], then the distinct y-slices of those [y, x, b, c]
    xs, rep_x = _distinct(np.moveaxis(behavior, 2, 0))
    ys, rep_y = _distinct(np.moveaxis(xs, 3, 0))
    behavior = ys.transpose(2, 3, 1, 0)
    _check_size(behavior.size, n_b ** len(xs) * n_c ** len(ys))
    left = _strategies(n_b, len(xs))
    right = _strategies(n_c, len(ys))
    # rows ((b * n_c + c) * len(xs) + x) * len(ys) + y over the distinct x and y,
    # columns l * len(right) + r
    a_mat = np.einsum("lbx,rcy->bcxylr", left, right).reshape(behavior.size, -1)
    q = _nnls_weights(a_mat, behavior.reshape(-1), "LHV")
    keep = np.flatnonzero(q > 1e-14)
    dist = q[keep]
    dist = dist / dist.sum()
    resp_b = left[keep // len(right)][:, :, rep_x].transpose(1, 2, 0)
    resp_c = right[keep % len(right)][:, :, rep_y].transpose(1, 2, 0)
    return dist, resp_b, resp_c, len(xs), len(ys)


# --------------------------------------------------------------------------
# pattern constructors
# --------------------------------------------------------------------------

SEP = "SEP"
UNS_RIGHT = "UNS_RIGHT"
UNS_LEFT = "UNS_LEFT"
LOC = "LOC"
SLOT_KINDS = (SEP, UNS_RIGHT, UNS_LEFT, LOC)


@dataclass(frozen=True)
class SourceSlot:
    """A source tagged with the structural assumption used to resolve it.

    SEP slots require an explicit decomposition.  UNS slots read their LHS
    model off a decomposition when one is supplied and search for one
    otherwise.  LOC slots are resolved through the deterministic-strategy
    LHV solver.
    """

    kind: str
    state: QOperator
    decomposition: Optional[SeparableDecomposition] = None

    def __post_init__(self):
        if self.kind not in SLOT_KINDS:
            raise PatternError(f"unknown slot kind {self.kind!r}")
        if self.kind == SEP and self.decomposition is None:
            raise PatternError("SEP slot needs a SeparableDecomposition")


def _lhv_behavior(rho: QOperator, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """p(b, c | x, y) = Tr[(E_{b|x} (x) F_{c|y}) rho] of product measurements,
    from (inputs, outcomes, d, d) stacks of the effects E and F."""
    return _born(_kron(left[:, :, None, None], right), rho.matrix).transpose(1, 3, 0, 2)


def build_percolation_line(slots, measurements) -> tuple[NLHSModel, list[str]]:
    """Resolve a tagged line of arbitrary length into an NLHS model.

    Separable slots resolve immediately from their decompositions and feed
    effective inputs to their neighbours; unsteerable slots consume the
    measurement on their input side and pass hidden states onward, read off
    their decomposition when they have one and found by ``_lhs_search``
    otherwise; local slots consume both adjacent measurements through
    ``solve_lhv``.  Every decomposition a SEP or UNS slot supplies is checked
    against the slot's state before anything is solved.  The order is fixed:
    SEP slots ascending, UNS_LEFT slots right to left, UNS_RIGHT and LOC
    slots left to right, then a direct response for each measurement no slot
    consumed.  Returns the model and the resolution transcript, whose search
    lines give the inputs each search solved for.
    """
    slots = list(slots)
    measurements = list(measurements)
    n_src = len(slots)
    if len(measurements) != n_src - 1:
        raise PatternError(f"{n_src} sources need {n_src - 1} measurements")
    if slots[0].kind not in (SEP, UNS_LEFT):
        raise PatternError("leftmost slot must be SEP or UNS_LEFT (endpoint states)")
    if slots[-1].kind not in (SEP, UNS_RIGHT):
        raise PatternError("rightmost slot must be SEP or UNS_RIGHT (endpoint states)")
    for i, slot in enumerate(slots):
        if (slot.kind != LOC and slot.decomposition is not None
                and not _reproduces(slot.decomposition, slot.state)):
            raise PatternError(f"slot {i}: {slot.kind} decomposition does not reproduce "
                               "the slot's state")
    for j, m in enumerate(measurements):
        want = (slots[j].state.dims[1], slots[j + 1].state.dims[0])
        if m.dims != want:
            raise DimensionError(f"measurement {j} acts on {m.dims}, adjacent sources need {want}")

    # each measurement j is consumed by at most one resolver
    for j in range(n_src - 1):
        if slots[j].kind in (UNS_LEFT, LOC) and slots[j + 1].kind in (UNS_RIGHT, LOC):
            raise PatternError(
                f"measurement {j} claimed from both sides "
                f"({slots[j].kind} vs {slots[j + 1].kind})"
            )

    dists: list = [None] * n_src
    left_states: list = [None] * n_src    # states provided on the slot's left factor
    right_states: list = [None] * n_src
    responses: list = [None] * (n_src - 1)
    transcript: list[str] = []

    for i, slot in enumerate(slots):
        if slot.kind == SEP:
            dec = slot.decomposition
            dists[i] = dec.weights
            left_states[i], right_states[i] = dec.left_states, dec.right_states
            transcript.append(f"slot {i}: SEP resolved from decomposition")

    # The checks above give UNS_LEFT a SEP or UNS_LEFT right neighbour, UNS_RIGHT
    # and LOC a SEP or UNS_RIGHT left one, and LOC a SEP or UNS_LEFT right one,
    # so each sweep reaches a slot after the neighbours whose states it needs.
    schedule = ([i for i in reversed(range(n_src)) if slots[i].kind == UNS_LEFT]
                + [i for i in range(n_src) if slots[i].kind in (UNS_RIGHT, LOC)])
    for i in schedule:
        slot = slots[i]
        takes_left = slot.kind in (UNS_RIGHT, LOC)     # consumes measurement i - 1
        takes_right = slot.kind in (UNS_LEFT, LOC)     # consumes measurement i
        # the effects induced by each hidden state of a neighbour, [hidden state, outcome]
        lp = _apply_and_trace(measurements[i - 1].matrices, measurements[i - 1].dims,
                              right_states[i - 1], 0).swapaxes(0, 1) if takes_left else None
        rp = _apply_and_trace(measurements[i].matrices, measurements[i].dims,
                              left_states[i + 1], 1).swapaxes(0, 1) if takes_right else None
        distinct = ""
        try:
            if slot.kind == LOC:
                dists[i], resp_b, resp_c, n_x, n_y = solve_lhv(_lhv_behavior(slot.state, lp, rp))
                distinct = (f" ({n_x} of {len(lp)} x-inputs and "
                            f"{n_y} of {len(rp)} y-inputs distinct)")
            else:
                # an UNS slot measures factor 0 when it passes hidden states right
                measured, effects = (0, lp) if takes_left else (1, rp)
                if slot.decomposition is None:
                    dists[i], resp_b, states, n_in = _lhs_search(slot.state, effects, measured)
                    distinct = f" ({n_in} of {len(effects)} inputs distinct)"
                else:
                    dists[i], resp_b, states = _read_off(slot.decomposition, effects, measured)
                resp_c = resp_b
                (right_states if takes_left else left_states)[i] = states
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"{slot.kind.split('_')[0]} slot {i}: {exc}") from exc
        if takes_left:
            responses[i - 1] = resp_b                             # [b, lam_{i-1}, lam_i]
        if takes_right:
            responses[i] = np.transpose(resp_c, (0, 2, 1))        # [c, lam_i, lam_{i+1}]
        via = {UNS_RIGHT: f"measurement {i - 1}", UNS_LEFT: f"measurement {i}",
               LOC: f"measurements {i - 1} and {i}"}[slot.kind]
        transcript.append(f"slot {i}: {slot.kind} resolved via {via}{distinct}")

    # a measurement no slot consumed responds directly to its neighbour states
    for j, m in enumerate(measurements):
        if responses[j] is None:
            states = _kron(right_states[j][:, None], left_states[j + 1])   # [r, l]
            responses[j] = _born(m.matrices[:, None, None], states)
            transcript.append(f"measurement {j}: direct response from neighbour states")

    model = NLHSModel(dists, responses, left_states[0], right_states[-1],
                      outcome_labels=[m.outcome_labels for m in measurements])
    return model, transcript

# --------------------------------------------------------------------------
# separabilisation transforms
# --------------------------------------------------------------------------

def separabilize_endpoint(rho_ab: QOperator, m_a: POVM) -> tuple[QOperator, POVM]:
    """Replace an inputless untrusted endpoint's source by a separable one.

    The new source is the classical-flag state sum_a |a><a| (x) Tr_A(M_a rho)
    and the party now measures in the flag basis; every downstream behaviour
    is unchanged.
    """
    n = m_a.n_outcomes
    steered = standard_assemblage(rho_ab, [m_a], "left")[:, 0]
    d = steered.shape[1]
    flag = np.zeros((n * d, n * d), dtype=steered.dtype)
    for a in range(n):
        flag[a * d:(a + 1) * d, a * d:(a + 1) * d] = steered[a]
    rho_sep = QOperator(flag, (n, rho_ab.dims[1]))
    return rho_sep, computational_basis_povm(n)


@dataclass(frozen=True)
class SeparableRealization:
    """Separable sources and separable central measurements realising an
    NLHS model, certificates included: the line of the decompositions'
    states through the certificates' measurements."""

    source_decompositions: tuple[SeparableDecomposition, ...]
    measurement_certificates: tuple[SeparableMeasurement, ...]


def nlhs_to_separable_realization(model: NLHSModel) -> SeparableRealization:
    """Realise an NLHS model physically with separable states/measurements.

    Endpoint sources use the classical-flag construction (hidden state
    tensored with a flag ket); interior sources are perfectly correlated
    flags; every central measurement is diagonal in the flag basis with
    the model's response weights.  Built from the checked model, nothing
    is checked again but the completeness of each measurement: the model
    checks its responses' sums to ``TOL_NORM`` only.
    """
    last = len(model.source_dists) - 1
    decompositions = tuple(
        _decomposition(p, model.left_states if i == 0 else _flags(len(p)),
                       model.right_states if i == last else _flags(len(p)))
        for i, p in enumerate(model.source_dists)
    )

    certificates = []
    for resp, labels in zip(model.responses, model.outcome_labels):
        # effect b is sum_a |a><a| (x) diag(resp[b, a, :]), one term per left
        # flag, from the checked model's non-negative responses: the diagonal
        # matrix of resp[b], entry for entry the one the terms' einsum forms
        n_b, n_l, n_r = resp.shape
        weights = np.where(resp > 0.0, resp, 0.0)
        flags, eye, diag = _flags(n_l), np.eye(n_r), np.arange(n_l * n_r)
        terms = tuple((flags, _square_stack(r[:, :, None] * eye, "right factors")) for r in weights)
        effects = np.zeros((n_b, n_l * n_r, n_l * n_r), dtype=complex)
        effects[:, diag, diag] = weights.reshape(n_b, -1)
        measurement = object.__new__(SeparableMeasurement)._complete(effects, (n_l, n_r), labels)
        certificates.append(_set_fields(measurement, terms=terms))
    return SeparableRealization(decompositions, tuple(certificates))
