"""Hand-derived NLHS constructors kept as test oracles.

Each constructor follows its own derivation chain (induced measurements,
then the LHS or LHV model of each slot, then assembly) for one fixed pattern,
independently of the generic percolation constructor
``netsteer.nlhs.build_percolation_line`` that the tests check against them.

The Kronecker oracles are the nested ``np.kron`` loops that the stacked
code replaced: a decomposition's state as the Python sum of its weighted
products, the product-measurement behaviour of a LOC slot and the direct
response of a measurement no slot consumes.  The stacked code forms the
same products in the same order, so it must match them bit for bit.
``diagonal_effects`` builds a realisation's measurement directly from its
response table, where the realisation sums its certificate's factors.

``induced_measurement`` is the per-state path the resolver replaced by one
stacked contraction: one POVM per hidden state, each effect contracted by
the single-matrix ``apply_and_trace`` oracle and the POVM checked anew.

``distinct_inputs`` is the merge of exactly equal inputs that the NLHS
searches made with a dict over row bytes before they used
``network._distinct``; the two must agree on every stack.
"""

import itertools

import numpy as np

from netsteer.measurements import POVM
from netsteer.nlhs import (
    ModelNotFoundError,
    NLHSModel,
    PatternError,
    SeparableDecomposition,
    _lhs_search,
    _read_off,
    solve_lhv,
)
from netsteer.operators import DimensionError, QOperator

from conftest import apply_and_trace


def induced_measurement(m: POVM, hidden_state: np.ndarray, side: str) -> POVM:
    """Plug a (d, d) hidden-state matrix into one factor of a two-factor POVM.

    side="left" traces the hidden state against the left factor, leaving a
    POVM on the right factor (and vice versa).  Completeness is inherited.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    plugged = 0 if side == "left" else 1
    if len(m.dims) != 2 or np.shape(hidden_state) != (m.dims[plugged],) * 2:
        raise DimensionError(f"a hidden state of shape {np.shape(hidden_state)} "
                             f"does not fit factor {plugged} of {m.dims}")
    local = QOperator(hidden_state, [m.dims[plugged]])
    return POVM([apply_and_trace(QOperator(e, m.dims), local, plugged) for e in m.matrices],
                outcome_labels=m.outcome_labels)


def effect_stack(povms) -> np.ndarray:
    """The effects of ``povms`` as the (inputs, outcomes, d, d) stack that
    the LHS searches and ``nlhs._lhv_behavior`` take."""
    return np.array([povm.matrices for povm in povms])


def distinct_inputs(rows) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first occurrence of each byte-for-byte distinct row of
    a stack, and for every row the position of its representative among
    them, from a dict over each row's bytes."""
    seen: dict[bytes, int] = {}
    first, rep = [], []
    for i, row in enumerate(rows):
        j = seen.setdefault(np.ascontiguousarray(row).tobytes(), len(first))
        if j == len(first):
            first.append(i)
        rep.append(j)
    return np.array(first, dtype=int), np.array(rep, dtype=int)


def reconstruct_kron_loop(model: NLHSModel) -> dict:
    """Oracle for ``reconstruct``: chain the hidden weights of each outcome
    tuple one matrix product at a time and sum the weighted Kronecker
    products of the endpoint states term by term.  Returns label -> matrix."""
    d_l, d_r = len(model.left_states[0]), len(model.right_states[0])
    elements = {}
    outcome_ranges = [range(r.shape[0]) for r in model.responses]
    for bs in itertools.product(*outcome_ranges):
        w = np.diag(model.source_dists[0])
        for j, b in enumerate(bs):
            w = w @ model.responses[j][b] @ np.diag(model.source_dists[j + 1])
        mat = np.zeros((d_l * d_r, d_l * d_r), dtype=complex)
        for i, left in enumerate(model.left_states):
            for k, right in enumerate(model.right_states):
                if w[i, k] != 0.0:
                    mat += w[i, k] * np.kron(left, right)
        label = tuple(model.outcome_labels[j][b] for j, b in enumerate(bs))
        elements[label] = mat
    return elements


def decomposition_state_sum(dec: SeparableDecomposition) -> np.ndarray:
    """Oracle for ``SeparableDecomposition.state``: the Python sum of the
    weighted Kronecker products, one term at a time."""
    return sum(w * np.kron(l, r) for w, l, r in zip(dec.weights, dec.left_states, dec.right_states))


def diagonal_effects(resp: np.ndarray) -> np.ndarray:
    """Oracle for the effects of a separable realisation's certificate: the
    (outcomes, d, d) stack of diagonal effects diag(d_b), one row d_b of the
    response table resp[b], clamped at zero and flattened, per outcome."""
    d = np.where(resp > 0, resp, 0).reshape(len(resp), -1)
    return (d[:, :, None] * np.eye(d.shape[1])).astype(complex)


def lhv_behavior_kron(rho, left, right):
    """Oracle for ``nlhs._lhv_behavior``: every product effect E (x) F of the
    (inputs, outcomes, d, d) effect stacks ``left`` and ``right`` built by
    ``np.kron`` in nested loops, then Re Tr over the stack."""
    kron = np.array([
        [[[np.kron(el, er) for er in pr] for pr in right] for el in pl]
        for pl in left
    ])
    return np.trace(kron @ rho.matrix, axis1=-2, axis2=-1).real.transpose(1, 3, 0, 2)


def direct_response_kron(m: POVM, rights, lefts):
    """Oracle for a direct response: resp[b, r, l] = Re Tr[E_b (R_r (x) L_l)]
    for the right states R of one source and the left states L of the next,
    every product built by ``np.kron`` in nested loops."""
    states = np.array([[np.kron(r, l) for l in lefts] for r in rights])
    return np.trace(m.matrices[:, None, None] @ states, axis1=-2, axis2=-1).real


def lhv_behavior(rho, left_povms, right_povms):
    """p(b, c | x, y) of a two-party state under product measurements."""
    n_b = left_povms[0].n_outcomes
    n_c = right_povms[0].n_outcomes
    out = np.zeros((n_b, n_c, len(left_povms), len(right_povms)))
    for x, pl in enumerate(left_povms):
        for y, pr in enumerate(right_povms):
            for b, el in enumerate(pl.matrices):
                for c, er in enumerate(pr.matrices):
                    out[b, c, x, y] = np.trace(
                        np.kron(el, er) @ rho.matrix
                    ).real
    return out


def uns_model(slot, povms, measured: int):
    """(weights, responses, hidden states) of an UNS slot whose factor
    ``measured`` is measured with ``povms``: read off the slot's
    decomposition, or searched for without one."""
    if slot.decomposition is not None:
        return _read_off(slot.decomposition, effect_stack(povms), measured)
    return _lhs_search(slot.state, effect_stack(povms), measured)[:3]


def build_sep_unsteer_bilocal(sep: SeparableDecomposition, rho_bc: QOperator, m: POVM) -> NLHSModel:
    """NLHS model for a separable first source and a second source that is
    unsteerable toward the trusted right endpoint, for any fixed central
    measurement."""
    if sep.state().dims[1] != m.dims[0] or rho_bc.dims[0] != m.dims[1]:
        raise DimensionError("measurement dims do not match the two sources")
    povms = [induced_measurement(m, g, side="left") for g in sep.right_states]
    dist, resp, states, _ = _lhs_search(rho_bc, effect_stack(povms), 0)
    return NLHSModel(
        source_dists=[sep.weights, dist],
        responses=[resp],                   # resp[b, gamma, lambda]
        left_states=sep.left_states,
        right_states=states,
        outcome_labels=[m.outcome_labels],
    )


def build_triangle_patterns(pattern: str, slots, measurements) -> NLHSModel:
    """Explicit NLHS constructions for the four-party line (unwrapped
    triangle): SEP-LOC-SEP, UNS-SEP-UNS, SEP-UNS-UNS, UNS-UNS-SEP.

    Each branch follows its own derivation chain (induced measurements,
    then each slot's LHS or LHV model, then assembly); the generic percolation
    constructor provides an independent route for cross-checks.
    """
    slots = list(slots)
    measurements = list(measurements)
    if len(slots) != 3 or len(measurements) != 2:
        raise PatternError("triangle patterns need three sources, two measurements")
    m0, m1 = measurements
    s0, s1, s2 = slots

    if pattern == "SEP-LOC-SEP":
        d0, d2 = s0.decomposition, s2.decomposition
        if d0 is None or d2 is None:
            raise PatternError("end slots need separable decompositions")
        left_povms = [induced_measurement(m0, r, "left") for r in d0.right_states]
        right_povms = [induced_measurement(m1, l, "right") for l in d2.left_states]
        behavior = lhv_behavior(s1.state, left_povms, right_povms)
        try:
            dist, resp_b, resp_c, _, _ = solve_lhv(behavior)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"LOC slot 1: {exc}") from exc
        return NLHSModel(
            [d0.weights, dist, d2.weights],
            [np.transpose(resp_b, (0, 1, 2)),              # [b, alpha, lam]
             np.transpose(resp_c, (0, 2, 1))],             # [c, lam, beta]
            d0.left_states,
            d2.right_states,
            outcome_labels=[m0.outcome_labels, m1.outcome_labels],
        )

    if pattern == "UNS-SEP-UNS":
        d1 = s1.decomposition
        if d1 is None:
            raise PatternError("central slot needs a separable decomposition")
        povms_left = [induced_measurement(m0, l, "right") for l in d1.left_states]
        povms_right = [induced_measurement(m1, r, "left") for r in d1.right_states]
        try:
            dist0, resp0, states0 = uns_model(s0, povms_left, 1)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 0: {exc}") from exc
        try:
            dist2, resp2, states2 = uns_model(s2, povms_right, 0)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 2: {exc}") from exc
        return NLHSModel(
            [dist0, d1.weights, dist2],
            [np.transpose(resp0, (0, 2, 1)),               # [b, alpha, gamma]
             resp2],                                       # [c, gamma, beta]
            states0,
            states2,
            outcome_labels=[m0.outcome_labels, m1.outcome_labels],
        )

    if pattern == "SEP-UNS-UNS":
        d0 = s0.decomposition
        if d0 is None:
            raise PatternError("first slot needs a separable decomposition")
        povms0 = [induced_measurement(m0, r, "left") for r in d0.right_states]
        try:
            dist1, resp1, states1 = uns_model(s1, povms0, 0)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 1: {exc}") from exc
        povms1 = [induced_measurement(m1, g, "left") for g in states1]
        try:
            dist2, resp2, states2 = uns_model(s2, povms1, 0)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 2: {exc}") from exc
        return NLHSModel(
            [d0.weights, dist1, dist2],
            [resp1, resp2],
            d0.left_states,
            states2,
            outcome_labels=[m0.outcome_labels, m1.outcome_labels],
        )

    if pattern == "UNS-UNS-SEP":
        d2 = s2.decomposition
        if d2 is None:
            raise PatternError("last slot needs a separable decomposition")
        povms1 = [induced_measurement(m1, l, "right") for l in d2.left_states]
        try:
            dist1, resp1, states1 = uns_model(s1, povms1, 1)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 1: {exc}") from exc
        povms0 = [induced_measurement(m0, g, "right") for g in states1]
        try:
            dist0, resp0, states0 = uns_model(s0, povms0, 1)
        except ModelNotFoundError as exc:
            raise ModelNotFoundError(f"UNS slot 0: {exc}") from exc
        return NLHSModel(
            [dist0, dist1, d2.weights],
            [np.transpose(resp0, (0, 2, 1)),
             np.transpose(resp1, (0, 2, 1))],
            states0,
            d2.right_states,
            outcome_labels=[m0.outcome_labels, m1.outcome_labels],
        )

    raise PatternError(f"unknown triangle pattern {pattern!r}")

