"""Linear networks with trusted endpoints and their assemblages.

A line of n parties has n-1 sources (source i links party i and i+1) and
n-2 fixed central measurements (measurement i acts on the right factor of
source i and the left factor of source i+1).  Outcome tuples are ordered
little-endian by party index.

Assemblage elements are computed by sequential pairwise contraction, never
materialising the full tensor product of all sources, keeping the peak
dimension at d^4 instead of d^(2(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    DimensionError,
    QOperator,
    TOL_CHECK,
    TOL_NORM,
    apply_and_trace,
    is_density,
    is_psd,
)
from .measurements import POVM, input_encoded_measurement
from .states import classical_correlated


@dataclass(frozen=True)
class LinearNetwork:
    sources: tuple[QOperator, ...]
    central_measurements: tuple[POVM, ...]

    def __init__(self, sources: Sequence[QOperator], central_measurements: Sequence[POVM]):
        sources = tuple(sources)
        central = tuple(central_measurements)
        if len(sources) < 2:
            raise DimensionError("a line needs at least two sources (n >= 3)")
        if len(central) != len(sources) - 1:
            raise DimensionError(
                f"{len(sources)} sources need {len(sources) - 1} central measurements"
            )
        if any(s.nfactors != 2 for s in sources):
            raise DimensionError("every source must carry a two-factor DimList")
        if not is_density(*sources, tol=TOL_CHECK):
            raise ValueError("every source must be a density matrix")
        for i, m in enumerate(central):
            want = (sources[i].dims[1], sources[i + 1].dims[0])
            if m.dims != want:
                raise DimensionError(
                    f"measurement {i} acts on {m.dims}, adjacent sources need {want}"
                )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "central_measurements", central)

    @property
    def n_parties(self) -> int:
        return len(self.sources) + 1

    @property
    def endpoint_dims(self) -> tuple[int, int]:
        return (self.sources[0].dims[0], self.sources[-1].dims[1])


@dataclass(frozen=True)
class NetworkAssemblage:
    """Map from central-outcome tuple to a sub-normalised endpoint operator."""

    elements: dict
    n_parties: int

    def __init__(self, elements: dict, n_parties: int):
        elements = dict(elements)
        total = sum(op.trace() for op in elements.values())
        if abs(total - 1.0) > TOL_NORM:
            raise ValueError(f"element traces sum to {total}, expected 1")
        if any(op.nfactors != 2 for op in elements.values()):
            raise DimensionError("elements must carry the two endpoint factors")
        if not is_psd(*elements.values(), tol=TOL_CHECK):
            raise ValueError("assemblage element is not PSD")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "n_parties", n_parties)

    def total(self) -> QOperator:
        ops = list(self.elements.values())
        acc = sum(op.matrix for op in ops)
        return QOperator(acc, ops[0].dims)


def _step_right(t: QOperator, source: QOperator, effect: QOperator) -> QOperator:
    """Absorb the next source through one measurement effect.

    ``t`` has dims [left endpoint, open right factor]; the effect acts on
    [open right factor, left factor of source].  Returns dims
    [left endpoint, right factor of source].

    Contracted index by index instead of through a Kronecker product, so
    the peak intermediate stays quadratic in the factor dimensions even
    when the hidden alphabets (and with them the source dimensions) of a
    separable realisation grow large.
    """
    a, b = t.dims
    c, d = source.dims
    tm = t.matrix.reshape(a, b, a, b)
    sm = source.matrix.reshape(c, d, c, d)
    em = effect.matrix.reshape(b, c, b, c)
    # trace over the measured pair (b, c):
    #   R[a d, a' d'] = sum_{b c b' c'} E[b c, b' c'] t[a b', a' b] s[c' d, c d']
    out = np.einsum("uvbc,abxu,cdvy->adxy", em, tm, sm, optimize=True)
    return QOperator(out.reshape(a * d, a * d), (a, d))


def line_assemblage(net: LinearNetwork) -> NetworkAssemblage:
    """Network assemblage of a linear network with trusted endpoints,
    contracted left to right."""
    sources = net.sources
    partial = {(): sources[0]}
    for j, m in enumerate(net.central_measurements):
        nxt = {}
        for prefix, t in partial.items():
            for label, effect in zip(m.outcome_labels, m.effects):
                nxt[prefix + (label,)] = _step_right(t, sources[j + 1], effect)
        partial = nxt
    return NetworkAssemblage(partial, n_parties=net.n_parties)


def assemblage_element(net: LinearNetwork, outcome) -> QOperator:
    """Single assemblage element without materialising the other outcomes."""
    outcome = tuple(outcome)
    if len(outcome) != len(net.central_measurements):
        raise DimensionError("one outcome label per central measurement required")
    t = net.sources[0]
    for j, (m, label) in enumerate(zip(net.central_measurements, outcome)):
        t = _step_right(t, net.sources[j + 1], m.effect(label))
    return t


def bilocal_assemblage(rho_ab: QOperator, rho_bc: QOperator, m: POVM) -> NetworkAssemblage:
    """Three-party entanglement-swapping assemblage (one element per outcome b)."""
    net = LinearNetwork([rho_ab, rho_bc], [m])
    return NetworkAssemblage(
        {b: assemblage_element(net, (b,)) for b in m.outcome_labels}, n_parties=3
    )


def standard_assemblage(rho: QOperator, measurements: Sequence[POVM], side: str = "left") -> dict:
    """Steered sub-normalised states {(a, x): Tr_side[(M_{a|x} (x) 1) rho]}."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    measured = 0 if side == "left" else 1
    return {
        (label, x): apply_and_trace(rho, effect, measured)
        for x, povm in enumerate(measurements)
        for label, effect in zip(povm.outcome_labels, povm.effects)
    }


def condition_on_trusted_measurement(
    asm: NetworkAssemblage, m: POVM, endpoint: str = "left"
) -> dict:
    """Measure one trusted endpoint of every element: {(b_tuple, x): operator}."""
    if endpoint not in ("left", "right"):
        raise ValueError("endpoint must be 'left' or 'right'")
    measured = 0 if endpoint == "left" else 1
    return {
        (outcome, label): apply_and_trace(op, effect, measured)
        for outcome, op in asm.elements.items()
        for label, effect in zip(m.outcome_labels, m.effects)
    }


def lift_inputless_to_conditional(asm: dict) -> tuple[dict, dict]:
    """Split an inputless assemblage {(a, x): op} into p(x) and {(a, x): op/p(x)}.

    A vanishing p(x) is an error: the conditional assemblage is undefined
    there and silently skipping would hide a degenerate encoding.
    """
    xs = sorted({x for (_, x) in asm.keys()})
    p = {}
    cond = {}
    for x in xs:
        px = sum(op.trace() for (a, x2), op in asm.items() if x2 == x)
        if px <= 1e-14:
            raise ValueError(f"p(x)={px} for x={x}; conditioning undefined")
        p[x] = px
        for (a, x2), op in asm.items():
            if x2 == x:
                cond[(a, x)] = QOperator(op.matrix / px, op.dims)
    return p, cond


def untrusted_input_to_outcome(rho: QOperator, sub_povms: Sequence[POVM]) -> LinearNetwork:
    """Trade an input at an untrusted endpoint-adjacent party for an outcome.

    The party's input x (choosing among ``sub_povms`` on the left factor of
    ``rho``) is replaced by an extra perfectly correlated classical source
    plus the input-encoded fixed measurement.  The extended bilocal
    assemblage satisfies p(x) sigma_{b|x} = sigma_{b,x} with the new
    trusted flag endpoint carrying x.
    """
    d = len(sub_povms)
    if d == 0:
        raise ValueError("at least one sub-POVM required")
    if d == 1:
        source = QOperator(np.ones((1, 1)), [1, 1])
    else:
        source = classical_correlated(d)
    m = input_encoded_measurement(sub_povms, d)
    return LinearNetwork([source, rho], [m])
