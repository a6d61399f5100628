"""Linear networks with trusted endpoints and their assemblages.

A line of n parties has n-1 sources (source i links party i and i+1) and
n-2 fixed central measurements (measurement i acts on the right factor of
source i and the left factor of source i+1).  Outcome tuples are ordered
little-endian by party index.

Assemblage elements are computed by sequential pairwise contraction, never
materialising the full tensor product of all sources.  Each step absorbs
the next source through one measurement for a whole stack of prefix
elements and a stack of effects at once: two matrix products per prefix
row, run over blocks of prefixes of bounded size (``CHECK_BLOCK_BYTES``) so
that a step's intermediates do not grow with the number of outcome
branches.  Between steps the prefixes are held pair-grouped, each row's
entries ordered as the first product reads them, so a step copies each row
once, to put its effect axis in place, and the rows become matrices once,
after the last step.

Many branches of a line carry the same bytes (a 13-party line of
doubly-erased Werner sources has 2,048 branches but only 759 to 825
distinct elements).  ``_contract`` merges the repeated rows after every
step, the last included, and hands the assemblage its distinct rows and an
index from outcome tuple to distinct row.  The assemblage's PSD check
forms the Hermitian part of each distinct element once and holds it; the
verdicts partial-transpose those parts as they are, without forming them
again, and every per-element result is read through that index.  One
screen serves both checks (``operators._psd_cleared``): a Cholesky
factorisation shifted by half the negativity cutoff proves a block's
elements PSD, and their partial transposes PPT, and only the rows it
cannot clear are eigendecomposed.  A step computes each row alone,
whatever the block it sits in, so the merged stack equals the unmerged one
byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    DimensionError,
    QOperator,
    TOL_CHECK,
    TOL_NORM,
    _apply_and_trace,
    _blocks,
    _psd_screened,
    _set_fields,
    is_density,
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
        _set_fields(self, sources=sources, central_measurements=central)

    @property
    def endpoint_dims(self) -> tuple[int, int]:
        return (self.sources[0].dims[0], self.sources[-1].dims[1])


@dataclass(frozen=True)
class NetworkAssemblage:
    """The family {sigma_b} of sub-normalised endpoint operators, one per
    central-outcome tuple b, held as one stack: ``matrices[k]`` is the
    element of ``outcomes[k]`` on the endpoint factors ``dims``.

    Byte-identical elements are checked once.  The constructor finds the
    distinct elements with ``_distinct``, and ``line_assemblage`` takes
    them from the contraction; either way ``_hold`` checks them and gathers
    ``matrices`` once, and ``_index[k]`` is the row of element k, rows in
    order of first occurrence.  ``_rows`` holds what the verdicts read: the
    Hermitian part (M + M^dagger) / 2 of each distinct element M, formed
    once by the PSD check (``_psd_screened``).  Without repeats ``_index``
    is the identity and ``matrices`` holds the checked stack itself.  The
    PSD check eigendecomposes only the rows the Cholesky screen does not
    prove PSD: ``_row_extremes`` holds their smallest and largest
    eigenvalue, for the negativity precondition, and NaN for the proven
    rows."""

    matrices: np.ndarray
    outcomes: tuple
    dims: tuple[int, int]

    def __init__(self, matrices, outcomes, dims: Sequence[int]):
        stack = np.asarray(matrices, dtype=complex)
        outcomes = tuple(outcomes)
        dims = tuple(int(d) for d in dims)
        side = math.prod(dims)
        if len(dims) != 2 or min(dims) < 1 or stack.shape != (len(outcomes), side, side):
            raise DimensionError(
                f"{len(outcomes)} outcomes need a ({len(outcomes)}, d, d) stack on two "
                f"endpoint dims of product d, got shape {stack.shape} and dims {dims}"
            )
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome keys must be distinct")
        rows, index = _distinct(stack)
        # the assemblage's own copy: the distinct rows, or a copy of a stack
        # without repeats, so that a caller's array is never held nor made
        # read-only
        self._hold(rows.copy() if rows is stack else rows, index, outcomes, dims)

    def _hold(self, rows: np.ndarray, index: np.ndarray, outcomes: tuple,
              dims: tuple[int, int]) -> NetworkAssemblage:
        """Check the distinct ``rows`` of the elements, element k being row
        ``index[k]``: their traces sum to 1 through the index, and one
        screened PSD check covers every row.  Holds the elements gathered
        through the index as ``matrices``, and as ``_rows`` the Hermitian
        parts the check formed, which the verdicts read.  Takes ownership
        of ``rows`` and ``index``; everything held is read-only."""
        total = float(np.trace(rows, axis1=1, axis2=2).real[index].sum())
        if abs(total - 1.0) > TOL_NORM:
            raise ValueError(f"element traces sum to {total}, expected 1")
        screened = _psd_screened(rows, TOL_CHECK)
        if screened is None:
            raise ValueError("assemblage element is not PSD")
        parts, row_extremes = screened
        # as many rows as elements: the index is the identity
        matrices = rows if len(rows) == len(index) else rows[index]
        for held in (parts, index, row_extremes, matrices):
            held.flags.writeable = False
        return _set_fields(self, matrices=matrices, outcomes=outcomes, dims=dims, _rows=parts,
                           _row_extremes=row_extremes, _index=index)

    @property
    def elements(self) -> dict:
        """{outcome: QOperator} in outcome order, built on each access from
        copies of the rows, so changing it leaves the assemblage unchanged."""
        return {outcome: QOperator(mat, self.dims)
                for outcome, mat in zip(self.outcomes, self.matrices)}


def _step(prefixes: np.ndarray, effects: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Absorb the next source through each of a (k, b c, b c) stack of ``effects``.

    ``prefixes`` is a pair-grouped (p, a, a, b, b) stack of elements with
    dims [left endpoint, open right factor]: entry [a, x, b, u] of a row is
    the matrix entry [a b, x u], so that a row reads as the (a x, b u)
    matrix its first product takes.  Each effect acts on [open right
    factor, left factor of the source].  ``source`` is one (c, d, c, d)
    source tensor absorbed into every prefix, or a (p, c, d, c, d) stack
    whose row i is absorbed into prefix i (a grid of lines, one per row).
    Returns the pair-grouped (p * k, a, a, d, d) stack with dims [left
    endpoint, right factor of the source], prefix-major and effect-minor:

        R[a d, x y] = sum_{u v b c} E[u v, b c] t[a b, x u] s[c d, v y]

    as two matrix products per prefix row, t[(a x), (b u)] @ E[(b u), (k v
    c)] and then, regrouped as [(a x k), (v c)], @ s[(v c), (d y)].  The
    prefix is read as it is held; the one copy per row moves the effect
    axis of the products' (a x k, d y) ahead of the row.  Each row is its
    own pair of products, so it does not depend on the other rows of its
    block; blocks of prefixes bound the intermediates, which stay
    quadratic in the factor dimensions even for the large flag dimensions
    of a separable realisation.
    """
    p, a, _, b = prefixes.shape[:4]
    c, d = source.shape[-4:-2]
    k = len(effects)
    em = effects.reshape(k, b, c, b, c).transpose(3, 1, 0, 2, 4).reshape(b * b, k * c * c)
    sm = np.moveaxis(source, -2, -4).reshape(source.shape[:-4] + (c * c, d * d))
    per_prefix = source.ndim == 5
    out = np.empty((p, k, a, a, d, d), dtype=complex)
    # per prefix: the products, a^2 k (c^2 + d^2) entries
    for block in _blocks(p, out.itemsize * a * a * k * (c * c + d * d)):
        t = prefixes[block]
        m = len(t)
        products = t.reshape(m, a * a, b * b) @ em
        products = products.reshape(m, a * a * k, c * c) @ (sm[block] if per_prefix else sm)
        out[block] = products.reshape(m, a, a, k, d, d).transpose(0, 3, 1, 2, 4, 5)
    return out.reshape(p * k, a, a, d, d)


@functools.lru_cache(maxsize=None)
def _key_weights(n: int) -> np.ndarray:
    """The first n numbers of the splitmix64 sequence: fixed pseudo-random
    64-bit weights, one per word of a row, so that rows that are
    permutations of each other's entries most likely get different keys."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _distinct(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (p, ...) stack, equal meaning equal bytes, in
    order of first occurrence, and the index of each row's distinct row.
    When no two rows are equal the rows are ``stack`` itself and the index
    is ``arange(p)``.

    Rows whose first 64-bit words differ are distinct, so a stack without
    repeats mostly costs one sort of p words.  Otherwise each row is keyed
    by the wrapping sum of its words times ``_key_weights``, and only rows
    whose key repeats are compared, byte for byte, with the first row of their key; rows that
    differ from it (a key collision) are compared again among themselves.
    So rows that differ in one bit, be it the last bit of a float or the
    sign of a zero, are never merged.
    """
    p = len(stack)
    first = np.arange(p)            # the first row equal to each row
    if p < 2:
        return stack, first
    words = np.ascontiguousarray(stack).reshape(p, -1).view(np.uint64)
    leading = np.sort(words[:, 0])
    if (leading[1:] != leading[:-1]).all():
        return stack, first
    keys = np.einsum("ij,j->i", words, _key_weights(words.shape[1]))
    todo = np.arange(p)
    while len(todo) > 1:
        order = todo[np.argsort(keys[todo], kind="stable")]
        leads = np.concatenate(([True], keys[order[1:]] != keys[order[:-1]]))
        if leads.all():
            break
        leader = order[leads][np.cumsum(leads) - 1]
        rows, lead = order[~leads], leader[~leads]
        equal = np.empty(len(rows), dtype=bool)
        for block in _blocks(len(rows), words[0].nbytes):
            equal[block] = (words[rows[block]] == words[lead[block]]).all(axis=1)
        first[rows[equal]] = lead[equal]
        todo = np.sort(rows[~equal])
    keep = first == np.arange(p)
    if keep.all():
        return stack, first
    return stack[keep], (np.cumsum(keep) - 1)[first]


def _contract(sources: Sequence[np.ndarray],
              choices: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Elements for every combination of ``choices[j]``, a stack of effects
    of central measurement j, of the line whose source i is the (c, d, c, d)
    tensor ``sources[i]``: the distinct elements as an (r, a d, a d) stack,
    and the index of each element's row, in ``itertools.product`` order.
    Between steps the prefixes are held pair-grouped, as ``_step`` reads
    and writes them; the first source is regrouped once before the first
    step and the distinct rows once after the last.

    Each distinct branch is contracted once: after every step, the last
    included, the byte-identical rows are merged (``_distinct``), and the
    index from each outcome tuple so far to its distinct row is carried
    through the step, which turns row r and effect e into row r k + e.
    Equal prefixes absorbing the same source through the same effects give
    equal children.  Nothing is gathered: the rows keep the order of first
    occurrence among the outcome tuples, as ``_distinct`` of the gathered
    stack would give them.  Per-row data of a step, such as a scale taken
    out of each prefix row, would travel through the same index.

    Grid form: every source may instead be a (G, c, d, c, d) stack, row g
    the source of line g; with one effect per choice, row g of the result
    is then the element of line g.  A grid step absorbs one source per row,
    so equal prefix rows need not give equal children, and with one effect
    per measurement no branch of a line repeats another: the grid form is
    not merged, and its index is the identity.
    """
    t = np.ascontiguousarray(sources[0].reshape((-1,) + sources[0].shape[-4:]).swapaxes(2, 3))
    index = np.arange(len(t))
    for effects, source in zip(choices, sources[1:]):
        t = _step(t, effects, source)
        if source.ndim == 4:
            t, merged = _distinct(t)
            index = merged.reshape(-1, len(effects))[index].ravel()
    side = t.shape[1] * t.shape[3]
    return t.swapaxes(2, 3).reshape(-1, side, side), index


def _tensors(sources: Sequence[QOperator]) -> list[np.ndarray]:
    """Two-factor ``sources`` as (c, d, c, d) tensors."""
    return [s.matrix.reshape(s.dims * 2) for s in sources]


def line_assemblage(net: LinearNetwork) -> NetworkAssemblage:
    """Network assemblage of a linear network with trusted endpoints,
    contracted left to right, all outcomes of a measurement in one step,
    each distinct prefix once; the assemblage holds the contraction's
    distinct rows and index without merging them again."""
    central = net.central_measurements
    rows, index = _contract(_tensors(net.sources), [m.matrices for m in central])
    return object.__new__(NetworkAssemblage)._hold(
        rows, index, tuple(itertools.product(*(m.outcome_labels for m in central))),
        net.endpoint_dims)


def standard_assemblage(rho: QOperator, measurements: Sequence[POVM],
                        side: str = "left") -> np.ndarray:
    """Steered sub-normalised states sigma[a, x] = Tr_side[(M_{a|x} (x) 1) rho]
    of the a-th effect of the x-th measurement, as an (outcomes, inputs,
    d, d) stack; the measurements must have equal outcome counts."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not measurements:
        raise ValueError("a standard assemblage needs at least one measurement")
    if len({m.n_outcomes for m in measurements}) != 1:
        raise DimensionError("a standard assemblage needs measurements of equal outcome counts")
    measured = 0 if side == "left" else 1
    if rho.nfactors != 2 or any(m.matrices.shape[1] != rho.dims[measured] for m in measurements):
        raise DimensionError(f"effects must act on factor {measured} of a two-factor {rho.dims}")
    effects = np.stack([m.matrices for m in measurements]).swapaxes(0, 1)
    return _apply_and_trace(rho.matrix[None], rho.dims, effects, measured)[0]


def condition_on_trusted_measurement(
    asm: NetworkAssemblage, m: POVM, endpoint: str = "left"
) -> np.ndarray:
    """Measure one trusted endpoint of every element: the (K, J, d, d) stack
    whose [k, j] is the element of ``asm.outcomes[k]`` conditioned on
    ``m.outcome_labels[j]``, on the other endpoint."""
    if endpoint not in ("left", "right"):
        raise ValueError("endpoint must be 'left' or 'right'")
    measured = 0 if endpoint == "left" else 1
    d = m.matrices.shape[1]
    if d != asm.dims[measured]:
        raise DimensionError(f"effect dim {d} != endpoint dim {asm.dims[measured]}")
    return _apply_and_trace(asm.matrices, asm.dims, m.matrices, measured)


def lift_inputless_to_conditional(asm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an inputless (outcomes, inputs, d, d) assemblage sigma[a, x]
    into the vector p(x) and the stack sigma[a, x] / p(x).

    A vanishing p(x) is an error: the conditional assemblage is undefined
    there and silently skipping would hide a degenerate encoding.
    """
    p = np.trace(asm, axis1=2, axis2=3).real.sum(axis=0)
    if np.any(p <= 1e-14):
        x = int(np.argmax(p <= 1e-14))
        raise ValueError(f"p(x)={p[x]} for x={x}; conditioning undefined")
    return p, asm / p[:, None, None]


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
