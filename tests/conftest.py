"""Shared helpers for the test suite: random operators with reproducible
generators, the identity, tensor-product and entry-distance helpers, the
per-matrix spectrum, eigenvalue-extremes, apply-and-trace, partial-trace
and negativity oracles, an
assemblage made from an {outcome: operator} dict, a brute-force assemblage
oracle that never uses the sequential contraction under test, the
index-by-index einsum oracle of one contraction step, the contraction
without merging repeated branches, and the checked network of a separable
realisation."""

import functools

import numpy as np
import pytest

from netsteer.measurements import POVM
from netsteer.network import LinearNetwork, NetworkAssemblage, _step
from netsteer.nlhs import NLHSModel
from netsteer.operators import (NEG_CUTOFF, DimensionError, NotPositiveError, QOperator,
                                _hermitian, _transpose_factors)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_density(rng, dims):
    """Random full-rank density matrix with the given factor dims."""
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return QOperator(mat / np.trace(mat), dims)


def rand_psd(rng, dims):
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return QOperator(g @ g.conj().T, dims)


def haar_unitary(rng, d):
    """Random d x d unitary, Haar distributed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def identity(dims):
    d = int(np.prod(list(dims)))
    return QOperator(np.eye(d, dtype=complex), dims)


def tensor(a, b, *rest):
    """Kronecker product; dims are concatenated."""
    out = QOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    for r in rest:
        out = QOperator(np.kron(out.matrix, r.matrix), out.dims + r.dims)
    return out


def max_entry_distance(a, b):
    """Largest entry distance between two operators on the same dims."""
    if a.dims != b.dims:
        raise DimensionError(f"dims mismatch: {a.dims} vs {b.dims}")
    return float(np.max(np.abs(a.matrix - b.matrix)))


def spectra(mats):
    """Ascending real eigenvalues of a matrix, or of each matrix of a stack,
    checked Hermitian and symmetrised (``operators._hermitian``) and
    eigendecomposed in full: the oracle of the screened checks."""
    return np.linalg.eigvalsh(_hermitian(np.asarray(mats)))


def spectral_extremes(mats):
    """The (k, 2) smallest and largest eigenvalue of each matrix of ``mats``,
    each eigendecomposed on its own (``spectra``): the extremes
    ``operators._psd_screened`` returns for the rows its screen leaves."""
    return np.array([spectra(mat)[[0, -1]] for mat in mats]).reshape(-1, 2)


def hermitian_eigenvalues(op):
    """Real eigenvalues of an operator in ascending order (``spectra``)."""
    return spectra(op.matrix)


def apply_and_trace(op, local, factor):
    """Tr_factor[(local (x) 1) op] for a two-factor ``op``, as a QOperator on
    the other factor: one single-matrix einsum on checked operators, the
    oracle of the stacked ``operators._apply_and_trace``."""
    if op.nfactors != 2:
        raise DimensionError(f"apply_and_trace needs a two-factor operator, got {op.dims}")
    if factor not in (0, 1):
        raise DimensionError(f"factor must be 0 or 1, got {factor}")
    if len(local.matrix) != op.dims[factor]:
        raise DimensionError(f"local dim {len(local.matrix)} != factor dim {op.dims[factor]}")
    t = op.matrix.reshape(op.dims + op.dims)
    if factor == 0:
        out = np.einsum("ik,kjil->jl", local.matrix, t)
    else:
        out = np.einsum("jl,ilkj->ik", local.matrix, t)
    return QOperator(out, [op.dims[1 - factor]])


def partial_trace(op, keep):
    """Trace out every factor of ``op`` not in ``keep``, preserving factor
    order; one einsum over the factor-indexed tensor."""
    keep = sorted(set(int(f) for f in keep))
    k = op.nfactors
    if any(f < 0 or f >= k for f in keep):
        raise DimensionError(f"factor indices {keep} out of range for dims {op.dims}")
    t = op.matrix.reshape(op.dims + op.dims)
    col = [i if i not in keep else k + i for i in range(k)]
    mat = np.einsum(t, list(range(k)) + col, keep + [k + i for i in keep])
    dims = [op.dims[i] for i in keep] or [1]
    side = int(np.prod(dims))
    return QOperator(mat.reshape(side, side), dims)


def negativity(mat, dims):
    """Sum of |eigenvalues below -NEG_CUTOFF| of the partial transpose over
    factor 1 of one matrix on ``dims``, eigendecomposed on its own (-0.0
    for none): the per-matrix oracle of ``operators._negativities``."""
    pt = spectra(_transpose_factors(mat, tuple(dims), [1]))
    return -np.sum(pt[pt < -NEG_CUTOFF]) if pt[0] < -NEG_CUTOFF else -0.0


def negativities_from_scratch(mats, dims):
    """``certificates._endpoint_negativities``' values with every matrix
    eigendecomposed on its own, for its positivity precondition and for its
    partial transpose: +0.0 for a trace at most NEG_CUTOFF, else
    ``negativity`` over factor 1."""
    values = []
    for mat in mats:
        if np.trace(mat).real <= NEG_CUTOFF:
            values.append(0.0)
            continue
        evs = spectra(mat)
        if evs[0] < -NEG_CUTOFF * max(1.0, abs(evs[-1])):
            raise NotPositiveError(f"input has negative eigenvalue {evs[0]:.3e}")
        values.append(negativity(mat, dims))
    return np.array(values)


def assemblage_of(elements):
    """NetworkAssemblage of an {outcome: QOperator} dict, through the stack
    constructor, in the dict's order."""
    ops = list(elements.values())
    return NetworkAssemblage([op.matrix for op in ops], elements, ops[0].dims)


def brute_force_assemblage(net):
    """Oracle for line_assemblage: materialise the full tensor product of
    all sources and contract it with the Kronecker product of the central
    effects of each outcome tuple, one einsum per tuple.

    Exponential in the line length, which is fine at test scale, and
    structurally independent of the pairwise contraction it checks.
    """
    import itertools

    sources = net.sources
    measurements = net.central_measurements
    big = sources[0]
    for s in sources[1:]:
        big = tensor(big, s)
    d_l, d_r = sources[0].dims[0], sources[-1].dims[1]
    mid = len(big.matrix) // (d_l * d_r)
    # big[(a, m, z), (a', m', z')] with every interior factor flattened into m
    full = big.matrix.reshape(d_l, mid, d_r, d_l, mid, d_r)
    out = {}
    ranges = [m.outcome_labels for m in measurements]
    for labels in itertools.product(*ranges):
        effect = functools.reduce(
            np.kron, [m.matrices[m.outcome_labels.index(lab)]
                      for m, lab in zip(measurements, labels)]
        )
        # Tr_interior[(1 (x) effect (x) 1) big]
        element = np.einsum("mn,anzbmy->azby", effect, full)
        out[labels] = QOperator(element.reshape(d_l * d_r, d_l * d_r), (d_l, d_r))
    return out


# trace over the measured pair (b, c):
#   R[a d, a' d'] = sum_{b c b' c'} E[b c, b' c'] t[a b', a' b] s[c' d, c d']
# with t and R held pair-grouped, t[a, a', b', b] and R[a, a', d, d'], as
# ``network._step`` holds them
_STEP = "uvbc,axbu,cdvy->axdy"
# the same for k effects E and a stack of prefixes t, output in (prefix,
# effect) order; s is one source for every prefix or a stack of one per prefix
_BATCHED_STEP = "kuvbc,...axbu,...cdvy->...kaxdy"


@functools.lru_cache(maxsize=None)
def _step_path(a, b, c, d):
    """The einsum path of ``_STEP`` for one element of these factor dims."""
    ops = (np.empty((b, c, b, c)), np.empty((a, a, b, b)), np.empty((c, d, c, d)))
    return tuple(np.einsum_path(_STEP, *ops, optimize=True)[0])


def einsum_step(prefixes, effects, source):
    """``network._step`` as one einsum over all pair-grouped prefixes,
    contracted index by index on the path planned for a single element: the
    oracle of the per-row matrix products, equal to them up to rounding."""
    p, a, _, b = prefixes.shape[:4]
    c, d = source.shape[-4:-2]
    k = len(effects)
    out = np.einsum(_BATCHED_STEP, effects.reshape(k, b, c, b, c), prefixes, source,
                    optimize=_step_path(a, b, c, d))
    return out.reshape(p * k, a, a, d, d)


def pair_grouped(tensors):
    """A (p, c, d, c, d) stack of matrices as tensors, held pair-grouped
    (p, c, c, d, d) as ``network._step`` reads its prefixes, and back."""
    return np.ascontiguousarray(tensors.swapaxes(2, 3))


def unmerged_contract(sources, choices):
    """``network._contract`` of a line without merging repeated branches:
    every branch of every step goes through ``network._step``, the
    contraction the merged one must equal byte for byte."""
    t = pair_grouped(sources[0][None])
    for effects, source in zip(choices, sources[1:]):
        t = _step(t, effects, source)
    side = t.shape[1] * t.shape[3]
    return pair_grouped(t).reshape(-1, side, side)


def distinct_elements(asm):
    """The element of each distinct row of an assemblage, in row order: the
    first element with that row, as the contraction gave it, before the
    PSD check formed its Hermitian part."""
    return asm.matrices[np.unique(asm._index, return_index=True)[1]]


def random_linear_network(
    rng: np.random.Generator, n_parties: int, max_dim: int = 3, n_out: int = 2
) -> LinearNetwork:
    """Random line: Haar-ish random density sources, random projective-sum
    POVMs with ``n_out`` outcomes."""

    def rand_density(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = g @ g.conj().T
        return mat / np.trace(mat)

    def rand_povm(dims):
        d = int(np.prod(dims))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        # split eigenprojectors of a random unitary basis into n_out groups
        effects = [np.zeros((d, d), dtype=complex) for _ in range(n_out)]
        for i in range(d):
            v = q[:, i]
            effects[i % n_out] += np.outer(v, v.conj())
        return POVM([QOperator(e, dims) for e in effects])

    dims = [int(rng.integers(2, max_dim + 1)) for _ in range(n_parties)]
    sources = []
    for i in range(n_parties - 1):
        pair = (dims[i], dims[i + 1])
        sources.append(QOperator(rand_density(pair[0] * pair[1]), pair))
    centrals = [
        rand_povm((dims[i + 1], dims[i + 1])) for i in range(n_parties - 2)
    ]
    return LinearNetwork(sources, centrals)


def realization_network(real) -> LinearNetwork:
    """The line of a separable realisation, its decompositions' states
    through its certificates' measurements, built through ``LinearNetwork``
    so that the network's checks run on every realisation a test builds."""
    return LinearNetwork([dec.state() for dec in real.source_decompositions],
                         real.measurement_certificates)


def random_model(
    rng: np.random.Generator,
    n_parties: int = 4,
    max_hidden: int = 3,
    n_outcomes: int = 2,
    endpoint_dim: int = 2,
) -> NLHSModel:
    """Random finite NLHS model for fuzzing soundness and round-trips."""

    def rand_dist(k):
        p = rng.random(k) + 0.1
        return p / p.sum()

    def rand_density(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = g @ g.conj().T
        return mat / np.trace(mat)

    n_src = n_parties - 1
    sizes = [int(rng.integers(1, max_hidden + 1)) for _ in range(n_src)]
    dists = [rand_dist(k) for k in sizes]
    responses = []
    for j in range(n_src - 1):
        r = rng.random((n_outcomes, sizes[j], sizes[j + 1])) + 0.05
        responses.append(r / r.sum(axis=0, keepdims=True))
    lefts = [rand_density(endpoint_dim) for _ in range(sizes[0])]
    rights = [rand_density(endpoint_dim) for _ in range(sizes[-1])]
    return NLHSModel(dists, responses, lefts, rights)
