"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports netsteer.  States, measurements and contractions are
rebuilt from their textbook definitions on plain arrays, so a check fails
when the package computes something different, not when it agrees with
itself.  Matrices use the row-major Kronecker convention (first factor is
the most significant index block).
"""

from __future__ import annotations

import itertools

import numpy as np

# --------------------------------------------------------------------------
# states and measurements
# --------------------------------------------------------------------------


def werner(omega: float) -> np.ndarray:
    """omega |psi-><psi-| + (1 - omega) I/4 on two qubits."""
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return omega * np.outer(v, v) + (1.0 - omega) * np.eye(4) / 4.0


def dew(eta: float, omega: float) -> np.ndarray:
    """Doubly-erased Werner state from its block form on a qutrit pair.

    eta^2 W (qubit block) + eta(1-eta) (I/2 (x) |2><2| + |2><2| (x) I/2)
    + (1-eta)^2 |22><22|: the erasure channel leaves no coherence between
    the surviving block and the loss flags.
    """
    out = np.zeros((9, 9), dtype=complex)
    qubit_block = [0, 1, 3, 4]
    out[np.ix_(qubit_block, qubit_block)] = eta * eta * werner(omega)
    for idx in (2, 5, 6, 7):          # |0 2>, |1 2>, |2 0>, |2 1>
        out[idx, idx] = eta * (1.0 - eta) / 2.0
    out[8, 8] = (1.0 - eta) ** 2
    return out


def dew_negativity(eta: float, visibility: float) -> float:
    """Negativity of DEW(eta, visibility) across the cut: eta^2 (3v-1)/4."""
    return eta * eta * max(0.0, (3.0 * visibility - 1.0) / 4.0)


def classical_correlated(d: int) -> np.ndarray:
    out = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        out[x * d + x, x * d + x] = 1.0 / d
    return out


def bell_swap(local_dim: int) -> list[np.ndarray]:
    """{singlet projector on the |0>,|1> block, complement} on d x d."""
    d = local_dim
    v = np.zeros(d * d)
    v[1] = 1.0 / np.sqrt(2.0)
    v[d] = -1.0 / np.sqrt(2.0)
    m0 = np.outer(v, v).astype(complex)
    return [m0, np.eye(d * d) - m0]


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_two_outcome(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome projective measurement: a random orthonormal basis of C^d
    split into the even- and odd-indexed halves."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    effects = [np.zeros((d, d), dtype=complex) for _ in range(2)]
    for i in range(d):
        effects[i % 2] += np.outer(q[:, i], q[:, i].conj())
    return effects


def witness_bound(axes) -> float:
    """LHS bound of the linear witness: max over sign patterns s of
    ||sum_k s_k v_k|| / m."""
    axes = [np.asarray(v, dtype=float) for v in axes]
    return max(
        float(np.linalg.norm(sum(s * v for s, v in zip(signs, axes))))
        for signs in itertools.product((1, -1), repeat=len(axes))
    ) / len(axes)


# --------------------------------------------------------------------------
# linear-network contraction
# --------------------------------------------------------------------------


def _ptrace_middle(mat: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Trace the two middle factors (b, c) of an operator on a.b.c.d."""
    t = mat.reshape(a, b * c, d, a, b * c, d)
    return np.trace(t, axis1=1, axis2=4).reshape(a * d, a * d)


def line_element(sources, source_dims, effects) -> np.ndarray:
    """One element of a line assemblage by explicit Kronecker products.

    ``sources`` are matrices on (d_left, d_right) pairs given by
    ``source_dims``; ``effects[j]`` is the effect applied to the right factor
    of source j and the left factor of source j+1.  Each step forms
    (t (x) s_next), applies 1 (x) E (x) 1 and traces the measured pair.
    """
    t = sources[0]
    a, b = source_dims[0]
    for j, effect in enumerate(effects):
        c, d = source_dims[j + 1]
        joint = np.kron(t, sources[j + 1])
        full = np.kron(np.kron(np.eye(a), effect), np.eye(d))
        t = _ptrace_middle(full @ joint, a, b, c, d)
        b = d
    return t


def line_assemblage(sources, source_dims, measurements) -> dict:
    """All elements of a line assemblage, keyed by outcome-index tuples."""
    ranges = [range(len(m)) for m in measurements]
    return {
        outcome: line_element(
            sources, source_dims, [m[k] for m, k in zip(measurements, outcome)]
        )
        for outcome in itertools.product(*ranges)
    }


def endpoint_marginals(sources, source_dims) -> np.ndarray:
    """Tr over everything but the endpoints of the product of all sources,
    which is what the elements of any line assemblage must sum to."""
    a, b = source_dims[0]
    c, d = source_dims[-1]
    left = np.trace(sources[0].reshape(a, b, a, b), axis1=1, axis2=3)
    right = np.trace(sources[-1].reshape(c, d, c, d), axis1=0, axis2=2)
    return np.kron(left, right)


def min_pt_eigenvalues(stack: np.ndarray, a: int, d: int) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose (second factor) of each
    trace-normalised operator in a stack of shape (k, a*d, a*d)."""
    k = stack.shape[0]
    traces = np.trace(stack, axis1=1, axis2=2).real
    t = stack.reshape(k, a, d, a, d).transpose(0, 1, 4, 3, 2).reshape(k, a * d, a * d)
    t = t / traces[:, None, None]
    t = (t + t.conj().transpose(0, 2, 1)) / 2.0
    return np.linalg.eigvalsh(t)[:, 0]


# --------------------------------------------------------------------------
# fixtures and NLHS models
# --------------------------------------------------------------------------


def fixture_line(doc: dict):
    """(sources, source_dims, measurements) of a fixture document."""
    sources, dims = [], []
    for src in doc["sources"]:
        kind = src["kind"]
        if kind == "classical_correlated":
            d = int(src["d"])
            sources.append(classical_correlated(d))
            dims.append((d, d))
        elif kind == "werner":
            sources.append(werner(float(src["omega"])).astype(complex))
            dims.append((2, 2))
        else:
            raise ValueError(f"no reference for source kind {kind!r}")
    measurements = []
    for m in doc["measurements"]:
        if m["kind"] != "bell_swap":
            raise ValueError(f"no reference for measurement kind {m['kind']!r}")
        measurements.append(bell_swap(int(m.get("local_dim", 3))))
    return sources, dims, measurements


def _matrix(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def model_problems(doc: dict, tol: float = 1e-9) -> list[str]:
    """Ways in which a serialised NLHS model is not a valid model."""
    problems = []
    dists = [np.asarray(p, dtype=float) for p in doc["source_dists"]]
    for i, p in enumerate(dists):
        if np.any(p < -tol) or abs(p.sum() - 1.0) > tol:
            problems.append(f"hidden distribution {i} is not normalised")
    for j, r in enumerate(doc["responses"]):
        r = np.asarray(r, dtype=float)
        if np.any(r < -tol) or np.max(np.abs(r.sum(axis=0) - 1.0)) > tol:
            problems.append(f"response table {j} is not a conditional distribution")
    for side in ("left_states", "right_states"):
        for s in doc[side]:
            m = _matrix(s)
            if abs(np.trace(m).real - 1.0) > tol or np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -tol:
                problems.append(f"{side} entry is not a density matrix")
    return problems


def model_assemblage(doc: dict) -> dict:
    """Assemblage of a serialised NLHS model, keyed by outcome-index tuples:
    sum over hidden values of p_0 r_0 p_1 ... p_k times L (x) R."""
    dists = [np.asarray(p, dtype=float) for p in doc["source_dists"]]
    responses = [np.asarray(r, dtype=float) for r in doc["responses"]]
    lefts = [_matrix(s) for s in doc["left_states"]]
    rights = [_matrix(s) for s in doc["right_states"]]
    out = {}
    for outcome in itertools.product(*[range(r.shape[0]) for r in responses]):
        w = np.diag(dists[0])
        for j, b in enumerate(outcome):
            w = w @ responses[j][b] @ np.diag(dists[j + 1])
        out[outcome] = sum(
            w[i, k] * np.kron(lefts[i], rights[k])
            for i in range(len(lefts))
            for k in range(len(rights))
        )
    return out
