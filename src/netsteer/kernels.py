"""Sphere-search kernels for the erased-state unsteerability criterion.

Plain vectorised numpy: a Fibonacci lattice of unit vectors, the criterion
evaluated on it, and a shrinking-cap refinement around the best point.
"""

from __future__ import annotations

import numpy as np


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors, shape (n, 3)."""
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def criterion_values(a, t, eta, xs):
    """Erased-state unsteerability objective evaluated at unit vectors ``xs``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    eta = float(eta)
    ax = xs @ a
    tx = xs @ t.T
    return (
        (1.0 - 3.0 * eta) * np.abs(ax)
        + 1.5 * eta * (1.0 + ax * ax)
        + np.sqrt(np.sum(tx * tx, axis=1))
    )


def sphere_maximize(a, t, eta, n_points: int = 2000) -> tuple[float, np.ndarray]:
    """Maximise the unsteerability objective over unit 3-vectors.

    Fibonacci lattice scan followed by deterministic shrinking-cap
    refinement around the best point.  Ties break to the lowest index.
    """
    a = np.asarray(a, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    xs = fibonacci_sphere(n_points)
    vals = criterion_values(a, t, eta, xs)
    best_idx = int(np.argmax(vals))
    best_x = xs[best_idx]
    best_val = float(vals[best_idx])
    # local refinement: resample a shrinking cap around the incumbent
    radius = 2.0 * np.sqrt(4.0 / n_points)
    local = fibonacci_sphere(200)
    for _ in range(40):
        cand = best_x[None, :] + radius * local
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        cvals = criterion_values(a, t, eta, cand)
        i = int(np.argmax(cvals))
        if cvals[i] > best_val:
            best_val = float(cvals[i])
            best_x = cand[i]
        radius *= 0.6
    return best_val, best_x
