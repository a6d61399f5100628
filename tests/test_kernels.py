"""The Fibonacci lattice of the LHS candidates, and the erased-state
criterion's lattice search kept as a test oracle: the closed-form bound of
``erased_unsteerable`` must never fall below the lattice maximum, which is
a lower bound on the true maximum over the sphere."""

import numpy as np
import pytest

from netsteer.nlhs import fibonacci_sphere
from netsteer.operators import projector

from conftest import rand_density
from sweep_oracles import BlochData, bloch_data, erased_unsteerable


def criterion_values(a, t, eta, xs):
    """Erased-state unsteerability objective at the unit vectors ``xs``
    (..., m, 3) for the Bloch data ``a`` (..., 3) and ``t`` (..., 3, 3)."""
    ax = (xs @ a[..., None])[..., 0]
    tx = xs @ np.swapaxes(t, -1, -2)
    return (
        (1.0 - 3.0 * eta) * np.abs(ax)
        + 1.5 * eta * (1.0 + ax * ax)
        + np.sqrt(np.sum(tx * tx, axis=-1))
    )


def _best(vals, xs):
    """The largest of ``vals`` (..., m) and its vector of ``xs`` (..., m, 3)."""
    i = np.argmax(vals, axis=-1)[..., None]
    return (np.take_along_axis(vals, i, -1)[..., 0],
            np.take_along_axis(xs, i[..., None], -2)[..., 0, :])


def sphere_maximize(a, t, eta, n_points=2000):
    """Largest objective over a Fibonacci lattice of ``n_points`` unit
    vectors, refined on shrinking caps around the incumbent, for Bloch data
    ``a`` (..., 3) and ``t`` (..., 3, 3): the maxima and their vectors."""
    a = np.asarray(a, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    xs = np.broadcast_to(fibonacci_sphere(n_points), a.shape[:-1] + (n_points, 3))
    best_val, best_x = _best(criterion_values(a, t, eta, xs), xs)
    radius = 2.0 * np.sqrt(4.0 / n_points)
    local = fibonacci_sphere(200)
    for _ in range(40):
        cand = best_x[..., None, :] + radius * local
        cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
        val, x = _best(criterion_values(a, t, eta, cand), cand)
        better = val > best_val
        best_val = np.where(better, val, best_val)
        best_x = np.where(better[..., None], x, best_x)
        radius *= 0.6
    return best_val, best_x


class TestFibonacciSphere:
    def test_unit_norm(self):
        xs = fibonacci_sphere(500)
        assert xs.shape == (500, 3)
        assert np.allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(fibonacci_sphere(100), fibonacci_sphere(100))

    def test_quasi_uniform_mean(self):
        # centroid of a uniform spherical sample sits at the origin
        xs = fibonacci_sphere(4000)
        assert np.linalg.norm(xs.mean(axis=0)) < 1e-3


class TestCriterionValues:
    def test_matches_scalar_formula(self, rng):
        a = rng.normal(size=3) * 0.3
        t = rng.normal(size=(3, 3)) * 0.3
        eta = 0.4
        xs = fibonacci_sphere(50)
        vals = criterion_values(a, t, eta, xs)
        for i, x in enumerate(xs):
            ax = float(a @ x)
            expected = (
                (1 - 3 * eta) * abs(ax)
                + 1.5 * eta * (1 + ax * ax)
                + np.linalg.norm(t @ x)
            )
            assert abs(vals[i] - expected) < 1e-12


class TestSphereMaximize:
    def test_isotropic_closed_form(self):
        # for a = 0, T = -omega I the maximum is 1.5 eta + omega everywhere
        omega, eta = 0.6, 0.25
        val, x = sphere_maximize(np.zeros(3), -omega * np.eye(3), eta)
        assert abs(val - (1.5 * eta + omega)) < 1e-9
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_rank_one_t(self):
        # T = diag(0.7, 0, 0): maximum 1.5 eta + 0.7 attained along x
        eta = 0.1
        t = np.diag([0.7, 0.0, 0.0])
        val, x = sphere_maximize(np.zeros(3), t, eta)
        assert abs(val - (1.5 * eta + 0.7)) < 1e-7
        assert abs(abs(x[0]) - 1.0) < 1e-3

    def test_refinement_beats_raw_lattice(self, rng):
        a = rng.normal(size=3) * 0.2
        t = rng.normal(size=(3, 3)) * 0.3
        eta = 0.3
        xs = fibonacci_sphere(2000)
        raw = float(np.max(criterion_values(a, t, eta, xs)))
        val, _ = sphere_maximize(a, t, eta, n_points=2000)
        assert val >= raw - 1e-12


@pytest.fixture(scope="module")
def bloch_samples():
    """Bloch data of 400 random two-qubit states, mixed and pure, so that
    |a| spans (0, 1)."""
    rng = np.random.default_rng(20261018)
    data = []
    for k in range(400):
        if k % 2:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            data.append(bloch_data(projector(v / np.linalg.norm(v), [2, 2])))
        else:
            data.append(bloch_data(rand_density(rng, [2, 2])))
    return data


class TestClosedFormBound:
    @pytest.mark.parametrize("eta", [0.0, 0.15, 1 / 3, 0.6, 1.0])
    def test_never_below_lattice_maximum(self, bloch_samples, eta):
        a = np.array([b.a for b in bloch_samples])
        t = np.array([b.t for b in bloch_samples])
        lattice, _ = sphere_maximize(a, t, eta)
        for b, low in zip(bloch_samples, lattice):
            claimed, bound = erased_unsteerable(b, eta)
            assert bound >= low - 1e-12
            # a claim of unsteerability is never contradicted by the lattice
            assert not claimed or low <= 1.0 + 1e-6

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_attained_at_a_zero(self, eta):
        t = np.diag([0.5, -0.2, 0.1])
        _, bound = erased_unsteerable(BlochData(np.zeros(3), t), eta)
        assert bound == 1.5 * eta + 0.5
