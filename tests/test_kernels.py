import numpy as np

from netsteer.kernels import criterion_values, fibonacci_sphere, sphere_maximize


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
