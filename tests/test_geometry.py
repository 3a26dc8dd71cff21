import numpy as np
import pytest

import xradon as xr
from xradon import geometry
from xradon.geometry import FULL_SPHERE, as_direction
from conftest import cube_grid


class TestFibonacciSphere:
    def test_weight_sum(self):
        q = xr.fibonacci_sphere(1000)
        assert abs(q.weights.sum() - FULL_SPHERE) < 1e-9

    def test_constant_integrand(self):
        q = xr.fibonacci_sphere(1000)
        assert abs(q.weights @ np.ones(q.count) - FULL_SPHERE) < 1e-9

    def test_second_moment(self):
        q = xr.fibonacci_sphere(2000)
        val = q.weights @ q.nodes[:, 2] ** 2
        assert abs(val - FULL_SPHERE / 3.0) < 1e-3

    def test_rejects_small_count(self):
        with pytest.raises(ValueError):
            xr.fibonacci_sphere(1)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_odd_monomials_cancel(self, axis):
        q = xr.fibonacci_sphere(1000)
        assert abs(q.weights @ q.nodes[:, axis]) < 1e-2

    def test_degree_two_closed_forms(self):
        q = xr.fibonacci_sphere(2000)
        for i in range(3):
            diag = q.weights @ q.nodes[:, i] ** 2
            assert abs(diag - FULL_SPHERE / 3.0) < 1e-3
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cross = q.weights @ (q.nodes[:, i] * q.nodes[:, j])
            assert abs(cross) < 1e-3

    def test_nodes_are_unit(self):
        q = xr.fibonacci_sphere(500)
        assert np.allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-12)


class TestSphereIntegrate:
    """Integrals over the sphere as quadrature.weights @ f(quadrature.nodes)."""

    def test_zero(self, quad2000):
        assert quad2000.weights @ np.zeros(quad2000.count) == 0.0

    def test_one(self, quad2000):
        assert abs(quad2000.weights @ np.ones(quad2000.count) - FULL_SPHERE) < 1e-9

    def test_unit_norm_identity(self, quad2000):
        val = quad2000.weights @ np.sum(quad2000.nodes**2, axis=1)
        assert abs(val - FULL_SPHERE) < 1e-9

    def test_array_input(self, quad2000):
        vals = np.ones(quad2000.count)
        assert abs(quad2000.weights @ vals - FULL_SPHERE) < 1e-9

    def test_array_length_mismatch(self, quad2000):
        with pytest.raises(ValueError):
            quad2000.weights @ np.ones(3)


def test_sphere_sum_one_node_blocks_equal_the_products(monkeypatch):
    # a one-node block adds w * values[0], not weights[block] @ values: the sum
    # is the same bit for bit, over -0.0 values and magnitudes 1e-300 to 1e290
    rng = np.random.default_rng(11)
    values = rng.normal(size=(5, 40)) * 10.0 ** rng.integers(-300, 290, size=(5, 40))
    values[:, ::3] = -0.0
    weights = rng.uniform(0.05, 1.0, 5)
    nodes = xr.fibonacci_sphere(5).nodes
    ref = np.zeros(40)
    for k in range(5):
        ref += weights[k : k + 1] @ values[k : k + 1]
    monkeypatch.setattr(geometry, "ROWS", 40)
    assert [b.stop - b.start for b in geometry.node_blocks(5, 40)] == [1] * 5
    got = geometry.sphere_sum(nodes, weights, np.zeros((40, 3)), lambda block, bnodes: values[block], 40)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestSphereQuadratureInvariants:
    def test_rejects_negative_weights(self):
        nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(ValueError):
            xr.SphereQuadrature(nodes, np.array([FULL_SPHERE + 1.0, -1.0]))

    def test_rejects_bad_weight_sum(self):
        nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(ValueError):
            xr.SphereQuadrature(nodes, np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "nodes, weights",
        [
            ([[np.nan, 0.0, 0.0], [0.0, 0.0, -1.0]], [FULL_SPHERE / 2.0] * 2),
            ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [np.nan, np.nan]),
        ],
    )
    def test_rejects_non_finite(self, nodes, weights):
        with pytest.raises(ValueError):
            xr.SphereQuadrature(np.array(nodes), np.array(weights))


class TestVolumeGrid:
    def test_cube_grid_coords(self):
        g = cube_grid(4.0, 33)
        assert g.dims == (33, 33, 33)
        assert g.axis_coords(0)[16] == 0.0

    def test_points_storage_order(self):
        g = xr.VolumeGrid(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(2, 2, 2))
        pts = g.points()
        # x varies fastest
        assert np.array_equal(pts[0], [0, 0, 0])
        assert np.array_equal(pts[1], [1, 0, 0])
        assert np.array_equal(pts[2], [0, 1, 0])
        assert np.array_equal(pts[4], [0, 0, 1])

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (1, 4, 1), (5, 1, 3), (2, 3, 4), (7, 2, 1), (33, 33, 33)]
    )
    def test_points_equal_meshgrid_column_stack(self, dims):
        # the points fill one array by broadcasting the axis coordinates; bit for
        # bit the meshgrid + column_stack construction, on non-cubic dims and dims of 1
        g = xr.VolumeGrid(origin=(-1.3, 0.2, 7.0), spacing=(0.1, 0.37, 1e-3), dims=dims)
        zz, yy, xx = np.meshgrid(g.axis_coords(2), g.axis_coords(1), g.axis_coords(0), indexing="ij")
        expected = np.column_stack((xx.ravel(), yy.ravel(), zz.ravel()))
        pts = g.points()
        assert pts.shape == expected.shape and pts.flags.c_contiguous
        assert np.array_equal(pts.view(np.uint64), expected.view(np.uint64))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            xr.VolumeGrid((0, 0, 0), (1, 1, 1), (0, 2, 2))

    def test_rejects_sample_mismatch(self):
        with pytest.raises(ValueError):
            xr.VolumeGrid((0, 0, 0), (1, 1, 1), (2, 2, 2), np.zeros(7))

    @pytest.mark.parametrize("spacing", [(1.0, np.nan, 1.0), (np.inf, 1.0, 1.0)])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(ValueError):
            xr.VolumeGrid((0, 0, 0), spacing, (2, 2, 2))


def test_as_direction_rejects_shape():
    with pytest.raises(ValueError):
        as_direction([1.0, 0.0])


@pytest.mark.parametrize("v", [(np.nan, 0.0, 0.0), (np.nan, np.nan, np.nan)])
def test_as_direction_rejects_non_finite(v):
    with pytest.raises(ValueError):
        as_direction(v)
