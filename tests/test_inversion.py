import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

import xradon as xr
from xradon import hilbert
from xradon import inversion as inv
from xradon import phantom as phm
from xradon.geometry import ROWS, node_blocks
from xradon.hilbert import CHUNK_SAMPLES, sample_width
from conftest import S_GRID, ArrayRows, calibrate

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def xray_cfg(quad2000):
    return inv.ReconstructionConfig(quad2000)


@pytest.fixture(scope="module")
def classical_cfg(quad2000):
    return inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_CLASSICAL)


def at(data, cfg, x):
    """Reconstruction at a single point."""
    return float(inv.reconstruct(data, cfg, np.reshape(x, (1, 3)))[0])


def lemma9_at(ph, x, quadrature):
    """Lemma-9 report at a single point, as scalars."""
    rep = inv.lemma9_diagnostic(ph, np.reshape(x, (1, 3)), quadrature, S_GRID)
    return inv.Lemma9Report(*(float(v[0]) for v in (rep.left, rep.right, rep.ratio, rep.difference)))


def ray_data(ph):
    """The phantom's divergent-beam data (x, n), the form grangeat_convert reads."""
    return functools.partial(xr.halfline_integral, ph)


def lifted(ph):
    """The phantom's ray data (x, n) lifted into the xray branch's sphere-summed ray-difference form."""
    return inv.lift_xray_data(ray_data(ph))


def riesz_potential(ph, points):
    """I^1 f = (-Laplacian)^(-1/2) f = (1/(2 pi^2)) int f(y) / |x - y|^2 dy of a Gaussian
    phantom: A a^2 D(r/a) / (sqrt(pi) r) per primitive, r = |x - c|, D the Dawson
    function, with the limit A a / sqrt(pi) at r = 0."""
    out = np.zeros(len(points))
    for prim in ph.primitives:
        a = prim.scale
        r = np.linalg.norm(points - prim.center, axis=1)
        safe = np.where(r > 0.0, r, 1.0)
        out += prim.amplitude * np.where(
            r > 0.0, a * a * dawsn(safe / a) / (np.sqrt(np.pi) * safe), a / np.sqrt(np.pi)
        )
    return out


def two_gaussians():
    """The two-gaussians preset: unit Gaussians at (+-1, 0, 0), support radius 7."""
    return xr.Phantom(
        (
            xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
            xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
        ),
        7.0,
    )


def point_set(count):
    """count seeded points (seed 3) in the ball of radius 1.5."""
    return inv.sample_ball_points(np.random.default_rng(3), count, 1.5)


def zero_dataset(quadrature):
    return inv.RadonDataset(quadrature.nodes, -4.0, 4.0, np.zeros((quadrature.count, 64)))


class TestInvertXray:
    def test_unit_gaussian_at_origin(self, unit_gaussian, xray_cfg):
        data = inv.phantom_data(unit_gaussian, xray_cfg, S_GRID)
        val = inv.XRAY_BRANCH_CONSTANT * at(data, xray_cfg, (0.0, 0.0, 0.0))
        assert abs(val - 1.0) < 1e-3

    def test_zero_phantom(self, xray_cfg):
        data = inv.phantom_data(xr.Phantom((), 1.0), xray_cfg, S_GRID)
        assert at(data, xray_cfg, (0.0, 0.0, 0.0)) == 0.0

    def test_two_gaussians(self, xray_cfg):
        ph = xr.Phantom(
            (
                xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
                xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
            ),
            7.0,
        )
        val = inv.XRAY_BRANCH_CONSTANT * at(inv.phantom_data(ph, xray_cfg, S_GRID), xray_cfg, (1.0, 0.0, 0.0))
        assert abs(val - (1.0 + np.exp(-4.0))) < 2e-3

    def test_branch_mismatch_rejected(self, unit_gaussian, quad2000):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        with pytest.raises(ValueError):
            at(ray_data(unit_gaussian), cfg, (0, 0, 0))

    def test_pointwise_integrand_identity(self, unit_gaussian, quad2000):
        # strong form: each node contributes -density(x) up to O(h^2)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, size=3)
        h = 1e-4
        data = lifted(unit_gaussian)
        nodes = quad2000.nodes[::100]
        deriv = np.array([data(x[None, :], h, n[None], np.ones(1))[0] for n in nodes]) / (2 * h)
        assert np.max(np.abs(deriv + xr.evaluate(unit_gaussian, x))) < 1e-5

    def test_shift_equivariance(self, quad2000):
        shift = np.array([0.5, -0.3, 0.2])
        base = xr.gaussian_phantom()
        moved = xr.gaussian_phantom(center=shift)
        cfg = inv.ReconstructionConfig(quad2000)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=3)
            a = inv.XRAY_BRANCH_CONSTANT * at(inv.phantom_data(base, cfg, S_GRID), cfg, x)
            b = inv.XRAY_BRANCH_CONSTANT * at(inv.phantom_data(moved, cfg, S_GRID), cfg, x + shift)
            assert abs(a - b) < 1e-3

    def test_linearity_in_data(self, unit_gaussian, xray_cfg):
        xdata = ray_data(unit_gaussian)
        doubled = lambda pts, dirs: 2.0 * xdata(pts, dirs)
        x = (0.4, 0.1, -0.2)
        a = inv.XRAY_BRANCH_CONSTANT * at(inv.lift_xray_data(xdata), xray_cfg, x)
        b = inv.XRAY_BRANCH_CONSTANT * at(inv.lift_xray_data(doubled), xray_cfg, x)
        assert abs(b - 2.0 * a) < 1e-12


class TestInvertRadon:
    def test_zero_dataset(self, quad2000):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        assert at(zero_dataset(quad2000), cfg, (0.0, 0.0, 0.0)) == 0.0

    def test_linearity(self, quad2000, gauss_dataset):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        d = gauss_dataset
        doubled = inv.RadonDataset(d.nodes, d.s_min, d.s_max, 2.0 * d.values)
        x = (0.3, 0.0, 0.1)
        a = inv.XRAY_BRANCH_CONSTANT * at(gauss_dataset, cfg, x)
        b = inv.XRAY_BRANCH_CONSTANT * at(doubled, cfg, x)
        assert abs(b - 2.0 * a) < 1e-12 * max(1.0, abs(a))

    def test_diagnostic_against_oracle(self, unit_gaussian, quad2000, gauss_dataset):
        # measured, not asserted: the cylindrical branch reports a scale
        # relative to the density; record that it runs and is finite
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        val = at(gauss_dataset, cfg, (0.0, 0.0, 0.0))
        truth = xr.evaluate(unit_gaussian, (0.0, 0.0, 0.0))
        assert np.isfinite(val)
        assert truth == 1.0

    def test_matches_riesz_potential(self, quad2000):
        # with unit normalization the branch reconstructs -16 pi^3 I^1 f
        ph = two_gaussians()
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        data = inv.build_radon_dataset(ph, quad2000, -8.0, 8.0, 801)
        pts = inv.sample_ball_points(np.random.default_rng(3), 200, 2.5)
        target = -16.0 * np.pi**3 * riesz_potential(ph, pts)
        rec = inv.reconstruct(data, cfg, pts)
        assert np.linalg.norm(rec - target) <= 1e-4 * np.linalg.norm(target)

    def test_out_of_range_point_rejected(self, quad2000, gauss_dataset):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        with pytest.raises(ValueError):
            at(gauss_dataset, cfg, (20.0, 0.0, 0.0))

    def test_dataset_count_mismatch(self, quad2000, gauss_dataset):
        small = xr.fibonacci_sphere(10)
        cfg = inv.ReconstructionConfig(small, branch=inv.BRANCH_RADON)
        with pytest.raises(ValueError):
            at(gauss_dataset, cfg, (0.0, 0.0, 0.0))


class TestClassicalRadon:
    def test_unit_gaussian_center(self, classical_cfg, gauss_dataset):
        val = at(gauss_dataset, classical_cfg, (0.0, 0.0, 0.0))
        assert abs(val - 1.0) < 1e-3

    def test_unit_gaussian_offset(self, classical_cfg, gauss_dataset):
        val = at(gauss_dataset, classical_cfg, (1.0, 0.0, 0.0))
        assert abs(val - np.exp(-1.0)) < 1e-3

    def test_zero_dataset(self, quad2000, classical_cfg):
        assert at(zero_dataset(quad2000), classical_cfg, (0, 0, 0)) == 0.0

    def test_agrees_with_xray_branch(self, unit_gaussian, quad2000, gauss_dataset, classical_cfg):
        cfg = inv.ReconstructionConfig(quad2000)
        data = inv.phantom_data(unit_gaussian, cfg, S_GRID)
        rng = np.random.default_rng(23)
        pts = inv.sample_ball_points(rng, 50, 1.5)
        a = inv.XRAY_BRANCH_CONSTANT * inv.reconstruct(data, cfg, pts)
        b = inv.reconstruct(gauss_dataset, classical_cfg, pts)
        assert np.max(np.abs(a - b)) < 5e-3


def gauss_sphere(m):
    """Gauss-Legendre in cos(theta) with m nodes times a 2m-point trapezoid rule in phi,
    offset by half a step: 2 m^2 antipodal nodes, exact for spherical harmonics of
    degree below 2m (Stroud, Approximate Calculation of Multiple Integrals, 1971)."""
    z, wz = np.polynomial.legendre.leggauss(m)
    phi = (np.arange(2 * m) + 0.5) * np.pi / m
    r = np.sqrt(1.0 - z * z)[:, None]
    nodes = np.stack(np.broadcast_arrays(r * np.cos(phi), r * np.sin(phi), z[:, None]), axis=-1)
    return xr.SphereQuadrature(nodes.reshape(-1, 3), np.repeat(wz * np.pi / m, 2 * m))


class TestGaussRuleConvergence:
    """On a sphere rule exact well past the profiles' band, the s-axis sets the error."""

    @pytest.fixture(scope="class")
    def setup(self):
        ph = two_gaussians()
        quad = gauss_sphere(12)
        data = inv.build_radon_dataset(ph, quad, -8.0, 8.0, 801)
        return ph, quad, data, point_set(200)

    def test_rule_integrates_low_degree_polynomials(self):
        quad = gauss_sphere(12)
        assert quad.count == 288
        n = quad.nodes
        # int x^2 y^4 z^6 dn = 4 pi 1!! 3!! 5!! / 13!!, a polynomial of degree 12 < 24
        expected = 4.0 * np.pi * 1.0 * 3.0 * 15.0 / (3.0 * 5.0 * 7.0 * 9.0 * 11.0 * 13.0)
        assert abs(quad.weights @ (n[:, 0] ** 2 * n[:, 1] ** 4 * n[:, 2] ** 6) - expected) <= 1e-15

    def test_classical_against_density(self, setup):
        ph, quad, data, pts = setup
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_CLASSICAL)
        truth = xr.evaluate(ph, pts)
        rec = inv.reconstruct(data, cfg, pts)
        assert np.linalg.norm(rec - truth) <= 1.5e-7 * np.linalg.norm(truth)

    def test_radon_against_riesz_potential(self, setup):
        ph, quad, data, pts = setup
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_RADON)
        target = -16.0 * np.pi**3 * riesz_potential(ph, pts)
        rec = inv.reconstruct(data, cfg, pts)
        assert np.linalg.norm(rec - target) <= 5e-8 * np.linalg.norm(target)


class TestReadoutOrder:
    """The s-axis error falls as tau^4, the order of the 4-point cubic read-out.

    On Gauss 24 the quadrature is far below the s-axis term at S = 201, 401
    and 801 on [-8, 8], so each halving of the spacing tau should divide the
    error by 16; a linear read-out would divide it by 4 and pass any fixed
    bound set at one S.  200 points take per-query stencils at S = 401 and
    801 and the cubic tables at 201; 1,000 points take the tables at every S."""

    SAMPLES = (201, 401, 801)

    @pytest.fixture(scope="class")
    def datasets(self):
        quad = gauss_sphere(24)
        return quad, [inv.build_radon_dataset(two_gaussians(), quad, -8.0, 8.0, count) for count in self.SAMPLES]

    @pytest.mark.parametrize("count", [200, 1000])
    @pytest.mark.parametrize("branch", [inv.BRANCH_CLASSICAL, inv.BRANCH_RADON])
    def test_observed_order_is_four(self, datasets, branch, count):
        quad, data = datasets
        ph, pts = two_gaussians(), point_set(count)
        if branch == inv.BRANCH_CLASSICAL:
            target = xr.evaluate(ph, pts)
        else:
            target = -16.0 * np.pi**3 * riesz_potential(ph, pts)
        cfg = inv.ReconstructionConfig(quad, branch=branch)
        errors = [np.linalg.norm(inv.reconstruct(d, cfg, pts) - target) / np.linalg.norm(target) for d in data]
        # measured 3.98-4.00 per halving
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all(np.abs(orders - 4.0) <= 0.2), (errors, orders)


class TestDiffStepOrder:
    """The x-ray branch's error against f falls as h^2, the order of its central difference.

    Its sphere sum over 2h is the mean over [0, h] of f's spherical means,
    f + (h^2 / 18) Laplacian f + O(h^4), so each halving of h should divide the
    error by 4; on Fibonacci 200 the quadrature stays far below that term."""

    def test_observed_order_is_two(self):
        ph, pts = two_gaussians(), point_set(200)
        quad = xr.fibonacci_sphere(200)
        target = xr.evaluate(ph, pts)
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            cfg = inv.ReconstructionConfig(quad, diff_step=h)
            rec = inv.XRAY_BRANCH_CONSTANT * inv.reconstruct(inv.phantom_data(ph, cfg, S_GRID), cfg, pts)
            errors.append(np.linalg.norm(rec - target) / np.linalg.norm(target))
        # measured 2.1e-5, 5.25e-6 and 1.31e-6: 2.0000 per halving
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.1), (errors, orders)


class TestXrayStepTarget:
    """The x-ray branch against its exact target T_h at a finite step h
    (phantom.xray_step_target), not against f."""

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.2])
    def test_gauss_rule_reaches_the_step_target(self, h):
        # two-gaussians on Gauss 16 (512 nodes), whose sphere error is far below
        # rounding: measured 4.4e-16, 6.6e-16 and 5.6e-16 of max|T_h|, against
        # 3.1e-5, 7.8e-4 and 1.3e-2 from f
        ph, pts = two_gaussians(), point_set(200)
        cfg = inv.ReconstructionConfig(gauss_sphere(16), diff_step=h)
        rec = inv.XRAY_BRANCH_CONSTANT * inv.reconstruct(inv.phantom_data(ph, cfg, S_GRID), cfg, pts)
        target = phm.xray_step_target(ph, pts, h)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(rec - target)) <= 1e-13 * scale
        assert np.max(np.abs(target - xr.evaluate(ph, pts))) >= 1e-6 * scale


class TestBatchReconstruction:
    """A batch of points spanning several node blocks against single points and per-node loops."""

    @pytest.fixture(scope="class")
    def quad(self):
        return xr.fibonacci_sphere(500)

    @pytest.fixture(scope="class")
    def batch(self, quad):
        # enough points that the quadrature splits into at least 3 node blocks
        count = 3 * ROWS // quad.count + 1
        assert (ROWS // count) * 3 <= quad.count
        return inv.sample_ball_points(np.random.default_rng(31), count, 1.5)

    @pytest.fixture(scope="class")
    def dataset(self, unit_gaussian, quad):
        return inv.build_radon_dataset(unit_gaussian, quad, -8.0, 8.0, 401)

    def branch_data(self, cfg, unit_gaussian, dataset):
        if cfg.branch == inv.BRANCH_XRAY:
            return inv.phantom_data(unit_gaussian, cfg, S_GRID)
        return dataset

    @pytest.mark.parametrize("branch", inv.BRANCHES)
    def test_batch_matches_single_points(self, branch, quad, batch, unit_gaussian, dataset):
        cfg = inv.ReconstructionConfig(quad, branch=branch)
        data = self.branch_data(cfg, unit_gaussian, dataset)
        batched = inv.reconstruct(data, cfg, batch)
        single = np.array([at(data, cfg, x) for x in batch])
        assert batched.shape == (len(batch),)
        assert np.max(np.abs(batched - single)) <= 1e-14 * np.max(np.abs(single))

    @pytest.mark.parametrize("branch", inv.BRANCHES)
    def test_matches_per_node_loop(self, branch, quad, batch, unit_gaussian, dataset):
        cfg = inv.ReconstructionConfig(quad, branch=branch)
        data = self.branch_data(cfg, unit_gaussian, dataset)
        h = cfg.diff_step
        for x in batch[:3]:
            total = 0.0
            ray = lifted(unit_gaussian)
            for k, (node, weight) in enumerate(zip(quad.nodes, quad.weights)):
                if branch == inv.BRANCH_XRAY:
                    total += weight * ray(x[None, :], h, node[None, :], np.ones(1))[0] / (2.0 * h)
                    continue
                kernel = xr.HILBERT_DERIVATIVE if branch == inv.BRANCH_RADON else xr.SECOND_DIFFERENCE
                filtered = xr.convolve_rows(dataset.values[k], kernel, dataset.spacing)
                offset = np.array([[np.dot(node, x)]])
                total += weight * xr.sample_rows(filtered[None], dataset.s_min, dataset.s_max, offset)[0, 0]
            scale = {
                inv.BRANCH_XRAY: 1.0,
                inv.BRANCH_RADON: inv.RADON_BRANCH_FACTOR,
                inv.BRANCH_CLASSICAL: inv.CLASSICAL_RADON_CONSTANT,
            }[branch]
            # compared at the x-ray constant, the scale its tolerance was set at
            norm = 1.0 if branch == inv.BRANCH_CLASSICAL else inv.XRAY_BRANCH_CONSTANT
            expected = norm * scale * total
            assert abs(norm * at(data, cfg, x) - expected) <= 1e-12 * max(abs(expected), 1e-3)

    # A step of 0.05 sends the Gaussians down the erfc form's node blocks.  The
    # batch lies at least 0.7 from the gaussian-ball preset's ball (radius 0.5),
    # outside B(c, R + h), where the ball's term is exactly 0; points within h
    # of its surface are held to the reference in test_phantom.
    @pytest.mark.parametrize(
        "phantom, diff_step",
        [("unit", 1e-4), ("two", 1e-4), ("unit", 0.05), ("gaussian-ball", 0.05)],
        ids=["unit", "two", "unit-erfc", "gaussian-ball-erfc"],
    )
    def test_fused_xray_matches_lifted_reference(self, phantom, diff_step, quad, batch, unit_gaussian):
        # the batch takes full node blocks and a shorter last one
        step = ROWS // len(batch)
        assert quad.count // step >= 3 and quad.count % step != 0
        ph = {
            "unit": unit_gaussian,
            "two": xr.Phantom(
                (
                    xr.Primitive(xr.GAUSSIAN, (0.5, 0.0, 0.2), 0.8, 1.0),
                    xr.Primitive(xr.GAUSSIAN, (-0.7, 0.3, 0.0), 0.6, -0.5),
                ),
                6.0,
            ),
            "gaussian-ball": xr.Phantom(
                (
                    xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),
                    xr.Primitive(xr.BALL, (2.0, 0.0, 0.0), 0.5, 1.0),
                ),
                6.0,
            ),
        }[phantom]
        cfg = inv.ReconstructionConfig(quad, diff_step=diff_step)
        fused = inv.reconstruct(inv.phantom_data(ph, cfg, S_GRID), cfg, batch)
        ref = inv.reconstruct(lifted(ph), cfg, batch)
        assert np.max(np.abs(fused - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_second_call_leaves_first_result(self, quad, batch, unit_gaussian):
        cfg = inv.ReconstructionConfig(quad)
        data = inv.phantom_data(unit_gaussian, cfg, S_GRID)
        first = inv.reconstruct(data, cfg, batch)
        kept = first.copy()
        second = inv.reconstruct(data, cfg, 0.5 * batch)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)

    def test_lemma9_batch_matches_single_points(self, quad, batch, unit_gaussian):
        rep = inv.lemma9_diagnostic(unit_gaussian, batch, quad, S_GRID)
        # The right side nearly cancels, so both sides are compared on the
        # scale of the left one, the size of the integrands; the ratio
        # inherits the right side's relative error.
        tol = 1e-14 * np.max(np.abs(rep.left))
        for i, x in enumerate(batch[::10]):
            one = lemma9_at(unit_gaussian, x, quad)
            j = 10 * i
            assert abs(rep.left[j] - one.left) <= tol
            assert abs(rep.right[j] - one.right) <= tol
            assert abs(rep.difference[j] - one.difference) <= 2.0 * tol
            assert abs(rep.ratio[j] - one.ratio) <= 2.0 * tol / abs(one.right) * abs(one.ratio)

    def test_rejects_bad_point_shape(self, unit_gaussian, xray_cfg):
        with pytest.raises(ValueError, match="shape"):
            inv.reconstruct(inv.phantom_data(unit_gaussian, xray_cfg, S_GRID), xray_cfg, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("branch", inv.BRANCHES)
    def test_empty_batch(self, branch, quad, unit_gaussian, dataset):
        cfg = inv.ReconstructionConfig(quad, branch=branch)
        data = self.branch_data(cfg, unit_gaussian, dataset)
        assert inv.reconstruct(data, cfg, np.zeros((0, 3))).shape == (0,)

    def test_backprojection_memory_is_bounded(self, unit_gaussian):
        # the profiles are filtered a chunk of node blocks at a time and the stencils
        # and cubic tables of a node block stay within ROWS, so the peak stays below
        # one filtered copy of the dataset: all 300 rows filtered at once would add
        # the dataset's 2,402 KB (a peak of 3,425 KB, measured), all 300 rows'
        # tables about 9.8 MB.  50 points take per-query stencils; 4 S points and
        # the radon_volume benchmark's 17^3 voxels with 50 calibration points, a
        # volume's batch, take the tables.
        quad = xr.fibonacci_sphere(300)
        data = inv.build_radon_dataset(unit_gaussian, quad, -8.0, 8.0, 1025)
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_RADON)
        for count in (50, 4 * data.values.shape[1], 17**3 + 50):
            points = inv.sample_ball_points(np.random.default_rng(7), count, 1.5)
            tracemalloc.start()
            try:
                inv.reconstruct(data, cfg, points)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < data.values.nbytes, count

    @pytest.mark.parametrize(
        "nodes, weights",
        [(np.eye(3)[:, :2], np.ones(3)), (np.eye(3), np.ones(2)), (np.eye(3), np.ones((3, 1)))],
        ids=["nodes-not-k-by-3", "weights-short", "weights-not-flat"],
    )
    def test_lifted_data_rejects_bad_quadrature_shape(self, unit_gaussian, nodes, weights):
        with pytest.raises(ValueError, match=r"lift_xray_data's data takes \(K, 3\) nodes and \(K,\) weights"):
            lifted(unit_gaussian)(np.zeros((4, 3)), 1e-4, nodes, weights)

    def test_xray_branch_rejects_dataset(self, xray_cfg, gauss_dataset):
        with pytest.raises(ValueError):
            at(gauss_dataset, xray_cfg, (0.0, 0.0, 0.0))

    def test_xray_branch_rejects_ray_callable(self, xray_cfg, unit_gaussian):
        # (x, n) ray data fails by its own arity; lift it with lift_xray_data
        with pytest.raises(TypeError):
            at(ray_data(unit_gaussian), xray_cfg, (0.0, 0.0, 0.0))


def random_backprojection(rng, count, samples, nodes_count):
    """Random profiles of `samples` samples on [-R, R], each 0 at both ends so that it
    passes the filters' decay check, for `nodes_count` random nodes and weights,
    and `count` points whose offsets run over the whole grid: points of norm at
    most R include +-R n_k, whose offsets at n_k are the grid ends, and
    +-(R - h/2) n_k, which read intervals 0 and S - 2 through their ghosts.
    Returns (data, quadrature, points)."""
    nodes = rng.normal(size=(nodes_count, 3))
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = rng.uniform(0.5, 1.5, nodes_count)
    weights *= 4.0 * np.pi / weights.sum()
    quadrature = xr.SphereQuadrature(nodes, weights)
    radius = rng.uniform(0.5, 10.0)
    values = rng.normal(size=(nodes_count, samples))
    values[:, [0, -1]] = 0.0
    data = inv.RadonDataset(nodes, -radius, radius, values)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    points = directions * radius * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    inside = radius * (1.0 - 1.0 / (samples - 1))
    ends = nodes[rng.integers(0, nodes_count, size=4)] * [[radius], [-radius], [inside], [-inside]]
    points[:4] = ends[:count]
    return data, quadrature, points


def blockwise_sum(filtered, data, quadrature, points):
    """A fresh sample_rows call per node block of the filtered rows, summed as
    sphere_sum sums: the backprojection of a filtered copy of the dataset."""
    total = np.zeros(points.shape[0])
    for block in node_blocks(quadrature.count, sample_width(points.shape[0], data.values.shape[1])):
        values = xr.sample_rows(filtered[block], data.s_min, data.s_max, quadrature.nodes[block] @ points.T)
        weights = quadrature.weights[block]
        total += weights @ values if values.shape[0] > 1 else weights[0] * values[0]
    return total


class TestBackprojectBlocks:
    """_backproject is one sphere sum over node blocks as wide as a sample_rows call."""

    @PROPERTY
    @given(count=st.integers(1, 300), samples=st.integers(8, 1025), seed=st.integers(0, 2**32 - 1))
    # a calibration batch of 50 points on the CLI's 801 samples, and both sides
    # of Q = S - 1: per-query stencils at 99 points, cubic tables at 100
    @example(count=50, samples=801, seed=1)
    @example(count=99, samples=101, seed=2)
    @example(count=100, samples=101, seed=3)
    def test_matches_a_call_per_node(self, count, samples, seed):
        rng = np.random.default_rng(seed)
        # two or three node blocks, most often with a short last one; at most
        # 500 nodes and 2,000,000 samples
        step = max(1, ROWS // sample_width(count, samples))
        nodes_count = int(min(rng.integers(step + 1, 3 * step + 1), 500, 2_000_000 // samples))
        data, quadrature, points = random_backprojection(rng, count, samples, nodes_count)
        # the Hilbert filter passes every frequency at unit gain: the filtered rows
        # are as rough as the random rows, with no 1 / spacing growth
        got = inv._backproject(data, xr.HILBERT, quadrature, points)
        filtered = xr.convolve_rows(data.values, xr.HILBERT, data.spacing)
        total = np.zeros(count)
        scale = np.zeros(count)
        for k in range(nodes_count):
            offsets = quadrature.nodes[k:k + 1] @ points.T
            term = quadrature.weights[k] * xr.sample_rows(filtered[k:k + 1], data.s_min, data.s_max, offsets)[0]
            total += term
            scale += np.abs(term)
        assert np.all(np.abs(got - total) <= 1e-13 * scale)

    @PROPERTY
    @given(
        samples=st.integers(8, 1025),
        extra=st.integers(0, 3000),
        last=st.sampled_from(["full", "short", "one-node"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the radon_volume benchmark's batch: 17^3 voxels and 50 calibration points
    # on 801 samples, blocks of 3 nodes
    @example(samples=801, extra=4963 - 800, last="one-node", seed=1)
    def test_reader_matches_fresh_calls_bitwise(self, samples, extra, last, seed):
        # Q >= S - 1 points read the cubic tables through one CubicReader, whose
        # scratch each block reuses: byte for byte a fresh sample_rows call per
        # block, summed as sphere_sum sums.  A last block shorter than the
        # scratch would show any row of it left from the block before.
        count = samples - 1 + extra
        width = sample_width(count, samples)
        step = ROWS // width
        assert step >= 3
        rng = np.random.default_rng(seed)
        # one or two full blocks, then the last one
        tail = {"full": step, "short": int(rng.integers(2, step)), "one-node": 1}[last]
        nodes_count = int(rng.integers(1, 3)) * step + tail
        data, quadrature, points = random_backprojection(rng, count, samples, nodes_count)
        filtered = xr.convolve_rows(data.values, xr.HILBERT, data.spacing)
        expected = blockwise_sum(filtered, data, quadrature, points)
        got = inv._backproject(data, xr.HILBERT, quadrature, points)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("filled", [False, True], ids=["view", "filled"])
    @pytest.mark.parametrize("kernel", [xr.HILBERT, xr.HILBERT_DERIVATIVE, xr.SECOND_DIFFERENCE])
    @pytest.mark.parametrize(
        "count, samples, nodes_count",
        [
            # per-query stencils (fewer queries than intervals) hold 4 Q values per row:
            # node blocks of 16384 // 200 = 81 rows, twelve to a chunk of 972 within
            # CHUNK_SAMPLES // 64 = 1024 rows, 972 + 972 + 82, the last block one node
            (50, 64, 2026),
            # the same on the CLI's 801 samples: a chunk is one node block of 81 rows
            # (CHUNK_SAMPLES // 801 = 81), filtered in FFT blocks of 16384 // 1602 = 10
            # rows, eight and a short one; 81 + 81 + 1
            (50, 801, 163),
            # the radon_volume benchmark's batch: cubic tables in node blocks of 3,
            # chunks of 81, 81 + 81 + 1, the last block one node
            (4963, 801, 163),
            # cubic tables on 3,201 samples: one-node blocks in chunks of 20, 20 + 20 + 1
            (3300, 3201, 41),
        ],
        ids=["query-64", "query-801", "tables-801", "tables-3201"],
    )
    def test_fused_filter_matches_a_filtered_copy_bitwise(self, kernel, count, samples, nodes_count, filled):
        # fetching and filtering each chunk of node blocks into one scratch array,
        # from a source whose rows are views or one that fills the scratch, gives
        # byte for byte the backprojection of all rows filtered first
        # (convolve_rows), a short last chunk and a one-node last block included
        step = ROWS // sample_width(count, samples)
        chunk = step * max(1, CHUNK_SAMPLES // samples // step)
        assert nodes_count > 2 * chunk and nodes_count % chunk != 0 and (nodes_count - 1) % step == 0
        data, quadrature, points = random_backprojection(np.random.default_rng(count), count, samples, nodes_count)
        before = data.values.copy()
        filtered = xr.convolve_rows(data.values, kernel, data.spacing)
        expected = blockwise_sum(filtered, data, quadrature, points)
        source = ArrayRows(data.values, data.s_min, data.s_max, filled=True) if filled else data
        got = inv._backproject(source, kernel, quadrature, points)
        assert got.tobytes() == expected.tobytes()
        assert data.values.tobytes() == before.tobytes()

    def test_decay_is_checked_per_chunk_before_it_is_filtered(self, monkeypatch):
        events = []
        check, filter_rows = hilbert._check_decay, hilbert._filter_rows
        monkeypatch.setattr(hilbert, "_check_decay", lambda v: events.append(("check", v.shape)) or check(v))
        monkeypatch.setattr(
            hilbert, "_filter_rows", lambda *a: events.append(("filter", a[0].shape)) or filter_rows(*a)
        )
        data, quadrature, points = random_backprojection(np.random.default_rng(5), 4963, 801, 163)
        inv._backproject(data, xr.HILBERT_DERIVATIVE, quadrature, points)
        # chunks of 27 node blocks of 3, 81 + 81 + 1: each checked, then filtered, once
        chunks = [(81, 801), (81, 801), (1, 801)]
        assert events == [(step, shape) for shape in chunks for step in ("check", "filter")]
        # a last row that does not decay fails its own chunk's check, before that
        # chunk is filtered and after the earlier chunks were
        events.clear()
        data.values[-1, -1] = 1.0 + np.max(np.abs(data.values[-1]))
        with pytest.raises(hilbert.ProfileDecayError):
            inv._backproject(data, xr.HILBERT_DERIVATIVE, quadrature, points)
        assert events == [(step, shape) for shape in chunks[:2] for step in ("check", "filter")] + [
            ("check", (1, 801))
        ]


def window_points(rng, data, quadrature, count, radius):
    """count points of norm at most `radius` for the nodes of quadrature on data's
    grid: radius n_k and -radius n_k for a random node, whose offsets at n_k are
    +-radius, the farthest any point reaches; then points s_j n_k whose offset at
    a random node n_k is a sample s_j = s_min + j h of the grid within
    [-radius, radius], on the boundary of two intervals; then points uniform in
    the ball."""
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    points = directions * radius * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    node = quadrature.nodes[rng.integers(0, quadrature.count)]
    points[:2] = [radius * node, -radius * node][:count]
    grid = np.linspace(data.s_min, data.s_max, data.samples)
    on_samples = grid[np.abs(grid) <= radius]
    if on_samples.size and count > 2:
        picks = rng.integers(0, on_samples.size, size=(count - 2) // 2)
        nodes = quadrature.nodes[rng.integers(0, quadrature.count, size=picks.size)]
        points[2:2 + picks.size] = on_samples[picks, None] * nodes
    return points


# The backprojection of a window against that of whole rows, per point, in units
# of S sum_k w_k max|row_k| (pi / h)**order: the filter's rounding scales with
# max|row| (pi / h)**order (test_hilbert.window_noise), and the window's read-out
# rounds each offset's place on the grid differently, by up to about eps S steps,
# each worth that much on the random rows.  Measured 4.6e-17 over 150 random
# cases built as TestBackprojectWindow.test_matches_whole_rows builds them.
BACKPROJECT_WINDOW_TOL = 5e-16


class TestBackprojectWindow:
    """_backproject filters and reads only the samples its points can reach."""

    @PROPERTY
    @given(
        samples=st.integers(8, 1025),
        fraction=st.floats(0.0, 1.0),
        tables=st.booleans(),
        filled=st.booleans(),
        kernel=st.sampled_from((xr.HILBERT, xr.HILBERT_DERIVATIVE, xr.SECOND_DIFFERENCE)),
        seed=st.integers(0, 2**32 - 1),
    )
    # the calibration ball's window on 801 samples, per-query stencils and cubic tables
    @example(samples=801, fraction=0.21875, tables=False, filled=True, kernel=xr.HILBERT_DERIVATIVE, seed=1)
    @example(samples=801, fraction=0.21875, tables=True, filled=False, kernel=xr.HILBERT, seed=2)
    # points at the origin, which lies mid-interval on 100 samples: the window is the
    # fewest samples, four, 48..51
    @example(samples=100, fraction=0.0, tables=False, filled=False, kernel=xr.HILBERT_DERIVATIVE, seed=3)
    @example(samples=100, fraction=0.0, tables=True, filled=True, kernel=xr.HILBERT, seed=4)
    def test_matches_whole_rows(self, samples, fraction, tables, filled, kernel, seed):
        # against the backprojection of all rows filtered whole (convolve_rows), from
        # a RadonDataset's views or a source that fills the scratch; the window is
        # partial unless the points reach both grid ends, where it is bitwise
        rng = np.random.default_rng(seed)
        data, quadrature, _ = random_backprojection(rng, 1, samples, min(300, 2_000_000 // samples))
        radius = fraction * data.s_max
        window = inv._window(data, np.array([[radius, 0.0, 0.0]]))[0]
        width = window.stop - window.start
        count = width - 1 + int(rng.integers(0, 200)) if tables else max(1, width - 2)
        # two or three node blocks, most often with a short last one
        step = max(1, ROWS // sample_width(count, width))
        keep = int(min(rng.integers(step + 1, 3 * step + 1), data.count))
        weights = quadrature.weights[:keep] * (4.0 * np.pi / quadrature.weights[:keep].sum())
        quadrature = xr.SphereQuadrature(quadrature.nodes[:keep], weights)
        data = inv.RadonDataset(data.nodes[:keep], data.s_min, data.s_max, data.values[:keep])
        points = window_points(rng, data, quadrature, count, radius)
        assert inv._window(data, points)[0] == window
        filtered = xr.convolve_rows(data.values, kernel, data.spacing)
        expected = blockwise_sum(filtered, data, quadrature, points)
        source = ArrayRows(data.values, data.s_min, data.s_max, filled=True) if filled else data
        got = inv._backproject(source, kernel, quadrature, points)
        if width == samples:
            assert got.tobytes() == expected.tobytes()
            return
        noise = quadrature.weights @ np.max(np.abs(data.values), axis=1) * (np.pi / data.spacing) ** kernel.order
        assert np.max(np.abs(got - expected)) <= BACKPROJECT_WINDOW_TOL * samples * noise


def checked_read(rows, s, data, window):
    """The read-out of the filtered window rows at the offsets s with every guard on:
    the offsets checked against the whole grid, each cell truncated and clamped to
    the window's intervals 0..W - 2, then its interval's coefficients, gathered from
    the window's cubic tables (Q >= W - 1) or formed per query, and the Horner chain."""
    if s.size and not hilbert.offsets_on_grid(s.min(), s.max(), data.s_min, data.s_max):
        raise ValueError("query offset outside the profile range")
    width = window.stop - window.start
    origin = data.s_min + window.start * data.spacing if window.start else data.s_min
    w = (s - origin) / data.spacing
    cell = np.trunc(w)
    np.maximum(cell, 0.0, out=cell)
    np.minimum(cell, width - 2, out=cell)
    w -= cell
    index = cell.astype(np.intp)
    if s.shape[1] < width - 1:
        c = hilbert._query_coefficients(rows, index)
    else:
        c = hilbert._cubic_coefficients(rows)[np.arange(rows.shape[0])[:, None], index].transpose(2, 0, 1)
    return hilbert._horner(c, w, out=np.empty(w.shape))


def checked_backprojection(data, kernel, quadrature, points):
    """_backproject's sum, node block by node block over the same filtered windows
    (hilbert.FilteredBlocks), each block read by checked_read."""
    window = inv._window(data, points)[0]
    width = sample_width(points.shape[0], window.stop - window.start)
    blocks = node_blocks(quadrature.count, width)
    filtered = hilbert.FilteredBlocks(data, kernel, min(quadrature.count, blocks[0].stop), window)
    total = np.zeros(points.shape[0])
    for block in blocks:
        values = checked_read(filtered(block), quadrature.nodes[block] @ points.T, data, window)
        weights = quadrature.weights[block]
        total += weights @ values if values.shape[0] > 1 else weights[0] * values[0]
    return total


def backproject_spied(data, kernel, quadrature, points):
    """_backproject's result and whether it took the proof that its offsets are on
    the grid (the in_range of its CubicReader)."""
    with mock.patch.object(inv, "CubicReader", wraps=hilbert.CubicReader) as reader:
        got = inv._backproject(data, kernel, quadrature, points)
    assert reader.call_count == 1
    return got, reader.call_args.kwargs["in_range"]


class TestReadoutProof:
    """_backproject proves its offsets on the grid once per call where its window stops
    short of both grid ends; its reader then skips the per-block range check and the
    clamps of the cells, and no bit changes."""

    @PROPERTY
    @given(
        samples=st.integers(20, 1025),
        fraction=st.floats(0.0, 0.75),
        tables=st.booleans(),
        filled=st.booleans(),
        kernel=st.sampled_from((xr.HILBERT, xr.HILBERT_DERIVATIVE, xr.SECOND_DIFFERENCE)),
        seed=st.integers(0, 2**32 - 1),
    )
    # the calibration ball's window on 801 samples, per-query stencils and cubic tables
    @example(samples=801, fraction=0.21875, tables=False, filled=True, kernel=xr.HILBERT_DERIVATIVE, seed=1)
    @example(samples=801, fraction=0.21875, tables=True, filled=False, kernel=xr.SECOND_DIFFERENCE, seed=2)
    # points at the origin, mid-interval on 100 samples: the window is the fewest
    # samples, four, 48..51, and every cell is its one inner interval
    @example(samples=100, fraction=0.0, tables=False, filled=False, kernel=xr.HILBERT, seed=3)
    @example(samples=100, fraction=0.0, tables=True, filled=True, kernel=xr.SECOND_DIFFERENCE, seed=4)
    def test_proof_changes_no_bit(self, samples, fraction, tables, filled, kernel, seed):
        # on [-R, R] with S >= 20 samples, a reach of at most 3R/4 leaves the window
        # short of both grid ends; window_points' offsets include +-radius, the reach
        # less its slack, and samples of the grid, on the boundary of two intervals
        rng = np.random.default_rng(seed)
        data, quadrature, _ = random_backprojection(rng, 1, samples, min(300, 2_000_000 // samples))
        radius = fraction * data.s_max
        window = inv._window(data, np.array([[radius, 0.0, 0.0]]))[0]
        width = window.stop - window.start
        assert 0 < window.start and window.stop < samples
        count = width - 1 + int(rng.integers(0, 200)) if tables else int(rng.integers(1, width - 1))
        # two or three node blocks, most often with a short last one
        step = max(1, ROWS // sample_width(count, width))
        keep = int(min(rng.integers(step + 1, 3 * step + 1), data.count))
        weights = quadrature.weights[:keep] * (4.0 * np.pi / quadrature.weights[:keep].sum())
        quadrature = xr.SphereQuadrature(quadrature.nodes[:keep], weights)
        data = inv.RadonDataset(data.nodes[:keep], data.s_min, data.s_max, data.values[:keep])
        points = window_points(rng, data, quadrature, count, radius)
        assert inv._window(data, points)[0] == window
        source = ArrayRows(data.values, data.s_min, data.s_max, filled=True) if filled else data
        got, in_range = backproject_spied(source, kernel, quadrature, points)
        assert in_range
        expected = checked_backprojection(data, kernel, quadrature, points)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["low-end", "high-end", "whole-grid", "reach-past-grid", "nan"])
    @pytest.mark.parametrize("tables", [False, True], ids=["query", "tables"])
    def test_proof_not_taken_at_a_grid_end(self, case, tables):
        # a window that touches either grid end, a reach past the grid while every
        # offset fits (all nodes near +-z, a point far out along x) and a NaN point
        # keep the per-block check and clamps: the same values, or the same error.
        # A point at s_min n_0 or s_max n_0 has its offset at node 0 on a grid end: at
        # the high end, where (s - s_min) / h truncates to S - 1, the clamp moves it
        # into the last interval
        rng = np.random.default_rng(7)
        s_min, s_max = {"low-end": (-5.22, 8.0), "high-end": (-8.0, 5.22)}.get(case, (-8.0, 8.0))
        nodes = rng.normal(size=(40, 3))
        if case == "reach-past-grid":
            nodes[:, :2] *= 1e-3
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        quadrature = xr.SphereQuadrature(nodes, np.full(40, np.pi / 10.0))
        values = rng.normal(size=(40, 801))
        values[:, [0, -1]] = 0.0
        data = inv.RadonDataset(nodes, s_min, s_max, values)
        points = rng.uniform(-3.0, 3.0, size=(900 if tables else 50, 3))
        points[0] = (s_min if case == "low-end" else s_max) * nodes[0]
        points[1] = {"reach-past-grid": [20.0, 0.0, 0.0], "nan": [np.nan, 0.0, 0.0]}.get(case, points[1])
        window = inv._window(data, points)[0]
        assert (window.start == 0, window.stop == 801) == {"low-end": (True, False), "high-end": (False, True)}.get(
            case, (True, True)
        )
        assert (window.stop - window.start - 1 <= points.shape[0]) == tables
        if case == "nan":
            with mock.patch.object(inv, "CubicReader", wraps=hilbert.CubicReader) as reader:
                with pytest.raises(ValueError, match="outside the profile range"):
                    inv._backproject(data, xr.HILBERT_DERIVATIVE, quadrature, points)
            assert reader.call_args.kwargs["in_range"] is False
            return
        got, in_range = backproject_spied(data, xr.HILBERT_DERIVATIVE, quadrature, points)
        assert in_range is False
        assert got.tobytes() == checked_backprojection(data, xr.HILBERT_DERIVATIVE, quadrature, points).tobytes()


class TestOffGridBatches:
    """A point beyond the s-grid, or a NaN point, fails reconstruct on both Radon
    branches, on the tables' path as on the per-query one."""

    @pytest.mark.parametrize("bad", [(20.0, 0.0, 0.0), (np.nan, 0.0, 0.0)], ids=["beyond", "nan"])
    @pytest.mark.parametrize("count", [1, 1700], ids=["query", "tables"])
    @pytest.mark.parametrize("branch", [inv.BRANCH_RADON, inv.BRANCH_CLASSICAL])
    def test_rejected(self, quad2000, gauss_dataset, branch, count, bad):
        # 1,700 points are past the 1,600 intervals of the whole 1,601-sample grid that
        # the bad point's window spans: the cubic tables' path
        points = point_set(count)
        points[-1] = bad
        assert (count >= gauss_dataset.samples - 1) == (count == 1700)
        cfg = inv.ReconstructionConfig(quad2000, branch=branch)
        with pytest.raises(ValueError, match="outside the profile range"):
            inv.reconstruct(gauss_dataset, cfg, points)


class TestPhantomProfiles:
    """phantom_data's analytic source for the radon branches: build_radon_dataset's
    rows, computed a chunk at a time where they are filtered."""

    # 203 nodes: no multiple of any chunk below (81, 80, 63 and 20 rows)
    NODES = 203

    @pytest.fixture(scope="class")
    def quad(self):
        return xr.fibonacci_sphere(self.NODES)

    def test_rows_equal_the_dataset_bitwise(self, unit_gaussian, quad):
        grid = (-8.0, 8.0, 801)
        profiles = inv.PhantomProfiles(unit_gaussian, quad, grid)
        values = inv.build_radon_dataset(unit_gaussian, quad, *grid).values
        assert (profiles.count, profiles.samples, profiles.spacing) == (self.NODES, 801, 0.02)
        for start, stop in [(0, 1), (0, 81), (80, 203), (202, 203), (0, 203)]:
            scratch = np.full((stop - start, 801), np.nan)
            assert profiles.rows(start, stop, scratch) is scratch
            assert scratch.tobytes() == values[start:stop].tobytes()

    @pytest.mark.parametrize("samples", [801, 1025, 3201])
    @pytest.mark.parametrize("batch", ["points", "volume"])
    @pytest.mark.parametrize("branch", [inv.BRANCH_RADON, inv.BRANCH_CLASSICAL])
    def test_reconstruct_equals_the_dataset_bitwise(self, unit_gaussian, quad, branch, batch, samples):
        # 50 points take per-query stencils; 15^3 + 50 = 3,425 points, past the
        # S - 1 intervals of every grid here, take the cubic tables
        count = 50 if batch == "points" else 15**3 + 50
        width = sample_width(count, samples)
        assert (width == 4 * count) == (batch == "points")
        step = ROWS // width
        assert self.NODES % (step * max(1, CHUNK_SAMPLES // samples // step)) != 0
        cfg = inv.ReconstructionConfig(quad, branch=branch)
        points = inv.sample_ball_points(np.random.default_rng(samples), count, 1.5)
        grid = (-8.0, 8.0, samples)
        streamed = inv.reconstruct(inv.phantom_data(unit_gaussian, cfg, grid), cfg, points)
        stacked = inv.reconstruct(inv.build_radon_dataset(unit_gaussian, quad, *grid), cfg, points)
        assert streamed.tobytes() == stacked.tobytes()

    def test_lemma9_right_equals_the_dataset_bitwise(self, unit_gaussian, quad):
        points = point_set(20)
        rep = inv.lemma9_diagnostic(unit_gaussian, points, quad, S_GRID)
        data = inv.build_radon_dataset(unit_gaussian, quad, *S_GRID)
        right = -2.0 * np.pi * inv._backproject(data, xr.HILBERT, quad, points)
        assert rep.right.tobytes() == right.tobytes()

    @pytest.mark.parametrize("count", [50, 17**3 + 50], ids=["points", "volume"])
    def test_memory_stays_below_one_stack(self, unit_gaussian, count):
        # the analytic rows are computed a chunk at a time, so no (K, S) array is
        # held: the peak stays below one stack of 300 rows of 1,025 samples
        quad = xr.fibonacci_sphere(300)
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_RADON)
        points = inv.sample_ball_points(np.random.default_rng(7), count, 1.5)
        tracemalloc.start()
        try:
            inv.reconstruct(inv.phantom_data(unit_gaussian, cfg, (-8.0, 8.0, 1025)), cfg, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < quad.count * 1025 * 8

    def test_decay_failure_in_a_middle_chunk(self, monkeypatch):
        # a Gaussian 6.5 off centre reaches within 1.5 of the grid end s = 8 along
        # some normals: of 2,000 rows on [-8, 8], rows 438..1552 alone include
        # rows that do not decay, so the five chunks of 81 rows before row 438
        # pass their checks and are filtered before the sixth fails
        ph = xr.Phantom((xr.Primitive(xr.GAUSSIAN, (6.5, 0.0, 0.0), 1.0, 1.0),), 13.0)
        quad = xr.fibonacci_sphere(2000)
        values = inv.build_radon_dataset(ph, quad, -8.0, 8.0, 801).values
        edge = np.maximum(np.abs(values[:, 0]), np.abs(values[:, -1]))
        bad = np.flatnonzero(edge > hilbert.DECAY_TOL * np.max(np.abs(values), axis=1))
        assert (bad[0], bad[-1]) == (438, 1552)
        filtered, filter_rows = [], hilbert._filter_rows
        monkeypatch.setattr(hilbert, "_filter_rows", lambda *a: filtered.append(len(a[0])) or filter_rows(*a))
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_RADON)
        with pytest.raises(hilbert.ProfileDecayError, match="does not decay"):
            inv.reconstruct(inv.phantom_data(ph, cfg, (-8.0, 8.0, 801)), cfg, point_set(50))
        assert filtered == [81] * 5


class TestRadonDataset:
    def test_rows_equal_profiles(self, unit_gaussian):
        q = xr.fibonacci_sphere(20)
        data = inv.build_radon_dataset(unit_gaussian, q, -6.0, 6.0, 101)
        assert data.values.shape == (20, 101)
        for node, row in zip(q.nodes, data.values):
            assert np.array_equal(row, xr.plane_integral(unit_gaussian, node, np.linspace(-6.0, 6.0, 101)))

    def test_grid_endpoints(self):
        data = inv.RadonDataset(np.eye(3)[:1], -2.0, 2.0, np.zeros((1, 9)))
        assert data.s_min == -2.0 and data.s_max == 2.0
        assert abs(data.spacing - 0.5) < 1e-15

    @pytest.mark.parametrize(
        "nodes, s_min, s_max, values",
        [
            (np.eye(3), -1.0, 1.0, np.full((3, 16), np.nan)),
            (np.eye(3), -1.0, 1.0, np.zeros((3, 7))),
            (np.eye(3), 1.0, 1.0, np.zeros((3, 16))),
            (2.0 * np.eye(3), -1.0, 1.0, np.zeros((3, 16))),
            (np.eye(3), -1.0, 1.0, np.zeros((2, 16))),
            (np.zeros((0, 3)), -1.0, 1.0, np.zeros((0, 16))),
            (np.array([[np.nan] * 3, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), -1.0, 1.0, np.zeros((3, 16))),
            (np.eye(3), -np.inf, 1.0, np.zeros((3, 16))),
        ],
    )
    def test_rejects_invalid(self, nodes, s_min, s_max, values):
        with pytest.raises(ValueError):
            inv.RadonDataset(nodes, s_min, s_max, values)


class TestGrangeatConvert:
    def test_symmetric_point_vanishes(self, unit_gaussian):
        data = ray_data(unit_gaussian)
        val = inv.grangeat_convert(data, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.05)
        assert abs(val) < 1e-2

    def test_offset_matches_profile_derivative(self, unit_gaussian):
        data = ray_data(unit_gaussian)
        val = inv.grangeat_convert(data, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.05)
        assert abs(val - 2.0 * np.pi / np.e) < 5e-2

    def test_amplitude_scaling(self, unit_gaussian):
        data = ray_data(unit_gaussian)
        doubled = lambda pts, dirs: 2.0 * data(pts, dirs)
        x = (0.7, 0.2, 0.0)
        n = np.array([0.0, 1.0, 0.0])
        a = inv.grangeat_convert(data, x, n, 0.05)
        b = inv.grangeat_convert(doubled, x, n, 0.05)
        assert abs(b - 2.0 * a) < 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("band", [0.0, -0.1, 1.5, 1e-320, 1e-10, np.nan])
    def test_band_outside_range_rejected(self, unit_gaussian, band):
        with pytest.raises(ValueError, match="band"):
            inv.grangeat_convert(ray_data(unit_gaussian), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), band)

    def test_batch_equals_point_loop(self, unit_gaussian):
        data = ray_data(unit_gaussian)
        n = np.array([0.6, 0.0, 0.8])
        points = np.linspace(-2.0, 2.0, 41)[:, None] * n + np.array([0.1, -0.3, 0.0])
        batch = inv.grangeat_convert(data, points, n, 0.05)
        loop = [inv.grangeat_convert(data, x, n, 0.05) for x in points]
        assert batch.shape == (41,)
        assert all(isinstance(v, float) for v in loop)
        assert batch.tobytes() == np.array(loop).tobytes()

    def test_refinement_reduces_error(self, unit_gaussian):
        # the central difference in u is O(band^2): halving the band quarters the error
        data = ray_data(unit_gaussian)
        n = np.array([1.0, 0.0, 0.0])
        exact = 2.0 * np.pi / np.e
        coarse, fine = (abs(inv.grangeat_convert(data, n, n, band) - exact) for band in (0.02, 0.01))
        assert abs(np.log2(coarse / fine) - 2.0) <= 0.1

    @pytest.mark.parametrize("n", [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.48, -0.6, 0.64)])
    def test_matches_profile_derivative_at_small_band(self, unit_gaussian, n):
        # -(Rf)'(s) = 2 pi s exp(-s^2) along any normal; 1e-4 leaves the O(band^2) term near 1e-8
        n = np.array(n)
        sweep = np.linspace(-2.0, 2.0, 41)
        got = inv.grangeat_convert(ray_data(unit_gaussian), sweep[:, None] * n, n, 1e-4)
        exact = 2.0 * np.pi * sweep * np.exp(-(sweep**2))
        assert np.max(np.abs(got - exact)) <= 1e-7 * np.max(np.abs(exact))


class TestLemma9Diagnostic:
    def test_zero_phantom(self, quad2000):
        rep = lemma9_at(xr.Phantom((), 1.0), (0.0, 0.0, 0.0), quad2000)
        assert rep.left == 0.0 and rep.right == 0.0
        assert np.isnan(rep.ratio)

    def test_left_side_analytic(self, unit_gaussian, quad2000):
        rep = lemma9_at(unit_gaussian, (0.0, 0.0, 0.0), quad2000)
        assert abs(rep.left - 4.0 * np.pi * np.sqrt(np.pi)) < 1e-3

    def test_homogeneity(self, quad2000):
        ph1 = xr.gaussian_phantom(amplitude=1.0)
        ph3 = xr.gaussian_phantom(amplitude=3.0)
        x = (0.8, 0.1, -0.2)
        a = lemma9_at(ph1, x, quad2000)
        b = lemma9_at(ph3, x, quad2000)
        assert abs(b.left - 3.0 * a.left) < 1e-9
        assert abs(b.right - 3.0 * a.right) < 1e-9

    def test_rejects_ball_phantom(self, quad2000):
        ball = xr.Phantom((xr.Primitive(xr.BALL, (0, 0, 0), 1.0, 1.0),), 6.0)
        with pytest.raises(ValueError):
            lemma9_at(ball, (0, 0, 0), quad2000)

    def test_sides_on_an_antipodal_rule(self):
        # left = int Lf dn = 4 pi^2 I^1 f; the as-printed right side,
        # -2 pi int H Rf(n, x . n) dn, has an integrand odd under n -> -n, so
        # on the antipodal Gauss rule it is 0 up to rounding.  Measured 7.0e-13
        # and 2.4e-15 (two-gaussians, Gauss 16, 801 samples on [-8, 8]).
        ph, pts = two_gaussians(), point_set(200)
        rep = inv.lemma9_diagnostic(ph, pts, gauss_sphere(16), (-8.0, 8.0, 801))
        target = 4.0 * np.pi**2 * riesz_potential(ph, pts)
        assert np.max(np.abs(rep.left - target)) <= 1e-11 * np.max(np.abs(target))
        assert np.max(np.abs(rep.right)) <= 1e-13 * np.max(np.abs(rep.left))
        # the ratio is still reported: left / right, NaN where the right side is 0
        nonzero = rep.right != 0.0
        assert np.array_equal(rep.ratio[nonzero], rep.left[nonzero] / rep.right[nonzero])
        assert np.all(np.isnan(rep.ratio[~nonzero]))

    def test_corrected_right_side(self):
        # the right side corrected, 1/2 int H d/ds Rf(n, x . n) dn = 4 pi^2 I^1 f: rows of
        # d/ds Rf in closed form, filtered by HILBERT, a route apart from the radon branch's
        # HILBERT_DERIVATIVE on Rf.  Measured 6.4e-8 (two-gaussians, Gauss 16, 801 samples on
        # [-8, 8]); the bound is about 3x that
        ph, pts, quad = two_gaussians(), point_set(200), gauss_sphere(16)
        s = np.linspace(-8.0, 8.0, 801)
        rows = np.array([phm.plane_integral_derivative(ph, n, s) for n in quad.nodes])
        data = inv.RadonDataset(quad.nodes, -8.0, 8.0, rows)
        right = 0.5 * inv._backproject(data, hilbert.HILBERT, quad, pts)
        target = 4.0 * np.pi**2 * riesz_potential(ph, pts)
        assert np.max(np.abs(right - target)) <= 2e-7 * np.max(np.abs(target))


class TestCalibrateNormalization:
    def test_xray_branch_constant(self, unit_gaussian, quad2000):
        cfg = inv.ReconstructionConfig(quad2000)
        cal = calibrate(unit_gaussian, cfg, inv.phantom_data(unit_gaussian, cfg, S_GRID))
        expected = -1.0 / (4.0 * np.pi)
        assert abs(cal.scale / expected - 1.0) < 1e-3

    def test_classical_branch_unity(self, unit_gaussian, quad2000, gauss_dataset):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_CLASSICAL)
        cal = calibrate(unit_gaussian, cfg, gauss_dataset)
        assert abs(cal.scale - 1.0) < 1e-3

    def test_prescaled_data_halves_scale(self, unit_gaussian, quad2000):
        cfg = inv.ReconstructionConfig(quad2000)
        base = calibrate(unit_gaussian, cfg, inv.phantom_data(unit_gaussian, cfg, S_GRID))
        xdata = ray_data(unit_gaussian)
        data = inv.lift_xray_data(xdata)
        doubled = inv.lift_xray_data(lambda pts, dirs: 2.0 * xdata(pts, dirs))
        scaled = calibrate(unit_gaussian, cfg, doubled)
        assert abs(scaled.scale - base.scale / 2.0) < 1e-9
        # reconstruction with the fitted scale is unchanged
        x = (0.3, 0.2, 0.0)
        a = base.scale * at(data, cfg, x)
        b = scaled.scale * at(doubled, cfg, x)
        assert abs(a - b) < 1e-6

    def test_zero_phantom_rejected(self, quad2000):
        zero = xr.Phantom((), 1.0)
        cfg = inv.ReconstructionConfig(quad2000)
        with pytest.raises(ValueError):
            calibrate(zero, cfg, inv.phantom_data(zero, cfg, S_GRID))


class TestReconstructionConfig:
    def test_rejects_bad_step(self, quad2000):
        with pytest.raises(ValueError):
            inv.ReconstructionConfig(quad2000, diff_step=0.0)

    def test_rejects_unknown_branch(self, quad2000):
        with pytest.raises(ValueError):
            inv.ReconstructionConfig(quad2000, branch="fourier")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("diff_step", np.inf),
            ("diff_step", np.nan),
        ],
    )
    def test_rejects_non_finite(self, quad2000, field, value):
        with pytest.raises(ValueError, match=field):
            inv.ReconstructionConfig(quad2000, **{field: value})


class TestVolumeIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = xr.VolumeGrid((-1, -1, -1), (0.5, 0.5, 0.5), (5, 5, 5), rng.normal(size=125))
        data_path = tmp_path / "vol.raw"
        meta_path = tmp_path / "vol.json"
        inv.write_volume(data_path, meta_path, grid, "xray", -0.0795, 200, 1e-4)
        back, meta = inv.read_volume(data_path, meta_path)
        assert back.dims == grid.dims
        assert np.allclose(back.samples, grid.samples, atol=1e-6)
        assert meta["branch"] == "xray"
        assert meta["quadrature_count"] == 200

    def test_raw_is_float32_le(self, tmp_path):
        grid = xr.VolumeGrid((0, 0, 0), (1, 1, 1), (2, 2, 2), np.arange(8.0))
        inv.write_volume(tmp_path / "v.raw", tmp_path / "v.json", grid, "xray", 1.0, 2, 1e-4)
        raw = (tmp_path / "v.raw").read_bytes()
        assert len(raw) == 8 * 4
        assert np.array_equal(np.frombuffer(raw, dtype="<f4"), np.arange(8.0, dtype="<f4"))
