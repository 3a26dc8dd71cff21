import tracemalloc

import numpy as np
import pytest
from scipy.special import dawsn

import xradon as xr
from xradon import inversion as inv
from xradon import phantom as phm
from xradon.geometry import ROWS, node_blocks
from conftest import S_GRID, calibrate


@pytest.fixture(scope="module")
def xray_cfg(quad2000):
    return inv.ReconstructionConfig(quad2000)


@pytest.fixture(scope="module")
def classical_cfg(quad2000):
    return inv.ReconstructionConfig(quad2000, normalization=1.0, branch=inv.BRANCH_CLASSICAL)


def at(data, cfg, x):
    """Reconstruction at a single point."""
    return float(inv.reconstruct(data, cfg, np.reshape(x, (1, 3)))[0])


def lemma9_at(ph, x, quadrature):
    """Lemma-9 report at a single point, as scalars."""
    rep = inv.lemma9_diagnostic(ph, np.reshape(x, (1, 3)), quadrature, S_GRID)
    return inv.Lemma9Report(*(float(v[0]) for v in (rep.left, rep.right, rep.ratio, rep.difference)))


def lifted(ph):
    """The phantom's ray data (x, n) lifted into the xray branch's sphere-summed ray-difference form."""
    return inv.lift_xray_data(inv.make_phantom_xray_data(ph))


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


def zero_dataset(quadrature):
    return inv.RadonDataset(quadrature.nodes, -4.0, 4.0, np.zeros((quadrature.count, 64)))


class TestInvertXray:
    def test_unit_gaussian_at_origin(self, unit_gaussian, xray_cfg):
        data = inv.phantom_data(unit_gaussian, xray_cfg, S_GRID)
        val = at(data, xray_cfg, (0.0, 0.0, 0.0))
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
        val = at(inv.phantom_data(ph, xray_cfg, S_GRID), xray_cfg, (1.0, 0.0, 0.0))
        assert abs(val - (1.0 + np.exp(-4.0))) < 2e-3

    def test_branch_mismatch_rejected(self, unit_gaussian, quad2000):
        cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_RADON)
        with pytest.raises(ValueError):
            at(inv.make_phantom_xray_data(unit_gaussian), cfg, (0, 0, 0))

    def test_pointwise_integrand_identity(self, unit_gaussian, quad2000):
        # strong form: each node contributes -density(x) up to O(h^2)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, size=3)
        h = 1e-4
        diff = lifted(unit_gaussian)(x[None, :], h)
        nodes = quad2000.nodes[::100]
        deriv = np.array([diff(n[None], np.ones(1))[0] for n in nodes]) / (2 * h)
        assert np.max(np.abs(deriv + xr.evaluate(unit_gaussian, x))) < 1e-5

    def test_shift_equivariance(self, quad2000):
        shift = np.array([0.5, -0.3, 0.2])
        base = xr.gaussian_phantom()
        moved = xr.gaussian_phantom(center=shift)
        cfg = inv.ReconstructionConfig(quad2000)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=3)
            a = at(inv.phantom_data(base, cfg, S_GRID), cfg, x)
            b = at(inv.phantom_data(moved, cfg, S_GRID), cfg, x + shift)
            assert abs(a - b) < 1e-3

    def test_linearity_in_data(self, unit_gaussian, xray_cfg):
        xdata = inv.make_phantom_xray_data(unit_gaussian)
        doubled = lambda pts, dirs: 2.0 * xdata(pts, dirs)
        x = (0.4, 0.1, -0.2)
        a = at(inv.lift_xray_data(xdata), xray_cfg, x)
        b = at(inv.lift_xray_data(doubled), xray_cfg, x)
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
        a = at(gauss_dataset, cfg, x)
        b = at(doubled, cfg, x)
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
        ph = xr.Phantom(
            (
                xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
                xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
            ),
            7.0,
        )
        cfg = inv.ReconstructionConfig(quad2000, normalization=1.0, branch=inv.BRANCH_RADON)
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
        a = inv.reconstruct(data, cfg, pts)
        b = inv.reconstruct(gauss_dataset, classical_cfg, pts)
        assert np.max(np.abs(a - b)) < 5e-3


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
            diff = lifted(unit_gaussian)(x[None, :], h)
            for k, (node, weight) in enumerate(zip(quad.nodes, quad.weights)):
                if branch == inv.BRANCH_XRAY:
                    total += weight * diff(node[None, :], np.ones(1))[0] / (2.0 * h)
                    continue
                row, h_s = dataset.values[k], dataset.spacing
                if branch == inv.BRANCH_RADON:
                    filtered = xr.derivative_rows(xr.hilbert_rows(row), h_s)
                else:
                    filtered = xr.derivative_rows(xr.derivative_rows(row, h_s), h_s)
                offset = np.array([[np.dot(node, x)]])
                total += weight * xr.sample_rows(filtered[None], dataset.s_min, dataset.s_max, offset)[0, 0]
            scale = {
                inv.BRANCH_XRAY: cfg.normalization,
                inv.BRANCH_RADON: cfg.normalization * inv.RADON_BRANCH_FACTOR,
                inv.BRANCH_CLASSICAL: inv.CLASSICAL_RADON_CONSTANT,
            }[branch]
            expected = scale * total
            assert abs(at(data, cfg, x) - expected) <= 1e-12 * max(abs(expected), 1e-3)

    @pytest.mark.parametrize("phantom", ["unit", "two"])
    def test_fused_xray_matches_lifted_reference(self, phantom, quad, batch, unit_gaussian):
        # the batch takes full node blocks and a shorter last one
        step = ROWS // len(batch)
        assert quad.count // step >= 3 and quad.count % step != 0
        ph = unit_gaussian if phantom == "unit" else xr.Phantom(
            (
                xr.Primitive(xr.GAUSSIAN, (0.5, 0.0, 0.2), 0.8, 1.0),
                xr.Primitive(xr.GAUSSIAN, (-0.7, 0.3, 0.0), 0.6, -0.5),
            ),
            6.0,
        )
        cfg = inv.ReconstructionConfig(quad)
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
        # the cubic tables of a node block stay within ROWS: all 300 rows at
        # once would add about 9.8 MB
        quad = xr.fibonacci_sphere(300)
        data = inv.build_radon_dataset(unit_gaussian, quad, -8.0, 8.0, 1025)
        points = inv.sample_ball_points(np.random.default_rng(7), 50, 1.5)
        cfg = inv.ReconstructionConfig(quad, branch=inv.BRANCH_RADON)
        tracemalloc.start()
        try:
            inv.reconstruct(data, cfg, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the filtered rows are one more copy of the dataset
        assert peak < data.values.nbytes + 2**20

    def test_xray_branch_rejects_dataset(self, xray_cfg, gauss_dataset):
        with pytest.raises(ValueError):
            at(gauss_dataset, xray_cfg, (0.0, 0.0, 0.0))

    def test_xray_branch_rejects_ray_callable(self, xray_cfg, unit_gaussian):
        with pytest.raises(ValueError, match="lift_xray_data"):
            at(inv.make_phantom_xray_data(unit_gaussian), xray_cfg, (0.0, 0.0, 0.0))


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
        q = xr.fibonacci_sphere(8000)
        data = inv.make_phantom_xray_data(unit_gaussian)
        val = inv.grangeat_convert(data, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), q, 0.05)
        assert abs(val) < 1e-2

    def test_offset_matches_profile_derivative(self, unit_gaussian):
        q = xr.fibonacci_sphere(8000)
        data = inv.make_phantom_xray_data(unit_gaussian)
        val = inv.grangeat_convert(data, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), q, 0.05)
        assert abs(val - 2.0 * np.pi / np.e) < 5e-2

    def test_amplitude_scaling(self, unit_gaussian):
        q = xr.fibonacci_sphere(4000)
        data = inv.make_phantom_xray_data(unit_gaussian)
        doubled = lambda pts, dirs: 2.0 * data(pts, dirs)
        x = (0.7, 0.2, 0.0)
        n = np.array([0.0, 1.0, 0.0])
        a = inv.grangeat_convert(data, x, n, q, 0.05)
        b = inv.grangeat_convert(doubled, x, n, q, 0.05)
        assert abs(b - 2.0 * a) < 1e-12 * max(1.0, abs(a))

    def test_undersampled_band_rejected(self, unit_gaussian):
        q = xr.fibonacci_sphere(100)
        data = inv.make_phantom_xray_data(unit_gaussian)
        with pytest.raises(ValueError):
            inv.grangeat_convert(data, (0, 0, 0), (1.0, 0.0, 0.0), q, 0.01)

    def test_batch_equals_point_loop(self, unit_gaussian, quad2000):
        # at K = 2000 a block of node_blocks holds 8 points, so 41 points span 6 blocks
        data = inv.make_phantom_xray_data(unit_gaussian)
        n = np.array([0.6, 0.0, 0.8])
        points = np.linspace(-2.0, 2.0, 41)[:, None] * n + np.array([0.1, -0.3, 0.0])
        assert len(node_blocks(len(points), quad2000.count)) > 1
        batch = inv.grangeat_convert(data, points, n, quad2000, 0.05)
        loop = [inv.grangeat_convert(data, x, n, quad2000, 0.05) for x in points]
        assert batch.shape == (41,)
        assert all(isinstance(v, float) for v in loop)
        assert batch.tobytes() == np.array(loop).tobytes()

    def test_refinement_reduces_error(self, unit_gaussian):
        data = inv.make_phantom_xray_data(unit_gaussian)
        n = np.array([1.0, 0.0, 0.0])
        exact = 2.0 * np.pi / np.e
        coarse = inv.grangeat_convert(data, n, n, xr.fibonacci_sphere(8000), 0.05)
        fine = inv.grangeat_convert(data, n, n, xr.fibonacci_sphere(32000), 0.025)
        assert abs(fine - exact) < abs(coarse - exact)


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
        xdata = inv.make_phantom_xray_data(unit_gaussian)
        data = inv.lift_xray_data(xdata)
        doubled = inv.lift_xray_data(lambda pts, dirs: 2.0 * xdata(pts, dirs))
        scaled = calibrate(unit_gaussian, cfg, doubled)
        assert abs(scaled.scale - base.scale / 2.0) < 1e-9
        # reconstruction with the fitted scale is unchanged
        x = (0.3, 0.2, 0.0)
        unit_cfg = inv.ReconstructionConfig(quad2000, normalization=1.0)
        a = base.scale * at(data, unit_cfg, x)
        b = scaled.scale * at(doubled, unit_cfg, x)
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

    def test_rejects_zero_normalization(self, quad2000):
        with pytest.raises(ValueError):
            inv.ReconstructionConfig(quad2000, normalization=0.0)

    def test_rejects_unknown_branch(self, quad2000):
        with pytest.raises(ValueError):
            inv.ReconstructionConfig(quad2000, branch="fourier")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("diff_step", np.inf),
            ("diff_step", np.nan),
            ("normalization", np.nan),
            ("normalization", np.inf),
            ("normalization", -np.inf),
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
