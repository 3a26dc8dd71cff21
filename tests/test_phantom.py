import numpy as np
import pytest

import xradon as xr
from xradon import phantom as phm
from conftest import ray_march_density

SQRT_PI = np.sqrt(np.pi)


def two_gaussians():
    return xr.Phantom(
        (
            xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
            xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
        ),
        7.0,
    )


def unit_ball():
    return xr.Phantom((xr.Primitive(xr.BALL, (0.0, 0.0, 0.0), 1.0, 1.0),), 6.0)


class TestEvaluate:
    def test_gaussian_peak(self, unit_gaussian):
        assert xr.evaluate(unit_gaussian, (0.0, 0.0, 0.0)) == 1.0

    def test_ball_outside(self):
        assert xr.evaluate(unit_ball(), (0.0, 0.0, 2.0)) == 0.0

    def test_two_gaussians_midpoint(self):
        val = xr.evaluate(two_gaussians(), (0.0, 0.0, 0.0))
        assert abs(val - 2.0 * np.exp(-1.0)) < 1e-12

    def test_batched(self, unit_gaussian):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        vals = xr.evaluate(unit_gaussian, pts)
        assert np.allclose(vals, [1.0, np.exp(-1.0)])


class TestHalflineIntegral:
    def test_gaussian_from_center(self, unit_gaussian):
        for n in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
            val = xr.halfline_integral(unit_gaussian, (0.0, 0.0, 0.0), n)
            assert abs(val - SQRT_PI / 2.0) < 1e-12

    def test_ball_from_center(self):
        assert abs(xr.halfline_integral(unit_ball(), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)) - 1.0) < 1e-12

    def test_ball_full_chord(self):
        val = xr.halfline_integral(unit_ball(), (-2.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert abs(val - 2.0) < 1e-12

    def test_ball_pointing_away(self):
        assert xr.halfline_integral(unit_ball(), (-2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)) == 0.0

    def test_opposite_halves_sum_to_line(self, unit_gaussian):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            total = xr.halfline_integral(unit_gaussian, x, n) + xr.halfline_integral(
                unit_gaussian, x, -n
            )
            assert abs(total - xr.line_integral(unit_gaussian, x, n)) < 1e-12

    def test_ray_march_cross_check(self, unit_gaussian):
        x = np.array([0.4, -0.2, 0.1])
        n = np.array([0.3, 0.8, -0.5])
        n /= np.linalg.norm(n)
        numeric = ray_march_density(unit_gaussian, x, n, step=1e-3)
        assert abs(numeric - xr.halfline_integral(unit_gaussian, x, n)) < 1e-5


class TestPlaneIntegral:
    def test_gaussian_center_plane(self, unit_gaussian):
        assert abs(xr.plane_integral(unit_gaussian, (0.0, 1.0, 0.0), 0.0) - np.pi) < 1e-12

    def test_gaussian_offset_plane(self, unit_gaussian):
        val = xr.plane_integral(unit_gaussian, (1.0, 0.0, 0.0), 1.0)
        assert abs(val - np.pi / np.e) < 1e-12

    def test_ball_center_disc(self):
        assert abs(xr.plane_integral(unit_ball(), (0.0, 0.0, 1.0), 0.0) - np.pi) < 1e-12

    def test_evenness(self, unit_gaussian):
        ph = two_gaussians()
        n = np.array([0.6, 0.0, 0.8])
        for s in (-1.3, 0.4, 2.0):
            a = xr.plane_integral(ph, n, s)
            b = xr.plane_integral(ph, -n, -s)
            assert abs(a - b) < 1e-12

    def test_plane_march_cross_check(self, unit_gaussian):
        from conftest import plane_march_density

        n = np.array([0.0, 0.6, 0.8])
        numeric = plane_march_density(unit_gaussian, n, 0.5)
        assert abs(numeric - xr.plane_integral(unit_gaussian, n, 0.5)) < 1e-6


class TestLinearity:
    def test_all_oracles_additive(self, unit_gaussian):
        ball = unit_ball()
        combined = xr.Phantom(
            unit_gaussian.primitives + ball.primitives,
            max(unit_gaussian.support_radius, ball.support_radius),
        )
        x = np.array([0.2, 0.1, -0.3])
        n = np.array([0.0, 0.0, 1.0])
        assert abs(
            xr.evaluate(combined, x) - xr.evaluate(unit_gaussian, x) - xr.evaluate(ball, x)
        ) < 1e-12
        assert abs(
            xr.halfline_integral(combined, x, n)
            - xr.halfline_integral(unit_gaussian, x, n)
            - xr.halfline_integral(ball, x, n)
        ) < 1e-12
        assert abs(
            xr.plane_integral(combined, n, 0.3)
            - xr.plane_integral(unit_gaussian, n, 0.3)
            - xr.plane_integral(ball, n, 0.3)
        ) < 1e-12


class TestRasterize:
    def test_center_voxel(self, unit_gaussian):
        vol = xr.rasterize(unit_gaussian, xr.cube_grid(4.0, 33))
        assert vol.samples[vol.samples.size // 2] == 1.0

    def test_empty_phantom(self):
        empty = xr.Phantom((), 1.0)
        vol = xr.rasterize(empty, xr.cube_grid(2.0, 9))
        assert np.all(vol.samples == 0.0)

    def test_ball_voxel_count(self):
        vol = xr.rasterize(unit_ball(), xr.cube_grid(4.0, 65))
        voxel_volume = float(np.prod(vol.spacing))
        measured = np.sum(vol.samples == 1.0) * voxel_volume
        assert abs(measured / (4.0 * np.pi / 3.0) - 1.0) < 0.05

    def test_rejects_uncovering_grid(self, unit_gaussian):
        with pytest.raises(ValueError):
            xr.rasterize(unit_gaussian, xr.cube_grid(2.0, 17))


class TestInvariants:
    def test_support_radius_enforced(self):
        with pytest.raises(ValueError):
            xr.Phantom((xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),), 4.0)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            xr.Primitive("ellipsoid", (0.0, 0.0, 0.0), 1.0, 1.0)


class TestPhantomFiles:
    def test_round_trip(self, tmp_path):
        ph = two_gaussians()
        path = tmp_path / "ph.txt"
        xr.save_phantom(ph, path)
        loaded = xr.load_phantom(path)
        assert loaded.support_radius == ph.support_radius
        assert len(loaded.primitives) == 2
        for a, b in zip(loaded.primitives, ph.primitives):
            assert a.kind == b.kind
            assert np.array_equal(a.center, b.center)
            assert a.scale == b.scale and a.amplitude == b.amplitude

    def test_parse_comments_and_default_radius(self):
        ph = phm.parse_phantom("# comment\ngaussian 0 0 0 1 1\n")
        assert ph.support_radius == 6.0

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            phm.parse_phantom("cone 0 0 0 1 1\n")

    def test_parse_rejects_bad_field_count(self):
        with pytest.raises(ValueError):
            phm.parse_phantom("gaussian 0 0 0 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "support_radius nan\ngaussian 0 0 0 1 1\n",
            "support_radius inf\ngaussian 0 0 0 1 1\n",
            "gaussian 0 0 0 1 nan\n",
            "gaussian 0 0 0 1 inf\n",
            "gaussian nan 0 0 1 1\n",
            "support_radius 7\ngaussian 0 0 0 nan 1\n",
            "support_radius 7\nball 0 0 0 inf 1\n",
        ],
    )
    def test_load_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "ph.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            xr.load_phantom(path)
