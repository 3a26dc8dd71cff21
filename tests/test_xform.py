import math

import numpy as np
import pytest

import xradon as xr
from xradon import phantom as phm
from conftest import ray_march_density

SQRT_PI = np.sqrt(np.pi)


@pytest.fixture(scope="module")
def gauss_volume(unit_gaussian):
    return xr.rasterize(unit_gaussian, xr.cube_grid(4.0, 129))


class TestXray:
    def test_from_center(self, unit_gaussian):
        assert abs(xr.xray(unit_gaussian, (0, 0, 0), (0, 1, 0)) - SQRT_PI / 2) < 1e-12

    def test_pointing_away(self, unit_gaussian):
        assert xr.xray(unit_gaussian, (0, 0, 10), (0, 0, 1)) < 1e-15

    def test_offset_perpendicular(self, unit_gaussian):
        val = xr.xray(unit_gaussian, (1, 0, 0), (0, 1, 0))
        assert abs(val - (SQRT_PI / 2) * np.exp(-1.0)) < 1e-12


class TestLineTransform:
    def test_gaussian_center(self, unit_gaussian):
        assert abs(xr.line_transform(unit_gaussian, (0, 0, 0), (1, 0, 0)) - SQRT_PI) < 1e-12

    def test_ball_diameter(self):
        ball = xr.Phantom((xr.Primitive(xr.BALL, (0, 0, 0), 1.0, 1.0),), 6.0)
        assert abs(xr.line_transform(ball, (0, 0, 0), (0, 0, 1)) - 2.0) < 1e-12

    def test_direction_symmetry_exact(self, unit_gaussian):
        x = np.array([0.3, -0.7, 0.2])
        n = np.array([0.48, 0.6, 0.64])
        n /= np.linalg.norm(n)
        assert xr.line_transform(unit_gaussian, x, n) == xr.line_transform(unit_gaussian, x, -n)

    def test_matches_numeric_full_line(self, unit_gaussian, gauss_volume):
        n = np.array([0.6, 0.8, 0.0])
        x = np.zeros(3)
        numeric = xr.xray_numeric(gauss_volume, x, n, 1e-2) + xr.xray_numeric(
            gauss_volume, x, -n, 1e-2
        )
        assert abs(numeric - xr.line_transform(unit_gaussian, x, n)) < 2e-3


class TestXrayNumeric:
    def test_rasterized_gaussian(self, unit_gaussian, gauss_volume):
        val = xr.xray_numeric(gauss_volume, (0, 0, 0), (1, 0, 0), 1e-2)
        assert abs(val - SQRT_PI / 2) < 2e-3

    def test_zero_volume(self):
        g = xr.cube_grid(1.0, 9)
        assert xr.xray_numeric(g, (0, 0, 0), (1, 0, 0), 1e-2) == 0.0

    def test_constant_volume_exit_distance(self):
        g = xr.cube_grid(1.0, 17).with_samples(np.ones(17**3))
        val = xr.xray_numeric(g, (0, 0, 0), (1, 0, 0), 1e-3)
        assert abs(val - 1.0) < 2e-3

    def test_ray_never_entering(self, gauss_volume):
        assert xr.xray_numeric(gauss_volume, (10, 0, 0), (1, 0, 0), 1e-2) == 0.0

    def test_rejects_bad_step(self, gauss_volume):
        with pytest.raises(ValueError):
            xr.xray_numeric(gauss_volume, (0, 0, 0), (1, 0, 0), 0.0)

    def test_convergence_order(self, unit_gaussian):
        # fine spacing along the ray axis so trilinear bias stays below
        # the midpoint-rule term being measured
        nxs = 4097
        grid = xr.VolumeGrid(
            origin=(-4.0, -0.1, -0.1),
            spacing=(8.0 / (nxs - 1), 0.025, 0.025),
            dims=(nxs, 9, 9),
        )
        vol = grid.with_samples(xr.evaluate(unit_gaussian, grid.points()))
        x0 = np.array([0.5, 0.0, 0.0])
        n = np.array([1.0, 0.0, 0.0])
        exact = xr.xray(unit_gaussian, x0, n)
        errs = [abs(xr.xray_numeric(vol, x0, n, step) - exact) for step in (4e-2, 2e-2, 1e-2)]
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 1.8


class TestRadonProfile:
    def test_center_value(self, unit_gaussian):
        rp = xr.radon_profile(unit_gaussian, (0, 0, 1), -4.0, 4.0, 81)
        assert abs(rp.values[40] - np.pi) < 1e-12

    def test_rotation_invariance(self, unit_gaussian):
        a = xr.radon_profile(unit_gaussian, (1, 0, 0), -4.0, 4.0, 101)
        n = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        b = xr.radon_profile(unit_gaussian, n, -4.0, 4.0, 101)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_translation_shifts_profile(self):
        c = np.array([0.5, 0.0, 0.0])
        shifted = xr.gaussian_phantom(center=c)
        n = np.array([1.0, 0.0, 0.0])
        rp = xr.radon_profile(shifted, n, -4.0, 4.0, 161)
        origin_rp = xr.radon_profile(xr.gaussian_phantom(), n, -4.5, 3.5, 161)
        assert np.max(np.abs(rp.values - origin_rp.values)) < 1e-12

    def test_projection_slice(self, unit_gaussian):
        # 1D integral of the profile equals the 3D integral of the density
        rp = xr.radon_profile(unit_gaussian, (0, 1, 0), -8.0, 8.0, 1601)
        total = np.trapezoid(rp.values, rp.s_grid())
        assert abs(total - np.pi**1.5) < 1e-6

    def test_rejects_short_grid(self, unit_gaussian):
        with pytest.raises(ValueError):
            xr.radon_profile(unit_gaussian, (0, 0, 1), -4.0, 4.0, 1)


class TestDirectionalDerivative:
    def test_equals_minus_density(self, unit_gaussian):
        val = xr.directional_derivative_xray(unit_gaussian, (0, 0, 0), (1, 0, 0), 1e-4)
        assert abs(val - (-1.0)) < 1e-6

    def test_outside_support(self, unit_gaussian):
        val = xr.directional_derivative_xray(unit_gaussian, (0, 0, 10), (1, 0, 0), 1e-4)
        assert abs(val) < 1e-9

    def test_amplitude_linearity(self):
        ph1 = xr.gaussian_phantom(amplitude=1.0)
        ph2 = xr.gaussian_phantom(amplitude=2.0)
        x = np.array([0.2, -0.1, 0.4])
        n = np.array([0.0, 0.6, 0.8])
        v1 = xr.directional_derivative_xray(ph1, x, n, 1e-4)
        v2 = xr.directional_derivative_xray(ph2, x, n, 1e-4)
        assert abs(v2 - 2.0 * v1) < 1e-12

    def test_rejects_bad_step(self, unit_gaussian):
        with pytest.raises(ValueError):
            xr.directional_derivative_xray(unit_gaussian, (0, 0, 0), (1, 0, 0), 0.0)


class TestTransportIdentity:
    def test_residual_at_random_states(self, unit_gaussian):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            lhs = xr.directional_derivative_xray(unit_gaussian, x, n, 1e-4)
            assert abs(lhs + xr.evaluate(unit_gaussian, x)) < 1e-5


class TestCsvIO:
    def test_profile_round_trip(self, unit_gaussian, tmp_path):
        rp = xr.radon_profile(unit_gaussian, (0, 0, 1), -4.0, 4.0, 33)
        path = tmp_path / "profile.csv"
        from xradon.xform import read_profile_csv, write_profile_csv

        write_profile_csv(path, rp)
        back = read_profile_csv(path)
        assert np.array_equal(back.n, rp.n)
        assert np.allclose(back.values, rp.values)
        assert back.s_min == rp.s_min and back.s_max == rp.s_max

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n1,n2,n3\n",
            "n1,n2,n3\n0,0,1\ns,value\n",
            "n1,n2,n3\n0,0,1\ns,value\n0,1\n0.5,x\n",
            "n1,n2,n3\n0,0\ns,value\n" + "".join(f"{i},0\n" for i in range(8)),
            "n1,n2,n3\n0,0,1\ns,value\n" + "".join(f"{i},0,0\n" for i in range(8)),
            "n1,n2,n3\n0,0,1\ns,value\n0,0\n1,0\n",
        ],
    )
    def test_read_profile_rejects_malformed(self, tmp_path, text):
        from xradon.xform import read_profile_csv

        path = tmp_path / "bad_profile.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad_profile.csv"):
            read_profile_csv(path)

    def test_xray_csv_header(self, unit_gaussian, tmp_path):
        from xradon.xform import write_xray_csv

        xs = np.zeros((2, 3))
        ns = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        vals = xr.halfline_integral(unit_gaussian, xs, ns)
        path = tmp_path / "xray.csv"
        write_xray_csv(path, xs, ns, vals)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,n1,n2,n3,value"
        assert len(lines) == 3
