import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xradon as xr
from xradon.xform import read_profile_csv, write_profiles_csv, write_xray_csv
from conftest import ray_differences_per_node, ray_march_density

SQRT_PI = np.sqrt(np.pi)


def transport_derivative(ph, x, n, h=1e-4):
    """n . grad_x Xf(x, n) by the central difference [Xf(x + h n, n) - Xf(x - h n, n)] / (2h)."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    return ray_differences_per_node(ph, x[None], n[None], h)[0, 0] / (2.0 * h)


class TestXray:
    """The divergent-beam transform, phantom.halfline_integral."""

    def test_from_center(self, unit_gaussian):
        assert abs(xr.halfline_integral(unit_gaussian, (0, 0, 0), (0, 1, 0)) - SQRT_PI / 2) < 1e-12

    def test_pointing_away(self, unit_gaussian):
        assert xr.halfline_integral(unit_gaussian, (0, 0, 10), (0, 0, 1)) < 1e-15

    def test_offset_perpendicular(self, unit_gaussian):
        val = xr.halfline_integral(unit_gaussian, (1, 0, 0), (0, 1, 0))
        assert abs(val - (SQRT_PI / 2) * np.exp(-1.0)) < 1e-12


class TestLineTransform:
    def test_gaussian_center(self, unit_gaussian):
        assert abs(xr.line_integral(unit_gaussian, (0, 0, 0), (1, 0, 0)) - SQRT_PI) < 1e-12

    def test_ball_diameter(self):
        ball = xr.Phantom((xr.Primitive(xr.BALL, (0, 0, 0), 1.0, 1.0),), 6.0)
        assert abs(xr.line_integral(ball, (0, 0, 0), (0, 0, 1)) - 2.0) < 1e-12

    def test_direction_symmetry_exact(self, unit_gaussian):
        x = np.array([0.3, -0.7, 0.2])
        n = np.array([0.48, 0.6, 0.64])
        n /= np.linalg.norm(n)
        assert xr.line_integral(unit_gaussian, x, n) == xr.line_integral(unit_gaussian, x, -n)

    def test_matches_numeric_full_line(self, unit_gaussian):
        n = np.array([0.6, 0.8, 0.0])
        x = np.zeros(3)
        numeric = ray_march_density(unit_gaussian, x, n) + ray_march_density(unit_gaussian, x, -n)
        assert abs(numeric - xr.line_integral(unit_gaussian, x, n)) < 2e-3


class TestRadonProfile:
    """Plane-integral profiles, phantom.plane_integral on an offset grid, and the
    RadonProfile type that read_profile_csv returns."""

    def test_center_value(self, unit_gaussian):
        values = xr.plane_integral(unit_gaussian, (0, 0, 1), np.linspace(-4.0, 4.0, 81))
        assert abs(values[40] - np.pi) < 1e-12

    def test_rotation_invariance(self, unit_gaussian):
        s = np.linspace(-4.0, 4.0, 101)
        a = xr.plane_integral(unit_gaussian, (1, 0, 0), s)
        n = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        b = xr.plane_integral(unit_gaussian, n, s)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_translation_shifts_profile(self):
        c = np.array([0.5, 0.0, 0.0])
        shifted = xr.gaussian_phantom(center=c)
        n = np.array([1.0, 0.0, 0.0])
        values = xr.plane_integral(shifted, n, np.linspace(-4.0, 4.0, 161))
        origin_values = xr.plane_integral(xr.gaussian_phantom(), n, np.linspace(-4.5, 3.5, 161))
        assert np.max(np.abs(values - origin_values)) < 1e-12

    def test_projection_slice(self, unit_gaussian):
        # 1D integral of the profile equals the 3D integral of the density
        s = np.linspace(-8.0, 8.0, 1601)
        total = np.trapezoid(xr.plane_integral(unit_gaussian, (0, 1, 0), s), s)
        assert abs(total - np.pi**1.5) < 1e-6

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            xr.RadonProfile((0.0, 0.0, 1.0), -4.0, 4.0, np.zeros(1))

    def test_rejects_short(self):
        # at least 8 samples: 7 is refused, 8 is kept
        with pytest.raises(ValueError):
            xr.RadonProfile((0.0, 0.0, 1.0), 0.0, 1.0, np.zeros(7))
        assert xr.RadonProfile((0.0, 0.0, 1.0), 0.0, 1.0, np.zeros(8)).values.size == 8

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            xr.RadonProfile((0.0, 0.0, 1.0), 1.0, 1.0, np.zeros(16))

    def test_rejects_non_finite(self):
        v = np.zeros(16)
        v[3] = np.nan
        with pytest.raises(ValueError):
            xr.RadonProfile((0.0, 0.0, 1.0), 0.0, 1.0, v)

    @pytest.mark.parametrize(
        "n", [(1.0, 1.0, 0.0), (1.0, 0.0), ((0.0, 0.0, 1.0),), (np.nan, np.nan, np.nan)]
    )
    def test_rejects_bad_normal(self, n):
        with pytest.raises(ValueError):
            xr.RadonProfile(n, 0.0, 1.0, np.zeros(16))


class TestDirectionalDerivative:
    """The transport identity n . grad_x Xf(x, n) = -f(x), by phantom.ray_differences."""

    def test_equals_minus_density(self, unit_gaussian):
        val = transport_derivative(unit_gaussian, (0, 0, 0), (1, 0, 0), 1e-4)
        assert abs(val - (-1.0)) < 1e-6

    def test_outside_support(self, unit_gaussian):
        val = transport_derivative(unit_gaussian, (0, 0, 10), (1, 0, 0), 1e-4)
        assert abs(val) < 1e-9


class TestTransportIdentity:
    def test_residual_at_random_states(self, unit_gaussian):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            lhs = transport_derivative(unit_gaussian, x, n, 1e-4)
            assert abs(lhs + xr.evaluate(unit_gaussian, x)) < 1e-5


# The per-row writers the product-form and dataset writers replaced; the new
# writers must produce the same bytes.
def per_row_xray_csv(path, xs, ns, values):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,x3,n1,n2,n3,value\n")
        for p, d, v in zip(xs, ns, values):
            fh.write(
                f"{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},"
                f"{d[0]:.17g},{d[1]:.17g},{d[2]:.17g},{v:.17g}\n"
            )


def per_row_profile_csv(path, rp):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n1,n2,n3\n")
        fh.write(f"{rp.n[0]:.17g},{rp.n[1]:.17g},{rp.n[2]:.17g}\n")
        fh.write("s,value\n")
        for s, v in zip(np.linspace(rp.s_min, rp.s_max, rp.values.size), rp.values):
            fh.write(f"{s:.17g},{v:.17g}\n")


# Signed zero, the smallest subnormal, the largest double, integer-valued floats.
EDGE_VALUES = np.array(
    [-0.0, 5e-324, 1.7976931348623157e308, 3.0, -2.0, 0.1, -1e-300, 12345678901234567.0, 1.0]
)
EDGE_NODES = np.array([[1.0, 0.0, -0.0], [-0.0, -1.0, 0.0], [0.6, 0.8, 0.0], [0.0, -0.0, 1.0]])

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def profiles(draw):
    v = np.array(draw(st.tuples(*(st.floats(-1.0, 1.0),) * 3)))
    assume(np.linalg.norm(v) > 0.1)
    # + 0.0 turns -0.0 into 0.0: the first grid sample, 0 * step + s_min, is
    # +0.0 for s_min = -0.0, so that sign cannot round-trip.
    s_min = draw(st.floats(-1e6, 1e6)) + 0.0
    s_max = s_min + draw(st.floats(1e-300, 1e6))
    assume(s_max > s_min)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=40))
    return xr.RadonProfile(v / np.linalg.norm(v), s_min, s_max, np.array(values))


def bits(a):
    return np.asarray(a, dtype="<f8").tobytes()


class TestCsvIO:
    def test_profile_round_trip(self, unit_gaussian, tmp_path):
        n = np.array([0.0, 0.0, 1.0])
        values = xr.plane_integral(unit_gaussian, n, np.linspace(-4.0, 4.0, 33))
        path = tmp_path / "profile.csv"

        write_profiles_csv([path], n[None], -4.0, 4.0, values[None])
        back = read_profile_csv(path)
        assert np.array_equal(back.n, n)
        assert np.array_equal(back.values, values)
        assert back.s_min == -4.0 and back.s_max == 4.0

    @given(rp=profiles())
    @PROPERTY
    def test_round_trip_is_bitwise(self, tmp_path_factory, rp):
        path = tmp_path_factory.mktemp("round_trip") / "profile.csv"
        write_profiles_csv([path], rp.n[None], rp.s_min, rp.s_max, rp.values[None])
        back = read_profile_csv(path)
        assert bits(back.n) == bits(rp.n)
        assert bits([back.s_min, back.s_max]) == bits([rp.s_min, rp.s_max])
        assert bits(back.values) == bits(rp.values)

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
            "n1,n2,n3\n0,0,1\ns,value\n" + "".join(f"{i},0\n" for i in range(8)) + "8,0 # comment\n",
            "n1,n2,n3\n0,0,1\ns,value\n# comment\n" + "".join(f"{i},0\n" for i in range(8)),
            "n1,n2,n3\nnan,nan,nan\ns,value\n" + "".join(f"{i},0\n" for i in range(8)),
            "n1,n2,n3\n0,0,1\ns,value\n-inf,0\n" + "".join(f"{i},0\n" for i in range(8)),
            # a non-uniform s column: the 6th of 11 offsets on [-8, 8] moved to 3.0
            "n1,n2,n3\n0,0,1\ns,value\n"
            + "".join(f"{3.0 if i == 5 else v!r},0\n" for i, v in enumerate(np.linspace(-8.0, 8.0, 11).tolist())),
            # a finite s column whose span overflows
            "n1,n2,n3\n0,0,1\ns,value\n" + "".join(f"{v},0\n" for v in (-1.7e308, *range(7), 1.7e308)),
        ],
    )
    def test_read_profile_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad_profile.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad_profile.csv"):
            read_profile_csv(path)

    def test_xray_csv_header(self, unit_gaussian, tmp_path):
        points = np.zeros((1, 3))
        nodes = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        vals = xr.halfline_integral(unit_gaussian, points[:, None, :], nodes)
        path = tmp_path / "xray.csv"
        write_xray_csv(path, points, nodes, vals)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,n1,n2,n3,value"
        assert len(lines) == 3

    def test_xray_csv_matches_per_row_writer(self, tmp_path):
        points = np.array([EDGE_VALUES[:3], EDGE_VALUES[3:6], EDGE_VALUES[6:]])
        values = np.concatenate((EDGE_VALUES, -EDGE_VALUES[:3])).reshape(3, 4)
        write_xray_csv(tmp_path / "new.csv", points, EDGE_NODES, values)
        per_row_xray_csv(
            tmp_path / "old.csv", np.repeat(points, 4, axis=0), np.tile(EDGE_NODES, (3, 1)), values.ravel()
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("s_min, s_max", [(-4.0, 4.0), (0.0, 4e-323), (-1e300, 0.5)])
    def test_profile_csv_matches_per_row_writer(self, tmp_path, s_min, s_max):
        values = np.stack([EDGE_VALUES, -EDGE_VALUES[::-1], EDGE_VALUES[::2].repeat(2)[:9], np.arange(9.0)])
        paths = [tmp_path / f"new_{k}.csv" for k in range(4)]
        write_profiles_csv(paths, EDGE_NODES, s_min, s_max, values)
        for k, path in enumerate(paths):
            rp = xr.RadonProfile(EDGE_NODES[k], s_min, s_max, values[k])
            per_row_profile_csv(tmp_path / "old.csv", rp)
            assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_writers_reject_inconsistent_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_xray_csv(tmp_path / "x.csv", np.zeros((2, 3)), EDGE_NODES, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            write_profiles_csv([tmp_path / "p.csv"], EDGE_NODES, -1.0, 1.0, np.zeros((4, 9)))
