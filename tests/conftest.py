import numpy as np
import pytest

import xradon as xr
from xradon import inversion as inv


@pytest.fixture(scope="session")
def unit_gaussian():
    return xr.gaussian_phantom()


@pytest.fixture(scope="session")
def quad2000():
    return xr.fibonacci_sphere(2000)


@pytest.fixture(scope="session")
def gauss_dataset(unit_gaussian, quad2000):
    return inv.build_radon_dataset(unit_gaussian, quad2000, -8.0, 8.0, 1601)


# The unit Gaussian's s-grid (s_min, s_max, count): its support radius 6 plus 2 on each side.
S_GRID = (-8.0, 8.0, 1025)


def cube_grid(half_extent, dims_per_axis):
    """The cubic VolumeGrid on [-half_extent, half_extent]^3, dims_per_axis samples per axis."""
    spacing = 2.0 * half_extent / (dims_per_axis - 1)
    return xr.VolumeGrid((-half_extent,) * 3, (spacing,) * 3, (dims_per_axis,) * 3)


class ArrayRows:
    """A Radon row source (hilbert.FilteredBlocks) over a (K, S) array on a grid
    over [s_min, s_max]: its rows are views of values or, filled, copies in the
    scratch it is given, as inversion.PhantomProfiles fills it."""

    def __init__(self, values, s_min, s_max, filled=False):
        self.values, self.s_min, self.s_max, self.filled = values, s_min, s_max, filled
        self.count, self.samples = values.shape
        self.spacing = (s_max - s_min) / (self.samples - 1)

    def rows(self, start, stop, scratch):
        if not self.filled:
            return self.values[start:stop]
        np.copyto(scratch, self.values[start:stop])
        return scratch


def calibrate(ph, cfg, data):
    """The calibration fit: the branch (at unit normalization, as reconstruct returns it)
    at the seeded calibration points (radius support_radius / 4, seed 20260824), fitted
    to the density there."""
    points = inv.calibration_points(ph.support_radius / 4.0, 20260824)
    raw = inv.reconstruct(data, cfg, points)
    return inv.fit_scale(raw, xr.evaluate(ph, points))


def ray_differences_per_node(ph, points, nodes, h):
    """(B, P) per-ray differences Xf(x + h n, n) - Xf(x - h n, n) from
    phantom.ray_differences, one call with the single node n[None] and weight 1 per node."""
    rows = [xr.ray_differences(ph, points, h, n[None], np.ones(1)) for n in np.asarray(nodes, dtype=float)]
    return np.reshape(rows, (len(rows), len(points)))


def ray_march_density(ph, x, n, step=1e-3, t_max=None):
    """Independent midpoint-rule oracle for the half-line integral of the density."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    if t_max is None:
        t_max = float(np.linalg.norm(x)) + ph.support_radius + 1.0
    m = int(np.ceil(t_max / step))
    t = (np.arange(m) + 0.5) * (t_max / m)
    pts = x[None, :] + t[:, None] * n[None, :]
    return float(np.sum(xr.evaluate(ph, pts)) * (t_max / m))


def plane_march_density(ph, n, s, half_width=6.0, step=2e-2):
    """Independent 2D midpoint-rule oracle for the plane integral."""
    n = np.asarray(n, dtype=float)
    # in-plane axes: the coordinate axis least aligned with n, less its n part
    k = int(np.argmin(np.abs(n)))
    e1 = np.eye(3)[k] - n[k] * n
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    m = int(np.ceil(2.0 * half_width / step))
    u = -half_width + (np.arange(m) + 0.5) * (2.0 * half_width / m)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    pts = (
        s * n[None, None, :]
        + uu[..., None] * e1[None, None, :]
        + vv[..., None] * e2[None, None, :]
    )
    cell = (2.0 * half_width / m) ** 2
    return float(np.sum(xr.evaluate(ph, pts)) * cell)
