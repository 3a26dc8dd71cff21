from dataclasses import replace

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


def calibrate(ph, cfg, data):
    """The calibration fit: the branch at unit normalization at the seeded calibration
    points (radius support_radius / 4, seed 20260824), fitted to the density there."""
    points = inv.calibration_points(ph.support_radius / 4.0, 20260824)
    raw = inv.reconstruct(data, replace(cfg, normalization=1.0), points)
    return inv.fit_scale(raw, xr.evaluate(ph, points))


def ray_differences_per_node(ph, points, nodes, h):
    """(B, P) per-ray differences Xf(x + h n, n) - Xf(x - h n, n) from
    phantom.ray_differences, one diff(n[None], np.ones(1)) call per node."""
    diff = xr.ray_differences(ph, points, h)
    rows = [diff(n[None], np.ones(1)) for n in np.asarray(nodes, dtype=float)]
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
