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
