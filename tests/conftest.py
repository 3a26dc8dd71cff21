import numpy as np
import pytest

import xradon as xr
from xradon import inversion as inv
from xradon.geometry import node_blocks
from xradon.hilbert import _check_decay


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


def hilbert_pv_direct(values, s_min, s_max):
    """Hilbert transform of one row by direct singularity-subtracted quadrature: the
    independent reference for the HILBERT filter (hilbert.convolve_rows).

    `values` holds S samples on a uniform grid over [s_min, s_max].  Uses
    the decomposition
        pi * Hf(s) = int (f(sigma) - f(s)) / (s - sigma) d sigma
                     + f(s) * ln((s - s_min) / (s_max - s)),
    with the first term regular (its value at sigma = s is -f'(s)) and
    evaluated by the trapezoid rule.  The logarithmic end-correction
    diverges at the grid endpoints, so the result is the S - 2 samples
    on the interior grid, s_min + h .. s_max - h for the grid spacing h.
    The row is checked as the filters check it (a NaN or an inf sample, or no
    decay, is a ValueError).  The targets run in blocks of
    geometry.node_blocks(S - 2, S); a target's sum is over its own row of the
    integrand, so its bits do not depend on its block.
    """
    f = np.asarray(values, dtype=float).reshape(-1)
    _check_decay(f)
    s = np.linspace(s_min, s_max, f.size)
    h = (s_max - s_min) / (f.size - 1)
    targets = s[1:-1]
    ft = f[1:-1]
    # removable singularity at sigma = s: limit is -f'(s)
    fprime = (f[2:] - f[:-2]) / (2.0 * h)
    trap = np.empty(targets.size)
    for block in node_blocks(targets.size, f.size):
        # integrand g(sigma) = (f(sigma) - f(s)) / (s - sigma), rows = targets
        diff = f[None, :] - ft[block, None]
        denom = targets[block, None] - s[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = diff / denom
        idx = np.arange(g.shape[0])
        g[idx, idx + block.start + 1] = -fprime[block]
        trap[block] = h * (np.sum(g, axis=1) - 0.5 * (g[:, 0] + g[:, -1]))
    correction = ft * np.log((targets - s_min) / (s_max - targets))
    return (trap + correction) / np.pi
