"""Reconstruction formulas, data conversion, and adjudication diagnostics.

Three branches are implemented:

* ``xray``: spherical average of the directional derivative of
  divergent-beam data, read from one call
  data(points, h, nodes, weights) -> sum_k w_k [Xf(x + h n_k, n_k) -
  Xf(x - h n_k, n_k)].  The identity n . grad_x Xf(x, n) = -f(x) forces
  the constant -1/(4*pi) under the unnormalized 4*pi surface measure;
  reconstruct returns the sum at unit normalization, the CLI applies
  --normalization (default: that derived constant), and the calibration
  routine makes any alternative convention measurable.
* ``radon``: spherical average of -2*pi times d/ds H Rf, the s-derivative
  of the Hilbert-filtered plane-integral profiles, by one band-limited
  convolution (hilbert.HILBERT_DERIVATIVE), evaluated at s = x . n.
  With unit normalization it reconstructs -16*pi^3 * I^1 f, where
  I^1 = (-Laplacian)^(-1/2) is the Riesz potential, not f itself; the
  tests assert that target pointwise.
* ``classical_radon``: the textbook second-derivative inversion
  f(x) = -(1/(8*pi^2)) * integral_{S^2} d^2/ds^2 Rf(n, s)|_{s = x.n} dn,
  local in s, by the 7-point central second difference
  (hilbert.SECOND_DIFFERENCE), the independent oracle for the other branches.

Also here: Grangeat's conversion of x-ray data into the derivative of
Radon data, by a central difference across great circles, and the
two-sided spherical-average equivalence diagnostic.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import phantom as ph_mod
from .geometry import (
    SphereQuadrature, VolumeGrid, as_direction, as_sum_inputs, difference_sum, node_blocks, rays, sphere_sum,
)
from .hilbert import (
    HILBERT, HILBERT_DERIVATIVE, SECOND_DIFFERENCE, CubicReader, FilteredBlocks, grid_slack, offsets_on_grid,
    sample_width,
)

BRANCH_XRAY = "xray"
BRANCH_RADON = "radon"
BRANCH_CLASSICAL = "classical_radon"
BRANCHES = (BRANCH_XRAY, BRANCH_RADON, BRANCH_CLASSICAL)

# Derived from n . grad_x Xf = -f under the 4*pi measure convention.
XRAY_BRANCH_CONSTANT = -1.0 / (4.0 * np.pi)
# Constant as printed in the source derivation.  No branch applies it and calibrate
# does not report it; invert --normalization can be set to it, and acceptance
# criterion 4 reports the ratio of the fitted x-ray scale to it.
SPHERICAL_REFERENCE_CONSTANT = 1.0 / (2.0 * np.pi**3)
# Textbook 3D Radon inversion constant, baked into the classical branch.
CLASSICAL_RADON_CONSTANT = -1.0 / (8.0 * np.pi**2)
# Cylindrical-branch prefactor applied per direction.
RADON_BRANCH_FACTOR = -2.0 * np.pi
# The radon branch at unit normalization reconstructs this multiple of I^1 f
# (phantom.riesz_potential), not f.
RADON_BRANCH_RIESZ = -16.0 * np.pi**3

# Fewest samples of a Radon profile: the cubic read-out's 4-point stencils need room at both ends.
MIN_PROFILE_SAMPLES = 8
# How far a Radon row source's node norms may deviate from 1.
NODE_TOL = 1e-9
# Whole intervals by which the backprojection's filtered window reaches past the
# intervals its points' offsets can fall in, on each side: the cubic read-out's
# stencil reads one sample past each end of a query's interval, so no query reads
# a window-end interval through its ghost where the window ends short of the grid.
# The offsets' reach carries the grid's slack, far above the rounding of an
# offset's place in grid steps, so none lands on the window's end intervals.
WINDOW_MARGIN = 1


@dataclass(frozen=True)
class ReconstructionConfig:
    """Knobs shared by the reconstruction operators."""

    quadrature: SphereQuadrature
    diff_step: float = 1e-4
    branch: str = BRANCH_XRAY

    def __post_init__(self):
        if not (np.isfinite(self.diff_step) and self.diff_step > 0.0):
            raise ValueError(f"diff_step must be positive and finite, got {self.diff_step!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")


def _check_grid(nodes, s_min, s_max, samples):
    """The checks of a Radon row source's (K, 3) nodes and s-grid of `samples`
    samples on [s_min, s_max]."""
    if nodes.ndim != 2 or nodes.shape[1] != 3 or nodes.shape[0] == 0:
        raise ValueError("dataset nodes must have shape (K, 3) with K >= 1")
    if samples < MIN_PROFILE_SAMPLES:
        raise ValueError(f"dataset profiles require at least {MIN_PROFILE_SAMPLES} samples")
    if not (np.isfinite(s_min) and np.isfinite(s_max) and s_max > s_min):
        raise ValueError(f"require finite s_min < s_max, got {s_min!r}, {s_max!r}")
    if not np.all(np.abs(np.linalg.norm(nodes, axis=1) - 1.0) <= NODE_TOL):  # NaN fails
        raise ValueError("dataset nodes must be unit vectors")


class _RadonRows:
    """What the two Radon row sources share: one row per node, on one grid of
    `samples` samples from s_min to s_max."""

    @property
    def count(self):
        return self.nodes.shape[0]

    @property
    def spacing(self):
        return (self.s_max - self.s_min) / (self.samples - 1)


@dataclass(frozen=True)
class RadonDataset(_RadonRows):
    """Plane-integral profiles Rf(n_k, s) for K unit normals on one uniform s-grid.

    nodes has shape (K, 3); values has shape (K, S), row k sampled at
    S equally spaced offsets from s_min to s_max.  A Radon row source
    (hilbert.FilteredBlocks) whose rows are views of values.
    """

    nodes: np.ndarray
    s_min: float
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[:1] != nodes.shape[:1]:
            raise ValueError("dataset values must have shape (K, S), one row per node")
        _check_grid(nodes, self.s_min, self.s_max, values.shape[1])
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset values must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "s_min", float(self.s_min))
        object.__setattr__(self, "s_max", float(self.s_max))
        object.__setattr__(self, "values", values)

    @property
    def samples(self):
        return self.values.shape[1]

    def rows(self, start, stop, scratch):
        """Rows start..stop of values, as a view; scratch is not used."""
        return self.values[start:stop]


class PhantomProfiles(_RadonRows):
    """The analytic plane-integral profiles of a phantom for the nodes of a
    quadrature on s_grid = (s_min, s_max, count): a Radon row source
    (hilbert.FilteredBlocks) that computes the rows it is asked for and holds
    none.  rows(start, stop, scratch) fills the (stop - start, S) scratch (a
    new array for scratch None) with phantom.plane_integral_rows of nodes
    start..stop, whose rows do not depend on the rows they are computed with.
    The rows are checked where they are filtered (hilbert.ProfileDecayError).
    """

    def __init__(self, ph, quadrature, s_grid):
        s_min, s_max, count = s_grid
        self.phantom, self.nodes = ph, quadrature.nodes
        _check_grid(self.nodes, s_min, s_max, int(count))
        self.s_min, self.s_max = float(s_min), float(s_max)
        self._s = np.linspace(s_min, s_max, int(count))

    @property
    def samples(self):
        return self._s.size

    def rows(self, start, stop, scratch):
        return ph_mod.plane_integral_rows(self.phantom, self.nodes[start:stop], self._s, out=scratch)


def build_radon_dataset(ph, quadrature, s_min, s_max, count):
    """Analytic plane-integral profiles for every quadrature node, as one (K, S)
    array: every row of PhantomProfiles at once."""
    profiles = PhantomProfiles(ph, quadrature, (s_min, s_max, count))
    return RadonDataset(profiles.nodes, s_min, s_max, profiles.rows(0, profiles.count, None))


def _check_dataset(data, quadrature):
    if not isinstance(data, _RadonRows):
        raise ValueError(
            f"the radon branches need a RadonDataset or PhantomProfiles, got {type(data).__name__}"
        )
    if data.count != quadrature.count:
        raise ValueError(
            f"dataset has {data.count} profiles but quadrature has {quadrature.count} nodes"
        )
    if not np.allclose(data.nodes, quadrature.nodes, atol=1e-9):
        raise ValueError("dataset profile normals do not match quadrature nodes")


def lift_xray_data(xdata):
    """The sphere-summed ray-difference form read by the xray branch, from
    divergent-beam data.

    xdata(x, n) takes (K, 3) arrays to (K,) values, as
    functools.partial(phantom.halfline_integral, ph) does.  The result is
    data(points, h, nodes, weights), giving the (P,) array
    sum_k w_k [xdata(x + h n_k, n_k) - xdata(x - h n_k, n_k)], by
    geometry.difference_sum.  This is the path for non-analytic data and the
    reference for the closed form phantom.ray_differences.  data checks the
    shapes of points, nodes and weights as ray_differences does.
    """

    def data(points, h, nodes, weights):
        points, nodes, weights = as_sum_inputs(points, nodes, weights, "lift_xray_data's data")
        return difference_sum(xdata, points, h, nodes, weights)

    return data


def phantom_data(ph, cfg, s_grid):
    """The analytic input of cfg.branch: closed-form ray differences
    (phantom.ray_differences), or the PhantomProfiles on s_grid = (s_min, s_max, count)."""
    if cfg.branch == BRANCH_XRAY:
        return functools.partial(ph_mod.ray_differences, ph)
    return PhantomProfiles(ph, cfg.quadrature, s_grid)


def _as_points(points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3), got {points.shape}")
    return points


# The kernel of each radon branch's backprojected integrand: d/ds H Rf and d^2/ds^2 Rf.
_BRANCH_FILTERS = {BRANCH_RADON: HILBERT_DERIVATIVE, BRANCH_CLASSICAL: SECOND_DIFFERENCE}


def _window(data, points):
    """The slice j0..j1 of data's sample indices whose filtered values the offsets
    x . n_k of points can read, and the reach that bounds every |x . n_k|:
    r = max |x|, widened by NODE_TOL of r and by the grid's slack
    (hilbert.grid_slack), so NaN or inf where a point is.  The slice is the
    reach widened by WINDOW_MARGIN whole intervals on each side and clipped to
    the grid; at least four samples, the cubic read-out's stencil.  The whole
    grid where the reach is not finite, so that the reader rejects those
    offsets as it rejects any off the grid.  One rule for every kernel: a
    window's filtered samples are the whole row's, bitwise for the classical
    branch's local stencil and within the FFT's rounding for the Hilbert
    kernels (hilbert.FilteredBlocks)."""
    count = data.samples
    radius = float(np.max(np.hypot(np.hypot(points[:, 0], points[:, 1]), points[:, 2]), initial=0.0))
    reach = radius * (1.0 + NODE_TOL) + grid_slack(data.s_min, data.s_max)
    low, high = (-reach - data.s_min) / data.spacing, (reach - data.s_min) / data.spacing
    if not (math.isfinite(low) and math.isfinite(high)):
        return slice(0, count), reach
    start = min(max(math.floor(low) - WINDOW_MARGIN, 0), count - 4)
    stop = max(min(math.ceil(high) + WINDOW_MARGIN, count - 1), start + 3) + 1
    return slice(start, stop), reach


def _backproject(data, kernel, quadrature, points):
    """sum_k w_k * filtered_k(x . n_k) at every point x, where filtered_k is row k of
    the Radon row source data filtered by kernel (hilbert.convolve_rows), filtered
    and read only over the window of samples the points can reach (_window).
    The node blocks are as wide as the values per row of one sample_rows call on
    the window (hilbert.sample_width); one FilteredBlocks fetches and checks
    their rows a chunk at a time and filters their windows, and one CubicReader
    reads each block, its offsets x . n_k written straight into the reader's
    scratch.

    The offsets are proven on the grid once per call, not per block, where
    the reach is on the grid and the window stops short of both grid ends:
    every offset then lies inside the reach less the grid's slack, so its
    place in the window's grid steps, rounded, truncates into the intervals
    1..W - 3 (WINDOW_MARGIN), and the reader skips its range check and its
    clamps, which could change no bit (hilbert.CubicReader's in_range).  A
    window that touches a grid end, or a reach that is not finite or runs off
    the grid, keeps both."""
    window, reach = _window(data, points)
    in_range = (
        0 < window.start
        and window.stop < data.samples
        and offsets_on_grid(-reach, reach, data.s_min, data.s_max)
    )
    width = sample_width(points.shape[0], window.stop - window.start)
    rows = min(quadrature.count, node_blocks(quadrature.count, width)[0].stop)
    filtered = FilteredBlocks(data, kernel, rows, window)
    read = CubicReader(rows, data.samples, points.shape[0], data.s_min, data.s_max, window, in_range=in_range)

    def values(block, nodes):
        return read(filtered(block), np.matmul(nodes, points.T, out=read.offsets(nodes.shape[0])))

    return sphere_sum(quadrature.nodes, quadrature.weights, points, values, width)


def reconstruct(data, cfg, points):
    """Reconstruct the density at a (P, 3) batch of points with cfg.branch; returns (P,).

    Every branch returns its sphere sum at unit normalization; a caller that
    takes another constant (invert --normalization) multiplies by it.

    xray: `data(points, diff_step, nodes, weights)`, called once with the
    whole quadrature, gives the (P,) sphere sum
    sum_k w_k [Xf(x + h n_k, n_k) - Xf(x - h n_k, n_k)] with h = diff_step
    (see phantom_data, and lift_xray_data for (x, n) data); the result is
    that sum over 2h, sum_k w_k * n_k . grad_x Xf(x, n_k) by the central
    difference.  Times XRAY_BRANCH_CONSTANT it is the density.  radon:
    `data` is a RadonDataset or the PhantomProfiles on the quadrature nodes,
    read a chunk of rows at a time (hilbert.FilteredBlocks); the result is
    sum_k w_k * (-2*pi) * d/ds (H Rf)(n_k, s) at s = x . n_k, by cubic
    interpolation in s.  classical_radon: the textbook inversion
    -(1/(8*pi^2)) * sum_k w_k * d^2/ds^2 Rf(n_k, x . n_k), constant built in.
    """
    points = _as_points(points)
    quad = cfg.quadrature
    if cfg.branch == BRANCH_XRAY:
        if not callable(data):
            raise ValueError(f"the xray branch needs a data callable, got {type(data).__name__}")
        h = cfg.diff_step
        return data(points, h, quad.nodes, quad.weights) / (2.0 * h)
    _check_dataset(data, quad)
    acc = _backproject(data, _BRANCH_FILTERS[cfg.branch], quad, points)
    if cfg.branch == BRANCH_RADON:
        return RADON_BRANCH_FACTOR * acc
    return CLASSICAL_RADON_CONSTANT * acc


# --- conversion and diagnostics ---------------------------------------------


# Points of the trapezoid rule on each circle of grangeat_convert.
GRANGEAT_CIRCLE_POINTS = 32
# Smallest band grangeat_convert takes: its difference of two circle sums loses
# about eps / band to rounding, 3e-6 of max|(Rf)'| at band 1e-10 and all of it
# at 1e-300 (two-gaussians, 40 nodes), against 1.6e-8 at 1e-8.
GRANGEAT_MIN_BAND = 1e-8


def grangeat_convert(xdata, x, n, band):
    """-(Rf)'(x . n) from divergent-beam data, by Grangeat's identity on great circles.

    With u = omega . n and G(u) = integral_0^{2 pi} Xf(x, u n + sqrt(1 - u^2) e(phi)) dphi,
    e(phi) on the great circle perpendicular to n, Archimedes' dOmega = du dphi makes
    integral_{S^2} Xf(x, omega) delta'(omega . n) dOmega = -G'(0) = -(Rf)'(x . n).
    G'(0) is the central difference of half-step `band` in u, O(band^2); G is the
    trapezoid sum over GRANGEAT_CIRCLE_POINTS points of its circle.

    xdata(x, n) takes (K, 3) arrays to (K,) values, e.g.
    functools.partial(phantom.halfline_integral, ph); it is called once.  x is a
    (P, 3) batch of points for the one normal n, giving (P,), or a (3,) point,
    giving a float; each point's sum is over its own row, so it does not depend on
    the batch it came in.  band is in (0, 1] and at least GRANGEAT_MIN_BAND.
    """
    if not GRANGEAT_MIN_BAND <= band <= 1.0:
        raise ValueError(f"band must be in (0, 1] and at least {GRANGEAT_MIN_BAND!r}, got {band!r}")
    n = as_direction(n)
    x = np.asarray(x, dtype=float)
    points = _as_points(x[None] if x.shape == (3,) else x)
    # e1 and n x e1: an orthonormal pair perpendicular to n
    e1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    e1 /= np.linalg.norm(e1)
    phi = 2.0 * np.pi * np.arange(GRANGEAT_CIRCLE_POINTS) / GRANGEAT_CIRCLE_POINTS
    circle = np.sqrt(1.0 - band * band) * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * np.cross(n, e1))
    # point-major rays (rays with the roles swapped), so each point's values are one row
    n_rows, x_rows = rays(np.concatenate((band * n + circle, circle - band * n)), points)
    values = np.asarray(xdata(x_rows, n_rows), dtype=float).reshape(points.shape[0], 2, -1)
    out = -np.pi / (GRANGEAT_CIRCLE_POINTS * band) * np.sum(values[:, 0] - values[:, 1], axis=1)
    return float(out[0]) if x.shape == (3,) else out


@dataclass(frozen=True)
class Lemma9Report:
    """Both sides of the spherical-average equivalence, measured not asserted; each (P,)."""

    left: np.ndarray
    right: np.ndarray
    ratio: np.ndarray
    difference: np.ndarray


def lemma9_diagnostic(ph, points, quadrature, s_grid):
    """Compare the spherical averages of the two reconstruction integrands at a batch of points.

    left  = integral over directions of the full-line integral at x
            (phantom.line_integral);
    right = -2*pi times the integral over directions of the
            Hilbert-filtered plane-integral profile at s = x . n.

    points has shape (P, 3).  The profiles, PhantomProfiles on s_grid =
    (s_min, s_max, count), are built and filtered a chunk at a time, once
    for all points.  The ratio
    left/right is reported (NaN where the right side vanishes); the
    scalar-offset Hilbert transform stands in for the componentwise sum,
    which is not constructively defined.
    """
    if not ph.is_smooth:
        raise ValueError("lemma9_diagnostic requires a smooth (gaussian-only) phantom")
    points = _as_points(points)

    def line_values(block, nodes):
        return ph_mod.line_integral(ph, *rays(points, nodes)).reshape(nodes.shape[0], -1)

    left = sphere_sum(quadrature.nodes, quadrature.weights, points, line_values, points.shape[0])
    right = -2.0 * np.pi * _backproject(PhantomProfiles(ph, quadrature, s_grid), HILBERT, quadrature, points)
    ratio = np.full(points.shape[0], np.nan)
    np.divide(left, right, out=ratio, where=right != 0.0)
    return Lemma9Report(left=left, right=right, ratio=ratio, difference=left - right)


# --- normalization calibration ----------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    scale: float
    residual: float


def sample_ball_points(rng, count, radius):
    """Uniform points in the ball of the given radius (deterministic given rng)."""
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = radius * rng.uniform(size=count) ** (1.0 / 3.0)
    return directions * radii[:, None]


# Size of the seeded calibration batch.
CALIBRATION_POINTS = 50


def calibration_points(radius, seed):
    """The seeded calibration batch: CALIBRATION_POINTS uniform in the ball of the
    given radius about the origin, from default_rng(seed)."""
    return sample_ball_points(np.random.default_rng(seed), CALIBRATION_POINTS, radius)


def fit_scale(raw, truth):
    """The scalar c minimizing sum |c * raw - truth|^2, with the RMS residual of the fit."""
    denom = float(np.dot(raw, raw))
    if denom == 0.0:
        raise ValueError("raw reconstruction is identically zero; cannot calibrate")
    scale = float(np.dot(raw, truth)) / denom
    residual = float(np.sqrt(np.mean((scale * raw - truth) ** 2)))
    return CalibrationResult(scale=scale, residual=residual)


# --- reconstructed volume persistence ---------------------------------------


def write_volume(data_path, meta_path, grid, branch, normalization, quadrature_count, diff_step):
    """Raw 32-bit little-endian floats (x-fastest) plus a JSON sidecar."""
    with open(data_path, "wb") as fh:
        fh.write(grid.samples.astype("<f4").tobytes())
    meta = {
        "dims": list(grid.dims),
        "spacing": [float(v) for v in grid.spacing],
        "origin": [float(v) for v in grid.origin],
        "branch": branch,
        "normalization": float(normalization),
        "quadrature_count": int(quadrature_count),
        "diff_step": float(diff_step),
    }
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_volume(data_path, meta_path):
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    raw = np.fromfile(data_path, dtype="<f4").astype(float)
    grid = VolumeGrid(
        origin=meta["origin"],
        spacing=meta["spacing"],
        dims=tuple(meta["dims"]),
        samples=raw,
    )
    return grid, meta
