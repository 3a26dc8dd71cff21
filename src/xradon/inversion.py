"""Reconstruction formulas, data conversion, and adjudication diagnostics.

Three branches are implemented:

* ``xray``: spherical average of the directional derivative of
  divergent-beam data.  The identity n . grad_x Xf(x, n) = -f(x) forces
  the constant -1/(4*pi) under the unnormalized 4*pi surface measure;
  that derived constant is the default and the calibration routine
  makes any alternative convention measurable.
* ``radon``: spherical average of -2*pi times the derivative of the
  Hilbert-filtered plane-integral profiles, evaluated at s = x . n.
  With unit normalization it reconstructs -16*pi^3 * I^1 f, where
  I^1 = (-Laplacian)^(-1/2) is the Riesz potential, not f itself; the
  tests assert that target pointwise.
* ``classical_radon``: the textbook second-derivative inversion
  f(x) = -(1/(8*pi^2)) * integral_{S^2} d^2/ds^2 Rf(n, s)|_{s = x.n} dn,
  the independent oracle used to cross-validate the other branches.

Also here: the Grangeat-style conversion of x-ray data into the
derivative of Radon data via a mollified delta', and the two-sided
spherical-average equivalence diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import phantom as ph_mod
from .geometry import SphereQuadrature, VolumeGrid, as_direction, node_blocks
from .hilbert import derivative_rows, hilbert_rows, sample_rows

BRANCH_XRAY = "xray"
BRANCH_RADON = "radon"
BRANCH_CLASSICAL = "classical_radon"
BRANCHES = (BRANCH_XRAY, BRANCH_RADON, BRANCH_CLASSICAL)

# Derived from n . grad_x Xf = -f under the 4*pi measure convention.
XRAY_BRANCH_CONSTANT = -1.0 / (4.0 * np.pi)
# Constant as printed in the source derivation, selectable via config.
SPHERICAL_REFERENCE_CONSTANT = 1.0 / (2.0 * np.pi**3)
# Textbook 3D Radon inversion constant, baked into the classical branch.
CLASSICAL_RADON_CONSTANT = -1.0 / (8.0 * np.pi**2)
# Cylindrical-branch prefactor applied per direction.
RADON_BRANCH_FACTOR = -2.0 * np.pi

# Fewest samples of a Radon profile: the derivative and cubic stencils need room at both ends.
MIN_PROFILE_SAMPLES = 8


class NormalizationOverflow(ValueError):
    """The normalization scales a branch's sphere sum beyond the float64 range."""


@dataclass(frozen=True)
class ReconstructionConfig:
    """Knobs shared by the reconstruction operators."""

    quadrature: SphereQuadrature
    diff_step: float = 1e-4
    normalization: float = XRAY_BRANCH_CONSTANT
    branch: str = BRANCH_XRAY

    def __post_init__(self):
        if not (np.isfinite(self.diff_step) and self.diff_step > 0.0):
            raise ValueError(f"diff_step must be positive and finite, got {self.diff_step!r}")
        if not (np.isfinite(self.normalization) and self.normalization != 0.0):
            raise ValueError(f"normalization must be nonzero and finite, got {self.normalization!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")


@dataclass(frozen=True)
class RadonDataset:
    """Plane-integral profiles Rf(n_k, s) for K unit normals on one uniform s-grid.

    nodes has shape (K, 3); values has shape (K, S), row k sampled at
    S equally spaced offsets from s_min to s_max.
    """

    nodes: np.ndarray
    s_min: float
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or nodes.shape[0] == 0:
            raise ValueError("dataset nodes must have shape (K, 3) with K >= 1")
        if values.ndim != 2 or values.shape[0] != nodes.shape[0]:
            raise ValueError("dataset values must have shape (K, S), one row per node")
        if values.shape[1] < MIN_PROFILE_SAMPLES:
            raise ValueError(f"dataset profiles require at least {MIN_PROFILE_SAMPLES} samples")
        if not (np.isfinite(self.s_min) and np.isfinite(self.s_max) and self.s_max > self.s_min):
            raise ValueError(f"require finite s_min < s_max, got {self.s_min!r}, {self.s_max!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset values must be finite")
        if not np.all(np.abs(np.linalg.norm(nodes, axis=1) - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("dataset nodes must be unit vectors")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "s_min", float(self.s_min))
        object.__setattr__(self, "s_max", float(self.s_max))
        object.__setattr__(self, "values", values)

    @property
    def count(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return (self.s_max - self.s_min) / (self.values.shape[1] - 1)


def build_radon_dataset(ph, quadrature, s_min, s_max, count):
    """Analytic plane-integral profiles for every quadrature node (phantom.plane_integral_rows)."""
    s = np.linspace(s_min, s_max, int(count))
    values = ph_mod.plane_integral_rows(ph, quadrature.nodes, s)
    return RadonDataset(quadrature.nodes, s_min, s_max, values)


def _check_dataset(data, quadrature):
    if not isinstance(data, RadonDataset):
        raise ValueError(f"the radon branches need a RadonDataset, got {type(data).__name__}")
    if data.count != quadrature.count:
        raise ValueError(
            f"dataset has {data.count} profiles but quadrature has {quadrature.count} nodes"
        )
    if not np.allclose(data.nodes, quadrature.nodes, atol=1e-9):
        raise ValueError("dataset profile normals do not match quadrature nodes")


def make_phantom_xray_data(ph):
    """Batched divergent-beam data callable (x, n) backed by the analytic phantom.

    This is the ray form grangeat_convert reads; lift_xray_data turns it
    into the form the xray branch of reconstruct reads.
    """
    return lambda points, directions: ph_mod.halfline_integral(ph, points, directions)


def lift_xray_data(xdata):
    """The sphere-summed ray-difference form read by the xray branch, from
    divergent-beam data.

    xdata(x, n) takes (K, 3) arrays to (K,) values.  The result is
    data(points, h) -> diff(nodes, weights), with diff giving the (P,) array
    sum_k w_k [xdata(x + h n_k, n_k) - xdata(x - h n_k, n_k)]; it calls xdata
    twice per node block.  This is the path for non-analytic data and the
    reference for the closed form phantom.ray_differences.
    """

    def data(points, h):
        def diff(nodes, weights):
            acc = np.zeros(points.shape[0])
            for block in node_blocks(nodes.shape[0], points.shape[0]):
                n = _rays(points, nodes[block])[1]
                step = h * nodes[block, None, :]
                fwd = np.asarray(xdata((points + step).reshape(-1, 3), n), dtype=float)
                bwd = np.asarray(xdata((points - step).reshape(-1, 3), n), dtype=float)
                acc += weights[block] @ (fwd - bwd).reshape(step.shape[0], -1)
            return acc

        return diff

    return data


def phantom_data(ph, cfg, s_grid):
    """The analytic input of cfg.branch: closed-form ray differences
    (phantom.ray_differences), or a RadonDataset on s_grid = (s_min, s_max, count)."""
    if cfg.branch == BRANCH_XRAY:
        return lambda points, h: ph_mod.ray_differences(ph, points, h)
    return build_radon_dataset(ph, cfg.quadrature, *s_grid)


def _as_points(points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3), got {points.shape}")
    return points


def _rays(points, nodes):
    """Every (node, point) pair of a block as (B*P, 3) rows, node-major."""
    shape = (nodes.shape[0],) + points.shape
    x = np.broadcast_to(points, shape).reshape(-1, 3)
    n = np.broadcast_to(nodes[:, None, :], shape).reshape(-1, 3)
    return x, n


def _sphere_sum(quadrature, points, integrand, width=0):
    """sum_k w_k * integrand at every point; integrand(block, nodes) gives the (B, P)
    values for the nodes quadrature.nodes[block].  A block's rows are sized on
    max(P, width)."""
    acc = np.zeros(points.shape[0])
    for block in node_blocks(quadrature.count, max(points.shape[0], width)):
        acc += quadrature.weights[block] @ integrand(block, quadrature.nodes[block])
    return acc


def _filter(data, op, out=None):
    """op(rows, spacing) applied to every profile of the dataset, over blocks of rows.

    out=data.values filters a dataset that nothing else uses in place.
    """
    out = np.empty_like(data.values) if out is None else out
    for block in node_blocks(data.count, 2 * data.values.shape[1]):
        out[block] = op(data.values[block], data.spacing)
    return out


# The backprojected integrand of each radon branch: d/ds H Rf and d^2/ds^2 Rf.
_BRANCH_FILTERS = {
    BRANCH_RADON: lambda rows, h: derivative_rows(hilbert_rows(rows), h),
    BRANCH_CLASSICAL: lambda rows, h: derivative_rows(derivative_rows(rows, h), h),
}


def _backproject(filtered, data, quadrature, points):
    """sum_k w_k * filtered_k(x . n_k) at every point x."""

    def integrand(block, nodes):
        return sample_rows(filtered[block], data.s_min, data.s_max, nodes @ points.T)

    return _sphere_sum(quadrature, points, integrand, 4 * filtered.shape[1])


def _check_scaled(scale, acc, divisor=1.0):
    """Raise NormalizationOverflow if scale * acc / divisor overflows float64.

    The largest |acc| goes through the same products in Python floats, which
    overflow to inf without a warning; the array products are left as they are.
    A NaN or inf already in acc is left to the caller's finiteness check.
    """
    peak = float(np.max(np.abs(acc), initial=0.0))
    if math.isfinite(peak) and not math.isfinite(abs(scale) * peak / divisor):
        raise NormalizationOverflow(
            f"normalization scales the sphere sum (largest magnitude {peak:.6g}) beyond the float64 range"
        )


def reconstruct(data, cfg, points):
    """Reconstruct the density at a (P, 3) batch of points with cfg.branch; returns (P,).

    xray: `data(points, diff_step)` returns diff(nodes, weights), which one
    call with the whole quadrature turns into the (P,) sphere sum
    sum_k w_k [Xf(x + h n_k, n_k) - Xf(x - h n_k, n_k)] with h = diff_step
    (see phantom_data, and lift_xray_data for (x, n) data); the result is
    normalization * sum_k w_k * n_k . grad_x Xf(x, n_k), by that central
    difference.  radon: `data` is a RadonDataset on the quadrature nodes;
    the result is normalization * sum_k w_k * (-2*pi) * d/ds (H Rf)(n_k, s)
    at s = x . n_k, by cubic interpolation in s.  classical_radon: the
    textbook inversion -(1/(8*pi^2)) * sum_k w_k * d^2/ds^2 Rf(n_k, x . n_k);
    its constant is built in and normalization is not applied.  A
    normalization that takes the result beyond the float64 range raises
    NormalizationOverflow, a ValueError, before the product is formed.
    """
    points = _as_points(points)
    quad = cfg.quadrature
    if cfg.branch == BRANCH_XRAY:
        if not callable(data):
            raise ValueError(f"the xray branch needs a data callable, got {type(data).__name__}")
        h = cfg.diff_step
        diff = data(points, h)
        if not callable(diff):
            raise ValueError(
                "xray data(points, h) must return a diff(nodes, weights) callable; "
                "lift (x, n) ray data with lift_xray_data"
            )
        acc = diff(quad.nodes, quad.weights)
        _check_scaled(cfg.normalization, acc, 2.0 * h)
        return cfg.normalization * acc / (2.0 * h)
    _check_dataset(data, quad)
    acc = _backproject(_filter(data, _BRANCH_FILTERS[cfg.branch]), data, quad, points)
    if cfg.branch == BRANCH_RADON:
        _check_scaled(cfg.normalization * RADON_BRANCH_FACTOR, acc)
        return cfg.normalization * RADON_BRANCH_FACTOR * acc
    return CLASSICAL_RADON_CONSTANT * acc


# --- conversion and diagnostics ---------------------------------------------


def grangeat_convert(xdata, x, n, quadrature, band):
    """Convert divergent-beam data into the derivative of Radon data.

    Realizes integral_{S^2} Xf(x, n1) delta'(n . n1) dGamma, an estimate
    of -(Rf)'(x . n), with delta' mollified by the derivative of a
    normalized Gaussian of width `band` in u = n . n1.

    x is a (P, 3) batch of points, with one normal n for all of them, and
    the result has shape (P,); a (3,) point gives a float.  The kernel is
    built once per call, and xdata is called on the (B * K, 3) rays of a
    block of B points at a time (geometry.node_blocks over the points, with
    K rays each).  Every point's sum is its own dot product over the K
    nodes, so it does not depend on the batch it came in.

    The band must resolve the quadrature's u-axis node spacing (~2/count)
    and be at most 1, the half-width of the u-range [-1, 1].
    """
    if not 0.0 < band <= 1.0:
        raise ValueError(f"band must be in (0, 1], the half-width of the u-range; got {band!r}")
    n = as_direction(n)
    u_spacing = 2.0 / quadrature.count
    if band < 2.0 * u_spacing:
        raise ValueError(
            f"band {band:g} undersampled: below twice the u-axis node spacing {u_spacing:g}"
        )
    x = np.asarray(x, dtype=float)
    points = _as_points(x[None] if x.shape == (3,) else x)
    nodes = quadrature.nodes
    w = quadrature.weights
    u = nodes @ n
    kernel = -2.0 * u * np.exp(-(u * u) / band**2) / (band**3 * np.sqrt(np.pi))
    # Enforce the delta' moments on the discrete node set: zero mean
    # (kills the quadrature bias of the odd kernel) and first moment
    # -2*pi (the exact value of int_{S^2} u delta'(u) dn).
    kernel = kernel - float(np.dot(w, kernel)) / float(np.sum(w))
    first_moment = float(np.dot(w, kernel * u))
    if first_moment == 0.0:
        raise ValueError("degenerate quadrature: delta' kernel has zero first moment")
    kernel *= -2.0 * np.pi / first_moment
    out = np.empty(points.shape[0])
    for block in node_blocks(points.shape[0], quadrature.count):
        x_rows = np.repeat(points[block], quadrature.count, axis=0)
        n_rows = np.tile(nodes, (points[block].shape[0], 1))
        values = np.asarray(xdata(x_rows, n_rows), dtype=float).reshape(-1, quadrature.count)
        out[block] = [float(np.dot(w, row * kernel)) for row in values]
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

    points has shape (P, 3).  The profiles, on s_grid = (s_min, s_max,
    count), are built and filtered once for all points.  The ratio
    left/right is reported (NaN where the right side vanishes); the
    scalar-offset Hilbert transform stands in for the componentwise sum,
    which is not constructively defined.
    """
    if not ph.is_smooth:
        raise ValueError("lemma9_diagnostic requires a smooth (gaussian-only) phantom")
    points = _as_points(points)

    def line_values(block, nodes):
        return ph_mod.line_integral(ph, *_rays(points, nodes)).reshape(nodes.shape[0], -1)

    left = _sphere_sum(quadrature, points, line_values)
    data = build_radon_dataset(ph, quadrature, *s_grid)
    filtered = _filter(data, lambda rows, h: hilbert_rows(rows), out=data.values)
    right = -2.0 * np.pi * _backproject(filtered, data, quadrature, points)
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
