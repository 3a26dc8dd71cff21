"""Unit directions, spherical quadrature and Cartesian volume grids.

Shared geometric substrate for the forward transforms and the
reconstruction formulas.  Directions are plain numpy unit vectors of
shape ``(3,)``; quadrature rules carry unnormalized surface weights
summing to the full sphere area ``4*pi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FULL_SPHERE = 4.0 * np.pi
GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

_UNIT_TOL = 1e-9

# Rows of work per block, for every module that sums over a quadrature: a
# block of quadrature nodes evaluated at P points holds max(1, ROWS // P)
# nodes (the x-ray ray differences of lift_xray_data and of the erfc-form
# Gaussians and balls of phantom.ray_differences, whose series-form Gaussians
# run in no blocks, and the line integrals of lemma9), or
# max(1, ROWS // max(P, 4 S)) when backprojecting profiles of S samples
# (their four (B, S - 1) cubic tables when P >= S - 1, per-query stencils
# otherwise; both keep these blocks, so the sphere sum adds in one order),
# profile filtering takes max(1, ROWS // (2 S)) rows of S samples at a time
# (the Hilbert kernel's FFT length), and grangeat_convert takes
# max(1, ROWS // K) points of K rays each.  This bounds the temporaries of a
# block to a few MB; a large volume gets one node per block.  Tables for all
# K rows at once were rejected: 9.8 MB more at 300 rows of 1025 samples.
ROWS = 16384


def node_blocks(total, width):
    """Consecutive slices of range(total), each about ROWS / width long."""
    step = max(1, ROWS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, total, step)]


def as_direction(v, tol=_UNIT_TOL):
    """Validate and return a unit 3-vector.

    Raises ValueError if the shape is not (3,) or the norm deviates
    from 1 by more than `tol`.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {v.shape}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= tol:  # False for NaN too
        raise ValueError(f"direction norm {nrm!r} deviates from 1 by more than {tol}")
    return v


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights approximating the surface integral over the unit sphere.

    Attributes
    ----------
    nodes : ndarray, shape (count, 3)
        Unit direction vectors.
    weights : ndarray, shape (count,)
        Positive weights in steradians, summing to 4*pi.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (count, 3)")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("weights length must match node count")
        # each check is written so that a NaN fails it
        if not np.all(weights > 0.0):
            raise ValueError("all quadrature weights must be positive")
        if not abs(weights.sum() - FULL_SPHERE) <= 1e-6:
            raise ValueError("quadrature weights must sum to 4*pi")
        norms = np.linalg.norm(nodes, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
            raise ValueError("all quadrature nodes must be unit vectors")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def count(self):
        return self.nodes.shape[0]


def fibonacci_sphere(count):
    """Near-uniform spherical quadrature from the golden-angle lattice.

    Parameters
    ----------
    count : int
        Number of nodes, at least 2.

    Returns
    -------
    SphereQuadrature
        Equal weights 4*pi / count.
    """
    count = int(count)
    if count < 2:
        raise ValueError("fibonacci_sphere requires count >= 2")
    indices = np.arange(count, dtype=float) + 0.5
    polar = np.arccos(1.0 - 2.0 * indices / count)
    azimuth = 2.0 * np.pi * indices / GOLDEN_RATIO
    sin_polar = np.sin(polar)
    nodes = np.column_stack(
        (np.cos(azimuth) * sin_polar, np.sin(azimuth) * sin_polar, np.cos(polar))
    )
    # arccos/trig round-off can leave norms off by a few ulp
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = np.full(count, FULL_SPHERE / count)
    return SphereQuadrature(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class VolumeGrid:
    """Uniform 3D scalar field.

    Samples are stored flat in x-fastest order:
    ``index = ix + nx * (iy + ny * iz)``.
    """

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    samples: np.ndarray = field(default=None)

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        spacing = np.asarray(self.spacing, dtype=float).reshape(3)
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError("dims must be three positive integers")
        if not np.all((spacing > 0.0) & np.isfinite(spacing)):
            raise ValueError("spacing must be positive and finite")
        total = dims[0] * dims[1] * dims[2]
        samples = self.samples
        if samples is None:
            samples = np.zeros(total)
        samples = np.asarray(samples, dtype=float).reshape(-1)
        if samples.size != total:
            raise ValueError(f"samples length {samples.size} != prod(dims) {total}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "samples", samples)

    @property
    def upper(self):
        """Position of the last sample along each axis."""
        return self.origin + (np.array(self.dims) - 1) * self.spacing

    def axis_coords(self, axis):
        d = self.dims[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(d)

    def points(self):
        """All sample positions, shape (N, 3), in storage (x-fastest) order."""
        x = self.axis_coords(0)
        y = self.axis_coords(1)
        z = self.axis_coords(2)
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack((xx.ravel(), yy.ravel(), zz.ravel()))

    def with_samples(self, samples):
        return VolumeGrid(self.origin, self.spacing, self.dims, samples)


def cube_grid(half_extent, dims_per_axis):
    """Convenience constructor: cubic grid on [-half_extent, half_extent]^3."""
    d = int(dims_per_axis)
    if d < 2:
        raise ValueError("need at least 2 samples per axis")
    spacing = 2.0 * half_extent / (d - 1)
    return VolumeGrid(
        origin=(-half_extent, -half_extent, -half_extent),
        spacing=(spacing, spacing, spacing),
        dims=(d, d, d),
    )
