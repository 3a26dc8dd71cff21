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
# block holds max(1, ROWS // width) items, where the width is the number of
# values per item of the loop's largest temporary; each caller states its
# width where it calls node_blocks or sphere_sum.  This bounds the temporaries
# of a block to a few MB; a large volume gets one node per block.
# Cubic tables for all K rows at once were rejected: 9.8 MB more at 300 rows
# of 1025 samples.
ROWS = 16384


def node_blocks(total, width):
    """Consecutive slices of range(total), each about ROWS / width long."""
    step = max(1, ROWS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, total, step)]


def rays(points, nodes):
    """Every (node, point) pair of a block as (B*P, 3) rows, node-major."""
    shape = (nodes.shape[0],) + points.shape
    x = np.broadcast_to(points, shape).reshape(-1, 3)
    n = np.broadcast_to(nodes[:, None, :], shape).reshape(-1, 3)
    return x, n


def sphere_sum(nodes, weights, points, integrand, width):
    """sum_k w_k * integrand at every point; integrand(block, nodes) gives the (B, P)
    values for the nodes nodes[block], in blocks of node_blocks(K, width).

    A one-node block adds w * values[0]: the bits of the product w @ values up
    to the sign of a zero, which acc (never -0.0) drops.  BLAS forms that
    product as P dot products of one term, about 0.1 ms against 0.015 ms at
    36k points.
    """
    acc = np.zeros(points.shape[0])
    for block in node_blocks(nodes.shape[0], width):
        values = integrand(block, nodes[block])
        acc += weights[block] @ values if values.shape[0] > 1 else weights[block][0] * values[0]
    return acc


def difference_sum(xdata, points, h, nodes, weights):
    """sum_k w_k [xdata(x + h n_k, n_k) - xdata(x - h n_k, n_k)] at every row x of
    the (P, 3) points, for (K, 3) nodes and (K,) weights; xdata(x, n) takes
    (B*P, 3) rows to (B*P,) values and is called twice per node block of
    node_blocks(K, P)."""

    def differences(block, nodes):
        n = rays(points, nodes)[1]
        step = h * nodes[:, None, :]
        fwd = np.asarray(xdata((points + step).reshape(-1, 3), n), dtype=float)
        bwd = np.asarray(xdata((points - step).reshape(-1, 3), n), dtype=float)
        return (fwd - bwd).reshape(nodes.shape[0], -1)

    return sphere_sum(nodes, weights, points, differences, points.shape[0])


def as_sum_inputs(points, nodes, weights, caller):
    """The points, nodes and weights of a sphere sum as float arrays, checked to
    have shapes (P, 3), (K, 3) and (K,); a ValueError names the caller and the
    shapes it got."""
    points = np.asarray(points, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"{caller} takes (P, 3) points, got {points.shape}")
    if nodes.ndim != 2 or nodes.shape[1] != 3 or weights.shape != nodes.shape[:1]:
        raise ValueError(
            f"{caller} takes (K, 3) nodes and (K,) weights, got {nodes.shape} and {weights.shape}"
        )
    return points, nodes, weights


def as_direction(v):
    """v as a unit 3-vector; a ValueError if its shape is not (3,) or its norm
    deviates from 1 by more than _UNIT_TOL."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {v.shape}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= _UNIT_TOL:  # False for NaN too
        raise ValueError(f"direction norm {nrm!r} deviates from 1 by more than {_UNIT_TOL}")
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

    def axis_coords(self, axis):
        d = self.dims[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(d)

    def points(self):
        """All sample positions, shape (N, 3), in storage (x-fastest) order: one
        array, each column filled by broadcasting its axis_coords."""
        nx, ny, nz = self.dims
        out = np.empty((nz, ny, nx, 3))
        out[..., 0] = self.axis_coords(0)
        out[..., 1] = self.axis_coords(1)[:, None]
        out[..., 2] = self.axis_coords(2)[:, None, None]
        return out.reshape(-1, 3)

    def with_samples(self, samples):
        return VolumeGrid(self.origin, self.spacing, self.dims, samples)

