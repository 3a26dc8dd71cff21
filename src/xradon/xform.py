"""Forward operators: divergent-beam X-ray and planar Radon transforms.

Analytic paths delegate to the phantom closed forms; the numeric path
ray-marches a sampled volume with trilinear interpolation so the same
machinery applies to measured data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from . import phantom as ph_mod
from .geometry import as_direction
from .inversion import RadonDataset


@dataclass(frozen=True)
class RadonProfile:
    """Sampled plane-integral profile s -> Rf(n, s) for one plane normal n.

    The one-row case of inversion.RadonDataset, whose checks it makes: a
    unit normal, at least 8 finite samples and s_max > s_min.
    """

    n: np.ndarray
    s_min: float
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        n, values = np.asarray(self.n, dtype=float), np.asarray(self.values, dtype=float)
        data = RadonDataset(n[None], self.s_min, self.s_max, values.reshape(1, -1))
        object.__setattr__(self, "n", data.nodes[0])
        object.__setattr__(self, "s_min", data.s_min)
        object.__setattr__(self, "s_max", data.s_max)
        object.__setattr__(self, "values", data.values[0])


def directional_derivative_xray(ph, x, n, h=1e-4):
    """Central difference of the x-ray data along its own direction.

    [X(x + h n, n) - X(x - h n, n)] / (2 h); for smooth densities this
    equals -density(x) up to O(h^2).  The difference is taken in closed
    form (phantom.ray_difference_rows), so a ray tangent to a ball gives
    exactly 0.
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    return ph_mod.ray_difference_rows(ph, x, n, h) / (2.0 * h)


def _ray_box_range(origin, upper, x, n):
    """Parameter range [t0, t1] of {x + t n} inside the box, clipped to t >= 0."""
    t0 = 0.0
    t1 = np.inf
    for axis in range(3):
        if abs(n[axis]) < 1e-300:
            if x[axis] < origin[axis] or x[axis] > upper[axis]:
                return None
            continue
        ta = (origin[axis] - x[axis]) / n[axis]
        tb = (upper[axis] - x[axis]) / n[axis]
        lo, hi = (ta, tb) if ta <= tb else (tb, ta)
        t0 = max(t0, lo)
        t1 = min(t1, hi)
    if t1 <= t0:
        return None
    return t0, t1


def xray_numeric(vol, x, n, step):
    """Midpoint-rule ray marching of a sampled volume with trilinear interpolation.

    The half-line from x in direction n is clipped to the grid box; the
    integral is approximated with m = ceil(length / step) equal
    midpoint steps.  Rays that never enter the grid give 0.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float).reshape(3)
    n = as_direction(n)
    rng = _ray_box_range(vol.origin, vol.upper, x, n)
    if rng is None:
        return 0.0
    t0, t1 = rng
    length = t1 - t0
    m = max(int(np.ceil(length / step)), 1)
    dt = length / m
    t = t0 + (np.arange(m) + 0.5) * dt
    pts = x[None, :] + t[:, None] * n[None, :]
    coords = (pts - vol.origin) / vol.spacing
    samples = map_coordinates(
        vol.values3d(), coords.T, order=1, mode="constant", cval=0.0
    )
    return float(np.sum(samples) * dt)


# --- CSV export -------------------------------------------------------------
#
# Every number is written as %.17g, which round-trips a float64 exactly, so
# read_profile_csv returns the written arrays bit for bit.  The writers
# format each distinct number once and fill a template per point or profile
# with one %-format over that row's values, converted to Python floats one
# row at a time so the whole array never exists as float objects.


def _triples(rows):
    return ["%.17g,%.17g,%.17g" % tuple(r) for r in rows.tolist()]


def write_xray_csv(path, points, nodes, values):
    """X-ray data on every (point, node) pair: columns x1,x2,x3,n1,n2,n3,value.

    points has shape (P, 3), nodes (K, 3) and values (P, K), values[i, k]
    being the transform at points[i] along nodes[k].  Rows are point-major:
    the K nodes of the first point, then those of the next.
    """
    points = np.asarray(points, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if (
        points.ndim != 2
        or points.shape[1] != 3
        or nodes.ndim != 2
        or nodes.shape[1] != 3
        or values.shape != (points.shape[0], nodes.shape[0])
    ):
        raise ValueError("inconsistent x-ray batch shapes")
    # Joined with "x1,x2,x3,", the leading "" puts the point before each row.
    tails = [""] + [f"{n},%.17g\n" for n in _triples(nodes)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,x3,n1,n2,n3,value\n")
        for x, row in zip(_triples(points), values):
            fh.write(f"{x},".join(tails) % tuple(row.tolist()))


def write_profiles_csv(paths, nodes, s_min, s_max, values):
    """Radon profiles, one file each: normal header, then s,value rows.

    values has shape (K, S), row k sampled at S equally spaced offsets
    from s_min to s_max and written to paths[k] with normal nodes[k].
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3 or values.ndim != 2 or values.shape[0] != nodes.shape[0]:
        raise ValueError("inconsistent profile dataset shapes")
    if len(paths) != nodes.shape[0]:
        raise ValueError(f"{len(paths)} paths for {nodes.shape[0]} profiles")
    s = np.linspace(s_min, s_max, values.shape[1])
    rows = "".join("%.17g,%%.17g\n" % v for v in s.tolist())
    for path, n, row in zip(paths, _triples(nodes), values):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"n1,n2,n3\n{n}\ns,value\n")
            fh.write(rows % tuple(row.tolist()))


def read_profile_csv(path):
    """One file of write_profiles_csv as a RadonProfile; a malformed file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 4 or lines[0] != "n1,n2,n3" or lines[2] != "s,value":
        raise ValueError(f"{path}: not a radon profile CSV")
    try:
        n = np.array([float(v) for v in lines[1].split(",")])
        # comments=None: a "#" in a row is a parse error, not a comment.
        rows = np.loadtxt(lines[3:], delimiter=",", ndmin=2, comments=None)
        if rows.shape[1] != 2:
            raise ValueError("expected s,value rows")
        s = rows[:, 0]
        return RadonProfile(n=n, s_min=float(s[0]), s_max=float(s[-1]), values=rows[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed radon profile CSV: {exc}") from exc
