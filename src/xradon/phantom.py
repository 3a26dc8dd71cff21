"""Analytic test densities with closed-form point, half-line and plane integrals.

Every transform in the pipeline is validated against these oracles.
Two primitive kinds are supported:

* ``gaussian``: A * exp(-|x - c|^2 / a^2), smooth, numerically compactly
  supported (tails below 1e-15 of the amplitude outside the support ball).
* ``ball``: A inside the sphere of radius R around c, 0 outside.
  Discontinuous; kept for geometric sanity checks only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .geometry import VolumeGrid, as_direction

GAUSSIAN = "gaussian"
BALL = "ball"
_KINDS = (GAUSSIAN, BALL)

SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class Primitive:
    """One analytic density component.

    ``scale`` is the Gaussian width a or the ball radius R;
    ``amplitude`` is the peak density A.
    """

    kind: str
    center: np.ndarray
    scale: float
    amplitude: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.all(np.isfinite(center)):
            raise ValueError("primitive center must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("primitive scale must be positive and finite")
        if not np.isfinite(self.amplitude):
            raise ValueError("primitive amplitude must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "amplitude", float(self.amplitude))


@dataclass(frozen=True)
class Phantom:
    """A list of primitives together with a support ball radius.

    The support ball is centered at the origin; every primitive must
    satisfy |center| + 6 * scale <= support_radius so that Gaussian
    tails at the boundary are below 1e-15 of the amplitude.
    """

    primitives: tuple
    support_radius: float

    def __post_init__(self):
        prims = tuple(self.primitives)
        radius = float(self.support_radius)
        if not np.isfinite(radius):
            raise ValueError("support radius must be finite")
        for prim in prims:
            reach = float(np.linalg.norm(prim.center)) + 6.0 * prim.scale
            if reach > radius + 1e-12:
                raise ValueError(
                    f"primitive reaches {reach:g}, outside support radius {radius:g}"
                )
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "support_radius", radius)

    @property
    def is_smooth(self):
        """True when all primitives are Gaussians (density in C^1)."""
        return all(p.kind == GAUSSIAN for p in self.primitives)


def min_support_radius(primitives):
    """Smallest admissible support radius for the given primitives."""
    reach = [float(np.linalg.norm(p.center)) + 6.0 * p.scale for p in primitives]
    return max(reach, default=0.0)


def gaussian_phantom(center=(0.0, 0.0, 0.0), scale=1.0, amplitude=1.0, support_radius=None):
    prim = Primitive(GAUSSIAN, center, scale, amplitude)
    if support_radius is None:
        support_radius = min_support_radius([prim])
    return Phantom((prim,), support_radius)


def evaluate(ph, x):
    """Point values of the density; x may be a single vector or (..., 3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for prim in ph.primitives:
        rel = x - prim.center
        r2 = np.sum(rel * rel, axis=-1)
        if prim.kind == GAUSSIAN:
            out = out + prim.amplitude * np.exp(-r2 / prim.scale**2)
        else:
            out = out + np.where(r2 <= prim.scale**2, prim.amplitude, 0.0)
    return out if out.ndim else float(out)


def halfline_integral(ph, x, n):
    """Integral of the density along the half-line t >= 0 from x in direction n.

    Closed form per primitive.  Gaussian:
    A * a * (sqrt(pi)/2) * exp(-d^2/a^2) * erfc(p/a) with p = n.(x - c)
    and d^2 = |x - c|^2 - p^2.  Ball: length of the chord ahead of x.

    x and n broadcast as (..., 3) arrays.
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    shape = np.broadcast_shapes(x.shape, n.shape)
    out = np.zeros(shape[:-1])
    for prim in ph.primitives:
        rel = x - prim.center
        p = np.sum(rel * n, axis=-1)
        r2 = np.sum(rel * rel, axis=-1)
        d2 = np.maximum(r2 - p * p, 0.0)
        a = prim.scale
        if prim.kind == GAUSSIAN:
            out = out + prim.amplitude * a * (SQRT_PI / 2.0) * np.exp(-d2 / a**2) * erfc(p / a)
        else:
            disc = a * a - d2
            root = np.sqrt(np.maximum(disc, 0.0))
            length = np.maximum(-p + root, 0.0) - np.maximum(-p - root, 0.0)
            out = out + prim.amplitude * np.where(disc > 0.0, length, 0.0)
    return out if out.ndim else float(out)


def line_integral(ph, x, n):
    """Full-line integral through x in direction n, by its own closed form."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    shape = np.broadcast_shapes(x.shape, n.shape)
    out = np.zeros(shape[:-1])
    for prim in ph.primitives:
        rel = x - prim.center
        p = np.sum(rel * n, axis=-1)
        r2 = np.sum(rel * rel, axis=-1)
        d2 = np.maximum(r2 - p * p, 0.0)
        a = prim.scale
        if prim.kind == GAUSSIAN:
            out = out + prim.amplitude * a * SQRT_PI * np.exp(-d2 / a**2)
        else:
            disc = a * a - d2
            out = out + prim.amplitude * 2.0 * np.sqrt(np.maximum(disc, 0.0))
    return out if out.ndim else float(out)


def plane_integral(ph, n, s):
    """Integral over the plane {y : y.n = s}.

    Gaussian: A * a^2 * pi * exp(-(s - n.c)^2 / a^2).
    Ball: A * pi * (R^2 - (s - n.c)^2) on the slab |s - n.c| <= R.
    """
    n = as_direction(n)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for prim in ph.primitives:
        offset = s - float(np.dot(n, prim.center))
        a = prim.scale
        if prim.kind == GAUSSIAN:
            out = out + prim.amplitude * a * a * np.pi * np.exp(-(offset**2) / a**2)
        else:
            disc = a * a - offset * offset
            out = out + prim.amplitude * np.pi * np.maximum(disc, 0.0)
    return out if out.ndim else float(out)


def coverage_radius(ph, tail=1e-6):
    """Radius of the ball outside which every primitive is below `tail` of its amplitude."""
    reach = 0.0
    for p in ph.primitives:
        if p.kind == GAUSSIAN:
            r = p.scale * np.sqrt(-np.log(tail))
        else:
            r = p.scale
        reach = max(reach, float(np.linalg.norm(p.center)) + r)
    return reach


def rasterize(ph, grid):
    """Sample the density at the grid points of a VolumeGrid.

    The grid bounding box must contain the ball where the phantom is
    non-negligible (relative tail above 1e-6).
    """
    lo = grid.origin
    hi = grid.upper
    r = coverage_radius(ph)
    if np.any(lo > -r + 1e-12) or np.any(hi < r - 1e-12):
        raise ValueError(
            f"grid box [{lo}, {hi}] does not cover the phantom ball of radius {r:g}"
        )
    values = evaluate(ph, grid.points())
    return grid.with_samples(values)


# --- phantom description files ---------------------------------------------
#
# Plain text, one record per line.  Grammar:
#   '#' starts a comment (whole line)
#   'support_radius <r>'                       (optional, at most once)
#   '<kind> <cx> <cy> <cz> <scale> <amplitude>' one primitive per line
# If no support_radius record is present, the minimal admissible radius
# is used.  Unknown kinds are rejected.


def parse_phantom(text):
    primitives = []
    support_radius = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "support_radius":
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: support_radius takes one value")
            if support_radius is not None:
                raise ValueError(f"line {lineno}: duplicate support_radius")
            support_radius = float(fields[1])
            continue
        if fields[0] not in _KINDS:
            raise ValueError(f"line {lineno}: unknown primitive kind {fields[0]!r}")
        if len(fields) != 6:
            raise ValueError(
                f"line {lineno}: expected 'kind cx cy cz scale amplitude'"
            )
        kind = fields[0]
        cx, cy, cz, scale, amplitude = (float(v) for v in fields[1:])
        primitives.append(Primitive(kind, (cx, cy, cz), scale, amplitude))
    if support_radius is None:
        support_radius = min_support_radius(primitives)
    return Phantom(tuple(primitives), support_radius)


def load_phantom(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_phantom(fh.read())


def format_phantom(ph):
    lines = [f"support_radius {ph.support_radius:.17g}"]
    for p in ph.primitives:
        cx, cy, cz = p.center
        lines.append(
            f"{p.kind} {cx:.17g} {cy:.17g} {cz:.17g} {p.scale:.17g} {p.amplitude:.17g}"
        )
    return "\n".join(lines) + "\n"


def save_phantom(ph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_phantom(ph))
