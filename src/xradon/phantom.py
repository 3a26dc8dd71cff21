"""Analytic test densities with closed-form point, half-line and plane integrals.

Every transform in the pipeline is validated against these oracles.
Two primitive kinds are supported:

* ``gaussian``: A * exp(-|x - c|^2 / a^2), smooth, numerically compactly
  supported (tails below 1e-15 of the amplitude outside the support ball).
* ``ball``: A inside the sphere of radius R around c, 0 outside.
  Discontinuous; kept for geometric sanity checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .geometry import as_direction, node_blocks

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


def ray_differences(ph, points, h):
    """Central-difference ray data Xf(x + h n, n) - Xf(x - h n, n) at a batch of
    points, summed over the nodes of a sphere quadrature.

    points has shape (P, 3).  Returns diff(nodes, weights), which takes K unit
    directions of shape (K, 3) and their weights of shape (K,) to the (P,)
    array sum_k w_k [Xf(x + h n_k, n_k) - Xf(x - h n_k, n_k)].  Along a ray,
    d^2 = |x - c|^2 - p^2 with p = n.(x - c) is the same at both ends of the
    step, so per primitive (width or radius a, amplitude A):
    Gaussian -A * exp(-d^2/a^2) * int_{-h}^{h} exp(-(p + t)^2/a^2) dt, summed
    as a short series in p^2 (see _gaussian_series) or, outside its bound,
    A * a * (sqrt(pi)/2) * exp(-d^2/a^2) * [erfc((p+h)/a) - erfc((p-h)/a)];
    ball A * [chord(p + h) - chord(p - h)], chord(q) the length ahead of
    the point at offset q along the ray.  Each term equals the difference of
    two halfline_integral calls up to rounding.

    A series-form Gaussian, exp(-|x - c|^2/a^2) * sum_j c_j p^2j, has no loop
    over nodes.  With y = x - c, sum_k w_k (n_k . y)^2j expands into
    sum over a + b + c = 2j of (2j)!/(a! b! c!) m_abc y1^a y2^b y3^c, where
    m_abc = sum_k w_k n1^a n2^b n3^c are the quadrature's moments, formed once
    per call (see _moments).  So the sphere sum of the j >= 1 terms is one
    polynomial in y per Gaussian, evaluated monomial by monomial into a (P,)
    array; then c_0 * sum_k w_k is added and the sum is multiplied by
    exp(-|x - c|^2/a^2).  The expansion's summands are bounded in size by
    sum_k w_k sum_{j>=1} |c_j| |y|^2j, since |n1 y1| + |n2 y2| + |n3 y3| <= |y|,
    and the Cauchy estimate of _gaussian_series puts that at
    e^3 t^2 / (3 (1 - t^2)) < 3.8e-3 of 2 h |A| sum_k w_k for t < 0.0236.  Its
    rounding, that of sums over K nodes and at most 94 monomials of terms that
    small, stays far below the series' share of the result.

    The erfc-form Gaussians and the balls run over blocks of
    node_blocks(K, P) nodes, as (B, P) arrays (one node per block for a large
    batch): n . x is formed once per block for them all, and each term is
    weighted before it is added to a (B, P) accumulator, which is summed over
    its rows once per call.
    """
    points = np.asarray(points, dtype=float)
    columns = np.ascontiguousarray(points.T)
    rel = [points - prim.center for prim in ph.primitives]
    r2 = [np.sum(y**2, axis=1) for y in rel]
    series = [_gaussian_series(prim, rr, h) for prim, rr in zip(ph.primitives, r2)]
    looped = [(prim, rr) for prim, rr, ser in zip(ph.primitives, r2, series) if ser is None]
    expanded = [(y, ser) for y, ser in zip(rel, series) if ser is not None]

    def diff(nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or weights.shape != nodes.shape[:1]:
            raise ValueError(
                f"ray_differences takes (K, 3) nodes and (K,) weights, got {nodes.shape} and {weights.shape}"
            )
        out = _looped_sum(looped, columns, nodes, weights, h)
        if not expanded:
            return out
        moments = _moments(nodes, weights, max(len(coeffs) - 1 for _, (coeffs, _) in expanded))
        total = float(np.sum(weights))
        for y, (coeffs, scale) in expanded:
            acc = _moment_series(y, coeffs, moments)
            acc += coeffs[0] * total
            acc *= scale
            out += acc
        return out

    return diff


def _looped_sum(prims, columns, nodes, weights, h):
    """sum_k w_k of the ray differences of the (primitive, |x - c|^2) pairs prims,
    by the erfc form or the chord form, over node blocks; columns is the (3, P)
    transpose of the points.
    """
    width = columns.shape[1]
    if not prims:
        return np.zeros(width)
    blocks = node_blocks(nodes.shape[0], width)
    rows = min(nodes.shape[0], blocks[0].stop) if blocks else 0
    nx, p, e, u, v = np.empty((5, rows, width))
    out = np.zeros((rows, width))
    wcol = weights[:, None]
    nc = [np.sum(nodes * prim.center, axis=1)[:, None] for prim, _ in prims]
    for block in blocks:
        bnodes = nodes[block]
        b = bnodes.shape[0]
        bnx, bp, be, bu, bv, bout = nx[:b], p[:b], e[:b], u[:b], v[:b], out[:b]
        # n . x term by term, not by a matrix product: BLAS rounds a product
        # differently for different shapes, and the 1/(2h) of the central
        # difference would carry that into the reconstruction.
        np.multiply(bnodes[:, :1], columns[0], out=bnx)
        for i in (1, 2):
            np.multiply(bnodes[:, i : i + 1], columns[i], out=bu)
            bnx += bu
        for (prim, rr), nck in zip(prims, nc):
            np.subtract(bnx, nck[block], out=bp)
            _add_difference(prim, bp, rr, h, wcol[block], bout, be, bu, bv)
    return out.sum(axis=0)


def _monomials(order):
    """(j, a, b, c, (2j)!/(a! b! c!)) for every monomial y1^a y2^b y3^c of
    (n . y)^2j, j = 1 .. order."""
    fact = math.factorial
    return [
        (j, a, b, 2 * j - a - b, fact(2 * j) // (fact(a) * fact(b) * fact(2 * j - a - b)))
        for j in range(1, order + 1)
        for a in range(2 * j + 1)
        for b in range(2 * j - a + 1)
    ]


def _powers(columns, degree):
    """Powers 0 .. degree of each row of a (3, N) array, as (3, degree + 1, N),
    by repeated multiplication (a float power of a negative base is slow)."""
    out = np.empty((3, degree + 1, columns.shape[1]))
    out[:, 0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(out[:, e - 1], columns, out=out[:, e])
    return out


def _moments(nodes, weights, order):
    """The quadrature's moments m[a, b, c] = sum_k w_k n1^a n2^b n3^c for every
    exponent up to 2 order, as a (2 order + 1,) * 3 array.

    Elementwise products and an einsum over the nodes, not a matrix product,
    for the reason given at the n . x of _looped_sum.
    """
    powers = _powers(nodes.T, 2 * order)
    weighted = weights * powers[0][:, None] * powers[1][None]
    return np.einsum("abk,ck->abc", weighted, powers[2])


def _moment_series(y, coeffs, moments):
    """sum_k w_k sum_{j>=1} coeffs[j] (n_k . y)^2j at every row of y, a (P, 3)
    array of offsets x - c, from the moments of _moments.  Its temporaries are
    the (3, 2M + 1, P) powers of y and one (P,) scratch array."""
    powers = _powers(y.T, 2 * (len(coeffs) - 1))
    out = np.zeros(y.shape[0])
    term = np.empty_like(out)
    for j, a, b, c, multinomial in _monomials(len(coeffs) - 1):
        np.multiply(powers[0, a], powers[1, b], out=term)
        term *= powers[2, c]
        term *= coeffs[j] * multinomial * moments[a, b, c]
        out += term
    return out


# Series form of a Gaussian's ray difference.  With u = p/a, delta = h/a and
# d^2 + p^2 = |x - c|^2, the Gaussian's difference is exactly
#   D = -A a exp(-|x - c|^2/a^2) int_{-delta}^{delta} exp(-2 u s - s^2) ds
#     = -2 h A exp(-|x - c|^2/a^2) sum_m H_2m(u) delta^2m / (2m + 1)!
# by the Hermite generating function exp(2 u s - s^2) = sum_k H_k(u) s^k / k!
# (odd k integrate to 0): 1 + (2u^2 - 1) delta^2/3 + (4u^4 - 12u^2 + 3) delta^4/30 + ...
# Truncation bound: |H_k(u)|/k! is at most the s^k coefficient of
# exp(2|u| s + s^2), which Cauchy's estimate on |s| = 1/w, w = max(1, |u|),
# bounds by exp(2|u|/w + 1/w^2) w^k <= e^3 w^k.  So with t = delta * w term m
# is at most e^3 t^2m / (2m + 1), and the terms after m = M sum to at most
#   e^3 t^(2M+2) / ((2M + 3) (1 - t^2))
# of the leading term 2 h |A| exp(-|x - c|^2/a^2).  Since |u| <= |x - c|/a,
# t = delta * max(1, max |x - c|/a) bounds every ray of a point batch.  The
# smallest M >= 1 whose bound is at most SERIES_TOL is used; if M = SERIES_MAX_ORDER
# (t up to about 0.0236) is not enough, the erfc form is used instead.
SERIES_TOL = 1e-16
SERIES_MAX_ORDER = 4


def _gaussian_series(prim, r2, h):
    """The series form for points at squared distances r2 from a Gaussian's centre.

    Returns (coeffs, scale): the difference is scale * sum_j coeffs[j] * p^2j,
    with scale = exp(-r2/a^2) written over r2, which the series form does not
    read again.  Returns None, leaving r2 as it is, for a ball or when the
    truncation bound above exceeds SERIES_TOL at every order.
    """
    if prim.kind != GAUSSIAN:
        return None
    a = prim.scale
    delta = h / a
    t = abs(delta) * max(1.0, float(np.sqrt(np.max(r2, initial=0.0))) / a)
    for order in range(1, SERIES_MAX_ORDER + 1):
        if t < 1.0 and np.e**3 * t ** (2 * order + 2) <= SERIES_TOL * (2 * order + 3) * (1.0 - t * t):
            break
    else:
        return None
    # sum_m H_2m(p/a) delta^2m / (2m+1)!, regrouped by powers of (p/a)^2; the
    # u^2i coefficient of H_2m(u) is the integer (-1)^(m-i) (2m)! 4^i / ((m-i)! (2i)!)
    fact = math.factorial
    coeffs = np.zeros(order + 1)
    for m in range(order + 1):
        herm = np.array(
            [(-1) ** (m - i) * fact(2 * m) * 4**i // (fact(m - i) * fact(2 * i)) for i in range(m + 1)], dtype=float
        )
        coeffs[: m + 1] += herm * (delta ** (2 * m) / fact(2 * m + 1))
    coeffs *= -2.0 * h * prim.amplitude / (a * a) ** np.arange(order + 1)
    np.divide(r2, -(a * a), out=r2)
    return coeffs, np.exp(r2, out=r2)


def _add_difference(prim, p, r2, h, weight, out, e, u, v):
    """Add weight times one primitive's ray difference at offsets p +- h to out,
    by the erfc form for a Gaussian or the chord form for a ball.

    p is a (B, P) block of offsets, r2 is |x - c|^2 of shape (P,) and weight
    a (B, 1) column; e, u and v are scratch arrays of out's shape, and a
    ball overwrites p.
    """
    np.multiply(p, p, out=e)
    np.subtract(r2, e, out=e)
    np.maximum(e, 0.0, out=e)  # d^2
    a = prim.scale
    if prim.kind == GAUSSIAN:
        np.divide(e, -(a**2), out=e)
        np.exp(e, out=e)
        np.add(p, h, out=u)
        np.divide(u, a, out=u)
        erfc(u, out=u)
        np.subtract(p, h, out=v)
        np.divide(v, a, out=v)
        erfc(v, out=v)
        u -= v
        u *= e
        u *= weight * prim.amplitude * a * (SQRT_PI / 2.0)
        out += u
        return
    np.subtract(a * a, e, out=e)
    np.maximum(e, 0.0, out=e)
    np.sqrt(e, out=e)  # half chord of the ray's line, 0 off the ball
    # chord(q) = max(root - q, 0) + min(root + q, 0), at q = p + h into v and
    # at q = p - h into u; the difference is taken before it is weighted
    np.add(p, h, out=u)
    np.subtract(p, h, out=p)
    for q, chord in ((u, v), (p, u)):
        np.subtract(e, q, out=chord)
        np.maximum(chord, 0.0, out=chord)
        np.add(e, q, out=q)
        np.minimum(q, 0.0, out=q)
        chord += q
    v -= u
    v *= weight * prim.amplitude
    out += v


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
    out = plane_integral_rows(ph, n[None, :], s.reshape(-1)).reshape(s.shape)
    return out if out.ndim else float(out)


def plane_integral_rows(ph, nodes, s):
    """plane_integral for K normals on one offset grid: the (K, S) array of
    Rf(nodes[k], s[j]), for nodes of shape (K, 3) and s of shape (S,).

    One (K, S) pass per primitive, in a buffer reused across primitives;
    n.c is taken per normal by np.dot, so every row is the same arithmetic
    as the one-normal case.
    """
    nodes = np.asarray(nodes, dtype=float)
    s = np.asarray(s, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3 or s.ndim != 1:
        raise ValueError("plane_integral_rows needs nodes (K, 3) and offsets (S,)")
    out = np.zeros((nodes.shape[0], s.size))
    buf = np.empty_like(out)
    for prim in ph.primitives:
        nc = np.array([float(np.dot(n, prim.center)) for n in nodes])
        offset = np.subtract(s, nc[:, None], out=buf)
        a = prim.scale
        if prim.kind == GAUSSIAN:
            term = np.square(offset, out=buf)
            np.negative(term, out=term)
            term /= a**2
            np.exp(term, out=term)
            term *= prim.amplitude * a * a * np.pi
        else:
            term = np.square(offset, out=buf)
            np.subtract(a * a, term, out=term)
            np.maximum(term, 0.0, out=term)
            term *= prim.amplitude * np.pi
        out += term
    return out


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
