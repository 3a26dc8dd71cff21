"""Analytic test densities with closed-form point, half-line and plane integrals.

Every transform in the pipeline is validated against these oracles.
Two primitive kinds are supported:

* ``gaussian``: A * exp(-|x - c|^2 / a^2), smooth, numerically compactly
  supported (tails below 1e-15 of the amplitude outside the support ball).
* ``ball``: A inside the sphere of radius R around c, 0 outside.
  Discontinuous; kept for geometric sanity checks only.

scipy.special is imported at the first erfc or dawsn call: by halfline_integral,
the erfc form of ray_differences and riesz_potential.  Parsing and writing a
phantom, its plane integrals and the series form of ray_differences never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_direction, as_sum_inputs, difference_sum, node_blocks, sphere_sum

GAUSSIAN = "gaussian"
BALL = "ball"
_KINDS = (GAUSSIAN, BALL)

SQRT_PI = np.sqrt(np.pi)


def erfc(x, out=None):
    """scipy.special.erfc(x, out=out), with scipy.special imported at the first call."""
    from scipy import special

    return special.erfc(x, out=out)


def dawsn(x, out=None):
    """scipy.special.dawsn(x, out=out), with scipy.special imported at the first call."""
    from scipy import special

    return special.dawsn(x, out=out)


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
        if radius < 0.0:
            raise ValueError(f"support radius must be >= 0, got {radius:g}")
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


# Sums over the length-3 coordinate axis are written out column by column:
# numpy reduces a short last axis one row at a time, several times slower
# than three elementwise passes over (P,) columns.  np.sum over that axis adds
# ((0.0 + first) + second) + third, so each helper below equals its np.sum
# form bit for bit on finite arrays.


def _sum_squares(columns):
    """y1^2 + y2^2 + y3^2 from the three columns of y (a (3, ...) array or any
    three arrays), np.sum(y * y, axis=-1) bit for bit."""
    first, second, third = columns
    out = first * first
    out += second * second
    out += third * third
    return out


def _dot(a, b):
    """np.sum(a * b, axis=-1) bit for bit, for (..., 3) operands that broadcast.

    The product is formed before it is indexed, so b may be any operand that
    broadcasts against a, a scalar too.  Its first column is added to +0.0,
    as np.sum does, so three -0.0 products sum to +0.0.
    """
    m = a * b
    out = m[..., 0] + 0.0
    out += m[..., 1]
    out += m[..., 2]
    return out


def evaluate(ph, x):
    """Point values of the density; x may be a single vector or (..., 3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for prim in ph.primitives:
        r2 = _sum_squares(x[..., i] - prim.center[i] for i in range(3))
        if prim.kind == GAUSSIAN:
            out = out + prim.amplitude * np.exp(-r2 / prim.scale**2)
        else:
            out = out + np.where(r2 <= prim.scale**2, prim.amplitude, 0.0)
    return out if out.ndim else float(out)


def riesz_potential(ph, x):
    """The Riesz potential I^1 f = (-Laplacian)^(-1/2) f = (1/(2 pi^2)) int f(y) / |x - y|^2 dy
    of the density, at x a single vector or (..., 3); the radon branch reconstructs
    -16 pi^3 times it.  Per primitive, at r = |x - c|:

    * gaussian (A, a): A a^2 D(r/a) / (sqrt(pi) r), D Dawson's function, with the
      limit A a / sqrt(pi) at r = 0;
    * ball (A, R), a sum of spherical shells: (A / (pi r)) [r R + (R^2 - r^2) / 2
      ln|(r + R) / (r - R)|], with the limit 2 A R / pi at r = 0 and the value
      A R / pi at r = R.  The logarithm is taken as 2 atanh(min(r, R) / max(r, R)),
      exact to rounding near r = 0; far outside, where the bracket tends to
      2 R^3 / (3 r), it loses about (r / R)^2 ulps to cancellation.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for prim in ph.primitives:
        r = np.sqrt(_sum_squares(x[..., i] - prim.center[i] for i in range(3)))
        a = prim.scale
        # r = 0, and for a ball r = R, are the limits; np.where evaluates both sides
        with np.errstate(divide="ignore", invalid="ignore"):
            if prim.kind == GAUSSIAN:
                value = np.where(r > 0.0, a * a * dawsn(r / a) / (SQRT_PI * r), a / SQRT_PI)
            else:
                log = 2.0 * np.arctanh(np.minimum(r, a) / np.maximum(r, a))
                value = (r * a + 0.5 * (a * a - r * r) * log) / (np.pi * r)
                value = np.where(r == a, a / np.pi, np.where(r > 0.0, value, 2.0 * a / np.pi))
        out = out + prim.amplitude * value
    return out if out.ndim else float(out)


def gaussian_sphere_mean(ph, x, t):
    """M_t f(x), the mean of the density over the sphere of radius t about x, at x
    a single vector or (..., 3) and t >= 0 broadcasting against x[..., 0].
    Gaussian primitives only: a ball's mean is piecewise in t, with kinks at
    t = |R - r| and R + r, and is rejected by name.  Per Gaussian (A, a), at
    r = |x - c|:

        A a^2 / (4 r t) [e^(-(r - t)^2/a^2) - e^(-(r + t)^2/a^2)]
            = A e^(-(r - t)^2/a^2) (1 - e^(-2u)) / (2u),  u = 2 r t / a^2,

    the second form free of overflow, with the limit A e^(-(r - t)^2/a^2) at
    u = 0 (at r = 0 or t = 0).
    """
    if not ph.is_smooth:
        raise ValueError("gaussian_sphere_mean takes Gaussian primitives only, not a ball")
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], np.shape(t)))
    for prim in ph.primitives:
        a2 = prim.scale**2
        r = np.sqrt(_sum_squares(x[..., i] - prim.center[i] for i in range(3)))
        u = 2.0 * r * t / a2
        ratio = np.where(u > 0.0, -np.expm1(-2.0 * u) / np.where(u > 0.0, 2.0 * u, 1.0), 1.0)
        out = out + prim.amplitude * np.exp(-((r - t) ** 2) / a2) * ratio
    return out if out.ndim else float(out)


# Gauss-Legendre nodes in t of xray_step_target's mean over [0, h].
STEP_TARGET_NODES = 64


def xray_step_target(ph, x, h):
    """T_h f(x) = (1/h) int_0^h M_t f(x) dt (gaussian_sphere_mean) at x a single
    vector or (..., 3): the x-ray branch's exact limit at step h, since each
    ray's central difference Xf(x + h n, n) - Xf(x - h n, n) is
    -int_{-h}^{h} f(x + t n) dt.  Gaussian primitives only.  The mean over t is
    STEP_TARGET_NODES-point Gauss-Legendre: M_t of a Gaussian is entire in t,
    and the rule is within 2e-15 of max|T_h| of a 200-node one for h up to six
    widths.  T_h f - f =
    (h^2 / 18) Laplacian f + O(h^4)."""
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    x = np.asarray(x, dtype=float)
    z, w = np.polynomial.legendre.leggauss(STEP_TARGET_NODES)
    t = 0.5 * h * (z + 1.0)
    return 0.5 * np.sum(w * gaussian_sphere_mean(ph, x[..., None, :], t), axis=-1)


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
        p = _dot(rel, n)
        r2 = _sum_squares(np.moveaxis(rel, -1, 0))
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


def ray_differences(ph, points, h, nodes, weights):
    """Central-difference ray data Xf(x + h n, n) - Xf(x - h n, n) at a batch of
    points, summed over the nodes of a sphere quadrature.

    points has shape (P, 3), nodes (K, 3) unit directions and weights (K,);
    other shapes raise a ValueError before any work.
    Returns the (P,) array sum_k w_k [Xf(x + h n_k, n_k) - Xf(x - h n_k, n_k)];
    a single ray is ray_differences(ph, x[None], h, n[None], np.ones(1)).
    Each ray's difference is -int_{-h}^{h} f(x + t n) dt.  A Gaussian's (width
    a, amplitude A) is -A * exp(-d^2/a^2) * int_{-h}^{h} exp(-(p + t)^2/a^2) dt,
    with p = n.(x - c) and d^2 = |x - c|^2 - p^2 the same at both ends of the
    step, summed as a short series in p^2 (see _gaussian_series) or, outside
    its bound, by the erfc form of _looped_sum, taken at |p|; each equals the
    difference of two halfline_integral calls up to rounding.  Each point is
    held to the bound at its own t = (h/a) max(1, |x - c|/a) (_series_fits), so
    only the points far from a Gaussian run over node blocks.

    A series-form Gaussian, exp(-|x - c|^2/a^2) * sum_j c_j p^2j, has no loop
    over nodes.  With y = x - c, sum_k w_k (n_k . y)^2j expands into
    sum over a + b + c = 2j of (2j)!/(a! b! c!) m_abc y1^a y2^b y3^c, where
    m_abc = sum_k w_k n1^a n2^b n3^c are the quadrature's moments, formed at
    most once per series order (see _moments).  So the sphere sum of the
    j >= 1 terms is one polynomial in y per Gaussian, evaluated by nested
    Horner over its points (_moment_series); then c_0 * sum_k w_k is added and
    the sum is multiplied by exp(-|x - c|^2/a^2).  The expansion's summands are
    bounded in size by sum_k w_k sum_{j>=1} |c_j| |y|^2j, since
    |n1 y1| + |n2 y2| + |n3 y3| <= |y|, and the Cauchy estimate of
    _gaussian_series puts that at e^3 t^2 / (3 (1 - t^2)) < 0.113 of
    2 h |A| sum_k w_k for t < 0.1286.  Its rounding, that of sums over K nodes
    and of at most 524 coefficients, each rounded a few dozen times in the
    Horner chain, stays far below the series' share of the result.

    A ball (radius a, amplitude A) classifies the points by |x - c|^2.  Where
    |x - c| <= a - h, every segment [x - h n, x + h n] lies in the ball and
    the sum is exactly (-2 h A) * sum_k w_k; where |x - c| >= a + h, none
    meets it and the sum is +0.0.  Only the points between run over node
    blocks, by two halfline_integral calls on that ball alone
    (geometry.difference_sum, as lift_xray_data does).  Each primitive adds its
    terms in phantom order: a ball its interior, then its shell; a Gaussian its
    erfc-form points, then its series-form ones.
    """
    points, nodes, weights = as_sum_inputs(points, nodes, weights, "ray_differences")
    columns = np.ascontiguousarray(points.T)
    total = float(np.sum(weights))
    out = np.zeros(points.shape[0])
    moments = {}  # by series order: a lower order's table is a higher one's corner on the entries it reads
    for prim in ph.primitives:
        y = columns - prim.center[:, None]
        r2 = _sum_squares(y)
        if prim.kind == BALL:
            inside = (r2 <= (prim.scale - h) ** 2) & (h < prim.scale)
            shell = ~(inside | (r2 >= (prim.scale + h) ** 2))  # a NaN point is in the shell
            out[inside] += -2.0 * h * prim.amplitude * total
            if np.any(shell):
                ball = functools.partial(halfline_integral, Phantom((prim,), ph.support_radius))
                out[shell] += difference_sum(ball, points[shell], h, nodes, weights)
            continue
        near = slice(None)  # the bound grows with |x - c|: if the farthest point passes, all do
        if not _series_fits(prim, np.max(r2, initial=0.0), h, SERIES_MAX_ORDER):
            near = _series_fits(prim, r2, h, SERIES_MAX_ORDER)
            far = ~near
            out[far] += _looped_sum(prim, r2[far], columns.compress(far, axis=1), nodes, weights, h)
            if not near.any():
                continue
        coeffs = _gaussian_series(prim, np.max(r2[near], initial=0.0), h)
        order = len(coeffs) - 1
        if order not in moments:
            moments[order] = _moments(nodes, weights, order)
        acc = _moment_series(y[:, near], coeffs, moments[order])
        acc += coeffs[0] * total
        acc *= np.exp(r2[near] / -(prim.scale * prim.scale))
        out[near] += acc
    return out


def _looped_sum(prim, r2, columns, nodes, weights, h):
    """sum_k w_k of one Gaussian's ray differences at the (3, F) columns, at squared
    distances r2 from its centre: A * a * (sqrt(pi)/2) * exp(-d^2/a^2) *
    [erfc((|p|+h)/a) - erfc((|p|-h)/a)], a geometry.sphere_sum over blocks of
    node_blocks(K, F) nodes.  The difference is even in p, and at |p| both erfc
    arguments are >= -h/a, so it keeps its relative accuracy where p < 0 (there
    both erfc((p +- h)/a) are near 2)."""
    a = prim.scale
    nc = _dot(nodes, prim.center)[:, None]

    def differences(block, bnodes):
        # n . x term by term, not by a matrix product: BLAS rounds a product
        # differently for different shapes, and the 1/(2h) of the central
        # difference would carry that into the reconstruction.
        p = bnodes[:, :1] * columns[0]
        p += bnodes[:, 1:2] * columns[1]
        p += bnodes[:, 2:3] * columns[2]
        p -= nc[block]
        np.abs(p, out=p)
        # in place: a new (B, F) array per operation, page-faulted afresh at
        # every block, made a 33^3 volume's one-node blocks about 15% slower
        gap = np.add(p, h)
        gap /= a
        erfc(gap, out=gap)
        u = np.subtract(p, h)
        u /= a
        gap -= erfc(u, out=u)
        p *= p
        np.subtract(r2, p, out=p)
        np.maximum(p, 0.0, out=p)  # d^2
        p /= -(a**2)
        gap *= np.exp(p, out=p)
        return gap

    out = sphere_sum(nodes, weights, columns.T, differences, columns.shape[1])
    out *= prim.amplitude * a * (SQRT_PI / 2.0)
    return out


def _powers(columns, degree):
    """Powers 0 .. degree of each row of a (3, N) array, as (3, degree + 1, N),
    by repeated multiplication (a float power of a negative base is slow)."""
    out = np.empty((3, degree + 1, columns.shape[1]))
    out[:, 0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(out[:, e - 1], columns, out=out[:, e])
    return out


def _moments(nodes, weights, order):
    """The quadrature's moments m[a, b, c] = sum_k w_k n1^a n2^b n3^c that the
    series reads, those of even total degree a + b + c <= 2 order, in a
    (2 order + 1,) * 3 array that is zero elsewhere.  A lower order's table
    equals this one's corner on every entry that order reads.

    One einsum per degree s = a + b: its s + 1 rows (w n1^a) n2^(s - a) against
    the rows n3^c of c = s mod 2, ..., 2 order - s.  Elementwise products and
    einsums over the nodes, not a matrix product, for the reason given at the
    n . x of _looped_sum; each entry is the einsum over all exponents at once
    bit for bit.  At order 8 and 2,000 nodes that forms 525 entries in place
    of 4,913.
    """
    degree = 2 * order
    n1, n2, n3 = _powers(nodes.T, degree)
    weighted = weights * n1
    out = np.zeros((degree + 1,) * 3)
    for s in range(degree + 1):
        a = np.arange(s + 1)
        c = slice(s % 2, degree - s + 1, 2)
        out[a, s - a, c] = np.einsum("ak,ck->ac", weighted[: s + 1] * n2[s::-1], n3[c])
    return out


def _series_tensor(coeffs, moments):
    """The coefficients C[a, b, c] = coeffs[j] (2j)!/(a! b! c!) m[a, b, c] of
    y1^a y2^b y3^c in sum_k w_k sum_{j>=1} coeffs[j] (n_k . y)^2j, a + b + c = 2j,
    as a (2M + 1,) * 3 array that is zero at every other total degree.  moments
    may be the table of a higher order: its corner is read."""
    order = len(coeffs) - 1
    n = 2 * order + 1
    e = np.arange(n)
    total = e[:, None, None] + e[:, None] + e
    fact = np.array([math.factorial(k) for k in range(3 * n - 2)], dtype=float)
    # exact up to degree 2M: (2M)! <= 16! < 2^53, and each quotient is an integer
    multinomial = fact[total] / (fact[:n, None, None] * fact[:n, None] * fact[:n])
    weight = np.zeros(3 * n - 2)
    weight[2:n:2] = coeffs[1:]
    return weight[total] * multinomial * moments[:n, :n, :n]


def _horner(out, terms, x):
    """sum_i t_i x^i into out by Horner's scheme, from the terms t_n, ..., t_0
    (floats, or arrays that may be overwritten once read), highest first."""
    terms = iter(terms)
    out[...] = next(terms)
    for t in terms:
        out *= x
        out += t
    return out


def _moment_series(y, coeffs, moments):
    """sum_k w_k sum_{j>=1} coeffs[j] (n_k . y)^2j at every column of y, a (3, P)
    array of offsets x - c, from the moments of _moments.

    That is the polynomial sum C[a, b, c] y1^a y2^b y3^c of _series_tensor,
    evaluated by nested Horner: in y1 outermost, then y2, then in y3^2, since
    only even a + b + c occur (an odd a + b leaves one factor y3).  Its
    temporaries are four (P,) arrays."""
    degree = 2 * (len(coeffs) - 1)
    tensor = _series_tensor(coeffs, moments)
    y1, y2, y3 = y
    y3y3 = y3 * y3
    out, plane, column = (np.empty_like(y3y3) for _ in range(3))

    def column_sum(a, b):
        # sum_c C[a, b, c] y3^c over c = odd, odd + 2, ... up to degree - a - b
        odd = (a + b) % 2
        c = tensor[a, b, odd : degree - a - b + 1 : 2]
        if len(c) == 1 and not odd:
            return c[0]
        _horner(column, c[::-1], y3y3)
        if odd:
            np.multiply(column, y3, out=column)
        return column

    def plane_sum(a):
        return _horner(plane, (column_sum(a, b) for b in range(degree - a, -1, -1)), y2)

    return _horner(out, (plane_sum(a) for a in range(degree, -1, -1)), y1)


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
# t = delta * max(1, |x - c|/a) bounds every ray of a point.  A point whose bound
# at M = SERIES_MAX_ORDER (t up to about 0.1286) exceeds SERIES_TOL takes the erfc
# form; the others take the smallest M >= 1 that their largest t allows.  At
# M = 8 the moment series has 524 coefficients, each two in-place passes over
# the points (_moment_series), and no per-point table.
SERIES_TOL = 1e-16
SERIES_MAX_ORDER = 8


def _series_fits(prim, r2, h, order):
    """Whether the bound above at `order` is at most SERIES_TOL, at each squared distance r2."""
    with np.errstate(over="ignore"):  # a t that overflows fails the bound
        t = abs(h / prim.scale) * np.maximum(1.0, np.sqrt(r2) / prim.scale)
        return (t < 1.0) & (np.e**3 * t ** (2 * order + 2) <= SERIES_TOL * (2 * order + 3) * (1.0 - t * t))


def _gaussian_series(prim, r2, h):
    """The coefficients c_j of the series form exp(-|x - c|^2/a^2) * sum_j c_j p^2j
    at squared distances up to r2, which fits at SERIES_MAX_ORDER."""
    a = prim.scale
    delta = h / a
    order = next((m for m in range(1, SERIES_MAX_ORDER) if _series_fits(prim, r2, h, m)), SERIES_MAX_ORDER)
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
    return coeffs


def line_integral(ph, x, n):
    """Full-line integral through x in direction n, by its own closed form."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    shape = np.broadcast_shapes(x.shape, n.shape)
    out = np.zeros(shape[:-1])
    for prim in ph.primitives:
        rel = x - prim.center
        p = _dot(rel, n)
        r2 = _sum_squares(np.moveaxis(rel, -1, 0))
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


def plane_integral_derivative(ph, n, s):
    """d/ds of plane_integral(ph, n, s), by its own closed form.

    Gaussian: -2 pi A (s - n.c) exp(-(s - n.c)^2 / a^2).
    Ball: -2 pi A (s - n.c) on the slab |s - n.c| <= R, 0 outside.
    n.c is taken by np.dot, the per-row dot of plane_integral_rows' np.vecdot.
    """
    n = as_direction(n)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for prim in ph.primitives:
        offset = s - float(np.dot(n, prim.center))
        slope = -2.0 * np.pi * prim.amplitude * offset
        a = prim.scale
        if prim.kind == GAUSSIAN:
            out = out + slope * np.exp(-(offset * offset) / a**2)
        else:
            out = out + np.where(np.abs(offset) <= a, slope, 0.0)
    return out if out.ndim else float(out)


def plane_integral_rows(ph, nodes, s, out=None):
    """plane_integral for K normals on one offset grid: the (K, S) array of
    Rf(nodes[k], s[j]), for nodes of shape (K, 3) and s of shape (S,), into
    out (a (K, S) array) when given.

    Runs over blocks of node_blocks(K, S) rows: every primitive is added to a
    block while it is in cache, through one scratch buffer of a block's rows.
    n.c is np.vecdot(nodes, c), the same per-row dot as np.dot(n, c), so
    every row is the same arithmetic as the one-normal case, whatever rows
    it is computed with.  (nodes @ c and einsum round about 2/3 of the
    values differently.)  out starts at zeros and every term is added to
    it: written straight into out, a negative amplitude's first term would
    keep a -0.0 that the sum makes +0.0.
    """
    nodes = np.asarray(nodes, dtype=float)
    s = np.asarray(s, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3 or s.ndim != 1:
        raise ValueError("plane_integral_rows needs nodes (K, 3) and offsets (S,)")
    if out is None:
        out = np.zeros((nodes.shape[0], s.size))
    else:
        out.fill(0.0)
    blocks = node_blocks(nodes.shape[0], s.size)
    buf = np.empty((min(nodes.shape[0], blocks[0].stop) if blocks else 0, s.size))
    nc = [np.vecdot(nodes, prim.center)[:, None] for prim in ph.primitives]
    for block in blocks:
        bout = out[block]
        bbuf = buf[: bout.shape[0]]
        for prim, nck in zip(ph.primitives, nc):
            term = np.subtract(s, nck[block], out=bbuf)
            np.square(term, out=term)
            a = prim.scale
            if prim.kind == GAUSSIAN:
                term /= -(a**2)  # -(x^2)/a^2, bit for bit
                np.exp(term, out=term)
                term *= prim.amplitude * a * a * np.pi
            else:
                np.subtract(a * a, term, out=term)
                np.maximum(term, 0.0, out=term)
                term *= prim.amplitude * np.pi
            bout += term
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
