"""1D principal-value Hilbert transform and derivatives of sampled profiles.

Sign convention: Hf(s) = (1/pi) P.V. integral f(sigma) / (s - sigma) d sigma,
so that H[1/(1+s^2)] = s/(1+s^2), H[cos] = sin, and H(H f) = -f.

Two independent realizations are provided — a linear convolution with
the band-limited discrete kernel, applied by FFT, and a direct
singularity-subtracted quadrature — so each validates the other.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import fft as sfft

# Relative endpoint magnitude above which a profile is considered
# non-decaying; the samples beyond the grid, taken as zero, would then
# corrupt the PV integral.
DECAY_TOL = 1e-3


def _check_decay(values):
    """Reject any row of `values` (samples along the last axis) not decaying at its ends."""
    values = np.asarray(values)
    peak = np.max(np.abs(values), axis=-1)
    edge = np.maximum(np.abs(values[..., 0]), np.abs(values[..., -1]))
    bad = edge > DECAY_TOL * peak
    if np.any(bad):
        ratio = float(np.max(edge[bad] / peak[bad]))
        raise ValueError(
            f"profile does not decay at the grid ends (edge/peak = {ratio:.3g}); "
            "the PV integral would be corrupted by the truncation"
        )


@functools.lru_cache(maxsize=16)
def _kernel_spectrum(count):
    """FFT length m and the rfft of the band-limited kernel for rows of `count` samples.

    h[k] = 2/(pi k) for odd k and 0 for even k, k = -(count-1)..count-1,
    laid out circularly on m >= 2*count - 1 points, so that the circular
    convolution of a zero-padded row with it equals the linear one on the
    row's own samples.  Cached per row length, since a filter pass over
    blocks of rows asks for the same spectrum once per block; the array is
    read-only, so no caller can change the cached copy.
    """
    m = sfft.next_fast_len(2 * count - 1, real=True)
    k = np.arange(1, count)
    h = np.where(k % 2 == 1, 2.0 / (np.pi * k), 0.0)
    kernel = np.zeros(m)
    kernel[1:count] = h
    kernel[m - count + 1:] = -h[::-1]
    spectrum = sfft.rfft(kernel)
    spectrum.flags.writeable = False
    return m, spectrum


def hilbert_rows(values):
    """Hilbert transform of each row of `values` (samples along the last axis).

    Each row is convolved with the band-limited discrete Hilbert kernel
    h[k] = 2/(pi k), k odd (Kak & Slaney, Principles of Computerized
    Tomographic Imaging, 1988, ch. 3): exact for band-limited samples,
    with no DC shift and no interperiod interference.  The convolution is
    linear, by one real FFT of length >= 2S - 1 for rows of S samples.
    Every row must decay at both ends (see DECAY_TOL), since the samples
    beyond the grid are taken as zero.  The result does not depend on
    the grid spacing.
    """
    values = np.asarray(values, dtype=float)
    _check_decay(values)
    n = values.shape[-1]
    m, kernel = _kernel_spectrum(n)
    spectrum = sfft.rfft(values, n=m, axis=-1)
    spectrum *= kernel
    return sfft.irfft(spectrum, n=m, axis=-1)[..., :n].copy()


def hilbert_pv_direct(values, s_min, s_max):
    """Hilbert transform of one row by direct singularity-subtracted quadrature.

    `values` holds S samples on a uniform grid over [s_min, s_max].  Uses
    the decomposition
        pi * Hf(s) = int (f(sigma) - f(s)) / (s - sigma) d sigma
                     + f(s) * ln((s - s_min) / (s_max - s)),
    with the first term regular (its value at sigma = s is -f'(s)) and
    evaluated by the trapezoid rule.  The logarithmic end-correction
    diverges at the grid endpoints, so the result is the S - 2 samples
    on the interior grid, s_min + h .. s_max - h for the grid spacing h.
    """
    f = np.asarray(values, dtype=float).reshape(-1)
    _check_decay(f)
    s = np.linspace(s_min, s_max, f.size)
    h = (s_max - s_min) / (f.size - 1)
    targets = s[1:-1]
    ft = f[1:-1]
    # integrand g(sigma) = (f(sigma) - f(s)) / (s - sigma), rows = targets
    diff = f[None, :] - ft[:, None]
    denom = targets[:, None] - s[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = diff / denom
    # removable singularity at sigma = s: limit is -f'(s)
    fprime = (f[2:] - f[:-2]) / (2.0 * h)
    idx = np.arange(targets.size)
    g[idx, idx + 1] = -fprime
    trap = h * (np.sum(g, axis=1) - 0.5 * (g[:, 0] + g[:, -1]))
    correction = ft * np.log((targets - s_min) / (s_max - targets))
    return (trap + correction) / np.pi


def derivative_rows(values, spacing):
    """First derivative of each row of `values` on its own grid of the given spacing.

    Fourth-order central differences in the interior, second-order
    central at the penultimate points and second-order one-sided at the
    boundaries.
    """
    v = np.asarray(values, dtype=float)
    h = spacing
    d = np.empty_like(v)
    d[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]) / (12.0 * h)
    d[..., 1] = (v[..., 2] - v[..., 0]) / (2.0 * h)
    d[..., -2] = (v[..., -1] - v[..., -3]) / (2.0 * h)
    d[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    d[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return d


# Rows: the stencil values v[j-1], v[j], v[j+1], v[j+2] of interval j;
# columns: the coefficients c0..c3 of the Lagrange cubic through them in
# w = t - j.
_STENCIL = np.array(
    [
        [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
        [1.0, -0.5, -1.0, 0.5],
        [0.0, 1.0, 0.5, -0.5],
        [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],
    ]
)
# The cubic through four samples, extended by one step: the ghost sample
# before v[0] from v[0..3] (and, reversed, the one after v[-1]).
_GHOST = np.array([4.0, -6.0, 4.0, -1.0])


def _ghost_rows(v):
    """Each row of v with a ghost sample at both ends: shape (K, S + 2), sample j
    of a row in column j + 1, so interval j's stencil is columns j..j+3."""
    rows, count = v.shape
    ext = np.empty((rows, count + 2))
    ext[:, 1:-1] = v
    ext[:, 0] = v[:, :4] @ _GHOST
    ext[:, -1] = v[:, :-5:-1] @ _GHOST
    return ext


def _cubic_coefficients(v):
    """Per-interval coefficients of the 4-point Lagrange interpolant of each row of v.

    Returns c of shape (4, K, S - 1): on interval j of row k, between
    samples j and j + 1, the interpolant is sum_m c[m, k, j] * w**m with
    w = t - j the offset from sample j in grid steps.  Interval j takes
    the stencil j-1..j+2; the first and last intervals take the nearest
    full stencil, 0..3 and S-4..S-1, through a ghost sample on that cubic.
    """
    rows, count = v.shape
    ext = _ghost_rows(v)
    step = ext.strides[1]
    stencils = as_strided(ext, (rows, count - 1, 4), (ext.strides[0], step, step), writeable=False)
    c = np.empty((4, rows, count - 1))
    np.matmul(stencils, _STENCIL, out=c.transpose(1, 2, 0))
    return c


def _query_coefficients(v, index):
    """The coefficients of _cubic_coefficients at the intervals index[k] of row k only.

    index has shape (K, Q); returns c of shape (4, K, Q).  The stencils are
    gathered as (K, 4, Q) and multiplied as a (K, Q, 4) view.  numpy hands
    neither that view nor the tables' overlapping stencils to BLAS: both
    run its own loop, so every coefficient is bitwise the table's.
    """
    rows, count = v.shape
    at = index[:, None, :] + np.arange(4)[:, None]
    at += (count + 2) * np.arange(rows)[:, None, None]
    stencils = np.take(_ghost_rows(v), at)
    c = np.empty((4,) + index.shape)
    np.matmul(stencils.transpose(0, 2, 1), _STENCIL, out=c.transpose(1, 2, 0))
    return c


def offsets_on_grid(lo, hi, s_min, s_max):
    """Whether the offsets from lo to hi lie on [s_min, s_max], with a slack of
    1e-9 of the larger of |s_min|, |s_max| and 1 for the rounding in x . n."""
    eps = 1e-9 * max(abs(s_min), abs(s_max), 1.0)
    return lo >= s_min - eps and hi <= s_max + eps


def sample_rows(values, s_min, s_max, s):
    """Evaluate row k of `values` at the offsets s[k] by 4-point Lagrange interpolation.

    `values` has shape (K, S): K profiles sampled on one uniform grid
    over [s_min, s_max].  `s` has shape (K, Q); the result has shape
    (K, Q).  Offsets off the grid (offsets_on_grid) are rejected.  Each
    query runs a Horner chain on the cubic coefficients of its interval.
    With fewer queries per row than intervals (Q < S - 1) those are formed
    for the queried intervals alone (_query_coefficients); otherwise they
    are read from per-interval tables, four (K, S - 1) arrays built from
    `values` (_cubic_coefficients).  Both give bitwise the same result.
    """
    values = np.asarray(values, dtype=float)
    s = np.asarray(s, dtype=float)
    rows, count = values.shape
    if s.size and not offsets_on_grid(s.min(), s.max(), s_min, s_max):
        raise ValueError("query offset outside the profile range")
    h = (s_max - s_min) / (count - 1)
    w = s - s_min
    w /= h
    index = w.astype(np.intp)
    np.minimum(index, count - 2, out=index)
    np.maximum(index, 0, out=index)
    w -= index
    if s.shape[-1] < count - 1:
        coefficient = _query_coefficients(values, index).__getitem__
    else:
        # one (K, Q) gather per coefficient: a single (4, K, Q) gather of a
        # large batch measured slower, in the backprojection of a volume
        tables = _cubic_coefficients(values).reshape(4, -1)
        index += (count - 1) * np.arange(rows)[:, None]
        coefficient = lambda m: np.take(tables[m], index)
    out = coefficient(3)
    for m in (2, 1, 0):
        out *= w
        out += coefficient(m)
    return out
