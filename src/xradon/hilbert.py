"""Filters and cubic resampling of sampled profiles.

Sign convention: Hf(s) = (1/pi) P.V. integral f(sigma) / (s - sigma) d sigma,
so that H[1/(1+s^2)] = s/(1+s^2), H[cos] = sin, and H(H f) = -f.

Every filter of a row is one linear convolution, over the whole row or over a
window of its samples: H and d/ds H with a band-limited Kernel by FFT, whose
every filtered sample reads the whole row, and d^2/ds^2 with the local 7-point
Stencil SECOND_DIFFERENCE, whose sample j reads samples j - 3..j + 3 alone,
summed in one order, so that a window's samples are the whole row's bitwise.
The FFT is numpy.fft's, so no filter loads scipy.  The tests hold H to a
direct singularity-subtracted quadrature.  sample_rows reads filtered rows
by cubic interpolation; CubicReader is its reusable form, for a stream of
node blocks, and FilteredBlocks filters such a stream a chunk at a time,
fetching each chunk from a Radon row source.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import ROWS, node_blocks

# Relative endpoint magnitude above which a profile is considered
# non-decaying; the samples beyond the grid, taken as zero, would then
# corrupt the filtered profile.
DECAY_TOL = 1e-3


class ProfileDecayError(ValueError):
    """A profile does not decay at the ends of its grid (see DECAY_TOL)."""


def _check_decay(values):
    """Reject any row of `values` (samples along the last axis) holding a NaN or an
    inf sample (ValueError), or not decaying at its ends (ProfileDecayError)."""
    values = np.asarray(values)
    # max |v| as max(max v, -min v): no |values| temporary; NaN or inf only if a sample is
    peak = np.maximum(np.max(values, axis=-1), -np.min(values, axis=-1))
    if not np.all(np.isfinite(peak)):
        bad = ~np.isfinite(values)
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"profile holds {int(np.count_nonzero(bad))} non-finite sample(s) (NaN or inf), "
            f"the first at index {first}"
        )
    edge = np.maximum(np.abs(values[..., 0]), np.abs(values[..., -1]))
    bad = edge > DECAY_TOL * peak
    if np.any(bad):
        ratio = float(np.max(edge[bad] / peak[bad]))
        raise ProfileDecayError(
            f"profile does not decay at the grid ends (edge/peak = {ratio:.3g}); "
            "the filtered profile would be corrupted by the truncation"
        )


class Kernel(NamedTuple):
    """A band-limited kernel at unit spacing; at spacing tau each tap is over tau**order."""

    centre: float  # the tap at lag 0
    taps: Callable[[np.ndarray], np.ndarray]  # the taps at the nonzero integer lags k
    order: int


# H (odd) and d/ds H (even, the ramp |w|): the inverse transform of each multiplier
# over |w| <= pi / tau at the lags k tau, times tau (Kak & Slaney, Principles of
# Computerized Tomographic Imaging, 1988, ch. 3).
HILBERT = Kernel(0.0, lambda k: np.where(k % 2 == 1, 2.0 / (np.pi * k), 0.0), 0)
HILBERT_DERIVATIVE = Kernel(np.pi / 2.0, lambda k: np.where(k % 2 == 1, -2.0 / (np.pi * k * k), 0.0), 1)


class Stencil(NamedTuple):
    """A local kernel at unit spacing: its taps at the lags -r..r, an odd count;
    at spacing tau each tap is over tau**order."""

    taps: tuple
    order: int


# d^2/ds^2 by the 7-point central second difference, of order 6 in the spacing.  The
# classical inversion is local in s in three dimensions (Natterer, The Mathematics of
# Computerized Tomography, 1986, ch. II), and the cubic read-out's order-4 error
# dominates this one's on the profiles here.
SECOND_DIFFERENCE = Stencil((1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90), 2)


def _next_fast_len(n):
    """The smallest 2-3-5-smooth integer >= n (n >= 1), a length pocketfft
    transforms fast: the rule of scipy's next_fast_len(n, real=True)."""
    best = 2 * n
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # odd 3^b 5^c times the least power of two that takes it to n or past
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


@functools.lru_cache(maxsize=16)
def _kernel_spectrum(kernel, count, start, width):
    """FFT length m and the rfft of `kernel` for the output samples start..start +
    width - 1 of rows of `count` samples: its taps at the lags start - (count - 1)
    .. start + width - 1, lag start + q at point q mod m, so that a zero-padded
    row's circular convolution with them is, at points 0..width - 1, the linear
    one at those samples.  Cached per kernel, row length and window for the
    blocks of a filter pass; read-only, so no caller can change the cached copy.
    The whole row, start 0 and width count, is convolve_rows' spectrum.

    m is the next fast length from count + width - 2 where the window is wider
    than one sample and the taps at the two extreme lags are equal: on that many
    points those two lags share one point, and each is read only by the output
    sample at its own end of the window (the lag start - (count - 1) by sample
    start, from the row's last sample; the lag start + width - 1 by the last
    sample, from the row's first).  On the whole row that holds for the even
    HILBERT_DERIVATIVE at every count, and for the odd HILBERT at odd count,
    whose even lag count - 1 has a zero tap.  Elsewhere m starts from count +
    width - 1.  The next fast length is _next_fast_len's, and the transform
    numpy.fft.rfft."""
    lags = np.arange(start - count + 1, start + width)
    taps = np.full(lags.size, kernel.centre)
    nonzero = lags != 0
    taps[nonzero] = kernel.taps(lags[nonzero])
    shared = width > 1 and bool(taps[0] == taps[-1])
    m = _next_fast_len(count + width - 1 - shared)
    circular = np.zeros(m)
    circular[:width] = taps[count - 1:]
    circular[m - count + 1:] = taps[:count - 1]
    spectrum = np.fft.rfft(circular)
    spectrum.flags.writeable = False
    return m, spectrum


def convolve_rows(values, kernel, spacing, out=None):
    """The linear convolution of each row of `values` (samples along the last axis,
    at the given spacing) with a Kernel, by one real FFT of length >= 2S - 2 for
    rows of S samples (_kernel_spectrum): exact for band-limited samples, with
    no wrap-around; or with a Stencil, by shift-and-add.  The samples beyond
    the grid count as zero, so every row must decay (DECAY_TOL) and be finite;
    that is checked for all rows before any is written.

    The rows run in blocks of geometry.node_blocks(rows, 2 S) (_filter_rows); a
    row's result does not depend on its block.  out, an array of values' shape,
    receives the result; out=values filters a stack that nothing else uses in
    place.  FilteredBlocks gives the same rows of a row source a chunk at a
    time, with no (K, S) array, or any window of their samples.
    """
    values = np.asarray(values, dtype=float)
    _check_decay(values)
    n = values.shape[-1]
    out = np.empty(values.shape) if out is None else out
    _filter_rows(values.reshape(-1, n), kernel, spacing, out.reshape(-1, n), 0)
    return out


def _filter_rows(rows, kernel, spacing, out, start):
    """The samples start..start + W - 1 of convolve_rows of the (R, S) rows into
    out, (R, W), with no decay check: in blocks of geometry.node_blocks(R, 2 S),
    each read whole before its samples are written to out.  out may be the
    first R W values of the rows' own array: a block's samples then end no
    further on than its own rows, which it has read.

    A Kernel's block is copied into a (B, m) real scratch and zero-padded
    there, transformed by numpy.fft.rfft into a (B, m // 2 + 1) complex
    scratch, multiplied there by the spectrum of the kernel's window, and
    transformed back by numpy.fft.irfft over the real scratch, whose first W
    samples per row, over the spacing**order, go to out; both scratch arrays
    are allocated once per call.  A Stencil's block is copied into a
    zero-padded scratch, allocated once per call, and each output sample sums
    its taps' products lag by lag, in the order of the taps, into out: the same
    operations on the same inputs for any window that holds it."""
    n = rows.shape[-1]
    width = out.shape[-1]
    scale = spacing**kernel.order
    blocks = node_blocks(rows.shape[0], 2 * n)
    height = rows[blocks[0]].shape[0] if blocks else 0
    if isinstance(kernel, Stencil):
        reach = len(kernel.taps) // 2
        padded = np.zeros((height, n + 2 * reach))
        term = np.empty((height, width))
        for block in blocks:
            ext = padded[: rows[block].shape[0]]
            ext[:, reach:reach + n] = rows[block]
            acc, product = out[block], term[: ext.shape[0]]
            np.multiply(ext[:, start:start + width], kernel.taps[0], out=acc)
            for lag, tap in enumerate(kernel.taps[1:], 1):
                acc += np.multiply(ext[:, start + lag:start + lag + width], tap, out=product)
            acc /= scale
        return
    m, taps = _kernel_spectrum(kernel, n, start, width)
    padded = np.empty((height, m))
    spectra = np.empty((height, taps.size), dtype=complex)
    for block in blocks:
        # padded here, not by rfft's n=m: numpy pads a short row by a slower path
        ext = padded[: rows[block].shape[0]]
        ext[:, :n] = rows[block]
        ext[:, n:] = 0.0
        spectrum = np.fft.rfft(ext, out=spectra[: ext.shape[0]])
        spectrum *= taps
        np.fft.irfft(spectrum, n=m, out=ext)
        np.divide(ext[:, :width], scale, out=out[block])


# The rows of one FilteredBlocks chunk: as many whole node blocks as fit in
# CHUNK_SAMPLES samples (512 KB of float64, about eight FFT blocks of
# node_blocks(K, 2 S)), and at least one.  Each chunk pays one fetch and one
# decay check of its source's rows: on the radon_volume benchmark's two invert
# ops (300 nodes, 801 samples, node blocks of 3), chunks of one FFT block
# (9 rows) took 14% longer than one chunk of all 300 rows, and chunks of
# 4 ROWS samples (81 rows) were within 2% of it, inside the spread of the
# measurement (BENCH_29.json).
CHUNK_SAMPLES = 4 * ROWS


class FilteredBlocks:
    """The samples `window` of the rows of a Radon row source `data` filtered by
    kernel, convolve_rows(all K rows, kernel, data.spacing)[block, window] (bitwise
    for the whole row, and for any window of a Stencil), for the node blocks of
    geometry.node_blocks(K, width), of at most `rows` rows each, taken in order,
    with no (K, S) array.

    data is a row source (inversion.RadonDataset, inversion.PhantomProfiles):
    data.count rows of data.samples samples at data.spacing, and
    data.rows(start, stop, scratch), rows start..stop as an array, either a
    view of the source's own or the (stop - start, S) scratch filled.  window,
    a slice of the S sample indices (all of them for None), is the W samples
    of each filtered row that filtered(block) gives.  Each row is still fetched
    and checked whole: each sample filtered by a Kernel reads all of it, and a
    Stencil's samples near the grid's ends read the zeros beyond it.  A
    chunk is as many whole node blocks as fit in CHUNK_SAMPLES, and at least
    one, so a node block never straddles two chunks.  filtered(block) fetches
    the block's chunk into one scratch array when the block is the first read
    from it, checks its rows (ProfileDecayError, before any of them is
    filtered) and filters their windows into the first W values per row of
    that scratch, in place when the source filled it; the next chunk
    overwrites the view.
    """

    def __init__(self, data, kernel, rows, window=None):
        self._data, self._kernel = data, kernel
        self._window = slice(0, data.samples) if window is None else window
        self._chunk = rows * max(1, CHUNK_SAMPLES // data.samples // rows)
        self._scratch = np.empty((min(self._chunk, data.count), data.samples))
        width = self._window.stop - self._window.start
        self._filtered = self._scratch.reshape(-1)[: self._scratch.shape[0] * width].reshape(-1, width)
        self._start = None

    def __call__(self, block):
        total = self._data.count
        start = block.start - block.start % self._chunk
        if start != self._start:
            stop = min(start + self._chunk, total)
            values = self._data.rows(start, stop, self._scratch[: stop - start])
            _check_decay(values)
            _filter_rows(values, self._kernel, self._data.spacing, self._filtered[: stop - start], self._window.start)
            self._start = start
        return self._filtered[block.start - start: min(block.stop, total) - start]


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
# before v[0] from v[0..3] (and, reversed, the one after v[-1]).  Each row's
# ghost is its own np.vecdot with _GHOST, the per-row dot of np.dot: a
# (K, 4) @ (4,) product rounds a row by where it sits among the K, so the
# ghost would depend on the rows evaluated with it.
_GHOST = np.array([4.0, -6.0, 4.0, -1.0])


def _ghost_rows(v, out=None):
    """Each row of v with a ghost sample at both ends: shape (K, S + 2), sample j
    of a row in column j + 1, so interval j's stencil is columns j..j+3."""
    rows, count = v.shape
    ext = np.empty((rows, count + 2)) if out is None else out
    ext[:, 1:-1] = v
    np.vecdot(v[:, :4], _GHOST, out=ext[:, 0])
    np.vecdot(v[:, :-5:-1], _GHOST, out=ext[:, -1])
    return ext


def _stencils(ext):
    """The (K, S - 1, 4) stencils of the ghost-extended rows ext, (K, S + 2): row k's
    columns j..j+3 at [k, j], as an overlapping read-only view."""
    rows, width = ext.shape
    step = ext.strides[1]
    return as_strided(ext, (rows, width - 3, 4), (ext.strides[0], step, step), writeable=False)


def _cubic_coefficients(v):
    """Per-interval coefficients of the 4-point Lagrange interpolant of each row of v.

    Returns c of shape (K, S - 1, 4): on interval j of row k, between
    samples j and j + 1, the interpolant is sum_m c[k, j, m] * w**m with
    w = t - j the offset from sample j in grid steps, so an interval's four
    coefficients are contiguous.  Interval j takes the stencil j-1..j+2;
    the first and last intervals take the nearest full stencil, 0..3 and
    S-4..S-1, through a ghost sample on that cubic.  The stencils overlap,
    so numpy's matmul does not hand them to BLAS: its own loop forms every
    coefficient, whatever the layout of its output (CubicReader's tables).
    """
    return np.matmul(_stencils(_ghost_rows(v)), _STENCIL)


def _query_coefficients(v, index, inner=False):
    """The coefficients of _cubic_coefficients at the intervals index[k] of row k only.

    index has shape (K, Q); returns c of shape (4, K, Q).  The (K, 4, Q)
    stencils, samples j - 1 .. j + 2 of interval j, are gathered from the
    rows themselves at indices clipped to the row.  Only where a stencil
    runs off the row, at intervals 0 and S - 2, is the clipped sample
    replaced by the row's ghost, so no (K, S + 2) ghost-extended copy is
    made.  inner=True is the caller's proof that every interval lies in
    1..S - 3: no stencil then runs off the row, and both the clip and the
    ghosts are skipped, which could change no bit.  The stencils are
    multiplied as a (K, Q, 4) view.  numpy hands neither that view nor the
    tables' overlapping stencils to BLAS: both run its own loop, so every
    coefficient is bitwise the table's.
    """
    rows, count = v.shape
    at = index[:, None, :] + np.arange(-1, 3)[:, None]
    if not inner:
        np.clip(at, 0, count - 1, out=at)
    at += count * np.arange(rows)[:, None, None]
    stencils = np.take(v, at)
    if not inner:
        # the ghosts of every row, as _ghost_rows forms them: a row's dot depends on its strides
        k, q = np.nonzero(index == 0)
        stencils[k, 0, q] = np.vecdot(v[:, :4], _GHOST)[k]
        k, q = np.nonzero(index == count - 2)
        stencils[k, 3, q] = np.vecdot(v[:, :-5:-1], _GHOST)[k]
    c = np.empty((4,) + index.shape)
    np.matmul(stencils.transpose(0, 2, 1), _STENCIL, out=c.transpose(1, 2, 0))
    return c


def grid_slack(s_min, s_max):
    """The rounding slack of an s-grid on [s_min, s_max]: 1e-9 of the larger of
    |s_min|, |s_max| and 1."""
    return 1e-9 * max(abs(s_min), abs(s_max), 1.0)


def offsets_on_grid(lo, hi, s_min, s_max):
    """Whether the offsets from lo to hi lie on [s_min, s_max], within grid_slack
    for the rounding in x . n."""
    eps = grid_slack(s_min, s_max)
    return lo >= s_min - eps and hi <= s_max + eps


def _per_query(queries, count):
    """Whether sample_rows forms coefficients per query: fewer queries than intervals."""
    return queries < count - 1


def sample_width(queries, count):
    """Values one sample_rows call holds per row, for `queries` offsets on a row of
    `count` samples: four stencil samples per query, or the larger of the
    queries and the four (S - 1)-interval tables (taken as 4 S)."""
    return 4 * queries if _per_query(queries, count) else max(queries, 4 * count)


def _horner(c, w, out):
    """c[0] + w (c[1] + w (c[2] + w c[3])) into out: the one order of every read-out."""
    np.multiply(c[3], w, out=out)
    for m in (2, 1):
        out += c[m]
        out *= w
    out += c[0]
    return out


class CubicReader:
    """sample_rows for a stream of blocks of at most `rows` rows, each the samples
    `window` (a slice; all of them for None) of a row of `count` samples on one
    uniform grid over [s_min, s_max], read at `queries` offsets per row.

    reader(values, s) is sample_rows(values, s_min, s_max, s) for a (B, S)
    block and its (B, Q) offsets, bitwise, for the whole-row window.  A window
    of W samples j0..j1 is read as rows of their own on [s_min + j0 h,
    s_min + j1 h], h the grid's spacing, through ghosts at its two ends; the
    offsets are checked against the whole grid (offsets_on_grid), and each
    cell is clamped to the intervals 0..W - 2.  in_range=True is the caller's
    proof that every offset of every call lies on the grid and that its place
    (s - s_min - j0 h) / h truncates into the intervals 1..W - 3: then neither
    the check nor the clamps could change a bit, and the reader skips both,
    and on the per-query path the clip and the ghosts of its stencils too
    (_query_coefficients' inner; inversion._backproject proves it once per
    call).  On the tables' path (Q >= W - 1) every array a block needs is a slice of
    scratch allocated here, once: the offsets in grid steps, the
    ghost-extended rows, the (B, W - 1, 4) interval tables, the cells and
    their indices, the (B Q, 4) coefficients that one gather per query takes
    from the tables, and the result.  The result is then a view of that
    scratch, overwritten by the next call.  The per-query path (Q < W - 1)
    forms its stencils per call.  offsets(B) is the scratch of a block's
    offsets: a caller may write them there, and the call reads them in place.
    """

    def __init__(self, rows, count, queries, s_min, s_max, window=None, in_range=False):
        self._s_min, self._s_max = s_min, s_max
        self._checked = not in_range
        self._spacing = (s_max - s_min) / (count - 1)
        start, stop = (0, count) if window is None else (window.start, window.stop)
        # s_min itself for the whole row: s_min + 0 h may differ from it in the sign of a zero
        self._origin = s_min + start * self._spacing if start else s_min
        count = stop - start
        self._steps = np.empty((rows, queries))
        if _per_query(queries, count):
            self._tables = None
            return
        self._ext = np.empty((rows, count + 2))
        self._stencils = _stencils(self._ext)
        self._tables = np.empty((rows, count - 1, 4))
        self._cells = np.empty((rows, queries))
        self._index = np.empty((rows, queries), dtype=np.intp)
        self._gathered = np.empty((rows * queries, 4))
        self._row_start = (count - 1) * np.arange(rows)[:, None]

    def offsets(self, rows):
        """The (rows, Q) scratch that the next call's offsets may be written into."""
        return self._steps[:rows]

    def __call__(self, values, s):
        rows, count = values.shape
        if self._checked and s.size and not offsets_on_grid(s.min(), s.max(), self._s_min, self._s_max):
            raise ValueError("query offset outside the profile range")
        w = np.subtract(s, self._origin, out=self._steps[:rows])
        w /= self._spacing
        cell = np.trunc(w, out=None if self._tables is None else self._cells[:rows])
        if self._checked:
            # the cell of each offset, clamped to the intervals 0..W - 2 (w may lie
            # beyond either end of the grid by its slack, more than a step on a fine grid);
            # maximum(-0.0, 0.0) is +0.0, so w - cell keeps w's bits there
            np.maximum(cell, 0.0, out=cell)
            np.minimum(cell, count - 2, out=cell)
        w -= cell
        if self._tables is None:
            c = _query_coefficients(values, cell.astype(np.intp), inner=not self._checked)
            return _horner(c, w, out=c[3])
        _ghost_rows(values, self._ext[:rows])
        tables = np.matmul(self._stencils[:rows], _STENCIL, out=self._tables[:rows])
        index = self._index[:rows]
        np.copyto(index, cell, casting="unsafe")
        index += self._row_start[:rows]
        gathered = self._gathered[: index.size]
        # one 4-coefficient row per query; the cells are in range, so "clip" clips nothing
        np.take(tables.reshape(-1, 4), index.reshape(-1), axis=0, mode="clip", out=gathered)
        return _horner(gathered.reshape(index.shape + (4,)).transpose(2, 0, 1), w, out=cell)


def sample_rows(values, s_min, s_max, s):
    """Evaluate row k of `values` at the offsets s[k] by 4-point Lagrange interpolation.

    `values` has shape (K, S): K profiles sampled on one uniform grid
    over [s_min, s_max].  `s` has shape (K, Q); the result has shape
    (K, Q).  Offsets off the grid (offsets_on_grid) are rejected.  Each
    query runs a Horner chain on the cubic coefficients of its interval.
    With fewer queries per row than intervals (Q < S - 1) those are formed
    for the queried intervals alone (_query_coefficients), from four
    samples per query; otherwise each query gathers its four from
    per-interval tables, one (K, S - 1, 4) array built from `values`
    (_cubic_coefficients).  sample_width gives the values a call holds per
    row.  Both give bitwise the same result, and row k's result depends on
    row k and s[k] alone.  This is one call of a CubicReader.
    """
    values = np.asarray(values, dtype=float)
    s = np.asarray(s, dtype=float)
    rows, count = values.shape
    return CubicReader(rows, count, s.shape[-1], s_min, s_max)(values, s)
