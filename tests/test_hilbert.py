import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from xradon import geometry, hilbert
from xradon.geometry import ROWS
from xradon.hilbert import (
    CHUNK_SAMPLES,
    HILBERT,
    HILBERT_DERIVATIVE,
    SECOND_DIFFERENCE,
    FilteredBlocks,
    ProfileDecayError,
    _cubic_coefficients,
    _kernel_spectrum,
    _query_coefficients,
    convolve_rows,
    sample_rows,
    sample_width,
)
from conftest import ArrayRows, hilbert_pv_direct


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def lagrange_rows(values, s_min, s_max, s):
    """Reference for sample_rows: the 4-point Lagrange form, one term per sample."""
    rows, count = values.shape
    h = (s_max - s_min) / (count - 1)
    t = (s - s_min) / h
    base = np.clip(np.floor(t).astype(np.intp) - 1, 0, count - 4)
    u = t - base
    v = values[np.arange(rows)[:, None, None], base[..., None] + np.arange(4)]
    return (
        -(u - 1) * (u - 2) * (u - 3) / 6.0 * v[..., 0]
        + u * (u - 2) * (u - 3) / 2.0 * v[..., 1]
        - u * (u - 1) * (u - 3) / 2.0 * v[..., 2]
        + u * (u - 1) * (u - 2) / 6.0 * v[..., 3]
    )


def direct_convolution(row, lag0, taps):
    """The linear convolution of a row with the kernel whose tap at lag 0 is lag0 and
    at lag k != 0 is taps(k), one np.convolve over the lags -(S - 1)..S - 1."""
    n = row.size
    k = np.arange(-(n - 1), n).astype(float)
    h = np.full(k.size, lag0)
    nonzero = k != 0
    h[nonzero] = taps(k[nonzero])
    return np.convolve(row, h)[n - 1:2 * n - 1]


def hilbert_direct(row):
    """Reference for convolve_rows with HILBERT: the linear convolution with h[k] = 2/(pi k), k odd."""
    return direct_convolution(row, 0.0, lambda k: np.where(k % 2 == 1, 2.0 / (np.pi * k), 0.0))


def lorentzian_profile(count=4097, extent=40.0):
    s = np.linspace(-extent, extent, count)
    return 1.0 / (1.0 + s**2)


def gaussian_profile(count=4097, extent=40.0):
    s = np.linspace(-extent, extent, count)
    return np.exp(-(s**2))


def sample_at(row, s_min, s_max, s):
    """One row's cubic interpolant at the offsets s: sample_rows on a one-row stack."""
    return sample_rows(np.asarray(row)[None], s_min, s_max, np.reshape(s, (1, -1)))[0]


# The spacing of the default profiles, 4097 samples on [-40, 40].
SPACING = 80.0 / 4096


class TestHilbertSpectral:
    """convolve_rows with HILBERT, the band-limited kernel applied by FFT."""

    def test_lorentzian_pair(self):
        # H[1/(1+s^2)] = s/(1+s^2)
        h = convolve_rows(lorentzian_profile(), HILBERT, 1.0)
        assert abs(sample_at(h, -40.0, 40.0, [1.0])[0] - 0.5) < 1e-4

    def test_even_input_vanishes_at_origin(self):
        h = convolve_rows(gaussian_profile(count=4097, extent=10.0), HILBERT, 1.0)
        assert abs(h[2048]) < 1e-8

    def test_zero_profile(self):
        assert np.all(convolve_rows(np.zeros(64), HILBERT, 1.0) == 0.0)

    def test_rejects_non_decaying(self):
        with pytest.raises(ValueError):
            convolve_rows(np.ones(64), HILBERT, 1.0)

    def test_linearity(self):
        a = gaussian_profile()
        b = lorentzian_profile()
        lhs = convolve_rows(2.0 * a + 3.0 * b, HILBERT, 1.0)
        rhs = 2.0 * convolve_rows(a, HILBERT, 1.0) + 3.0 * convolve_rows(b, HILBERT, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_anti_involution(self):
        # wide window so the 1/s tails of the first transform are
        # represented; spacing is coarse but far above the gaussian's
        # spectral bandwidth
        extent = 40000.0
        n = int(round(2 * extent / 0.25)) + 1
        p = gaussian_profile(count=n, extent=extent)
        hh = convolve_rows(convolve_rows(p, HILBERT, 1.0), HILBERT, 1.0)
        assert np.max(np.abs(hh + p)) < 1e-4


class TestBandLimitedKernel:
    def test_gaussian_gives_dawson(self):
        # H[exp(-s^2)] = (2/sqrt(pi)) D(s), D the Dawson function
        s = np.linspace(-8.0, 8.0, 801)
        err = np.max(np.abs(convolve_rows(np.exp(-(s**2)), HILBERT, 1.0) - 2.0 / np.sqrt(np.pi) * dawsn(s)))
        assert err <= 1e-13

    @PROPERTY
    @given(
        count=st.integers(8, 600),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=8, rows=1, seed=0)  # FFT length 15 = 2 * 8 - 1, no slack
    @example(count=13, rows=2, seed=1)  # 25 = 2 * 13 - 1
    @example(count=41, rows=1, seed=2)  # 81 = 2 * 41 - 1
    @example(count=10, rows=1, seed=3)  # 18 = 2 * 10 - 2 would wrap the odd lag 9
    def test_equals_direct_convolution(self, count, rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, count))
        # small but nonzero ends, within DECAY_TOL, so that the longest lags count
        interior = np.max(np.abs(values[:, 1:-1]), axis=1, keepdims=True)
        values[:, [0, -1]] = 1e-4 * interior * rng.uniform(-1.0, 1.0, size=(rows, 2))
        expected = np.array([hilbert_direct(row) for row in values])
        err = np.max(np.abs(convolve_rows(values, HILBERT, 1.0) - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))

    @PROPERTY
    @given(
        core=st.integers(1, 200),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_anti_involution_on_decaying_rows(self, core, rows, seed):
        # H(H x) = -x for the band-limited kernel, whose square is -delta.
        # x = (1 - z^2)^2 y has zero sum and first moment over each parity
        # class, the two sets of samples the odd-lag kernel couples, so H x
        # decays as 1/k^3 and, with 256 zeros on each side, the truncation of
        # the second transform stays below 2e-6 of max|x|.
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(rows, core)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        x = np.array([np.convolve(row, [1.0, 0.0, -2.0, 0.0, 1.0]) for row in y])
        pad = 256
        values = np.pad(x, ((0, 0), (pad, pad)))
        hh = convolve_rows(convolve_rows(values, HILBERT, 1.0), HILBERT, 1.0)
        err = np.max(np.abs(hh + values) / np.max(np.abs(values), axis=1, keepdims=True))
        assert err <= 1e-5


class TestHilbertPvDirect:
    """hilbert_pv_direct on one row; its S - 2 samples lie on the interior grid."""

    def test_lorentzian_pair(self):
        h = hilbert_pv_direct(lorentzian_profile(), -40.0, 40.0)
        assert abs(sample_at(h, -40.0 + SPACING, 40.0 - SPACING, [1.0])[0] - 0.5) < 1e-3

    def test_agreement_with_spectral(self):
        p = gaussian_profile()
        direct = hilbert_pv_direct(p, -40.0, 40.0)
        spectral = convolve_rows(p, HILBERT, 1.0)
        assert np.max(np.abs(direct - spectral[1:-1])) < 1e-3

    def test_odd_input_even_output(self):
        s = np.linspace(-20.0, 20.0, 2001)
        h = hilbert_pv_direct(s * np.exp(-(s**2)), -20.0, 20.0)
        assert np.max(np.abs(h - h[::-1])) < 1e-6

    def test_interior_grid(self):
        # H[exp(-s^2)] = (2/sqrt(pi)) D(s) at s = -10 + 0.2 .. 10 - 0.2
        s = np.linspace(-10.0, 10.0, 101)
        h = hilbert_pv_direct(np.exp(-(s**2)), -10.0, 10.0)
        assert h.shape == (99,)
        assert np.max(np.abs(h - 2.0 / np.sqrt(np.pi) * dawsn(s[1:-1]))) < 1e-2

    def test_rejects_non_decaying(self):
        with pytest.raises(ValueError):
            hilbert_pv_direct(np.ones(64), -1.0, 1.0)

    @pytest.mark.parametrize("count", [101, 2049])
    def test_blocks_equal_one_block(self, monkeypatch, count):
        # the targets run in blocks of ROWS // S rows, the last one short; one block
        # of all S - 2 targets gives the same bits
        s = np.linspace(-20.0, 20.0, count)
        values = np.exp(-((s - 0.3) ** 2) / 4.0) * np.cos(s)
        assert (count - 2) % (ROWS // count) != 0
        blocked = hilbert_pv_direct(values, -20.0, 20.0)
        monkeypatch.setattr(geometry, "ROWS", count * count)
        assert blocked.tobytes() == hilbert_pv_direct(values, -20.0, 20.0).tobytes()

    def test_memory_is_bounded(self):
        # one block of ROWS // S targets, not three (S - 2, S) arrays (100 MB at S = 2,049)
        values = lorentzian_profile(2049)
        hilbert_pv_direct(values, -40.0, 40.0)  # warm up: caches and lazy imports
        tracemalloc.start()
        try:
            hilbert_pv_direct(values, -40.0, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


def gaussian_radon_row(amplitude, scale, count):
    """Rf(n, s) = pi A a^2 e^(-x^2), x = s / a, of a Gaussian (A, a) centred at the
    origin, on count samples over [-8, 8]; returns x, the row and its spacing."""
    x = np.linspace(-8.0, 8.0, count) / scale
    return x, np.pi * amplitude * scale**2 * np.exp(-(x**2)), 16.0 / (count - 1)


def second_difference_taps(k):
    """The 7-point central second difference's taps at the lags k != 0, unit spacing:
    3/2, -3/20 and 1/90 at |k| = 1, 2 and 3, and 0 beyond."""
    table = {1: 3 / 2, 2: -3 / 20, 3: 1 / 90}
    return np.array([table.get(abs(int(lag)), 0.0) for lag in np.ravel(k)])


class TestDerivativeKernels:
    """convolve_rows with HILBERT_DERIVATIVE (d/ds H) and SECOND_DIFFERENCE (d^2/ds^2)."""

    @pytest.mark.parametrize("count", [401, 801, 1025])
    @pytest.mark.parametrize("scale", [0.6, 1.0])
    def test_hilbert_derivative_of_gaussian(self, scale, count):
        # d/ds H Rf = 2 sqrt(pi) a A (1 - 2 x D(x)), D the Dawson function
        amplitude = 1.3
        x, row, spacing = gaussian_radon_row(amplitude, scale, count)
        expected = 2.0 * np.sqrt(np.pi) * scale * amplitude * (1.0 - 2.0 * x * dawsn(x))
        err = np.max(np.abs(convolve_rows(row, HILBERT_DERIVATIVE, spacing) - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))

    def test_second_difference_has_order_six(self):
        # d^2/ds^2 Rf = pi A e^(-s^2) (4 s^2 - 2) for a Gaussian (A, 1) at the origin.
        # Each halving of the spacing on [-8, 8] divides the error by 2^6: the observed
        # order reads 5.98 and 6.00 from S = 201 to 801.  At S = 1,601 rounding, about
        # eps max|row| / h^2, takes over (2.8), so the band [5.9, 6.1] is asserted up
        # to S = 801 only.
        amplitude = 1.3
        errors = []
        for count in (201, 401, 801):
            x, row, spacing = gaussian_radon_row(amplitude, 1.0, count)
            expected = np.pi * amplitude * np.exp(-(x**2)) * (4.0 * x**2 - 2.0)
            errors.append(np.max(np.abs(convolve_rows(row, SECOND_DIFFERENCE, spacing) - expected)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((orders >= 5.9) & (orders <= 6.1)), orders

    @PROPERTY
    @given(
        count=st.integers(8, 300),
        spacing=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=8, spacing=1.0, seed=0)  # FFT length 15 = 2 * 8 - 1, no slack
    def test_equal_direct_convolution(self, count, spacing, seed):
        # the tables of the kernels at spacing tau: lag 0 and lag k != 0
        rng = np.random.default_rng(seed)
        row = rng.normal(size=count)
        row[[0, -1]] = 1e-4 * np.max(np.abs(row[1:-1])) * rng.uniform(-1.0, 1.0, size=2)
        tau = spacing
        kernels = [
            (HILBERT_DERIVATIVE, np.pi / (2 * tau), lambda k: np.where(k % 2 == 1, -2 / (np.pi * k**2 * tau), 0)),
            (SECOND_DIFFERENCE, -49 / (18 * tau**2), lambda k: second_difference_taps(k) / tau**2),
        ]
        for kernel, lag0, taps in kernels:
            expected = direct_convolution(row, lag0, taps)
            err = np.max(np.abs(convolve_rows(row, kernel, spacing) - expected))
            assert err <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kernel", [HILBERT_DERIVATIVE, SECOND_DIFFERENCE], ids=["d-hilbert", "d2"])
    def test_rejects_non_decaying(self, kernel):
        with pytest.raises(ProfileDecayError):
            convolve_rows(np.ones(64), kernel, 0.1)

    def test_hilbert_is_the_spacing_free_kernel(self):
        p = gaussian_profile()
        assert convolve_rows(p, HILBERT, SPACING).tobytes() == convolve_rows(p, HILBERT, 1.0).tobytes()


class TestSampleCubic:
    """sample_rows on one row."""

    def test_exact_on_cubic(self):
        s = np.linspace(-2.0, 2.0, 41)
        q = np.array([-1.23, 0.37, 1.9])
        assert np.max(np.abs(sample_at(s**3 - s, -2.0, 2.0, q) - (q**3 - q))) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sample_at(np.zeros(16), -1.0, 1.0, [1.5])


class TestRows:
    """The row functions on a stack of profiles."""

    @pytest.fixture()
    def stack(self):
        s = np.linspace(-10.0, 10.0, 401)
        return np.stack([np.exp(-(s**2)), 2.0 * np.exp(-((s - 1.0) ** 2)), np.zeros(s.size)])

    def test_decay_checked_per_row(self, stack):
        bad = stack.copy()
        bad[1, -1] = 1.0
        with pytest.raises(ProfileDecayError, match="does not decay"):
            convolve_rows(bad, HILBERT, 1.0)

    @pytest.mark.parametrize("queries, width", [(0, 0), (99, 396), (100, 404), (500, 500)])
    def test_sample_width_at_the_switch(self, queries, width):
        # rows of 101 samples have 100 intervals: fewer queries take four stencil
        # samples each, more read four tables of about 101 values
        assert sample_width(queries, 101) == width

    def test_sample_rows_rejects_out_of_range(self, stack):
        with pytest.raises(ValueError):
            sample_rows(stack, -10.0, 10.0, np.full((3, 1), 10.5))

    @PROPERTY
    @given(
        count=st.integers(8, 200),
        rows=st.integers(1, 3),
        span=st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tables_match_lagrange(self, count, rows, span, seed):
        s_min, length = span
        s_max = s_min + length
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, count)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        h = (s_max - s_min) / (count - 1)
        # random offsets, the grid ends, samples, and the clipped first and last intervals
        t = np.concatenate([
            rng.uniform(0.0, count - 1, size=20),
            [0.0, count - 1.0, 1.0, count - 2.0, 2.0, count - 3.0],
            rng.uniform(0.0, 1.0, size=4),
            rng.uniform(count - 2.0, count - 1.0, size=4),
        ])
        s = np.clip(s_min + t * h, s_min, s_max)
        q = np.broadcast_to(s, (rows, s.size))
        err = np.max(np.abs(sample_rows(values, s_min, s_max, q) - lagrange_rows(values, s_min, s_max, q)))
        assert err <= 1e-13 * np.max(np.abs(values))

    @PROPERTY
    @given(count=st.integers(8, 200), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_query_path_matches_tables(self, count, rows, seed):
        # Q < S - 1 queries form their own coefficients; the same queries tiled
        # past S - 1 columns read the per-interval tables: bitwise the same
        rng = np.random.default_rng(seed)
        s_min, s_max = -rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)
        values = rng.normal(size=(rows, count)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        h = (s_max - s_min) / (count - 1)
        # the grid ends, the first and last intervals (the ghost stencils), 1e-9 beyond each end
        ends = [s_min, s_max, s_min + 0.5 * h, s_max - 0.5 * h, s_min - 1e-9, s_max + 1e-9]
        q = np.concatenate([np.tile(ends, (rows, 1)), rng.uniform(s_min, s_max, size=(rows, count - 8))], axis=1)
        assert q.shape[1] < count - 1
        reps = -(-(count - 1) // q.shape[1])
        tiled = sample_rows(values, s_min, s_max, np.tile(q, (1, reps)))[:, : q.shape[1]]
        assert sample_rows(values, s_min, s_max, q).tobytes() == tiled.tobytes()

    @PROPERTY
    @given(count=st.integers(8, 200), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_query_coefficients_match_tables_at_the_ends(self, count, rows, seed):
        # the query stencils come from the rows with clipped indices and take the
        # ghost at intervals 0 and S - 2 only; the tables read the ghost-extended rows
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, count)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        ends = np.tile([0, count - 2, 1, count - 3, 0], (rows, 1))
        index = np.concatenate([ends, rng.integers(0, count - 1, size=(rows, 9))], axis=1)
        tables = _cubic_coefficients(values)
        assert tables.shape == (rows, count - 1, 4)
        expected = np.take_along_axis(tables, index[..., None], axis=1)
        assert _query_coefficients(values, index).tobytes() == np.moveaxis(expected, -1, 0).tobytes()


# Each kernel's taps at unit spacing, tabled independently: lag 0 and lag k != 0.
KERNEL_TABLES = {
    HILBERT: (0.0, lambda k: np.where(k % 2 == 1, 2.0 / (np.pi * k), 0.0)),
    HILBERT_DERIVATIVE: (np.pi / 2.0, lambda k: np.where(k % 2 == 1, -2.0 / (np.pi * k**2), 0.0)),
    SECOND_DIFFERENCE: (-49 / 18, second_difference_taps),
}
KERNEL_IDS = ["hilbert", "d-hilbert", "d2"]


class TestKernelSpectrum:
    @pytest.mark.parametrize(
        "count, window, lengths",
        [
            (2, None, (3, 2)),
            (9, None, (16, 16)),
            (10, None, (20, 18)),
            (801, None, (1600,) * 2),
            (1025, None, (2048,) * 2),
            (3201, None, (6400,) * 2),
            # the windows of a ball of radius 1.75 and of the [-3, 3]^3 volume on 801
            # samples over [-8, 8]: lags -489..489 and -661..661, odd, where only the
            # even kernel's taps agree; both lengths are fast either way
            (801, (311, 179), (1000,) * 2),
            (801, (139, 523), (1350,) * 2),
            # lags -6..4, both even: both kernels' taps are 0 at both and shared
            (9, (2, 3), (10, 10)),
            # one interval, lags -5..5: Hilbert's taps there differ in sign, the even
            # kernel's agree
            (10, (4, 2), (12, 10)),
            # one sample reads both extreme lags -4 and 4, so they share no point
            (9, (4, 1), (9, 9)),
            # from the first sample (lags -9..2) and to the last (lags -2..9)
            (10, (0, 3), (12, 12)),
            (10, (7, 3), (12, 12)),
        ],
    )
    def test_shortest_alias_free_length(self, count, window, lengths):
        # next_fast_len(S + W - 2) for the W samples from j0 where the taps at the
        # extreme lags j0 - (S - 1) and j0 + W - 1 agree and W > 1, else S + W - 1.
        # On the whole row (None: j0 = 0, W = S) that is 2S - 2 for the even kernel
        # always and Hilbert at odd S; Hilbert at even S keeps 2S - 1
        start, width = (0, count) if window is None else window
        got = tuple(_kernel_spectrum(kernel, count, start, width)[0] for kernel in (HILBERT, HILBERT_DERIVATIVE))
        assert got == lengths

    @pytest.mark.parametrize("count", [8, 9, 10, 400, 401, 801, 1025])
    @pytest.mark.parametrize("kernel", list(KERNEL_TABLES), ids=KERNEL_IDS)
    def test_equals_direct_convolution_at_every_length(self, kernel, count):
        # small but nonzero ends, within DECAY_TOL, so that the lags +-(S - 1),
        # which share a point of an FFT of length 2S - 2, both count.  At S = 10
        # that length, 18, is itself fast: Hilbert's odd lag 9 would wrap there.
        rng = np.random.default_rng(count)
        values = rng.normal(size=(2, count))
        interior = np.max(np.abs(values[:, 1:-1]), axis=1, keepdims=True)
        values[:, [0, -1]] = 1e-4 * interior * rng.uniform(-1.0, 1.0, size=(2, 2))
        lag0, taps = KERNEL_TABLES[kernel]
        expected = np.array([direct_convolution(row, lag0, taps) for row in values])
        err = np.max(np.abs(convolve_rows(values, kernel, 1.0) - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))

    def test_cached_spectrum_is_read_only(self):
        m, spectrum = _kernel_spectrum(HILBERT, 801, 0, 801)
        assert _kernel_spectrum(HILBERT, 801, 0, 801)[1] is spectrum
        # keyed on the kernel as well as the row length
        other = _kernel_spectrum(HILBERT_DERIVATIVE, 801, 0, 801)[1]
        assert other is not spectrum and not np.array_equal(other, spectrum)
        assert _kernel_spectrum(HILBERT_DERIVATIVE, 801, 0, 801)[1] is other
        assert _kernel_spectrum(HILBERT, 401, 0, 401)[1] is not spectrum
        with pytest.raises(ValueError):
            spectrum[0] = 1.0
        # the transform still reads it
        p = gaussian_profile()
        assert np.max(np.abs(convolve_rows(p, HILBERT, 1.0) - hilbert_direct(p))) < 1e-12


class TestNonFinite:
    """A NaN or an inf sample is rejected by name, before any transform or warning."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "transform",
        [
            lambda v: convolve_rows(v, HILBERT_DERIVATIVE, 0.1),
            lambda v: convolve_rows(v, HILBERT, 1.0),
            lambda v: hilbert_pv_direct(v, -10.0, 10.0),
        ],
        ids=["convolve_rows", "convolve_rows-hilbert", "hilbert_pv_direct"],
    )
    def test_rejected(self, transform, bad):
        row = gaussian_profile(count=101, extent=10.0)
        row[40] = bad
        with pytest.raises(ValueError, match=r"1 non-finite sample\(s\) \(NaN or inf\), the first at index \(40,\)"):
            transform(row)

    def test_named_in_a_stack(self):
        stack = np.tile(gaussian_profile(count=101, extent=10.0), (3, 1))
        stack[2, [7, 9]] = np.nan
        with pytest.raises(ValueError, match=r"2 non-finite .* index \(2, 7\)") as info:
            convolve_rows(stack, HILBERT, 1.0)
        assert not isinstance(info.value, ProfileDecayError)


def decaying_rows(rng, rows, count):
    """Random rows whose end samples are 1e-4 of their peak, so they pass the decay check."""
    values = rng.normal(size=(rows, count)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    peak = np.max(np.abs(values[:, 1:-1]), axis=1, keepdims=True)
    values[:, [0, -1]] = 1e-4 * peak * rng.uniform(-1.0, 1.0, size=(rows, 2))
    return values


KERNELS = st.sampled_from((HILBERT, HILBERT_DERIVATIVE, SECOND_DIFFERENCE))


class TestConvolveRowsBlocks:
    """convolve_rows runs over blocks of ROWS // 2S rows; no row's bits depend on its block."""

    @settings(PROPERTY, max_examples=40)
    @given(
        count=st.integers(8, 1100),
        blocks=st.integers(1, 2),
        kernel=KERNELS,
        spacing=st.floats(1e-2, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=8, blocks=1, kernel=HILBERT, spacing=1.0, seed=0)
    @example(count=101, blocks=2, kernel=HILBERT_DERIVATIVE, spacing=0.16, seed=1)
    @example(count=801, blocks=2, kernel=SECOND_DIFFERENCE, spacing=0.02, seed=2)
    @example(count=1025, blocks=2, kernel=HILBERT_DERIVATIVE, spacing=0.015625, seed=3)
    def test_blocks_equal_row_by_row(self, count, blocks, kernel, spacing, seed):
        # whole blocks and a short last one
        step = ROWS // (2 * count)
        rng = np.random.default_rng(seed)
        values = decaying_rows(rng, blocks * step + int(rng.integers(1, step)), count)
        by_row = np.array([convolve_rows(row, kernel, spacing) for row in values])
        assert convolve_rows(values, kernel, spacing).tobytes() == by_row.tobytes()

    @settings(PROPERTY, max_examples=40)
    @given(rows=st.integers(1, 40), count=st.integers(8, 1100), kernel=KERNELS, seed=st.integers(0, 2**32 - 1))
    def test_in_place_equals_out_of_place(self, rows, count, kernel, seed):
        values = decaying_rows(np.random.default_rng(seed), rows, count)
        expected = convolve_rows(values, kernel, 0.1)
        assert convolve_rows(values, kernel, 0.1, out=values) is values
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_bad_last_block_writes_nothing(self, in_place):
        # 1025 samples: blocks of 7 rows, so rows 0..13 fill two and row 16 is in the third
        values = decaying_rows(np.random.default_rng(5), 17, 1025)
        values[16, -1] = np.max(np.abs(values[16]))
        before = values.copy()
        out = values if in_place else np.full(values.shape, 7.0)
        with pytest.raises(ProfileDecayError):
            convolve_rows(values, SECOND_DIFFERENCE, 0.1, out=out)
        assert values.tobytes() == before.tobytes()
        if not in_place:
            assert np.all(out == 7.0)


class TestFilteredBlocks:
    """FilteredBlocks gives convolve_rows' rows of a row source node block by node
    block, a chunk of whole blocks at a time, through one scratch array."""

    @settings(PROPERTY, max_examples=60)
    @given(
        total=st.integers(1, 200),
        count=st.integers(8, 3300),
        rows=st.integers(1, 40),
        kernel=KERNELS,
        filled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # node blocks of 3 at 801 samples, the radon_volume benchmark's layout: chunks of
    # 81 rows, 81 + 81 + 8, the last block short
    @example(total=170, count=801, rows=3, kernel=HILBERT_DERIVATIVE, filled=True, seed=0)
    # node blocks of 5 at 3,201 samples in chunks of 20, 20 + 3, each filtered in FFT blocks of 2
    @example(total=23, count=3201, rows=5, kernel=SECOND_DIFFERENCE, filled=False, seed=1)
    def test_blocks_equal_convolve_rows_bitwise(self, total, count, rows, kernel, filled, seed):
        values = decaying_rows(np.random.default_rng(seed), total, count)
        before = values.copy()
        source = ArrayRows(values, 0.0, 0.1 * (count - 1), filled)
        expected = convolve_rows(values, kernel, source.spacing)
        filtered = FilteredBlocks(source, kernel, rows)
        for block in (slice(lo, lo + rows) for lo in range(0, total, rows)):
            assert filtered(block).tobytes() == expected[block].tobytes()
        # the source's rows are read, never written, whether viewed or copied
        assert values.tobytes() == before.tobytes()
        # a chunk is one node block, or whole node blocks within CHUNK_SAMPLES
        assert filtered._scratch.shape[0] <= min(total, max(rows, CHUNK_SAMPLES // count))

    def test_rejects_a_bad_row_before_filtering(self, monkeypatch):
        values = decaying_rows(np.random.default_rng(2), 9, 64)
        values[8, 0] = np.nan
        filtered, filter_rows = [], hilbert._filter_rows
        monkeypatch.setattr(hilbert, "_filter_rows", lambda *a: filtered.append(a[0].shape) or filter_rows(*a))
        blocks = FilteredBlocks(ArrayRows(values, -1.0, 1.0, filled=True), HILBERT, 3)
        with pytest.raises(ValueError, match="non-finite"):
            blocks(slice(0, 3))
        assert filtered == []


def windows(count):
    """Windows (j0, j1) of rows of `count` samples: interior and symmetric about the
    centre, interior and asymmetric, from the first sample, to the last, one
    interval wide and one sample wide; and three samples from S - 7 (at S = 9
    the lags -6..4, whose extreme taps the odd kernels share: TestKernelSpectrum)."""
    return [
        (count // 4, count - 1 - count // 4),
        (count // 5, count // 2 + 1),
        (0, count // 3),
        (count - 1 - count // 3, count - 1),
        (count // 2, count // 2 + 1),
        (count // 2, count // 2),
        (count - 7, count - 5),
    ]


def window_noise(values, kernel, spacing):
    """The scale of the FFT's rounding in a filtered row: max|row| times the
    kernel's peak gain, (pi / spacing)**order."""
    return np.max(np.abs(values), axis=-1, keepdims=True) * (np.pi / spacing) ** kernel.order


# A windowed sample's largest distance from the whole row's, in window_noise:
# measured 7.1e-16 over windows() of three random rows and two Gaussian profiles
# on [-8, 8], at S from 8 to 3,201, for the two FFT kernels (the stencil's is 0).
WINDOW_TOL = 1e-14


class TestWindowedFilter:
    """FilteredBlocks over a window of samples j0..j1: each row fetched and checked
    whole, and its W samples filtered by one FFT of length S + W - 1 (or one less),
    or by the stencil's shift-and-add, into the chunk's own scratch."""

    @pytest.mark.parametrize("filled", [False, True], ids=["view", "filled"])
    @pytest.mark.parametrize("count", [8, 9, 10, 801, 3201])
    def test_stencil_window_is_the_whole_row_bitwise(self, count, filled):
        # each sample sums its seven taps in one order, so a window's samples are
        # the whole row's bits: windows(), and three windows of four samples, from
        # the first sample, mid-row and to the last, the ends reading the zeros
        # beyond the grid.  At 3,201 samples the five rows are filtered in blocks
        # of two, each written over the chunk's scratch that the filled source
        # fetched them into
        rng = np.random.default_rng(count)
        s = np.linspace(-8.0, 8.0, count)
        values = np.concatenate([decaying_rows(rng, 3, count), [np.exp(-(s**2)), np.exp(-((s - 0.3) ** 2) / 0.36)]])
        source = ArrayRows(values, -8.0, 8.0, filled)
        full = convolve_rows(values, SECOND_DIFFERENCE, source.spacing)
        fours = [(0, 3), (count // 2 - 2, count // 2 + 1), (count - 4, count - 1)]
        for j0, j1 in windows(count) + fours:
            filtered = FilteredBlocks(source, SECOND_DIFFERENCE, 2, slice(j0, j1 + 1))
            for block in (slice(0, 2), slice(2, 4), slice(4, 6)):
                assert filtered(block).tobytes() == full[block, j0:j1 + 1].tobytes(), (j0, j1)

    @pytest.mark.parametrize("count", [8, 9, 10, 400, 401, 801, 1025])
    @pytest.mark.parametrize("kernel", list(KERNEL_TABLES), ids=KERNEL_IDS)
    def test_matches_the_whole_row_filter(self, kernel, count):
        rng = np.random.default_rng(count)
        s = np.linspace(-8.0, 8.0, count)
        values = np.concatenate([decaying_rows(rng, 3, count), [np.exp(-(s**2)), np.exp(-((s - 0.3) ** 2) / 0.36)]])
        source = ArrayRows(values, -8.0, 8.0)
        full = convolve_rows(values, kernel, source.spacing)
        tol = WINDOW_TOL * window_noise(values, kernel, source.spacing)
        for j0, j1 in windows(count):
            filtered = FilteredBlocks(source, kernel, len(values), slice(j0, j1 + 1))
            got = filtered(slice(0, len(values)))
            assert got.shape == (len(values), j1 - j0 + 1)
            assert np.all(np.abs(got - full[:, j0:j1 + 1]) <= tol), (j0, j1)
            # the first W values per row of the chunk's scratch, not a buffer of their own
            assert np.shares_memory(got, filtered._scratch)

    @pytest.mark.parametrize("count", [8, 9, 10, 400, 401, 801, 1025])
    @pytest.mark.parametrize("kernel", list(KERNEL_TABLES), ids=KERNEL_IDS)
    def test_whole_row_window_is_convolve_rows_bitwise(self, kernel, count):
        values = decaying_rows(np.random.default_rng(count), 4, count)
        source = ArrayRows(values, -8.0, 8.0, filled=True)
        filtered = FilteredBlocks(source, kernel, 4, slice(0, count))
        assert filtered(slice(0, 4)).tobytes() == convolve_rows(values, kernel, source.spacing).tobytes()

    @settings(PROPERTY, max_examples=40)
    @given(
        total=st.integers(1, 200),
        count=st.integers(8, 1100),
        rows=st.integers(1, 40),
        kernel=KERNELS,
        filled=st.booleans(),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    # node blocks of 3 at 801 samples in chunks of 81 rows, 81 + 81 + 8, each filtered
    # in place in FFT blocks of 10 rows, on the calibration ball's window
    @example(total=170, count=801, rows=3, kernel=HILBERT_DERIVATIVE, filled=True, ends=(311 / 800, 489 / 800), seed=0)
    def test_blocks_match_the_whole_row_filter(self, total, count, rows, kernel, filled, ends, seed):
        # a chunk's windows are written over the rows it fetched, block by block: no
        # block's window overwrites a row that a later block still reads
        j0, j1 = sorted(int(round(e * (count - 1))) for e in ends)
        values = decaying_rows(np.random.default_rng(seed), total, count)
        before = values.copy()
        source = ArrayRows(values, 0.0, 0.1 * (count - 1), filled)
        full = convolve_rows(values, kernel, source.spacing)
        tol = WINDOW_TOL * window_noise(values, kernel, source.spacing)
        filtered = FilteredBlocks(source, kernel, rows, slice(j0, j1 + 1))
        for block in (slice(lo, lo + rows) for lo in range(0, total, rows)):
            assert np.all(np.abs(filtered(block) - full[block, j0:j1 + 1]) <= tol[block])
        assert values.tobytes() == before.tobytes()
