import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from xradon.hilbert import _kernel_spectrum, derivative_rows, hilbert_pv_direct, hilbert_rows, sample_rows


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


def hilbert_direct(row):
    """Reference for hilbert_rows: the linear convolution with h[k] = 2/(pi k), k odd."""
    n = row.size
    k = np.arange(-(n - 1), n)
    h = np.zeros(k.size)
    odd = k % 2 == 1
    h[odd] = 2.0 / (np.pi * k[odd])
    return np.convolve(row, h)[n - 1:2 * n - 1]


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
    """hilbert_rows, the band-limited kernel applied by FFT."""

    def test_lorentzian_pair(self):
        # H[1/(1+s^2)] = s/(1+s^2)
        h = hilbert_rows(lorentzian_profile())
        assert abs(sample_at(h, -40.0, 40.0, [1.0])[0] - 0.5) < 1e-4

    def test_even_input_vanishes_at_origin(self):
        h = hilbert_rows(gaussian_profile(count=4097, extent=10.0))
        assert abs(h[2048]) < 1e-8

    def test_zero_profile(self):
        assert np.all(hilbert_rows(np.zeros(64)) == 0.0)

    def test_rejects_non_decaying(self):
        with pytest.raises(ValueError):
            hilbert_rows(np.ones(64))

    def test_linearity(self):
        a = gaussian_profile()
        b = lorentzian_profile()
        lhs = hilbert_rows(2.0 * a + 3.0 * b)
        rhs = 2.0 * hilbert_rows(a) + 3.0 * hilbert_rows(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_anti_involution(self):
        # wide window so the 1/s tails of the first transform are
        # represented; spacing is coarse but far above the gaussian's
        # spectral bandwidth
        extent = 40000.0
        n = int(round(2 * extent / 0.25)) + 1
        p = gaussian_profile(count=n, extent=extent)
        hh = hilbert_rows(hilbert_rows(p))
        assert np.max(np.abs(hh + p)) < 1e-4


class TestBandLimitedKernel:
    def test_gaussian_gives_dawson(self):
        # H[exp(-s^2)] = (2/sqrt(pi)) D(s), D the Dawson function
        s = np.linspace(-8.0, 8.0, 801)
        err = np.max(np.abs(hilbert_rows(np.exp(-(s**2))) - 2.0 / np.sqrt(np.pi) * dawsn(s)))
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
        err = np.max(np.abs(hilbert_rows(values) - expected))
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
        hh = hilbert_rows(hilbert_rows(values))
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
        spectral = hilbert_rows(p)
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


class TestDerivative:
    """derivative_rows on one row."""

    def test_gaussian_radon_profile(self):
        s = np.linspace(-8.0, 8.0, 1601)
        d = derivative_rows(np.pi * np.exp(-(s**2)), 16.0 / 1600)
        assert abs(sample_at(d, -8.0, 8.0, [1.0])[0] - (-2.0 * np.pi / np.e)) < 1e-5

    def test_constant(self):
        assert np.max(np.abs(derivative_rows(np.full(32, 3.5), 1.0 / 31))) < 1e-12

    def test_linear_ramp(self):
        s = np.linspace(-2.0, 2.0, 65)
        d = derivative_rows(s, 4.0 / 64)
        assert np.max(np.abs(d[1:-1] - 1.0)) < 1e-12

    def test_commutes_with_hilbert(self):
        p = gaussian_profile()
        a = derivative_rows(hilbert_rows(p), SPACING)
        b = hilbert_rows(derivative_rows(p, SPACING))
        assert np.max(np.abs(a - b)) < 1e-3


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
        with pytest.raises(ValueError, match="does not decay"):
            hilbert_rows(bad)

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


class TestKernelSpectrum:
    def test_cached_spectrum_is_read_only(self):
        m, spectrum = _kernel_spectrum(801)
        assert _kernel_spectrum(801)[1] is spectrum
        with pytest.raises(ValueError):
            spectrum[0] = 1.0
        # the transform still reads it
        assert np.max(np.abs(hilbert_rows(gaussian_profile()) - hilbert_direct(gaussian_profile()))) < 1e-12
