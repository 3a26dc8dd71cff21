import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from xradon.hilbert import (
    Profile1D,
    derivative,
    derivative_rows,
    hilbert_pv_direct,
    hilbert_rows,
    hilbert_spectral,
    sample_cubic,
    sample_rows,
)


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
    return Profile1D(-extent, extent, 1.0 / (1.0 + s**2))


def gaussian_profile(count=4097, extent=40.0, amplitude=1.0):
    s = np.linspace(-extent, extent, count)
    return Profile1D(-extent, extent, amplitude * np.exp(-(s**2)))


class TestHilbertSpectral:
    def test_lorentzian_pair(self):
        # H[1/(1+s^2)] = s/(1+s^2)
        h = hilbert_spectral(lorentzian_profile())
        assert abs(sample_cubic(h, 1.0) - 0.5) < 1e-4

    def test_even_input_vanishes_at_origin(self):
        h = hilbert_spectral(gaussian_profile(count=4097, extent=10.0))
        assert abs(h.values[2048]) < 1e-8

    def test_zero_profile(self):
        p = Profile1D(-1.0, 1.0, np.zeros(64))
        assert np.all(hilbert_spectral(p).values == 0.0)

    def test_rejects_non_decaying(self):
        p = Profile1D(-1.0, 1.0, np.ones(64))
        with pytest.raises(ValueError):
            hilbert_spectral(p)

    def test_linearity(self):
        a = gaussian_profile()
        b = lorentzian_profile()
        combo = a.with_values(2.0 * a.values + 3.0 * b.values)
        lhs = hilbert_spectral(combo).values
        rhs = 2.0 * hilbert_spectral(a).values + 3.0 * hilbert_spectral(b).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_anti_involution(self):
        # wide window so the 1/s tails of the first transform are
        # represented; spacing is coarse but far above the gaussian's
        # spectral bandwidth
        extent = 40000.0
        n = int(round(2 * extent / 0.25)) + 1
        s = np.linspace(-extent, extent, n)
        p = Profile1D(-extent, extent, np.exp(-(s**2)))
        hh = hilbert_spectral(hilbert_spectral(p))
        assert np.max(np.abs(hh.values + p.values)) < 1e-4


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
    def test_lorentzian_pair(self):
        h = hilbert_pv_direct(lorentzian_profile())
        assert abs(sample_cubic(h, 1.0) - 0.5) < 1e-3

    def test_agreement_with_spectral(self):
        p = gaussian_profile()
        direct = hilbert_pv_direct(p)
        spectral = hilbert_spectral(p)
        assert np.max(np.abs(direct.values - spectral.values[1:-1])) < 1e-3

    def test_odd_input_even_output(self):
        s = np.linspace(-20.0, 20.0, 2001)
        p = Profile1D(-20.0, 20.0, s * np.exp(-(s**2)))
        h = hilbert_pv_direct(p)
        assert np.max(np.abs(h.values - h.values[::-1])) < 1e-6

    def test_interior_grid(self):
        p = gaussian_profile(count=101, extent=10.0)
        h = hilbert_pv_direct(p)
        assert h.count == 99
        assert abs(h.s_min - (p.s_min + p.spacing)) < 1e-12

    def test_rejects_non_decaying(self):
        p = Profile1D(-1.0, 1.0, np.ones(64))
        with pytest.raises(ValueError):
            hilbert_pv_direct(p)


class TestDerivative:
    def test_gaussian_radon_profile(self):
        s = np.linspace(-8.0, 8.0, 1601)
        p = Profile1D(-8.0, 8.0, np.pi * np.exp(-(s**2)))
        d = derivative(p)
        assert abs(sample_cubic(d, 1.0) - (-2.0 * np.pi / np.e)) < 1e-5

    def test_constant(self):
        p = Profile1D(0.0, 1.0, np.full(32, 3.5))
        assert np.max(np.abs(derivative(p).values)) < 1e-12

    def test_linear_ramp(self):
        s = np.linspace(-2.0, 2.0, 65)
        d = derivative(Profile1D(-2.0, 2.0, s))
        assert np.max(np.abs(d.values[1:-1] - 1.0)) < 1e-12

    def test_commutes_with_hilbert(self):
        p = gaussian_profile()
        a = derivative(hilbert_spectral(p))
        b = hilbert_spectral(derivative(p))
        assert np.max(np.abs(a.values - b.values)) < 1e-3


class TestProfile1D:
    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Profile1D(0.0, 1.0, np.zeros(4))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Profile1D(1.0, 1.0, np.zeros(16))

    def test_rejects_non_finite(self):
        v = np.zeros(16)
        v[3] = np.nan
        with pytest.raises(ValueError):
            Profile1D(0.0, 1.0, v)

    def test_grid_endpoints(self):
        p = Profile1D(-2.0, 2.0, np.zeros(9))
        g = p.grid()
        assert g[0] == -2.0 and g[-1] == 2.0
        assert abs(p.spacing - 0.5) < 1e-15


class TestSampleCubic:
    def test_exact_on_cubic(self):
        s = np.linspace(-2.0, 2.0, 41)
        p = Profile1D(-2.0, 2.0, s**3 - s)
        q = np.array([-1.23, 0.37, 1.9])
        assert np.max(np.abs(sample_cubic(p, q) - (q**3 - q))) < 1e-12

    def test_rejects_out_of_range(self):
        p = Profile1D(-1.0, 1.0, np.zeros(16))
        with pytest.raises(ValueError):
            sample_cubic(p, 1.5)


class TestRows:
    """The row functions on a stack of profiles agree with the per-profile calls."""

    @pytest.fixture()
    def stack(self):
        s = np.linspace(-10.0, 10.0, 401)
        return np.stack([np.exp(-(s**2)), 2.0 * np.exp(-((s - 1.0) ** 2)), np.zeros(s.size)])

    def test_hilbert_rows_match_profiles(self, stack):
        rows = hilbert_rows(stack)
        for row, values in zip(rows, stack):
            expected = hilbert_spectral(Profile1D(-10.0, 10.0, values)).values
            assert np.max(np.abs(row - expected)) <= 1e-15

    def test_derivative_rows_match_profiles(self, stack):
        rows = derivative_rows(stack, 20.0 / 400)
        for row, values in zip(rows, stack):
            assert np.array_equal(row, derivative(Profile1D(-10.0, 10.0, values)).values)

    def test_sample_rows_match_profiles(self, stack):
        q = np.array([[-1.5, 0.25, 9.9], [0.0, 1.0, -10.0], [3.0, 3.0, 3.0]])
        rows = sample_rows(stack, -10.0, 10.0, q)
        for row, values, offsets in zip(rows, stack, q):
            assert np.array_equal(row, sample_cubic(Profile1D(-10.0, 10.0, values), offsets))

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
