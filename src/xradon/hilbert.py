"""1D principal-value Hilbert transform and derivatives of sampled profiles.

Sign convention: Hf(s) = (1/pi) P.V. integral f(sigma) / (s - sigma) d sigma,
so that H[1/(1+s^2)] = s/(1+s^2), H[cos] = sin, and H(H f) = -f.

Two independent realizations are provided — a spectral multiplier and a
direct singularity-subtracted quadrature — so each validates the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

# Relative endpoint magnitude above which a profile is considered
# non-decaying; wrap-around would then corrupt the PV integral.
DECAY_TOL = 1e-3

PAD_FACTOR = 4


@dataclass(frozen=True)
class Profile1D:
    """Function samples on a uniform grid over [s_min, s_max]."""

    s_min: float
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size < 8:
            raise ValueError("Profile1D requires at least 8 samples")
        if not self.s_max > self.s_min:
            raise ValueError("require s_max > s_min")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "s_min", float(self.s_min))
        object.__setattr__(self, "s_max", float(self.s_max))
        object.__setattr__(self, "values", values)

    @property
    def count(self):
        return self.values.size

    @property
    def spacing(self):
        return (self.s_max - self.s_min) / (self.count - 1)

    def grid(self):
        return np.linspace(self.s_min, self.s_max, self.count)

    def with_values(self, values):
        return Profile1D(self.s_min, self.s_max, values)


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
            "the PV integral would be corrupted by wrap-around"
        )


def hilbert_rows(values, pad_factor=PAD_FACTOR):
    """Hilbert transform of each row of `values` (samples along the last axis).

    Each row is zero-padded to `pad_factor` times its length before one
    batched FFT, multiplied by -i*sgn(frequency) and truncated back to
    the original grid.  Every row must decay at both ends (see
    DECAY_TOL).  The result does not depend on the grid spacing.
    """
    values = np.asarray(values, dtype=float)
    _check_decay(values)
    n = values.shape[-1]
    m = sfft.next_fast_len(pad_factor * n)
    left = (m - n) // 2
    buf = np.zeros(values.shape[:-1] + (m,))
    buf[..., left:left + n] = values
    spectrum = sfft.fft(buf, axis=-1)
    spectrum *= -1j * np.sign(sfft.fftfreq(m))
    return sfft.ifft(spectrum, axis=-1).real[..., left:left + n].copy()


def hilbert_spectral(p, pad_factor=PAD_FACTOR):
    """Hilbert transform of a profile via the -i*sgn(frequency) multiplier (see hilbert_rows)."""
    return p.with_values(hilbert_rows(p.values, pad_factor))


def hilbert_pv_direct(p):
    """Hilbert transform by direct singularity-subtracted quadrature.

    Uses the decomposition
        pi * Hf(s) = int (f(sigma) - f(s)) / (s - sigma) d sigma
                     + f(s) * ln((s - s_min) / (s_max - s)),
    with the first term regular (its value at sigma = s is -f'(s)) and
    evaluated by the trapezoid rule.  The logarithmic end-correction
    diverges at the grid endpoints, so the result is returned on the
    interior grid (count - 2 samples).
    """
    _check_decay(p.values)
    s = p.grid()
    f = p.values
    h = p.spacing
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
    correction = ft * np.log((targets - p.s_min) / (p.s_max - targets))
    values = (trap + correction) / np.pi
    return Profile1D(p.s_min + h, p.s_max - h, values)


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


def derivative(p):
    """First derivative of a profile on the same grid (see derivative_rows)."""
    return p.with_values(derivative_rows(p.values, p.spacing))


def sample_rows(values, s_min, s_max, s):
    """Evaluate row k of `values` at the offsets s[k] by 4-point Lagrange interpolation.

    `values` has shape (K, S): K profiles sampled on one uniform grid
    over [s_min, s_max].  `s` has shape (K, Q); the result has shape
    (K, Q).  Offsets outside [s_min, s_max] are rejected.
    """
    values = np.asarray(values, dtype=float)
    s = np.asarray(s, dtype=float)
    rows, count = values.shape
    eps = 1e-9 * max(abs(s_min), abs(s_max), 1.0)
    if np.any(s < s_min - eps) or np.any(s > s_max + eps):
        raise ValueError("query offset outside the profile range")
    h = (s_max - s_min) / (count - 1)
    t = (s - s_min) / h
    base = np.clip(np.floor(t).astype(np.intp) - 1, 0, count - 4)
    u = t - base
    index = base + count * np.arange(rows)[:, None]
    v = values.reshape(-1)
    # One Lagrange term at a time, so that a block holds few temporaries.
    um1, um2, um3 = u - 1.0, u - 2.0, u - 3.0
    out = -um1 * um2 * um3 / 6.0 * v[index]
    out += u * um2 * um3 / 2.0 * v[index + 1]
    out += -u * um1 * um3 / 2.0 * v[index + 2]
    out += u * um1 * um2 / 6.0 * v[index + 3]
    return out


def sample_cubic(p, s):
    """Evaluate the profile at offsets of any shape (see sample_rows); a scalar gives a float."""
    s = np.asarray(s, dtype=float)
    out = sample_rows(p.values[None, :], p.s_min, p.s_max, s.reshape(1, -1))
    return float(out[0, 0]) if s.ndim == 0 else out.reshape(s.shape)
