"""Closed-form targets for every output the benchmark's ops produce, and the checks
that gate each op against them.

Nothing here imports xradon: each target is the benchmark's own formula for a
phantom made of isotropic Gaussians A*exp(-|x-c|^2/a^2) and uniform balls, so a
defect in the program under test cannot also hide in its target.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, erfc

GAUSSIAN = "gaussian"
BALL = "ball"

# Riesz-potential constant of the radon branch at normalization 1 (Fourier
# slice theorem): backprojecting -2*pi * d/ds H Rf gives -16*pi^3 * I^1 f.
RADON_BRANCH_RIESZ = -16.0 * math.pi**3
# Both sides of the corrected lemma-9 identity equal 4*pi^2 * I^1 f.
LEMMA9_RIESZ = 4.0 * math.pi**2

# Tolerances on the relative sup-norm error max|out - target| / max|target|.
# Each is 3 times the largest error measured on the seed code over seeds 0..29
# at the sizes in workloads.py (the measured maximum is in the comment), rounded
# up.  Outputs that are float64 closed forms get a floor of 1e-12, so that an
# equivalent formula evaluated in another order still passes.  Volumes are
# float32, so their error cannot fall below float32 rounding (~6e-8).
TOLERANCES = {
    "volume_xray": 2e-7,  # 5.5e-8
    "volume_classical": 0.06,  # 1.9e-2
    "volume_radon": 0.03,  # 9.2e-3
    "grangeat_lhs": 0.35,  # 1.04e-1: the mollified delta' kernel at 200 nodes, band 0.2
    "grangeat_rhs": 5e-10,  # 1.7e-10: central difference with step 1e-5
    "lemma9_left": 2e-3,  # 6.0e-4
    "calibration_scale": 3e-3,  # 9.4e-4
    "calibration_residual": 5e-3,  # 1.4e-3
    "forward_xray": 1e-12,  # 1.7e-13
    "forward_radon": 1e-12,  # 3.8e-16
    "read_profile": 1e-12,  # 3.8e-16
}


@dataclass(frozen=True)
class Primitive:
    kind: str
    centre: tuple
    scale: float
    amplitude: float


@dataclass(frozen=True)
class Phantom:
    primitives: tuple
    support_radius: float

    def to_text(self):
        """The phantom in xradon's plain-text phantom-file format."""
        lines = [f"support_radius {self.support_radius!r}"]
        for p in self.primitives:
            cx, cy, cz = p.centre
            lines.append(f"{p.kind} {cx!r} {cy!r} {cz!r} {p.scale!r} {p.amplitude!r}")
        return "\n".join(lines) + "\n"


# --- closed forms -----------------------------------------------------------


def density(ph, x):
    """f(x) for points x of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for p in ph.primitives:
        r2 = np.sum((x - np.asarray(p.centre)) ** 2, axis=-1)
        if p.kind == GAUSSIAN:
            out += p.amplitude * np.exp(-r2 / p.scale**2)
        else:
            out += np.where(r2 <= p.scale**2, p.amplitude, 0.0)
    return out


def halfline(ph, x, n):
    """Integral of f over {x + t*n : t >= 0}; x, n of shape (K, 3), n unit.

    With q = x - c, p = n.q and d^2 = |q|^2 - p^2, the Gaussian gives
    A * int_0^inf exp(-((t + p)^2 + d^2) / a^2) dt = A*a*sqrt(pi)/2 * exp(-d^2/a^2) * erfc(p/a);
    the ball gives the length of its chord that lies at t >= 0.
    """
    out = np.zeros(x.shape[0])
    for prim in ph.primitives:
        q = x - np.asarray(prim.centre)
        p = np.einsum("ij,ij->i", q, n)
        d2 = np.maximum(np.einsum("ij,ij->i", q, q) - p * p, 0.0)
        a = prim.scale
        if prim.kind == GAUSSIAN:
            out += prim.amplitude * a * 0.5 * math.sqrt(math.pi) * np.exp(-d2 / a**2) * erfc(p / a)
        else:
            half = np.sqrt(np.maximum(a * a - d2, 0.0))
            t_in = np.maximum(-p - half, 0.0)
            t_out = np.maximum(-p + half, 0.0)
            out += prim.amplitude * (t_out - t_in)
    return out


def plane(ph, n, s):
    """Integral of f over the plane {y : y.n = s}; n of shape (3,), s of shape (S,)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for p in ph.primitives:
        u = s - float(np.dot(n, p.centre))
        if p.kind == GAUSSIAN:
            out += p.amplitude * math.pi * p.scale**2 * np.exp(-(u * u) / p.scale**2)
        else:
            out += p.amplitude * math.pi * np.maximum(p.scale**2 - u * u, 0.0)
    return out


def minus_plane_derivative(ph, n, s):
    """-(d/ds) of the plane integral of a Gaussian-only phantom."""
    out = np.zeros(np.shape(s))
    for p in ph.primitives:
        u = np.asarray(s) - float(np.dot(n, p.centre))
        out += 2.0 * math.pi * p.amplitude * u * np.exp(-(u * u) / p.scale**2)
    return out


def riesz1(ph, x):
    """Riesz potential I^1 f(x) = (1 / (2*pi^2)) int f(y) / |x - y|^2 dy of a Gaussian-only phantom.

    For one Gaussian, I^1 f = A * a^2 * D(r/a) / (sqrt(pi) * r) with r = |x - c| and
    D Dawson's function; the limit at r = 0 is A * a / sqrt(pi).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for p in ph.primitives:
        r = np.sqrt(np.sum((x - np.asarray(p.centre)) ** 2, axis=-1))
        u = r / p.scale
        safe = np.where(u > 1e-8, u, 1.0)
        ratio = np.where(u > 1e-8, dawsn(safe) / safe, 1.0)
        out += p.amplitude * p.scale * ratio / math.sqrt(math.pi)
    return out


def grid_points(vmin, vmax, dims):
    """Cubic-grid sample positions in x-fastest storage order, shape (dims^3, 3)."""
    axis = np.linspace(vmin, vmax, dims)
    zz, yy, xx = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.column_stack((xx.ravel(), yy.ravel(), zz.ravel()))


def ball_points(seed, count, radius):
    """The CLI's seeded calibration points: default_rng(seed), uniform in the ball."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * (radius * rng.uniform(size=count) ** (1.0 / 3.0))[:, None]


# --- checks -----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One comparison against a closed form; an infinite error (NaN output, shape mismatch) never passes."""

    name: str
    err: float

    @property
    def tol(self):
        return TOLERANCES[self.name]

    @property
    def ok(self):
        return bool(math.isfinite(self.err) and self.err <= self.tol)


def _finite(err):
    """An error that is NaN (a NaN in the output) becomes inf, so max() and <= see it."""
    return err if not math.isnan(err) else math.inf


def rel_sup(values, target):
    values = np.asarray(values, dtype=float)
    if values.shape != target.shape:
        return math.inf
    err = float(np.max(np.abs(values - target), initial=0.0))
    return _finite(err / float(np.max(np.abs(target), initial=0.0)))


def read_csv(path, header, columns):
    """Rows of a CSV whose first line must equal `header`; a ragged or cut file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: header {first!r} != {header!r}")
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError(f"{path}: last line is not terminated")
    rows = np.loadtxt(text.splitlines(), delimiter=",", ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path}: {rows.shape[1]} columns, expected {columns}")
    return rows


def check_volume(outdir, name, dims, vmin, vmax, target):
    raw = np.fromfile(os.path.join(outdir, "volume.raw"), dtype="<f4")
    with open(os.path.join(outdir, "volume.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["dims"] != [dims] * 3 or raw.size != dims**3:
        return [Check(name, math.inf)]
    return [Check(name, rel_sup(raw, target(grid_points(vmin, vmax, dims))))]


def check_grangeat(outdir, ph):
    """grangeat.csv: the sweep s in [-2, 2] along n = e1, against -(Rf)'(s)."""
    rows = read_csv(os.path.join(outdir, "grangeat.csv"), "s,lhs,rhs,abs_error", 4)
    s = np.linspace(-2.0, 2.0, 41)
    if rows.shape[0] != s.size or np.max(np.abs(rows[:, 0] - s)) > 1e-12:
        return [Check("grangeat_lhs", math.inf)]
    target = minus_plane_derivative(ph, np.array([1.0, 0.0, 0.0]), s)
    return [
        Check("grangeat_lhs", rel_sup(rows[:, 1], target)),
        Check("grangeat_rhs", rel_sup(rows[:, 2], target)),
    ]


def check_lemma9(outdir, ph, points):
    """lemma9.csv: the left column, the sphere average of the line transform, against 4*pi^2 * I^1 f."""
    rows = read_csv(
        os.path.join(outdir, "lemma9.csv"), "x1,x2,x3,left,right,ratio,difference", 7
    )
    if rows.shape[0] != points:
        return [Check("lemma9_left", math.inf)]
    return [Check("lemma9_left", rel_sup(rows[:, 3], LEMMA9_RIESZ * riesz1(ph, rows[:, :3])))]


def check_calibration(outdir, ph, seed):
    """calibration.json of the radon branch: the least-squares scale and RMS residual
    of fitting -16*pi^3 * I^1 f to f at the CLI's 50 calibration points."""
    with open(os.path.join(outdir, "calibration.json"), "r", encoding="utf-8") as fh:
        got = json.load(fh)
    pts = ball_points(seed + 1, 50, ph.support_radius / 4.0)
    raw = RADON_BRANCH_RIESZ * riesz1(ph, pts)
    truth = density(ph, pts)
    scale = float(np.dot(raw, truth) / np.dot(raw, raw))
    residual = float(np.sqrt(np.mean((scale * raw - truth) ** 2)))
    if got.get("branch") != "radon":
        return [Check("calibration_scale", math.inf)]
    return [
        Check("calibration_scale", _finite(abs(got["scale"] - scale) / abs(scale))),
        Check("calibration_residual", _finite(abs(got["residual"] - residual) / residual)),
    ]


def check_xray_csv(outdir, ph, rows_expected):
    rows = read_csv(os.path.join(outdir, "xray.csv"), "x1,x2,x3,n1,n2,n3,value", 7)
    if rows.shape[0] != rows_expected:
        return [Check("forward_xray", math.inf)]
    x, n = rows[:, 0:3], rows[:, 3:6]
    if np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-12:
        return [Check("forward_xray", math.inf)]
    return [Check("forward_xray", rel_sup(rows[:, 6], halfline(ph, x, n)))]


def profile_target(ph, n, s_min, s_max, s_count):
    if abs(float(np.linalg.norm(n)) - 1.0) > 1e-12:
        return None
    return plane(ph, n, np.linspace(s_min, s_max, s_count))


def check_profile_files(outdir, ph, nodes, s_min, s_max, s_count):
    names = sorted(f for f in os.listdir(outdir) if f.startswith("profile_"))
    if len(names) != nodes:
        return [Check("forward_radon", math.inf)]
    worst = 0.0
    for name in names:
        with open(os.path.join(outdir, name), "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if len(lines) < 4 or lines[0] != "n1,n2,n3" or lines[2] != "s,value" or lines[-1] != "":
            return [Check("forward_radon", math.inf)]
        n = np.array([float(v) for v in lines[1].split(",")])
        rows = np.loadtxt(lines[3:-1], delimiter=",", ndmin=2)
        target = profile_target(ph, n, s_min, s_max, s_count)
        if target is None or rows.shape != (s_count, 2):
            return [Check("forward_radon", math.inf)]
        if np.max(np.abs(rows[:, 0] - np.linspace(s_min, s_max, s_count))) > 1e-12:
            return [Check("forward_radon", math.inf)]
        worst = max(worst, rel_sup(rows[:, 1], target))
    return [Check("forward_radon", worst)]


def check_read_profile(rp, ph, s_min, s_max, s_count):
    """A RadonProfile returned by the public reader."""
    n = np.asarray(rp.n, dtype=float)
    target = profile_target(ph, n, s_min, s_max, s_count)
    if target is None or abs(rp.s_min - s_min) > 1e-12 or abs(rp.s_max - s_max) > 1e-12:
        return [Check("read_profile", math.inf)]
    return [Check("read_profile", rel_sup(rp.values, target))]
