"""The four workloads: seeded phantoms, the ops each round runs, and how each op is checked.

A seed moves only the phantom's centres, widths and amplitudes; the number and
kind of primitives and every size below are fixed per workload, so every seed
does the same work.  The program receives only the phantom file and flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import closed_form as cf

SUPPORT_RADIUS = 7.0
VOL_MIN, VOL_MAX = -3.0, 3.0
S_MIN, S_MAX = -8.0, 8.0
CLI_SEED = 0
# The radon branch's normalization; its output is this times -16*pi^3 * I^1 f.
RADON_NORMALIZATION = -1.0 / (4.0 * math.pi)

XRAY_NODES, XRAY_DIMS = 400, 21
RADON_NODES, RADON_DIMS, RADON_S_COUNT = 300, 17, 801
CHECK_NODES, CHECK_BAND, CALIBRATE_NODES = 200, 0.2, 200
LEMMA9_POINTS = 20
FWD_XRAY_NODES, FWD_XRAY_POINTS = 400, 100
FWD_RADON_NODES, FWD_RADON_S_COUNT = 200, 801

# Sizes of the warm-up ops run once during set-up, so that lazy imports and
# first-call costs land in setup_s rather than in the timed rounds.
WARMUP = {"--nodes": "40", "--band": "0.2", "--vol-dims": "5", "--points": "4", "--s-count": "101"}


def _ball_point(rng, radius):
    d = rng.normal(size=3)
    return tuple(float(v) for v in d / np.linalg.norm(d) * radius * rng.uniform() ** (1.0 / 3.0))


def _gaussian(rng):
    return cf.Primitive(
        cf.GAUSSIAN, _ball_point(rng, 1.0), float(rng.uniform(0.6, 0.9)), float(rng.uniform(0.5, 1.5))
    )


def gaussians_phantom(seed, count=2):
    rng = np.random.default_rng(seed)
    return cf.Phantom(tuple(_gaussian(rng) for _ in range(count)), SUPPORT_RADIUS)


def gaussian_ball_phantom(seed):
    rng = np.random.default_rng(seed)
    ball = cf.Primitive(
        cf.BALL, _ball_point(rng, 1.5), float(rng.uniform(0.4, 0.7)), float(rng.uniform(0.5, 1.5))
    )
    return cf.Phantom((_gaussian(rng), ball), SUPPORT_RADIUS)


@dataclass(frozen=True)
class Op:
    """One CLI invocation per round: xradon.cli.main(argv + ["--phantom", p, "--outdir", d]).

    `check(outdir, phantom)` returns the closed-form checks of its outputs.
    When `check_read` is set, every profile file the op wrote is then read
    back through xradon.xform.read_profile_csv, one op per file, and the
    returned profile is checked by `check_read(profile, phantom)`.
    """

    name: str
    argv: tuple
    check: Callable
    check_read: Callable = None

    def warmup_argv(self):
        argv = list(self.argv)
        for i, flag in enumerate(argv[:-1]):
            if flag in WARMUP:
                argv[i + 1] = WARMUP[flag]
        return argv


def _common(branch, nodes):
    return ("--branch", branch, "--nodes", str(nodes), "--seed", str(CLI_SEED))


def _volume_flags(dims, s_count=None):
    flags = ("--vol-min", repr(VOL_MIN), "--vol-max", repr(VOL_MAX), "--vol-dims", str(dims))
    if s_count is not None:
        flags += ("--s-min", repr(S_MIN), "--s-max", repr(S_MAX), "--s-count", str(s_count))
    return flags


def _volume_check(name, dims, target):
    return lambda outdir, ph: cf.check_volume(outdir, name, dims, VOL_MIN, VOL_MAX, lambda x: target(ph, x))


def _riesz_volume(ph, x):
    return RADON_NORMALIZATION * cf.RADON_BRANCH_RIESZ * cf.riesz1(ph, x)


@dataclass(frozen=True)
class Workload:
    """`reference` names the speed.py kernel whose cost tracks this workload's work."""

    name: str
    why: str
    phantom: Callable
    ops: tuple
    reference: str = "mixed"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "xray_volume",
            "invert --branch xray: the half-line kernel dominates; no Hilbert or Radon code runs",
            gaussians_phantom,
            (
                Op(
                    "invert_xray",
                    ("invert",) + _common("xray", XRAY_NODES) + _volume_flags(XRAY_DIMS),
                    _volume_check("volume_xray", XRAY_DIMS, cf.density),
                ),
            ),
            reference="array",
        ),
        Workload(
            "radon_volume",
            "invert --branch classical_radon and radon: profiles, FFT filtering, cubic backprojection, point calibration",
            gaussians_phantom,
            (
                Op(
                    "invert_classical",
                    ("invert",) + _common("classical_radon", RADON_NODES) + _volume_flags(RADON_DIMS, RADON_S_COUNT),
                    _volume_check("volume_classical", RADON_DIMS, cf.density),
                ),
                Op(
                    "invert_radon",
                    ("invert",)
                    + _common("radon", RADON_NODES)
                    + _volume_flags(RADON_DIMS, RADON_S_COUNT)
                    + ("--normalization", repr(RADON_NORMALIZATION)),
                    _volume_check("volume_radon", RADON_DIMS, _riesz_volume),
                ),
            ),
        ),
        Workload(
            "point_checks",
            "check and calibrate --branch radon: point reconstructions that rebuild and refilter every profile per point",
            gaussians_phantom,
            (
                Op(
                    "check",
                    ("check", "--nodes", str(CHECK_NODES), "--band", repr(CHECK_BAND), "--seed", str(CLI_SEED)),
                    lambda outdir, ph: cf.check_grangeat(outdir, ph) + cf.check_lemma9(outdir, ph, LEMMA9_POINTS),
                ),
                Op(
                    "calibrate_radon",
                    ("calibrate",) + _common("radon", CALIBRATE_NODES),
                    lambda outdir, ph: cf.check_calibration(outdir, ph, CLI_SEED),
                ),
            ),
        ),
        Workload(
            "forward_io",
            "forward --branch xray and radon on a Gaussian plus a ball, then profile read-back: text I/O dominates",
            gaussian_ball_phantom,
            (
                Op(
                    "forward_xray",
                    ("forward",) + _common("xray", FWD_XRAY_NODES) + ("--points", str(FWD_XRAY_POINTS)),
                    lambda outdir, ph: cf.check_xray_csv(outdir, ph, FWD_XRAY_NODES * FWD_XRAY_POINTS),
                ),
                Op(
                    "forward_radon",
                    ("forward",)
                    + _common("radon", FWD_RADON_NODES)
                    + ("--s-min", repr(S_MIN), "--s-max", repr(S_MAX), "--s-count", str(FWD_RADON_S_COUNT)),
                    lambda outdir, ph: cf.check_profile_files(
                        outdir, ph, FWD_RADON_NODES, S_MIN, S_MAX, FWD_RADON_S_COUNT
                    ),
                    check_read=lambda rp, ph: cf.check_read_profile(rp, ph, S_MIN, S_MAX, FWD_RADON_S_COUNT),
                ),
            ),
        ),
    )
}


def profile_files(outdir):
    """The profile files a `forward --branch radon` op wrote, in name order."""
    return [os.path.join(outdir, f) for f in sorted(os.listdir(outdir)) if f.startswith("profile_")]
