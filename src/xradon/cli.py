"""Command-line front end: phantom generation, forward data, inversion, checks.

All randomness flows from the single config seed; identical configs
produce byte-identical outputs.  A JSON config file may supply any
field of RunConfig; command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import inversion, phantom as ph_mod, xform
from .geometry import VolumeGrid, fibonacci_sphere
from .hilbert import ProfileDecayError, offsets_on_grid


@dataclass(frozen=True)
class RunConfig:
    phantom: str = ""
    branch: str = inversion.BRANCH_XRAY
    nodes: int = 2000
    s_min: float = -8.0
    s_max: float = 8.0
    s_count: int = 801
    vol_min: float = -3.0
    vol_max: float = 3.0
    vol_dims: int = 33
    diff_step: float = 1e-4
    normalization: float = inversion.XRAY_BRANCH_CONSTANT
    band: float = 1e-4
    points: int = 100
    outdir: str = "out"
    seed: int = 0

    def validate(self):
        def flag(name):
            return f"--{name.replace('_', '-')} (config field {name})"

        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise CliError(f"{flag(f.name)} must be finite, got {value!r}")
        rules = (
            ("branch", self.branch in inversion.BRANCHES, f"must be one of {list(inversion.BRANCHES)}"),
            ("vol_dims", self.vol_dims > 0, "must be positive"),
            ("points", self.points > 0, "must be positive"),
            # 1/(2 diff_step) overflows for a subnormal step
            ("diff_step", self.diff_step >= sys.float_info.min,
             f"must be at least {sys.float_info.min!r}, the smallest normal float"),
            ("band", inversion.GRANGEAT_MIN_BAND <= self.band <= 1.0,
             f"must be in (0, 1], the half-width of the u-range, and at least {inversion.GRANGEAT_MIN_BAND!r}"),
            ("nodes", self.nodes >= 2, "must be at least 2"),
            ("s_count", self.s_count >= inversion.MIN_PROFILE_SAMPLES,
             f"must be at least {inversion.MIN_PROFILE_SAMPLES}"),
            ("seed", self.seed >= 0, "must be non-negative"),
            ("s_max", self.s_max > self.s_min, f"must exceed --s-min {self.s_min!r}"),
            ("vol_max", self.vol_max > self.vol_min, f"must exceed --vol-min {self.vol_min!r}"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise CliError(f"{flag(name)} {rule}, got {getattr(self, name)!r}")
        if not math.isfinite(self.s_max - self.s_min):
            raise CliError(
                f"--s-min and --s-max (config fields s_min and s_max) must span a finite width, "
                f"got {self.s_min!r} to {self.s_max!r}"
            )


class CliError(Exception):
    """User-facing failure; message names the violated precondition."""


def _typed(name, value):
    """A config-file value of the type of the field's default (an int is taken as a float)."""
    expected = type(getattr(RunConfig, name))
    if expected is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise CliError(f"config field {name} must be finite, got an integer too large for a float") from None
    if type(value) is not expected:
        raise CliError(
            f"config field {name} must be {expected.__name__}, got {type(value).__name__} {value!r}"
        )
    return value


def load_config(args):
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an over-long integer
            raise CliError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliError(
                f"config file {args.config} must hold a JSON object, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **{name: _typed(name, value) for name, value in raw.items()})
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _load_phantom(cfg):
    if not cfg.phantom:
        raise CliError("no phantom file given (set --phantom or the config field)")
    try:
        return ph_mod.load_phantom(cfg.phantom)
    except (OSError, ValueError) as exc:
        raise CliError(f"unreadable phantom file {cfg.phantom}: {exc}") from exc


def _volume_grid(cfg):
    d = cfg.vol_dims
    spacing = (cfg.vol_max - cfg.vol_min) / (d - 1) if d > 1 else 1.0
    return VolumeGrid(
        origin=(cfg.vol_min,) * 3, spacing=(spacing,) * 3, dims=(d, d, d)
    )


class _OutputSet:
    """The output files of one command, moved into place only if all are written.

    path(name) hands out a temporary name in outdir.  Leaving the `with`
    block normally moves every file to its own name with os.replace; an
    exception removes the temporary files and any already moved, so a
    failed or killed command leaves no partial output under a final name.
    A failure also removes the directories made for outdir, if left empty;
    an outdir that existed before is kept.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.pending = []  # (temporary path, final path)
        self.moved = []
        self.created = []  # outdir and its missing parents, innermost first
        d = os.path.abspath(outdir)
        while not os.path.exists(d):
            self.created.append(d)
            d = os.path.dirname(d)
        os.makedirs(outdir, exist_ok=True)

    def path(self, name):
        final = os.path.join(self.outdir, name)
        temp = os.path.join(self.outdir, f".{name}.{os.getpid()}.tmp")
        self.pending.append((temp, final))
        return temp

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        complete = False
        try:
            if exc_type is None:
                for temp, final in self.pending:
                    os.replace(temp, final)
                    self.moved.append(final)
                complete = True
        finally:
            if not complete:
                for p in [temp for temp, _ in self.pending] + self.moved:
                    try:
                        os.remove(p)
                    except OSError:
                        pass
                for d in self.created:
                    try:
                        os.rmdir(d)
                    except OSError:  # not empty: something else wrote there
                        break


def _write_manifest(out, cfg, files):
    manifest = {
        "config": {
            f.name: getattr(cfg, f.name)
            for f in fields(RunConfig)
            if f.name != "outdir"
        },
        "files": files,
    }
    with open(out.path("manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_phantom_gen(args):
    presets = {
        "unit-gaussian": ph_mod.gaussian_phantom(),
        "two-gaussians": ph_mod.Phantom(
            (
                ph_mod.Primitive(ph_mod.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
                ph_mod.Primitive(ph_mod.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
            ),
            7.0,
        ),
        "gaussian-ball": ph_mod.Phantom(
            (
                ph_mod.Primitive(ph_mod.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),
                ph_mod.Primitive(ph_mod.BALL, (2.0, 0.0, 0.0), 0.5, 1.0),
            ),
            6.0,
        ),
    }
    if args.preset not in presets:
        raise CliError(f"unknown preset {args.preset!r} (choose from {sorted(presets)})")
    ph_mod.save_phantom(presets[args.preset], args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_forward(args):
    cfg = load_config(args)
    ph = _load_phantom(cfg)
    quad = fibonacci_sphere(cfg.nodes)
    if cfg.branch != inversion.BRANCH_XRAY:
        _check_s_grid(ph, cfg)
    with _OutputSet(cfg.outdir) as out:
        if cfg.branch == inversion.BRANCH_XRAY:
            rng = np.random.default_rng(cfg.seed)
            pts = inversion.sample_ball_points(rng, cfg.points, ph.support_radius / 4.0)
            values = ph_mod.halfline_integral(ph, pts[:, None, :], quad.nodes)
            files = ["xray.csv"]
            xform.write_xray_csv(out.path(files[0]), pts, quad.nodes, values)
        else:
            data = inversion.build_radon_dataset(ph, quad, cfg.s_min, cfg.s_max, cfg.s_count)
            width = len(str(quad.count - 1))
            files = [f"profile_{k:0{width}d}.csv" for k in range(quad.count)]
            xform.write_profiles_csv(
                [out.path(name) for name in files], data.nodes, data.s_min, data.s_max, data.values
            )
        _write_manifest(out, cfg, files)
    print(f"wrote {len(files) + 1} files to {cfg.outdir}")
    return 0


def _check_s_grid(ph, cfg):
    """The Radon profiles square s - n.c and divide the square by a^2 for every
    primitive; both must be finite at the ends of the s-grid, where |s - n.c|
    is at most |s| + |c|."""
    end = max(abs(cfg.s_min), abs(cfg.s_max))
    for prim in ph.primitives:
        reach = end + float(np.linalg.norm(prim.center))
        reach = max(reach, reach / prim.scale)
        if not math.isfinite(reach * reach):
            raise CliError(
                f"the s-grid --s-min {cfg.s_min:g} --s-max {cfg.s_max:g} is too wide for the phantom: "
                f"(s - n.c)^2 or (s - n.c)^2 / a^2 is not finite at its ends; shrink the s-grid"
            )


def _filtering(cfg, compute, *args):
    """compute(*args), which filters Radon profiles on the config's s-grid; a profile
    that does not decay at the grid ends (hilbert.ProfileDecayError) is reported by flag."""
    try:
        return compute(*args)
    except ProfileDecayError as exc:
        raise CliError(
            f"the s-grid --s-min {cfg.s_min:g} --s-max {cfg.s_max:g} is too narrow for the phantom: "
            f"{exc}; widen the s-grid"
        ) from exc


def _calibration_radius(ph, cfg):
    """Radius of the ball of the calibration points: support_radius / 4, and
    for the radon branches at most min(-s_min, s_max), so that every offset
    x . n of a calibration point lies on the s-grid."""
    if cfg.branch == inversion.BRANCH_XRAY:
        return ph.support_radius / 4.0
    if not cfg.s_min < 0.0 < cfg.s_max:
        raise CliError(
            f"--branch {cfg.branch} needs s_min < 0 < s_max (the s-grid must contain the offsets of its "
            f"calibration points about the origin), got s_min={cfg.s_min:g}, s_max={cfg.s_max:g}"
        )
    return min(ph.support_radius / 4.0, -cfg.s_min, cfg.s_max)


def _corners(points):
    """The 8 corners of the bounding box of a (P, 3) point set, from the min and max
    of its contiguous columns (a reduction over axis 0 of (P, 3) runs row by row)."""
    columns = np.ascontiguousarray(points.T)
    return np.array(list(itertools.product(*zip(columns.min(axis=1), columns.max(axis=1)))))


def _grid_corners(grid):
    """The 8 corners of a VolumeGrid's bounding box, _corners of its points without
    reading them: the first and last of each axis_coords, which rise with the
    positive spacing."""
    return np.array(list(itertools.product(*((c[0], c[-1]) for c in map(grid.axis_coords, range(3))))))


def _check_offsets(cfg, corners, nodes, what):
    """Every offset x . n of a point set must lie on the s-grid (hilbert.offsets_on_grid);
    x . n is linear in x, so over the points' bounding box, whose corners are given,
    its extremes are at the corners."""
    offsets = nodes @ corners.T
    if not offsets_on_grid(offsets.min(), offsets.max(), cfg.s_min, cfg.s_max):
        raise CliError(
            f"{what} reaches plane offsets x . n from {offsets.min():.6g} to {offsets.max():.6g}, "
            f"beyond the s-grid --s-min {cfg.s_min:g} --s-max {cfg.s_max:g}; widen the s-grid"
        )


def _reconstruct_with_calibration(ph, cfg, voxels, corners):
    """invert's one pass: the voxels and the seeded calibration points (seed + 1)
    reconstructed in one call, on the phantom's data (inversion.phantom_data)
    on the config's s-grid.  corners are the 8 corners of the voxels'
    bounding box (unused without voxels).

    Returns the unit-normalized values of the voxels and of the points
    (inversion.reconstruct), with the density at the points.  The volume's
    checks run before any data is built.
    """
    cal_points = inversion.calibration_points(_calibration_radius(ph, cfg), seed=cfg.seed + 1)
    if cfg.branch != inversion.BRANCH_XRAY:
        _check_s_grid(ph, cfg)
    rcfg = inversion.ReconstructionConfig(fibonacci_sphere(cfg.nodes), cfg.diff_step, cfg.branch)
    if len(voxels):
        volume = f"the volume --vol-min {cfg.vol_min:g} --vol-max {cfg.vol_max:g}"
        with np.errstate(over="ignore"):
            dist2 = [np.sum((corners - prim.center) ** 2, axis=1) for prim in ph.primitives]
        if not np.all(np.isfinite(dist2)):
            raise CliError(f"|x - c|^2 is not finite at the corners of {volume}; shrink the volume")
        if cfg.branch != inversion.BRANCH_XRAY:
            _check_offsets(cfg, corners, rcfg.quadrature.nodes, f"--branch {cfg.branch}: {volume}")
    data = inversion.phantom_data(ph, rcfg, (cfg.s_min, cfg.s_max, cfg.s_count))
    values = _filtering(cfg, inversion.reconstruct, data, rcfg, np.concatenate((voxels, cal_points)))
    return values[: len(voxels)], values[len(voxels):], ph_mod.evaluate(ph, cal_points)


def _radon_target(ph, x):
    """-16 pi^3 I^1 f at x, which the radon branch's unit-normalized values approach."""
    return inversion.RADON_BRANCH_RIESZ * ph_mod.riesz_potential(ph, x)


def _norm(v):
    """The L2 norm of a 1-D array by a single-threaded einsum, not np.linalg.norm:
    that calls BLAS ddot, which past 10,000 elements may run threaded, wait for a
    busy core and round differently with the thread count."""
    return float(np.sqrt(np.einsum("i,i", v, v)))


def _metrics(ph, points, samples, target):
    """Relative L2 / max error of the samples at a (P, 3) point set against
    target(ph, x), support interior only.

    The target reads the points' contiguous columns (as the (P, 3) view
    columns.T); when every point lies inside, as on every default volume, the
    points and samples are taken whole, with no gather.
    """
    columns = np.ascontiguousarray(points.T)
    x1, x2, x3 = columns
    # |x| from the columns, np.linalg.norm(points, axis=1) bit for bit
    inside = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= ph.support_radius
    if inside.all():
        truth, rec = target(ph, columns.T), samples
    else:
        truth, rec = target(ph, columns.compress(inside, axis=1).T), samples[inside]
    truth_norm = _norm(truth)
    if truth_norm == 0.0:
        return float("nan"), float(np.max(np.abs(rec), initial=0.0))
    err = rec - truth
    rel_l2 = _norm(err) / truth_norm
    max_err = float(np.max(np.abs(err, out=err)))
    return rel_l2, max_err


def cmd_invert(args):
    """Reconstruct the volume and the seeded calibration points in one pass over the
    phantom's data; fitted_scale fits the points' unit-normalized values to the density."""
    cfg = load_config(args)
    ph = _load_phantom(cfg)
    # The classical branch has its constant built in: it takes no normalization, records 1.0.
    if cfg.branch == inversion.BRANCH_CLASSICAL and cfg.normalization != RunConfig.normalization:
        raise CliError(
            f"invert --branch {cfg.branch} has its constant -1/(8 pi^2) built in and takes no "
            f"--normalization; got {cfg.normalization!r}, leave it at the default {RunConfig.normalization!r}"
        )
    if cfg.normalization == 0.0:
        raise CliError(f"invert --branch {cfg.branch}: --normalization must be nonzero, got {cfg.normalization!r}")
    cfg = replace(cfg, normalization=1.0) if cfg.branch == inversion.BRANCH_CLASSICAL else cfg
    grid = _volume_grid(cfg)
    points = grid.points()
    unit, raw, truth = _reconstruct_with_calibration(ph, cfg, points, _grid_corners(grid))
    # the one product with --normalization; a value past float64 is past float32
    # too, so the check below is its only range guard
    with np.errstate(over="ignore"):
        values = cfg.normalization * unit
    # volume.raw holds float32: a value beyond its range would be written as inf.
    # One max-abs reduction, in which a NaN propagates; the bad values are counted
    # only when it fails.
    limit = np.finfo(np.float32).max
    if not np.max(np.abs(values), initial=0.0) <= limit:
        bad = ~(np.abs(values) <= limit)
        raise CliError(
            f"invert: {np.count_nonzero(bad)} of {len(values)} reconstructed values are not finite "
            f"in float32 (--vol-min {cfg.vol_min:g} --vol-max {cfg.vol_max:g}, "
            f"--normalization {cfg.normalization:g}); shrink the volume or the normalization"
        )
    vol = grid.with_samples(values)
    if cfg.branch == inversion.BRANCH_RADON:
        target_name, samples, target = "-16pi^3*I1f", unit, _radon_target
    else:
        target_name, samples, target = "f", values, ph_mod.evaluate
    rel_l2, max_err = _metrics(ph, points, samples, target)
    try:
        fitted = inversion.fit_scale(raw, truth).scale
    except ValueError:  # an identically zero reconstruction
        fitted = float("nan")
    with _OutputSet(cfg.outdir) as out:
        inversion.write_volume(
            out.path("volume.raw"), out.path("volume.json"), vol, branch=cfg.branch,
            normalization=cfg.normalization, quadrature_count=cfg.nodes, diff_step=cfg.diff_step,
        )
        with open(out.path("metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("rel_l2,max_err,fitted_scale,target\n")
            fh.write(f"{rel_l2:.17g},{max_err:.17g},{fitted:.17g},{target_name}\n")
    print(f"branch={cfg.branch} rel_l2={rel_l2:.6g} max_err={max_err:.6g} target={target_name}")
    return 0


def cmd_check(args):
    """The Grangeat sweep, and lemma9's two sides at 20 seeded points on the config's s-grid."""
    cfg = load_config(args)
    ph = _load_phantom(cfg)
    if not ph.is_smooth:
        raise CliError("check requires a smooth (gaussian-only) phantom")
    quad = fibonacci_sphere(cfg.nodes)
    pts = inversion.sample_ball_points(np.random.default_rng(cfg.seed), 20, ph.support_radius / 4.0)
    _check_s_grid(ph, cfg)
    _check_offsets(cfg, _corners(pts), quad.nodes, f"check: lemma9's points (radius {ph.support_radius / 4.0:g})")
    with _OutputSet(cfg.outdir) as out:
        xdata = functools.partial(ph_mod.halfline_integral, ph)
        n = np.array([1.0, 0.0, 0.0])
        sweep = np.linspace(-2.0, 2.0, 41)
        lhs = inversion.grangeat_convert(xdata, sweep[:, None] * n, n, cfg.band)
        rhs = -ph_mod.plane_integral_derivative(ph, n, sweep)
        with open(out.path("grangeat.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("s,lhs,rhs,abs_error\n")
            for row in np.column_stack((sweep, lhs, rhs, np.abs(lhs - rhs))):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        with open(out.path("lemma9.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x1,x2,x3,left,right,ratio,difference\n")
            rep = _filtering(cfg, inversion.lemma9_diagnostic, ph, pts, quad, (cfg.s_min, cfg.s_max, cfg.s_count))
            for row in np.column_stack((pts, rep.left, rep.right, rep.ratio, rep.difference)):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote checks to {cfg.outdir}")
    return 0


def cmd_calibrate(args):
    """invert's calibration without the volume, at unit normalization on every branch."""
    cfg = load_config(args)
    ph = _load_phantom(cfg)
    _, raw, truth = _reconstruct_with_calibration(ph, cfg, np.zeros((0, 3)), None)
    cal = inversion.fit_scale(raw, truth)
    with _OutputSet(cfg.outdir) as out:
        result = {
            "branch": cfg.branch,
            "scale": cal.scale,
            "residual": cal.residual,
            "derived_xray_constant": inversion.XRAY_BRANCH_CONSTANT,
        }
        with open(out.path("calibration.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(result, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"branch={cfg.branch} scale={cal.scale:.8g} residual={cal.residual:.4g}")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process.

    A subcommand is stored by name (args.command); main looks up its
    cmd_* function when it runs, so a function replaced on this module
    later (a profiler's wrapper, a test's stub) is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="xradon",
        description="Analytic X-ray / Radon transform toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("phantom-gen", help="write a preset phantom file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--preset", default="unit-gaussian")

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file (flags win)")
        for f in fields(RunConfig):
            p.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f.name,
                type=type(f.default),
                choices=inversion.BRANCHES if f.name == "branch" else None,
            )

    for name, help_text in (
        ("forward", "write forward data (x-ray CSV or Radon profiles)"),
        ("invert", "reconstruct a volume and report metrics"),
        ("check", "Grangeat sweep and spherical-average diagnostic"),
        ("calibrate", "fit the normalization constant"),
    ):
        add_run_flags(sub.add_parser(name, help=help_text))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
