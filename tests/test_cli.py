import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xradon import cli as cli_mod
from xradon import inversion as inv
from xradon import phantom as phm
from xradon.cli import CliError, RunConfig, build_parser, load_config, main
from xradon.geometry import VolumeGrid, fibonacci_sphere
from xradon.inversion import BRANCHES


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def phantom_file(tmp_path):
    path = tmp_path / "ph.txt"
    assert run("phantom-gen", "--out", str(path), "--preset", "unit-gaussian") == 0
    return path


@pytest.fixture()
def failing_volume_write(monkeypatch):
    """inversion.write_volume writes both volume files and then raises OSError:
    a failure inside invert's output block.  Returns the files it wrote."""
    write = inv.write_volume
    written = []

    def write_then_fail(data_path, meta_path, *args, **kwargs):
        write(data_path, meta_path, *args, **kwargs)
        written.extend(p for p in (data_path, meta_path) if os.path.getsize(p) > 0)
        raise OSError("disk full after the volume")

    monkeypatch.setattr(inv, "write_volume", write_then_fail)
    return written


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# A Gaussian of amplitude 1e307: its reconstructions, the calibration fit's dot
# products and lemma9's Hilbert-filtered profiles overflow float64.
OVERFLOWING_PHANTOM = "support_radius 7\ngaussian 0 0 0 1.0 1e307\n"


def overflow_failure(tmp_path, capsys, *argv):
    """Run a command on OVERFLOWING_PHANTOM: it must exit 1 with no outdir left.
    Returns its stderr."""
    ph = tmp_path / "big.txt"
    ph.write_text(OVERFLOWING_PHANTOM)
    outdir = tmp_path / "o"
    assert run(*argv, "--phantom", str(ph), "--nodes", "40", "--outdir", str(outdir)) == 1
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestPhantomGen:
    def test_presets(self, tmp_path):
        for preset in ("unit-gaussian", "two-gaussians", "gaussian-ball"):
            path = tmp_path / f"{preset}.txt"
            assert run("phantom-gen", "--out", str(path), "--preset", preset) == 0
            assert path.exists()

    def test_unknown_preset(self, tmp_path):
        assert run("phantom-gen", "--out", str(tmp_path / "x.txt"), "--preset", "cube") == 1


class TestForward:
    def test_radon_profile_count(self, tmp_path, phantom_file):
        outdir = tmp_path / "fwd"
        assert run(
            "forward", "--phantom", str(phantom_file), "--branch", "radon",
            "--nodes", "200", "--s-count", "64", "--outdir", str(outdir),
        ) == 0
        names = sorted(os.listdir(outdir))
        profiles = [n for n in names if n.startswith("profile_")]
        assert len(profiles) == 200
        assert "manifest.json" in names

    def test_empty_phantom_zero_profiles(self, tmp_path):
        ph = tmp_path / "empty.txt"
        ph.write_text("support_radius 1\n")
        outdir = tmp_path / "fwd"
        assert run(
            "forward", "--phantom", str(ph), "--branch", "radon",
            "--nodes", "5", "--s-count", "32", "--outdir", str(outdir),
        ) == 0
        body = (outdir / "profile_0.csv").read_text().splitlines()[3:]
        assert all(float(line.split(",")[1]) == 0.0 for line in body)

    def test_rerun_byte_identical(self, tmp_path, phantom_file):
        args = [
            "forward", "--phantom", str(phantom_file), "--branch", "xray",
            "--nodes", "50", "--points", "10", "--seed", "3",
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(*args, "--outdir", str(a)) == 0
        assert run(*args, "--outdir", str(b)) == 0
        assert read_tree(a) == read_tree(b)

    def test_missing_phantom(self, tmp_path):
        assert run("forward", "--phantom", str(tmp_path / "no.txt"), "--outdir", str(tmp_path / "o")) == 1


class TestInvert:
    def test_xray_metrics(self, tmp_path, phantom_file):
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", "xray",
            "--nodes", "200", "--vol-dims", "9", "--outdir", str(outdir),
        ) == 0
        header, row = (outdir / "metrics.csv").read_text().splitlines()
        assert header == "rel_l2,max_err,fitted_scale,target"
        *numbers, target = row.split(",")
        assert target == "f"
        rel_l2, _, fitted = (float(v) for v in numbers)
        assert rel_l2 <= 0.01
        assert abs(fitted / (-1.0 / (4.0 * np.pi)) - 1.0) < 1e-3
        meta = json.loads((outdir / "volume.json").read_text())
        assert meta["dims"] == [9, 9, 9]
        assert len((outdir / "volume.raw").read_bytes()) == 9**3 * 4

    @pytest.mark.parametrize(
        "branch, target, bound", [("radon", "-16pi^3*I1f", 1e-3), ("classical_radon", "f", 2.5e-3)]
    )
    def test_radon_branches_name_their_target(self, tmp_path, branch, target, bound):
        # the radon branch's unit-normalized volume approaches -16 pi^3 I^1 f, not f
        # (rel_l2 41.55 at the CLI defaults against f).  Two-gaussians, 500 nodes, 9^3
        # voxels: rel_l2 8.4e-4 against that target, classical_radon 1.98e-3 against f.
        # The radon row is that of the unit-normalized values, so --normalization
        # does not move it.
        ph_path = tmp_path / "ph.txt"
        assert run("phantom-gen", "--out", str(ph_path), "--preset", "two-gaussians") == 0
        flags = ["--phantom", str(ph_path), "--branch", branch, "--nodes", "500", "--vol-dims", "9"]
        assert run("invert", *flags, "--outdir", str(tmp_path / "a")) == 0
        header, row = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
        assert header == "rel_l2,max_err,fitted_scale,target"
        *numbers, name = row.split(",")
        assert name == target
        assert float(numbers[0]) <= bound
        if branch == "radon":
            assert run("invert", *flags, "--normalization", "2", "--outdir", str(tmp_path / "b")) == 0
            other = (tmp_path / "b" / "metrics.csv").read_text().splitlines()[1].split(",")
            assert other[:2] == numbers[:2] and other[3] == name

    def test_xray_ball_matches_density_off_its_surface(self, tmp_path, monkeypatch):
        # gaussian-ball at the CLI defaults (33^3 voxels, 2,000 nodes, h = 1e-4).  At
        # voxels at least h from the ball's surface the ball's term is exact, so the
        # error is the unit Gaussian's O(h^2) floor: the central difference of
        # -int_{-h}^{h} f(x + t n) dt is off by (h^2 / 6) d^2f/dt^2, whose sphere
        # mean is (h^2 / 18) Laplacian f, at most 6 h^2 / 18 = 3.33e-9 at the centre
        ph_path = tmp_path / "gb.txt"
        assert run("phantom-gen", "--out", str(ph_path), "--preset", "gaussian-ball") == 0
        values = []
        reconstruct = inv.reconstruct

        def keep(*args):
            values.append(reconstruct(*args))
            return values[-1]

        monkeypatch.setattr(inv, "reconstruct", keep)
        outdir = tmp_path / "inv"
        assert run("invert", "--phantom", str(ph_path), "--branch", "xray", "--outdir", str(outdir)) == 0
        assert "nan" not in (outdir / "metrics.csv").read_text().lower()
        ph = phm.load_phantom(ph_path)
        cfg = RunConfig()
        points = cli_mod._volume_grid(cfg).points()
        rec = cfg.normalization * values[0][: len(points)]
        ball = ph.primitives[1]
        off = np.abs(np.linalg.norm(points - ball.center, axis=1) - ball.scale) >= cfg.diff_step
        assert np.count_nonzero(~off) == 1
        assert np.max(np.abs(rec - phm.evaluate(ph, points))[off]) <= 1.02 * cfg.diff_step**2 / 3.0

    def test_classical_ball_ringing_is_bounded(self, tmp_path):
        # gaussian-ball at the CLI defaults reads rel_l2 0.3441 with the 7-point
        # stencil (0.3696 with the band-limited kernel it replaced): the error sits at
        # the kinks of the ball's profiles, where d^2/ds^2 Rf holds a delta.  It may
        # only improve.
        ph_path = tmp_path / "gb.txt"
        assert run("phantom-gen", "--out", str(ph_path), "--preset", "gaussian-ball") == 0
        outdir = tmp_path / "inv"
        assert run("invert", "--phantom", str(ph_path), "--branch", "classical_radon", "--outdir", str(outdir)) == 0
        rel_l2 = float((outdir / "metrics.csv").read_text().splitlines()[1].split(",")[0])
        assert rel_l2 <= 0.38

    def test_zero_phantom_sentinel(self, tmp_path):
        ph = tmp_path / "empty.txt"
        ph.write_text("support_radius 1\n")
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(ph), "--branch", "xray",
            "--nodes", "20", "--vol-dims", "5", "--outdir", str(outdir),
        ) == 0
        row = (outdir / "metrics.csv").read_text().splitlines()[1]
        rel_l2 = row.split(",")[0]
        assert rel_l2 == "nan"
        vol = np.frombuffer((outdir / "volume.raw").read_bytes(), dtype="<f4")
        assert np.all(vol == 0.0)

    def test_determinism(self, tmp_path, phantom_file):
        args = [
            "invert", "--phantom", str(phantom_file), "--branch", "xray",
            "--nodes", "100", "--vol-dims", "7",
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(*args, "--outdir", str(a)) == 0
        assert run(*args, "--outdir", str(b)) == 0
        assert read_tree(a) == read_tree(b)

    def test_config_file_with_flag_override(self, tmp_path, phantom_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": str(phantom_file), "nodes": 100, "vol_dims": 5}))
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--config", str(cfg), "--vol-dims", "7", "--outdir", str(outdir),
        ) == 0
        meta = json.loads((outdir / "volume.json").read_text())
        assert meta["dims"] == [7, 7, 7]
        assert meta["quadrature_count"] == 100

    def test_unknown_config_key(self, tmp_path, phantom_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": str(phantom_file), "mode": "fast"}))
        assert run("invert", "--config", str(cfg), "--outdir", str(tmp_path / "o")) == 1

    @staticmethod
    def narrow_phantom(tmp_path):
        """One Gaussian of width 0.5 at the origin in a support ball of radius 40."""
        path = tmp_path / "narrow.txt"
        path.write_text("support_radius 40\ngaussian 0 0 0 0.5 1\n")
        return path

    @pytest.mark.parametrize(
        "branch, radius, tol",
        [
            # radon branches: the ball is clipped to the s-grid, min(40 / 4, 4); their
            # backprojection blocks are sized by hilbert.sample_width(P, S), so the
            # volume's points sum in another order than the 50 points'
            ("xray", 10.0, 1e-15),
            ("radon", 4.0, 1e-12),
            ("classical_radon", 4.0, 1e-12),
        ],
    )
    def test_fitted_scale_is_the_volume_data_fit(self, tmp_path, branch, radius, tol):
        # invert's calibration points are reconstructed with the volume, on its own
        # data and s-grid; the fit equals the calibrate command's at the same flags,
        # which reconstructs the same points; both fit reconstruct's unit-normalized values
        ph_path = self.narrow_phantom(tmp_path)
        flags = [
            "--phantom", str(ph_path), "--branch", branch, "--nodes", "200",
            "--s-min", "-4", "--s-max", "4", "--s-count", "401",
        ]
        outdir = tmp_path / "inv"
        assert run(
            "invert", *flags, "--vol-min", "-2", "--vol-max", "2", "--vol-dims", "7", "--outdir", str(outdir),
        ) == 0
        assert run("calibrate", *flags, "--outdir", str(tmp_path / "cal")) == 0
        fitted = float((outdir / "metrics.csv").read_text().splitlines()[1].split(",")[2])
        calibrated = json.loads((tmp_path / "cal" / "calibration.json").read_text())["scale"]
        assert abs(fitted - calibrated) <= tol * abs(calibrated)
        if branch == "xray":
            # both commands fit reconstruct's values as they are: no rescaling rounds them apart
            assert fitted == calibrated
        ph = phm.load_phantom(ph_path)
        rcfg = inv.ReconstructionConfig(fibonacci_sphere(200), branch=branch)
        points = inv.calibration_points(radius, seed=1)
        raw = inv.reconstruct(inv.phantom_data(ph, rcfg, (-4.0, 4.0, 401)), rcfg, points)
        assert calibrated == inv.fit_scale(raw, phm.evaluate(ph, points)).scale

    def test_narrow_s_grid_calibrates(self, tmp_path):
        # support_radius / 4 = 10 would put calibration offsets off the s-grid [-4, 4]
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(self.narrow_phantom(tmp_path)), "--branch", "radon",
            "--s-min", "-4", "--s-max", "4", "--nodes", "200",
            "--vol-min", "-2", "--vol-max", "2", "--vol-dims", "5", "--outdir", str(outdir),
        ) == 0
        fitted = float((outdir / "metrics.csv").read_text().splitlines()[1].split(",")[2])
        assert np.isfinite(fitted)

    @pytest.mark.parametrize("branch", ["radon", "classical_radon"])
    @pytest.mark.parametrize("s_min, s_max", [(1.0, 8.0), (-8.0, -1.0), (-8.0, 0.0)])
    def test_s_grid_without_origin_rejected(self, tmp_path, phantom_file, capsys, branch, s_min, s_max):
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", branch, "--nodes", "20",
            "--s-min", repr(s_min), "--s-max", repr(s_max), "--vol-dims", "5", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "needs s_min < 0 < s_max" in err
        assert "Traceback" not in err
        assert not outdir.exists()


    @pytest.mark.parametrize("branch", ["radon", "classical_radon"])
    def test_volume_beyond_s_grid_rejected(self, tmp_path, phantom_file, capsys, branch):
        # the default volume [-3, 3]^3 reaches plane offsets of up to 3 sqrt(3) = 5.2
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", branch,
            "--s-min", "-4", "--s-max", "4", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "--s-min" in err and "--vol-min" in err and "x . n from -5" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("branch", ["radon", "classical_radon"])
    @pytest.mark.parametrize("scale, ok", [(1.0, True), (1.0 - 1e-8, False)])
    def test_volume_at_s_grid_edge(self, tmp_path, phantom_file, branch, scale, ok):
        # s_max at the largest corner offset runs; 1e-8 inside it, beyond the slack, does not
        nodes = fibonacci_sphere(20).nodes
        corners = np.array([[x, y, z] for x in (-2.0, 2.0) for y in (-2.0, 2.0) for z in (-2.0, 2.0)])
        edge = float(np.max(np.abs(nodes @ corners.T))) * scale
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", branch, "--nodes", "20",
            "--s-min", repr(-edge), "--s-max", repr(edge), "--s-count", "201",
            "--vol-min", "-2", "--vol-max", "2", "--vol-dims", "5", "--outdir", str(outdir),
        ) == (0 if ok else 1)
        assert outdir.exists() == ok

    @pytest.mark.parametrize("value, code", [("2", 1), (repr(RunConfig.normalization), 0)])
    def test_classical_normalization(self, tmp_path, phantom_file, capsys, value, code):
        # the classical branch's constant is built in; only the default is accepted
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", "classical_radon", "--nodes", "20",
            "--vol-dims", "5", "--normalization", value, "--outdir", str(outdir),
        ) == code
        if code:
            assert "--normalization" in capsys.readouterr().err
        assert outdir.exists() == (code == 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("branch", ["xray", "radon"])
    @pytest.mark.parametrize("value", ["1e308", "2e307", "-2e307"])
    def test_overflowing_normalization_rejected(self, tmp_path, phantom_file, capsys, branch, value):
        # normalization times the sphere sum overflows float64, so float32 too: the
        # range check names the flag, with no RuntimeWarning, and nothing is written
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", branch, "--nodes", "40",
            "--vol-dims", "3", f"--normalization={value}", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "--normalization" in err and "not finite in float32" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("branch, flags, scale", [
        ("xray", ["--normalization", "2"], 2.0),
        ("radon", ["--normalization", "2"], 2.0),
        ("classical_radon", [], 1.0),
    ])
    def test_volume_is_one_scaling_of_reconstruct(self, tmp_path, phantom_file, branch, flags, scale):
        # the volume is reconstruct's unit-normalized values times --normalization,
        # formed once and rounded to float32; the classical branch is not scaled
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--branch", branch, "--nodes", "40",
            "--vol-dims", "5", *flags, "--outdir", str(outdir),
        ) == 0
        ph = phm.load_phantom(phantom_file)
        rcfg = inv.ReconstructionConfig(fibonacci_sphere(40), branch=branch)
        voxels = VolumeGrid((-3.0,) * 3, (1.5,) * 3, (5, 5, 5)).points()
        points = np.concatenate((voxels, inv.calibration_points(ph.support_radius / 4.0, seed=1)))
        unit = inv.reconstruct(inv.phantom_data(ph, rcfg, (-8.0, 8.0, 801)), rcfg, points)[: len(voxels)]
        volume = np.fromfile(outdir / "volume.raw", dtype="<f4")
        assert np.array_equal(volume, (scale * unit).astype(np.float32))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_volume_rejected(self, tmp_path, phantom_file, capsys):
        # |x|^2 overflows at 1e200: rejected before any work, and nothing is written
        outdir = tmp_path / "inv"
        assert run(
            "invert", "--phantom", str(phantom_file), "--nodes", "40", "--vol-dims", "5",
            "--vol-min=-1e200", "--vol-max=1e200", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "--vol-min" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "width, s_max",
        # (s - n.c)^2 overflows for the wide Gaussian, (s - n.c)^2 / a^2 for the narrow one
        [("10", "1e155"), ("0.1", "1e154")],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("forward", "--branch", "radon"),
            ("invert", "--branch", "radon", "--vol-dims", "5"),
            ("check", "--band", "0.5"),
            ("calibrate", "--branch", "classical_radon"),
        ],
        ids=lambda c: c[0],
    )
    def test_overflowing_s_grid_rejected(self, tmp_path, capsys, width, s_max, command):
        path = tmp_path / "ph.txt"
        path.write_text(f"gaussian 0 0 0 {width} 1\n")
        outdir = tmp_path / "o"
        assert run(
            *command, "--phantom", str(path), "--nodes", "20", "--s-max", s_max, "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "too wide" in err and "--s-max" in err
        assert "Traceback" not in err
        assert not outdir.exists()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(BRANCHES)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = st.sampled_from([f.name for f in fields(RunConfig)]) | st.text(max_size=8)


class TestMetrics:
    """invert's scores: the target on the points' columns, with no gather when every
    point lies inside the support, and norms by single-threaded reductions."""

    @pytest.mark.parametrize("target", [phm.evaluate, cli_mod._radon_target], ids=["f", "riesz"])
    def test_all_inside_path_equals_the_gathered_path(self, target):
        # two-gaussians (support radius 7) on a 9^3 volume in [-3, 3]^3, all inside;
        # the same voxels with points outside the support appended take the gathered
        # path, whose scores are those of the inside points alone
        ph = phm.parse_phantom("support_radius 7\ngaussian 1 0 0 1 1\ngaussian -1 0 0 1 1\n")
        grid = VolumeGrid((-3.0, -3.0, -3.0), (0.75, 0.75, 0.75), (9, 9, 9))
        points = grid.points()
        samples = target(ph, points) * (1.0 + 1e-6 * np.cos(np.arange(len(points))))
        whole = cli_mod._metrics(ph, points, samples, target)
        outside = np.array([[8.0, 0.0, 0.0], [0.0, -5.0, 5.0], [4.1, 4.1, 4.1]])
        gathered = cli_mod._metrics(
            ph, np.vstack([outside[:1], points, outside[1:]]), np.concatenate([[1e3], samples, [-2.0, np.nan]]), target
        )
        assert np.array_equal(np.array(whole).view(np.uint64), np.array(gathered).view(np.uint64))
        assert np.isfinite(whole).all()

    def test_metrics_independent_of_blas_threads(self, tmp_path):
        # 23^3 = 12,167 voxels, above the 10,000 elements where OpenBLAS threads ddot:
        # a norm through BLAS could round differently with 1 and 2 threads
        ph_path = tmp_path / "ph.txt"
        assert run("phantom-gen", "--out", str(ph_path), "--preset", "two-gaussians") == 0
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        rows = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            outdir = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-c", "import sys; from xradon.cli import main; sys.exit(main(sys.argv[1:]))",
                 "invert", "--phantom", str(ph_path), "--vol-dims", "23", "--nodes", "40", "--outdir", str(outdir)],
                env=env, check=True, capture_output=True,
            )
            rows.append((outdir / "metrics.csv").read_bytes())
        assert rows[0] == rows[1]


class TestConfigValidation:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(raw=st.dictionaries(CONFIG_KEYS, st.integers(10**308, 10**400) | JSON_SCALARS | JSON_VALUES, max_size=6))
    def test_load_config_fuzz(self, tmp_path_factory, raw):
        # any JSON object gives a valid RunConfig holding its values, or a
        # CliError; never another exception
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        try:
            cfg = load_config(argparse.Namespace(config=str(path)))
        except CliError:
            return
        assert isinstance(cfg, RunConfig)
        cfg.validate()
        for name, value in raw.items():
            kept = float(value) if type(getattr(RunConfig, name)) is float else value
            assert getattr(cfg, name) == kept

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[1, 2]", "JSON object"),
            ('"nodes"', "JSON object"),
            ('{"nodes": "abc"}', "nodes"),
            ('{"nodes": 2.5}', "nodes"),
            ('{"vol_dims": true}', "vol_dims"),
            ('{"s_min": "x"}', "s_min"),
            ('{"branch": 3}', "branch"),
            ('{"phantom": null}', "phantom"),
            ('{"normalization": NaN}', "normalization"),
            ('{"diff_step": Infinity}', "diff_step"),
            ('{"seed": -1}', "seed"),
            ('{"s_count": 5}', "s_count"),
            ('{"diff_step": 1e-320}', "diff_step"),
            ('{"s_min": -1e308, "s_max": 1e308}', "s_min and s_max"),
            pytest.param('{"s_max": 1' + "0" * 400 + "}", "s_max", id="float-field-int-overflow"),
            pytest.param('{"nodes": ' + "1" * 5000 + "}", "unreadable config", id="int-over-digit-limit"),
        ],
    )
    def test_rejects_bad_config(self, tmp_path, phantom_file, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        outdir = tmp_path / "o"
        rc = run(
            "invert", "--config", str(cfg), "--phantom", str(phantom_file),
            "--nodes", "20", "--vol-dims", "5", "--outdir", str(outdir),
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert named in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["--normalization=nan", "--diff-step=nan", "--s-max=inf", "--band=inf"])
    def test_non_finite_flag_named(self, tmp_path, phantom_file, capsys, flag):
        outdir = tmp_path / "o"
        assert run(
            "invert", "--phantom", str(phantom_file), "--nodes", "20", "--vol-dims", "5",
            flag, "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert f"{flag.split('=')[0]} (config field" in err and "must be finite" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("invert", ["--vol-dims", "0"], ["--vol-dims (config field vol_dims) must be positive"]),
            ("forward", ["--points", "0"], ["--points (config field points) must be positive"]),
            ("invert", ["--diff-step=-1e-4"], ["--diff-step (config field diff_step) must be at least"]),
            ("check", ["--band", "0"], ["--band (config field band) must be in (0, 1]"]),
            ("check", ["--band", "1.5"], ["--band (config field band) must be in (0, 1]"]),
            ("invert", ["--band", "1.5"], ["--band (config field band) must be in (0, 1]"]),
            ("check", ["--band", "1e-320"], ["--band (config field band) must be in (0, 1]"]),
            ("check", ["--band", "1e-10"], ["--band (config field band) must be in (0, 1]", "at least 1e-08"]),
            ("invert", ["--s-count", "5"], ["--s-count (config field s_count) must be at least 8"]),
            ("invert", ["--seed", "-1"], ["--seed (config field seed)"]),
            ("invert", ["--s-min", "2", "--s-max", "1"], ["--s-max (config field s_max) must exceed --s-min 2"]),
            ("invert", ["--vol-min", "2", "--vol-max", "1"], ["--vol-max (config field vol_max) must exceed --vol-min"]),
        ],
        ids=[
            "vol-dims", "points", "diff-step", "band-zero", "check-band-above-1", "invert-band-above-1",
            "band-subnormal", "band-below-floor", "s-count", "seed", "s-grid-empty", "volume-empty",
        ],
    )
    def test_invalid_flag_named(self, tmp_path, phantom_file, capsys, command, flags, named):
        outdir = tmp_path / "o"
        assert run(command, "--phantom", str(phantom_file), "--nodes", "40", *flags, "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert all(text in err for text in named), err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_flag_parses_into_field(self, field):
        # every RunConfig field has its flag, of the field's type
        sample = {"branch": "radon", int: 9, float: 0.25, str: "name"}
        value = sample.get(field.name, sample[type(field.default)])
        flag = "--" + field.name.replace("_", "-")
        cfg = load_config(build_parser().parse_args(["invert", flag, str(value)]))
        assert getattr(cfg, field.name) == value
        assert type(getattr(cfg, field.name)) is type(field.default)

    def test_integer_for_float_field(self, tmp_path, phantom_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vol_min": -3, "vol_max": 3}))
        outdir = tmp_path / "o"
        assert run(
            "invert", "--config", str(cfg), "--phantom", str(phantom_file),
            "--nodes", "20", "--vol-dims", "5", "--outdir", str(outdir),
        ) == 0
        meta = json.loads((outdir / "volume.json").read_text())
        assert meta["origin"] == [-3.0, -3.0, -3.0]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 60), st.just(3)), elements=st.floats(allow_nan=False, allow_infinity=False)),
    st.booleans(),
)
def test_corners_equal_axis_reductions(points, transposed):
    # the min and max of contiguous columns against those over axis 0 of (P, 3),
    # on C-ordered points and on a transposed view
    if transposed:
        points = np.ascontiguousarray(points.T).T
    old = np.array(list(itertools.product(*zip(points.min(axis=0), points.max(axis=0)))))
    assert np.array_equal(cli_mod._corners(points).view(np.uint64), old.view(np.uint64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*[st.floats(-1e3, 1e3)] * 3),
    st.tuples(*[st.floats(1e-6, 1e2)] * 3),
    st.tuples(*[st.integers(1, 9)] * 3),
)
def test_grid_corners_equal_the_points_corners(origin, spacing, dims):
    # invert takes the volume's corners from the axis coordinates, not from its voxels
    grid = VolumeGrid(origin, spacing, dims)
    expected = cli_mod._corners(grid.points())
    assert np.array_equal(cli_mod._grid_corners(grid).view(np.uint64), expected.view(np.uint64))


class TestCheck:
    def test_outputs_and_determinism(self, tmp_path, phantom_file):
        args = ["check", "--phantom", str(phantom_file), "--nodes", "500", "--seed", "1"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(*args, "--outdir", str(a)) == 0
        assert run(*args, "--outdir", str(b)) == 0
        assert read_tree(a) == read_tree(b)
        lines = (a / "grangeat.csv").read_text().splitlines()
        assert lines[0] == "s,lhs,rhs,abs_error"
        assert len(lines) == 42
        # symmetric point: both sides vanish
        mid = lines[21].split(",")
        assert abs(float(mid[1])) < 1e-2 and abs(float(mid[2])) < 1e-2
        assert len((a / "lemma9.csv").read_text().splitlines()) == 21

    def test_grangeat_rhs_is_the_closed_form(self, tmp_path, phantom_file):
        # rhs is -dRf/ds by its closed form, written exactly; abs_error is |lhs - rhs|
        outdir = tmp_path / "o"
        assert run("check", "--phantom", str(phantom_file), "--nodes", "200", "--band", "0.2", "--outdir", str(outdir)) == 0
        rows = np.loadtxt(outdir / "grangeat.csv", delimiter=",", skiprows=1)
        n = np.array([1.0, 0.0, 0.0])
        sweep = np.linspace(-2.0, 2.0, 41)
        assert np.array_equal(rows[:, 0], sweep)
        assert np.array_equal(rows[:, 2], -phm.plane_integral_derivative(phm.load_phantom(phantom_file), n, sweep))
        assert np.array_equal(rows[:, 3], np.abs(rows[:, 1] - rows[:, 2]))

    def test_grangeat_lhs_matches_rhs_at_the_default_band(self, tmp_path):
        # the great-circle conversion's O(band^2) error at band 1e-4 is near 1e-8
        ph = tmp_path / "ph.txt"
        assert run("phantom-gen", "--out", str(ph), "--preset", "two-gaussians") == 0
        outdir = tmp_path / "o"
        assert run("check", "--phantom", str(ph), "--nodes", "200", "--outdir", str(outdir)) == 0
        rows = np.loadtxt(outdir / "grangeat.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) <= 1e-7 * np.max(np.abs(rows[:, 2]))

    def test_rejects_ball_phantom(self, tmp_path):
        ph = tmp_path / "ball.txt"
        assert run("phantom-gen", "--out", str(ph), "--preset", "gaussian-ball") == 0
        assert run("check", "--phantom", str(ph), "--outdir", str(tmp_path / "o")) == 1

    def test_lemma9_reads_the_s_grid(self, tmp_path, phantom_file):
        # the right side is built on --s-min/--s-max/--s-count; the left side has no s-grid
        columns = {}
        for count in ("101", "801"):
            outdir = tmp_path / count
            assert run(
                "check", "--phantom", str(phantom_file), "--nodes", "200", "--band", "0.2",
                "--s-count", count, "--outdir", str(outdir),
            ) == 0
            columns[count] = np.loadtxt(outdir / "lemma9.csv", delimiter=",", skiprows=1)
        assert np.array_equal(columns["101"][:, :4], columns["801"][:, :4])
        assert not np.any(columns["101"][:, 4] == columns["801"][:, 4])

    def test_s_grid_without_lemma9_offsets_rejected(self, tmp_path, phantom_file, capsys):
        # lemma9's points lie in a ball of radius 6 / 4 = 1.5; [-1, 1] misses their offsets
        outdir = tmp_path / "o"
        assert run(
            "check", "--phantom", str(phantom_file), "--nodes", "40", "--band", "0.2",
            "--s-min", "-1", "--s-max", "1", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "lemma9" in err and "--s-min" in err and "--s-max" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lemma9_named(self, tmp_path, capsys):
        # the left side is finite and the right side's FFT overflows to NaN
        err = overflow_failure(tmp_path, capsys, "check")
        assert "check: lemma9's two sides must be finite; scale the phantom's amplitudes down" in err

    def test_zero_right_side_keeps_nan_ratio(self, tmp_path):
        # a phantom with no primitives: both sides are 0, and the ratio is NaN by its definition
        ph = tmp_path / "empty.txt"
        ph.write_text("support_radius 7\n")
        outdir = tmp_path / "o"
        assert run("check", "--phantom", str(ph), "--nodes", "40", "--outdir", str(outdir)) == 0
        rows = np.loadtxt(outdir / "lemma9.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 3:5] == 0.0) and np.all(np.isnan(rows[:, 5])) and np.all(rows[:, 6] == 0.0)

    def test_rejects_overwide_band(self, tmp_path, phantom_file, capsys):
        outdir = tmp_path / "o"
        assert run(
            "check", "--phantom", str(phantom_file), "--nodes", "40", "--band", "1e103",
            "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "band" in err and "Traceback" not in err
        assert not outdir.exists()


class TestCalibrate:
    def test_xray_scale(self, tmp_path, phantom_file):
        outdir = tmp_path / "cal"
        assert run(
            "calibrate", "--phantom", str(phantom_file), "--branch", "xray",
            "--nodes", "500", "--outdir", str(outdir),
        ) == 0
        result = json.loads((outdir / "calibration.json").read_text())
        assert abs(result["scale"] / (-1.0 / (4.0 * np.pi)) - 1.0) < 1e-3

    def test_radon_follows_s_count_and_matches_invert(self, tmp_path, phantom_file):
        # calibrate runs invert's calibration on the same s-grid, without the volume
        scales = []
        for count in ("101", "801"):
            flags = ["--phantom", str(phantom_file), "--branch", "radon", "--nodes", "200", "--s-count", count]
            assert run("calibrate", *flags, "--outdir", str(tmp_path / f"cal{count}")) == 0
            assert run("invert", *flags, "--vol-dims", "3", "--outdir", str(tmp_path / f"inv{count}")) == 0
            scale = json.loads((tmp_path / f"cal{count}" / "calibration.json").read_text())["scale"]
            fitted = float((tmp_path / f"inv{count}" / "metrics.csv").read_text().splitlines()[1].split(",")[2])
            assert abs(fitted - scale) <= 1e-12 * abs(scale)
            scales.append(scale)
        assert scales[0] != scales[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_overflowing_fit_named(self, tmp_path, capsys, branch):
        # the fit's dot products overflow, and the radon branches' reconstructions
        # too: no NaN is written to calibration.json, which JSON cannot hold
        err = overflow_failure(tmp_path, capsys, "calibrate", "--branch", branch)
        assert "calibrate: the fitted scale nan and residual nan must be finite" in err

    def test_s_grid_without_origin_rejected(self, tmp_path, phantom_file, capsys):
        outdir = tmp_path / "cal"
        assert run(
            "calibrate", "--phantom", str(phantom_file), "--branch", "radon", "--nodes", "20",
            "--s-min", "1", "--s-max", "9", "--outdir", str(outdir),
        ) == 1
        err = capsys.readouterr().err
        assert "needs s_min < 0 < s_max" in err and "Traceback" not in err
        assert not outdir.exists()


class TestErrorHandling:
    def test_invalid_branch_flag(self, tmp_path, phantom_file):
        with pytest.raises(SystemExit):
            run("invert", "--phantom", str(phantom_file), "--branch", "bogus")

    @pytest.mark.parametrize(
        "record",
        [
            "support_radius nan\ngaussian 0 0 0 1 1\n",
            "gaussian 0 0 0 1 nan\n",
            "gaussian 0 0 0 1 inf\n",
        ],
    )
    def test_non_finite_phantom_rejected(self, tmp_path, capsys, record):
        ph = tmp_path / "ph.txt"
        ph.write_text(record)
        outdir = tmp_path / "o"
        assert run(
            "invert", "--phantom", str(ph), "--nodes", "20", "--vol-dims", "5",
            "--outdir", str(outdir),
        ) == 1
        assert "finite" in capsys.readouterr().err
        assert not outdir.exists() or os.listdir(outdir) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["invert", "--branch", "radon", "--s-min", "-2", "--s-max", "2", "--vol-min", "-1", "--vol-max", "1"],
            ["calibrate", "--branch", "radon", "--s-min", "-1.5", "--s-max", "1.5"],
            ["check", "--s-min", "-2.3", "--s-max", "2.3"],
            ["invert", "--branch", "classical_radon", "--s-min", "-2", "--s-max", "2", "--vol-min", "-1", "--vol-max", "1"],
            ["calibrate", "--branch", "classical_radon", "--s-min", "-1.5", "--s-max", "1.5"],
        ],
        ids=["invert", "calibrate", "check", "invert-classical", "calibrate-classical"],
    )
    def test_narrow_s_grid_named(self, tmp_path, capsys, command):
        # the two-gaussians profiles do not decay on these grids: every branch
        # filter's decay check fails, and the CLI names the flags to widen
        ph = tmp_path / "ph.txt"
        assert run("phantom-gen", "--out", str(ph), "--preset", "two-gaussians") == 0
        outdir = tmp_path / "o"
        args = ["--phantom", str(ph), "--nodes", "40", "--band", "0.2", "--vol-dims", "3", "--s-count", "101"]
        assert run(*command, *args, "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert "--s-min" in err and "--s-max" in err and "widen the s-grid" in err and "does not decay" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_decay_failure_in_a_middle_chunk_named(self, tmp_path, capsys):
        # the profiles of a Gaussian 6.5 off centre decay on rows 0..437 of 2,000 on
        # [-8, 8] and not on some of rows 438..1552: the backprojection reads the
        # chunks before row 438, then the decay check of a later one fails
        ph = tmp_path / "ph.txt"
        ph.write_text("support_radius 13\ngaussian 6.5 0 0 1.0 1.0\n")
        outdir = tmp_path / "o"
        argv = ["invert", "--phantom", str(ph), "--branch", "radon", "--nodes", "2000", "--vol-dims", "9"]
        assert run(*argv, "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert "the s-grid --s-min -8 --s-max 8 is too narrow" in err and "does not decay" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_overflowing_reconstruction_named(self, tmp_path, capsys, branch):
        # each branch's overflow leaves non-finite values, named by the float32 check
        err = overflow_failure(tmp_path, capsys, "invert", "--branch", branch, "--vol-dims", "3")
        assert "reconstructed values are not finite in float32" in err

    @pytest.mark.parametrize("command", ["invert", "check", "forward"])
    def test_single_node_named(self, tmp_path, phantom_file, capsys, command):
        outdir = tmp_path / "o"
        assert run(command, "--phantom", str(phantom_file), "--nodes", "1", "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert "--nodes (config field nodes) must be at least 2, got 1" in err and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", [["invert"], ["forward", "--branch", "xray"]], ids=["invert", "forward"])
    def test_negative_support_radius_rejected(self, tmp_path, capsys, command):
        ph = tmp_path / "ph.txt"
        ph.write_text("support_radius -4\n")
        outdir = tmp_path / "o"
        assert run(*command, "--phantom", str(ph), "--nodes", "20", "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert "support radius must be >= 0" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_failed_run_removes_partial_outputs(self, tmp_path):
        ph = tmp_path / "bad.txt"
        ph.write_text("gaussian 0 0 0 1\n")  # malformed record
        outdir = tmp_path / "o"
        assert run("forward", "--phantom", str(ph), "--outdir", str(outdir)) == 1
        assert not outdir.exists() or os.listdir(outdir) == []

    @pytest.mark.parametrize("depth", [1, 3])
    def test_failed_command_removes_new_outdir(self, tmp_path, phantom_file, capsys, depth):
        top = tmp_path / "new"
        outdir = top.joinpath(*["d"] * (depth - 1))
        assert run("invert", "--phantom", str(phantom_file), "--nodes", "1", "--outdir", str(outdir)) == 1
        assert "--nodes" in capsys.readouterr().err
        assert not top.exists()
        assert sorted(os.listdir(tmp_path)) == ["ph.txt"]

    def test_failed_command_keeps_existing_outdir(self, tmp_path, phantom_file):
        outdir = tmp_path / "old"
        outdir.mkdir()
        assert run("invert", "--phantom", str(phantom_file), "--nodes", "1", "--outdir", str(outdir)) == 1
        assert outdir.is_dir() and os.listdir(outdir) == []
        nested = outdir / "a" / "b"
        assert run("invert", "--phantom", str(phantom_file), "--nodes", "1", "--outdir", str(nested)) == 1
        assert outdir.is_dir() and os.listdir(outdir) == []

    @pytest.mark.parametrize("depth", [1, 3])
    def test_failed_write_removes_new_outdir(self, tmp_path, phantom_file, failing_volume_write, capsys, depth):
        top = tmp_path / "new"
        outdir = top.joinpath(*["d"] * (depth - 1))
        args = ["--phantom", str(phantom_file), "--nodes", "20", "--vol-dims", "3", "--outdir", str(outdir)]
        assert run("invert", *args) == 1
        assert "disk full" in capsys.readouterr().err
        assert len(failing_volume_write) == 2
        assert not top.exists()
        assert sorted(os.listdir(tmp_path)) == ["ph.txt"]

    def test_failed_write_keeps_existing_outdir(self, tmp_path, phantom_file, failing_volume_write):
        outdir = tmp_path / "old"
        outdir.mkdir()
        (outdir / "keep.txt").write_text("kept\n")
        for target in (outdir, outdir / "a" / "b"):
            args = ["--phantom", str(phantom_file), "--nodes", "20", "--vol-dims", "3", "--outdir", str(target)]
            assert run("invert", *args) == 1
            assert sorted(os.listdir(outdir)) == ["keep.txt"]
        assert len(failing_volume_write) == 4

    def test_failed_forward_leaves_no_profiles(self, tmp_path, phantom_file, monkeypatch, capsys):
        from xradon import xform

        write = xform.write_profiles_csv

        def fail_after_three(paths, nodes, s_min, s_max, values):
            write(paths[:3], nodes[:3], s_min, s_max, values[:3])
            raise OSError("disk full after 3 profiles")

        monkeypatch.setattr(xform, "write_profiles_csv", fail_after_three)
        args = [
            "forward", "--phantom", str(phantom_file), "--branch", "radon",
            "--nodes", "20", "--s-count", "32", "--outdir", str(tmp_path / "fwd"),
        ]
        assert run(*args) == 1
        assert "disk full" in capsys.readouterr().err
        assert not (tmp_path / "fwd").exists()
        monkeypatch.setattr(xform, "write_profiles_csv", write)
        assert run(*args) == 0
        names = sorted(os.listdir(tmp_path / "fwd"))
        assert names == ["manifest.json"] + [f"profile_{k:02d}.csv" for k in range(20)]

    def test_failed_move_removes_moved_outputs(self, tmp_path, phantom_file, monkeypatch):
        import xradon.cli

        replace, moved = os.replace, []

        def fail_third_move(src, dst):
            if len(moved) == 2:
                raise OSError("no space for the third move")
            replace(src, dst)
            moved.append(dst)

        monkeypatch.setattr(xradon.cli.os, "replace", fail_third_move)
        outdir = tmp_path / "fwd"
        assert run(
            "forward", "--phantom", str(phantom_file), "--branch", "radon",
            "--nodes", "5", "--s-count", "32", "--outdir", str(outdir),
        ) == 1
        assert len(moved) == 2
        assert not outdir.exists()


class TestNormalizationProperty:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        branch=st.sampled_from(BRANCHES),
        normalization=st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 1e-310, 0.0, -0.0, -1.0])
        | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_invert_exits_cleanly(self, tmp_path_factory, branch, normalization):
        # any finite normalization on any branch: exit 0 with a finite float32 volume,
        # or exit 1 naming --normalization, with no outdir left
        phantom = tmp_path_factory.getbasetemp() / "normalization_two_gaussians.txt"
        if not phantom.exists():
            assert run("phantom-gen", "--out", str(phantom), "--preset", "two-gaussians") == 0
        outdir = tmp_path_factory.mktemp("normalization") / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(
                "invert", f"--phantom={phantom}", f"--branch={branch}", "--nodes=40", "--vol-dims=3",
                f"--normalization={normalization!r}", f"--outdir={outdir}",
            )
        if rc == 0:
            assert np.all(np.isfinite(np.fromfile(outdir / "volume.raw", dtype="<f4")))
        else:
            assert rc == 1
            assert "--normalization" in err.getvalue()
            assert not outdir.exists()


# Each example runs a command at small, workable sizes, then overrides a few
# flags: floats with the extremes of a double or ordinary values, and sizes
# with zero or negative values.
FUZZ_BASE = st.fixed_dictionaries(
    {
        "branch": st.sampled_from(BRANCHES),
        "nodes": st.integers(20, 64),
        "vol-dims": st.integers(1, 5),
        "s-count": st.integers(8, 257),
        "points": st.integers(1, 8),
        "seed": st.integers(0, 3),
        "band": st.floats(0.2, 1.0),
    }
)
FUZZ_FLOATS = st.sampled_from([1e308, -1e308, 1e-320, -1e-320, 0.0, -1.0]) | st.floats(-10.0, 10.0)
FUZZ_FLOAT_OVERRIDES = st.dictionaries(
    st.sampled_from(["s-min", "s-max", "vol-min", "vol-max", "diff-step", "normalization", "band"]),
    FUZZ_FLOATS,
    max_size=3,
)
FUZZ_INT_OVERRIDES = st.dictionaries(
    st.sampled_from(["nodes", "vol-dims", "s-count", "points", "seed"]), st.integers(-2, 1), max_size=1
)


class TestCommandFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["forward", "invert", "check", "calibrate"]),
        base=FUZZ_BASE,
        floats=FUZZ_FLOAT_OVERRIDES,
        ints=FUZZ_INT_OVERRIDES,
    )
    def test_exit_status_and_outputs(self, tmp_path_factory, command, base, floats, ints):
        # any flags give exit 0 with finite volumes, or exit 1 with no outdir left
        phantom = tmp_path_factory.getbasetemp() / "fuzz_two_gaussians.txt"
        if not phantom.exists():
            assert run("phantom-gen", "--out", str(phantom), "--preset", "two-gaussians") == 0
        outdir = tmp_path_factory.mktemp("fuzz") / "out"
        argv = [command, f"--phantom={phantom}", f"--outdir={outdir}"]
        argv += [f"--{name}={value}" for name, value in {**base, **floats, **ints}.items()]
        rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            assert not outdir.exists()
        elif command == "invert":
            assert np.all(np.isfinite(np.fromfile(outdir / "volume.raw", dtype="<f4")))


# Run in a fresh interpreter: import xradon, then xradon.cli, then cli.main on each
# argv of sys.argv[1] (JSON) in turn; print whether scipy.special and scipy.fft
# are loaded after each step, as JSON.
SCIPY_LOADS_SCRIPT = """
import json, sys

def loaded():
    return [name in sys.modules for name in ("scipy.special", "scipy.fft")]

import xradon
steps = [loaded()]
from xradon.cli import main
steps.append(loaded())
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    steps.append(loaded())
print(json.dumps(steps))
"""


class TestScipyLoads:
    """Which scipy modules each command loads: scipy.special for erfc and dawsn
    (phantom), and never scipy.fft, since the Hilbert kernels filter by numpy.fft.
    Each group runs in one fresh interpreter, and every command in it is held to
    the group's state, so a group's first command is held to both columns alone
    and each later one to its "no" columns."""

    @pytest.mark.parametrize(
        "commands, special",
        [
            pytest.param(
                [
                    ("phantom-gen", "--out", "{out}.txt", "--preset", "gaussian-ball"),
                    ("invert", "--branch", "xray", "--nodes", "40", "--vol-dims", "5"),
                    ("calibrate", "--branch", "xray", "--nodes", "40"),
                    ("invert", "--branch", "classical_radon", "--nodes", "40", "--vol-dims", "5"),
                    ("calibrate", "--branch", "classical_radon", "--nodes", "40"),
                    ("forward", "--branch", "radon", "--nodes", "40", "--s-count", "101"),
                    ("calibrate", "--branch", "radon", "--nodes", "40"),
                ],
                False, id="no-scipy",
            ),
            pytest.param(
                [
                    ("invert", "--branch", "xray", "--nodes", "40", "--vol-dims", "5", "--diff-step", "0.05"),
                    ("forward", "--branch", "xray", "--nodes", "40", "--points", "4"),
                ],
                True, id="erfc",
            ),
            # the FFT filters, each with scipy.special for its own reason alone: the
            # riesz target's dawsn, and the Grangeat sweep's erfc
            pytest.param(
                [("invert", "--branch", "radon", "--nodes", "40", "--vol-dims", "5")], True, id="dawsn",
            ),
            pytest.param([("check", "--nodes", "40")], True, id="grangeat-erfc"),
        ],
    )
    def test_modules_loaded(self, tmp_path, commands, special):
        ph_path = tmp_path / "ph.txt"
        assert run("phantom-gen", "--out", str(ph_path), "--preset", "two-gaussians") == 0
        argvs = []
        for i, command in enumerate(commands):
            out = str(tmp_path / f"out{i}")
            argv = [arg.format(out=out) for arg in command]
            if command[0] != "phantom-gen":
                argv += ["--phantom", str(ph_path), "--outdir", out]
            argvs.append(argv)
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        done = subprocess.run(
            [sys.executable, "-c", SCIPY_LOADS_SCRIPT, json.dumps(argvs)],
            env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
        )
        steps = json.loads(done.stdout.splitlines()[-1])
        assert steps[:2] == [[False, False]] * 2  # import xradon, import xradon.cli
        assert steps[2:] == [[special, False]] * len(commands)
