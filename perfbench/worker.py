"""One benchmark worker: set up a workload, run timed rounds of its ops, check every output.

Started by run.py as a fresh process per workload.  Protocol on stdout: the
line "ready" once set-up is done, then one JSON object as the last line.
Load is one closed-loop client: each op starts when the previous one ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import xradon  # noqa: E402
import xradon.cli  # noqa: E402
import xradon.xform  # noqa: E402

import closed_form as cf  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, profile_files  # noqa: E402

if os.path.dirname(os.path.abspath(xradon.__file__)) != os.path.join(SRC, "xradon"):
    raise SystemExit(f"xradon imported from {xradon.__file__}, not from {SRC}")


def dir_digest(path):
    """Hash of every file name and content under path, in sorted order."""
    h = hashlib.blake2b(digest_size=16)
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def profile_digest(rp):
    h = hashlib.blake2b(digest_size=16)
    for part in (rp.n, [rp.s_min, rp.s_max], rp.values):
        h.update(np.asarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


class Run:
    """Executes ops, gates each against its closed form and its earlier repeats."""

    def __init__(self, workload, phantom, phantom_path, workdir):
        self.workload = workload
        self.phantom = phantom
        self.phantom_path = phantom_path
        self.workdir = workdir
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = {}
        self.tracer = None

    def _fail(self, key, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    def _gate(self, key, checks, digest):
        """Fail the op if a check misses its tolerance or its output changed since the first repeat."""
        bad = [c for c in checks if not c.ok]
        for c in checks:
            self.worst[c.name] = max(self.worst.get(c.name, 0.0), c.err)
        if bad:
            self._fail(key, ", ".join(f"{c.name} err {c.err:.3g} > tol {c.tol:.3g}" for c in bad))
        elif self.digests.setdefault(key, digest) != digest:
            self._fail(key, "output differs from an earlier repeat")

    def _timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.op += 1
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        return result, time.perf_counter() - w0, time.process_time() - c0

    def round(self):
        """All ops of the workload once.

        Returns (wall_s, cpu_s, reference_s): wall and CPU time summed over the
        ops, and the median time of the reference kernel run before each
        CLI op and after the last one.
        """
        wall = cpu = 0.0
        refs = []
        for op in self.workload.ops:
            refs.append(speed.reference_s(self.workload.reference))
            outdir = os.path.join(self.workdir, op.name)
            shutil.rmtree(outdir, ignore_errors=True)
            argv = list(op.argv) + ["--phantom", self.phantom_path, "--outdir", outdir]
            self.attempted += 1
            try:
                rc, w, c = self._timed(xradon.cli.main, argv)
            except Exception:  # an op that raises is a failed op; the run goes on
                self._fail(op.name, traceback.format_exc(limit=3))
                continue
            wall, cpu = wall + w, cpu + c
            if rc != 0:
                self._fail(op.name, f"exit code {rc}")
                continue
            try:
                checks = op.check(outdir, self.phantom)
            except (OSError, ValueError, KeyError) as exc:
                self._fail(op.name, f"unreadable output: {exc}")
                continue
            self._gate(op.name, checks, dir_digest(outdir))
            if op.check_read is not None:
                w, c = self._read_back(op, outdir)
                wall, cpu = wall + w, cpu + c
        refs.append(speed.reference_s(self.workload.reference))
        if self.tracer is not None:
            self.tracer.end_round()
        return wall, cpu, statistics.median(refs)

    def _read_back(self, op, outdir):
        wall = cpu = 0.0
        for path in profile_files(outdir):
            key = f"read:{os.path.basename(path)}"
            self.attempted += 1
            try:
                rp, w, c = self._timed(xradon.xform.read_profile_csv, path)
            except Exception:  # an op that raises is a failed op; the run goes on
                self._fail(key, traceback.format_exc(limit=3))
                continue
            wall, cpu = wall + w, cpu + c
            self._gate(key, op.check_read(rp, self.phantom), profile_digest(rp))
        return wall, cpu


# --- self-test of the checker ------------------------------------------------


def self_test(run):
    """Wrong outputs must be flagged: mutate copies of the last round's outputs.

    Returns {case: flagged}; the unmutated copy must pass ("control").
    """
    results = {}
    copy_dir = os.path.join(run.workdir, "selftest")
    for op in run.workload.ops:
        outdir = os.path.join(run.workdir, op.name)
        if op.name not in run.digests:
            results[f"{op.name}:has a passing output to mutate"] = False
            continue
        largest = max(
            (os.path.join(d, f) for d, _, fs in os.walk(outdir) for f in fs), key=os.path.getsize
        )
        rel = os.path.relpath(largest, outdir)

        def flagged(mutate):
            shutil.rmtree(copy_dir, ignore_errors=True)
            shutil.copytree(outdir, copy_dir)
            mutate(copy_dir)
            try:
                return not all(c.ok for c in op.check(copy_dir, run.phantom))
            except (OSError, ValueError, KeyError):
                return True

        results[f"{op.name}:control"] = not flagged(lambda d: None)
        results[f"{op.name}:truncated {rel}"] = flagged(lambda d: _truncate(os.path.join(d, rel)))
        if os.path.exists(os.path.join(outdir, "volume.raw")):
            tol = max(c.tol for c in op.check(outdir, run.phantom))
            for case, fn in (
                ("scaled by 1+4*tol", lambda v: v * np.float32(1.0 + 4.0 * tol)),
                ("sign flip", lambda v: -v),
                ("NaN voxel", _nan_voxel),
            ):
                results[f"{op.name}:{case}"] = flagged(lambda d, fn=fn: _edit_volume(d, fn))
        shutil.rmtree(copy_dir, ignore_errors=True)
        shutil.copytree(outdir, copy_dir)
        _flip_byte(os.path.join(copy_dir, rel))
        results[f"{op.name}:changed byte on a repeat"] = run.digests[op.name] != dir_digest(copy_dir)
        if op.check_read is not None:
            rp = xradon.xform.read_profile_csv(profile_files(outdir)[0])
            for case, values in (("sign flip", -rp.values), ("NaN sample", _with_nan(rp.values))):
                fake = type("Profile", (), {"n": rp.n, "s_min": rp.s_min, "s_max": rp.s_max, "values": values})
                results[f"read:{case}"] = not all(c.ok for c in op.check_read(fake, run.phantom))
    shutil.rmtree(copy_dir, ignore_errors=True)
    return results


def _truncate(path):
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) // 2 + 1)


def _flip_byte(path):
    with open(path, "rb+") as fh:
        fh.seek(os.path.getsize(path) // 2)
        b = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([b[0] ^ 0x01]))


def _nan_voxel(v):
    v = v.copy()
    v[v.size // 2] = np.nan
    return v


def _with_nan(values):
    v = np.array(values, dtype=float)
    v[v.size // 2] = np.nan
    return v


def _edit_volume(outdir, fn):
    path = os.path.join(outdir, "volume.raw")
    fn(np.fromfile(path, dtype="<f4")).astype("<f4").tofile(path)


# --- main ------------------------------------------------------------------


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "xradon": os.path.dirname(xradon.__file__),
    }


def setup(args, workdir):
    workload = WORKLOADS[args.workload]
    phantom = workload.phantom(args.seed)
    phantom_path = os.path.join(workdir, "phantom.txt")
    with open(phantom_path, "w", encoding="utf-8") as fh:
        fh.write(phantom.to_text())
    for op in workload.ops:
        outdir = os.path.join(workdir, "warmup", op.name)
        argv = op.warmup_argv() + ["--phantom", phantom_path, "--outdir", outdir]
        if xradon.cli.main(argv) != 0:
            raise SystemExit(f"warm-up op {op.name} failed")
        if op.check_read is not None:
            xradon.xform.read_profile_csv(profile_files(outdir)[0])
    shutil.rmtree(os.path.join(workdir, "warmup"))
    return Run(workload, phantom, phantom_path, workdir)


def timed_rounds(run, seconds):
    """Rounds until `seconds` have passed, at least one; returns [(wall_s, cpu_s, reference_s)]."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run.round())
    return rounds


def reference_median(rounds, field):
    """Median over rounds of field 0 (wall) or 1 (CPU), in reference seconds."""
    return statistics.median(r[field] * speed.REFERENCE_S / r[2] for r in rounds)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    args = parser.parse_args()

    # The CLI's progress lines go to the null device; stdout carries the protocol.
    protocol, sys.stdout = sys.stdout, open(os.devnull, "w", encoding="utf-8")
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = setup(args, workdir)
        print("ready", file=protocol, flush=True)
        if args.setup_only:
            return
        result = {"env": environment()}
        plain_seconds = args.seconds / 2 if args.trace else args.seconds
        plain = timed_rounds(run, plain_seconds)
        result["end_to_end"] = {
            "wall_ref_s": reference_median(plain, 0),
            "cpu_ref_s": reference_median(plain, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": statistics.median(r[0] for r in plain),
            "cpu_s": statistics.median(r[1] for r in plain),
        }
        result["self_test"] = self_test(run)
        result["rounds"] = plain
        if args.trace:
            run.tracer = Tracer(time.perf_counter)
            run.tracer.install("xradon")
            try:
                traced = timed_rounds(run, args.seconds - plain_seconds)
            finally:
                run.tracer.uninstall()
            layers = run.tracer.layer_metrics(len(traced), sum(r[0] for r in traced))
            layers["trace.overhead_s"] = reference_median(traced, 0) - reference_median(plain, 0)
            # An infinite error (unreadable output) is a failed op, counted in "failed".
            layers["check.rel_err"] = max((e for e in run.worst.values() if e != float("inf")), default=0.0)
            result["traced_rounds"] = traced
            result["layers"] = layers
            result["absent"] = run.tracer.absent()
            result["extract_errors"] = dict(run.tracer.extract_errors)
            if args.spans:
                run.tracer.write(args.spans)
        result.update(
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
            worst_err={k: (v, cf.TOLERANCES[k]) for k, v in sorted(run.worst.items())},
        )
        print(json.dumps(result), file=protocol, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
