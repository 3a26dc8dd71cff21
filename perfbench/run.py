"""xradon benchmark: time CLI workloads end to end, check every output against a closed form.

    python3 perfbench/run.py --workload xray_volume --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the root of a source tree (it imports xradon from ./src).  Each
workload runs in a fresh worker process, one worker at a time.  With
--trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics of a traced
run.  Metric definitions and the per-layer predictions are in
perfbench/README.md.  Full results (environment, every round) are written to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench", "results")

WORKLOADS = ("xray_volume", "radon_volume", "point_checks", "forward_io")
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"))
# Raw round times, printed and saved but not declared: on a shared machine
# they spread too widely between runs (see speed.py).
RAW = (("wall_s", "s"), ("cpu_s", "s"))
# Fresh worker start-ups per workload; setup_s is their median.
SETUP_SAMPLES = 5
# A worker that has not finished this long after its rounds should have ended is killed.
GRACE_S = 120


class BenchError(Exception):
    pass


def source_id():
    """Git commit when the tree is a git checkout, and a digest of src/ always."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, workload, setup_only):
    """Start a worker; returns (seconds until it printed "ready", process)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", os.path.join(RESULTS, f"spans-{workload}-seed{args.seed}.json.gz")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(args.seconds + GRACE_S, proc.kill)
    killer.start()
    proc.killer = killer
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{workload} worker failed during set-up (exit {proc.returncode})")
    return setup_s, proc


def finish(proc):
    """Wait for a worker and return its remaining stdout."""
    out = proc.stdout.read()
    proc.wait()
    proc.killer.cancel()
    return out


def run_workload(args, workload):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, proc = start_worker(args, workload, setup_only=True)
            finish(proc)
            if proc.returncode != 0:
                raise BenchError(f"{workload} set-up worker exited {proc.returncode}")
            setups.append(setup_s)
    setup_s, proc = start_worker(args, workload, setup_only=False)
    setups.append(setup_s)
    out = finish(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_samples"] = setups
    res["end_to_end"]["setup_s"] = statistics.median(setups)
    res["fail_ratio"] = res["failed"] / res["attempted"]
    res["correct"] = res["failed"] == 0 and all(res["self_test"].values())
    return res


def metric_block(args, res):
    if args.trace:
        return {name: (res["layers"][name], unit) for name, unit in LAYER_METRICS}
    return {name: (res["end_to_end"][name], unit) for name, unit in END_TO_END}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "xradon", "cli.py")):
        print(f"error: no xradon source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    commit, digest = source_id()
    env = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": args.seed,
        "git_commit": commit,
        "src_digest": digest,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            res = run_workload(args, workload)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res["env"].update(env, workload=workload)
        path = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        print(json.dumps({"env": res["env"]}))
        for failure in res["failures"]:
            print(f"{workload} FAILED {failure}")
        for case, flagged in res["self_test"].items():
            if not flagged:
                print(f"{workload} SELF-TEST {case}: wrong output not flagged")
        print(f"{workload} fail_ratio {res['fail_ratio']:.6g} ratio ({res['failed']}/{res['attempted']} ops)")
        if args.trace and res["absent"]:
            print(f"{workload} absent layer functions: {', '.join(res['absent'])}")
        block = metric_block(args, res)
        shown = dict(block)
        if not args.trace:
            shown.update({name: (res["end_to_end"][name], unit) for name, unit in RAW})
        for name, (value, unit) in shown.items():
            print(f"{workload} {name} {value:.6g} {unit}")
        prefix = "" if len(workloads) == 1 else f"{workload}."
        summary["metrics"].update(
            {prefix + name: {"value": value, "unit": unit} for name, (value, unit) in block.items()}
        )
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
