"""Benchmark entry point.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the directory holding src/). Each
workload runs in its own worker process with BLAS/OpenMP thread pools
pinned to 1. With --trace 0 it prints every end-to-end metric by name and
unit; with --trace 1 every per-layer metric. Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --workload all runs the three workloads one after
another and ends with one JSON object keyed by workload.

Every time is reported at reference speed: scaled by the worker's
calibration calls, which measure how fast the machine runs at the moment
(see worker.py). The lines before the JSON object also give the unscaled
figures.

setup_s is the median of SETUP_REPEATS set-ups: the timed worker's own and
SETUP_REPEATS - 1 set-up-only workers, half started before it and half after.

Exit codes: 0 on a result (including one whose outputs failed the gate,
which reads correct: false), 2 when the checkout has no hadamard_rect
sources or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("battery", "identity", "lattice")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def commit_id(root: str) -> str:
    """HEAD of a git checkout, read from the files; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(env: dict, *args: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker timed out: {' '.join(args)}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(env: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        res = run_worker(env, *common, "--trace", "1")
        metrics = res["metrics"]
    else:
        # set-up probes on both sides of the timed worker, so that one slow
        # spell of the machine cannot cover them all
        probes = SETUP_REPEATS - 1
        setups = [run_worker(env, *common, "--setup-only") for _ in range(probes // 2)]
        res = run_worker(env, *common, "--trace", "0")
        setups.append(dict(res))
        setups += [run_worker(env, *common, "--setup-only") for _ in range(probes - probes // 2)]
        res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        res["setup_samples"] = [s["setup_s"] for s in setups]
        metrics = {k: {"value": res[k], "unit": unit} for k, unit in END_TO_END}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "detail": res}


def describe(result: dict, provenance: dict) -> list[str]:
    d = result["detail"]
    lines = [f"workload {d['workload']}  seed {d['seed']}  "
             f"python {provenance['python']}  numpy {d['numpy']}  nproc {provenance['nproc']}  "
             f"commit {provenance['commit']}  loadavg {provenance['loadavg']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    if "samples" in d:
        lines.append(f"  latency_tail_ms is p{d['tail_percentile']:.2f} of {d['samples']} "
                     f"operations in {d['passes']} passes; setup_s is the median of "
                     f"{len(d['setup_samples'])} set-ups")
        raw = d["raw"]
        lines.append(f"  times above are at reference speed, scaled by {d['speed_scale']:.4f}; "
                     f"unscaled: throughput_ops_s {raw['throughput_ops_s']:.6g}, "
                     f"latency_p50_ms {raw['latency_p50_ms']:.6g}, "
                     f"latency_tail_ms {raw['latency_tail_ms']:.6g}, setup_s {raw['setup_s']:.6g}")
        inp = d["inputs"]
        lines.append(f"  inputs: surfaces {inp['surface_share']}, coordinates "
                     f"{inp['coord_share']}, (s, q) pairs per point "
                     f"{inp['sq_pairs_per_point']:.3g}, rect touches an axis "
                     f"{inp['axis_share']:.3f}")
    else:
        lines.append(f"  {d['passes']} passes, each run untraced and traced; "
                     f"{d['spans']} spans written to {d['spans_file']}")
    lines.append(f"  failed_frac {d['failed'] / d['attempted']:.6g} "
                 f"({d['failed']} of {d['attempted']} failed the gate)")
    for failure in d["failures"]:
        lines.append(f"  FAILED {json.dumps(failure)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hadamard-rect benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hadamard_rect", "__init__.py")):
        print(f"error: no hadamard_rect sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({var: "1" for var in PINNED})
    provenance = {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "commit": commit_id(root),
                  "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg())}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(env, name, args.seed, args.seconds, args.trace)
            print("\n".join(describe(results[name], provenance)), flush=True)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    public = {name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
              for name, r in results.items()}
    print(json.dumps(public[args.workload] if args.workload != "all" else public))
    return 0


if __name__ == "__main__":
    sys.exit(main())
