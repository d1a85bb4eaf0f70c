"""One workload in one process, one client, closed loop.

Set-up (timed as setup_s): import hadamard_rect, generate the inputs, run
the warm-up cases. Then either

- timed mode: run fresh passes for --seconds of operation time, gate every
  output, report the end-to-end figures at reference speed (see
  calibration_call); or
- traced mode: run a fixed number of passes, each once untraced and once
  under the tracer, and report the per-layer figures plus the tracer's
  overhead. A fixed pass count makes every count repeat exactly for a
  given seed.

Prints one JSON object on its last line. run.py is the entry point; this
file is started by it with the thread pools pinned.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

# passes per second of each workload at the commit the benchmark was
# defined on; a traced run runs round(TRACE_SHARE * seconds * rate)
# passes twice, so its length follows --seconds but its counts do not
# depend on the machine
NOMINAL_PASSES_PER_S = {"battery": 6.0, "identity": 4.0, "lattice": 1.7}
TRACE_SHARE = 0.2
SPANS_DIR = ".bench_out"

# The speed of a shared virtual machine drifts by tens of percent over
# seconds to minutes, longer than a run. After each pass the timed loop runs
# calibration_call, a fixed piece of work that does not touch hadamard_rect,
# until the calibration time is CALIBRATION_SHARE of the operation time.
# The run is cut into blocks of whole passes holding at least BLOCK_S of
# operation time, and each latency is scaled by REFERENCE_CALL_S / (mean
# time of one calibration call in its block): the figures read as on a
# machine that runs one call in REFERENCE_CALL_S. Set-up is scaled the same
# way, by calibration calls right after it.
REFERENCE_CALL_S = 0.004
CALIBRATION_SHARE = 0.1
BLOCK_S = 3.0
SETUP_CALIBRATION_CALLS = 40


def calibration_call() -> float:
    """Reference work in the workloads' mix: interpreted integer and dict
    work, Fraction arithmetic, small numpy arrays. The imports stay inside,
    so that set-up still pays for them."""
    from fractions import Fraction
    import numpy
    x = numpy.linspace(-1.0, 1.0, 32)
    acc = 0
    for i in range(12000):
        acc += (i * i) % 7
    terms: dict = {}
    for i in range(400):
        terms[i % 9, i % 5] = terms.get((i % 9, i % 5), 0) + i
    f = Fraction(0)
    for i in range(1, 240):
        f += Fraction(3, i) * Fraction(i + 1, 10)
    w = x
    for _ in range(300):
        w = numpy.cos(w * 0.5) + x
        acc += float(w.sum())
    return acc + float(f) + len(terms)


def calibrate(calls: int) -> float:
    """Mean seconds per calibration call over `calls` calls."""
    t0 = perf_counter()
    for _ in range(calls):
        calibration_call()
    return (perf_counter() - t0) / calls


def load_references(name: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"].get(name, {})


def run_ops(wl, refs: dict, specs, tally: Counter, failures: list, tracer=None) -> list[float]:
    """Run specs back to back; return latencies. The gate is not timed."""
    latencies = []
    for spec in specs:
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        try:
            out = wl.run(spec)
            error = None
        except Exception as exc:       # counted as a failed operation
            error = f"raised {exc!r}"
        latencies.append(perf_counter() - t0)
        verdict = error or wl.gate(refs, spec, out)
        if verdict == "ok":
            tally["ok"] += 1
        else:
            tally["failed"] += 1
            if len(failures) < 5:
                failures.append({"case": spec, "reason": verdict})
    return latencies


def latency_figures(latencies: list[float]) -> dict:
    n = len(latencies)
    ordered = sorted(latencies)
    # the highest percentile with at least ten samples beyond it: the
    # eleventh largest latency
    k = max(n - 11, 0)
    return {"throughput_ops_s": n / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": ordered[k] * 1e3,
            "tail_percentile": 100.0 * (n - 10) / n if n > 10 else 100.0,
            "samples": n}


def to_reference_speed(passes: list[tuple[list[float], float, int]]) -> list[float]:
    """Latencies of (latencies, calibration seconds, calibration calls)
    passes, each scaled by the calibration of its block (see BLOCK_S)."""
    blocks = [[]]
    for p in passes:
        if sum(sum(q[0]) for q in blocks[-1]) >= BLOCK_S:
            blocks.append([])
        blocks[-1].append(p)
    if len(blocks) > 1 and sum(sum(q[0]) for q in blocks[-1]) < BLOCK_S:
        last = blocks.pop()
        blocks[-1] += last
    scaled = []
    for block in blocks:
        factor = REFERENCE_CALL_S * sum(q[2] for q in block) / sum(q[1] for q in block)
        scaled += [t * factor for q in block for t in q[0]]
    return scaled


def input_properties(wl, specs) -> dict:
    props = [wl.properties(spec) for spec in specs]
    n = len(props)

    def shares(key):
        counts = Counter(p[key] for p in props)
        return {k: v / n for k, v in sorted(counts.items())}

    return {"surface_share": shares("surface"), "coord_share": shares("coords"),
            "sq_pairs_per_point": sum(p["sq_pairs_per_point"] for p in props) / n,
            "axis_share": sum(p["axis"] for p in props) / n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    refs = load_references(args.workload)

    t0 = perf_counter()
    import workloads            # imports hadamard_rect; this directory is on sys.path
    wl = workloads.WORKLOADS[args.workload](args.seed)
    rate = NOMINAL_PASSES_PER_S[args.workload]
    passes = [wl.make_pass(i) for i in range(int(rate * args.seconds) + 1)]

    def get_pass(i: int) -> list[dict]:
        while len(passes) <= i:
            passes.append(wl.make_pass(len(passes)))
        return passes[i]

    for spec in wl.warmup():
        wl.run(spec)
    setup_raw_s = perf_counter() - t0
    calibration_call()              # first call warms numpy's ufunc paths
    setup_s = setup_raw_s * REFERENCE_CALL_S / calibrate(SETUP_CALIBRATION_CALLS)
    if args.setup_only:
        wl.cleanup()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    import numpy
    tally: Counter = Counter()
    failures: list = []
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_raw_s": setup_raw_s, "numpy": numpy.__version__}
    try:
        if args.trace:
            import tracing
            n_passes = max(1, round(TRACE_SHARE * args.seconds * rate))
            tracer = tracing.Tracer()
            plain = traced = 0.0
            for i in range(n_passes):
                # each pass runs plain and traced, in alternating order, so
                # drift in machine speed cancels out of the overhead
                for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain += sum(run_ops(wl, refs, get_pass(i), tally, failures))
                        continue
                    tracer.install()
                    try:
                        traced += sum(run_ops(wl, refs, get_pass(i), tally, failures, tracer))
                    finally:
                        tracer.uninstall()
            values = tracer.metrics()
            values["trace.overhead_frac"] = traced / plain - 1.0
            metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
            tracer.write(spans_path)
            result.update(metrics=metrics, passes=n_passes, spans=len(tracer.spans),
                          spans_file=spans_path)
        else:
            # every operation runs once; throughput counts the wall time
            # spent in operations, and the gate between them is not timed.
            # Calibration after each pass keeps its total time at
            # CALIBRATION_SHARE of the operation time.
            timed = []
            op_s = cal_s = 0.0
            while op_s < args.seconds:
                latencies = run_ops(wl, refs, get_pass(len(timed)), tally, failures)
                op_s += sum(latencies)
                calls = 0
                t1 = perf_counter()
                while cal_s + perf_counter() - t1 < CALIBRATION_SHARE * op_s:
                    calibration_call()
                    calls += 1
                spent = perf_counter() - t1
                cal_s += spent
                timed.append((latencies, spent, calls))
            done = [spec for p in passes[:len(timed)] for spec in p]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            raw = [t for q in timed for t in q[0]]
            result.update(latency_figures(to_reference_speed(timed)), passes=len(timed),
                          peak_rss_mb=rss_mb, inputs=input_properties(wl, done),
                          raw=latency_figures(raw))
            result["speed_scale"] = result["raw"]["throughput_ops_s"] / result["throughput_ops_s"]
    finally:
        wl.cleanup()
    attempted = sum(tally.values())
    result.update(attempted=attempted, failed=tally["failed"], failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
