"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints READY once pagecusum is imported and the workload's program-side
preparation is done (run.py times set-up up to that line), then one JSON line
with the run's measurements.
"""

import argparse
import json
import os
import resource
import sys
import time


def calibrate():
    """Seconds for a fixed mix of interpreter and numpy work.

    The mix mirrors the workloads: a pure-Python loop (online monitoring),
    numpy calls on 128-element vectors in a loop (the GARCH recursion) and
    passes over a 20 MB array (Wiener paths). Each part is timed twice and
    its faster time counts. The kernel uses nothing from pagecusum, so no
    change to the program can move it; it only tracks how fast this process
    runs on the machine right now. run.py scales measured times by it (see
    README.md, "Timing").
    """
    import numpy as np

    def interpreter():
        acc = 0
        for i in range(200_000):
            acc += i * i

    def small_vectors():
        v, z = np.ones(128), np.full(128, 0.3)
        for _ in range(2500):
            v = 0.5 + 0.2 * v * v + 0.3 * z

    def large_array():
        a = np.arange(2_500_000, dtype=float)
        np.cumsum(np.sqrt(a))
        np.minimum.accumulate(a)

    total = 0.0
    for part in (interpreter, small_vectors, large_array):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def _failures(work, n_rounds):
    """{(round or "final", op): message} over all rounds."""
    fails = {}
    for i in range(n_rounds):
        for op, msg in work.check_round(i).items():
            fails[(i, op)] = msg
    return fails


def _final(work, fails):
    extra, final = work.final_checks()
    for op, msg in final.items():
        # an int key names an operation of round 0, a string an extra one
        key = (0, op) if isinstance(op, int) else ("final", op)
        fails[key] = msg
    return extra


def run_loop(work, seconds, final):
    """Whole rounds until the next one would end well past `seconds`.

    Round 0 runs before any calibration, so the peak resident memory read
    after it is the program's own: the calibration kernel's 20 MB arrays
    would otherwise set the peak. A calibration after each round gives every
    round the machine speed it ran at: the mean of the two around it, and for
    round 0 the one after it. The first calibration also scales set-up.
    """
    rounds, cal, ops = [], [], 0
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + 0.5 * rounds[-1] < deadline:
        t0 = time.perf_counter()
        ops += work.run_round()
        rounds.append(time.perf_counter() - t0)
        if peak_rss_mb is None:
            # after one round: later rounds repeat the same work
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cal.append(calibrate())
    setup_cal = cal[0]
    cal = cal[:1] + [0.5 * (a + b) for a, b in zip(cal, cal[1:])]
    rates = [work.obs_rate(i, t) for i, t in enumerate(rounds)]
    fails = _failures(work, len(rounds))
    if final:
        ops += _final(work, fails)
    return {"round_s": rounds, "cal_s": cal, "setup_cal_s": setup_cal,
            "obs_per_s": rates, "attempted": ops, "fails": fails,
            "peak_rss_mb": peak_rss_mb}


def run_trace(work, seed, seconds, work_dir, spans_path, machine):
    import layers
    tracer, untraced, traced, ops, metrics = layers.run_traced(
        work, seed, seconds, work_dir)
    fails = _failures(work, len(untraced) + len(traced))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": work.name, "seed": seed, "machine": machine,
                   "untraced_round_s": untraced, "traced_round_s": traced,
                   "metrics": metrics, **tracer.to_json()}, fh)
    return {"attempted": ops, "fails": fails, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--final-checks", action="store_true",
                   help="also run the untimed reference/determinism checks")
    args = p.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    import workloads as wl
    wl.check_import(root)
    work = wl.WORKLOADS[args.workload](args.seed, args.work_dir)
    print("READY", flush=True)

    work.make_inputs()
    if args.mode == "run":
        result = run_loop(work, args.seconds, args.final_checks)
    else:
        import numpy
        import scipy
        machine = {"cores": os.cpu_count(), "python": sys.version.split()[0],
                   "numpy": numpy.__version__, "scipy": scipy.__version__}
        result = run_trace(work, args.seed, args.seconds, args.work_dir,
                           args.spans, machine)
    result["fails"] = [[str(k[0]), str(k[1]), msg]
                       for k, msg in sorted(result["fails"].items(), key=str)]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
