"""pagecusum benchmark: critical values, replication study, size runs and
online monitoring, with a traced run for per-layer timings.

    python3 perfbench/run.py --workload critvals --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Every workload runs in its own fresh interpreter, started
one at a time from this process, with threads=1. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("critvals", "late_change_study", "null_size", "online_monitor")
# Speed on the shared 2-core virtual machine wanders by up to 1.5x between
# processes and over minutes. A run therefore spreads its rounds over this
# many fresh interpreters (each start is one set-up sample), and every time is
# scaled to reference speed: measured * CAL_REF_S / calibration, where the
# calibration is a fixed kernel timed in the same process just before
# (child.calibrate). See README.md, "Timing".
PROCESSES = 6
CAL_REF_S = 0.07
RUN_BUDGET_S = 170  # a run must end well within 180 s

# end-to-end metrics: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "obs_per_s": "obs/s",
              "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(workload, seed, mode, seconds, work_dir, deadline, *extra):
    """Start child.py in a fresh interpreter; returns (setup seconds, result).

    Set-up is timed from process start to the child's READY line.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode, "--seconds",
           str(seconds), "--work-dir", work_dir]
    cmd += list(extra)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                            cwd=ROOT)
    # kill the child if it outlives the run's budget
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} {mode} child exited {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def machine_record():
    import importlib.metadata as md
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            **versions}


def _summary(res):
    failed = len(res["fails"])
    correct = all(msg.startswith("KNOWN:") for _, _, msg in res["fails"])
    counts = {}
    for _, op, msg in res["fails"]:
        counts[(op, msg)] = counts.get((op, msg), 0) + 1
    for (op, msg), n in counts.items():
        print(f"failed op {op} in {n} round(s): {msg}", file=sys.stderr)
    return correct, res["attempted"], failed


def run_workload(workload, seed, seconds, trace, work_dir):
    """One benchmark run; returns the result object printed last."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    if trace:
        spans = os.path.join(ROOT, ".perfbench",
                             f"spans-{workload}-{seed}.json")
        _, res = _child(workload, seed, "trace", seconds, work_dir, deadline,
                        "--spans", spans)
        correct, attempted, failed = _summary(res)
        print(f"# spans written to {os.path.relpath(spans, ROOT)}",
              file=sys.stderr)
        metrics = res["metrics"]
    else:
        setups, runs = [], []
        for i in range(PROCESSES):
            extra = ("--final-checks",) if i == 0 else ()
            setup_s, res = _child(workload, seed, "run", seconds / PROCESSES,
                                  work_dir, deadline, *extra)
            setups.append(setup_s)
            runs.append(res)
            print(f"# {workload} process {i}: set-up {setup_s:.3f} s, rounds "
                  f"{' '.join('%.3f' % t for t in res['round_s'])} s",
                  file=sys.stderr)
        correct, attempted, failed = _summary({
            "fails": [f for r in runs for f in r["fails"]],
            "attempted": sum(r["attempted"] for r in runs)})
        rounds = [(t, c) for r in runs for t, c in zip(r["round_s"],
                                                       r["cal_s"])]
        rates = [(v, c) for r in runs for v, c in zip(r["obs_per_s"],
                                                      r["cal_s"])]
        print(f"# raw medians: set-up {statistics.median(setups):.4f} s, "
              f"round {statistics.median(t for t, _ in rounds):.4f} s, "
              f"calibration {statistics.median(c for _, c in rounds):.4f} s",
              file=sys.stderr)
        ref = CAL_REF_S
        values = {
            "setup_s": statistics.median(
                s * ref / r["setup_cal_s"] for s, r in zip(setups, runs)),
            "wall_s": statistics.median(t * ref / c for t, c in rounds),
            "obs_per_s": statistics.median(v * c / ref for v, c in rates),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pagecusum",
                                       "__init__.py")):
        print(f"error: no pagecusum sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    machine = machine_record()
    print("# machine " + json.dumps(machine))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, work_dir)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for name in WORKLOADS:
                for trace in (0, 1):
                    res = run_workload(name, args.seed, args.seconds, trace,
                                       work_dir)
                    for key in ("attempted", "failed"):
                        result[key] += res[key]
                    result["correct"] &= res["correct"]
                    for metric, v in res["metrics"].items():
                        print(f"{name:18s} {metric:30s} {v['value']:14.6g} "
                              f"{v['unit']}")
                        result["metrics"][f"{name}:{metric}"] = v
    except (BenchError, ValueError, KeyError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
