"""One point of the benchmark trajectory: run perfbench on every workload and
store its result as BENCH_<pr>.json at the root of the checkout.

    python3 scripts/bench_point.py --pr 26

It runs `python3 perfbench/run.py --workload all --seed 1 --seconds 18` and
writes the checked-out commit (and whether the tree differs from it), the
run's `# machine` record and its last stdout line, the result object. It
refuses to start while a __pycache__ directory exists under src/, because
stale bytecode moves peak_rss_mb; the run itself writes one, so remove it
before the next point.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "1",
           "--seconds", "18"]
MACHINE = "# machine "


def bytecode_dirs(root):
    """Every __pycache__ directory under root/src, sorted."""
    return sorted(os.path.join(d, "__pycache__")
                  for d, subdirs, _ in os.walk(os.path.join(root, "src"))
                  if "__pycache__" in subdirs)


def parse_output(stdout):
    """(machine record, result object) from perfbench's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    machines = [line for line in lines if line.startswith(MACHINE)]
    if len(machines) != 1:
        raise ValueError(f"expected one '{MACHINE.strip()}' line, "
                         f"found {len(machines)}")
    result = json.loads(lines[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or keys - result.keys():
        raise ValueError(f"the last line is not a result object with {keys}")
    return json.loads(machines[0][len(MACHINE):]), result


def bench_record(pr, commit, dirty, stdout):
    """The BENCH_<pr>.json object for one perfbench run's stdout."""
    machine, result = parse_output(stdout)
    return {"pr": pr, "commit": commit, "dirty": dirty,
            "command": ["python3"] + COMMAND, "machine": machine,
            "result": result}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True)
    args = p.parse_args(argv)
    stale = bytecode_dirs(ROOT)
    if stale:
        print("error: remove the bytecode cache first: " + " ".join(
            os.path.relpath(d, ROOT) for d in stale), file=sys.stderr)
        return 2
    commit = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    run = subprocess.run([sys.executable] + COMMAND, cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"error: perfbench exited {run.returncode}", file=sys.stderr)
        return 1
    record = bench_record(args.pr, commit, dirty, run.stdout)
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
