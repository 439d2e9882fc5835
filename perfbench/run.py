#!/usr/bin/env python3
"""Build and run the treetrav benchmark for one workload.

    python3 perfbench/run.py --workload grid_sorted --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The driver is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use. The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics, with each metric's unit taken
from BENCHMARK.json. The line before it records the machine and the run.
Build and driver progress go to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only ask git when the checkout itself is a repository, so git never
    # walks up into directories outside it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no treetrav sources at src/ next to the benchmark; run from "
             "the root of a full checkout")
    bdir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", "4"])
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench_driver")
    if not os.path.isfile(exe):
        fail("build produced no driver at " + exe)
    return exe, bdir


def metric_units(trace):
    """Metric name -> unit, as BENCHMARK.json defines them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    exe, bdir = build(build_dir)

    # The driver sets its own OpenMP team size, whatever the environment says.
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", bdir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if not lines:
        fail("driver printed no result (exit code %d)" % r.returncode)
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON: " + lines[-1][:200])

    record = dict(res.get("record", {}))
    record.update(git_sha=git_sha(), source_sha256=source_digest(),
                  default_seed=str(DEFAULT_SEED),
                  held_out_seed=str(HELD_OUT_SEED))
    values = res["metrics"]
    units = metric_units(args.trace)
    correct = bool(res["correct"]) and r.returncode in (0, 1)
    if set(values) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "unexpected %s" % (sorted(set(units) - set(values)),
                                 sorted(set(values) - set(units))),
              file=sys.stderr)
        correct = False
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if k in values}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
