#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload grid-int|grid-fp|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark package is built into
$CARGO_TARGET_DIR (default: .bench_build). Each run gets a fresh scratch
directory under .perfbench/ that is deleted afterwards; span dumps of
traced runs are left in .perfbench/out/. The last line
of stdout is the result object; progress and per-metric detail go to stderr.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-int", "grid-fp", "serve")
# Leaves headroom under the 180 s a run may take once built.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Environment knobs of the program under test would change what is
    # measured: clear every one of them.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WSRS_") and k != "RAYON_NUM_THREADS"}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    serve_bin = os.path.join(target, "release", "wsrs-serve")

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    out = os.path.join(ROOT, ".perfbench", "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", out, "--serve-bin", serve_bin]
    # Its own process group, so a timeout also stops the server it spawns.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
