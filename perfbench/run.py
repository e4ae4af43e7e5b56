#!/usr/bin/env python3
"""Build and run the mpi-dfa benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `mpidfa` and the `perfbench` benchmark binary from this checkout (into
$CARGO_TARGET_DIR, default `.bench_build/`), records the environment, runs
one workload and passes its output through: the last stdout line is the
JSON result. Exits non-zero on a wrong answer, a failed build, or when
MPIDFA_SOLVER is set (the benchmark measures the default solver).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "generated", "serve-mixed", "verify"]
# The measured run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    return code


def quiet(cmd):
    """First output line of `cmd`, or "unknown"."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unknown"


def group_alive(pgid):
    """Whether any process of process group `pgid` is still running."""
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def reap_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if "MPIDFA_SOLVER" in os.environ:
        return fail("MPIDFA_SOLVER is set; unset it (the benchmark measures the default solver)")
    for need in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(f"{need} not found next to perfbench/; run from a full checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"), ["--bin", "mpidfa"]),
                            (os.path.join(HERE, "Cargo.toml"), [])):
        build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            return fail(f"build failed: {' '.join(build)}")

    record = {
        "nproc": os.cpu_count(),
        "git_rev": quiet(["git", "rev-parse", "HEAD"]),
        "rustc": quiet(["rustc", "-V"]),
        "MPIDFA_SOLVER": os.environ.get("MPIDFA_SOLVER", "unset"),
    }
    print("# env " + json.dumps(record), flush=True)

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mpidfa", os.path.join(release, "mpidfa"),
           "--scratch", os.path.join(target, "perfbench-run")]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 124
    reap_group(proc.pid)
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
