#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles ../src with the
libraries' own CMake rules) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the
spice_perfbench binary. The binary prints progress, check lines and a
`meta` line with host and build metadata; its last line is the JSON
result. This script checks that the result carries exactly the metrics
BENCHMARK.json declares for the mode (end_to_end untraced, per_layer
traced) and prints it again as the last line of stdout. perfbench/
RATIONALE.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 175

_child = None


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}", 124)
    finally:
        code = _child.returncode
        _child = None
    return code, out


def on_term(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        code, out = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if code == 0:
            return out.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", build_dir, "--target", "spice_perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the run.
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "spice_perfbench")


def main():
    signal.signal(signal.SIGTERM, on_term)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the spice sources (src/) are not in this checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    code, out = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--commit", commit_id()],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    if not isinstance(result, dict):
        fail("the benchmark printed no result line", code or 1)
    units = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if units != expected:
        fail("result metrics differ from those BENCHMARK.json declares", 1)
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
