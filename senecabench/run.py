#!/usr/bin/env python3
"""SENECA-Bench entry point: builds the benchmark from the source tree, then
runs one workload and relays its output.

    python3 senecabench/run.py --workload ladder_offline --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when set); run-time scratch (boardd endpoint files, span
traces) goes to .bench_build/run/. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; an output mismatch or
any failure exits nonzero without printing it.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ladder_offline", "serve_mixed", "serve_wire")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"senecabench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the program sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "__pycache__" not in d for f in fs]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_root):
    build_dir = os.path.join(build_root, "senecabench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "seneca_bench", "seneca_boardd"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "seneca_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-inputs", action="store_true",
                    help="print a digest of the seeded inputs and exit")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the repository root: no SENECA sources here")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 1)
    work_dir = os.path.join(build_root, "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.dump_inputs:
        cmd += ["--dump-inputs", "1"]
    else:
        cmd += ["--git-sha", git_sha(), "--source-digest", source_digest()]
    # Its own session, so a timeout also stops the boardd workers it forked.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    main()
