#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload economy --seed 1 --seconds 10 --trace 0

Run from the repository root. The script configures and builds
perfbench/CMakeLists.txt (the sc_* libraries from src/ plus sc_perfbench) into
.bench_build/perfbench, runs sc_perfbench, and prints its output followed by one
line recording the environment. The last line of standard output is the
benchmark's result object. A traced run also writes its spans as Chrome trace
JSON to .bench_build/traces/. Build output goes to standard error.

`--smoke` instead runs every workload at tiny sizes, untraced and traced, and
checks every gate and the result contract.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sc_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed", 3)
    return os.path.join(BUILD_DIR, "sc_perfbench")


def compile_command():
    """The actual compile command of one library source file, as words."""
    try:
        with open(os.path.join(BUILD_DIR, "compile_commands.json"), encoding="utf-8") as db:
            entries = json.load(db)
    except (OSError, ValueError):
        return ["c++"]
    for entry in entries:
        if entry["file"].endswith(os.path.join("src", "crypto", "secp256k1.cpp")):
            return shlex.split(entry["command"])
    return ["c++"]


def source_digest():
    """SHA-256 over every file under src/ and perfbench/ (path and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lanes, build_type):
    command = compile_command()
    version = subprocess.run([command[0], "--version"], capture_output=True, text=True)
    flags = [w for w in command[1:]
             if w.startswith("-") and not w.startswith(("-I", "-o", "-c", "-M"))]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": build_type,
        "compiler": (version.stdout.splitlines() or [command[0]])[0],
        "flags": " ".join(flags),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "execution_lanes": lanes,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["economy", "block_pipeline", "replication"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (src/CMakeLists.txt is missing)")

    binary = build()
    if args.smoke:
        sys.exit(subprocess.run([binary, "--smoke"], cwd=BUILD_DIR,
                                timeout=RUN_TIMEOUT_S).returncode)

    scratch = os.path.join(ROOT, ".bench_build", f"scratch-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"sc_perfbench printed nothing (exit {run.returncode})", 4)
    details = json.loads(lines[-2]) if len(lines) >= 2 else {"run": {}}
    for line in lines[:-1]:
        print(line)
    run_info = details.get("run", {})
    print(json.dumps({"env": environment(run_info.get("lanes"), run_info.get("build_type"))}))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
