#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the repository's src/ and links perfbench against it.  It
is configured and built in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use and rebuilt incrementally after.
Build output goes to stderr; stdout carries only the benchmark's
report, whose last line is the JSON result.  Every argument is passed
through to the binary (see perfbench/README.md).
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def source_digest():
    """SHA-256 over the repository sources the benchmark compiles."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    """Configure (once) and build; returns the binary path or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr)
    exe = os.path.join(build_dir, "perfbench")
    return exe if r.returncode == 0 and os.path.isfile(exe) else None


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no repository sources next to the benchmark "
                    "(src/CMakeLists.txt is missing)")
    exe = build()
    if exe is None:
        return fail("build failed")
    cmd = [exe] + sys.argv[1:] + ["--commit", commit(),
                                  "--src-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
