#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

Runs every workload of BENCHMARK.json on its tiny pool, untraced and
traced, and asserts that each run is correct (every digest matched the
committed expected results, no failed operation) and that it emitted
every end-to-end metric (untraced) or every per-layer metric (traced)
by name with its declared unit.  Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check holds; prints each failure and exits 1
otherwise.  Takes a few minutes (the first run builds the benchmark).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "exit %d: %s" % (r.returncode, r.stderr[-2000:])
    try:
        return json.loads(lines[-1]), r.stdout
    except ValueError:
        return None, "last line is not JSON: " + lines[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            name = "%s trace=%d" % (w["name"], trace)
            before = len(failures)
            result, text = run(w["name"], trace)
            if result is None:
                failures.append("%s: %s" % (name, text))
                continue
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append("%s: result keys %s" % (name, sorted(result)))
            if not result.get("correct") or result.get("failed") != 0:
                failures.append("%s: not correct:\n%s" % (name, text))
            if result.get("attempted", 0) < 1:
                failures.append("%s: attempted nothing" % name)
            metrics = result.get("metrics", {})
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append("%s: metric %s missing" % (name, m["name"]))
                elif got.get("unit") != m["unit"]:
                    failures.append("%s: metric %s unit %s, declared %s" % (
                        name, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                failures.append("%s: undeclared metrics %s" % (
                    name, sorted(extra)))
            print("%-22s %s" % (name, "ok" if len(failures) == before
                                   else "FAILED"))
    for f in failures:
        print("FAIL " + f)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
