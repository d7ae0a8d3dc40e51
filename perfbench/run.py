#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload profile-suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare A.json B.json

A run builds perfbench/ (and the src/ libraries it links) into
.bench_build/perfbench, runs kremlin-perfbench and passes its output through;
the last line is the result object. Full results (manifest, sample counts)
go to .bench_build/perfbench/results/, Chrome traces of traced runs to
.bench_build/perfbench/traces/. `compare` refuses two results whose
manifests differ in anything but the git revision.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Kremlin source tree (src/) next to perfbench/", 2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    build(["kremlin-perfbench"])

    tag = "%s-s%d-t%d" % (a.workload, a.seed, a.trace)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    cmd = [os.path.join(BUILD, "kremlin-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--baseline", os.path.join(ROOT, "bench", "baseline.json"),
           "--result-out", os.path.join(BUILD, "results", tag + ".json"),
           "--git-rev", git_rev()]
    if a.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        sys.exit(proc.returncode)

    # The binary and BENCHMARK.json must name the same metrics.
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = list(result.get("metrics", {}))
    want = expected_metrics(a.trace)
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare <result-a.json> <result-b.json>", 2)
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    ma, mb = (dict(d["manifest"]) for d in docs)
    revs = (ma.pop("git_rev", "?"), mb.pop("git_rev", "?"))
    diff = sorted(k for k in set(ma) | set(mb) if ma.get(k) != mb.get(k))
    if diff:
        for k in diff:
            print("  %s: %r vs %r" % (k, ma.get(k), mb.get(k)))
        fail("refusing to compare: manifests differ in " + ", ".join(diff))
    print("comparing %s (a) with %s (b)" % revs)
    print("%-28s %16s %16s %9s  %s" % ("metric", "a", "b", "b/a-1", "unit"))
    a, b = docs[0]["metrics"], docs[1]["metrics"]
    for name in a:
        if name not in b:
            continue
        va, vb = a[name]["value"], b[name]["value"]
        rel = "%+8.2f%%" % ((vb / va - 1) * 100) if va else "      n/a"
        print("%-28s %16.6g %16.6g %s  %s" % (name, va, vb, rel,
                                             a[name]["unit"]))


def selftest():
    build(["perfbench_test"])
    sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")],
                            cwd=ROOT).returncode)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        compare(argv[1:])
    elif argv[:1] == ["selftest"]:
        selftest()
    else:
        run(argv)


if __name__ == "__main__":
    main()
