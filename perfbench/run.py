#!/usr/bin/env python3
"""Pipeline benchmark: a nest to a checked buffer, on three workloads.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # summary table

Builds perfbench/bench.exe with dune, then runs the workload in a process
of its own, so that its peak resident memory is the workload's own.  With
--trace 0 the last line of standard output is the result JSON with the
end-to-end metrics; with --trace 1 it carries the per-layer breakdown.
Build output and check failures go to standard error.  Exits non-zero,
without a result line, when the build or the measuring process fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["stencil5-steps", "stencil5-crash", "example3-pped"]
E2E = ["e2e_s", "setup_s", "run_s", "peak_rss_mb", "footprint_max"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # No shared build cache: the build stays inside the source tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def git_rev():
    """The checked-out commit, read from .git without leaving the tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace):
    """Run one workload in its own process; its stdout lines."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--rev", git_rev()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(workload + ": measuring process timed out")
    if proc.returncode != 0:
        fail("%s: measuring process exited with %d" % (workload, proc.returncode))
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(workload + ": no result line")
    return lines, result


def summary(args):
    """Every workload's end-to-end metrics and fail_frac, one row each."""
    rows = []
    for w in WORKLOADS:
        lines, result = measure(w, args.seed, args.seconds, 0)
        record = next(json.loads(l)["record"] for l in lines
                      if l.startswith('{"record"'))
        rows.append((w, record, result))
    head = "%-16s" % "workload" + "".join("%16s" % m for m in E2E + ["fail_frac"])
    print(head)
    for w, record, _ in rows:
        cells = ["%10.6g %-5s" % (record["metrics"][m]["value"],
                                  record["metrics"][m]["unit"]) for m in E2E]
        cells.append("%10.6g %-5s" % (record["fail_frac"], "ratio"))
        print("%-16s" % w + "".join("%16s" % c for c in cells))
    r0 = rows[0][1]
    print("P=%d host_cores=%d ocaml=%s rev=%s" %
          (r0["nprocs"], r0["host_cores"], r0["ocaml"], r0["git_rev"]))
    print(json.dumps({
        "correct": all(r["correct"] for _, _, r in rows),
        "attempted": sum(r["attempted"] for _, _, r in rows),
        "failed": sum(r["failed"] for _, _, r in rows),
        "metrics": {"%s/%s" % (w, m): v for w, _, r in rows
                    for m, v in r["metrics"].items()},
    }))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    if args.workload == "all":
        summary(args)
        return
    lines, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
