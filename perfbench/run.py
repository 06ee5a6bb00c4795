#!/usr/bin/env python3
"""End-to-end benchmark of tdr's repair pipeline.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build/perfbench, runs one
workload and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload exec-heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see BENCHMARK.json):
  exec-heavy   FannKuch(7), Mandelbrot(100,100,60), Crypt(1600,25),
               Nqueens(8), finishes stripped; one client.
  race-dense   Mergesort(4000), LUFact(32,4), Series(220), Sparse(700,6,4,10),
               Spanning Tree(1000,6,25), finishes stripped; one client.
  many-small   the small ones among 16000 seeded random programs (default and
               constructs profiles alternating; "small" = at most 16384
               interpreter work units and 16384 racing pairs and no
               dependence group wider than 64 nodes before repair, ~98% of
               them), one BatchRepairRunner batch of all of them per round
               on min(4, nproc) workers.

--trace 0 prints the end-to-end metrics, measured with no tracing:
  jobs_per_s    repair jobs completed per second (closed loop)
  job_ms.p50    median job latency (the mean of the middle two jobs when
                their number is even)
  job_ms.tail   the highest percentile with at least 10 distinct jobs beyond
                it (the slowest job when none has; the text says which)
  races_s       the `tdr races` path (parse, sema, MRW detection, report
                rendering) over every buggy program; per program the median
                of 3 passes, summed
  peak_rss_mb   peak resident memory of a measuring process (a fresh child
                forked after set-up) before verification, the largest of
                the 3
  ok_ratio      jobs that passed verification / jobs attempted
  cpl_ratio     geometric mean of repaired / reference T-infinity
  setup_s       input set-up time, median of 3 set-ups

An end-to-end run is 3 parts, each a fresh process that sets up, measures
for a third of --seconds and makes one `tdr races` pass; the metrics come
from all parts' samples, so effects fixed for one process's life average
out. Job latency percentiles are over jobs, each job's latency being the
median of its repeats.

--trace 1 is the separate traced run. It alternates rounds of the same jobs
without and with spans around each layer call (bench.trace_overhead_x is
traced / untraced jobs per second), then runs the layer ladder over every
job at 1, 1/2 and 1/4 of its input (a sample of 128 programs on many-small)
and prints the per-layer metrics: totals over the full-size jobs, and
log-log slopes of each layer's time against interpreter work units (the
steepest program's; one fit across programs on many-small). Spans are
written as Chrome trace JSON to .bench_build/traces/.

Every job runs with a pinned configuration (ESP-bags, MRW, replay on, the
default constructs); the benchmark refuses to run when TDR_BACKEND,
TDR_BACKEND_CHECK, TDR_REPLAY_CHECK, TDR_LOG_SPILL, TDR_PAR_WORKERS or
TDR_TRACE is set, or when it was built unoptimised or with a sanitizer.

--self-check runs the workloads on tiny inputs and asserts that every
metric prints with its unit, that a tampered reference output is counted as
a failure, and that the deterministic numbers repeat exactly across runs
and worker counts.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tdr_perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
# Measuring processes per end-to-end run; each measures seconds / PARTS.
PARTS = 3


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("tdr sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_info():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def run_binary(args):
    """Runs the benchmark binary; returns (text lines, last-line object)."""
    # Its own process group, so a timeout stops the measuring child too.
    p = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}", 1)
    sys.stderr.write(err)
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        fail(f"benchmark exited with {p.returncode}: {' '.join(args)}", 1)
    last = lines[-1]
    return lines[:-1], json.loads(last[len("part: "):] if
                                  last.startswith("part: ") else last)


def nearest_rank(sorted_values, pct):
    n = len(sorted_values)
    return sorted_values[min(n, max(1, math.ceil(pct / 100 * n))) - 1]


def median(values):
    return nearest_rank(sorted(values), 50)


def tail(values):
    """The highest percentile with at least 10 values beyond it (nearest
    rank); the largest value (p100) when none has, as with the few jobs of
    a suite workload. Returns (percentile, value, beyond)."""
    v = sorted(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = min(len(v), max(1, math.ceil(pct / 100 * len(v))))
        if len(v) - rank >= 10:
            return pct, v[rank - 1], len(v) - rank
    return 100, v[-1], 0


def end_to_end(workload, seed, seconds, parts, extra=()):
    """Runs `parts` measuring processes and computes the end-to-end metrics.

    Each part is a fresh process, so effects fixed for a process's life
    (address-space layout under pointer-keyed hash tables, allocator state)
    average out instead of deciding a whole run. Returns (text lines,
    result object)."""
    lines, results = [], []
    for i in range(parts):
        text, part = run_binary(["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds / parts),
                                 "--trace", "0", *extra])
        lines += [f"[part {i + 1}/{parts}] {t}" for t in text]
        results.append(part)
    # Latency percentiles are over jobs, each job's latency being the median
    # of its repeats: repeats of one job are not independent samples.
    jobs = len(results[0]["job_ms"])
    per_job = [median(sum((r["job_ms"][j] for r in results), []))
               for j in range(jobs)
               if any(r["job_ms"][j] for r in results)]
    pct, tail_ms, beyond = tail(per_job)
    races = sum(median([r["races_s"][j] for r in results])
                for j in range(jobs))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    reasons = {}
    for r in results:
        for k, n in r["reasons"].items():
            reasons[k] = reasons.get(k, 0) + n
    lines.append(f"job_ms: {len(per_job)} jobs, {sum(len(x) for r in results for x in r['job_ms'])} "
                 f"samples; job_ms.tail is p{pct:g} with {beyond} jobs beyond it"
                 + ("" if beyond >= 10 else
                    "; no percentile has 10 jobs beyond"))
    lines.append(f"setup_s samples: {[r['setup_s'] for r in results]}")
    lines.append(f"jobs: {attempted} attempted, {failed} failed "
                 f"(fail_ratio {failed / attempted:.6f})")
    for k, n in sorted(reasons.items()):
        lines.append(f"  failed {n} x {k}")
    metrics = {
        "jobs_per_s": (attempted / sum(r["timed_s"] for r in results), "1/s"),
        "job_ms.p50": (statistics.median(per_job), "ms"),
        "job_ms.tail": (tail_ms, "ms"),
        "races_s": (races, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "cpl_ratio": (median([r["cpl_ratio"] for r in results]), "ratio"),
        "setup_s": (median([r["setup_s"] for r in results]), "s"),
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name:26s} {value:.6g} {unit}")
    result = {"correct": all(r["correct"] for r in results),
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    return lines, result


def check_result(result, trace):
    """Schema check against BENCHMARK.json; returns a list of problems."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    want = spec()["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in want:
        if m["name"] not in got:
            problems.append(f"metric {m['name']} missing")
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit "
                            f"{got[m['name']].get('unit')} != {m['unit']}")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def measure(a):
    build()
    os.makedirs(TRACES, exist_ok=True)
    if a.trace:
        lines, result = run_binary([
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", "1", "--trace-out",
            os.path.join(TRACES, f"{a.workload}-seed{a.seed}.json")])
    else:
        lines, result = end_to_end(a.workload, a.seed, a.seconds, PARTS)
    for line in lines:
        print(line)
    print("source: " + json.dumps(source_info()))
    problems = check_result(result, a.trace)
    if problems:
        fail("; ".join(problems), 1)
    print(json.dumps(result))


def self_check():
    build()
    os.makedirs(TRACES, exist_ok=True)
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    def quick(workload, trace, *extra):
        extra = ("--quick", *extra)
        if not trace:
            return end_to_end(workload, 7, 1, 1, extra)
        return run_binary(["--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", "1", *extra,
                           "--trace-out", os.path.join(
                               TRACES, f"self-check-{workload}.json")])

    def values(result, names):
        return {n: result["metrics"][n]["value"] for n in names}

    workers = str(max(2, min(4, os.cpu_count() or 1)))
    for w in [x["name"] for x in spec()["workloads"]]:
        extra = ("--workers", workers) if w == "many-small" else ()
        _, e2e = quick(w, 0, *extra)
        expect(not check_result(e2e, 0) and e2e["correct"],
               f"{w}: every end-to-end metric prints with its unit")
        _, e2e2 = quick(w, 0, *extra)
        det = ["ok_ratio", "cpl_ratio"]
        expect(values(e2e, det) == values(e2e2, det)
               and e2e["failed"] == e2e2["failed"],
               f"{w}: ok_ratio, cpl_ratio and failures repeat exactly")
        _, lay = quick(w, 1, *extra)
        expect(not check_result(lay, 1) and lay["correct"],
               f"{w}: every per-layer metric prints with its unit")
        _, lay2 = quick(w, 1, *extra)
        counts = ["dpst.nodes", "race.pairs", "repair.finishes"]
        expect(values(lay, counts) == values(lay2, counts),
               f"{w}: dpst.nodes, race.pairs, repair.finishes repeat exactly")
        if w == "many-small":
            _, one = quick(w, 0, "--workers", "1")
            expect(values(one, det) == values(e2e, det)
                   and one["failed"] == e2e["failed"],
                   f"{w}: 1 worker and {workers} workers agree on "
                   "ok_ratio, cpl_ratio and failures")
            _, lay1 = quick(w, 1, "--workers", "1")
            expect(values(lay1, counts) == values(lay, counts),
                   f"{w}: 1 worker and {workers} workers agree on counts")

    _, clean = quick("exec-heavy", 0)
    lines, tampered = quick("exec-heavy", 0, "--tamper")
    expect(tampered["failed"] == clean["failed"] + 1
           and not tampered["correct"]
           and any("output differs from the serial elision" in l
                   for l in lines),
           "a tampered reference output is counted in the failures")
    if failures:
        fail(f"{len(failures)} self-check(s) failed", 1)
    print("self-check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if a.self_check:
        self_check()
        return
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    if a.seed < 0:
        fail("--seed must be >= 0")
    measure(a)


if __name__ == "__main__":
    main()
