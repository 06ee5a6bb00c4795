#!/usr/bin/env python3
"""Validate the tdr CLI's --report output against the tdr-report schema.

Runs `tdr races/repair/batch ... --report out.json` on a racy fixture and
checks the emitted report: schema/version header, job stats, per-iteration
race witnesses (source line/col for both accesses, the NS-LCA node, the
breaking async edge), and per-finish repair provenance (costs, forced
dependence edges, rejected alternatives). Also checks that `tdr explain`
accepts every report it writes. Invoked from CTest (see
tools/CMakeLists.txt) but also usable standalone:

    python3 tools/check_report.py build/tools/tdr
"""

import json
import os
import subprocess
import sys
import tempfile

RACY_PROGRAM = """\
func work(a: int[], i: int) {
  a[i] = a[i] + 1;
  a[0] = a[0] + i;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[n + 1];
  for (var i: int = 1; i <= n; i = i + 1) {
    async work(a, i);
  }
  print(a[0]);
}
"""

ACCESS_KINDS = {"read", "write"}
DPST_KINDS = {"root", "async", "finish", "scope", "step", "future"}
CONSTRUCTS = {"finish", "force", "isolated"}

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
    return cond


def run(cmd, env_overrides=None):
    env = dict(os.environ)
    env.pop("TDR_BACKEND_CHECK", None)
    if env_overrides:
        env.update(env_overrides)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def load_report(path, label):
    if not check(os.path.exists(path), f"{label}: --report produced no file"):
        return None
    with open(path) as f:
        doc = json.load(f)  # raises on malformed JSON -> test failure
    check(doc.get("schema") == "tdr-report", f"{label}: bad schema name")
    check(doc.get("version") == 2, f"{label}: bad schema version")
    check(doc.get("tool") in ("races", "repair", "batch"),
          f"{label}: bad tool {doc.get('tool')!r}")
    check(doc.get("backend") == "espbags",
          f"{label}: bad backend {doc.get('backend')!r}")
    check(doc.get("mode") in ("srw", "mrw"),
          f"{label}: bad mode {doc.get('mode')!r}")
    jobs = doc.get("jobs")
    if not check(isinstance(jobs, list) and jobs,
                 f"{label}: jobs must be a non-empty array"):
        return None
    return doc


def validate_pos(pos, label):
    check(isinstance(pos.get("line"), int) and pos["line"] >= 1,
          f"{label}: line must be >= 1")
    check(isinstance(pos.get("col"), int) and pos["col"] >= 1,
          f"{label}: col must be >= 1")
    check(isinstance(pos.get("line_text"), str) and pos["line_text"],
          f"{label}: line_text must be a non-empty string")


def validate_witness(w, label):
    check(isinstance(w.get("location"), str) and w["location"],
          f"{label}: missing location")
    for side in ("src", "snk"):
        acc = w.get(side)
        if not check(isinstance(acc, dict), f"{label}: missing {side}"):
            continue
        check(isinstance(acc.get("step"), int), f"{label}: {side}.step")
        check(acc.get("kind") in ACCESS_KINDS,
              f"{label}: {side}.kind {acc.get('kind')!r}")
        validate_pos(acc, f"{label}: {side}")
    lca = w.get("lca")
    if check(isinstance(lca, dict), f"{label}: missing lca object"):
        check(isinstance(lca.get("id"), int), f"{label}: lca.id")
        check(lca.get("kind") in DPST_KINDS,
              f"{label}: lca.kind {lca.get('kind')!r}")
    # Every race in this suite is explained by an escaping async; the
    # field is nullable in the schema but must be present here.
    ba = w.get("breaking_async")
    if check(isinstance(ba, dict),
             f"{label}: breaking_async must be an object for a racy fixture"):
        check(isinstance(ba.get("id"), int), f"{label}: breaking_async.id")
        validate_pos(ba, f"{label}: breaking_async")
    for spine in ("src_spine", "snk_spine"):
        entries = w.get(spine)
        if not check(isinstance(entries, list) and entries,
                     f"{label}: {spine} must be non-empty"):
            continue
        for j, e in enumerate(entries):
            check(e.get("kind") in DPST_KINDS, f"{label}: {spine}[{j}].kind")
        check(entries[-1].get("kind") == "root",
              f"{label}: {spine} must end at the root")


def validate_job(job, label, racy):
    check(isinstance(job.get("name"), str) and job["name"],
          f"{label}: missing job name")
    check(job.get("success") in (True, False), f"{label}: missing success")
    stats = job.get("stats")
    if check(isinstance(stats, dict), f"{label}: missing stats"):
        for key in ("iterations", "finishes_inserted", "forces_inserted",
                    "isolated_inserted", "interpretations",
                    "replays", "races_raw", "race_pairs", "dpst_nodes"):
            check(isinstance(stats.get(key), int) and stats[key] >= 0,
                  f"{label}: stats.{key} must be a non-negative int")
    n_witnesses = 0
    for it in job.get("iterations", []):
        check(isinstance(it.get("iteration"), int), f"{label}: iteration id")
        check(it.get("replayed") in (True, False), f"{label}: replayed flag")
        for i, w in enumerate(it.get("witnesses", [])):
            n_witnesses += 1
            validate_witness(w, f"{label}: witness {i}")
    if racy:
        check(n_witnesses > 0, f"{label}: racy input produced no witnesses")
    return n_witnesses


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <path-to-tdr-binary>", file=sys.stderr)
        return 2
    tdr = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="tdr-check-report-") as tmp:
        prog = os.path.join(tmp, "racy.hj")
        with open(prog, "w") as f:
            f.write(RACY_PROGRAM)

        def explain_ok(report, label):
            res = run([tdr, "explain", report])
            check(res.returncode == 0,
                  f"{label}: explain exited {res.returncode}: "
                  f"{res.stderr.strip()}")
            check("tdr run report" in res.stdout,
                  f"{label}: explain output missing report header")

        # -- tdr races --report ------------------------------------------
        report = os.path.join(tmp, "races.json")
        res = run([tdr, "races", prog, "--arg", "6", "--report", report])
        check(res.returncode == 1,
              f"races: expected exit 1 (races found), "
              f"got {res.returncode}: {res.stderr.strip()}")
        doc = load_report(report, "races")
        if doc is not None:
            check(doc["tool"] == "races", "races: tool field")
            for job in doc["jobs"]:
                validate_job(job, "races", racy=True)
            explain_ok(report, "races")

        # -- \uXXXX surrogate handling in the report reader ---------------
        # A report whose strings escape non-BMP characters as surrogate
        # pairs (json.dump with ensure_ascii emits exactly that) must
        # round-trip through `tdr explain`; a lone half must be rejected
        # as a parse error, not decoded into mojibake.
        src = os.path.join(tmp, "races-espbags.json")
        if os.path.exists(src):
            with open(src) as f:
                doc = json.load(f)
            doc["jobs"][0]["name"] = "fixture \U0001F600 astral"
            pair = os.path.join(tmp, "surrogate-pair.json")
            with open(pair, "w") as f:
                json.dump(doc, f, ensure_ascii=True)
            with open(pair) as f:
                check("\\ud83d\\ude00" in f.read().lower(),
                      "surrogate fixture did not emit a surrogate pair")
            res = run([tdr, "explain", pair])
            check(res.returncode == 0,
                  f"explain surrogate pair: exited {res.returncode}: "
                  f"{res.stderr.strip()}")
            lone = os.path.join(tmp, "surrogate-lone.json")
            with open(pair) as f:
                text = f.read()
            with open(lone, "w") as f:
                f.write(text.replace("\\ud83d\\ude00", "\\ude00")
                            .replace("\\uD83D\\uDE00", "\\uDE00"))
            res = run([tdr, "explain", lone])
            check(res.returncode != 0,
                  "explain accepted a lone low surrogate")
            check("surrogate" in res.stderr,
                  f"lone-surrogate error not surfaced: {res.stderr.strip()!r}")

        # -- tdr repair --report: provenance ------------------------------
        report = os.path.join(tmp, "repair.json")
        out = os.path.join(tmp, "repaired.hj")
        res = run([tdr, "repair", prog, "--arg", "6",
                   "--report", report, "-o", out])
        check(res.returncode == 0,
              f"repair: exited {res.returncode}: {res.stderr.strip()}")
        doc = load_report(report, "repair")
        if doc is not None:
            job = doc["jobs"][0]
            validate_job(job, "repair", racy=True)
            check(job.get("success") is True, "repair: job not successful")
            prov = job.get("provenance", [])
            if check(isinstance(prov, list) and prov,
                     "repair: provenance must be non-empty"):
                for i, p in enumerate(prov):
                    label = f"repair: provenance {i}"
                    check(isinstance(p.get("iteration"), int),
                          f"{label}: iteration")
                    check(isinstance(p.get("group_lca"), int),
                          f"{label}: group_lca")
                    check(p.get("construct") in CONSTRUCTS,
                          f"{label}: construct {p.get('construct')!r}")
                    validate_pos(p.get("anchor", {}), f"{label}: anchor")
                    check(p.get("dynamic_instances", 0) >= 1,
                          f"{label}: dynamic_instances")
                    check(p.get("cost_after", -1) >= p.get("cost_before", 0),
                          f"{label}: cost_after < cost_before")
                    edges = p.get("forced_edges")
                    check(isinstance(edges, list) and edges,
                          f"{label}: forced_edges must be non-empty")
                    alts = p.get("alternatives")
                    if check(isinstance(alts, list),
                             f"{label}: alternatives must be an array"):
                        for j, a in enumerate(alts):
                            check(a.get("construct") in CONSTRUCTS,
                                  f"{label}: alternatives[{j}].construct")
                            check(a.get("feasible") in (True, False),
                                  f"{label}: alternatives[{j}].feasible")
                            check(isinstance(a.get("cost"), int),
                                  f"{label}: alternatives[{j}].cost")
                            check(isinstance(a.get("reason"), str),
                                  f"{label}: alternatives[{j}].reason")
                    check(isinstance(p.get("rejected"), list),
                          f"{label}: rejected must be an array")
                repairs = (job["stats"]["finishes_inserted"]
                           + job["stats"]["forces_inserted"]
                           + job["stats"]["isolated_inserted"])
                check(len(prov) == repairs,
                      "repair: one provenance record per inserted repair")
            # Convergence: the last recorded iteration must be race free.
            iters = job.get("iterations", [])
            if check(len(iters) >= 2, "repair: expected >= 2 iterations"):
                check(not iters[-1]["witnesses"],
                      "repair: final iteration still has witnesses")
            explain_ok(report, "repair")

        # -- tdr batch --report: one job entry per manifest line ----------
        manifest = os.path.join(tmp, "manifest.txt")
        with open(manifest, "w") as f:
            f.write(f"{prog} 4\n{prog} 6\n")
        report = os.path.join(tmp, "batch.json")
        res = run([tdr, "batch", manifest, "--jobs", "2",
                   "--report", report, "-o", tmp])
        check(res.returncode == 0,
              f"batch: exited {res.returncode}: {res.stderr.strip()}")
        doc = load_report(report, "batch")
        if doc is not None:
            check(doc["tool"] == "batch", "batch: tool field")
            check(len(doc["jobs"]) == 2, "batch: expected 2 job entries")
            for j, job in enumerate(doc["jobs"]):
                validate_job(job, f"batch job {j}", racy=True)
            explain_ok(report, "batch")

    if FAILURES:
        for msg in FAILURES:
            print(f"check_report: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_report: OK (report schema, witnesses, and provenance are "
          "valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
