"""Smoke check of the benchmark harness: python3 perfbench/smoke.py

Runs every workload at its smallest size (one set-up, one digest's worth of
ops), untraced and traced, each case in its own process, and checks that:

- no op fails, untraced or traced;
- the same seed gives the same output digest, untraced and traced;
- another seed gives another digest, so its inputs differ;
- two traced runs with the same seed give identical call counts;
- the printed metric names are those in BENCHMARK.json.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_case(name: str, seed: int, traced: bool) -> dict:
    """One minimal run, in this process: the body of a child started by `case`."""
    sys.path.insert(0, HERE)
    import run
    run.load_library()
    import workloads
    w = workloads.make(name, seed, ROOT)
    w.setup_repeats = 1
    w.trace_ops = w.digest_ops
    if traced:
        metrics, attempted, failed, same = run.traced_run(w, os.path.join(HERE, "traces"))
    else:
        (metrics, attempted, failed), same = run.timed_run(w, 0.0), True
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "same": same}


def case(name: str, seed: int, traced: bool) -> dict:
    out = subprocess.run([sys.executable, __file__, "--case", name, str(seed), str(int(traced))],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} traced={traced} exited {out.returncode}:\n"
                           f"{out.stderr[-3000:]}")
    lines = out.stdout.splitlines()
    doc = json.loads(lines[-1])
    doc["digest"] = next(line.split()[2] for line in lines if line.startswith("digest: sha256"))
    return doc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        t0 = time.perf_counter()
        plain = case(name, 1, False)
        other = case(name, 2, False)
        traced = [case(name, 1, True), case(name, 1, True)]
        for label, doc in (("untraced", plain), ("seed 2", other),
                           ("traced", traced[0]), ("traced again", traced[1])):
            if doc["failed"] or not doc["same"]:
                problems.append(f"{name} {label}: {doc['failed']} of {doc['attempted']} "
                                f"ops failed, traced digest same: {doc['same']}")
        if set(plain["metrics"]) != want_e2e:
            problems.append(f"{name}: end-to-end names {sorted(plain['metrics'])}")
        if set(traced[0]["metrics"]) != want_layer:
            problems.append(f"{name}: per-layer names differ from BENCHMARK.json: "
                            f"{sorted(set(traced[0]['metrics']) ^ want_layer)}")
        if plain["digest"] != traced[0]["digest"]:
            problems.append(f"{name}: seed 1 digest differs between untraced and traced runs")
        if plain["digest"] == other["digest"]:
            problems.append(f"{name}: seeds 1 and 2 give the same digest")
        counts = [{k: v for k, v in t["metrics"].items() if k.endswith(".calls")} for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{name}: call counts differ between two traced runs: {diff}")
        print(f"{name}: {plain['attempted']} + {other['attempted']} untraced ops, "
              f"2 x {traced[0]['attempted']} traced ops, {time.perf_counter() - t0:.1f} s",
              flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        name, seed, traced = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
        print(json.dumps(run_case(name, seed, traced)))
        sys.exit(0)
    sys.exit(main())
