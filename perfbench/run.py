"""The lparams benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the library from
./src. With --trace 0 it sets up the workload several times (cold caches each
time), then runs ops in a closed loop for S seconds and prints the end-to-end
metrics. With --trace 1 it runs a fixed number of ops twice, untraced and
then traced, and prints the per-layer metrics; the spans are written to
perfbench/traces/. Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A shared 2-vCPU Xeon VM changes speed by up to 1.8x within a minute, and a
# fixed pure-Python loop (`probe`) slows and speeds up in step with the ops. So every time the timed run reports is scaled to the
# speed at which the probe takes PROBE_REF_S, using the probes taken around it.
# The human-readable lines also give the unscaled figures.
PROBE_REF_S = 0.002
PROBE_EVERY_S = 0.05   # op time between probes
PROBE_WINDOW = 9       # probes in the median that scales one op

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]

# (name, unit, better); README.md says which end-to-end metric each should move.
PER_LAYER = [
    *[(f"{m}.{f}", u, "lower") for m in spans.MODULES
      for f, u in (("calls", "count"), ("self_s", "s"))],
    ("gaussian.arith.calls", "count", "lower"),
    ("gaussian.parse_gauss.calls", "count", "lower"),
    ("gaussian.format_gauss.calls", "count", "lower"),
    ("intlinalg.smith.calls", "count", "lower"),
    ("intlinalg.smith.self_s", "s", "lower"),
    ("intlinalg.solve_congruence.calls", "count", "lower"),
    ("intlinalg.in_span_z.calls", "count", "lower"),
    ("intlinalg.nullspace.calls", "count", "lower"),
    ("intlinalg.mat_vec.calls", "count", "lower"),
    ("intlinalg.mat_mul.calls", "count", "lower"),
    ("rootdata.build_datum.calls", "count", "lower"),
    ("rootdata.build_datum.self_s", "s", "lower"),
    ("lgroup.parse_inner_class.calls", "count", "lower"),
    ("lgroup.lgroup_split.calls", "count", "lower"),
    ("weyl.weyl_enumerate.s", "s", "lower"),
    ("weyl.weyl_mul.calls", "count", "lower"),
    ("weyl.canon_cache.hit_ratio", "ratio", "higher"),
    ("weyl.canon_cache.size", "count", "lower"),
    ("lgroup.tits_context_cache.hit_ratio", "ratio", "higher"),
    ("lgroup.tits_context_cache.size", "count", "lower"),
    ("lparam.twisted_involutions.s", "s", "lower"),
    ("lparam.params_equivalent.s", "s", "lower"),
    ("lparam.params_equivalent.conjugations_per_call", "count/call", "lower"),
    ("tits.tits_mul.calls", "count", "lower"),
    ("tits.tits_mul.self_s", "s", "lower"),
    ("tits.chevalley.calls", "count", "lower"),
    ("tits.tits_inverse.calls", "count", "lower"),
    ("torus.torus_param.calls", "count", "lower"),
    ("torus.char_equal.calls", "count", "lower"),
    ("lparam.random_param.s", "s", "lower"),
    ("lparam.random_param.solves_per_param", "count/call", "lower"),
    ("lparam.contragredient_param.s", "s", "lower"),
    ("lparam.inf_char.s", "s", "lower"),
    ("lparam.rad_char.s", "s", "lower"),
    ("lparam.central_char.s", "s", "lower"),
    ("lparam.levi_of.s", "s", "lower"),
    ("weilrep.parse_weil_rep.s", "s", "lower"),
    ("weilrep.weil_to_lparam.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def load_library():
    """Import lparams from ./src of this checkout, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lparams", "cli.py")):
        sys.exit(f"run.py: no lparams sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import lparams
    if not os.path.abspath(lparams.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: imported lparams from {lparams.__file__}, not from {src}")


def probe() -> float:
    """Seconds taken by a fixed pure-Python integer loop: the machine's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    return time.perf_counter() - t0


class Loop:
    """Latencies, failures, speed probes and the output digest of one pass of ops."""

    def __init__(self):
        self.lat = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.probe_at = []   # number of ops done when each probe ran
        self.probes = []

    def probe(self) -> None:
        self.probe_at.append(len(self.lat))
        self.probes.append(probe())

    def scaled(self):
        """Latencies at reference speed, each scaled by the median of its nearest probes."""
        out = []
        half = PROBE_WINDOW // 2
        for j, lat in enumerate(self.lat):
            k = bisect.bisect_right(self.probe_at, j)
            near = self.probes[max(0, k - half - 1):k + half]
            out.append(lat * PROBE_REF_S / statistics.median(near))
        return out


def run_ops(w, *, n=None, seconds=0.0, tracer=None, collect=None) -> Loop:
    """Closed loop: n ops, or at least w.digest_ops ops and then until `seconds` pass.

    Only run_op is timed. With a tracer, spans are recorded during run_op
    only, so the harness's own input making and checking add no spans.
    """
    loop = Loop()
    gc.collect()
    loop.probe()
    since_probe = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < n) if n is not None else (i < w.digest_ops or time.perf_counter() < deadline):
        x = w.make_input(i)
        if tracer is not None:
            tracer.op, tracer.on = i, True
        err = None
        t0 = time.perf_counter()
        try:
            result = w.run_op(x)
        except Exception:
            err = traceback.format_exc()
        loop.lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.on = False
        since_probe += loop.lat[-1]
        if since_probe >= PROBE_EVERY_S:
            loop.probe()
            since_probe = 0.0
        canon = i < w.digest_ops
        ok, text = False, err
        if err is None:
            try:
                ok, text = w.check(x, result, canon)
                if collect is not None:
                    collect(i, result)
            except Exception:
                ok, text = False, traceback.format_exc()
        if not ok:
            loop.failed += 1
            if loop.failed <= 3:
                print(f"FAILED op {i} of {w.name}: {x!r}\n{text}", file=sys.stderr)
        if canon:
            loop.digest.update((text or "").encode() + b"\0")
        i += 1
    return loop


def tail(lat):
    """(percentile, value, samples beyond it) for the highest integer percentile
    with at least ten samples beyond it (p0 when there are ten samples or fewer)."""
    n = len(lat)
    p = (100 * (n - 10)) // n if n > 10 else 0
    k = max(1, math.ceil(p * n / 100))
    return p, sorted(lat)[k - 1], n - k


def timed_setup(w):
    """(set-up seconds at reference speed, unscaled seconds)."""
    gc.collect()
    before = [probe() for _ in range(PROBE_WINDOW // 2)]
    took = w.setup()
    after = [probe() for _ in range(PROBE_WINDOW // 2)]
    return took * PROBE_REF_S / statistics.median(before + after), took


def timed_run(w, seconds: float):
    setups = [timed_setup(w) for _ in range(w.setup_repeats)]
    loop = run_ops(w, seconds=seconds)
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    lat = loop.scaled()
    n = len(lat)
    p, tail_s, beyond = tail(lat)
    k = w.cycle
    cycles = [k / sum(lat[j:j + k]) for j in range(0, n - k + 1, k)]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": statistics.median(cycles),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    print(f"setup_s: median of {len(setups)} set-ups; unscaled "
          f"{[round(raw, 4) for _, raw in setups]}")
    print(f"ops_per_s: median over {len(cycles)} cycles of {k} ops; unscaled "
          f"{n / sum(loop.lat)} over all {n} ops")
    print(f"speed: probe median {statistics.median(loop.probes) * 1e3:.3f} ms "
          f"(reference {PROBE_REF_S * 1e3} ms) over {len(loop.probes)} probes")
    print(f"op_p50_ms: unscaled {statistics.median(loop.lat) * 1e3}")
    print(f"op_tail_ms: p{p} of {n} samples ({beyond} beyond it)")
    print(f"fail_ratio: {loop.failed / n} ({loop.failed} of {n} ops failed)")
    print(f"digest: sha256 {loop.digest.hexdigest()} over ops 0..{w.digest_ops - 1}")
    return metrics, n, loop.failed


def traced_run(w, trace_dir: str):
    n = w.trace_ops
    w.setup()
    base = run_ops(w, n=n)
    agg = spans.Aggregate()
    dumps = []
    if w.in_children:
        w.traced = True

        def collect(i, result):
            dump = w.trace_dump(result)
            for rec in dump["spans"]:
                rec[4] = i
            agg.add(dump)
            dumps.append(dump)
        traced = run_ops(w, n=n, collect=collect)
        import_s = statistics.median(d["import_s"] for d in dumps)
    else:
        tracer = spans.Tracer()
        spans.install(tracer)
        w.setup()
        traced = run_ops(w, n=n, tracer=tracer)
        dump = tracer.dump()
        agg.add(dump)
        dumps.append(dump)
        import_s = 0.0
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{w.name}-seed{w.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": w.name, "seed": w.seed, "ops": n, "dumps": dumps,
                   "table": agg.table()}, f)
    extra = {
        "weyl.canon_cache.hit_ratio": agg.hit_ratio("weyl.canon_cache"),
        "weyl.canon_cache.size": agg.caches["weyl.canon_cache"]["size"],
        "lgroup.tits_context_cache.hit_ratio": agg.hit_ratio("lgroup.tits_context_cache"),
        "lgroup.tits_context_cache.size": agg.caches["lgroup.tits_context_cache"]["size"],
        "lparam.params_equivalent.conjugations_per_call":
            agg.per_call("lparam.params_equivalent", "lparam.conjugate_param"),
        "lparam.random_param.solves_per_param":
            agg.per_call("lparam.random_param", "intlinalg.solve_congruence"),
        "cli.import_s": import_s,
        "trace.overhead_ratio": sum(base.lat) / sum(traced.lat),
    }
    metrics = {name: extra[name] if name in extra else layer_value(agg, name)
               for name, _, _ in PER_LAYER}
    same = base.digest.hexdigest() == traced.digest.hexdigest()
    print(f"traced {n} ops after {n} untraced ops; spans written to {os.path.relpath(path, ROOT)}")
    print(f"digest: sha256 {base.digest.hexdigest()} untraced, "
          f"{'same' if same else 'DIFFERENT'} traced")
    return metrics, 2 * n, base.failed + traced.failed, same


def layer_value(agg, name: str):
    head, _, field = name.rpartition(".")
    if head in spans.MODULES:
        return agg.module_calls(head) if field == "calls" else agg.module_self(head)
    if field == "calls":
        return agg.calls.get(head, 0)
    if field == "self_s":
        return agg.self_s.get(head, 0.0)
    return agg.incl.get(head, 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    load_library()
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    w = workloads.make(args.workload, args.seed, ROOT)
    print(f"workload: {w.name} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, same = traced_run(w, os.path.join(HERE, "traces"))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, attempted, failed = timed_run(w, args.seconds)
        same = True
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
