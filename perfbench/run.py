"""partctl benchmark: one seeded workload, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-p2 --seed 1 --seconds 40 --trace 0

The workload's batch (one pass) is built from the seed; each round builds it
again (setup) and runs it once, while another round fits in ``--seconds``;
the next op starts when the previous one returns.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs a warm-up
pass, then passes that run each op untraced and at once traced, and prints
the per-layer metrics.
The host's speed swings (other tenants share its cores), so a fixed
reference loop runs before every op and setup and after the last; each
measured time is scaled by ``REF_S`` over the mean of the two reference
times around it, which reports it in seconds at one fixed host speed.
An op's time in a run is the median of its scaled times over the passes.
Every output is checked outside the timed region.  The last line of stdout
is the JSON result; the full record, host facts included, is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
TAIL_PERCENTILE = 90  # every pass holds at least 100 ops, so 10+ lie beyond it
REF_S = 0.0025  # the reference loop's time at the speed the scaled figures assume


def _grid_adjacency(side):
    adj = [0] * (side * side)
    for v in range(side * side):
        if v % side < side - 1:
            adj[v] |= 1 << (v + 1)
            adj[v + 1] |= 1 << v
        if v < side * (side - 1):
            adj[v] |= 1 << (v + side)
            adj[v + side] |= 1 << v
    return adj


GRID = _grid_adjacency(4)
REFERENCE_SETS = 5293  # connected sets of the 4x4 grid holding a corner


def reference_loop():
    """Fixed pure-Python work much like the exact search: list the
    connected vertex sets of the 4x4 grid that hold vertex 0, by bitmask
    growth.  Returns its wall time in seconds."""
    seen = set()

    def grow(S, cand, forb):
        seen.add(S)
        while cand:
            b = cand & -cand
            cand ^= b
            grow(S | b, (cand | GRID[b.bit_length() - 1]) & ~(forb | S | b), forb | b)
            forb |= b

    t0 = time.perf_counter_ns()
    grow(1, GRID[0], 1)
    dt = (time.perf_counter_ns() - t0) / 1e9
    assert len(seen) == REFERENCE_SETS
    return dt


def scaled(times, refs):
    """``times[i]`` at the fixed speed: each scaled by ``REF_S`` over the mean
    of ``refs[i]`` and ``refs[i + 1]``, the reference times around it."""
    return [t * 2 * REF_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["exact-p2", "exact-sweep", "pipelines"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import partctl from this checkout's src/, or exit 2 if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "partctl", "__init__.py")):
        print(f"error: no partctl sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import partctl

    if not os.path.abspath(partctl.__file__).startswith(src + os.sep):
        print(f"error: partctl imported from {partctl.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _last_error():
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


def host_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    rank = max(1, -(-pct * len(sorted_vals) // 100))
    return sorted_vals[rank - 1]


class Run:
    """One measured run: the ops of one pass, outputs seen so far, failures."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)  # digest of each op's first execution
        self.executions = [0] * len(ops)
        self.matched = [0] * len(ops)  # executions equal to the first
        self.failed = 0
        self.failures = []

    def fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind} {op.label}: {why}")

    def run_pass(self):
        """Run every op once, the reference loop before each and after the
        last; return the op times in seconds, raw and scaled."""
        gc.collect()
        refs, times = [reference_loop()], []
        for i in range(len(self.ops)):
            times.append(self.run_op(i))
            refs.append(reference_loop())
        return times, scaled(times, refs)

    def run_op(self, i, tracer=None):
        """Run op ``i`` once, recording spans in ``tracer`` if given; return
        its time in seconds."""
        op = self.ops[i]
        inp = op.make()
        if tracer is not None:
            tracer.op = i
            span = tracer.enter(tracer.name_id("op", op.kind))
        err = None
        t0 = time.perf_counter_ns()
        try:
            out = op.call(inp)
        except Exception:  # an op that raises is counted, not fatal
            err = _last_error()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.exit(span)
        self.executions[i] += 1
        if err is None:
            try:
                d = op.digest(out)
            except Exception:  # an output that cannot be read is a failed op
                err = "digest raised " + _last_error()
        if err is not None:
            self.fail(op, err)
        elif self.first[i] is None:
            self.first[i] = d
            self.matched[i] += 1
        elif d == self.first[i]:
            self.matched[i] += 1
        else:
            self.fail(op, "output differs from its first execution")
        return (t1 - t0) / 1e9

    def check_outputs(self):
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            try:
                why = op.check(self.first[i])
            except Exception:
                why = "check raised " + _last_error()
            if why:
                self.failed += self.matched[i] - 1
                self.fail(op, why)

    @property
    def attempted(self):
        return sum(self.executions)


def build(workloads, name, seed, workdir):
    """One setup: build the pass; return its ops and the seconds it took,
    raw and scaled."""
    gc.collect()
    before = reference_loop()
    t0 = time.perf_counter_ns()
    ops = workloads.BUILDERS[name](seed, workdir)
    dt = (time.perf_counter_ns() - t0) / 1e9
    return ops, (dt, scaled([dt], [before, reference_loop()])[0])


def rounds(seconds):
    """Yield round numbers while another round, as long as the last one,
    still fits in ``seconds``; the first round always runs."""
    start = time.perf_counter()
    last, i = 0.0, 0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield i
        last = time.perf_counter() - t0
        i += 1


def median_sum(per_op):
    return sum(statistics.median(ts) for ts in per_op)


def measure_untraced(run, rebuild, first_setup, seconds):
    """Rounds of one setup and one pass.  Returns every pass's raw wall time,
    every setup's (raw, scaled) time, each op's raw and scaled times over
    the passes, and the peak RSS."""
    walls, setups = [], [first_setup]
    raw, per_op = [[] for _ in run.ops], [[] for _ in run.ops]
    for i in rounds(seconds):
        if i:
            run.ops = None  # drop the previous build before timing the next
            run.ops, dt = rebuild()
            setups.append(dt)
        times, fixed = run.run_pass()
        walls.append(sum(times))
        for r, ts, t, f in zip(raw, per_op, times, fixed):
            r.append(t)
            ts.append(f)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return walls, setups, raw, per_op, rss_mb


def measure_traced(run, seconds, tracing, trace_path):
    """One discarded warm-up pass, then rounds of a twin pass: each op runs
    untraced and at once traced, so that both see the same host speed, with
    the reference loop before, between and after.  Returns each op's scaled
    untraced and traced times over the rounds, each round's raw traced pass
    time, and the per-layer figures of each round's traced executions."""
    tracer = tracing.Tracer()
    plain, traced = [[] for _ in run.ops], [[] for _ in run.ops]
    traced_raw, summaries = [], []
    start = time.perf_counter()
    run.run_pass()
    for _ in rounds(seconds - (time.perf_counter() - start)):
        gc.collect()
        traced_raw.append(0.0)
        for i in range(len(run.ops)):
            r0 = reference_loop()
            p = run.run_op(i)
            r1 = reference_loop()
            tracer.install()
            try:
                t = run.run_op(i, tracer)
            finally:
                tracer.uninstall()
            traced_raw[-1] += t
            p, t = scaled([p, t], [r0, r1, reference_loop()])
            plain[i].append(p)
            traced[i].append(t)
        summaries.append(tracer.summarize())
        if len(summaries) == 1:
            tracer.write_spans(trace_path)
        tracer.clear()
    return plain, traced, traced_raw, summaries


def traced_setup(workloads, tracing, name, seed, workdir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.BUILDERS[name](seed, workdir)
    finally:
        tracer.uninstall()
    return tracer.summarize()


def layer_metrics(summaries, setup_summary, plain, traced, traced_raw):
    """Per-layer metrics: counts from the first traced pass, raw times as
    medians over traced passes; the tracing overhead compares per-op median
    scaled times, the statistic ``wall_s`` uses."""
    first = summaries[0]

    def med(f):
        return statistics.median(f(s) for s in summaries)

    rc = first["result_counts"]
    emitted = sum(v for k, v in rc.items() if k.startswith("bounds."))
    validations = first["bounds_validations"]
    m = {
        "exact.calls": (first["calls"]["exact"], "count"),
        "exact.busy_s": (med(lambda s: s["busy_s"]["exact"]), "s"),
        "exact.self_s": (med(lambda s: s["self_s"]["exact"]), "s"),
        "exact.graph_calls": (first["cross_calls"].get("exact->graph", 0), "count"),
        "exact.keys": (rc.get("exact.edge_partition_profile", 0) + rc.get("exact.vertex_partition_profile", 0), "count"),
        "graph.calls": (first["calls"]["graph"], "count"),
        "graph.self_s": (med(lambda s: s["self_s"]["graph"]), "s"),
        "graph.components_calls": (first["name_calls"].get("graph.components", 0), "count"),
        "graph.connected_edge_set_calls": (first["name_calls"].get("graph.is_connected_edge_set", 0), "count"),
        "bounds.calls": (first["calls"]["bounds"], "count"),
        "bounds.self_s": (med(lambda s: s["self_s"]["bounds"]), "s"),
        "bounds.core_s": (med(lambda s: s["name_busy_s"].get("bounds.dense_core", 0.0)), "s"),
        "bounds.packing_s": (med(lambda s: s["name_busy_s"].get("bounds.spanning_tree_packing", 0.0)), "s"),
        "bounds.emitted": (emitted, "count"),
        "bounds.validations": (validations, "count"),
        "bounds.validations_per_emitted": (validations / emitted if emitted else 0.0, "ratio"),
        "splits.calls": (first["calls"]["splits"], "count"),
        "splits.self_s": (med(lambda s: s["self_s"]["splits"]), "s"),
        "splits.items": (rc.get("splits.nested_split_sequence", 0), "count"),
        "splits.check_s": (med(lambda s: s["name_busy_s"].get("splits.check", 0.0)), "s"),
        "arith.calls": (first["calls"]["arith"], "count"),
        "arith.self_s": (med(lambda s: s["self_s"]["arith"]), "s"),
        "cli.calls": (first["calls"]["cli"], "count"),
        "cli.self_s": (med(lambda s: s["self_s"]["cli"]), "s"),
        "families.self_s": (setup_summary["self_s"]["families"], "s"),
        "trace.wall_s": (statistics.median(traced_raw), "s"),
        "trace.overhead_s": (median_sum(traced) - median_sum(plain), "s"),
    }
    repeat = all(_counts(s) == _counts(first) for s in summaries)
    return m, repeat


def _counts(summary):
    """The deterministic part of a pass summary."""
    keys = ("calls", "name_calls", "cross_calls", "result_counts", "bounds_validations")
    return {k: summary[k] for k in keys}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    host = host_facts()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT_DIR)
    try:
        def rebuild():
            return build(workloads, args.workload, args.seed, workdir)

        ops, first_setup = rebuild()
        run = Run(ops)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "ops_per_pass": len(ops),
            "op_kinds": _kind_counts(ops),
        }
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            setup_summary = traced_setup(workloads, tracing, args.workload, args.seed, workdir)
            plain, traced, traced_raw, summaries = measure_traced(
                run, args.seconds, tracing, stem + "-spans.tsv")
            metrics, repeat = layer_metrics(summaries, setup_summary, plain, traced, traced_raw)
            record.update(
                passes_traced=len(summaries),
                wall_s_untraced_scaled=[sum(p) for p in zip(*plain)],
                wall_s_traced_scaled=[sum(p) for p in zip(*traced)],
                wall_s_traced_raw=traced_raw,
                counters_repeat=repeat,
                layer_summaries=summaries,
            )
        else:
            walls, setups, raw, per_op, rss_mb = measure_untraced(run, rebuild, first_setup, args.seconds)
            typical = sorted(statistics.median(ts) for ts in per_op)
            tail = percentile(typical, TAIL_PERCENTILE)
            metrics = {
                "wall_s": (sum(typical), "s"),
                "op_s_p50": (statistics.median(typical), "s"),
                "op_s_tail": (tail, "s"),
                "setup_s": (statistics.median(f for _, f in setups), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            record.update(
                passes=len(walls),
                wall_s_per_pass=walls,
                wall_s_median_pass=statistics.median(walls),
                wall_s_fastest_pass=min(walls),
                wall_s_raw_median=median_sum(raw),
                setup_s_each=setups,
                ops_timed=len(typical) * len(walls),
                op_s_by_op={f"{op.kind} {op.label}": ts for op, ts in zip(run.ops, per_op)},
                op_s_raw_by_op={f"{op.kind} {op.label}": ts for op, ts in zip(run.ops, raw)},
                tail_percentile=TAIL_PERCENTILE,
                ops_beyond_tail=sum(1 for t in typical if t > tail),
            )
            repeat = True
        run.check_outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = run.failed / run.attempted
    correct = run.failed == 0 and repeat
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        error_rate=error_rate,
        failures=run.failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} ops/pass={len(ops)} "
          f"nproc={host['nproc']} python={host['python']} load={host['loadavg_at_start']}")
    if args.trace:
        print(f"passes: 1 warm-up, then {record['passes_traced']} twin passes (each op "
              f"untraced, then traced); counters repeat: {repeat}")
    else:
        print(f"passes={record['passes']} ops timed={record['ops_timed']}; wall_s, p50 and "
              f"p{TAIL_PERCENTILE} are the sum, median and p{TAIL_PERCENTILE} of the {len(ops)} scaled "
              f"ops' median times, {record['ops_beyond_tail']} ops beyond the tail; raw: median pass "
              f"{record['wall_s_median_pass']!r} s, sum of medians {record['wall_s_raw_median']!r} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value!r} {unit}")
    print(f"  {'error_rate':34s} {error_rate!r} ({run.failed}/{run.attempted})")
    for f in run.failures:
        print(f"  FAIL {f}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


def _kind_counts(ops):
    out = {}
    for op in ops:
        out[op.kind] = out.get(op.kind, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main())
