"""funcrelu benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload rate_sweep --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from the repository root; the package is imported from ``src``.  One
process, one client, closed loop: each pass of ops starts when the last
one ended, and passes repeat until ``--seconds`` have gone by (a pass is
never cut, so a pass longer than that runs once).  ``wall_s`` is the median
pass after the first, or the only pass.  Every pass is checked by its
workload's correctness gates after it ends, outside its timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes, reports the per-layer metrics and the tracing
overhead (median traced pass minus median untraced pass), and writes the
spans to ``.bench_out/``.  The last line of standard output is one JSON
object; the exit code is 1 when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OUT_DIR = Path(".bench_out")

END_TO_END = {
    "wall_s": "s",  # median pass
    "setup_s": "s",  # median of SETUP_REPEATS fresh-interpreter set-ups
    "peak_rss_mb": "MB",
}
# A traced run starts no further pass that would end past this many seconds,
# so it stays well inside the benchmark's 180 s limit per run.
TRACED_RUN_LIMIT_S = 150.0

EXTRA_LAYER_METRICS = {
    "relu_net.forward.active_block_ratio": "ratio",
    "relu_net.net_bytes_max": "B",
    "pipeline.rate.points_done": "count",
    "pipeline.rate.points_skipped": "count",
    "bench.trace.overhead_s": "s",
    "bench.trace.wrapper_s": "s",
    "bench.trace.spans": "count",
}
# Counts derived from array sizes, not from timing; they repeat exactly.
COMPUTED = ("relu_net.forward.macs", "relu_net.forward.weight_bytes",
            "relu_net.forward.active_block_ratio", "relu_net.net_bytes_max")


def per_layer_units() -> dict:
    import spans

    units = {}
    for module, function, _, quantities in spans.LAYERS:
        layer = spans.layer_name(module, function)
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
        units[layer + ".self_s"] = "s"
        for q, unit in quantities.items():
            units[f"{layer}.{q}"] = unit
    units.update(EXTRA_LAYER_METRICS)
    return units


def _import_package():
    """Import funcrelu from this checkout's sources, never from elsewhere."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import funcrelu
    except ImportError as exc:
        sys.exit(f"bench: cannot import funcrelu from {src}: {exc}")
    if src not in Path(funcrelu.__file__).resolve().parents:
        sys.exit(f"bench: funcrelu was imported from {funcrelu.__file__}, not from {src}")


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from a fresh interpreter to a workload ready to run:
    interpreter start, package import and the workload's input set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_passes(state, seconds, on_pass=None):
    """Closed loop of passes until ``seconds`` are used; each pass is gated
    right after it ends.  ``on_pass(k)`` returns the tracer to use for pass
    k, or None for an untraced pass; with it, the loop runs at least three
    passes, so that a warm traced pass exists, unless that would go past
    TRACED_RUN_LIMIT_S."""
    passes = []
    start = time.perf_counter()
    k = 0
    while True:
        tracer = on_pass(k) if on_pass else None
        t0 = time.perf_counter()
        result = state.run_pass()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = "gate"
        state.gate(result)
        passes.append((wall, result, tracer))
        k += 1
        elapsed = time.perf_counter() - start
        if on_pass is None:
            if elapsed >= seconds:
                return passes
        elif (elapsed >= seconds and k >= 3) or elapsed + wall > TRACED_RUN_LIMIT_S:
            return passes


def steady(walls):
    """Pass times without the first pass, which pays one-time costs, unless
    it is the only one."""
    return walls[1:] or walls


def end_to_end(args, workloads) -> tuple:
    setup_times = measure_setup(args.workload, args.seed)
    state = workloads.WORKLOADS[args.workload](args.seed)
    passes = run_passes(state, args.seconds)
    metrics = {
        "wall_s": statistics.median(steady([w for w, _, _ in passes])),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Op latency is printed, not gated: on rate_sweep and grid_build the ops
    # differ in size by 1000x, and the tail moves most with host load.
    lat = np.array([op.seconds for _, r, _ in passes for op in r.ops]) * 1e3
    print(f"{args.workload}: {len(passes)} passes, setup samples "
          f"{['%.4f' % s for s in setup_times]} s; op latency over {lat.size} ops: "
          f"p50 {np.percentile(lat, 50):.4g} ms, p99 {np.percentile(lat, 99):.4g} ms, "
          f"{lat.size / sum(w for w, _, _ in passes):.4g} ops/s")
    return state, passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def _combine(parts) -> dict:
    out = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def traced(args, workloads) -> tuple:
    import spans

    targets = spans.targets()
    tracer = spans.Tracer()
    tracer.op = "setup"
    tracer.install(targets)
    try:
        state = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        tracer.uninstall()
    state.mark = lambda key: setattr(tracer, "op", key)
    # set-up spans add to the per-layer metrics once; pass spans by median
    setup_agg = tracer.aggregate(0, len(tracer.spans))
    ranges = []  # [first span, end span, wrapper seconds] per traced pass

    def close_traced_pass():
        if ranges and len(ranges[-1]) == 1:
            tracer.uninstall()
            ranges[-1] += [len(tracer.spans), tracer.wrapper_s]

    def on_pass(k):
        # passes alternate, traced first; a traced pass's range also holds
        # the spans of its gate
        close_traced_pass()
        if k % 2 == 1:
            return None
        tracer.install(targets)
        tracer.wrapper_s = 0.0
        ranges.append([len(tracer.spans)])
        return tracer

    try:
        passes = run_passes(state, args.seconds, on_pass)
    finally:
        close_traced_pass()

    traced_passes = [(w, r) for w, r, t in passes if t is not None]
    plain_walls = [w for w, r, t in passes if t is None]
    aggs = []
    for (lo, hi, wrapper), (_, result) in zip(ranges, traced_passes):
        agg = tracer.aggregate(lo, hi)
        agg.update(result.counts)
        agg["bench.trace.spans"] = hi - lo
        agg["bench.trace.wrapper_s"] = wrapper
        aggs.append(agg)
    failures = []
    keys = sorted(set().union(*aggs))
    median_agg = {}
    for key in keys:
        values = [a.get(key, 0) for a in aggs]
        if len(set(values)) == 1:
            median_agg[key] = values[0]
            continue
        if all(isinstance(v, int) for v in values):
            failures.append(f"count {key} differs between traced passes: {values}")
        median_agg[key] = statistics.median(steady(values))
    total = _combine([setup_agg, median_agg])

    units = per_layer_units()
    total.update(spans.derive(total))
    metrics = {name: (total.get(name, 0), unit) for name, unit in units.items()}
    traced_wall = statistics.median(steady([w for w, _ in traced_passes]))
    if plain_walls:
        plain_wall = statistics.median(plain_walls)
        metrics["bench.trace.overhead_s"] = (traced_wall - plain_wall, "s")
        print(f"{args.workload} traced: {len(traced_passes)} traced and {len(plain_walls)} "
              f"untraced passes; traced wall {traced_wall:.4f} s, untraced {plain_wall:.4f} s")
    else:
        print(f"{args.workload} traced: one traced pass of {traced_wall:.4f} s left no time "
              f"for an untraced one; bench.trace.overhead_s is not measured and reads 0")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(out, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": [rec[:5] for rec in tracer.spans],
            "largest_net_layers": tracer.largest[1] if tracer.largest else [],
            "computed": list(COMPUTED),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, fh)
    print(f"spans written to {out}")
    return state, passes, metrics, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at a tiny size and check the harness")
    args = ap.parse_args(argv)
    _import_package()
    import workloads

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0

    failures = []
    if args.trace:
        state, passes, metrics, failures = traced(args, workloads)
    else:
        state, passes, metrics = end_to_end(args, workloads)
    ops = [op for _, r, _ in passes for op in r.ops]
    bad = [op for op in ops if not op.ok]
    for op in bad[:20]:
        print(f"FAILED op {op.key}: {op.why}")
    failures += state.run_checks(passes[0][1])
    for f in failures:
        print(f"FAILED check: {f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (" (computed)" if name in COMPUTED else ""))
    correct = not bad and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
