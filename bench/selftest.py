"""Self-test of the benchmark harness at tiny sizes.

For every workload: an untraced pass and two traced passes from fresh
set-ups must give the same ops and gate results, every op must pass its
gates, every per-layer metric the workload is predicted to drive must be
nonzero, and the counted quantities must repeat exactly.  Also checks
that the seed-7 rate config is the one `funcrelu verify` runs and that
uninstalling the tracer restores every wrapped binding.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import sys

import spans
import workloads


def _traced_pass(cls):
    tracer = spans.Tracer()
    targets = spans.targets()
    tracer.install(targets)
    try:
        state = cls(7, tiny=True)
        state.mark = lambda key: setattr(tracer, "op", key)
        result = state.run_pass()
        state.gate(result)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate(0, len(tracer.spans))
    agg.update(result.counts)
    agg.update(spans.derive(agg))
    return result, agg


def _gates(result):
    return [(op.key, op.ok, op.why) for op in result.ops]


def _counts(agg):
    return {k: v for k, v in agg.items() if not k.endswith((".s", "_s", "ratio", "active_macs"))}


def check_workload(name) -> list:
    cls = workloads.WORKLOADS[name]
    failures = []
    plain = cls(7, tiny=True)
    result = plain.run_pass()
    plain.gate(result)
    traced_a, agg_a = _traced_pass(cls)
    traced_b, agg_b = _traced_pass(cls)
    if not result.ops:
        failures.append("no ops")
    if _gates(result) != _gates(traced_a) or _gates(traced_a) != _gates(traced_b):
        failures.append("traced and untraced passes differ in ops or gate results")
    failures += [f"op {k} failed: {why}" for k, ok, why in _gates(result) if not ok]
    failures += [f"predicted metric {m} is zero" for m in workloads.USES[name]
                 if not agg_a.get(m)]
    if _counts(agg_a) != _counts(agg_b):
        diff = sorted(k for k in set(_counts(agg_a)) | set(_counts(agg_b))
                      if agg_a.get(k) != agg_b.get(k))
        failures.append(f"counts differ between traced runs: {diff}")
    return failures


def check_uninstall() -> list:
    targets = spans.targets()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    tracer = spans.Tracer()
    tracer.install(targets)
    wrapped = [attr for owner, attr, fn in before if getattr(owner, attr) is fn]
    tracer.uninstall()
    restored = [attr for owner, attr, fn in before if getattr(owner, attr) is not fn]
    return ([f"{a} not wrapped" for a in wrapped]
            + [f"{a} not restored" for a in restored])


def main() -> int:
    results = {"uninstall": check_uninstall(),
               "verify config": [f"differs on {f}" for f in workloads.verify_config_mismatches()]}
    for name in workloads.WORKLOADS:
        results[name] = check_workload(name)
    for name, failures in results.items():
        print(f"[{'FAIL' if failures else 'PASS'}] {name}")
        for f in failures:
            print(f"    {f}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
