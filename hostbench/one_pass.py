"""Run one benchmark pass in this (fresh) interpreter and print its record.

    python3 hostbench/one_pass.py WORKLOAD SEED [--traced] [--check]

The environment variable ``HOSTBENCH_SPAWNED_NS`` holds the parent's
``time.monotonic_ns()`` just before it started this interpreter (the clock
is system-wide), so ``setup_s`` spans interpreter start, imports and input
generation up to the first call into the workload.  The pass itself is
timed with tracing off unless ``--traced``; ``--check`` adds the
workload's untimed cross-check after the pass.  The record is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402  (needs the path above)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _layer_counters(tracer, outcome) -> dict:
    """Deterministic counters read from the stats of the objects the pass
    used, and from its result."""
    from repro.trace_cache import trace_cache_stats

    mc = tracer.owners("controller.mc.advance_to",
                       "controller.mc.run_until_idle")
    rome = tracer.owners("core.controller.advance_to",
                         "core.controller.run_until_idle")
    ras = tracer.owners("reliability.ras.on_read", "reliability.ras.run_scrub")
    counters = {
        "controller.mc.evaluations": sum(c.stats.evaluations for c in mc),
        "controller.mc.refreshes_issued": sum(c.stats.refreshes_issued
                                              for c in mc),
        "core.controller.evaluations": sum(c.stats.evaluations for c in rome),
        "controller.scheduler.decided_frac": tracer.useful_fraction(
            "controller.scheduler.pick_column",
            "controller.scheduler.pick_row",
            "controller.scheduler.pick_refresh"),
        "controller.scheduler.planned_frac": tracer.useful_fraction(
            "controller.scheduler.plan_train"),
        "dram.channel.can_issue.ok_frac": tracer.useful_fraction(
            "dram.channel.can_issue"),
        "sim.checkpoint.payload_mb": tracer.payload_bytes(
            "sim.checkpoint.make_checkpoint") / 2 ** 20,
        "fleet.router.rerouted": 0,
        "fleet.router.hedged": 0,
        "fleet.router.shed": 0,
        "fleet.router.failed": 0,
    }
    for name in ("corrected", "detected_uncorrectable", "retries_scheduled"):
        counters[f"reliability.ras.{name}"] = sum(
            getattr(engine.stats, name) for engine in ras)
    counters.update(outcome.get("counters", {}))
    cache = trace_cache_stats()
    counters["trace_cache.hits"] = cache.hits
    counters["trace_cache.misses"] = cache.misses
    return counters


def main(argv: list) -> int:
    spawned_ns = int(os.environ["HOSTBENCH_SPAWNED_NS"])
    workload, seed = argv[0], int(argv[1])
    traced, check = "--traced" in argv[2:], "--check" in argv[2:]
    case = cases.CASES[workload]
    inputs = case.setup(seed)
    tracer = None
    if traced:
        from tracer import LayerTracer

        tracer = LayerTracer()
    with tracer or contextlib.nullcontext():
        setup_s = (time.monotonic_ns() - spawned_ns) / 1e9
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        result = case.run(inputs)
        wall_s, cpu_s = time.perf_counter() - wall0, _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = case.outcome(inputs, result)
    record = {
        "digest": outcome["digest"],
        "sim": dict(outcome["sim"]),
        "violations": list(outcome["violations"]),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "checked": check,
    }
    if check and case.check is not None:
        extra = case.check(inputs, result)
        record["sim"].update(extra.get("sim", {}))
        record["violations"] += extra["violations"]
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(wall_s)
        record["layers"].update(_layer_counters(tracer, outcome))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
