"""The benchmark's workloads: inputs from a seed, one timed pass, and the
checks on its simulated outcome.

Every input is built through the public API of ``repro.workloads``,
``repro.controller``, ``repro.fleet`` and ``repro.reliability``; nothing
goes through ``repro.sim.bench`` or the CLI.  Each workload is a
:class:`Case`:

* ``setup(seed)`` builds the inputs (counted in ``setup_s``);
* ``run(inputs)`` is the timed pass;
* ``outcome(inputs, result)`` returns the outcome digest, the simulated
  metrics, the pass's counters and any violated invariant;
* the optional ``check(inputs, result)`` is the untimed cross-check a run
  makes on its first successful pass.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

#: Name under which the serving workloads' arrival plan is registered.
SERVING_PLAN = "hostbench-decode"

#: Upper bound of the seeded per-arrival jitter, in ns.  The serving
#: workloads replay one fixed Poisson schedule (seed 0) and ``--seed``
#: only shifts each arrival by 0..15 ns: a max-rate bisection over eight
#: requests is discontinuous in its arrival set, so drawing a fresh
#: Poisson schedule per seed moved the found rate over 1.36-5 M req/s and
#: the pass time over 4-14 s, which no regression bound can hold.
JITTER_NS = 16


def _jittered_plan(spec: Any) -> Any:
    from repro.workloads import PoissonArrivals, ServingPlan

    base = PoissonArrivals(spec.rate_per_s, seed=0).times_ns(
        spec.num_requests)
    rng = random.Random(spec.seed)
    times = sorted(t + rng.randrange(JITTER_NS) for t in base)
    return ServingPlan(arrival_times_ns=tuple(times),
                       serving=spec.serving_config())


def _register_serving_plan() -> None:
    from repro.workloads.scenarios import SERVING_PLANS, serving_plan_builder

    if SERVING_PLAN not in SERVING_PLANS:
        serving_plan_builder(SERVING_PLAN)(_jittered_plan)


# ---------------------------------------------------------------- helpers


def canonical(value: Any) -> Any:
    """A plain, ordered value covering every *compared* dataclass field,
    so the digest follows the repository's own equality semantics (cost
    counters such as wall time and evaluations are ``compare=False``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, canonical(getattr(value, field.name)))
            for field in dataclasses.fields(value) if field.compare)
    if isinstance(value, dict):
        return tuple(sorted((repr(key), canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value: Any) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def bw_util(bandwidth: Any) -> float:
    """Bytes moved over peak bandwidth times span, *not* clamped to 1 (the
    clamp in ``BandwidthResult.utilization`` would hide a violation)."""
    return bandwidth.bytes_transferred / (bandwidth.peak_bytes_per_ns
                                          * bandwidth.elapsed_ns)


def nearest_rank(values: List[int], fraction: float) -> int:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


@dataclass(frozen=True)
class Case:
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    outcome: Callable[[Any, Any], Dict[str, Any]]
    check: Optional[Callable[[Any, Any], Dict[str, Any]]] = None


def _violations(**conditions: bool) -> List[str]:
    return [name for name, holds in conditions.items() if not holds]


# ------------------------------------------------------------ maxrate-hbm4


#: Bisection bracket (req/s) and probe budget of the rate search.  Four
#: probes, not the eight of the bench-smoke search, keep a pass near 5 s,
#: so a run averages the host's drift over enough passes.
MAXRATE_BRACKET = (50_000.0, 5_000_000.0)
MAXRATE_PROBES = 4


def _maxrate_setup(seed: int) -> Any:
    from repro.workloads import ScenarioSpec, ServingConfig, SLOSpec

    _register_serving_plan()
    # The bench-smoke rate-search values: grok-1 decode, 8 requests,
    # batch 2, traffic scale 2^-26, TTFT SLO 2 us, TPOT SLO 1 us.
    serving = ServingConfig(model_name="grok-1", batch_capacity=2,
                            prompt_tokens=128, output_tokens=2,
                            iteration_interval_ns=512,
                            traffic_scale=2.0 ** -26)
    return ScenarioSpec(scenario=SERVING_PLAN, system="hbm4",
                        rate_per_s=200_000.0, num_requests=8, seed=seed,
                        serving=serving, closed_loop=True,
                        slo=SLOSpec(ttft_ms=0.002, tpot_ms=0.001))


def _maxrate_run(spec: Any) -> Any:
    from repro.workloads import find_max_sustainable_rate

    return find_max_sustainable_rate(spec, *MAXRATE_BRACKET,
                                     probes=MAXRATE_PROBES)


def _best_probe(search: Any) -> Any:
    return max((probe for probe in search.probes if probe.sustainable),
               key=lambda probe: probe.rate_per_s, default=None)


def _maxrate_outcome(spec: Any, search: Any) -> Dict[str, Any]:
    best = _best_probe(search)
    return {
        "digest": digest(search),
        "sim": {"sim_goodput_per_s": best.goodput_per_s if best else 0.0},
        "violations": _violations(
            rate_found=best is not None
            and best.rate_per_s == search.max_rate_per_s,
            goodput_at_most_offered=all(
                probe.goodput_fraction <= 1.0 for probe in search.probes),
        ),
    }


def _maxrate_check(spec: Any, search: Any) -> Dict[str, Any]:
    """Re-run the found rate standalone: it must reproduce its goodput."""
    from repro.workloads import run_workload

    best = _best_probe(search)
    if best is None:
        return {"violations": ["rate_found"]}
    result = run_workload(replace(spec, rate_per_s=best.rate_per_s))
    util = bw_util(result.bandwidth)
    return {
        "sim": {"sim_p99_latency_ns": float(result.ttft.p99),
                "sim_bw_util": util},
        "violations": _violations(
            standalone_reproduces_goodput=(
                result.goodput_per_s == best.goodput_per_s),
            requests_accounted=(
                result.requests == spec.num_requests
                and result.ttft.count + result.rejected == result.requests),
            goodput_at_most_offered=(
                result.goodput_per_s <= result.offered_rate_per_s),
            bw_util_at_most_1=util <= 1.0,
        ),
    }


# ---------------------------------------------------------- stream-rw-hbm4

STREAM_BYTES = 1024 * 1024
STREAM_REQUEST_BYTES = 4096
STREAM_WRITE_FRACTION = 0.25
#: Requests the tick-vs-event cross-check drains (64 KiB).
STREAM_PREFIX = 16


def _stream_trace(seed: int) -> List[Any]:
    from repro.sim.traces import mixed_trace

    return mixed_trace(STREAM_BYTES, STREAM_REQUEST_BYTES,
                       write_fraction=STREAM_WRITE_FRACTION, seed=seed)


def _stream_controller() -> Any:
    from repro.controller import ControllerConfig, ConventionalMemoryController

    return ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True))


def _drain(requests: List[Any], event_driven: bool = True) -> Any:
    controller = _stream_controller()
    for request in requests:
        controller.enqueue(request)
    controller.run_until_idle(event_driven=event_driven)
    return controller


def _stream_setup(seed: int) -> Any:
    return seed, _stream_trace(seed)


def _stream_run(inputs: Any) -> Any:
    return _drain(inputs[1])


def _stream_outcome(inputs: Any, controller: Any) -> Dict[str, Any]:
    requests = inputs[1]
    end_ns = controller.now
    stats = controller.stats
    completions = [request.completion_ns for request in requests]
    done = [ns for ns in completions if ns is not None]
    requested = sum(request.size_bytes for request in requests)
    moved = stats.bytes_read + stats.bytes_written
    peak = controller.channel.config.peak_bandwidth_bytes_per_ns
    util = moved / (peak * end_ns)
    return {
        "digest": digest((end_ns, stats, controller.channel.command_counts(),
                          completions)),
        "sim": {
            "sim_goodput_per_s": len(done) / (end_ns / 1e9),
            "sim_p99_latency_ns": float(nearest_rank(
                [ns - request.arrival_ns
                 for ns, request in zip(completions, requests)], 0.99)),
            "sim_bw_util": util,
        },
        "violations": _violations(
            requests_accounted=len(done) == len(requests),
            bytes_moved_equal_requested=moved == requested,
            bw_util_at_most_1=util <= 1.0,
        ),
    }


def _stream_check(inputs: Any, controller: Any) -> Dict[str, Any]:
    """Tick core and event core agree on a short prefix of the drain."""
    seed = inputs[0]
    tick = _drain(_stream_trace(seed)[:STREAM_PREFIX], event_driven=False)
    event = _drain(_stream_trace(seed)[:STREAM_PREFIX])
    return {"violations": _violations(
        tick_equals_event=(
            tick.now == event.now and tick.stats == event.stats
            and tick.channel.command_counts()
            == event.channel.command_counts()),
    )}


# ---------------------------------------------------------- fleet-ras-rome

#: About 4 s a pass, for the same reason as :data:`MAXRATE_PROBES`.
FLEET_REQUESTS = 2000


def _fleet_setup(seed: int) -> Any:
    from repro.fleet import FleetSpec, ReplicaFaultConfig, RouterPolicy
    from repro.reliability import ReliabilityConfig
    from repro.workloads import ScenarioSpec, SLOSpec

    _register_serving_plan()
    base = ScenarioSpec(scenario=SERVING_PLAN, system="rome",
                        rate_per_s=400_000.0, num_requests=FLEET_REQUESTS,
                        seed=seed, closed_loop=True, slo=SLOSpec())
    # The failover fault process and router policy of the fleet campaign
    # in the bench-smoke suite; degraded replicas serve under its RoMe
    # device-fault campaign, so the whole RAS ladder runs.
    return FleetSpec(
        base=base,
        num_replicas=3,
        faults=ReplicaFaultConfig(seed=0, window_ns=2_000, due_rate=0.8,
                                  due_threshold=2, hard_failure_rate=0.02,
                                  degraded_escalation=8.0,
                                  recovery_ns=12_000),
        router=RouterPolicy(health_check_interval_ns=4_000,
                            request_timeout_ns=6_000, max_retries=2,
                            retry_backoff_ns=1_000, hedge_delay_ns=1_000),
        degraded_reliability=ReliabilityConfig(
            seed=11, transient_ber=2e-5, retention_ber=4e-6,
            hard_row_rate=0.05, scrub_interval_ns=1_000),
    )


def _fleet_run(spec: Any) -> Any:
    from repro.fleet import run_fleet

    return run_fleet(spec, workers=1)


def _fleet_outcome(spec: Any, fleet: Any) -> Dict[str, Any]:
    util = bw_util(fleet.bandwidth)
    counters = fleet.counters
    return {
        "digest": digest(fleet),
        "sim": {"sim_goodput_per_s": fleet.goodput_per_s,
                "sim_p99_latency_ns": float(fleet.ttft.p99),
                "sim_bw_util": util},
        "counters": {
            "fleet.router.rerouted": counters.rerouted,
            "fleet.router.hedged": counters.hedged,
            "fleet.router.shed": counters.shed,
            "fleet.router.failed": counters.failed,
        },
        "violations": _violations(
            requests_accounted=(
                fleet.requests == spec.base.num_requests
                and fleet.served + fleet.shed + fleet.failed
                == fleet.requests),
            goodput_at_most_offered=(
                fleet.goodput_per_s <= fleet.offered_rate_per_s),
            bw_util_at_most_1=util <= 1.0,
        ),
    }


CASES: Dict[str, Case] = {
    "maxrate-hbm4": Case(_maxrate_setup, _maxrate_run, _maxrate_outcome,
                         _maxrate_check),
    "stream-rw-hbm4": Case(_stream_setup, _stream_run, _stream_outcome,
                           _stream_check),
    "fleet-ras-rome": Case(_fleet_setup, _fleet_run, _fleet_outcome),
}
