"""Self-tests of the benchmark harness.

    python3 -m pytest hostbench/tests -q

They cover the tracer's binding restore and nested self time, the
failure accounting of crashed, timed-out, violating and perturbed passes,
how a run's passes are summarized, and that ``--seed`` changes the inputs but not the metric names.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cases  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, LayerTracer  # noqa: E402

BENCHMARK = run.BENCHMARK


def _bindings():
    """Identity of every attribute of every loaded ``repro`` module and of
    every class a target lives on."""
    for target in TARGETS:
        importlib.import_module("repro." + target.split(":")[0])
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in vars(module).items():
            snapshot[(name, attribute)] = id(value)
            if isinstance(value, type):
                for member, item in vars(value).items():
                    snapshot[(name, attribute, member)] = id(item)
    return snapshot


def test_tracer_replaces_and_restores_every_binding():
    from repro.controller.scheduler import FrFcfsScheduler
    from repro.workloads import driver

    before = _bindings()
    pick_column, rate_sweep = FrFcfsScheduler.pick_column, driver.rate_sweep
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert FrFcfsScheduler.pick_column is not pick_column
            assert driver.rate_sweep is not rate_sweep
            import repro.workloads

            assert repro.workloads.rate_sweep is driver.rate_sweep
            raise RuntimeError("restore must survive an exception")
    assert _bindings() == before


def _fake_package(monkeypatch):
    """A two-function package where ``outer`` calls ``inner``."""
    package = types.ModuleType("hbfake")
    package.__path__ = []
    layer = types.ModuleType("hbfake.layer")

    def inner():
        time.sleep(0.06)

    def outer():
        time.sleep(0.03)
        layer.inner()

    layer.inner, layer.outer = inner, outer
    monkeypatch.setitem(sys.modules, "hbfake", package)
    monkeypatch.setitem(sys.modules, "hbfake.layer", layer)
    return layer


def test_nested_self_time_is_counted_once(monkeypatch):
    layer = _fake_package(monkeypatch)
    tracer = LayerTracer(("layer:outer", "layer:inner"), package="hbfake")
    with tracer:
        start = time.perf_counter()
        layer.outer()
        wall = time.perf_counter() - start
    metrics = tracer.layer_metrics(wall)
    assert metrics["layer.outer.calls"] == metrics["layer.inner.calls"] == 1
    assert 0.06 <= metrics["layer.inner.self_s"] < 0.09
    # Counted twice, outer's self time would include inner's 60 ms.
    assert 0.03 <= metrics["layer.outer.self_s"] < 0.06
    assert 0.97 < metrics["traced.coverage"] <= 1.0
    assert layer.outer.__name__ == "outer" and not hasattr(layer.outer,
                                                           "__wrapped__")


def _record(digest="a", violations=()):
    return run.PassResult({"digest": digest, "violations": list(violations)})


def test_perturbed_digest_and_violations_count_as_failed():
    passes = [_record(), _record(), _record("b"), _record(violations=["x"])]
    reasons = run.failures(passes)
    assert reasons[:2] == ["", ""]
    assert reasons[2] == "outcome digest differs"
    assert reasons[3] == "violated x"
    # A digest remembered from an earlier run of the same source wins.
    assert all(run.failures(passes[:2], expected_digest="b"))


def test_crashed_and_timed_out_passes_count_as_failed():
    crashed = run.run_pass([sys.executable, "-c", "raise SystemExit(3)"],
                           timeout_s=30)
    started = time.monotonic()
    hung = run.run_pass([sys.executable, "-c",
                         "import time; time.sleep(60)"], timeout_s=1)
    assert time.monotonic() - started < 30
    assert crashed.record is None and crashed.error.startswith("exit 3")
    assert hung.record is None and hung.error.startswith("timed out")
    assert run.failures([_record(), crashed, hung]) == ["", crashed.error,
                                                       hung.error]


def test_end_to_end_times_are_means_and_the_rest_medians():
    def record(wall_s, setup_s):
        return run.PassResult({"wall_s": wall_s, "cpu_s": wall_s - 0.25,
                               "setup_s": setup_s, "peak_rss_mb": 30.0,
                               "sim": {}})

    passes = [record(3.0, 0.3), record(4.0, 0.5), record(8.0, 0.4)]
    metrics = run.summarize(passes, [""] * 3, trace=False)
    assert (metrics["wall_s"], metrics["cpu_s"]) == (5.0, 4.75)
    assert metrics["setup_s"] == 0.4
    # A failed pass takes no part.
    metrics = run.summarize(passes, ["", "", "crashed"], trace=False)
    assert metrics["wall_s"] == 3.5


def test_benchmark_json_names_the_workloads_of_the_harness():
    assert set(run.WORKLOADS) == set(cases.CASES)


@pytest.fixture
def small_cases(monkeypatch):
    """Shrink every workload so a pass takes a second or two."""
    monkeypatch.setattr(cases, "MAXRATE_PROBES", 2)
    monkeypatch.setattr(cases, "STREAM_BYTES", 64 * 1024)
    monkeypatch.setattr(cases, "FLEET_REQUESTS", 40)


def _pass(capsys, monkeypatch, workload, seed, *flags):
    monkeypatch.setenv("HOSTBENCH_SPAWNED_NS", str(time.monotonic_ns()))
    assert one_pass.main([workload, str(seed), *flags]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _inputs(workload, seed):
    from repro.workloads import serving_plan

    inputs = cases.CASES[workload].setup(seed)
    if workload == "stream-rw-hbm4":
        return [request.kind for request in inputs[1]]
    spec = getattr(inputs, "base", inputs)
    return serving_plan(spec).arrival_times_ns


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, small_cases,
                                              capsys, monkeypatch):
    assert _inputs(workload, 1) == _inputs(workload, 1)
    assert _inputs(workload, 1) != _inputs(workload, 2)
    names = []
    for seed in (1, 2):
        plain = _pass(capsys, monkeypatch, workload, seed, "--check")
        traced = _pass(capsys, monkeypatch, workload, seed, "--traced")
        assert plain["violations"] == traced["violations"] == []
        assert plain["digest"] == traced["digest"]
        good = [run.PassResult(plain), run.PassResult(traced)]
        end_to_end = run.summarize(good[:1], [""], trace=False)
        per_layer = run.summarize(good, ["", ""], trace=True)
        names.append((sorted(end_to_end), sorted(per_layer)))
    assert names[0] == names[1]
    assert names[0][0] == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert names[0][1] == sorted(m["name"] for m in BENCHMARK["per_layer"])
