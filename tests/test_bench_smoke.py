"""Tier-1 checks of the ``bench-smoke`` CI gate.

The real CLI entry point runs once per session (the ``bench_smoke_run``
fixture in ``conftest.py``) with thresholds low enough for the 1-CPU CI
container.  These tests assert against that run that (a) the gates pass
and the perf document is written to the ``--output`` path, (b) a gate
failure really exits non-zero -- by re-gating the same report through the
real CLI with an unreachable threshold, so a perf regression in the
burst-train fast path fails the tier-1 flow rather than only the
(optional) benchmark suite -- and (c) the perf documents, including the
BENCH_* trajectory committed at the repo root, satisfy the report schema
so the in-repo history stays machine-readable.
"""

import copy
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.sim.bench import GATES, evaluate_gates

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _argv(out_path, **overrides):
    gates = {
        # Small drains keep this test a few hundred ms on the CI box; the
        # full-size 512 KiB gates run in the benchmark suite and in the CI
        # ``rome-repro bench-smoke`` invocation with its defaults.
        "--bytes": "65536",
        "--conventional-bytes": "131072",
        "--repeats": "1",
        # Wall-clock gates are kept permissive (shared CI box); the
        # evaluation-reduction gates are structural and deterministic, so
        # they stay meaningful even here.
        "--min-speedup": "2",
        "--min-conventional-speedup": "0.5",
        "--min-evaluation-reduction": "5",
        "--min-refresh-evaluation-reduction": "5",
        # Snapshot+restore of a small drain is wall-clock noisy on a
        # shared box; the identity half of the checkpoint gate is
        # structural and always enforced.
        "--max-checkpoint-overhead": "100",
        # Same reasoning for the obs overhead ceiling: the bit-identity
        # and byte-determinism halves of the observability gate stay on.
        "--max-obs-overhead": "100",
    }
    gates.update(overrides)
    argv = ["--json", "bench-smoke", "--output", str(out_path)]
    for flag, value in gates.items():
        argv += [flag, value]
    return argv


def _assert_report_schema(report):
    """The perf-document schema the in-repo trajectory must satisfy.

    Schema 2 documents (pre-workload) stay valid; schema 3 additionally
    requires the ``workload`` rows (the serving-workload gate); schema 4
    additionally requires the ``checkpoint`` rows (the snapshot+restore
    round-trip gate); schema 5 additionally requires the
    ``max_sustainable_rate`` rows (the closed-loop goodput gate);
    schema 6 additionally requires the ``reliability`` rows (the
    device-fault zero-rate-identity and campaign-determinism gates);
    schema 7 additionally requires the ``fleet`` rows (the zero-fault
    fleet-identity and failover-campaign-determinism gates); schema 8
    additionally requires the ``observability`` rows (the obs-off
    bit-identity, obs-on byte-determinism, and recording-overhead
    gates).
    """
    assert isinstance(report["gates_passed"], bool)
    meta = report["meta"]
    assert meta["schema"] >= 2
    assert isinstance(meta["generated_utc"], str) and meta["generated_utc"]
    assert isinstance(meta["package_version"], str)
    assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
    assert meta["label"] is None or isinstance(meta["label"], str)
    for knob in ("bytes", "conventional_bytes", "repeats", "workers"):
        assert isinstance(meta["parameters"][knob], int)
    assert {row["system"] for row in report["core"]} == {"rome", "hbm4"}
    for key, scenario in (
        ("streaming_conventional", "streaming_conventional"),
        ("streaming_conventional_refresh", "streaming_conventional_refresh"),
        ("rome_refresh", "rome_refresh"),
    ):
        row = report[key]
        assert row["scenario"] == scenario
        assert row["tick_evaluations"] >= row["event_evaluations"] > 0
        assert row["evaluation_reduction"] > 0
    assert report["streaming_conventional_refresh"]["refreshes"] > 0
    if meta["schema"] >= 3:
        workload = report["workload"]
        assert {row["system"] for row in workload} == {"rome", "hbm4"}
        for row in workload:
            assert row["scenario"] == "workload_decode_serving"
            assert row["tick_evaluations"] >= row["event_evaluations"] > 0
            assert 0.0 < row["bandwidth_fraction"] <= 1.0
            assert isinstance(row["saturated"], bool)
    if meta["schema"] >= 4:
        checkpoint = report["checkpoint"]
        assert {row["system"] for row in checkpoint} == {"rome", "hbm4"}
        for row in checkpoint:
            assert row["scenario"] == "checkpoint"
            assert row["identical"] is True
            assert row["snapshot_bytes"] > 0
            assert row["snapshot_ms"] >= 0 and row["restore_ms"] >= 0
            assert row["overhead_fraction"] >= 0
            assert row["refreshes"] > 0
            assert row["simulated_ns"] > 0
    if meta["schema"] >= 5:
        rate_rows = report["max_sustainable_rate"]
        assert {row["system"] for row in rate_rows} == {"rome", "hbm4"}
        for row in rate_rows:
            assert row["scenario"] == "max_sustainable_rate"
            assert row["max_rate_per_s"] > 0
            assert 0.0 < row["goodput_fraction"] <= 1.0
            assert row["probes"] >= 1
            assert 0.0 < row["threshold"] <= 1.0
    if meta["schema"] >= 6:
        reliability = report["reliability"]
        assert {row["system"] for row in reliability} == {"rome", "hbm4"}
        for row in reliability:
            assert row["scenario"] == "reliability"
            assert row["zero_rate_identical"] is True
            assert row["campaign_identical"] is True
            assert row["reads_checked"] > 0
            assert row["corrected"] > 0
            assert row["due"] > 0
            assert row["retries"] > 0
            assert row["scrub_passes"] > 0
            assert 0.0 <= row["sdc_rate"] <= 1.0
    if meta["schema"] >= 7:
        fleet = report["fleet"]
        scenarios = {row["scenario"] for row in fleet}
        assert {"fleet-zero-fault", "fleet-failover"} <= scenarios
        for row in fleet:
            assert row["replicas"] >= 1
            assert row["requests"] > 0
            assert 0.0 < row["availability"] <= 1.0
            assert row["goodput_per_s"] >= 0.0
            if row["scenario"] == "fleet-zero-fault":
                assert row["zero_fault_identical"] is True
                assert row["availability"] == 1.0
            if row["scenario"] == "fleet-failover":
                assert row["campaign_identical"] is True
                assert row["rerouted"] > 0
                assert row["hedged"] > 0
                assert row["availability"] < 1.0
    if meta["schema"] >= 8:
        observability = report["observability"]
        assert {row["target"] for row in observability} \
            == {"rome", "hbm4", "fleet"}
        for row in observability:
            assert row["obs_off_identical"] is True
            assert row["obs_on_deterministic"] is True
            assert row["trace_events"] > 0
            assert row["metric_series"] > 0
            assert row["overhead_x"] > 0.0
    assert {row["phase"] for row in report["sweep"]} == {"cold", "warm"}
    assert report["cache"]["cold_ms"] > 0


@pytest.fixture
def regated(monkeypatch, bench_smoke_run):
    """Make ``bench-smoke`` return the session's measured sections instead
    of measuring again, so a test can drive the real CLI's gate step."""
    sections = {key: value for key, value in bench_smoke_run.report.items()
                if key != "meta"}

    def measure_report(total_bytes, conventional_bytes, repeats, workers):
        return copy.deepcopy(sections)

    monkeypatch.setattr("repro.sim.bench.measure_report", measure_report)


def test_bench_smoke_gates_pass_and_write_perf_document(bench_smoke_run):
    assert bench_smoke_run.exit_code == 0
    assert "FAIL" not in bench_smoke_run.stderr
    report = bench_smoke_run.document
    assert report["gates_passed"] is True
    _assert_report_schema(report)
    assert report["meta"]["schema"] == 8
    streaming = report["streaming_conventional"]
    assert streaming["evaluation_reduction"] >= 5.0
    assert streaming["tick_evaluations"] == streaming["simulated_ns"]
    # Refresh-enabled saturated streaming stays >= 5x fewer evaluations
    # than the 1-ns tick core.
    refresh = report["streaming_conventional_refresh"]
    assert refresh["evaluation_reduction"] >= 5.0
    assert refresh["tick_evaluations"] == refresh["simulated_ns"]
    # The serving-workload gate: the saturating open-loop decode scenario
    # must deliver at least half of peak bandwidth on both controllers.
    for row in report["workload"]:
        assert row["saturated"] is True
        assert row["bandwidth_fraction"] >= 0.5


def test_bench_smoke_workload_gate_fails_when_unreachable(regated, capsys,
                                                          tmp_path):
    out = tmp_path / "BENCH_workload_fail.json"
    assert main(_argv(out, **{"--min-workload-bandwidth-fraction": "1.0"})) \
        == 1
    captured = capsys.readouterr()
    assert "decode-serving workload" in captured.err
    assert json.loads(out.read_text())["gates_passed"] is False


def test_bench_smoke_goodput_gate_fails_when_unreachable(regated, capsys,
                                                         tmp_path):
    out = tmp_path / "BENCH_goodput_fail.json"
    assert main(_argv(out, **{"--min-goodput-fraction": "2"})) == 1
    captured = capsys.readouterr()
    assert "max-sustainable-rate" in captured.err
    assert json.loads(out.read_text())["gates_passed"] is False


def test_bench_smoke_label_is_stamped_into_metadata(regated, capsys,
                                                    tmp_path):
    out = tmp_path / "BENCH_label.json"
    assert main(_argv(out, **{"--label": "tier1@abc1234"})) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["meta"]["label"] == "tier1@abc1234"


def test_bench_smoke_exits_nonzero_on_gate_failure(regated, capsys,
                                                   tmp_path):
    out = tmp_path / "BENCH_fail.json"
    assert main(_argv(out, **{"--min-refresh-evaluation-reduction": "1e9"})) \
        == 1
    captured = capsys.readouterr()
    assert "refresh" in captured.err
    assert json.loads(out.read_text())["gates_passed"] is False


def test_every_tunable_gate_fails_alone_and_zero_disables_it(
        bench_smoke_run):
    """Each threshold flag gates its own rows: an unreachable value fails
    exactly that gate (naming its flag), and ``0`` switches it off."""
    report = bench_smoke_run.document
    argv = _argv("unused")
    passing = {gate.name: (float(argv[argv.index(gate.flag) + 1])
                           if gate.flag in argv else gate.default)
               for gate in GATES if gate.flag}
    assert evaluate_gates(report, passing) == []
    for gate in GATES:
        if not gate.flag:
            continue
        unreachable = 1e-9 if gate.name.startswith("max_") else 1e9
        failures = evaluate_gates(report, {**passing, gate.name: unreachable})
        assert failures and all(gate.flag in failure for failure in failures)
        assert evaluate_gates(report, {**passing, gate.name: 0.0}) == []


def test_committed_bench_document_passes_the_default_gates():
    """The committed schema-8 document was measured with the default
    parameters and passed; the gate table must still pass it at the
    default thresholds."""
    document = json.loads((REPO_ROOT / "BENCH_20260807.json").read_text())
    assert document["meta"]["schema"] == 8
    assert document["gates_passed"] is True
    assert document["meta"]["parameters"] == {
        "bytes": 128 * 1024, "conventional_bytes": 512 * 1024,
        "repeats": 2, "workers": 1}
    defaults = {gate.name: gate.default for gate in GATES if gate.flag}
    assert evaluate_gates(document, defaults) == []


def test_readme_gate_table_lists_every_gate_flag_and_default():
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme[readme.index("| Gate | Flag | Default |"):]
    table = table[:table.index("\n\n")]
    defaults = {
        match.group(1): float(match.group(2))
        for match in re.finditer(r"\| `(--[a-z-]+)` \| ([0-9.]+)", table)
    }
    assert defaults == {gate.flag: gate.default for gate in GATES
                        if gate.flag}
    # Every always-on gate has a row too (Flag column "—").
    assert table.count("| — |") == sum(1 for gate in GATES
                                       if not gate.flag)


def test_committed_bench_trajectory_matches_schema():
    """Every BENCH_<date>.json committed at the repo root must stay
    machine-readable under the report schema."""
    documents = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert documents, "no committed BENCH_<date>.json trajectory found"
    for document in documents:
        _assert_report_schema(json.loads(document.read_text()))
