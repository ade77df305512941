"""Shared fixtures for the RoMe reproduction test suite."""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from types import SimpleNamespace

import pytest

from repro.controller.mc import ControllerConfig
from repro.core.controller import RoMeControllerConfig
from repro.core.virtual_bank import paper_vba_config
from repro.dram.timing import TimingParameters


@pytest.fixture
def timing() -> TimingParameters:
    """The paper's HBM4 timing parameters."""
    return TimingParameters()


@pytest.fixture
def small_controller_config(timing: TimingParameters) -> ControllerConfig:
    """A single-SID conventional controller (small, fast to simulate)."""
    return ControllerConfig(
        timing=timing,
        read_queue_depth=64,
        write_queue_depth=64,
        num_stack_ids=1,
        enable_refresh=False,
    )


@pytest.fixture
def rome_controller_config() -> RoMeControllerConfig:
    """A single-SID RoMe controller without refresh (fast to simulate)."""
    return RoMeControllerConfig(
        vba=paper_vba_config(),
        request_queue_depth=4,
        num_stack_ids=1,
        enable_refresh=False,
    )


@pytest.fixture(scope="session")
def bench_smoke_run(tmp_path_factory) -> SimpleNamespace:
    """The one real ``bench-smoke`` measurement of the session.

    Runs the CLI entry point with the low CI thresholds of
    ``tests/test_bench_smoke.py::_argv`` and records ``exit_code``, the
    ``--json`` stdout ``report``, the ``document`` written to ``--output``,
    ``stderr`` and the ``warnings`` raised.  Measuring every section takes
    tens of seconds, so every test about the smoke reads this run; the
    gate-failure tests re-gate its report instead of measuring again.
    """
    from repro.cli import main
    from tests.test_bench_smoke import _argv

    out = tmp_path_factory.mktemp("bench") / "BENCH_session.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        exit_code = main(_argv(out))
    return SimpleNamespace(
        exit_code=exit_code,
        report=json.loads(stdout.getvalue()),
        document=json.loads(out.read_text()),
        stderr=stderr.getvalue(),
        warnings=list(caught),
    )
