"""Host-time benchmark of the ``repro`` simulator, end to end and by layer.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(``one_pass.py``), one at a time, while another pass is expected to end
within ``--seconds`` (and at least :data:`MIN_PASSES` times).  The run
reports the mean wall and CPU time of its passes and the median of the
other metrics.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics instead.

A pass fails when its interpreter crashes or times out, when an
invariant of its simulated outcome is violated, or when its outcome
digest differs from the others' (or from an earlier run of the same
workload, seed and source tree, remembered under ``.hostbench/``).  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Without a successful
pass -- for example when ``src/`` is missing -- the run exits 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload and metric names with their units, declared in one place.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
#: Fewest passes a run takes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0
DIGEST_CACHE = ROOT / ".hostbench" / "digests.json"


@dataclass
class PassResult:
    """One pass: the child's record, or why there is none."""

    record: Optional[dict]
    error: str = ""


def run_pass(argv: Sequence[str], timeout_s: float) -> PassResult:
    """Run one child interpreter; a crash or timeout yields no record."""
    env = dict(os.environ)
    env["HOSTBENCH_SPAWNED_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(list(argv), cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return PassResult(None, f"timed out after {timeout_s:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return PassResult(None, f"exit {proc.returncode}: {tail[0]}")
    try:
        return PassResult(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        return PassResult(None, "no record on stdout")


def failures(passes: Sequence[PassResult],
             expected_digest: Optional[str] = None) -> List[str]:
    """One reason per pass, empty when the pass succeeded.

    The reference digest is ``expected_digest`` when given, else the most
    common digest among the passes that produced a record.
    """
    digests = [p.record["digest"] for p in passes if p.record is not None]
    reference = expected_digest
    if reference is None and digests:
        reference = collections.Counter(digests).most_common(1)[0][0]
    reasons = []
    for p in passes:
        if p.record is None:
            reasons.append(p.error)
        elif p.record["violations"]:
            reasons.append("violated " + ", ".join(p.record["violations"]))
        elif p.record["digest"] != reference:
            reasons.append("outcome digest differs")
        else:
            reasons.append("")
    return reasons


def source_key(workload: str, seed: int) -> str:
    """Cache key of a remembered digest: workload, seed and the source."""
    sha = hashlib.sha256(f"{workload}:{seed}".encode())
    for directory in (ROOT / "src" / "repro", HERE):
        for path in sorted(directory.rglob("*.py")):
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def _load_digests() -> Dict[str, str]:
    try:
        return json.loads(DIGEST_CACHE.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _remember_digest(key: str, digest: str) -> None:
    known = _load_digests()
    known[key] = digest
    DIGEST_CACHE.parent.mkdir(exist_ok=True)
    DIGEST_CACHE.write_text(json.dumps(known, indent=1, sort_keys=True))


def _command(workload: str, seed: int, *flags: str) -> List[str]:
    return [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
            *flags]


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> List[PassResult]:
    """Run passes while another is expected to end within ``seconds``.

    The first pass -- and each later one until one succeeds -- also runs
    the workload's untimed cross-check.  With ``trace``, passes come in
    (untraced, traced) pairs.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S - 5.0
    kinds = (False, True) if trace else (False,)
    passes: List[PassResult] = []
    checked = False
    while True:
        for traced in kinds:
            flags = ["--traced"] if traced else []
            if not traced and not checked:
                flags.append("--check")
            result = run_pass(_command(workload, seed, *flags),
                              max(deadline - time.monotonic(), 1.0))
            passes.append(result)
            record = result.record or {}
            checked = checked or (record.get("checked", False)
                                  and not record["violations"])
            print(f"pass {len(passes)} {' '.join(flags) or '-'}: "
                  f"wall {record.get('wall_s', float('nan')):.3f} s, "
                  f"setup {record.get('setup_s', float('nan')):.3f} s, "
                  f"digest {record.get('digest', '-')[:12]} {result.error}")
        rounds = len(passes) // len(kinds)
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        enough = rounds >= (1 if trace else MIN_PASSES)
        if (enough and elapsed + per_round > seconds) \
                or time.monotonic() + per_round > deadline:
            return passes


def summarize(passes: Sequence[PassResult], reasons: Sequence[str],
              trace: bool) -> Dict[str, float]:
    """Metrics over the successful passes.

    ``wall_s`` and ``cpu_s`` are means over the untraced passes: the
    host's speed drifts over seconds to minutes, and the mean pass
    averages that drift over the whole run, where the median or the
    fastest pass follows whichever phase it falls in (see README.md).
    The other metrics are medians.
    """
    good = [p.record for p, reason in zip(passes, reasons) if not reason]
    untraced = [r for r in good if "layers" not in r]
    if not trace:
        metrics = {name: statistics.fmean(r[name] for r in untraced)
                   for name in ("wall_s", "cpu_s")}
        for name in ("peak_rss_mb", "setup_s"):
            metrics[name] = statistics.median(r[name] for r in untraced)
        for record in untraced:
            for name, value in record["sim"].items():
                metrics.setdefault(name, value)
        return metrics
    traced = [r for r in good if "layers" in r]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]} if traced else {}
    ratios = [b.record["wall_s"] / a.record["wall_s"]
              for a, b, ra, rb in zip(passes[::2], passes[1::2],
                                      reasons[::2], reasons[1::2])
              if not ra and not rb]
    if ratios:
        metrics["traced.overhead"] = statistics.median(ratios)
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so ``subprocess.run`` kills and
    # reaps the pass it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    key = source_key(args.workload, args.seed)
    expected = _load_digests().get(key)
    passes = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    reasons = failures(passes, expected)
    for number, reason in enumerate(reasons, 1):
        if reason:
            print(f"pass {number} FAILED: {reason}")
    if all(reasons):
        print("hostbench: no pass succeeded", file=sys.stderr)
        return 1
    metrics = summarize(passes, reasons, bool(args.trace))
    if expected is None:
        good = reasons.index("")
        _remember_digest(key, passes[good].record["digest"])
    units = {metric["name"]: metric["unit"] for metric in
             BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"hostbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(units) - set(metrics))}, undeclared "
              f"{sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 1
    failed = sum(1 for reason in reasons if reason)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
