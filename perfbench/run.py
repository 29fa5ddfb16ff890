"""End-to-end deployment benchmark for the JURY reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload onos-jury --seed 0 --seconds 25 \\
        --trace 0

Repeats the workload, one fresh interpreter per repetition (``rep.py``),
until ``--seconds`` of host time are used, checks every repetition's
simulated outputs, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over the repetitions), with times in reference seconds: host
seconds scaled by a speed probe timed around them (see
``workloads.speed_probe``), so the host's swings in speed cancel.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (in host seconds) plus the tracing overhead. The exit
code is 0 when every check passed, 1 when an output check failed, 2 on a
usage error or a checkout without the program.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import REFERENCE_PROBE_S, WORKLOADS, \
    reference_seconds  # noqa: E402

#: Seed whose outputs are pinned in ``expected.json``.
PINNED_SEED = 0
#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest untraced/traced repetition pairs a traced run makes.
MIN_TRACED_PAIRS = 2
#: A run never starts a repetition that could end after this many seconds.
HARD_LIMIT_S = 150.0
#: Traced wall time the per-layer self times must account for.
ACCOUNTING_TOLERANCE = 0.02
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_expected() -> Dict[str, dict]:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def run_child(workload: str, seed: int, trace: bool,
              timeout: float) -> Tuple[Optional[dict], str]:
    """One repetition in a fresh interpreter: (result or None, error)."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload,
               str(seed)]
    if trace:
        command += ["--trace", "--spans-dir",
                    os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f}s"
    if done.returncode != 0:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {done.returncode}: {tail}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no result line"


def reference_chunks(result: dict) -> List[float]:
    """A repetition's chunk times in reference seconds."""
    probes = result["probe_s"]
    return [reference_seconds(chunk, before, after) for chunk, before, after
            in zip(result["chunk_s"], probes, probes[1:])]


def outputs_match(expected: dict, actual: dict) -> List[str]:
    """Names of outputs that differ from the pinned ones."""
    wrong = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            if abs(want - got) > 1e-9 * max(1.0, abs(want)):
                wrong.append(key)
        elif want != got:
            wrong.append(key)
    return wrong


class Run:
    """The repetitions of one invocation and the checks over them."""

    def __init__(self, expected: Optional[dict]) -> None:
        #: Pinned outputs every repetition must equal, or None.
        self.expected = expected
        self.plain: List[dict] = []
        self.traced: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest: Optional[str] = None

    def fail(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def add(self, result: Optional[dict], error: str) -> None:
        """Check one repetition; a failed one counts and is kept out."""
        self.attempted += 1
        problems = [error] if result is None else self._check(result)
        if problems:
            self.failed += 1
            for problem in problems:
                self.fail(problem)
            return
        (self.traced if result["trace"] else self.plain).append(result)

    def _check(self, result: dict) -> List[str]:
        problems = [f"check {name} failed"
                    for name, ok in sorted(result["checks"].items()) if not ok]
        if self.digest is None:
            self.digest = result["digest"]
        elif result["digest"] != self.digest:
            problems.append("outputs differ between repetitions "
                            f"({result['digest'][:12]} vs {self.digest[:12]})")
        if self.expected is not None:
            wrong = outputs_match(self.expected, result["outputs"])
            if wrong:
                problems.append("outputs differ from expected.json: "
                                + ", ".join(wrong))
        if result["trace"]:
            measured = result["measured_s"]
            gap = abs(result["accounted_s"] - measured) / measured
            if gap > ACCOUNTING_TOLERANCE:
                problems.append(f"layer self times account for "
                                f"{result['accounted_s']:.3f}s of "
                                f"{measured:.3f}s traced")
        return problems

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        reps = self.plain
        # Every repetition runs the same work, chunk for chunk. The probes
        # around a chunk scale its time to reference seconds, which takes
        # out the host's swings in speed; the median of each chunk's
        # time over the repetitions drops bursts of noise in single reps.
        chunks = zip(*(reference_chunks(r) for r in reps))
        measured_s = sum(statistics.median(times) for times in chunks)
        return {
            "triggers_per_s": reps[0]["completed"] / measured_s,
            "setup_s": statistics.median(
                reference_seconds(r["setup_s"], *r["setup_probe_s"])
                for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }

    def host_figures(self) -> Tuple[float, float]:
        """Unscaled host triggers/s and the median probe time, for humans."""
        reps = self.plain
        chunks = zip(*(r["chunk_s"] for r in reps))
        measured_s = sum(statistics.median(times) for times in chunks)
        probe_s = statistics.median(p for r in reps for p in r["probe_s"])
        return reps[0]["completed"] / measured_s, probe_s

    def per_layer(self) -> Dict[str, float]:
        traced = self.traced
        names = traced[0]["layers"]
        layers = {}
        for name in names:
            values = [r["layers"][name] for r in traced]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    self.fail(f"traced count {name} differs between "
                              f"repetitions: {sorted(set(values))}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        plain = statistics.median(r["measured_s"] for r in self.plain)
        traced_s = statistics.median(r["measured_s"] for r in traced)
        layers["trace_overhead_pct"] = (traced_s / plain - 1.0) * 100.0
        return layers


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end JURY deployment benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(sorted(WORKLOADS)))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro in this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    expected = (load_expected().get(args.workload)
                if args.seed == PINNED_SEED else None)
    run = Run(expected)

    started = time.perf_counter()
    rep_walls: List[float] = []
    traced = False
    while True:
        elapsed = time.perf_counter() - started
        enough = (len(run.plain) >= MIN_TRACED_PAIRS
                  and len(run.traced) >= MIN_TRACED_PAIRS) if args.trace \
            else len(run.plain) >= MIN_REPS
        typical = statistics.mean(rep_walls) if rep_walls else 0.0
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed + 2.0 * typical > HARD_LIMIT_S or run.attempted >= 60:
            break
        if run.attempted and run.failed == run.attempted:
            break  # nothing works; more repetitions only burn time
        rep_started = time.perf_counter()
        run.add(*run_child(args.workload, args.seed, traced,
                           timeout=HARD_LIMIT_S - elapsed + 10.0))
        rep_walls.append(time.perf_counter() - rep_started)
        if args.trace:
            traced = not traced

    if not run.plain or (args.trace and not run.traced):
        for problem in run.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        print("perfbench: no successful repetition", file=sys.stderr)
        return 1
    if args.trace:
        values = run.per_layer()
        wanted = spec["per_layer"]
    else:
        values = run.end_to_end()
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = run.failed == 0 and not run.problems

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.plain)} plain + {len(run.traced)} traced repetitions, "
          f"{run.failed} failed")
    print(f"outputs digest {run.digest}"
          + (" (pinned)" if expected is not None else ""))
    for problem in run.problems:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    host_rate, probe_s = run.host_figures()
    print(f"unscaled: {host_rate:.6g} triggers per host second; probe "
          f"{probe_s * 1e3:.4g} ms (reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
