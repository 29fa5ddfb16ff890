"""One repetition of one workload in a fresh interpreter.

Usage::

    python3 perfbench/rep.py WORKLOAD SEED [--trace] [--spans-dir DIR]
                             [--traffic-ms MS]

Prints the repetition's result (timings, outputs, checks and, traced,
per-layer metrics) as one JSON line. ``run.py`` starts one of these per
repetition, because trigger ids and channel uids come from process-global
counters: only a fresh interpreter repeats a run's outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, run_rep  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-dir", default=None)
    parser.add_argument("--traffic-ms", type=float, default=None)
    args = parser.parse_args(argv)
    result = run_rep(WORKLOADS[args.workload], args.seed, args.trace,
                     traffic_ms=args.traffic_ms, spans_dir=args.spans_dir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
