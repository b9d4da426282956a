"""Wall-clock CPU cost of the generated cloud monitor per monitored request.

Run from the repository root::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 20 \
        --trace 0

The paper claims the generated monitor is "not computationally
expensive" (Section V).  This benchmark measures what a tenant behind the
monitor pays: each workload (see ``workloads.py``) is a closed loop sent
through a deployment built only by ``MonitorConfig`` ->
``build_from_config``, interleaved request by request with the same
request sent straight to a direct twin cloud built from the same config.
No latency fault is injected, so every number is CPU time, never sleep
overlap.  ``BENCH_scaling.json`` and its trajectory gate are a different
measurement (a latency-overlap ladder) and are left alone.

Every run checks correctness and exits 1 when a check fails:

* each monitored response status equals the direct twin's, and none is 5xx;
* the clean cloud yields no violation and no indeterminate verdict, and
  exactly one verdict per monitored request;
* before timing, a short replay against a cloud carrying each of the
  paper's three mutants must kill all three (so a monitor that answers
  "valid" to everything fails);
* the run holds at least one full window of monitored requests for the
  windowed p99 (ten samples beyond each window's p99);
* traced runs only: the probe sends seen inside
  ``CloudStateProvider.context`` equal the provider's own ``probe_count``
  movement, and the layers' self times add up to the root spans.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
untraced for half the time and then traced for the other half (at most
five seconds): the traced phase wraps each layer's public entry points
(``spans.py``), reports the per-layer metrics, writes every span to
``perfbench/out/``, and prints the per-layer self-time table next to the
untraced half's end-to-end numbers and the tracing overhead.
The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Per-request CPU cost of the generated cloud monitor.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from measure import Run
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run = Run(workload, args.seed, args.seconds)
    metrics = run.execute(trace=bool(args.trace))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
