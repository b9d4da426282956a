"""RESILIENCE: the transport layer's cost, and verdict parity under it.

Three questions the resilient transport must answer with numbers:

* what does the wrapper cost on a healthy substrate (no faults, no
  retries -- the overhead-only case)?
* what does absorbing recoverable faults cost (every probe URL fails
  once, retries recover everything)?
* and the correctness anchor the numbers are meaningless without:
  verdicts under recoverable faults are **byte-identical** to the
  fault-free baseline, while an unrecoverable substrate degrades every
  request to ``indeterminate``.
"""

import json

from repro.validation import (
    chaos_config,
    recoverable_program,
    run_leg,
    unrecoverable_program,
)

COUNT = 30
SEED = 7


def test_bench_resilient_fault_free(benchmark):
    leg = benchmark(run_leg, chaos_config(), COUNT, SEED, None)
    assert leg.retries == 0
    assert leg.indeterminate == 0


def test_bench_resilient_recoverable_faults(benchmark):
    leg = benchmark(run_leg, chaos_config(), COUNT, SEED,
                    recoverable_program)
    assert leg.retries > 0
    assert leg.indeterminate == 0


def test_bench_resilient_dead_substrate(benchmark):
    leg = benchmark(run_leg, chaos_config(), COUNT, SEED,
                    unrecoverable_program)
    assert leg.indeterminate == len(leg.rows)


def test_bench_resilience_verdict_parity(benchmark):
    """Parity report: recoverable faults leave the verdict stream intact."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    baseline = run_leg(chaos_config(), COUNT, SEED, None)
    faulted = run_leg(chaos_config(), COUNT, SEED, recoverable_program)
    assert faulted.rows == baseline.rows
    dead = run_leg(chaos_config(), COUNT, SEED, unrecoverable_program)
    verdicts = {json.loads(row)["verdict"] for row in dead.rows}
    assert verdicts == {"indeterminate"}
    # probe_count ticks once per *logical* probe; the retry attempts live
    # inside the transport, so the fault tax shows up as retries, not as
    # extra probes.
    assert faulted.probe_count == baseline.probe_count
    print(f"\n[RESILIENCE] {len(baseline.rows)} verdicts byte-identical "
          f"under recoverable faults; {faulted.retries:.0f} transport "
          f"retries absorbed over {baseline.probe_count} logical probes; "
          f"dead substrate -> {dead.indeterminate}/{len(dead.rows)} "
          "indeterminate")
