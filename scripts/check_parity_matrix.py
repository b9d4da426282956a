#!/usr/bin/env python
"""Enforce verdict parity across deployment shapes: one config-delta matrix.

The probe cache, probe fan-out and fleet sharding are pure performance
structures, and retries must hide recoverable faults: none of them may
change a single verdict.  This gate replays the seeded chaos workload
(40 requests, seed 7) through a matrix of deployments.  Every cell is
``build_from_config(reference + delta)``: the reference is
:func:`repro.validation.chaos_config` (audit mode, ManualClock,
resilient transport with retry seed 11), each column is a config delta
(:data:`COLUMNS`) and each row a fault program (:data:`ROWS`)::

    row          columns                                 every cell
    clean        serial cache fanout fleet fleet+fanout  pinned clean digest
    fail-once    serial cache fanout fleet fleet+fanout  pinned clean digest
    flaky        serial fanout fleet fleet+fanout        pinned flaky digest
    dead (10)    serial fleet+fanout                     all indeterminate

Two more checks keep the matrix honest:

* non-vacuity -- on the clean row the cache column sends fewer probes
  than serial (a silently disabled cache would pass parity trivially);
* on dead/serial, ``monitor_indeterminate_total`` equals the row count.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/check_parity_matrix.py [--update]

``--update`` re-records ``scripts/parity_matrix.json`` after an
intentional change to the verdict schema, the workload, or the reference
deployment; it refuses to record a matrix whose rows disagree.
"""

import argparse
import json
import os
import sys

from repro.validation import (ChaosReport, chaos_config, flaky_program,
                              recoverable_program, run_leg,
                              unrecoverable_program)

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "parity_matrix.json")

COUNT = 40
DEAD_COUNT = 10
SEED = 7

#: Column name -> config delta merged over the reference.
COLUMNS = {
    "serial": {},
    "cache": {"monitor": {"probe_cache": True}},
    "fanout": {"monitor": {"fanout": 4}},
    "fleet": {"fleet": {"shards": 4}},
    "fleet+fanout": {"fleet": {"shards": 4}, "monitor": {"fanout": 4}},
}

#: Row name -> (fault program, requests, columns, pinned digest name);
#: a pin of ``None`` demands an all-indeterminate verdict stream.
ROWS = {
    "clean": (None, COUNT, tuple(COLUMNS), "clean"),
    "fail-once": (recoverable_program, COUNT, tuple(COLUMNS), "clean"),
    "flaky": (flaky_program, COUNT,
              ("serial", "fanout", "fleet", "fleet+fanout"), "flaky"),
    "dead": (unrecoverable_program, DEAD_COUNT,
             ("serial", "fleet+fanout"), None),
}


def run_matrix():
    """Every cell's :class:`~repro.validation.ChaosRun`, by (row, column)."""
    return {(row, column): run_leg(chaos_config(COLUMNS[column]),
                                   count=count, seed=SEED,
                                   fault_factory=fault)
            for row, (fault, count, columns, _pin) in ROWS.items()
            for column in columns}


def check(cells, pins):
    """Every failed expectation as one line (empty = the gate passes)."""
    failures = []
    for row, (_fault, count, columns, pin) in ROWS.items():
        serial = cells[row, "serial"]
        for column in columns:
            leg, where = cells[row, column], f"{row}/{column}"
            if len(leg.rows) != count:
                failures.append(f"{where}: {len(leg.rows)} verdicts for "
                                f"{count} requests")
            if pin is None:
                verdicts = {json.loads(line)["verdict"] for line in leg.rows}
                unexpected = sorted(verdicts - {"indeterminate"})
                if unexpected:
                    failures.append(f"{where}: dead substrate produced "
                                    f"non-indeterminate verdicts "
                                    f"{unexpected}")
            elif leg.digest() != pins[pin]:
                divergence = ChaosReport(serial, leg).first_divergence()
                detail = (f", diverges from {row}/serial at row {divergence}"
                          if divergence is not None else "")
                failures.append(f"{where}: digest {leg.digest()[:12]}... "
                                f"!= pinned {pin} {pins[pin][:12]}..."
                                f"{detail}")
    dead = cells["dead", "serial"]
    if dead.indeterminate != len(dead.rows):
        failures.append(f"dead/serial: monitor_indeterminate_total "
                        f"{dead.indeterminate} != {len(dead.rows)} rows")
    plain, cached = cells["clean", "serial"], cells["clean", "cache"]
    if cached.probe_count >= plain.probe_count:
        failures.append(f"clean/cache: {cached.probe_count} probes, not "
                        f"fewer than serial's {plain.probe_count}; is the "
                        "probe cache wired in?")
    return failures


def render(cells):
    """The matrix as a text table: digest prefix per cell."""
    width = 14
    lines = [f"parity matrix: {COUNT} requests ({DEAD_COUNT} dead), "
             f"seed {SEED}",
             (f"{'':<10}" + "".join(f"{c:<{width}}" for c in COLUMNS))
             .rstrip()]
    for row, (_fault, _count, columns, pin) in ROWS.items():
        text = []
        for column in COLUMNS:
            leg = cells.get((row, column))
            if leg is None:
                text.append("-")
            elif pin is None:
                text.append(f"{leg.indeterminate}/{len(leg.rows)} indet")
            else:
                text.append(leg.digest()[:12])
        lines.append((f"{row:<10}" + "".join(f"{t:<{width}}" for t in text))
                     .rstrip())
    lines.append(f"probes on clean: serial "
                 f"{cells['clean', 'serial'].probe_count}, cache "
                 f"{cells['clean', 'cache'].probe_count}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="re-record the pinned digests")
    parser.add_argument("--baseline", default=BASELINE,
                        help="baseline JSON path")
    args = parser.parse_args()

    cells = run_matrix()
    print(render(cells))
    if args.update:
        pins = {"clean": cells["clean", "serial"].digest(),
                "flaky": cells["flaky", "serial"].digest()}
    else:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                pins = json.load(handle)["digests"]
        except FileNotFoundError:
            print(f"no baseline at {args.baseline}; run with --update "
                  "first", file=sys.stderr)
            return 2

    failures = check(cells, pins)
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    if args.update:
        recorded = {"workload": {"count": COUNT, "dead_count": DEAD_COUNT,
                                 "seed": SEED},
                    "digests": pins}
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"parity matrix baseline recorded in {args.baseline}")
    else:
        print(f"parity matrix: {len(cells)} cells OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
