#!/bin/sh
# Tier-1 verification: the full test suite plus the observability
# coverage gate.  Run from the repository root:
#
#     sh scripts/verify.sh
#
# Exits non-zero on the first failing step.

set -e

cd "$(dirname "$0")/.."

echo "==> tier-1 test suite"
PYTHONPATH=src python -m pytest -q

echo "==> observability coverage floor"
PYTHONPATH=src python scripts/check_obs_coverage.py --floor 80

echo "==> probe budget gate (planning enabled, deterministic workload)"
PYTHONPATH=src python scripts/check_probe_budget.py

echo "==> parity matrix (cache/fan-out/fleet/faults leave verdicts unchanged)"
PYTHONPATH=src python scripts/check_parity_matrix.py

echo "==> slo gate (deterministic slo/events/alarms output matches baseline)"
PYTHONPATH=src python scripts/check_slo_gate.py

echo "==> config gate (round-trip + migrate lossless by digest)"
PYTHONPATH=src python scripts/check_config_migrate.py

echo "==> overload gate (generous-control parity + deterministic burst)"
PYTHONPATH=src python scripts/check_overload_gate.py

echo "==> overhead gate (disabled-sampling parity + sampled-ladder invariants)"
PYTHONPATH=src python scripts/check_overhead_gate.py

echo "==> bench trajectory gate (multi-shard throughput vs recorded best)"
PYTHONPATH=src python scripts/check_bench_trajectory.py

echo "==> verify: OK"
