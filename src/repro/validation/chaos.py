"""Chaos campaign: the monitor's verdicts under injected transport faults.

The mutation campaign (Section VI-D) asks "does the monitor catch a buggy
cloud?"; this module asks the complementary resilience question: **does a
flaky substrate ever change what the monitor says?**  The answer the
design demands is two-sided:

* under *recoverable* faults (every probe fails once then succeeds, the
  transport retries) the verdict log must be **byte-identical** to a
  fault-free run -- retries are invisible to the verdict stream;
* under *unrecoverable* faults (a host that never answers) every
  monitored request must degrade to the ``indeterminate`` verdict --
  never an unhandled exception, never a spurious valid/invalid.

Every leg runs the same seeded workload on the same deterministic stack
(seeded RNG, in-process network, ManualClock) built from
:func:`chaos_config` plus a config delta, so
``scripts/check_parity_matrix.py`` can gate every deployment shape on
the exact digest of the verdict rows.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..config import (MonitorConfig, MonitorSection, ObservabilitySection,
                      ResilienceSection, build_from_config)
from ..core import CloudMonitor, Verdict
from ..core.auditlog import verdict_to_json
from ..httpsim import FailN, Flake, FaultProgram, by_path
from ..workloads import WorkloadRunner, make_workload

#: The hosts the Cinder-scenario monitor talks to; chaos programs are
#: installed on each so probes and forwards both see faults.
CHAOS_HOSTS: Tuple[str, ...] = ("cinder", "keystone")


def chaos_config(delta: Optional[Mapping[str, Any]] = None
                 ) -> MonitorConfig:
    """The chaos deployment as data, with *delta* merged over it.

    The reference: the paper cloud and the Cinder monitor in audit mode
    on a ManualClock (backoff waits advance virtual time instead of
    sleeping), behind a resilient transport with retry seed 11.  *delta*
    is a partial config document (see :meth:`MonitorConfig.with_delta`),
    e.g. ``{"fleet": {"shards": 4}, "monitor": {"fanout": 4}}``.
    """
    config = MonitorConfig(
        monitor=MonitorSection(enforcing=False),
        observability=ObservabilitySection(clock="manual"),
        resilience=ResilienceSection(enabled=True, seed=11))
    return config.with_delta(delta) if delta else config


def recoverable_program() -> FaultProgram:
    """Every distinct probe/forward URL fails once, then succeeds.

    Failures land *before* the application, so a retried POST never
    double-creates; one retry per URL recovers everything.
    """
    return FailN(1, key=by_path)


def flaky_program(rate: float = 0.3, seed: int = 5) -> FaultProgram:
    """Each probe URL flakes deterministically, independent of ordering.

    Keyed by ``(method, path)``: whether attempt *k* on a URL fails is a
    pure hash of (seed, URL, k), so serial, fan-out, and fleet runs see
    the *same* fault landscape even though they interleave requests
    differently -- the precondition for demanding byte-identical
    verdicts across all three under flaky faults.
    """
    return Flake(rate, seed=seed, key=by_path)


def unrecoverable_program() -> FaultProgram:
    """Every request fails, always -- the host is effectively down."""
    return Flake(1.0, seed=0)


class ChaosRun:
    """One campaign leg: the workload's verdict rows plus counters."""

    def __init__(self, rows: List[str], histogram: Dict[str, int],
                 retries: float, indeterminate: int, probe_count: int):
        #: One canonical JSONL row per verdict, in arrival order.
        self.rows = rows
        self.histogram = histogram
        self.retries = retries
        self.indeterminate = indeterminate
        self.probe_count = probe_count

    def digest(self) -> str:
        """SHA-256 over the verdict rows -- the parity fingerprint."""
        digest = hashlib.sha256()
        for row in self.rows:
            digest.update(row.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


class ChaosReport:
    """Fault-free baseline vs. faulted leg, with the parity verdict."""

    def __init__(self, baseline: ChaosRun, faulted: ChaosRun):
        self.baseline = baseline
        self.faulted = faulted

    @property
    def parity(self) -> bool:
        """True when the faulted verdict rows match the baseline exactly."""
        return self.baseline.rows == self.faulted.rows

    def first_divergence(self) -> Optional[int]:
        """Index of the first differing row, ``None`` on parity."""
        for index, (left, right) in enumerate(
                zip(self.baseline.rows, self.faulted.rows)):
            if left != right:
                return index
        if len(self.baseline.rows) != len(self.faulted.rows):
            return min(len(self.baseline.rows), len(self.faulted.rows))
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "parity": self.parity,
            "baseline_digest": self.baseline.digest(),
            "faulted_digest": self.faulted.digest(),
            "verdict_count": len(self.baseline.rows),
            "faulted_retries": self.faulted.retries,
            "faulted_indeterminate": self.faulted.indeterminate,
        }


def run_leg(config: MonitorConfig, count: int = 40, seed: int = 7,
            fault_factory: Optional[Callable[[], FaultProgram]] = None,
            ) -> ChaosRun:
    """Run the seeded workload once through *config*'s deployment.

    A *fresh* cloud + monitor (or fleet, for ``fleet.shards > 1``) per
    leg: chaos must never leak state into the baseline it is compared
    against.  *fault_factory*, when given, installs a fresh fault program
    on every :data:`CHAOS_HOSTS` host.  A fleet's verdict rows are its
    merged, arrival-ordered log; its counters sum over the shards.
    """
    cloud, deployment = build_from_config(config)
    monitors = getattr(deployment, "shards", [deployment])
    try:
        if fault_factory is not None:
            for host in CHAOS_HOSTS:
                cloud.network.inject_fault(host, fault_factory())
        histogram = WorkloadRunner(cloud).execute(
            make_workload(count, seed=seed), monitored=True)
        return ChaosRun(
            rows=[verdict_to_json(verdict) for verdict in deployment.log],
            histogram=histogram,
            retries=sum(monitor.obs.metrics.total("monitor_retries_total")
                        for monitor in monitors),
            indeterminate=int(sum(
                monitor.obs.metrics.counter_value(
                    "monitor_indeterminate_total")
                for monitor in monitors)),
            probe_count=sum(monitor.provider.probe_count
                            for monitor in monitors))
    finally:
        deployment.close()


def run_chaos_campaign(count: int = 40, seed: int = 7,
                       fault_factory: Optional[
                           Callable[[], FaultProgram]] = None,
                       ) -> ChaosReport:
    """Baseline (fault-free) vs. faulted leg over the same workload.

    The default fault program is :func:`recoverable_program`, for which
    the report must come back with ``parity=True``.
    """
    baseline = run_leg(chaos_config(), count, seed)
    faulted = run_leg(chaos_config(), count, seed,
                      fault_factory if fault_factory is not None
                      else recoverable_program)
    return ChaosReport(baseline, faulted)


#: The breaker lifecycle a recovery must walk, as (from, to) transitions:
#: failures open it, the recovery window half-opens it, and the trial
#: request's success closes it again.
EXPECTED_BREAKER_SEQUENCE: Tuple[Tuple[str, str], ...] = (
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "closed"),
)


def run_breaker_sequence(failure_threshold: int = 2,
                         recovery_time: float = 5.0,
                         host: str = "cinder",
                         ) -> Tuple[CloudMonitor, List[Tuple[str, str]]]:
    """Drive one host's breaker through its full lifecycle.

    Kills *host* until its breaker opens, heals the substrate, advances
    the manual clock past the recovery window, and sends one more
    monitored request so the half-open trial succeeds.  Returns the
    monitor and the ``breaker_transition`` wide events' (from, to) pairs
    for *host*, in emission order -- the structured record the chaos
    campaign asserts instead of sampling the ``monitor_breaker_state``
    gauge between requests.
    """
    cloud, monitor = build_from_config(chaos_config({"resilience": {
        "failure_threshold": failure_threshold,
        "recovery_time": recovery_time}}))
    token = cloud.paper_tokens()["alice"]
    url = "http://cmonitor/cmonitor/volumes"

    cloud.network.inject_fault(host, unrecoverable_program())
    for _ in range(failure_threshold):
        monitor.app.get(url, headers={"X-Auth-Token": token})

    cloud.network.clear_fault(host)
    monitor.obs.clock.advance(recovery_time)
    monitor.app.get(url, headers={"X-Auth-Token": token})

    transitions = [
        (record.get("from_state"), record.get("to_state"))
        for record in monitor.obs.events.filter(event="breaker_transition",
                                                host=host)]
    return monitor, transitions


def assert_breaker_sequence(failure_threshold: int = 2,
                            recovery_time: float = 5.0,
                            host: str = "cinder",
                            ) -> List[Tuple[str, str]]:
    """Assert the closed -> open -> half-open -> closed event sequence.

    Raises ``AssertionError`` when the emitted ``breaker_transition``
    events do not match :data:`EXPECTED_BREAKER_SEQUENCE` exactly;
    returns the observed transitions otherwise.
    """
    monitor, transitions = run_breaker_sequence(
        failure_threshold=failure_threshold, recovery_time=recovery_time,
        host=host)
    assert tuple(transitions) == EXPECTED_BREAKER_SEQUENCE, (
        f"breaker on {host!r} walked {transitions}, expected "
        f"{list(EXPECTED_BREAKER_SEQUENCE)}")
    # The recovery request must have produced a usable verdict again.
    assert monitor.log[-1].verdict != Verdict.INDETERMINATE, (
        "the half-open trial succeeded but the verdict stayed "
        "indeterminate")
    return transitions


def assert_indeterminate_degradation(count: int = 20, seed: int = 7,
                                     ) -> ChaosRun:
    """Run under a dead substrate; every verdict must be indeterminate.

    Returns the run for further inspection; raises ``AssertionError``
    when any request produced something other than a clean
    ``indeterminate`` verdict.
    """
    leg = run_leg(chaos_config(), count, seed, unrecoverable_program)
    verdicts = [json.loads(row)["verdict"] for row in leg.rows]
    unexpected = sorted(set(verdicts) - {Verdict.INDETERMINATE})
    assert not unexpected, (
        f"dead substrate produced non-indeterminate verdicts: {unexpected}")
    assert leg.indeterminate == len(leg.rows)
    return leg
