"""The mutation campaign: apply mutants, replay the battery, kill or miss.

"During validation, we were able to kill all three mutants (errors)
systematically introduced in the cloud implementation to detect wrong
authorization on resources." (Section VI-D)

Each mutant runs against a *fresh* cloud so mutants cannot mask each other,
and a clean baseline run is always executed first: a monitor that flags
violations on a correct cloud would trivially "kill" everything, so the
baseline must be violation-free for the campaign to be meaningful.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..cloud import Mutant, PrivateCloud
from ..config import MonitorConfig, MonitorSection, build_from_config
from ..core.monitor import CloudMonitor
from ..errors import ValidationError
from .oracle import BatteryStep, TestOracle, standard_battery

#: Builds a fresh (cloud, monitor) pair with the monitor registered on the
#: network under the host name the oracle uses.
SetupFactory = Callable[[], Tuple[PrivateCloud, CloudMonitor]]


def paper_config(**monitor: Any) -> MonitorConfig:
    """The paper's setup as a config: myProject cloud + Cinder monitor.

    The monitor runs in audit mode unless *monitor* says otherwise: audit
    mode is the test-oracle configuration, where requests are forwarded
    even when the pre-condition fails, so wrong *acceptance* by the cloud
    is observable (that is how escalation mutants die).  *monitor*
    overrides fields of the ``monitor`` section (``enforcing``,
    ``probe_planning``, ``probe_cache``, ``fanout``).  Build it with
    :func:`repro.config.build_from_config`.
    """
    return MonitorConfig(
        monitor=MonitorSection(**{"enforcing": False, **monitor}))


def measure_probe_rate(count: int = 60, seed: int = 42,
                       probe_planning: bool = True,
                       probe_cache: bool = False) -> dict:
    """Probes per request on the seeded overhead workload.

    The measurement behind the probe-budget gate and the bench
    trajectory: deterministic (seeded RNG, in-process network), so the
    returned rate is exact, not an estimate.  Includes the monitor's
    probe-cache counters when the cache is enabled.
    """
    from ..workloads import WorkloadRunner, make_workload

    workload = make_workload(count, seed=seed)
    cloud, monitor = build_from_config(paper_config(
        probe_planning=probe_planning, probe_cache=probe_cache))
    runner = WorkloadRunner(cloud, monitor)
    runner.execute(workload, monitored=True)
    result = {
        "workload": {"count": len(workload), "seed": seed},
        "probe_planning": probe_planning,
        "probe_cache": probe_cache,
        "probes_per_request": monitor.provider.probe_count / len(workload),
    }
    if monitor.probe_cache is not None:
        result["cache"] = monitor.probe_cache.stats()
    return result


def release2_setup(enforcing: bool = False,
                   volume_quota: int = 5) -> Tuple[PrivateCloud, CloudMonitor]:
    """The upgraded deployment: snapshot-enabled cloud + revised models.

    The monitor is generated from the release-2 behavioral model (DELETE
    guards include ``volume.snapshots->size() = 0``) -- the model
    maintenance step that must accompany a cloud release, as the paper's
    motivation describes.
    """
    from ..core.behavior_model import cinder_behavior_model
    from ..core.resource_model import cinder_resource_model

    cloud = PrivateCloud.paper_setup(volume_quota=volume_quota,
                                     release2=True)
    monitor = CloudMonitor.for_service(
        "cinder", cloud.network, "myProject",
        machine=cinder_behavior_model(with_snapshots=True),
        diagram=cinder_resource_model(with_snapshots=True),
        enforcing=enforcing)
    cloud.network.register("cmonitor", monitor.app)
    return cloud, monitor


class KillRecord:
    """The outcome of one mutant run."""

    def __init__(self, mutant: Mutant, killed: bool,
                 violation_count: int, verdicts: List[str],
                 implicated_requirements: List[str]):
        self.mutant = mutant
        self.killed = killed
        self.violation_count = violation_count
        self.verdicts = verdicts
        self.implicated_requirements = implicated_requirements

    def __repr__(self) -> str:
        status = "KILLED" if self.killed else "SURVIVED"
        return f"<KillRecord {self.mutant.mutant_id} {status}>"


class CampaignResult:
    """Baseline sanity plus the full kill matrix."""

    def __init__(self, baseline_clean: bool, records: List[KillRecord]):
        self.baseline_clean = baseline_clean
        self.records = records

    @property
    def killed(self) -> List[KillRecord]:
        return [record for record in self.records if record.killed]

    @property
    def survived(self) -> List[KillRecord]:
        return [record for record in self.records if not record.killed]

    @property
    def kill_rate(self) -> float:
        if not self.records:
            return 1.0
        return len(self.killed) / len(self.records)

    def render(self) -> str:
        """The kill matrix as a text table."""
        lines = [
            f"baseline clean: {'yes' if self.baseline_clean else 'NO'}",
            "",
            "Mutant  Category        Killed  Violations  SecReqs     "
            "Description",
        ]
        for record in self.records:
            mutant = record.mutant
            lines.append(
                f"{mutant.mutant_id:<7} {mutant.category:<15} "
                f"{'yes' if record.killed else 'NO':<7} "
                f"{record.violation_count:>10}  "
                f"{','.join(record.implicated_requirements) or '-':<11} "
                f"{mutant.description}")
        lines.append(
            f"kill rate: {len(self.killed)}/{len(self.records)} "
            f"({self.kill_rate:.0%})")
        return "\n".join(lines)


class MutationCampaign:
    """Runs a set of mutants through the monitor-as-oracle workflow."""

    def __init__(self, setup: Optional[SetupFactory] = None,
                 battery: Optional[List[BatteryStep]] = None):
        self.setup = setup or (lambda: build_from_config(paper_config()))
        self.battery = battery or standard_battery()

    def run_baseline(self) -> bool:
        """Replay the battery on an unmutated cloud; True when clean."""
        cloud, monitor = self.setup()
        oracle = TestOracle(cloud, monitor)
        oracle.run(self.battery)
        return not monitor.violations()

    def run_mutant(self, mutant: Mutant) -> KillRecord:
        """Apply *mutant* to a fresh cloud and replay the battery."""
        cloud, monitor = self.setup()
        mutant.apply(cloud)
        try:
            oracle = TestOracle(cloud, monitor)
            oracle.run(self.battery)
            violations = monitor.violations()
            return KillRecord(
                mutant,
                killed=bool(violations),
                violation_count=len(violations),
                verdicts=sorted({v.verdict for v in violations}),
                implicated_requirements=oracle.violated_requirements(),
            )
        finally:
            mutant.revert(cloud)

    def run(self, mutants: List[Mutant]) -> CampaignResult:
        """Run the baseline then every mutant; raises if the baseline fails.

        A dirty baseline means the monitor flags a correct cloud -- any
        kill result on top of that would be meaningless.
        """
        baseline_clean = self.run_baseline()
        if not baseline_clean:
            raise ValidationError(
                "baseline run is not violation-free; the monitor or the "
                "battery disagrees with the unmutated cloud")
        records = [self.run_mutant(mutant) for mutant in mutants]
        return CampaignResult(baseline_clean, records)
