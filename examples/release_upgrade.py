#!/usr/bin/env python
"""Re-validating a new cloud release -- the paper's closing claim.

"Since open source cloud frameworks usually undergo frequent changes, the
automated nature of our approach allows the developers to relatively
easily check whether functional and security requirements have been
preserved in new releases." (Conclusions)

This example upgrades the simulated Cinder to *release 2* (volume
snapshots; a snapshotted volume cannot be deleted) and walks the
model-maintenance loop:

1. the release-1 monitor against the release-2 cloud flags the drift,
2. the revised models restore agreement,
3. the re-validation campaign kills the new release's fault class.

Run with::

    python examples/release_upgrade.py
"""

from repro.cloud import PrivateCloud, SnapshotCheckBypassMutant, paper_mutants
from repro.config import (CloudSection, MonitorConfig, MonitorSection,
                          build_from_config)
from repro.core import CloudMonitor, cinder_behavior_model
from repro.validation import (
    MutationCampaign,
    release2_battery,
    release2_setup,
)

MONITOR = "http://cmonitor/cmonitor/volumes"


def drift_detection() -> None:
    print("=" * 72)
    print("Step 1: release-1 monitor vs. release-2 cloud -- drift detected")
    print("=" * 72)
    cloud, monitor = build_from_config(MonitorConfig(
        cloud=CloudSection(release2=True),
        monitor=MonitorSection(enforcing=False)))
    tokens = cloud.paper_tokens()
    bob = cloud.client(tokens["bob"])
    alice = cloud.client(tokens["alice"])

    volume_id = bob.post(MONITOR, {"volume": {"name": "db"}}) \
        .json()["volume"]["id"]
    bob.post("http://cinder/v3/myProject/snapshots",
             {"snapshot": {"volume_id": volume_id, "name": "backup"}})
    print(f"bob created volume {volume_id} and snapshotted it")

    response = alice.delete(f"{MONITOR}/{volume_id}")
    verdict = monitor.log[-1]
    print(f"alice DELETE through the stale monitor: {response.status_code} "
          f"-> {verdict.verdict}")
    print(f"monitor message: {verdict.message}")
    print("-> the release-1 model allows this DELETE, the upgraded cloud "
          "denies it: the monitor has caught the release drift.")


def revised_models() -> None:
    print()
    print("=" * 72)
    print("Step 2: revised behavioral model -- agreement restored")
    print("=" * 72)
    machine = cinder_behavior_model(with_snapshots=True)
    for transition in machine.transitions_triggered_by("DELETE(volume)"):
        print(f"DELETE guard: {transition.guard}")
        break
    cloud = PrivateCloud.paper_setup(release2=True)
    tokens = cloud.paper_tokens()
    monitor = CloudMonitor.for_service("cinder", cloud.network, "myProject",
                                       machine=machine, enforcing=False)
    cloud.network.register("cmonitor", monitor.app)
    bob = cloud.client(tokens["bob"])
    alice = cloud.client(tokens["alice"])

    volume_id = bob.post(MONITOR, {"volume": {}}).json()["volume"]["id"]
    bob.post("http://cinder/v3/myProject/snapshots",
             {"snapshot": {"volume_id": volume_id}})
    response = alice.delete(f"{MONITOR}/{volume_id}")
    print(f"alice DELETE of the snapshotted volume: {response.status_code} "
          f"-> {monitor.log[-1].verdict} (both sides deny; no violation)")

    for snapshot in list(cloud.cinder.snapshots):
        cloud.cinder.snapshots.delete(snapshot["id"])
    response = alice.delete(f"{MONITOR}/{volume_id}")
    print(f"after dropping the snapshot:          {response.status_code} "
          f"-> {monitor.log[-1].verdict}")
    assert monitor.violations() == []


def revalidation_campaign() -> None:
    print()
    print("=" * 72)
    print("Step 3: re-validation campaign on release 2")
    print("=" * 72)
    campaign = MutationCampaign(setup=release2_setup,
                                battery=release2_battery())
    result = campaign.run(paper_mutants() + [SnapshotCheckBypassMutant()])
    print(result.render())
    assert result.kill_rate == 1.0
    print("\n-> the paper's three mutants still die, and the new release's "
          "fault class (snapshot check bypassed) dies too.")


def main() -> None:
    drift_detection()
    revised_models()
    revalidation_campaign()


if __name__ == "__main__":
    main()
