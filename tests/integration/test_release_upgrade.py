"""The release-upgrade story: frequent cloud changes vs. the monitor.

The paper's motivation: "Since the source code of the Open Source clouds
is often developed in a collaborative manner, it is a subject of frequent
updates.  The updates might introduce or remove a variety of features and
hence, violate the security properties of the previous releases."

Release 2 of the simulated Cinder adds volume snapshots and a new
functional rule (snapshotted volumes cannot be deleted).  These tests pin
the whole lifecycle: the stale monitor *detects the drift* (it flags the
new denial as a violation), the revised model restores agreement, and the
new fault class becomes killable.
"""

import pytest

from repro.cloud import PrivateCloud, SnapshotCheckBypassMutant, paper_mutants
from repro.core import CloudMonitor, Verdict, cinder_behavior_model
from repro.validation import (
    MutationCampaign,
    TestOracle,
    release2_battery,
    release2_setup,
)

MONITOR = "http://cmonitor/cmonitor/volumes"
SNAPSHOTS = "http://cinder/v3/myProject/snapshots"


def snapshot_of(client, volume_id):
    return client.post(SNAPSHOTS, {"snapshot": {"volume_id": volume_id}})


@pytest.fixture()
def release2_cloud():
    cloud = PrivateCloud.paper_setup(release2=True)
    tokens = cloud.paper_tokens()
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, clients


class TestRelease2Cloud:
    def test_snapshot_lifecycle(self, release2_cloud):
        cloud, clients = release2_cloud
        vid = clients["bob"].post(
            "http://cinder/v3/myProject/volumes",
            {"volume": {}}).json()["volume"]["id"]
        created = snapshot_of(clients["bob"], vid)
        assert created.status_code == 202
        sid = created.json()["snapshot"]["id"]
        listing = clients["carol"].get(SNAPSHOTS, params={"volume_id": vid})
        assert [s["id"] for s in listing.json()["snapshots"]] == [sid]
        assert clients["alice"].delete(
            f"{SNAPSHOTS}/{sid}").status_code == 204

    def test_snapshotted_volume_undeletable(self, release2_cloud):
        cloud, clients = release2_cloud
        vid = clients["bob"].post(
            "http://cinder/v3/myProject/volumes",
            {"volume": {}}).json()["volume"]["id"]
        snapshot_of(clients["bob"], vid)
        response = clients["alice"].delete(
            f"http://cinder/v3/myProject/volumes/{vid}")
        assert response.status_code == 400
        assert "snapshot" in response.json()["error"]["message"]

    def test_snapshot_authorization(self, release2_cloud):
        cloud, clients = release2_cloud
        vid = clients["bob"].post(
            "http://cinder/v3/myProject/volumes",
            {"volume": {}}).json()["volume"]["id"]
        assert snapshot_of(clients["carol"], vid).status_code == 403
        created = snapshot_of(clients["bob"], vid)
        sid = created.json()["snapshot"]["id"]
        assert clients["bob"].delete(
            f"{SNAPSHOTS}/{sid}").status_code == 403  # admin only

    def test_snapshot_of_missing_volume(self, release2_cloud):
        cloud, clients = release2_cloud
        assert snapshot_of(clients["bob"], "ghost").status_code == 404

    def test_release1_cloud_has_no_snapshots(self):
        cloud = PrivateCloud.paper_setup()  # release 1
        tokens = cloud.paper_tokens()
        client = cloud.client(tokens["bob"])
        assert client.get(SNAPSHOTS).status_code == 404


class TestStaleMonitorDetectsDrift:
    def test_old_model_flags_new_functional_rule(self, release2_cloud):
        # The release-1 monitor does not know about snapshots: its DELETE
        # pre-condition holds for a snapshotted volume, the upgraded cloud
        # denies -- the monitor reports rejected-valid-request.  That is
        # the drift signal telling the analyst the models need updating.
        cloud, clients = release2_cloud
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject", enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        snapshot_of(clients["bob"], vid)
        response = clients["alice"].delete(f"{MONITOR}/{vid}")
        assert response.status_code == 502
        assert monitor.log[-1].verdict == Verdict.REJECTED_VALID

    def test_revised_model_restores_agreement(self, release2_cloud):
        cloud, clients = release2_cloud
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject",
            machine=cinder_behavior_model(with_snapshots=True),
            enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        vid = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        snapshot_of(clients["bob"], vid)
        response = clients["alice"].delete(f"{MONITOR}/{vid}")
        # Both sides now deny: pre is false (snapshots exist), cloud 400.
        assert response.status_code == 400
        assert monitor.log[-1].verdict == Verdict.INVALID_AGREED
        assert monitor.violations() == []

    def test_revised_model_works_against_release1_cloud(self):
        # The snapshot guard degrades gracefully: on release 1 the probe
        # 404s, the binding is undefined, size()=0 holds, DELETE proceeds.
        cloud = PrivateCloud.paper_setup()  # release 1
        tokens = cloud.paper_tokens()
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject",
            machine=cinder_behavior_model(with_snapshots=True),
            enforcing=True)
        cloud.network.register("cmonitor", monitor.app)
        bob = cloud.client(tokens["bob"])
        alice = cloud.client(tokens["alice"])
        vid = bob.post(MONITOR, {"volume": {}}).json()["volume"]["id"]
        assert alice.delete(f"{MONITOR}/{vid}").status_code == 204
        assert monitor.violations() == []


class TestRelease2Campaign:
    def test_baseline_clean_with_revised_models(self):
        campaign = MutationCampaign(setup=release2_setup,
                                    battery=release2_battery())
        assert campaign.run_baseline()

    def test_snapshot_mutant_killed_with_revised_models(self):
        campaign = MutationCampaign(setup=release2_setup,
                                    battery=release2_battery())
        result = campaign.run([SnapshotCheckBypassMutant()])
        assert result.kill_rate == 1.0
        assert result.records[0].implicated_requirements == ["1.4"]

    def test_paper_mutants_still_killed_on_release2(self):
        campaign = MutationCampaign(setup=release2_setup,
                                    battery=release2_battery())
        result = campaign.run(paper_mutants())
        assert result.kill_rate == 1.0

    def test_snapshot_mutant_survives_release1_battery(self):
        # Without the snapshot battery step the new fault class is never
        # exercised: model + battery must both evolve with the release.
        from repro.validation import extended_battery

        campaign = MutationCampaign(setup=release2_setup,
                                    battery=extended_battery())
        result = campaign.run([SnapshotCheckBypassMutant()])
        assert result.kill_rate == 0.0
