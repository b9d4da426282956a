"""Tests for the monitor's local mirror database (the models.py analogue)."""

import pytest

from repro.cloud import PrivateCloud
from repro.core import CloudMonitor, MirrorDatabase, cinder_resource_model
from repro.uml import Trigger

MONITOR = "http://cmonitor/cmonitor/volumes"


@pytest.fixture()
def mirror():
    return MirrorDatabase(cinder_resource_model())


class TestMirrorSchema:
    def test_tables_for_normal_resources_only(self, mirror):
        assert set(mirror.tables) == {
            "project", "volume", "quota_sets", "usergroup"}

    def test_columns_from_model(self, mirror):
        assert set(mirror.tables["volume"].columns) == {
            "id", "name", "status", "size"}

    def test_table_lookup_case_insensitive(self, mirror):
        assert mirror.table("Volume") is mirror.tables["volume"]
        assert mirror.table("ghost") is None

    def test_collection_lookup_returns_none(self, mirror):
        # Collections have no table; their members do.
        assert mirror.table("Volumes") is None


class TestObserve:
    def test_item_upsert_from_wrapped_body(self, mirror):
        mirror.observe(Trigger("GET", "volume"),
                       {"volume": {"id": "v1", "status": "available",
                                   "size": 2, "extra": "dropped"}})
        row = mirror.tables["volume"].get("v1")
        assert row["status"] == "available"
        assert "extra" not in row

    def test_collection_upsert(self, mirror):
        mirror.observe(Trigger("GET", "volumes"),
                       {"volumes": [{"id": "v1"}, {"id": "v2"}]})
        assert len(mirror.tables["volume"]) == 2

    def test_delete_removes(self, mirror):
        mirror.observe(Trigger("POST", "volumes"),
                       {"volume": {"id": "v1"}})
        mirror.observe(Trigger("DELETE", "volume"), None, item_id="v1")
        assert mirror.tables["volume"].get("v1") is None

    def test_delete_unknown_is_noop(self, mirror):
        mirror.observe(Trigger("DELETE", "volume"), None, item_id="ghost")

    def test_document_without_id_ignored(self, mirror):
        mirror.observe(Trigger("GET", "volume"), {"volume": {"size": 3}})
        assert len(mirror.tables["volume"]) == 0

    def test_unknown_resource_ignored(self, mirror):
        mirror.observe(Trigger("GET", "flavor"), {"flavor": {"id": "f1"}})

    def test_bare_document_accepted(self, mirror):
        mirror.observe(Trigger("GET", "volume"),
                       {"id": "v9", "status": "available"})
        assert mirror.tables["volume"].get("v9")["status"] == "available"

    def test_upsert_overwrites(self, mirror):
        mirror.observe(Trigger("GET", "volume"),
                       {"volume": {"id": "v1", "status": "available"}})
        mirror.observe(Trigger("GET", "volume"),
                       {"volume": {"id": "v1", "status": "in-use"}})
        assert mirror.tables["volume"].get("v1")["status"] == "in-use"
        assert len(mirror.tables["volume"]) == 1

    def test_non_dict_body_ignored(self, mirror):
        mirror.observe(Trigger("GET", "volume"), "plain text")
        mirror.observe(Trigger("GET", "volume"), None)
        assert len(mirror.tables["volume"]) == 0


class TestMonitorIntegration:
    @pytest.fixture()
    def setup(self):
        cloud = PrivateCloud.paper_setup()
        tokens = cloud.paper_tokens()
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject", with_mirror=True)
        cloud.network.register("cmonitor", monitor.app)
        clients = {name: cloud.client(token)
                   for name, token in tokens.items()}
        return cloud, monitor, clients

    def test_create_populates_mirror(self, setup):
        cloud, monitor, clients = setup
        response = clients["bob"].post(MONITOR, {"volume": {"name": "m1",
                                                            "size": 3}})
        volume_id = response.json()["volume"]["id"]
        row = monitor.mirror.tables["volume"].get(volume_id)
        assert row["name"] == "m1"
        assert row["size"] == 3
        assert row["status"] == "available"

    def test_delete_clears_mirror(self, setup):
        cloud, monitor, clients = setup
        volume_id = clients["bob"].post(
            MONITOR, {"volume": {}}).json()["volume"]["id"]
        clients["alice"].delete(f"{MONITOR}/{volume_id}")
        assert monitor.mirror.tables["volume"].get(volume_id) is None

    def test_blocked_request_does_not_touch_mirror(self, setup):
        cloud, monitor, clients = setup
        clients["carol"].post(MONITOR, {"volume": {"name": "x"}})  # 412
        assert len(monitor.mirror.tables["volume"]) == 0

    def test_collection_get_refreshes_mirror(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"volume": {}})
        clients["bob"].post(MONITOR, {"volume": {}})
        monitor.mirror.tables["volume"].rows.clear()
        clients["carol"].get(MONITOR)
        assert len(monitor.mirror.tables["volume"]) == 2

    def test_mirror_disabled_by_default(self):
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service("cinder", cloud.network,
                                           "myProject")
        assert monitor.mirror is None
