"""Migration of legacy (v0, flat-keyword) documents to the v1 schema."""

import pytest

from repro.config import MonitorConfig, config_digest, migrate, needs_migration
from repro.errors import ConfigError

LEGACY = {
    "scenario": "cinder",
    "project_id": "myProject",
    "enforcing": False,
    "volume_quota": 9,
    "fanout": 2,
    "probe_cache": True,
    "shards": 4,
    "router_seed": 3,
    "resilient": True,
    "retry": {"seed": 11, "max_attempts": 3},
    "manual_clock": True,
}


class TestNeedsMigration:
    def test_v0_documents_need_migration(self):
        assert needs_migration(LEGACY)
        assert needs_migration({})

    def test_v1_documents_do_not(self):
        assert not needs_migration({"config_version": 1})
        assert not needs_migration(MonitorConfig().to_dict())


class TestLiftV0:
    def test_keys_land_in_their_sections(self):
        config = MonitorConfig.from_dict(migrate(LEGACY))
        assert config.scenario.name == "cinder"
        assert config.cloud.volume_quota == 9
        assert config.monitor.enforcing is False
        assert config.monitor.fanout == 2
        assert config.monitor.probe_cache is True
        assert config.fleet.shards == 4
        assert config.fleet.router_seed == 3
        assert config.resilience.enabled is True
        assert config.resilience.seed == 11
        assert config.observability.clock == "manual"

    def test_empty_legacy_document_is_all_defaults(self):
        assert MonitorConfig.from_dict(migrate({})) == MonitorConfig()

    def test_unknown_legacy_key_rejected(self):
        with pytest.raises(ConfigError):
            migrate({"scenario": "cinder", "enforce_mode": True})

    def test_passthrough_sections_survive(self):
        migrated = migrate({
            "scenario": "cinder",
            "alarms": [{"name": "page", "slo": "verdict-availability"}]})
        config = MonitorConfig.from_dict(migrated)
        assert config.alarms[0].name == "page"


class TestIdempotence:
    def test_migrating_twice_is_migrating_once(self):
        once = migrate(LEGACY)
        assert migrate(once) == once

    def test_current_documents_are_fixed_points_by_digest(self):
        config = MonitorConfig()
        migrated = MonitorConfig.from_dict(migrate(config.to_dict()))
        assert config_digest(migrated) == config_digest(config)

    def test_future_version_rejected(self):
        with pytest.raises(ConfigError):
            migrate({"config_version": 99})


#: Per scenario: the host and path its monitor serves a collection GET on.
SCENARIO_ROUTES = {
    "cinder": ("cmonitor", "/cmonitor/volumes"),
    "nova": ("smonitor", "/smonitor/servers"),
    "keystone": ("imonitor", "/imonitor/projects"),
}


class TestRetiredCompiledKey:
    """``scenario.compiled`` once chose compiled contract evaluation;
    compiled closures are now the only path, so migrate drops the key."""

    @staticmethod
    def _document(name, compiled):
        host, _ = SCENARIO_ROUTES[name]
        return {"config_version": 1,
                "scenario": {"name": name, "register_as": host,
                             "compiled": compiled}}

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("name", sorted(SCENARIO_ROUTES))
    def test_v1_key_dropped_and_deployment_serves(self, name, compiled):
        from repro.config import build_from_config
        from repro.core import Verdict

        migrated = migrate(self._document(name, compiled))
        assert "compiled" not in migrated["scenario"]
        assert migrate(migrated) == migrated
        config = MonitorConfig.from_dict(migrated)
        assert config.scenario.name == name
        cloud, monitor = build_from_config(config)
        try:
            host, path = SCENARIO_ROUTES[name]
            token = cloud.paper_tokens()["carol"]
            response = cloud.client(token).get(f"http://{host}{path}")
            assert response.status_code == 200
            assert [v.verdict for v in monitor.log] == [Verdict.VALID]
        finally:
            monitor.close()

    @pytest.mark.parametrize("name", sorted(SCENARIO_ROUTES))
    def test_from_dict_rejects_the_unmigrated_key(self, name):
        with pytest.raises(ConfigError):
            MonitorConfig.from_dict(self._document(name, True))

    def test_v0_key_dropped(self):
        assert migrate({**LEGACY, "compiled": True}) == migrate(LEGACY)
