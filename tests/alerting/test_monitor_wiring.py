"""Alarms wired into the monitor: the routes and health semantics.

The monitor evaluates its alarm engine after every monitored request,
publishes the full document on ``/-/alarms``, folds the compact status
block into ``/-/health``, and turns the health endpoint 503 while any
alarm stands at critical.
"""

import pytest

from repro.alerting import CRITICAL, AlarmEngine, AlarmRule, MemorySink
from repro.config import build_from_config
from repro.errors import AlarmError
from repro.obs import ManualClock, Observability
from repro.validation import paper_config

MONITOR = "http://cmonitor/cmonitor/volumes"


def deterministic_setup(enforcing=False):
    obs = Observability(clock=ManualClock(tick=1e-4))
    cloud, monitor = build_from_config(paper_config(enforcing=enforcing),
                                       observability=obs)
    tokens = cloud.paper_tokens()
    clients = {user: cloud.client(token) for user, token in tokens.items()}
    return cloud, monitor, clients


class TestAlarmsRoute:
    def test_alarms_document_served(self):
        cloud, monitor, clients = deterministic_setup()
        clients["bob"].post(MONITOR, {"volume": {"name": "v"}})
        response = monitor.app.get("/-/alarms")
        assert response.status_code == 200
        report = response.json()
        assert set(report) == {"generated_at", "overall", "alarms",
                               "transitions"}
        assert report["overall"] == "ok"
        assert {alarm["alarm"] for alarm in report["alarms"]} \
            == {rule.name for rule in monitor.alarms.rules}

    def test_default_rules_mirror_the_slo_catalog(self):
        cloud, monitor, clients = deterministic_setup()
        assert sorted(rule.slo for rule in monitor.alarms.rules) \
            == sorted(slo.name for slo in monitor.slos.slos)

    def test_every_request_evaluates_the_engine(self):
        cloud, monitor, clients = deterministic_setup()
        before = monitor.alarms.last_evaluated
        clients["carol"].get(MONITOR)
        assert monitor.alarms.last_evaluated > before


class TestHealthSemantics:
    def test_health_carries_the_alarm_block(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        response = monitor.app.get("/-/health")
        assert response.status_code == 200
        payload = response.json()
        assert payload["alarms"] == {"overall": "ok", "active": []}

    def test_critical_alarm_turns_health_503(self):
        cloud, monitor, clients = deterministic_setup()
        clients["carol"].get(MONITOR)
        monitor.alarms.states[0].state = CRITICAL
        response = monitor.app.get("/-/health")
        assert response.status_code == 503
        active = response.json()["alarms"]["active"]
        assert active[0]["state"] == CRITICAL

    def test_alarms_route_itself_stays_200_while_critical(self):
        # The document endpoint reports, it does not gate.
        cloud, monitor, clients = deterministic_setup()
        monitor.alarms.states[0].state = CRITICAL
        assert monitor.app.get("/-/alarms").status_code == 200


class TestConfigureAlarms:
    def test_configure_replaces_rules_and_sinks(self):
        cloud, monitor, clients = deterministic_setup()
        sink = MemorySink()
        rule = AlarmRule(name="only", slo="verdict-availability")
        engine = monitor.configure_alarms(rules=[rule], sinks=[sink])
        assert engine is monitor.alarms
        assert isinstance(engine, AlarmEngine)
        assert [r.name for r in monitor.alarms.rules] == ["only"]
        assert monitor.alarms.sinks == [sink]

    def test_configure_rejects_unknown_slo(self):
        cloud, monitor, clients = deterministic_setup()
        with pytest.raises(AlarmError):
            monitor.configure_alarms(
                rules=[AlarmRule(name="r", slo="no-such-slo")])

    def test_reconfigured_engine_keeps_serving_routes(self):
        cloud, monitor, clients = deterministic_setup()
        monitor.configure_alarms(
            rules=[AlarmRule(name="only", slo="verdict-availability")])
        clients["carol"].get(MONITOR)
        report = monitor.app.get("/-/alarms").json()
        assert [alarm["alarm"] for alarm in report["alarms"]] == ["only"]
