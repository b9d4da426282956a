"""Tests for the second monitored scenario: Nova servers.

Nothing in repro.core is Cinder-specific -- this suite applies the whole
pipeline (models -> contracts -> monitor) to the compute service.
"""

import pytest

from repro.cloud import PrivateCloud
from repro.core import ContractGenerator, Verdict
from repro.core.nova_scenario import (
    HAS_SERVERS,
    NO_SERVER,
    NovaStateProvider,
    monitor_for_nova,
    nova_behavior_model,
    nova_resource_model,
    nova_table,
)
from repro.uml.validation import errors_only, validate_state_machine

MONITOR = "http://smonitor/smonitor/servers"


@pytest.fixture()
def setup():
    cloud = PrivateCloud.paper_setup()
    tokens = cloud.paper_tokens()
    monitor = monitor_for_nova(cloud.network, "myProject", enforcing=True)
    cloud.network.register("smonitor", monitor.app)
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


class TestNovaModels:
    def test_models_well_formed(self):
        machine = nova_behavior_model()
        diagram = nova_resource_model()
        assert errors_only(validate_state_machine(machine, diagram)) == []

    def test_two_states(self):
        machine = nova_behavior_model()
        assert set(machine.states) == {NO_SERVER, HAS_SERVERS}
        assert machine.initial_state().name == NO_SERVER

    def test_requirements_annotated(self):
        machine = nova_behavior_model()
        assert set(machine.security_requirement_ids()) == {
            "2.1", "2.2", "2.3"}

    def test_uri_layout(self):
        diagram = nova_resource_model()
        assert diagram.uri_paths()["Servers"] == "/{project_id}/servers"
        assert diagram.item_uri("server") == \
            "/{project_id}/servers/{server_id}"

    def test_delete_contract_combines_two_transitions(self):
        generator = ContractGenerator(nova_behavior_model(),
                                      nova_resource_model())
        contract = generator.for_trigger("DELETE(server)")
        assert len(contract.cases) == 2
        assert contract.security_requirements == ["2.3"]

    def test_table_policy_matches_nova_service(self):
        # The modelled requirements must agree with the simulated Nova's
        # actual policy for the shared actions.
        policy = nova_table().to_policy()
        assert policy["server:post"] == "role:admin or role:member"
        assert policy["server:delete"] == "role:admin"


class TestNovaMonitor:
    def test_member_creates_server(self, setup):
        cloud, monitor, clients = setup
        response = clients["bob"].post(MONITOR, {"server": {"name": "web"}})
        assert response.status_code == 202
        assert monitor.log[-1].verdict == Verdict.VALID

    def test_user_blocked_from_creating(self, setup):
        cloud, monitor, clients = setup
        response = clients["carol"].post(MONITOR, {"server": {}})
        assert response.status_code == 412
        assert monitor.log[-1].verdict == Verdict.PRE_BLOCKED

    def test_get_item_valid(self, setup):
        cloud, monitor, clients = setup
        sid = clients["bob"].post(
            MONITOR, {"server": {"name": "s"}}).json()["server"]["id"]
        response = clients["carol"].get(f"{MONITOR}/{sid}")
        assert response.status_code == 200
        assert monitor.log[-1].verdict == Verdict.VALID

    def test_member_blocked_from_delete(self, setup):
        cloud, monitor, clients = setup
        sid = clients["bob"].post(
            MONITOR, {"server": {}}).json()["server"]["id"]
        assert clients["bob"].delete(f"{MONITOR}/{sid}").status_code == 412

    def test_admin_deletes(self, setup):
        cloud, monitor, clients = setup
        sid = clients["bob"].post(
            MONITOR, {"server": {}}).json()["server"]["id"]
        assert clients["alice"].delete(f"{MONITOR}/{sid}").status_code == 204
        assert monitor.log[-1].verdict == Verdict.VALID

    def test_coverage_tracks_nova_requirements(self, setup):
        cloud, monitor, clients = setup
        clients["bob"].post(MONITOR, {"server": {}})
        clients["carol"].get(MONITOR)
        assert "2.2" in monitor.coverage.covered_ids()
        assert "2.1" in monitor.coverage.covered_ids()
        assert "2.3" in monitor.coverage.uncovered_ids()

    def test_escalation_mutant_killed(self, setup):
        cloud, _, clients = setup
        audit = monitor_for_nova(cloud.network, "myProject",
                                 enforcing=False)
        cloud.network.register("smonitor", audit.app)
        sid = clients["bob"].post(
            MONITOR, {"server": {}}).json()["server"]["id"]
        cloud.nova.policy.set_rule("server:delete",
                                   "role:admin or role:member")
        response = clients["bob"].delete(f"{MONITOR}/{sid}")
        assert response.status_code == 502
        assert audit.log[-1].verdict == Verdict.PRE_VIOLATION
        assert audit.log[-1].security_requirements == ["2.3"]


class TestNovaStateProvider:
    def test_bindings(self, setup):
        cloud, monitor, clients = setup
        token = cloud.keystone.issue_token("bob", "bob-secret", "myProject")
        sid = clients["bob"].post(
            MONITOR, {"server": {"name": "x"}}).json()["server"]["id"]
        provider = NovaStateProvider(cloud.network, "myProject")
        bindings = provider.bindings(token, item_id=sid)
        assert bindings["project"]["id"] == "myProject"
        assert len(bindings["project"]["servers"]) == 1
        assert bindings["server"]["name"] == "x"
        assert bindings["user"]["roles"] == ["member"]

    def test_bindings_without_item(self, setup):
        cloud, monitor, clients = setup
        token = cloud.keystone.issue_token("carol", "carol-secret",
                                           "myProject")
        provider = NovaStateProvider(cloud.network, "myProject")
        bindings = provider.bindings(token)
        assert "server" not in bindings    # item-scoped: needs an item id
        assert bindings["project"]["servers"] == []
