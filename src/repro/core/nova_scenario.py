"""A second monitored scenario: Nova servers.

The paper monitors Cinder volumes; the approach, however, is generic --
"our approach can be used to represent and validate only those scenarios
that are considered to be critical by the experts" (Section VI-B).  This
module instantiates the whole pipeline for the compute service: a server
resource model, a two-state behavioral model, a Table-I-style requirements
table (ids 2.x), a state provider probing Nova, and a monitor assembly.

It demonstrates, inside the library rather than an example, that nothing
in :mod:`repro.core` is Cinder-specific.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from ..httpsim import Network, status
from ..rbac import SecurityRequirement, SecurityRequirementsTable
from ..uml import ClassDiagram, StateMachine
from .behavior_model import BehaviorModelBuilder
from .contracts import ContractGenerator
from .coverage import CoverageTracker
from .monitor import CloudMonitor, CloudStateProvider, operations_from_models
from .resource_model import ResourceModelBuilder

# State names of the server scenario.
NO_SERVER = "project_with_no_server"
HAS_SERVERS = "project_with_servers"


def nova_table() -> SecurityRequirementsTable:
    """Security requirements for the server resource (Table I style)."""
    table = SecurityRequirementsTable()
    table.add(SecurityRequirement("2.1", "server", "GET", {
        "admin": ["proj_administrator"],
        "member": ["service_architect"],
        "user": ["business_analyst"],
    }))
    table.add(SecurityRequirement("2.2", "server", "POST", {
        "admin": ["proj_administrator"],
        "member": ["service_architect"],
    }))
    table.add(SecurityRequirement("2.3", "server", "DELETE", {
        "admin": ["proj_administrator"],
    }))
    return table


def nova_resource_model() -> ClassDiagram:
    """Projects containing a Servers collection of server resources."""
    builder = ResourceModelBuilder("Nova")
    builder.collection("Projects")
    builder.resource("project", [("id", "String"), ("name", "String")])
    builder.collection("Servers")
    builder.resource("server", [
        ("id", "String"), ("name", "String"), ("status", "String")])
    builder.contains("Projects", "project", "projects")
    builder.references("project", "Servers", "servers")
    builder.contains("Servers", "server", "servers")
    return builder.build()


def nova_behavior_model(
        table: Optional[SecurityRequirementsTable] = None) -> StateMachine:
    """Two project states: no servers, and at least one server."""
    builder = BehaviorModelBuilder("nova_project", table or nova_table())
    builder.state(
        NO_SERVER,
        "project.id->size()=1 and project.servers->size()=0",
        initial=True)
    builder.state(
        HAS_SERVERS,
        "project.id->size()=1 and project.servers->size()>=1")

    grown = "project.servers->size() = pre(project.servers->size()) + 1"
    shrunk = "project.servers->size() = pre(project.servers->size()) - 1"
    unchanged = "project.servers->size() = pre(project.servers->size())"

    builder.transition(NO_SERVER, HAS_SERVERS, "POST(servers)", effect=grown)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "POST(servers)",
                       effect=grown)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "DELETE(server)",
                       guard="project.servers->size() > 1", effect=shrunk)
    builder.transition(HAS_SERVERS, NO_SERVER, "DELETE(server)",
                       guard="project.servers->size() = 1", effect=shrunk)
    for state in (NO_SERVER, HAS_SERVERS):
        builder.transition(state, state, "GET(servers)", effect=unchanged)
    builder.transition(HAS_SERVERS, HAS_SERVERS, "GET(server)",
                       guard="server.id->size() = 1", effect=unchanged)
    return builder.build()


class NovaStateProvider(CloudStateProvider):
    """Probes Keystone + Nova and binds ``project``, ``server``, ``user``."""

    roots = ("project", "server", "user")
    probe_costs = {"project": 2, "server": 1, "user": 1}
    item_scoped_roots = ("server",)
    # Nova's data-plane mutations (server CRUD) cannot change identity.
    mutation_dirty_roots = ("project", "server")

    def __init__(self, network: Network, project_id: str,
                 keystone_host: str = "keystone",
                 nova_host: str = "nova",
                 transport=None):
        super().__init__(network, project_id, keystone_host=keystone_host,
                         transport=transport)
        self.nova_host = nova_host

    def bindings(self, token: str,
                 item_id: Optional[str] = None,
                 roots: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        requested = (frozenset(self.roots) if roots is None
                     else frozenset(roots))
        cache = self._new_phase_cache()
        tasks = []
        skipped = 0

        if "project" in requested:
            tasks.append(("project",
                          lambda: self._probe_nova_project(token, cache)))
        else:
            skipped += self.probe_costs["project"]
        if "server" in requested:
            tasks.append(("server",
                          lambda: self._probe_server(token, item_id, cache)))
        elif item_id is not None:
            skipped += self.probe_costs["server"]
        if "user" in requested:
            tasks.append(("user", lambda: self._identity(token, cache)))
        elif not (self.cache_identity and token in self._identity_cache):
            skipped += self.probe_costs["user"]

        self._count_skipped(skipped)
        return self._execute_probe_tasks(tasks, token=token, item_id=item_id)

    def _probe_nova_project(self, token: str,
                            cache: Optional[Dict[tuple, Any]] = None,
                            ) -> Dict[str, Any]:
        project: Dict[str, Any] = {}
        response = self._get(
            token,
            f"http://{self.keystone_host}/v3/projects/{self.project_id}",
            cache=cache)
        if self.probe_body(response) is not None:
            project["id"] = self.project_id
        servers_body = self.probe_body(self._get(
            token,
            f"http://{self.nova_host}/v3/{self.project_id}/servers",
            cache=cache))
        if servers_body is not None:
            project["servers"] = servers_body.get("servers", [])
        return project

    def _probe_server(self, token: str, item_id: Optional[str],
                      cache: Optional[Dict[tuple, Any]] = None,
                      ) -> Dict[str, Any]:
        server: Dict[str, Any] = {}
        if item_id is not None:
            item_body = self.probe_body(self._get(
                token,
                f"http://{self.nova_host}/v3/{self.project_id}"
                f"/servers/{item_id}", cache=cache))
            if item_body is not None:
                server = item_body.get("server", {})
        return server


def monitor_for_nova(network: Network, project_id: str,
                     enforcing: Optional[bool] = None,
                     nova_host: str = "nova",
                     mount: str = "smonitor",
                     observability=None,
                     probe_planning: Optional[bool] = None,
                     transport=None,
                     options=None) -> CloudMonitor:
    """Assemble the server-scenario monitor (the Cinder recipe, re-applied).

    Registered in the scenario registry as ``"nova"``; prefer
    ``CloudMonitor.for_service("nova", ...)``.
    """
    machine = nova_behavior_model()
    diagram = nova_resource_model()
    contracts = ContractGenerator(machine, diagram).all_contracts()
    base = f"http://{nova_host}/v3/{project_id}"
    operations = operations_from_models(machine, diagram, base, mount=mount)
    provider = NovaStateProvider(network, project_id, nova_host=nova_host)
    coverage = CoverageTracker(machine.security_requirement_ids())
    return CloudMonitor(contracts, provider, operations,
                        enforcing=enforcing, coverage=coverage,
                        observability=observability,
                        probe_planning=probe_planning,
                        transport=transport, options=options)
