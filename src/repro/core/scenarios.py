"""The scenario registry behind ``CloudMonitor.for_service``.

The paper's approach is scenario-generic -- experts model whichever
critical service they care about (Section VI-B) -- but the reproduction
historically grew one bespoke constructor per service.  This module
collapses them behind one registry: a scenario is a *name* plus a builder
``(network, project_id, **kwargs) -> CloudMonitor``, and

>>> CloudMonitor.for_service("cinder", network, "proj-1", enforcing=False)

is the single front door.  The three shipped scenarios register
themselves on import; downstream models register their own with
:func:`register_scenario`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import MonitorError
from ..httpsim import Network
from ..obs import Observability
from ..uml import ClassDiagram, StateMachine
from .contracts import ContractGenerator
from .coverage import CoverageTracker
from .mirror import MirrorDatabase
from .monitor import CloudMonitor, CloudStateProvider, operations_from_models

#: A scenario builder: assembles a ready monitor for one service.
ScenarioBuilder = Callable[..., CloudMonitor]

_REGISTRY: Dict[str, ScenarioBuilder] = {}


def register_scenario(name: str, builder: ScenarioBuilder,
                      replace: bool = False) -> None:
    """Register *builder* under *name* (case-insensitive).

    Re-registering an existing name is an error unless *replace* is set
    -- shadowing a shipped scenario silently would make
    ``for_service("cinder", ...)`` mean different things in different
    processes.
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise MonitorError(
            f"scenario {name!r} is already registered; "
            "pass replace=True to override it")
    _REGISTRY[key] = builder


def scenario_names() -> list:
    """The registered scenario names, sorted."""
    return sorted(_REGISTRY)


def build_scenario(name: str, network: Network, project_id: str,
                   **kwargs) -> CloudMonitor:
    """Build the monitor registered under *name*."""
    try:
        builder = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(scenario_names()) or "none"
        raise MonitorError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None
    return builder(network, project_id, **kwargs)


def _build_cinder(network: Network, project_id: str,
                  machine: Optional[StateMachine] = None,
                  diagram: Optional[ClassDiagram] = None,
                  enforcing: Optional[bool] = None,
                  coverage: Optional[CoverageTracker] = None,
                  cinder_host: str = "cinder",
                  with_mirror: bool = False,
                  compiled: bool = False,
                  observability: Optional[Observability] = None,
                  probe_planning: Optional[bool] = None,
                  transport=None,
                  options=None) -> CloudMonitor:
    """The paper's monitor for the Cinder volume scenario.

    Builds the Figure-3 models (unless given), generates the contracts,
    and mounts the ``/cmonitor/volumes`` routes that forward to
    ``/v3/{project_id}/volumes`` on the Cinder endpoint -- the layout of
    Listings 2 and 3.
    """
    from .behavior_model import cinder_behavior_model
    from .resource_model import cinder_resource_model

    machine = machine or cinder_behavior_model()
    diagram = diagram or cinder_resource_model()
    generator = ContractGenerator(machine, diagram)
    contracts = generator.all_contracts()
    if compiled:
        for contract in contracts.values():
            contract.compile()
    base = f"http://{cinder_host}/v3/{project_id}"
    operations = operations_from_models(machine, diagram, base)
    provider = CloudStateProvider(network, project_id,
                                  cinder_host=cinder_host)
    if coverage is None:
        coverage = CoverageTracker(machine.security_requirement_ids())
    mirror = MirrorDatabase(diagram) if with_mirror else None
    return CloudMonitor(contracts, provider, operations,
                        enforcing=enforcing, coverage=coverage,
                        mirror=mirror, observability=observability,
                        probe_planning=probe_planning,
                        transport=transport, options=options)


def _build_nova(network: Network, project_id: str,
                **kwargs) -> CloudMonitor:
    from .nova_scenario import monitor_for_nova

    return monitor_for_nova(network, project_id, **kwargs)


def _build_keystone(network: Network, project_id: str,
                    **kwargs) -> CloudMonitor:
    from .keystone_scenario import monitor_for_keystone

    return monitor_for_keystone(network, project_id, **kwargs)


register_scenario("cinder", _build_cinder)
register_scenario("nova", _build_nova)
register_scenario("keystone", _build_keystone)
