"""The paper's contribution: models -> contracts -> monitor -> code.

* :mod:`repro.core.resource_model` / :mod:`repro.core.behavior_model` --
  REST-aware builders for the two design models, including the complete
  Cinder example of Figure 3,
* :mod:`repro.core.contracts` -- the Section V contract generator: combine
  all transitions fired by a method into one pre/post-condition pair with
  ``pre()`` old values,
* :mod:`repro.core.monitor` -- the runtime cloud monitor of Figure 2:
  pre-check, forward, post-check, verdict, traceability,
* :mod:`repro.core.codegen` -- ``uml2django``: emit the Django-style
  project files (models.py / urls.py / views.py) and a runnable monitor,
* :mod:`repro.core.coverage` -- security-requirement coverage tracking.
"""

from .admission import (
    ARRIVAL_HEADER,
    MODES,
    AdmissionController,
    AdmissionOptions,
    DeadlineBudget,
    DeadlineOptions,
    DegradationLadder,
    DegradationOptions,
)
from .auditlog import read_log, write_log
from .behavior_model import BehaviorModelBuilder, cinder_behavior_model
from .composite import CompositeMonitor
from .consistency import Overlap, check_consistency
from .contracts import ContractCase, ContractGenerator, MethodContract
from .coverage import CoverageTracker
from .fleet import MonitorFleet, ShardRouter, tenant_from_token
from .mirror import MirrorDatabase, MirrorTable
from .monitor import CloudMonitor, CloudStateProvider, MonitorVerdict, Verdict
from .options import MonitorOptions, ResilienceOptions
from .planning import PROBE_COSTS, PROBE_ROOTS, ProbePlan
from .probecache import ProbeCache
from .resilience import (
    CircuitBreaker,
    ProbeFailure,
    ResilientTransport,
    RetryPolicy,
    transport_failure,
)
from .resource_model import ResourceModelBuilder, cinder_resource_model
from .scenarios import build_scenario, register_scenario, scenario_names
from .scheduler import ProbeOutcome, ProbeScheduler, SingleFlight
from .typecheck import check_expression, check_models
from .verdict_schema import (
    SCHEMA_VERSION,
    verdict_from_record,
    verdict_record,
)

__all__ = [
    "ARRIVAL_HEADER",
    "AdmissionController",
    "AdmissionOptions",
    "BehaviorModelBuilder",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlineOptions",
    "DegradationLadder",
    "DegradationOptions",
    "MODES",
    "CloudMonitor",
    "CloudStateProvider",
    "CompositeMonitor",
    "ContractCase",
    "ContractGenerator",
    "CoverageTracker",
    "MethodContract",
    "MirrorDatabase",
    "MirrorTable",
    "MonitorFleet",
    "MonitorOptions",
    "MonitorVerdict",
    "PROBE_COSTS",
    "PROBE_ROOTS",
    "ProbeCache",
    "ProbeFailure",
    "ProbeOutcome",
    "ProbePlan",
    "ProbeScheduler",
    "ResilienceOptions",
    "ResilientTransport",
    "ResourceModelBuilder",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "ShardRouter",
    "SingleFlight",
    "Verdict",
    "Overlap",
    "build_scenario",
    "check_consistency",
    "check_expression",
    "check_models",
    "cinder_behavior_model",
    "cinder_resource_model",
    "read_log",
    "register_scenario",
    "scenario_names",
    "tenant_from_token",
    "transport_failure",
    "verdict_from_record",
    "verdict_record",
    "write_log",
]
