"""Build a running deployment from a :class:`MonitorConfig` alone.

This is the config-as-data payoff and the one way to stand up a
deployment: one declarative document builds the cloud, the monitor (or
sharded fleet), the resilience layer, the SLO catalog, and the alarm
rules.

Construction order is part of the contract -- manual clock (or
Observability) first, then the cloud, then the monitor -- because every
:class:`~repro.obs.clock.ManualClock` read advances virtual time, so an
extra or reordered read would shift every later timestamp and break the
recorded digest gates.  ``ResilientTransport`` construction reads no
clock, which is why the monitor can build its own transport from
``options.resilience``.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from ..alerting import AlarmRule, NotificationSink, build_sink
from ..cloud import PrivateCloud
from ..core.fleet import MonitorFleet
from ..core.monitor import CloudMonitor
from ..core.admission import (
    AdmissionOptions,
    DeadlineOptions,
    DegradationOptions,
)
from ..core.options import MonitorOptions, ResilienceOptions
from ..obs.sampling import SamplingOptions
from ..errors import ConfigError
from ..obs import Observability
from ..obs.clock import ManualClock
from ..obs.slo import (
    DEFAULT_WINDOWS,
    BucketCount,
    BurnWindow,
    CounterTotal,
    Linear,
    ObservationCount,
    Selector,
    SLO,
    SLOEngine,
)
from .schema import MonitorConfig

#: What :func:`build_from_config` returns: the cloud plus the monitor or
#: fleet registered on its network.
Deployment = Tuple[PrivateCloud, Union[CloudMonitor, MonitorFleet]]


def build_clock(config: MonitorConfig) -> Optional[ManualClock]:
    """The injected clock, or ``None`` for wall time."""
    if config.observability.clock == "manual":
        return ManualClock(start=config.observability.start,
                           tick=config.observability.tick)
    return None


def resilience_options(config: MonitorConfig) -> Optional[ResilienceOptions]:
    """The transport policy, or ``None`` when resilience is disabled."""
    section = config.resilience
    if not section.enabled:
        return None
    return ResilienceOptions(
        max_attempts=section.max_attempts,
        base_delay=section.base_delay,
        multiplier=section.multiplier,
        max_delay=section.max_delay,
        jitter=section.jitter,
        seed=section.seed,
        failure_threshold=section.failure_threshold,
        recovery_time=section.recovery_time)


def deadline_options(config: MonitorConfig) -> Optional[DeadlineOptions]:
    """The per-request deadline, or ``None`` when disabled."""
    section = config.deadline
    if not section.enabled:
        return None
    return DeadlineOptions(timeout=section.timeout)


def admission_options(config: MonitorConfig) -> Optional[AdmissionOptions]:
    """The admission-controller parameters, or ``None`` when disabled."""
    section = config.admission
    if not section.enabled:
        return None
    return AdmissionOptions(max_inflight=section.max_inflight,
                            queue_depth=section.queue_depth,
                            queue_seconds=section.queue_seconds)


def degradation_options(config: MonitorConfig,
                        ) -> Optional[DegradationOptions]:
    """The degradation-ladder parameters, or ``None`` when disabled."""
    section = config.degradation
    if not section.enabled:
        return None
    return DegradationOptions(escalate_after=section.escalate_after,
                              clear_after=section.clear_after,
                              alarm_escalation=section.alarm_escalation)


def sampling_options(config: MonitorConfig) -> Optional[SamplingOptions]:
    """The head/tail sampling policy, or ``None`` when disabled."""
    section = config.observability.sampling
    if not section.enabled:
        return None
    return SamplingOptions(rate=section.rate,
                           seed=section.seed,
                           slow_threshold=section.slow_threshold,
                           overhead=section.overhead)


def monitor_options(config: MonitorConfig) -> MonitorOptions:
    """The typed options object every monitor/shard is built with."""
    section = config.monitor
    return MonitorOptions(
        enforcing=section.enforcing,
        probe_planning=section.probe_planning,
        fanout=section.fanout,
        probe_cache=section.probe_cache,
        resilience=resilience_options(config),
        deadline=deadline_options(config),
        admission=admission_options(config),
        degradation=degradation_options(config),
        sampling=sampling_options(config))


def build_selector(spec: Mapping[str, Any]) -> Selector:
    """A canonical selector dict as a live registry selector."""
    kind = spec.get("kind")
    if kind == "counter":
        return CounterTotal(spec["name"], labels=spec.get("labels"))
    if kind == "observations":
        return ObservationCount(spec["name"], labels=spec.get("labels"))
    if kind == "bucket":
        return BucketCount(spec["name"], le=spec["le"],
                           labels=spec.get("labels"))
    if kind == "linear":
        return Linear([(term["coef"], build_selector(term["selector"]))
                       for term in spec["terms"]])
    raise ConfigError(f"unknown selector kind {kind!r}")


def build_slos(config: MonitorConfig) -> Optional[List[SLO]]:
    """The configured catalog, or ``None`` to keep the default one."""
    if not config.slos:
        return None
    return [SLO(spec.name, spec.description, spec.objective,
                good=build_selector(spec.good),
                total=build_selector(spec.total))
            for spec in config.slos]


def build_windows(config: MonitorConfig) -> Optional[Tuple[BurnWindow, ...]]:
    """The configured burn windows, or ``None`` for the default pair."""
    if not config.windows:
        return None
    return tuple(BurnWindow(spec.label, spec.seconds, spec.threshold)
                 for spec in config.windows)


def build_alarm_rules(config: MonitorConfig) -> Optional[List[AlarmRule]]:
    """The configured alarm rules, or ``None`` for one rule per SLO."""
    if not config.alarms:
        return None
    return [AlarmRule(name=spec.name, slo=spec.slo,
                      warn_breaches=spec.warn_breaches,
                      critical_breaches=spec.critical_breaches,
                      clear_after=spec.clear_after,
                      description=spec.description)
            for spec in config.alarms]


def build_sinks(config: MonitorConfig,
                events) -> Optional[List[NotificationSink]]:
    """The configured sinks, or ``None`` for the default event-log sink."""
    if not config.sinks:
        return None
    return [build_sink(spec.kind, name=spec.name, path=spec.path,
                       events=events)
            for spec in config.sinks]


def _apply_alerting(monitor: CloudMonitor, config: MonitorConfig) -> None:
    """Install the configured catalog/windows/alarms on one monitor.

    Only runs off the defaults when the config actually customizes
    something: the default path must not rebuild the SLO engine, whose
    construction takes one clock reading (it would shift every later
    timestamp under a manual clock and break the recorded digests).
    """
    slos = build_slos(config)
    windows = build_windows(config)
    rebuilt = slos is not None or windows is not None
    if rebuilt:
        monitor.slos = SLOEngine(
            monitor.obs.metrics, clock=monitor.obs.clock, slos=slos,
            windows=windows if windows is not None else DEFAULT_WINDOWS)
    rules = build_alarm_rules(config)
    sinks = build_sinks(config, monitor.obs.events)
    if rebuilt or rules is not None or sinks is not None:
        monitor.configure_alarms(rules=rules, sinks=sinks)


def build_fleet_from_config(config: MonitorConfig,
                            register: bool = True) -> Deployment:
    """Stand up a :class:`MonitorFleet` deployment from *config*.

    ``build_from_config`` routes here for ``fleet.shards > 1``; calling
    this directly forces a fleet even at one shard (a single-shard fleet
    is still a fleet -- the dispatcher, merged views, and batched
    flushing all apply).
    """
    config.require_valid()
    options = monitor_options(config)
    scenario = config.scenario
    extra = {"compiled": True} if scenario.compiled else {}
    # Order: shared clock, cloud, fleet.
    clock = build_clock(config)
    cloud = PrivateCloud.paper_setup(
        project_id=scenario.project_id,
        volume_quota=config.cloud.volume_quota,
        release2=config.cloud.release2)
    fleet = MonitorFleet.for_service(
        scenario.name, cloud.network, scenario.project_id,
        shards=config.fleet.shards, clock=clock,
        router_seed=config.fleet.router_seed,
        options=options, **extra)
    for shard in fleet.shards:
        _apply_alerting(shard, config)
    if register:
        cloud.network.register(scenario.register_as, fleet)
    return cloud, fleet


def build_from_config(config: MonitorConfig,
                      register: bool = True,
                      observability: Optional[Observability] = None,
                      ) -> Deployment:
    """Stand up the whole deployment a config document describes.

    Returns ``(cloud, monitor)`` for ``fleet.shards == 1`` and
    ``(cloud, fleet)`` otherwise; with *register* the monitor's app (or
    the fleet) is registered on the cloud network under
    ``scenario.register_as``.  A caller-held *observability*
    (single-monitor deployments only) overrides the config's
    ``observability`` section, for callers that already hold the clock
    and registries they want the monitor to report into.
    """
    if config.fleet.shards > 1:
        if observability is not None:
            raise ConfigError(
                "a shared observability cannot be injected into a fleet "
                "deployment; every shard builds its own on the shared "
                "clock")
        return build_fleet_from_config(config, register=register)

    config.require_valid()
    options = monitor_options(config)
    scenario = config.scenario
    extra = {"compiled": True} if scenario.compiled else {}

    # Single-monitor order: observability first -- its ManualClock must
    # be constructed before the cloud -- then the cloud, then the
    # monitor.
    if observability is None:
        clock = build_clock(config)
        observability = (Observability(clock=clock)
                         if clock is not None else None)
    cloud = PrivateCloud.paper_setup(
        project_id=scenario.project_id,
        volume_quota=config.cloud.volume_quota,
        release2=config.cloud.release2)
    monitor = CloudMonitor.for_service(
        scenario.name, cloud.network, scenario.project_id,
        observability=observability, options=options, **extra)
    _apply_alerting(monitor, config)
    if register:
        cloud.network.register(scenario.register_as, monitor.app)
    return cloud, monitor
