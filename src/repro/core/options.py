"""Typed construction options for monitors and fleets.

Two frozen dataclasses carry every tuning knob through the construction
chain, so adding a knob touches one field instead of five signatures:

* :class:`ResilienceOptions` -- the full retry + circuit-breaker
  parameter set, able to build a
  :class:`~repro.core.resilience.ResilientTransport` on demand;
* :class:`MonitorOptions` -- everything that shapes one monitor shard
  (mode, planning, fan-out, probe cache, resilience, overload controls,
  sampling).

``CloudMonitor`` and ``MonitorFleet`` accept a single ``options=``
object.  A :class:`~repro.config.MonitorConfig` derives its options
through :func:`repro.config.builder.monitor_options`; deployments are
built from a config, and ``options=`` is the low-level hook under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import MonitorError
from ..obs.sampling import SamplingOptions
from .admission import AdmissionOptions, DeadlineOptions, DegradationOptions
from .resilience import ResilientTransport, RetryPolicy


@dataclass(frozen=True)
class ResilienceOptions:
    """Retry + circuit-breaker parameters as one typed value.

    Field defaults mirror :class:`~repro.core.resilience.RetryPolicy`
    and :class:`~repro.core.resilience.ResilientTransport` exactly, so
    ``ResilienceOptions()`` builds the same transport a bare
    ``ResilientTransport(network)`` would.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    failure_threshold: int = 5
    recovery_time: float = 30.0

    @classmethod
    def from_policy(cls, policy: RetryPolicy,
                    failure_threshold: int = 5,
                    recovery_time: float = 30.0) -> "ResilienceOptions":
        """Capture an existing :class:`RetryPolicy` as options."""
        return cls(max_attempts=policy.max_attempts,
                   base_delay=policy.base_delay,
                   multiplier=policy.multiplier,
                   max_delay=policy.max_delay,
                   jitter=policy.jitter,
                   seed=policy.seed,
                   failure_threshold=failure_threshold,
                   recovery_time=recovery_time)

    def retry_policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` these options describe."""
        return RetryPolicy(max_attempts=self.max_attempts,
                           base_delay=self.base_delay,
                           multiplier=self.multiplier,
                           max_delay=self.max_delay,
                           jitter=self.jitter,
                           seed=self.seed)

    def build_transport(self, network,
                        observability=None) -> ResilientTransport:
        """A fresh :class:`ResilientTransport` over *network*."""
        return ResilientTransport(network,
                                  policy=self.retry_policy(),
                                  failure_threshold=self.failure_threshold,
                                  recovery_time=self.recovery_time,
                                  observability=observability)


@dataclass(frozen=True)
class MonitorOptions:
    """Everything that shapes one monitor shard, as one value.

    * ``enforcing`` -- block failing pre-conditions (Figure-2 proxy
      mode) instead of audit mode;
    * ``probe_planning`` -- demand-driven probe plans (the default)
      versus the paper's probe-everything rounds;
    * ``fanout`` -- concurrent probe fan-out width (1 = serial);
    * ``probe_cache`` -- when true, the monitor builds its own
      cross-request :class:`~repro.core.probecache.ProbeCache` (one per
      fleet shard, never shared);
    * ``resilience`` -- when set, the monitor builds its own
      :class:`~repro.core.resilience.ResilientTransport` from these
      parameters (unless an explicit transport is installed);
    * ``deadline`` / ``admission`` / ``degradation`` -- the overload
      controls from :mod:`repro.core.admission`; all three default to
      ``None`` (off), which keeps the monitored path byte-identical to
      the pre-admission monitor;
    * ``sampling`` -- head/tail trace sampling and obs-overhead
      self-accounting (:class:`~repro.obs.sampling.SamplingOptions`);
      ``None`` (the default) retains every trace and adds zero clock
      reads, keeping the recorded digest gates byte-identical.
    """

    enforcing: bool = True
    probe_planning: bool = True
    fanout: int = 1
    probe_cache: bool = False
    resilience: Optional[ResilienceOptions] = None
    deadline: Optional[DeadlineOptions] = None
    admission: Optional[AdmissionOptions] = None
    degradation: Optional[DegradationOptions] = None
    sampling: Optional[SamplingOptions] = None

    def __post_init__(self) -> None:
        if int(self.fanout) < 1:
            raise MonitorError(
                f"fanout must be >= 1, got {self.fanout}")

