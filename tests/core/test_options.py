"""Typed monitor and resilience options."""

import warnings

import pytest

from repro.cloud import PrivateCloud
from repro.core import (
    CloudMonitor,
    MonitorFleet,
    MonitorOptions,
    ResilienceOptions,
    RetryPolicy,
)
from repro.core.resilience import ResilientTransport
from repro.errors import MonitorError


class TestResilienceOptions:
    def test_defaults_mirror_retry_policy(self):
        built, stock = ResilienceOptions().retry_policy(), RetryPolicy()
        for field in ("max_attempts", "base_delay", "multiplier",
                      "max_delay", "jitter", "seed"):
            assert getattr(built, field) == getattr(stock, field)

    def test_from_policy_round_trips(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.2, seed=11)
        options = ResilienceOptions.from_policy(policy,
                                                failure_threshold=2)
        assert options.max_attempts == 5
        assert options.base_delay == 0.2
        assert options.retry_policy().seed == 11
        assert options.failure_threshold == 2

    def test_build_transport(self):
        cloud = PrivateCloud.paper_setup()
        transport = ResilienceOptions(seed=11).build_transport(
            cloud.network)
        assert isinstance(transport, ResilientTransport)
        assert transport.policy.seed == 11


class TestMonitorOptions:
    def test_defaults(self):
        options = MonitorOptions()
        assert options.enforcing is True
        assert options.probe_planning is True
        assert options.fanout == 1
        assert options.probe_cache is False
        assert options.resilience is None

    def test_fanout_floor_enforced(self):
        with pytest.raises(MonitorError):
            MonitorOptions(fanout=0)


class TestResolveOptions:
    """How a monitor folds its ``enforcing`` / ``probe_planning``
    keywords over the ``options=`` value it is given."""

    @staticmethod
    def build(**kwargs):
        cloud = PrivateCloud.paper_setup()
        return CloudMonitor.for_service("cinder", cloud.network,
                                        "myProject", **kwargs)

    def test_no_arguments_is_defaults_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.build().options == MonitorOptions()

    def test_first_class_keywords_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor = self.build(enforcing=False, probe_planning=False)
        assert monitor.options.enforcing is False
        assert monitor.options.probe_planning is False

    def test_keywords_override_the_base_options(self):
        base = MonitorOptions(enforcing=True, fanout=2)
        monitor = self.build(options=base, enforcing=False)
        assert monitor.options.enforcing is False
        assert monitor.options.fanout == 2  # untouched fields survive
        monitor.close()


class TestConstructorDeprecations:
    """Building through ``options=`` raises no deprecation warning."""

    def test_monitor_accepts_options_silently(self):
        cloud = PrivateCloud.paper_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            monitor = CloudMonitor.for_service(
                "cinder", cloud.network, "myProject",
                options=MonitorOptions(enforcing=False, fanout=2))
        assert monitor.fanout == 2
        monitor.close()

    def test_fleet_options_propagate_to_every_shard(self):
        cloud = PrivateCloud.paper_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fleet = MonitorFleet.for_service(
                "cinder", cloud.network, "myProject", shards=3,
                options=MonitorOptions(enforcing=False, fanout=2))
        assert [shard.fanout for shard in fleet.shards] == [2, 2, 2]
        assert all(not shard.enforcing for shard in fleet.shards)
        fleet.close()
