"""Tests for the scenario registry behind ``CloudMonitor.for_service``."""

import pytest

from repro.cloud import PrivateCloud
from repro.core import (
    CloudMonitor,
    build_scenario,
    register_scenario,
    scenario_names,
)
from repro.errors import MonitorError


class TestRegistry:
    def test_shipped_scenarios_are_registered(self):
        assert {"cinder", "nova", "keystone"} <= set(scenario_names())

    def test_unknown_scenario_names_the_known_ones(self):
        cloud = PrivateCloud.paper_setup()
        with pytest.raises(MonitorError, match="cinder"):
            build_scenario("swift", cloud.network, "myProject")

    def test_lookup_is_case_insensitive(self):
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service("CINDER", cloud.network,
                                           "myProject")
        assert isinstance(monitor, CloudMonitor)

    def test_reregistering_requires_replace(self):
        def builder(network, project_id, **kwargs):
            raise AssertionError("never built")

        with pytest.raises(MonitorError, match="already registered"):
            register_scenario("cinder", builder)

    def test_custom_scenarios_can_register_and_build(self):
        built = []

        def builder(network, project_id, **kwargs):
            built.append((project_id, kwargs))
            return CloudMonitor.for_service("cinder", network, project_id,
                                            **kwargs)

        register_scenario("custom-test", builder)
        try:
            cloud = PrivateCloud.paper_setup()
            monitor = CloudMonitor.for_service(
                "custom-test", cloud.network, "myProject", enforcing=False)
            assert built == [("myProject", {"enforcing": False})]
            assert monitor.enforcing is False
        finally:
            # Leave the registry as the next test expects it.
            register_scenario("custom-test",
                              lambda *a, **k: None, replace=True)


class TestOtherServices:
    def test_nova_builds_through_for_service(self):
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service("nova", cloud.network,
                                           "myProject", enforcing=False)
        assert monitor.provider.roots == ("project", "server", "user")

    def test_keystone_builds_through_for_service(self):
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service("keystone", cloud.network,
                                           "myProject")
        assert monitor.provider.roots == ("projects", "project", "user")
