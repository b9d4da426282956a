"""Tests for the test oracle and request batteries."""

import pytest

from repro.config import build_from_config
from repro.core import Verdict
from repro.validation import (
    TestOracle,
    paper_config,
    extended_battery,
    standard_battery,
)


@pytest.fixture()
def oracle():
    cloud, monitor = build_from_config(paper_config())
    return TestOracle(cloud, monitor)


class TestStandardBattery:
    def test_covers_all_requirements(self):
        # Both an authorized and an unauthorized caller per requirement.
        steps = standard_battery()
        methods = {step.method for step in steps}
        assert methods == {"GET", "PUT", "POST", "DELETE"}
        users = {step.user for step in steps}
        assert users == {"alice", "bob", "carol"}

    def test_denied_steps_present(self):
        names = [step.name for step in standard_battery()]
        assert "post-user-denied" in names
        assert "delete-member-denied" in names
        assert "put-user-denied" in names

    def test_extended_adds_functional_edges(self):
        standard_names = {step.name for step in standard_battery()}
        extended_names = {step.name for step in extended_battery()}
        assert standard_names < extended_names
        assert "post-at-quota" in extended_names
        assert "delete-in-use" in extended_names


class TestOracleRuns:
    def test_standard_run_is_clean(self, oracle):
        oracle.run()
        assert oracle.violations == []
        assert len(oracle.results) == len(standard_battery())

    def test_extended_run_is_clean(self, oracle):
        oracle.run(extended_battery())
        assert oracle.violations == []

    def test_results_record_names_and_codes(self, oracle):
        oracle.run()
        by_name = dict(oracle.results)
        assert by_name["post-admin"].status_code == 202
        assert by_name["post-user-denied"].status_code == 403
        assert by_name["get-collection-user"].status_code == 200
        assert by_name["delete-admin"].status_code == 204

    def test_ensure_volume_creates_only_when_missing(self, oracle):
        first = oracle._ensure_volume()
        second = oracle._ensure_volume()
        assert first == second

    def test_violated_requirements_empty_on_clean_cloud(self, oracle):
        oracle.run()
        assert oracle.violated_requirements() == []

    def test_oracle_monitor_log_coverage(self, oracle):
        oracle.run()
        coverage = oracle.monitor.coverage
        assert coverage.coverage == 1.0  # every Table-I requirement exercised

    def test_quota_fill_prepare(self, oracle):
        step = next(step for step in extended_battery()
                    if step.name == "post-at-quota")
        response = oracle.run_step(step)
        # Audit mode: the monitor forwards, the correct cloud rejects (413),
        # both agree the request is invalid.
        assert response.status_code == 413
        assert oracle.monitor.log[-1].verdict == Verdict.INVALID_AGREED

    def test_in_use_delete_prepare(self, oracle):
        step = next(step for step in extended_battery()
                    if step.name == "delete-in-use")
        response = oracle.run_step(step)
        assert response.status_code == 400
        assert oracle.monitor.log[-1].verdict == Verdict.INVALID_AGREED
