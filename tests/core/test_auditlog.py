"""Tests for audit-log persistence and the cached-identity provider."""

import io
import json

import pytest

from repro.cloud import PrivateCloud, paper_mutants
from repro.config import build_from_config
from repro.core import CloudMonitor, read_log, write_log
from repro.core.auditlog import verdict_from_json, verdict_to_json
from repro.core.monitor import CloudStateProvider, MonitorVerdict
from repro.uml import Trigger
from repro.errors import MonitorError
from repro.validation import TestOracle, paper_config, localize

MONITOR = "http://cmonitor/cmonitor/volumes"


def run_session(mutant=None):
    cloud, monitor = build_from_config(paper_config())
    if mutant is not None:
        mutant.apply(cloud)
    TestOracle(cloud, monitor).run()
    return monitor


class TestRoundTrip:
    def test_single_verdict_round_trip(self):
        monitor = run_session()
        original = monitor.log[0]
        restored = verdict_from_json(verdict_to_json(original))
        assert restored.trigger == original.trigger
        assert restored.verdict == original.verdict
        assert restored.security_requirements == \
            original.security_requirements
        assert restored.snapshot_bytes == original.snapshot_bytes

    def test_file_round_trip(self, tmp_path):
        monitor = run_session()
        target = str(tmp_path / "audit.jsonl")
        count = write_log(monitor.log, target)
        assert count == len(monitor.log)
        restored = read_log(target)
        assert [v.verdict for v in restored] == \
            [v.verdict for v in monitor.log]

    def test_stream_round_trip(self):
        monitor = run_session()
        buffer = io.StringIO()
        write_log(monitor.log, buffer)
        buffer.seek(0)
        restored = read_log(buffer)
        assert len(restored) == len(monitor.log)

    def test_append_mode_accumulates(self, tmp_path):
        monitor = run_session()
        target = tmp_path / "audit.jsonl"
        with open(target, "a", encoding="utf-8") as handle:
            write_log(monitor.log[:2], handle)
            write_log(monitor.log[2:4], handle)
        assert len(read_log(str(target))) == 4

    def test_blank_lines_skipped(self):
        monitor = run_session()
        buffer = io.StringIO(verdict_to_json(monitor.log[0]) + "\n\n\n")
        assert len(read_log(buffer)) == 1

    def test_malformed_line_raises(self):
        with pytest.raises(MonitorError):
            verdict_from_json("{not json")
        with pytest.raises(MonitorError):
            verdict_from_json('{"operation": "nonsense"}')

    def test_snapshot_bytes_round_trip_exact(self):
        monitor = run_session()
        for original in monitor.log:
            restored = verdict_from_json(verdict_to_json(original))
            assert restored.snapshot_bytes == original.snapshot_bytes
        assert any(v.snapshot_bytes > 0 for v in monitor.log)

    def test_non_ascii_reason_round_trip(self):
        verdict = MonitorVerdict(
            trigger=Trigger("POST", "volumes"),
            verdict="pre-blocked",
            pre_holds=False,
            forwarded=False,
            response_status=None,
            post_holds=None,
            message="quota dépassée — объём ≥ 5 ✗",
            security_requirements=["SR1"],
            snapshot_bytes=0,
        )
        line = verdict_to_json(verdict)
        restored = verdict_from_json(line)
        assert restored.message == "quota dépassée — объём ≥ 5 ✗"
        # The wire format stays valid JSONL whatever the encoding path.
        restored_again = verdict_from_json(
            line.encode("utf-8").decode("utf-8"))
        assert restored_again.message == restored.message

    def test_correlation_id_round_trip(self):
        monitor = run_session()
        for original in monitor.log:
            assert original.correlation_id is not None
            restored = verdict_from_json(verdict_to_json(original))
            assert restored.correlation_id == original.correlation_id

    def test_legacy_line_without_correlation_id(self):
        monitor = run_session()
        record = json.loads(verdict_to_json(monitor.log[0]))
        del record["correlation_id"]
        restored = verdict_from_json(json.dumps(record))
        assert restored.correlation_id is None
        assert restored.verdict == monitor.log[0].verdict

    def test_file_round_trip_preserves_correlation_ids(self, tmp_path):
        monitor = run_session()
        target = str(tmp_path / "audit.jsonl")
        write_log(monitor.log, target)
        restored = read_log(target)
        assert [v.correlation_id for v in restored] == \
            [v.correlation_id for v in monitor.log]

    def test_loaded_log_feeds_localizer(self, tmp_path):
        monitor = run_session(mutant=paper_mutants()[0])
        target = str(tmp_path / "audit.jsonl")
        write_log(monitor.log, target)
        diagnoses = localize(read_log(target))
        assert diagnoses
        assert diagnoses[0].action == "volume:delete"


class TestIdentityCache:
    def test_cache_reduces_probe_count(self):
        cloud = PrivateCloud.paper_setup()
        token = cloud.paper_tokens()["bob"]
        cached = CloudStateProvider(cloud.network, "myProject",
                                    cache_identity=True)
        uncached = CloudStateProvider(cloud.network, "myProject")
        for provider in (cached, uncached):
            provider.bindings(token)
            provider.bindings(token)
        assert cached.probe_count == uncached.probe_count - 1

    def test_cached_identity_correct(self):
        cloud = PrivateCloud.paper_setup()
        token = cloud.paper_tokens()["alice"]
        provider = CloudStateProvider(cloud.network, "myProject",
                                      cache_identity=True)
        first = provider.bindings(token)["user"]
        second = provider.bindings(token)["user"]
        assert first == second
        assert second["roles"] == ["admin"]

    def test_invalidate_forces_reprobe(self):
        cloud = PrivateCloud.paper_setup()
        token = cloud.paper_tokens()["bob"]
        provider = CloudStateProvider(cloud.network, "myProject",
                                      cache_identity=True)
        provider.bindings(token)
        count_after_first = provider.probe_count
        provider.invalidate_identity_cache()
        provider.bindings(token)
        assert provider.probe_count == count_after_first + 4

    def test_cache_does_not_mask_role_changes_after_invalidation(self):
        cloud = PrivateCloud.paper_setup()
        token = cloud.paper_tokens()["carol"]
        provider = CloudStateProvider(cloud.network, "myProject",
                                      cache_identity=True)
        assert provider.bindings(token)["user"]["roles"] == ["user"]
        cloud.keystone.rbac.assign("member", "myProject", user_id="carol")
        # Stale until invalidated -- the documented contract.
        assert provider.bindings(token)["user"]["roles"] == ["user"]
        provider.invalidate_identity_cache()
        assert provider.bindings(token)["user"]["roles"] == [
            "member", "user"]

    def test_monitored_session_with_cache_is_equivalent(self):
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject", enforcing=False)
        monitor.provider.cache_identity = True
        cloud.network.register("cmonitor", monitor.app)
        oracle = TestOracle(cloud, monitor)
        oracle.run()
        assert monitor.violations() == []
        assert monitor.coverage.coverage == 1.0
