"""Tests for the fleet dispatcher's API surface and merged views."""

import io
import json

import pytest

from repro.config import build_from_config
from repro.core import MonitorFleet, ShardRouter
from repro.errors import MonitorError
from repro.httpsim import Request
from repro.validation import chaos_config
from repro.workloads import WorkloadRunner, make_workload

URL = "http://cmonitor/cmonitor/volumes"


def build_fleet(shards, fanout=1):
    return build_from_config(chaos_config(
        {"fleet": {"shards": shards}, "monitor": {"fanout": fanout}}))


def run_workload(fleet, cloud, count=12, seed=7):
    runner = WorkloadRunner(cloud)
    runner.execute(make_workload(count, seed=seed), monitored=True)


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(MonitorError):
            ShardRouter(0)
        with pytest.raises(MonitorError):
            MonitorFleet([])

    def test_rejects_router_shard_mismatch(self):
        cloud, fleet = build_fleet(2)
        try:
            with pytest.raises(MonitorError):
                MonitorFleet(fleet.shards, router=ShardRouter(3))
        finally:
            fleet.close()

    def test_context_manager_closes_schedulers(self):
        cloud, fleet = build_fleet(2, fanout=4)
        with fleet:
            token = cloud.paper_tokens()["alice"]
            response = fleet.handle(
                Request("GET", URL, headers={"X-Auth-Token": token}))
            assert response.status_code == 200
        for monitor in fleet.shards:
            assert monitor.provider.scheduler is not None


class TestDispatch:
    def test_dispatched_counts_account_for_every_request(self):
        cloud, fleet = build_fleet(3)
        try:
            run_workload(fleet, cloud, count=12)
        finally:
            fleet.close()
        assert sum(fleet.dispatched) == 12
        assert len(fleet.log) == 12

    def test_shard_for_agrees_with_where_verdicts_land(self):
        cloud, fleet = build_fleet(3)
        try:
            tokens = cloud.paper_tokens()
            for token in tokens.values():
                request = Request("GET", URL,
                                  headers={"X-Auth-Token": token})
                expected = fleet.shard_for(request)
                before = len(fleet.shards[expected].log)
                fleet.handle(request)
                assert len(fleet.shards[expected].log) == before + 1
        finally:
            fleet.close()


class TestMergedViews:
    def test_stats_shape_and_totals(self):
        cloud, fleet = build_fleet(2)
        try:
            run_workload(fleet, cloud, count=10)
        finally:
            fleet.close()
        stats = fleet.stats()
        assert stats["shards"] == 2
        assert stats["requests"] == 10
        assert len(stats["per_shard"]) == 2
        assert sum(entry["verdicts"] for entry in stats["per_shard"]) == 10
        assert stats["violations"] == len(fleet.violations())

    def test_merged_metrics_sum_shard_counters(self):
        cloud, fleet = build_fleet(3)
        try:
            run_workload(fleet, cloud, count=12)
        finally:
            fleet.close()
        merged = fleet.merged_metrics()
        per_shard = sum(
            monitor.obs.metrics.total("monitor_requests_total")
            for monitor in fleet.shards)
        assert merged.total("monitor_requests_total") == per_shard > 0

    def test_slo_report_covers_the_merged_traffic(self):
        cloud, fleet = build_fleet(2)
        try:
            run_workload(fleet, cloud, count=10)
        finally:
            fleet.close()
        report = fleet.slo_report()
        assert report["slos"]
        assert report["overall"] in ("ok", "warning", "breached")


class TestBatchedPersistence:
    def test_flush_audit_writes_each_row_once_in_arrival_order(self):
        cloud, fleet = build_fleet(2)
        try:
            run_workload(fleet, cloud, count=8)
            first = io.StringIO()
            assert fleet.flush_audit(first) == 8
            # Nothing new: the cursor advanced.
            assert fleet.flush_audit(first) == 0
            run_workload(fleet, cloud, count=4, seed=11)
            second = io.StringIO()
            assert fleet.flush_audit(second) == 4
        finally:
            fleet.close()
        rows = first.getvalue().splitlines()
        assert len(rows) == 8
        ids = [json.loads(row)["correlation_id"] for row in rows]
        assert ids == sorted(ids)

    def test_flush_audit_appends_to_a_path(self, tmp_path):
        cloud, fleet = build_fleet(2)
        destination = tmp_path / "audit.jsonl"
        try:
            run_workload(fleet, cloud, count=6)
            fleet.flush_audit(str(destination))
            run_workload(fleet, cloud, count=3, seed=11)
            fleet.flush_audit(str(destination))
        finally:
            fleet.close()
        lines = destination.read_text().splitlines()
        assert len(lines) == 9

    def test_flush_events_tags_records_with_their_shard(self):
        cloud, fleet = build_fleet(2)
        try:
            run_workload(fleet, cloud, count=8)
            sink = io.StringIO()
            written = fleet.flush_events(sink)
            assert written > 0
            assert fleet.flush_events(sink) == 0
        finally:
            fleet.close()
        shards_seen = set()
        for line in sink.getvalue().splitlines():
            payload = json.loads(line)
            assert payload["shard"] in (0, 1)
            shards_seen.add(payload["shard"])
        assert shards_seen == {0, 1}
