"""Tests for demand-driven probe planning and the forwarding-path fixes."""

import pytest

from repro.cloud import PrivateCloud
from repro.config import build_from_config
from repro.core import CloudMonitor, ProbePlan, Verdict
from repro.core.monitor import MonitoredOperation
from repro.core.planning import PROBE_ROOTS
from repro.httpsim import Request
from repro.obs import Observability
from repro.uml import Trigger
from repro.validation import TestOracle, paper_config, standard_battery
from repro.workloads import WorkloadRunner, make_workload

MONITOR = "http://cmonitor/cmonitor/volumes"


@pytest.fixture()
def setup():
    cloud = PrivateCloud.paper_setup(volume_quota=3)
    tokens = cloud.paper_tokens()
    monitor = CloudMonitor.for_service(
        "cinder", cloud.network, "myProject", enforcing=True)
    cloud.network.register("cmonitor", monitor.app)
    clients = {name: cloud.client(token) for name, token in tokens.items()}
    return cloud, monitor, clients


class TestProbePlanAnalysis:
    def test_plans_are_memoized_per_root_set(self):
        _, monitor = build_from_config(paper_config())
        contract = next(iter(monitor.contracts.values()))
        assert contract.probe_plan() is contract.probe_plan()
        assert contract.probe_plan(PROBE_ROOTS) is \
            contract.probe_plan(PROBE_ROOTS)

    def test_collection_get_pre_phase_skips_volume(self):
        _, monitor = build_from_config(paper_config())
        contract = monitor.contracts[Trigger("GET", "volumes")]
        plan = contract.probe_plan()
        assert "volume" not in plan.pre_phase_roots
        assert {"project", "quota_sets", "user"} <= plan.pre_phase_roots

    def test_post_phase_skips_snapshot_only_roots(self):
        # DELETE(volume): `volume.status` and `user.roles` appear only in
        # the pre()-wrapped antecedents; the target invariants and effects
        # read project/quota_sets against the post-state.
        _, monitor = build_from_config(paper_config())
        plan = monitor.contracts[Trigger("DELETE", "volume")].probe_plan()
        assert "volume" in plan.pre_phase_roots
        assert "user" in plan.pre_phase_roots
        assert plan.post_phase_roots == {"project", "quota_sets"}

    def test_describe_is_stable(self):
        plan = ProbePlan(["user"], ["project"], ["project"])
        assert plan.describe() == "pre:project,user|post:project"


class TestPartialBindings:
    def test_bindings_default_covers_every_root(self, setup):
        cloud, monitor, _ = setup
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        bindings = monitor.provider.bindings(token)
        assert set(bindings) == set(PROBE_ROOTS)

    def test_bindings_with_roots_probes_only_those(self, setup):
        cloud, monitor, _ = setup
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        before = monitor.provider.probe_count
        bindings = monitor.provider.bindings(token, roots={"quota_sets"})
        assert set(bindings) == {"quota_sets"}
        assert monitor.provider.probe_count == before + 1

    def test_skipped_probes_are_counted(self, setup):
        cloud, monitor, _ = setup
        obs = monitor.obs
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        monitor.provider.bindings(token, roots={"quota_sets"})
        counter = obs.metrics.counter(
            "monitor_probes_skipped_total",
            "GET probes the demand-driven plan proved unnecessary")
        assert counter.value >= 3  # project (2) + user (1)


class TestPlannedVersusUnplanned:
    """Planning must change the probe bill, never the verdicts."""

    @staticmethod
    def _run(probe_planning):
        workload = make_workload(80, seed=7)
        cloud, monitor = build_from_config(
            paper_config(probe_planning=probe_planning))
        runner = WorkloadRunner(cloud, monitor)
        histogram = runner.execute(workload, monitored=True)
        rows = [v.to_dict() for v in monitor.log]
        coverage = {rid: (r.exercised, r.passed, r.failed)
                    for rid, r in monitor.coverage.records.items()}
        return histogram, rows, coverage, monitor.provider.probe_count

    def test_verdicts_and_coverage_identical_probes_fewer(self):
        planned = self._run(True)
        unplanned = self._run(False)
        assert planned[0] == unplanned[0]          # status histogram
        assert planned[1] == unplanned[1]          # full audit-log rows
        assert planned[2] == unplanned[2]          # coverage counters
        assert planned[3] < unplanned[3]           # strictly fewer probes

    def test_battery_verdicts_identical(self):
        def run(probe_planning):
            cloud, monitor = build_from_config(
                paper_config(probe_planning=probe_planning))
            oracle = TestOracle(cloud, monitor)
            results = oracle.run(standard_battery())
            return ([(name, response.status_code)
                     for name, response in results],
                    [v.to_dict() for v in monitor.log])

        assert run(True) == run(False)

    def test_planned_trace_carries_plan_tag(self, setup):
        cloud, monitor, clients = setup
        clients["alice"].get(MONITOR)
        trace = monitor.obs.tracer.finished[-1]
        assert "probe_plan" in trace.tags
        assert trace.tags["probe_plan"].startswith("pre:")


class TestProbeCostTable:
    """The planner's cost table matches what probing actually costs."""

    def test_costs_pin_real_probe_count_deltas(self):
        from repro.core import PROBE_COSTS, CloudStateProvider

        cloud = PrivateCloud.paper_setup(volume_quota=3)
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        created = cloud.client(token).post(
            "http://cinder/v3/myProject/volumes",
            {"volume": {"name": "seed", "size": 1}})
        volume_id = created.json()["volume"]["id"]

        provider = CloudStateProvider(cloud.network, "myProject")
        for root, cost in sorted(PROBE_COSTS.items()):
            before = provider.probe_count
            provider.bindings(token, item_id=volume_id, roots=[root])
            actual = provider.probe_count - before
            assert actual == cost, (
                f"root {root!r}: PROBE_COSTS says {cost} GETs, "
                f"probing actually issued {actual}")

    def test_skipped_accounting_uses_the_table(self):
        from repro.core import PROBE_COSTS, CloudStateProvider
        from repro.obs import Observability

        cloud = PrivateCloud.paper_setup(volume_quota=3)
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        obs = Observability()
        provider = CloudStateProvider(cloud.network, "myProject",
                                      observability=obs)
        provider.bindings(token, item_id="some-volume", roots=[])
        skipped = obs.metrics.counter_value("monitor_probes_skipped_total")
        assert skipped == sum(PROBE_COSTS.values())


class TestRootsKeywordIsMandatory:
    """``bindings(roots=...)`` is part of the provider contract now."""

    def test_provider_without_roots_keyword_breaks_loudly(self):
        from repro.core import CloudStateProvider

        class LegacyProvider(CloudStateProvider):
            def bindings(self, token, item_id=None):  # no roots kw
                return super().bindings(token, item_id)

        cloud = PrivateCloud.paper_setup(volume_quota=3)
        legacy = LegacyProvider(cloud.network, "myProject")
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        with pytest.raises(TypeError):
            legacy.context(token, None, roots=None)


class TestQueryStringForwarding:
    """Regression: the incoming query string must reach the cloud."""

    def test_params_reach_the_cloud_application(self, setup):
        cloud, monitor, clients = setup
        seen = []

        def spy(request):
            seen.append((request.method, request.path, dict(request.params)))
            return None  # let the request through untouched

        cloud.network.inject_fault("cinder", spy)
        response = clients["alice"].get(MONITOR + "?limit=1&marker=abc")
        assert response.status_code == 200
        forwarded = [entry for entry in seen
                     if entry[2] == {"limit": "1", "marker": "abc"}]
        assert forwarded, f"no cinder request carried the params: {seen}"
        assert forwarded[0][0] == "GET"
        assert forwarded[0][1] == "/v3/myProject/volumes"

    def test_template_query_survives_param_merge(self):
        operation = MonitoredOperation(
            Trigger("GET", "volumes"), "cmonitor/volumes",
            "http://cinder/v3/p1/volumes?all_tenants=1")
        request = Request("GET", "http://cmonitor/cmonitor/volumes?limit=1")
        forwarded = Request("GET", operation.cloud_url({}),
                            body=request.body)
        forwarded.params.update(request.params)
        assert forwarded.params == {"all_tenants": "1", "limit": "1"}


class TestItemIdCapture:
    """Regression: multi-capture routes must bind the declared item id."""

    def test_item_capture_is_last_template_capture(self):
        operation = MonitoredOperation(
            Trigger("GET", "volume"),
            "cmonitor/<str:project_id>/volumes/<str:volume_id>",
            "http://cinder/v3/{project_id}/volumes/{volume_id}")
        assert operation.item_capture == "volume_id"

    def test_collection_route_has_no_item_capture(self):
        operation = MonitoredOperation(
            Trigger("GET", "volumes"), "cmonitor/volumes",
            "http://cinder/v3/p1/volumes")
        assert operation.item_capture is None

    def test_multi_capture_route_binds_the_right_resource(self, setup):
        cloud, monitor, clients = setup
        created = clients["alice"].post(MONITOR, {"volume": {"name": "m"}})
        volume_id = created.json()["volume"]["id"]

        operation = MonitoredOperation(
            Trigger("GET", "volume"),
            "cmonitor/<str:project_id>/volumes/<str:volume_id>",
            "http://cinder/v3/{project_id}/volumes/{volume_id}")
        token = cloud.keystone.issue_token("alice", "alice-secret",
                                           "myProject")
        request = Request(
            "GET",
            f"http://cmonitor/cmonitor/myProject/volumes/{volume_id}",
            headers={"X-Auth-Token": token})
        # Insertion order puts the scope capture first: the fragile
        # first-capture heuristic would probe "myProject" as the volume id
        # and block the request on `volume.id->size() = 1`.
        request.path_args = {"project_id": "myProject",
                             "volume_id": volume_id}
        response, verdict = monitor.monitor_request(operation, request)
        assert verdict.verdict == Verdict.VALID
        assert response.status_code == 200


class TestIdentityCachePoisoning:
    """Regression: mutating a returned identity must not poison the cache."""

    def test_mutating_returned_identity_is_harmless(self, setup):
        cloud, monitor, _ = setup
        provider = monitor.provider
        provider.cache_identity = True
        token = cloud.keystone.issue_token("carol", "carol-secret",
                                           "myProject")
        first = provider._identity(token)
        assert "proj_administrator" not in first["roles"]
        # A buggy (or malicious) caller escalates its own copy...
        first["roles"].append("proj_administrator")
        first["groups"].clear()
        # ...and later requests with the same token stay unaffected.
        second = provider._identity(token)
        assert "proj_administrator" not in second["roles"]
        assert second["groups"] != []

    def test_mutating_before_store_does_not_leak_either(self, setup):
        cloud, monitor, _ = setup
        provider = monitor.provider
        provider.cache_identity = True
        token = cloud.keystone.issue_token("bob", "bob-secret", "myProject")
        miss = provider._identity(token)     # populates the cache
        miss["roles"].append("proj_administrator")
        hit = provider._identity(token)      # served from the cache
        assert "proj_administrator" not in hit["roles"]
