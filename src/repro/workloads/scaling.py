"""Scaling experiments: synthetic model families and fleet throughput.

Section VI-B discusses scalability of the modelling approach; the SCALE
bench measures how contract generation and code generation cost grow with
model size.  :func:`synthetic_models` builds a family of consistent
resource + behavioral models: *n* collection/member resource pairs, each
member with a quota-style three-state lifecycle (the Cinder pattern
repeated n times).

The second half of this module measures the *runtime* scaling axis: how
monitored-request throughput grows with the shard count of a
:class:`~repro.core.fleet.MonitorFleet`.  The substrate is given a
``time.sleep``-based per-request latency (the realistic regime -- a
monitor is I/O-bound on its probes), so shard driver threads genuinely
overlap their waits and the measured speedup reflects the architecture,
not GIL accounting.  :func:`measure_fleet_throughput` runs one shape;
:func:`scaling_sweep` runs the 1..N ladder; the trajectory helpers
persist sweeps to ``BENCH_scaling.json`` so regressions are visible
across commits (``scripts/check_bench_trajectory.py`` gates on it).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloud import PrivateCloud
from ..core.fleet import MonitorFleet
from ..core.options import MonitorOptions
from ..httpsim import Latency, Request
from ..obs.clock import ManualClock, system_clock
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.overhead import OVERHEAD_HISTOGRAM
from ..obs.sampling import (
    EVENTS_SHED_COUNTER,
    SAMPLED_COUNTER,
    SamplingOptions,
)
from ..rbac import SecurityRequirement, SecurityRequirementsTable
from ..uml import ClassDiagram, StateMachine
from ..core.behavior_model import BehaviorModelBuilder
from ..core.resource_model import ResourceModelBuilder
from .trace import Trace, poisson_arrivals


def synthetic_table(n_resources: int) -> SecurityRequirementsTable:
    """A Table-I-shaped requirements table covering *n* resources."""
    table = SecurityRequirementsTable()
    for index in range(n_resources):
        resource = f"c{index}_item"
        table.add(SecurityRequirement(f"{index}.1", resource, "GET", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
            "user": ["business_analyst"],
        }))
        table.add(SecurityRequirement(f"{index}.2", resource, "PUT", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
        }))
        table.add(SecurityRequirement(f"{index}.3", resource, "POST", {
            "admin": ["proj_administrator"],
            "member": ["service_architect"],
        }))
        table.add(SecurityRequirement(f"{index}.4", resource, "DELETE", {
            "admin": ["proj_administrator"],
        }))
    return table


def synthetic_models(n_resources: int,
                     ) -> Tuple[ClassDiagram, StateMachine]:
    """Build a consistent (resource model, behavioral model) pair.

    Each of the *n* resources replicates the Cinder volume pattern: a
    collection ``Items<i>`` containing members ``item<i>``, and a
    three-state lifecycle with POST/DELETE transitions plus GET/PUT loops.
    The models grow linearly: 2n+1 classes, 3n states, 13n transitions.
    """
    if n_resources < 1:
        raise ValueError("n_resources must be >= 1")

    resources = ResourceModelBuilder(f"synthetic_{n_resources}")
    resources.collection("Root")
    behavior = BehaviorModelBuilder(
        f"synthetic_{n_resources}_behavior", synthetic_table(n_resources))

    for index in range(n_resources):
        collection = f"c{index}_items"
        member = f"c{index}_item"
        resources.collection(collection)
        resources.resource(member, [("id", "String"), ("status", "String")])
        resources.references("Root", collection, f"c{index}_items")
        resources.contains(collection, member, f"c{index}_items")

        empty = f"{member}_empty"
        partial = f"{member}_partial"
        full = f"{member}_full"
        plural = collection.lower()
        behavior.state(empty, f"root.{plural}->size()=0",
                       initial=(index == 0))
        behavior.state(partial,
                       f"root.{plural}->size()>=1 and "
                       f"root.{plural}->size() < quota.limit{index}")
        behavior.state(full, f"root.{plural}->size() = quota.limit{index}")
        grown = (f"root.{plural}->size() = "
                 f"pre(root.{plural}->size()) + 1")
        shrunk = (f"root.{plural}->size() = "
                  f"pre(root.{plural}->size()) - 1")
        unchanged = (f"root.{plural}->size() = "
                     f"pre(root.{plural}->size())")
        behavior.transition(empty, partial, f"POST({collection})",
                            guard=f"quota.limit{index} > 1", effect=grown)
        behavior.transition(partial, partial, f"POST({collection})",
                            guard=f"root.{plural}->size() < "
                                  f"quota.limit{index} - 1",
                            effect=grown)
        behavior.transition(partial, full, f"POST({collection})",
                            guard=f"root.{plural}->size() = "
                                  f"quota.limit{index} - 1",
                            effect=grown)
        behavior.transition(partial, partial, f"DELETE({member})",
                            guard=f"root.{plural}->size() > 1",
                            effect=shrunk)
        behavior.transition(partial, empty, f"DELETE({member})",
                            guard=f"root.{plural}->size() = 1",
                            effect=shrunk)
        behavior.transition(full, partial, f"DELETE({member})",
                            effect=shrunk)
        for state in (empty, partial, full):
            behavior.transition(state, state, f"GET({collection})",
                                effect=unchanged)
        for state in (partial, full):
            behavior.transition(state, state, f"GET({member})",
                                effect=unchanged)
            behavior.transition(state, state, f"PUT({member})",
                                effect=unchanged)

    # Later resource lifecycles start in their own 'empty' states, which
    # are intentionally disconnected from resource 0's initial state; skip
    # the reachability validation that would flag them.
    return resources.build(), behavior.build(validate=False)


# ---------------------------------------------------------------------------
# Fleet throughput scaling (the runtime half of the SCALE bench)
# ---------------------------------------------------------------------------

#: Substrate hosts that receive the sleep-based latency fault.
BENCH_HOSTS: Tuple[str, ...] = ("cinder", "keystone")

#: How many sweep entries the persisted trajectory retains.
TRAJECTORY_KEEP = 50


def tenant_header_key(request: Request) -> str:
    """Shard key for bench traffic: the ``X-Tenant`` header.

    Real deployments shard across many tenants; the simulated cloud only
    bootstraps three users, so the bench stamps each request with a
    synthetic tenant id and routes on that (falling back to the auth
    token, like the default key, when the header is absent).
    """
    return request.headers.get("X-Tenant") or (request.auth_token or "")


def balanced_tenants(router) -> List[str]:
    """One synthetic tenant name per shard, covering every shard.

    Scans ``tenant-0000, tenant-0001, ...`` (deterministic for a given
    router seed/shard count) until each shard index has a representative,
    and returns the names ordered by the shard they land on.  Stamping
    request *j* with ``tenants[j % shards]`` then spreads any workload
    perfectly evenly -- the bench measures shard parallelism, not hash
    luck.
    """
    found: Dict[int, str] = {}
    index = 0
    while len(found) < router.shards:
        name = f"tenant-{index:04d}"
        shard = router.route(name)
        if shard not in found:
            found[shard] = name
        index += 1
    return [found[shard] for shard in range(router.shards)]


def measure_fleet_throughput(shards: int,
                             requests: int = 96,
                             latency: float = 0.002,
                             fanout: int = 1,
                             router_seed: int = 0) -> Dict[str, object]:
    """Measure monitored GET throughput through a *shards*-wide fleet.

    A fresh paper cloud gets ``time.sleep``-based latency on its
    substrate hosts (:data:`BENCH_HOSTS`), making every probe and
    forward genuinely I/O-bound.  The workload is read-only
    (``GET /cmonitor/volumes``) so concurrent shards never race on
    substrate writes; requests are stamped with synthetic tenants from
    :func:`balanced_tenants` and pre-partitioned per shard; one driver
    thread per shard replays its partition.  Returns a result dict with
    the measured ``throughput`` (requests/second).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if requests < shards:
        raise ValueError("need at least one request per shard")
    cloud = PrivateCloud.paper_setup()
    for host in BENCH_HOSTS:
        cloud.network.inject_fault(host, Latency(latency, system_clock))
    fleet = MonitorFleet.for_service(
        "cinder", cloud.network, "myProject", shards=shards,
        router_seed=router_seed, tenant_key=tenant_header_key,
        options=MonitorOptions(fanout=fanout))
    tokens = sorted(cloud.paper_tokens().values())
    tenants = balanced_tenants(fleet.router)

    partitions: List[List[Request]] = [[] for _ in range(shards)]
    for number in range(requests):
        shard = number % shards
        request = Request("GET", "http://cmonitor/cmonitor/volumes",
                          headers={
                              "X-Auth-Token": tokens[number % len(tokens)],
                              "X-Tenant": tenants[shard],
                          })
        partitions[shard].append(request)

    statuses: List[int] = []
    status_lock = threading.Lock()
    barrier = threading.Barrier(shards + 1)

    def drive(partition: List[Request]) -> None:
        barrier.wait()
        seen = []
        for request in partition:
            response = fleet.handle(request)
            seen.append(response.status_code)
        with status_lock:
            statuses.extend(seen)

    threads = [threading.Thread(target=drive, args=(partition,),
                                name=f"bench-shard-{index}")
               for index, partition in enumerate(partitions)]
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        fleet.close()

    if len(statuses) != requests:
        raise RuntimeError(
            f"bench drove {len(statuses)} requests, expected {requests}")
    failures = sum(1 for status in statuses if status >= 500)
    return {
        "shards": shards,
        "fanout": fanout,
        "requests": requests,
        "latency": latency,
        "elapsed": round(elapsed, 6),
        "throughput": round(requests / elapsed, 3) if elapsed > 0 else 0.0,
        "failures": failures,
        "dispatched": list(fleet.dispatched),
        "verdicts": len(fleet.log),
    }


def scaling_sweep(shard_counts: Sequence[int] = (1, 2, 4),
                  requests: int = 96,
                  latency: float = 0.002,
                  fanout: int = 1) -> Dict[str, object]:
    """Run the shard ladder and assemble one trajectory entry.

    The entry records per-shape throughput plus the headline
    ``speedup``: max-shard throughput over single-shard throughput
    (1.0 when the sweep does not include a single-shard run).
    """
    runs = [measure_fleet_throughput(shards, requests=requests,
                                     latency=latency, fanout=fanout)
            for shards in shard_counts]
    by_shards = {run["shards"]: run["throughput"] for run in runs}
    baseline = by_shards.get(1)
    peak_shards = max(by_shards)
    speedup = (by_shards[peak_shards] / baseline
               if baseline else 1.0)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "requests": requests,
        "latency": latency,
        "fanout": fanout,
        "runs": runs,
        "throughput_by_shards": {str(k): v for k, v in by_shards.items()},
        "peak_shards": peak_shards,
        "speedup": round(speedup, 3),
    }


# ---------------------------------------------------------------------------
# Observability-overhead scaling (the sampling half of the OVERHEAD bench)
# ---------------------------------------------------------------------------

#: Every Nth ladder request is carol's pre-blocked POST: a guaranteed
#: non-valid verdict the sampler must force-keep, at any volume.
OVERHEAD_FORCED_EVERY = 8


def overhead_trace(count: int, seed: int = 0,
                   arrival_rate: float = 50.0) -> Trace:
    """The ladder's request script at *count* entries, Poisson-paced.

    Read-only by construction: the only mutating entries are carol's
    ``POST`` attempts, which RBAC pre-blocks (Table I gives carol no
    create permission), so the script leaves the cloud untouched and the
    same shape replays identically at 1x, 10x, and 100x volume.
    """
    users = ("alice", "bob", "carol")
    trace = Trace()
    for index in range(count):
        if index % OVERHEAD_FORCED_EVERY == OVERHEAD_FORCED_EVERY - 1:
            trace.record("carol", "POST", "/cmonitor/volumes",
                         payload={"volume": {"name": f"ladder-{index}"}})
        else:
            trace.record(users[index % len(users)], "GET",
                         "/cmonitor/volumes")
    return trace.with_arrivals(
        poisson_arrivals(count, arrival_rate, seed=seed))


def _fold_series(registry: MetricsRegistry,
                 name: str) -> Optional[Histogram]:
    """All of one family's label series merged into a single histogram."""
    family = registry.families.get(name)
    if family is None:
        return None
    combined: Optional[Histogram] = None
    for series in family.series.values():
        combined = series if combined is None else combined.merge(series)
    return combined


def _counter_by_label(registry: MetricsRegistry, name: str,
                      label: str) -> Dict[str, int]:
    """One counter family's totals keyed by a label's values."""
    family = registry.families.get(name)
    if family is None:
        return {}
    totals: Dict[str, int] = {}
    for key, series in family.series.items():
        value = dict(key).get(label, "")
        totals[value] = totals.get(value, 0) + int(series.value)
    return totals


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    """One counter family's total across every label series."""
    family = registry.families.get(name)
    if family is None:
        return 0
    return int(sum(series.value for series in family.series.values()))


def measure_overhead_volume(requests: int,
                            shards: int = 4,
                            rate: float = 0.1,
                            seed: int = 0,
                            tick: float = 1e-4,
                            arrival_rate: float = 50.0,
                            concurrency: int = 1) -> Dict[str, object]:
    """Drive *requests* sampled requests through a *shards*-wide fleet.

    The fleet runs on a shared :class:`~repro.obs.clock.ManualClock`
    (every read advances ``tick``), so the ``obs_overhead_seconds``
    histogram measures *operation counts*, not host speed -- the p99 at
    100x volume can be compared to the p99 at 1x without wall-clock
    noise.  Sampling is enabled at *rate* with *seed*; the workload is
    :func:`overhead_trace`.  Returns one ladder-rung record with the
    decision totals, retention and reconciliation facts, and the
    merged-fleet overhead percentiles.
    """
    clock = ManualClock(tick=tick)
    cloud = PrivateCloud.paper_setup()
    options = MonitorOptions(
        sampling=SamplingOptions(rate=rate, seed=seed))
    fleet = MonitorFleet.for_service(
        "cinder", cloud.network, "myProject", shards=shards,
        clock=clock, options=options)
    cloud.network.register("cmonitor", fleet)
    clients = {user: cloud.client(token)
               for user, token in cloud.paper_tokens().items()}
    trace = overhead_trace(requests, seed=seed, arrival_rate=arrival_rate)
    try:
        responses = trace.replay(clients, "cmonitor", clock=clock,
                                 concurrency=concurrency)
        merged = fleet.merged_metrics()
        decisions = _counter_by_label(merged, SAMPLED_COUNTER, "decision")
        shed = _counter_total(merged, EVENTS_SHED_COUNTER)
        begun = sum(shard.obs.tracer.started_count
                    for shard in fleet.shards)
        retained = sum(len(shard.obs.tracer.finished)
                       for shard in fleet.shards)
        ring_bound = sum(shard.obs.tracer.finished.maxlen or 0
                         for shard in fleet.shards)
        non_valid = 0
        non_valid_missing = 0
        for verdict in fleet.log:
            if verdict.verdict == "valid":
                continue
            non_valid += 1
            if not any(shard.obs.tracer.find(verdict.correlation_id)
                       for shard in fleet.shards):
                non_valid_missing += 1
        overhead = _fold_series(merged, OVERHEAD_HISTOGRAM)
        statuses: Dict[str, int] = {}
        for response in responses:
            bucket = f"{response.status_code // 100}xx"
            statuses[bucket] = statuses.get(bucket, 0) + 1
    finally:
        fleet.close()
    return {
        "requests": requests,
        "shards": shards,
        "rate": rate,
        "seed": seed,
        "concurrency": concurrency,
        "statuses": statuses,
        "decisions": decisions,
        "events_shed": shed,
        "begun": begun,
        "retained": retained,
        "ring_bound": ring_bound,
        "non_valid": non_valid,
        "non_valid_missing": non_valid_missing,
        "overhead_count": overhead.count if overhead else 0,
        "overhead_sum": round(overhead.sum, 9) if overhead else 0.0,
        "overhead_p50": (round(overhead.percentile(0.5), 9)
                         if overhead else 0.0),
        "overhead_p99": (round(overhead.percentile(0.99), 9)
                         if overhead else 0.0),
    }


def measure_overhead_ladder(base: int = 16,
                            factors: Sequence[int] = (1, 10, 100),
                            shards: int = 4,
                            rate: float = 0.1,
                            seed: int = 0,
                            tick: float = 1e-4,
                            arrival_rate: float = 50.0,
                            concurrency: int = 1) -> Dict[str, object]:
    """Run the volume ladder and assemble one ``obs_overhead`` entry.

    Each rung replays :func:`overhead_trace` at ``base * factor``
    requests through a fresh sampled fleet.  The entry's headline facts
    are the three acceptance gates: ``retained_within_bound`` (trace
    memory stays under the rings at 100x), ``non_valid_retained``
    (every non-valid verdict's trace survived sampling on every rung),
    and ``p99_ratio`` (p99 ``obs_overhead_seconds`` at the top rung
    over the bottom rung -- flat cost shows as ~1.0).
    """
    rungs = [measure_overhead_volume(base * factor, shards=shards,
                                     rate=rate, seed=seed, tick=tick,
                                     arrival_rate=arrival_rate,
                                     concurrency=concurrency)
             for factor in factors]
    first_p99 = rungs[0]["overhead_p99"]
    last_p99 = rungs[-1]["overhead_p99"]
    ratio = (last_p99 / first_p99) if first_p99 else 1.0
    reconciled = all(
        sum(rung["decisions"].values()) == rung["begun"]
        for rung in rungs)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "base": base,
        "factors": list(factors),
        "shards": shards,
        "rate": rate,
        "seed": seed,
        "rungs": rungs,
        "p99_by_volume": {str(rung["requests"]): rung["overhead_p99"]
                          for rung in rungs},
        "p99_ratio": round(ratio, 3),
        "retained_within_bound": all(
            rung["retained"] <= rung["ring_bound"] for rung in rungs),
        "non_valid_retained": all(
            rung["non_valid_missing"] == 0 for rung in rungs),
        "reconciled": reconciled,
    }


def load_trajectory(path: str) -> Dict[str, object]:
    """Load ``BENCH_scaling.json``; an absent file is an empty trajectory."""
    if not os.path.exists(path):
        return {"bench": "fleet-scaling", "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError(f"{path} is not a scaling trajectory")
    return data


def append_trajectory(path: str, entry: Dict[str, object],
                      keep: int = TRAJECTORY_KEEP) -> Dict[str, object]:
    """Append *entry* to the trajectory at *path*, keeping the last *keep*."""
    trajectory = load_trajectory(path)
    entries = list(trajectory.get("entries", []))
    entries.append(entry)
    trajectory["entries"] = entries[-keep:]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return trajectory


def best_throughput(trajectory: Dict[str, object],
                    shards: int) -> Optional[float]:
    """Best recorded throughput at *shards* across the trajectory."""
    best: Optional[float] = None
    for entry in trajectory.get("entries", []):
        value = entry.get("throughput_by_shards", {}).get(str(shards))
        if value is not None and (best is None or value > best):
            best = value
    return best
