"""Deployments, the interleaved closed loop, and the correctness checks.

Every deployment is built only through ``MonitorConfig`` ->
``build_from_config``.  A measured run drives two of them built from the
same config: the monitored one (requests go through the monitor) and a
direct twin (the same request goes straight to the twin's Cinder).  The
two are interleaved request by request, alternating which goes first, so
both paths see the same machine at the same moment.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import threading
import time
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cloud import paper_mutants
from repro.config import MonitorConfig, build_from_config
from repro.core.fleet import MonitorFleet
from repro.httpsim import Client, Response

from workloads import PAPER_USERS, Plan, Workload, table1_battery

POST_BODY = {"volume": {"name": "bench"}}
PUT_BODY = {"volume": {"name": "bench-renamed"}}

#: Stream index of the mutant-replay script (client threads use 0, 1, ...).
KILL_STREAM = 1000
#: Requests of the workload's own generator in the mutant replay.
KILL_OWN = 100


class BenchError(Exception):
    """A set-up step of the benchmark failed (not a measured failure)."""


def build(workload: Workload):
    """``(config, cloud, monitor-or-fleet)`` for *workload*'s config."""
    config = MonitorConfig.from_dict(workload.document())
    cloud, front = build_from_config(config)
    return config, cloud, front


def time_setup(workload: Workload, builds: int,
               recorder=None) -> Tuple[List[float], List[float]]:
    """Wall seconds of *builds* fresh config -> running-deployment builds.

    With an installed and active *recorder*, also returns the seconds each
    build spent in ``ContractGenerator.all_contracts``.
    """
    build_seconds, generate_seconds = [], []
    for _ in range(builds):
        start = time.perf_counter()
        _, _, front = build(workload)
        build_seconds.append(time.perf_counter() - start)
        front.close()
        if recorder is not None:
            generate_seconds.append(sum(
                row[3] - row[2] for row in recorder.rows()
                if row[0] == "ContractGenerator.all_contracts"))
            recorder.clear()
    return build_seconds, generate_seconds


class Deployment:
    """One built deployment and the endpoints its clients talk to."""

    def __init__(self, workload: Workload):
        self.config, self.cloud, self.front = build(workload)
        scenario = self.config.scenario
        self.project_id = scenario.project_id
        self.monitor_url = f"http://{scenario.register_as}/cmonitor/volumes"
        self.cinder_url = self.cloud.cinder_url(
            f"/v3/{self.project_id}/volumes")
        self.fleet = isinstance(self.front, MonitorFleet)

    @property
    def monitors(self):
        return list(self.front.shards) if self.fleet else [self.front]

    @property
    def verdicts(self):
        return self.front.log

    def token(self, user: str, shard: Optional[int] = None) -> str:
        """A fresh Keystone token for *user*; on a fleet, one that the
        router sends to *shard*."""
        keystone = self.cloud.keystone
        for _ in range(10000):
            token = keystone.issue_token(user, keystone.passwords[user],
                                         self.project_id)
            if shard is None or not self.fleet \
                    or self.front.router.route(token) == shard:
                return token
        raise BenchError(f"no token for {user} routes to shard {shard}")

    def client(self, user: str, shard: Optional[int] = None) -> Client:
        return self.cloud.client(self.token(user, shard))

    def prime(self, count: int) -> List[str]:
        """alice creates *count* volumes straight on the cloud."""
        client = self.client("alice")
        ids = []
        for _ in range(count):
            response = client.post(self.cinder_url, POST_BODY)
            if response.status_code != 202:
                raise BenchError(
                    f"priming a volume answered {response.status_code}")
            ids.append(response.json()["volume"]["id"])
        return ids

    def close(self) -> None:
        self.front.close()


class Targets:
    """The volumes one client knows, and how a plan becomes a request."""

    def __init__(self, known: Iterable[str]):
        self.known = list(known)

    def request(self, plan: Plan, base: str) -> Tuple[str, Optional[dict]]:
        """``(url, payload)`` of *plan* against the collection *base*."""
        url = base
        if plan.target == "item":
            if self.known:
                url = f"{base}/{self.known[plan.slot % len(self.known)]}"
            else:
                url = f"{base}/vol-none"
        payload = {"POST": POST_BODY, "PUT": PUT_BODY}.get(plan.method)
        return url, payload

    def observe(self, plan: Plan, url: str, response: Response) -> None:
        """Learn created ids and forget deleted ones."""
        if response.status_code // 100 != 2:
            return
        if plan.method == "POST":
            self.known.append(response.json()["volume"]["id"])
        elif plan.method == "DELETE":
            self.known.remove(url.rsplit("/", 1)[1])


def _send(client: Client, method: str, url: str,
          payload: Optional[dict]) -> Tuple[Response, float]:
    start = time.perf_counter()
    response = client.request(method, url, payload=payload)
    elapsed = time.perf_counter() - start
    client.history.clear()
    return response, elapsed


class ClientLoop:
    """One closed-loop client: every plan goes to the monitor, then (or
    first, on alternate requests) to the direct twin."""

    def __init__(self, workload: Workload, monitored: Deployment,
                 twin: Deployment, known: List[str], seed: int,
                 stream: int):
        shard = stream if monitored.fleet else None
        self.plans = workload.plans(seed, stream)
        self.monitored = monitored
        self.twin = twin
        self.monitored_clients = {user: monitored.client(user, shard)
                                  for user in workload.users}
        self.twin_clients = {user: twin.client(user)
                             for user in workload.users}
        self.targets = Targets(known)
        #: A :class:`spans.Recorder` while the traced phase runs.
        self.recorder = None
        self.sent = 0
        self.reset_samples()
        self.failures: List[str] = []
        self.error: Optional[BaseException] = None

    def reset_samples(self) -> None:
        self.monitored_seconds = array("d")
        self.direct_seconds = array("d")
        #: When each monitored sample was taken, to merge clients in order.
        self.taken_at = array("d")

    def _monitored(self, plan: Plan) -> Tuple[Response, float, str]:
        url, payload = self.targets.request(plan, self.monitored.monitor_url)
        client = self.monitored_clients[plan.user]
        if self.recorder is None:
            return (*_send(client, plan.method, url, payload), url)
        with self.recorder.root():
            response, elapsed = _send(client, plan.method, url, payload)
        return response, elapsed, url

    def _direct(self, plan: Plan) -> Tuple[Response, float]:
        url, payload = self.targets.request(plan, self.twin.cinder_url)
        client = self.twin_clients[plan.user]
        if self.recorder is None:
            return _send(client, plan.method, url, payload)
        with self.recorder.paused():
            return _send(client, plan.method, url, payload)

    def step(self) -> None:
        plan = next(self.plans)
        if self.sent % 2 == 0:
            monitored, monitored_s, url = self._monitored(plan)
            direct, direct_s = self._direct(plan)
        else:
            direct, direct_s = self._direct(plan)
            monitored, monitored_s, url = self._monitored(plan)
        self.sent += 1
        self.monitored_seconds.append(monitored_s)
        self.direct_seconds.append(direct_s)
        self.taken_at.append(time.perf_counter())
        status = monitored.status_code
        if status != direct.status_code:
            self.failures.append(
                f"{plan.user} {plan.method} {url}: monitored {status}, "
                f"direct twin {direct.status_code}")
        elif status >= 500:
            self.failures.append(
                f"{plan.user} {plan.method} {url}: {status}")
        elif plan.method == "POST" and status // 100 == 2 and \
                monitored.json()["volume"]["id"] != \
                direct.json()["volume"]["id"]:
            self.failures.append(f"{plan.user} POST created different ids")
        self.targets.observe(plan, url, monitored)

    def run_until(self, deadline: float) -> None:
        try:
            if self.recorder is None:
                while time.perf_counter() < deadline:
                    self.step()
            else:
                with self.recorder.active():
                    while time.perf_counter() < deadline:
                        self.step()
        except Exception as error:  # re-raised by run_phase
            self.error = error


def run_phase(loops: List[ClientLoop], seconds: float) -> float:
    """Run every loop until *seconds* pass; returns the wall seconds."""
    start = time.perf_counter()
    deadline = start + seconds
    if len(loops) == 1:
        loops[0].run_until(deadline)
    else:
        threads = [threading.Thread(target=loop.run_until, args=(deadline,))
                   for loop in loops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60)
        if any(thread.is_alive() for thread in threads):
            raise BenchError("a client thread did not finish")
    wall = time.perf_counter() - start
    for loop in loops:
        if loop.error is not None:
            raise loop.error
    return wall


def rss_bytes() -> int:
    """Resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


#: Requests per window of the windowed p99: its nearest-rank p99 has
#: exactly ten samples beyond it.
P99_WINDOW = 1000


def windowed_p99(loops: List[ClientLoop]) -> Tuple[float, int]:
    """Median over consecutive windows of :data:`P99_WINDOW` monitored
    requests (all clients merged in the order the samples were taken) of
    each window's p99; and the window count.

    Host speed on a shared machine drifts over seconds, and one slow
    stretch moves a whole-run p99 far more than the tail a tenant sees in
    steady state; the median over windows is robust to such stretches.
    """
    ordered = [latency for _, latency in sorted(
        (taken, latency) for loop in loops
        for taken, latency in zip(loop.taken_at, loop.monitored_seconds))]
    rank = math.ceil(0.99 * P99_WINDOW)
    tails = [sorted(ordered[start:start + P99_WINDOW])[rank - 1]
             for start in range(0, len(ordered) - P99_WINDOW + 1,
                                P99_WINDOW)]
    return (statistics.median(tails) if tails else math.nan), len(tails)


def bad_verdicts(verdicts) -> List[str]:
    """Violation and indeterminate verdicts (none may occur on the clean
    cloud)."""
    return [f"{verdict.trigger} {verdict.verdict}: {verdict.message}"
            for verdict in verdicts
            if verdict.violation or verdict.indeterminate]


def histogram_sum(monitors, name: str) -> float:
    """Sum of all observations of histogram family *name* over *monitors*."""
    return sum(histogram.sum for monitor in monitors
               for _, histogram in monitor.obs.metrics.series(name))


def cache_stats(monitors) -> Dict[str, int]:
    """Probe-cache lifetime counters summed over *monitors*."""
    totals = {"hits": 0, "misses": 0, "invalidations": 0}
    for monitor in monitors:
        if monitor.probe_cache is not None:
            stats = monitor.probe_cache.stats()
            for key in totals:
                totals[key] += stats[key]
    return totals


def _replay(deployment: Deployment, known: List[str],
            plans: Iterator[Plan]) -> None:
    clients = {user: deployment.client(user, 0) for user in PAPER_USERS}
    targets = Targets(known)
    for plan in plans:
        url, payload = targets.request(plan, deployment.monitor_url)
        response, _ = _send(clients[plan.user], plan.method, url, payload)
        targets.observe(plan, url, response)


def mutant_kills(workload: Workload, seed: int) -> Dict[str, bool]:
    """Replay a short script against a cloud carrying each paper mutant.

    A mutant is killed when the monitor reports at least one violation.
    The script runs through the workload's own deployment shape: the
    Table-I battery, then the workload's own generator.  The battery comes
    first because the own generators alone cannot expose every mutant:
    read-cached and fleet-read send only GETs, write-churn has no carol,
    and on the paper cloud the quota is mostly full when carol posts.
    """
    killed = {}
    for mutant in paper_mutants():
        deployment = Deployment(workload)
        known = deployment.prime(workload.setup_volumes)
        mutant.apply(deployment.cloud)
        script = itertools.chain(
            table1_battery(seed),
            itertools.islice(workload.plans(seed, KILL_STREAM), KILL_OWN))
        _replay(deployment, known, script)
        killed[mutant.mutant_id] = any(
            verdict.violation for verdict in deployment.verdicts)
        deployment.close()
    return killed
