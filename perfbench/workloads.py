"""The benchmark's workloads: a deployment config and a request stream each.

Every workload is a closed loop (the in-process transport is synchronous,
so each client waits for its reply before sending the next request), runs
the monitor in audit mode (``monitor.enforcing: false``, the paper's
testing-script deployment, which lets every response be compared with the
direct twin's) and injects no latency fault, so every number is CPU time
and none is sleep overlap.  Apart from the keys each workload sets, the
config is the default ``MonitorConfig``.

Request streams are drawn from a seeded RNG as shuffled *decks*: one deck
holds every (operation, user) pair as often as its weight says, so the
mix proportions are exact over every deck and the seed only changes the
order and the item each request addresses.  The program under test
receives only the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

#: ``(method, target)`` with target ``"collection"`` or ``"item"``.
Operation = Tuple[str, str]

GET_COLLECTION: Operation = ("GET", "collection")
GET_ITEM: Operation = ("GET", "item")
POST: Operation = ("POST", "collection")
PUT: Operation = ("PUT", "item")
DELETE: Operation = ("DELETE", "item")

PAPER_USERS = ("alice", "bob", "carol")
OPERATIONS = (GET_COLLECTION, GET_ITEM, POST, PUT, DELETE)


@dataclass(frozen=True)
class Plan:
    """One generated request: who sends what, and which item it addresses.

    *slot* picks the item among the volumes the client currently knows
    (``slot % len(known)``), so item requests always name a volume the
    client has seen, whatever ids the cloud assigned.
    """

    user: str
    method: str
    target: str
    slot: int


@dataclass(frozen=True)
class Workload:
    """A named deployment shape plus the traffic sent through it."""

    name: str
    #: Sections of the ``MonitorConfig`` document this workload sets.
    config: Mapping[str, Mapping[str, object]]
    #: Concurrent closed-loop clients (threads).
    clients: int
    #: Volumes alice creates on both clouds before any timed traffic.
    setup_volumes: int
    users: Tuple[str, ...]
    mix: Tuple[Tuple[Operation, int], ...]

    def document(self) -> Dict[str, object]:
        """The version-1 config document for ``MonitorConfig.from_dict``."""
        document: Dict[str, object] = {"config_version": 1}
        for section, values in self.config.items():
            document[section] = dict(values)
        return document

    def plans(self, seed: int, stream: int = 0) -> Iterator[Plan]:
        """The endless request stream of one client.

        The same ``(seed, stream)`` always yields the same plans; each
        client thread of a multi-client workload takes its own *stream*.
        """
        rng = random.Random(f"{self.name}:{seed}:{stream}")
        deck: List[Tuple[Operation, str]] = [
            (operation, user)
            for operation, weight in self.mix
            for _ in range(weight)
            for user in self.users]
        while True:
            rng.shuffle(deck)
            for (method, target), user in deck:
                yield Plan(user, method, target, rng.randrange(1 << 30))


def table1_battery(seed: int) -> List[Plan]:
    """Every paper user sends every operation once, in seeded order.

    Sent to a deployment primed with at least two volumes under a quota of
    at least five, each Table-I (role, operation) pair meets the cloud in a
    state where a wrong authorization shows: carol's POST fits the quota
    (at most two POSTs precede it), bob's DELETE names an existing volume,
    and bob's and carol's GETs reach the cloud.
    """
    rng = random.Random(f"table1:{seed}")
    plans = [Plan(user, method, target, rng.randrange(1 << 30))
             for user in PAPER_USERS for method, target in OPERATIONS]
    rng.shuffle(plans)
    return plans


_AUDIT = {"enforcing": False}
_CACHED = {"enforcing": False, "probe_cache": True}

#: The ROADMAP's reference traffic with the probe cache off: every
#: Figure-2 stage runs on every request, and the probes (about 7 GETs per
#: request) are the largest share.
PAPER_MIX = Workload(
    name="paper-mix",
    config={"cloud": {"volume_quota": 5}, "monitor": _AUDIT},
    clients=1,
    setup_volumes=2,
    users=PAPER_USERS,
    mix=((GET_COLLECTION, 4), (GET_ITEM, 3), (POST, 2), (PUT, 1),
         (DELETE, 1)))

#: Reads with the probe cache on: nearly every probe is a cache hit, so
#: the provider does little and contracts, obs and ``ProbeCache.get``
#: copying do most of the work.  Predicts no change for probe-side gains.
READ_CACHED = Workload(
    name="read-cached",
    config={"cloud": {"volume_quota": 20}, "monitor": _CACHED},
    clients=1,
    setup_volumes=12,
    users=PAPER_USERS,
    mix=((GET_COLLECTION, 1), (GET_ITEM, 3)))

#: The read-cached config driven the opposite way: every mutation
#: invalidates the cache, and snapshot, post-probe, post-eval and cloud
#: store writes run on most requests, so a gain for reads that costs
#: writes shows here.  Only alice may delete, so the volume count climbs
#: to the quota (20) and stays there: half the POSTs are refused with 413
#: and half the DELETEs with 403, and two thirds of the requests succeed.
WRITE_CHURN = Workload(
    name="write-churn",
    config={"cloud": {"volume_quota": 20}, "monitor": _CACHED},
    clients=1,
    setup_volumes=12,
    users=("alice", "bob"),
    mix=((POST, 3), (DELETE, 3), (PUT, 2), (GET_ITEM, 1)))

#: The read-cached traffic from two client threads through a two-shard
#: fleet, each thread holding tokens the router sends to its own shard:
#: the only workload that exercises ``core.fleet``, and the zero-latency
#: shard rung a process-per-shard change must move.
FLEET_READ = Workload(
    name="fleet-read",
    config={"cloud": {"volume_quota": 20}, "monitor": _CACHED,
            "fleet": {"shards": 2}},
    clients=2,
    setup_volumes=12,
    users=PAPER_USERS,
    mix=((GET_COLLECTION, 1), (GET_ITEM, 3)))

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (PAPER_MIX, READ_CACHED, WRITE_CHURN, FLEET_READ)}
