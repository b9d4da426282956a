"""Concurrency stress: one shard under N racing threads stays coherent.

A fleet shard is a full monitor -- single-flight probe cache, wide-event
ring, trace ring, metrics -- and under fan-out its internals run on pool
threads even while dispatcher threads race on the outside.  These tests
hammer each shared structure from many threads released by a barrier
(maximum simultaneous contention, deterministically arranged -- no
sleeps, no timing luck) and assert the invariants that corruption would
break: exactly-once computation, gap-free sequence numbers, bounded
rings that keep the most recent entries.
"""

import threading
from collections import Counter

from repro.config import build_fleet_from_config
from repro.core import MonitorFleet, SingleFlight
from repro.core.fleet import tenant_from_token
from repro.httpsim import Request
from repro.obs import Observability
from repro.obs.clock import ManualClock
from repro.obs.events import EventLog
from repro.obs.tracing import Tracer
from repro.validation import chaos_config

THREADS = 8
ROUNDS = 25


def run_racing(worker, threads=THREADS):
    """Start *threads* copies of *worker* behind one barrier; join all."""
    barrier = threading.Barrier(threads)
    errors = []

    def wrapped(index):
        try:
            barrier.wait(timeout=10)
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=wrapped, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
    assert not errors, f"racing workers raised: {errors!r}"


class TestSingleFlightUnderContention:
    def test_each_key_is_computed_exactly_once(self):
        cache = SingleFlight()
        computed = Counter()
        computed_lock = threading.Lock()
        results = {}
        results_lock = threading.Lock()

        def supplier_for(key):
            def supplier():
                with computed_lock:
                    computed[key] += 1
                return f"value-{key}"
            return supplier

        def worker(index):
            # Every thread asks for every key: massive key contention.
            for round_number in range(ROUNDS):
                key = f"probe-{round_number % 5}"
                value = cache.do(key, supplier_for(key))
                with results_lock:
                    results.setdefault(key, set()).add(value)

        run_racing(worker)
        # 5 distinct keys, each computed once, each answer agreed on.
        assert set(computed.values()) == {1}
        assert len(computed) == 5
        for key, values in results.items():
            assert values == {f"value-{key}"}
        assert cache.shared_count == THREADS * ROUNDS - 5


class TestEventRingUnderContention:
    def test_sequence_numbers_stay_gap_free_and_ring_bounded(self):
        log = EventLog(clock=ManualClock(), keep=64)

        def worker(index):
            for round_number in range(ROUNDS):
                log.emit("stress", thread=index, round=round_number)

        run_racing(worker)
        total = THREADS * ROUNDS
        assert log.emitted_count == total
        retained = list(log.events)
        assert len(retained) == 64
        seqs = [record.seq for record in retained]
        # The ring keeps exactly the most recent contiguous window.
        assert seqs == list(range(total - 63, total + 1))

    def test_thread_local_correlation_survives_the_race(self):
        log = EventLog(clock=ManualClock(), keep=THREADS * ROUNDS)

        def worker(index):
            with log.correlate(f"t-{index:06d}"):
                for round_number in range(ROUNDS):
                    log.emit("stress", thread=index)

        run_racing(worker)
        for index in range(THREADS):
            mine = log.filter(trace_id=f"t-{index:06d}")
            assert len(mine) == ROUNDS
            assert all(record.get("thread") == index for record in mine)


class TestTracerUnderContention:
    def test_trace_ids_are_unique_and_rings_bounded(self):
        tracer = Tracer(clock=ManualClock(), keep=32)
        minted = []
        minted_lock = threading.Lock()

        def worker(index):
            for round_number in range(ROUNDS):
                trace = tracer.begin("stress")
                with trace.span("probe"):
                    pass
                tracer.finish(trace)
                with minted_lock:
                    minted.append(trace.trace_id)

        run_racing(worker)
        total = THREADS * ROUNDS
        assert tracer.started_count == total
        assert len(set(minted)) == total
        assert len(tracer.finished) == 32
        # Every retained trace is still reachable through the id index.
        for trace in tracer.finished:
            assert tracer.find(trace.trace_id) is trace


class TestShardUnderContention:
    def test_racing_dispatchers_never_corrupt_a_fanout_shard(self):
        # One shard, fan-out inside it, GET-only traffic from racing
        # threads: every request must produce exactly one verdict, the
        # shared allocator must mint gap-free trace ids, and the event
        # ring must stay sequentially coherent.
        cloud, fleet = build_fleet_from_config(
            chaos_config({"monitor": {"fanout": 4}}))
        tokens = sorted(cloud.paper_tokens().values())
        try:
            def worker(index):
                token = tokens[index % len(tokens)]
                for _ in range(ROUNDS):
                    response = fleet.handle(Request(
                        "GET", "http://cmonitor/cmonitor/volumes",
                        headers={"X-Auth-Token": token}))
                    assert response.status_code == 200

            run_racing(worker)
        finally:
            fleet.close()

        total = THREADS * ROUNDS
        shard = fleet.shards[0]
        assert fleet.dispatched == [total]
        assert len(fleet.log) == total
        correlation_ids = [verdict.correlation_id
                           for verdict in fleet.log]
        assert len(set(correlation_ids)) == total
        events = shard.obs.events
        assert events.emitted_count >= total
        retained_seqs = [record.seq for record in events.events]
        assert retained_seqs == sorted(retained_seqs)
        assert len(retained_seqs) == len(set(retained_seqs))
        # All verdicts from identical GETs agree.
        assert {verdict.verdict for verdict in fleet.log} == {"valid"}
