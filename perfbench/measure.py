"""One benchmark run: the untraced and traced phases and their metrics."""

from __future__ import annotations

import gc
import os
import statistics

import harness
import spans

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Deployment builds timed per run; ``setup_s`` is their median.
SETUP_BUILDS = 21
#: Traced builds for ``config.build_s`` / ``contracts.generate_s``.
TRACED_BUILDS = 5
#: Untimed warm-up before measuring (fills the probe caches).
WARMUP_SECONDS = 1.0
#: Longest traced phase: every span is kept in memory until the end.
TRACED_SECONDS = 5.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.problems = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def counters(self) -> dict:
        monitors = self.monitored.monitors
        front = self.monitored.front
        return {
            "stage": harness.histogram_sum(monitors, "monitor_stage_seconds"),
            "cache": harness.cache_stats(monitors),
            "probes": sum(monitor.provider.probe_count
                          for monitor in monitors),
            "retries": sum(monitor.obs.metrics.total("monitor_retries_total")
                           for monitor in monitors),
            "dispatched": list(front.dispatched) if self.monitored.fleet
            else [0],
        }

    def execute(self, trace: bool) -> dict:
        """Run every phase; returns the metrics for the JSON result."""
        workload = self.workload
        build_seconds, _ = harness.time_setup(workload, SETUP_BUILDS)
        setup_s = statistics.median(build_seconds)

        kills = harness.mutant_kills(workload, self.seed)
        for mutant_id, killed in sorted(kills.items()):
            self.check(killed, f"mutant {mutant_id} survived the replay")

        self.monitored = harness.Deployment(workload)
        twin = harness.Deployment(workload)
        known = self.monitored.prime(workload.setup_volumes)
        if twin.prime(workload.setup_volumes) != known:
            raise harness.BenchError("twin priming assigned different ids")
        loops = [harness.ClientLoop(workload, self.monitored, twin, known,
                                    self.seed, stream)
                 for stream in range(workload.clients)]
        harness.run_phase(loops, WARMUP_SECONDS)

        measure = self.seconds / 2 if trace else self.seconds
        end_to_end = self.untraced_phase(loops, measure)
        end_to_end["setup_s"] = metric(setup_s, "s")
        per_layer = (self.traced_phase(loops, min(measure, TRACED_SECONDS))
                     if trace else None)

        sent = sum(loop.sent for loop in loops)
        verdicts = self.monitored.verdicts
        bad = harness.bad_verdicts(verdicts)
        failures = [failure for loop in loops for failure in loop.failures]
        self.check(len(verdicts) == sent,
                   f"{len(verdicts)} verdicts for {sent} monitored requests")
        self.check(not bad, f"{len(bad)} violation/indeterminate verdicts on "
                            f"the clean cloud, first: {bad[:1]}")
        self.check(not failures, f"{len(failures)} failed requests, first: "
                                 f"{failures[:1]}")
        self.attempted = sent
        self.failed = max(len(failures), len(bad))
        self.monitored.close()
        twin.close()
        self.report(kills, end_to_end, per_layer)
        return end_to_end if per_layer is None else per_layer

    def report(self, kills, end_to_end, per_layer) -> None:
        """Print the human-readable summary (the JSON line follows)."""
        workload = self.workload
        print(f"[{workload.name}] seed {self.seed}, {workload.clients} "
              f"client(s): {self.untraced_count} monitored requests timed "
              f"untraced, each interleaved with a direct-twin request; "
              f"p99 is the median of {self.p99_windows} windows of "
              f"{harness.P99_WINDOW} (10 samples beyond each); mutants killed "
              f"{sorted(k for k, v in kills.items() if v)}")
        for name in sorted(end_to_end):
            entry = end_to_end[name]
            print(f"  {name:<32}{entry['value']:>14.4f} {entry['unit']}")
        print(f"  {'error_rate':<32}"
              f"{self.failed / self.attempted:>14.4f} share "
              f"({self.failed} failed of {self.attempted} attempted)")
        if per_layer is not None:
            print(f"tracing overhead: "
                  f"{per_layer['trace.overhead_us']['value']:.1f} us per "
                  f"monitored request (traced minus untraced mean)")
            print(self.probe_line)
            for line in self.breakdown.table():
                print("  " + line)
            for name in sorted(per_layer):
                entry = per_layer[name]
                print(f"  {name:<32}{entry['value']:>14.4f} {entry['unit']}")

    def untraced_phase(self, loops, seconds: float) -> dict:
        for loop in loops:
            loop.reset_samples()
        before = self.counters()
        gc.collect()
        rss_before = harness.rss_bytes()
        wall = harness.run_phase(loops, seconds)
        gc.collect()
        rss_after = harness.rss_bytes()
        after = self.counters()

        monitored = sorted(value for loop in loops
                           for value in loop.monitored_seconds)
        direct = sorted(value for loop in loops
                        for value in loop.direct_seconds)
        count = len(monitored)
        p50 = statistics.median(monitored)
        p99, self.p99_windows = harness.windowed_p99(loops)
        self.check(self.p99_windows > 0,
                   f"no full window of {harness.P99_WINDOW} requests for "
                   f"the p99 ({count} requests)")
        direct_p50 = statistics.median(direct)
        self.untraced_count = count
        self.untraced_mean_s = sum(monitored) / count
        # The operator's instruments against the external timer: the
        # share of client-observed time the monitor's own stage spans see.
        self.stage_attributed_share = ((after["stage"] - before["stage"])
                                       / sum(monitored))
        return {
            "monitored_p50_us": metric(p50 * 1e6, "us"),
            "monitored_p99_us": metric(p99 * 1e6, "us"),
            "throughput_rps": metric(count / wall, "req/s"),
            "direct_p50_us": metric(direct_p50 * 1e6, "us"),
            "overhead_x": metric(p50 / direct_p50, "ratio"),
            "mem_kb_per_req": metric(
                (rss_after - rss_before) / 1024 / count, "KB"),
        }

    def traced_phase(self, loops, seconds: float) -> dict:
        recorder = spans.Recorder()
        with recorder.installed(), recorder.active():
            build_seconds, generate_seconds = harness.time_setup(
                self.workload, TRACED_BUILDS, recorder)

        for loop in loops:
            loop.reset_samples()
            loop.recorder = recorder
        before = self.counters()
        with recorder.installed():
            harness.run_phase(loops, seconds)
        after = self.counters()
        for loop in loops:
            loop.recorder = None

        monitors = self.monitored.monitors
        apps = frozenset(monitor.app.name for monitor in monitors)
        breakdown = spans.Breakdown(recorder.rows(), apps)
        self.breakdown = breakdown
        traced = [value for loop in loops for value in loop.monitored_seconds]
        probes = after["probes"] - before["probes"]
        self.check(breakdown.probe_sends == probes,
                   f"{breakdown.probe_sends} probe sends inside "
                   f"CloudStateProvider.context, probe_count moved {probes}")
        self.check(breakdown.unaccounted_share() < 1e-6,
                   "layer self times do not add up to the root spans")
        cache = {key: after["cache"][key] - before["cache"][key]
                 for key in after["cache"]}
        lookups = cache["hits"] + cache["misses"]
        dispatched = [late - early for late, early
                      in zip(after["dispatched"], before["dispatched"])]
        requests = breakdown.requests
        # probe_count counts only the probes actually sent; under the probe
        # cache the rest are served by hits, which it never sees.
        self.probe_line = (
            f"probes per request: {probes / requests:.3f} sent inside "
            f"CloudStateProvider.context (= provider.probe_count), "
            f"{cache['hits'] / requests:.3f} roots served by ProbeCache hits")

        def us(key, exclusive=False):
            return metric(breakdown.per_request_us(key, exclusive), "us/req")

        def self_us(layer):
            return metric(breakdown.layer_self[layer] * 1e6 / requests,
                          "us/req")

        def per_request(value):
            return metric(value / requests, "count/req")

        metrics = {
            "config.build_s": metric(statistics.median(build_seconds), "s"),
            "contracts.generate_s": metric(
                statistics.median(generate_seconds), "s"),
            "httpsim.send_self_us": self_us("httpsim"),
            "monitor.forward_sends": per_request(breakdown.forward_sends),
            "cloud.handle_us": us("Application.handle[cloud]"),
            "cloud.self_us": self_us("cloud"),
            "provider.context_calls": per_request(
                breakdown.calls.get("CloudStateProvider.context", 0)),
            "provider.context_us": us("CloudStateProvider.context"),
            "provider.context_self_us": us("CloudStateProvider.context",
                                           exclusive=True),
            "provider.probe_sends": per_request(breakdown.probe_sends),
            "provider.keystone_sends": per_request(
                breakdown.keystone_probe_sends),
            "contracts.check_pre_us": us("MethodContract.check_pre"),
            "contracts.applicable_cases_us": us(
                "MethodContract.applicable_cases"),
            "contracts.snapshot_us": us("MethodContract.snapshot"),
            "contracts.check_post_us": us("MethodContract.check_post"),
            "contracts.self_us": self_us("contracts"),
            "probecache.get_us": us("ProbeCache.get"),
            "probecache.put_us": us("ProbeCache.put"),
            "probecache.hit_ratio": metric(
                cache["hits"] / lookups if lookups else 0.0, "share"),
            "probecache.invalidations": per_request(cache["invalidations"]),
            "probecache.self_us": self_us("probecache"),
            "obs.metric_lookups": per_request(
                sum(breakdown.calls.get(f"MetricsRegistry.{kind}", 0)
                    for kind in ("counter", "gauge", "histogram"))),
            "obs.metric_lookup_us": metric(
                sum(breakdown.per_request_us(f"MetricsRegistry.{kind}")
                    for kind in ("counter", "gauge", "histogram")),
                "us/req"),
            "obs.slo_snapshot_us": us("SLOEngine.snapshot"),
            "obs.events_emit_us": us("EventLog.emit"),
            "obs.tracer_finish_us": us("Tracer.finish"),
            "obs.stage_attributed_share": metric(
                self.stage_attributed_share, "share"),
            "obs.traces_retained": metric(
                sum(len(m.obs.tracer.finished) for m in monitors), "count"),
            "obs.events_retained": metric(
                sum(len(m.obs.events.events) for m in monitors), "count"),
            "obs.self_us": self_us("obs"),
            "alerting.evaluate_us": us("AlarmEngine.evaluate"),
            "monitor.self_us": self_us("monitor"),
            "fleet.dispatch_us": self_us("fleet"),
            "fleet.balance": metric(
                min(dispatched) / max(dispatched) if max(dispatched)
                else 1.0, "ratio"),
            "resilience.retries": per_request(
                after["retries"] - before["retries"]),
            "trace.request_us": metric(
                breakdown.root_total * 1e6 / requests, "us/req"),
            "trace.overhead_us": metric(
                (sum(traced) / len(traced) - self.untraced_mean_s) * 1e6,
                "us/req"),
        }
        breakdown.write(
            os.path.join(OUT, f"{self.workload.name}-seed{self.seed}.json"),
            {"workload": self.workload.name, "seed": self.seed,
             "per_layer": metrics})
        return metrics
