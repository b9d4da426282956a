"""Tests for the chaos campaign: parity and indeterminate degradation."""

import json

from repro.core import Verdict
from repro.validation import (
    EXPECTED_BREAKER_SEQUENCE,
    assert_breaker_sequence,
    assert_indeterminate_degradation,
    chaos_config,
    run_breaker_sequence,
    run_chaos_campaign,
    run_leg,
)


class TestRecoverableFaults:
    def test_verdicts_are_byte_identical_to_the_fault_free_baseline(self):
        report = run_chaos_campaign(count=25, seed=7)
        assert report.parity, (
            f"first divergence at row {report.first_divergence()}")
        assert report.baseline.digest() == report.faulted.digest()
        # Retries actually happened -- parity was earned, not vacuous.
        assert report.faulted.retries > 0
        assert report.baseline.retries == 0
        assert report.faulted.indeterminate == 0

    def test_faulted_leg_pays_extra_probes_but_same_verdict_count(self):
        report = run_chaos_campaign(count=25, seed=7)
        assert len(report.faulted.rows) == len(report.baseline.rows)
        assert report.faulted.probe_count >= report.baseline.probe_count


class TestUnrecoverableFaults:
    def test_dead_substrate_degrades_to_indeterminate_only(self):
        leg = assert_indeterminate_degradation(count=12, seed=7)
        verdicts = {json.loads(row)["verdict"] for row in leg.rows}
        assert verdicts == {Verdict.INDETERMINATE}
        # Every row names the roots that could not be bound.
        for row in leg.rows:
            record = json.loads(row)
            assert record["unbound_roots"]
            assert record["forwarded"] is False

    def test_dead_substrate_never_reports_violations(self):
        from repro.validation.chaos import unrecoverable_program

        leg = run_leg(chaos_config(), count=12, seed=7,
                      fault_factory=unrecoverable_program)
        for row in leg.rows:
            assert json.loads(row)["verdict"] not in Verdict.VIOLATIONS


class TestBreakerLifecycle:
    def test_recovery_walks_the_full_event_sequence(self):
        transitions = assert_breaker_sequence()
        assert tuple(transitions) == EXPECTED_BREAKER_SEQUENCE

    def test_sequence_is_read_from_wide_events_not_the_gauge(self):
        monitor, transitions = run_breaker_sequence()
        events = monitor.obs.events.filter(event="breaker_transition",
                                           host="cinder")
        assert [(event.get("from_state"), event.get("to_state"))
                for event in events] == transitions
        # Each transition event names the request that caused it.
        assert all(event.trace_id for event in events)

    def test_requests_during_the_outage_degrade_to_indeterminate(self):
        monitor, _ = run_breaker_sequence(failure_threshold=2)
        verdicts = [verdict.verdict for verdict in monitor.log]
        assert verdicts[:2] == [Verdict.INDETERMINATE,
                                Verdict.INDETERMINATE]
        assert verdicts[-1] != Verdict.INDETERMINATE
