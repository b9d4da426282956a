"""The runtime cloud monitor: the Figure 2 workflow as a proxy wrapper.

Per monitored request the monitor:

1. **probes** the addressable state of the private cloud with GET requests
   (carrying the requesting user's own token -- exactly what the paper's
   wrapper does with urllib2) and binds the OCL roots ``project``,
   ``volume``, ``quota_sets``, ``user``;
2. **checks the pre-condition** of the method contract; in enforcing mode
   a failing pre-condition blocks the request with 412 ("the HTTP method
   request from CM user is forwarded to the private cloud if the
   pre-condition is satisfied"), in audit mode (the automated-testing-script
   user of Section III-B) the request is forwarded anyway and a success
   response despite a false pre-condition is reported as a violation --
   that is how privilege-escalation mutants are killed;
3. **snapshots** the ``pre()`` old values the post-condition references
   ("we save the resource state before the method execution in the local
   variables of the monitor");
4. **forwards** the request to the private cloud;
5. **checks the response code** against the method's expected success codes
   and **re-probes** to evaluate the post-condition;
6. returns the cloud's response when everything holds, otherwise "an
   invalid response specifying the faulty behavior".

With demand-driven probe planning (the default, see
:mod:`repro.core.planning`) each probe round binds only the roots the
contract's expressions actually read, instead of the full
project/volume/quota/user sweep the paper's wrapper pays on every phase.
"""

from __future__ import annotations

import re
import threading
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..alerting import AlarmEngine
from ..errors import MonitorError
from ..httpsim import Application, Network, Request, Response, path, status
from ..obs import Observability, ObservabilityMiddleware, SLOEngine
from ..obs.analytics import critical_path, trace_report
from ..obs.overhead import OverheadRecorder
from ..obs.sampling import DECISION_DROPPED, TraceSampler
from ..ocl import Context
from ..ocl.values import UNDEFINED
from ..uml import ClassDiagram, StateMachine, Trigger
from .admission import (
    ARRIVAL_HEADER,
    MODE_GAUGE,
    AdmissionController,
    DeadlineBudget,
    parse_arrival,
)
from .contracts import MethodContract
from .coverage import CoverageTracker
from .mirror import MirrorDatabase
from .options import MonitorOptions
from .planning import CINDER_PROBES, Probe, ProbePlan
from .probecache import ProbeCache
from .resilience import ProbeFailure, transport_failure
from .scheduler import ProbeScheduler, SingleFlight
from .verdict_schema import verdict_record

def _round9(value: float) -> float:
    """Canonical 9-significant-digit rounding for wide-event durations."""
    return float(f"{float(value):.9g}")


#: Success codes the monitor accepts per HTTP method (Cinder conventions;
#: Listing 2 checks ``response.code == 204`` for DELETE).
EXPECTED_SUCCESS_CODES: Dict[str, Tuple[int, ...]] = {
    "GET": (200,),
    "PUT": (200,),
    "POST": (200, 201, 202),
    "DELETE": (204,),
}


class Verdict:
    """The possible outcomes of one monitored request."""

    VALID = "valid"
    #: Enforcing mode: pre-condition failed, request not forwarded.
    PRE_BLOCKED = "pre-blocked"
    #: Audit mode: pre-condition failed but the cloud accepted the request
    #: (privilege escalation / missing check in the implementation).
    PRE_VIOLATION = "pre-violation"
    #: Pre-condition held but the cloud rejected the request
    #: (privilege loss: an authorized user was denied).
    REJECTED_VALID = "rejected-valid-request"
    #: Pre held, response accepted, but the post-condition failed
    #: (wrong effect or wrong status code).
    POST_VIOLATION = "post-violation"
    #: Audit mode: pre-condition failed and the cloud also rejected --
    #: both sides agree the request is invalid.
    INVALID_AGREED = "invalid-agreed"
    #: The substrate was unreachable (retries exhausted / breaker open):
    #: the monitor could not bind the state it needs, so it refuses to
    #: guess -- neither valid nor invalid, and never a violation.
    INDETERMINATE = "indeterminate"

    VIOLATIONS = (PRE_VIOLATION, REJECTED_VALID, POST_VIOLATION)


class MonitorVerdict:
    """The full record of one monitored request (the traceability log row)."""

    def __init__(self, trigger: Trigger, verdict: str,
                 pre_holds: Optional[bool],
                 forwarded: bool, response_status: Optional[int],
                 post_holds: Optional[bool], message: str,
                 security_requirements: List[str],
                 snapshot_bytes: int = 0,
                 correlation_id: Optional[str] = None,
                 unbound_roots: Optional[Iterable[str]] = None):
        self.trigger = trigger
        self.verdict = verdict
        self.pre_holds = pre_holds
        self.forwarded = forwarded
        self.response_status = response_status
        self.post_holds = post_holds
        self.message = message
        self.security_requirements = security_requirements
        self.snapshot_bytes = snapshot_bytes
        #: Trace id of the request that produced this verdict; joins the
        #: audit log with the tracer's span records.
        self.correlation_id = correlation_id
        #: Roots the provider could not bind because the transport gave up
        #: (retries exhausted or breaker open); non-empty only on
        #: :data:`Verdict.INDETERMINATE` verdicts.
        self.unbound_roots: List[str] = sorted(unbound_roots or ())

    @property
    def violation(self) -> bool:
        """True when the cloud implementation contradicted the contract."""
        return self.verdict in Verdict.VIOLATIONS

    @property
    def indeterminate(self) -> bool:
        """True when the substrate was unreachable and no call was made."""
        return self.verdict == Verdict.INDETERMINATE

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form in the versioned wire schema.

        Embedded in invalid responses, audit-log rows, and the JSON
        exporter alike -- see :mod:`repro.core.verdict_schema`."""
        return verdict_record(self)

    def __repr__(self) -> str:
        return f"<MonitorVerdict {self.trigger} {self.verdict}>"


class CloudStateProvider:
    """Binds the OCL roots by probing the cloud's REST surface.

    The paper defines state invariants "as a boolean expression over the
    addressable resources" (Section IV-B): a resource exists iff GET on its
    URI returns 200.  Every probe uses the requesting user's token.

    A provider is its :attr:`probes` table: one
    :class:`~repro.core.planning.Probe` per OCL root, in probe order,
    naming the prober method that binds it.  Scenario subclasses (and
    providers for services you model yourself) declare their own table
    and probers; :meth:`bindings` runs every table the same way, so
    transport failures, the probe cache, deadline budgets and the
    ``cached_only`` rung hold for every scenario.
    """

    #: The probe table: one row per bindable root, in probe order.
    probes: Tuple[Probe, ...] = CINDER_PROBES

    #: The OCL roots this provider can bind (from :attr:`probes`); probe
    #: plans are computed against this set.
    roots: Tuple[str, ...]

    #: GET cost of binding each root (from :attr:`probes`) -- what the
    #: skipped-probe accounting charges for a root a plan leaves out.
    probe_costs: Dict[str, int]

    #: Roots whose probes read the *item* addressed by the request URI
    #: (from :attr:`probes`); their cache entries are keyed by the item
    #: id so two items never share a binding.
    item_scoped_roots: Tuple[str, ...]

    #: Roots a forwarded POST/PUT/DELETE may dirty -- what the monitor
    #: evicts from the probe cache after every mutation.  The Cinder
    #: scenario's data-plane mutations cannot change a token's identity,
    #: so ``user`` survives; subclasses whose mutations touch the
    #: identity plane must include it.
    mutation_dirty_roots: Tuple[str, ...] = ("project", "volume",
                                             "quota_sets")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._index_probes()

    @classmethod
    def _index_probes(cls) -> None:
        """Derive :attr:`roots`, :attr:`probe_costs` and
        :attr:`item_scoped_roots` from the :attr:`probes` table."""
        cls.roots = tuple(probe.root for probe in cls.probes)
        cls.probe_costs = {probe.root: probe.cost for probe in cls.probes}
        cls.item_scoped_roots = tuple(probe.root for probe in cls.probes
                                      if probe.item_scoped)

    def __init__(self, network: Network, project_id: str,
                 keystone_host: str = "keystone",
                 cinder_host: str = "cinder",
                 observability: Optional[Observability] = None,
                 transport=None):
        self.network = network
        self.project_id = project_id
        self.keystone_host = keystone_host
        self.cinder_host = cinder_host
        #: Probe counter for the OVERHEAD bench.
        self.probe_count = 0
        #: Optional shared observability; the owning monitor attaches its
        #: own when the provider was built without one.
        self.observability = observability
        #: What probes are sent through: the bare network by default, or a
        #: :class:`~repro.core.resilience.ResilientTransport` layering
        #: retries and circuit breaking over it.
        self.transport = transport if transport is not None else network
        #: Optional :class:`~repro.core.scheduler.ProbeScheduler`; when
        #: set (the owning monitor installs one for ``fanout > 1``), each
        #: probe phase issues its independent root probes concurrently.
        self.scheduler: Optional[ProbeScheduler] = None
        #: probe_count is read against per-request baselines, so its
        #: read-modify-write must not tear under concurrent fan-out.
        self._count_lock = threading.Lock()
        #: Thread-local state (unbound roots of the *calling thread's*
        #: last bindings call): concurrent requests through one provider
        #: must not read each other's probe outcomes.
        self._local = threading.local()
        #: Optional cross-request :class:`~repro.core.probecache.ProbeCache`
        #: (the owning monitor installs one when its
        #: ``options.probe_cache`` is set): untouched roots are served
        #: from cache instead of re-probing, and the monitor evicts the
        #: dirty roots after every forwarded mutation.
        self.probe_cache: Optional[ProbeCache] = None

    @property
    def unbound_roots(self) -> FrozenSet[str]:
        """Roots the calling thread's last :meth:`bindings` call failed to
        bind because the transport gave up on their probes; the monitor
        reads this to decide between evaluating the contract and an
        :data:`~repro.core.monitor.Verdict.INDETERMINATE` verdict.
        Thread-local so concurrent requests keep separate outcomes."""
        return getattr(self._local, "unbound_roots", frozenset())

    @unbound_roots.setter
    def unbound_roots(self, value: FrozenSet[str]) -> None:
        self._local.unbound_roots = frozenset(value)

    @property
    def current_budget(self) -> Optional[DeadlineBudget]:
        """The calling thread's per-request deadline budget (or ``None``).

        The owning monitor installs it for the request's duration; probe
        sends pass it to a budget-aware transport and probe phases
        abandon their pending tasks once it is exhausted.  Thread-local
        so concurrent requests never share (or cap) each other's budget.
        """
        return getattr(self._local, "budget", None)

    @current_budget.setter
    def current_budget(self, value: Optional[DeadlineBudget]) -> None:
        self._local.budget = value

    @property
    def probe_mode(self) -> str:
        """``"live"`` (default) or ``"cache"`` for the calling thread.

        In ``"cache"`` mode (the degradation ladder's ``cached_only``
        rung) a probe phase answers only from the cross-request
        :attr:`probe_cache`; roots without a cached binding are reported
        unbound instead of issuing live GETs.
        """
        return getattr(self._local, "probe_mode", "live")

    @probe_mode.setter
    def probe_mode(self, value: str) -> None:
        self._local.probe_mode = value

    def _get(self, token: str, url: str,
             extra_headers: Optional[Dict[str, str]] = None,
             cache=None) -> Response:
        """Issue one probe GET; *cache* single-flights repeated URLs.

        The cache lives for one :meth:`bindings` call (one probe phase):
        two roots asking for the same URL with the same headers share a
        single network round trip and a single ``probe_count`` tick.  It
        is either a plain dict (serial probing) or a
        :class:`~repro.core.scheduler.SingleFlight` (concurrent fan-out,
        where two pool threads may race to the same URL).
        """
        key = (url, tuple(sorted((extra_headers or {}).items())))
        do = getattr(cache, "do", None)
        if do is not None:
            return do(key,
                      lambda: self._send_probe(token, url, extra_headers))
        if cache is not None and key in cache:
            return cache[key]
        response = self._send_probe(token, url, extra_headers)
        if cache is not None:
            cache[key] = response
        return response

    def _send_probe(self, token: str, url: str,
                    extra_headers: Optional[Dict[str, str]] = None,
                    ) -> Response:
        """The uncached probe send: count, GET, reject transport loss."""
        headers = {"X-Auth-Token": token}
        if extra_headers:
            headers.update(extra_headers)
        with self._count_lock:
            self.probe_count += 1
        if self.observability is not None:
            self.observability.metrics.counter(
                "monitor_probe_requests_total",
                "GET probes issued to bind the OCL roots").inc()
        probe = Request("GET", url, headers=headers)
        budget = self.current_budget
        if budget is not None and getattr(self.transport,
                                          "supports_budget", False):
            response = self.transport.send(probe, budget=budget)
        else:
            response = self.transport.send(probe)
        reason = transport_failure(response)
        if reason is not None:
            # The transport layer gave up (retries exhausted / breaker
            # open): this is NOT a cloud answer, so the binding must not
            # degrade to "resource absent" -- it is unknowable.
            raise ProbeFailure(f"probe {url} failed: {reason}")
        return response

    @staticmethod
    def probe_body(response: Response) -> Optional[Dict[str, Any]]:
        """The probe's JSON object, or ``None`` when unusable.

        A 2xx response with a malformed or non-object body (a mangling
        proxy, a half-written release) is treated like an unreachable
        resource: the binding stays undefined instead of crashing the
        monitor -- the addressable-state semantics degrade gracefully.
        """
        if not status.indicates_existence(response.status_code):
            return None
        try:
            body = response.json()
        except ValueError:
            return None
        return body if isinstance(body, dict) else None

    def bindings(self, token: str,
                 item_id: Optional[str] = None,
                 roots: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Probe and return the OCL root bindings for one evaluation.

        Walks the :attr:`probes` table in order.  *item_id* is the id
        captured from the monitored item URI (for the Cinder scenario, the
        volume id); item-scoped roots are probed only when it is given.
        When *roots* is given (a :class:`~repro.core.planning.ProbePlan`
        phase set), only the named roots are probed and bound; every
        probe skipped this way is counted in the
        ``monitor_probes_skipped_total`` metric at the table's cost.
        Probes within one call share a single-flight cache, so identical
        URLs cost one round trip.  Roots whose probes die in the
        transport layer are collected in :attr:`unbound_roots` instead of
        raising.
        """
        requested = self.roots if roots is None else frozenset(roots)
        # Two pool threads may race to one URL only under a concurrent
        # scheduler; serial probing shares a plain dict.
        scheduler = self.scheduler
        cache = (SingleFlight() if scheduler is not None
                 and scheduler.concurrent else {})
        tasks: List[Tuple[str, Callable[[], Any]]] = []
        skipped = 0
        for root, prober, cost, item_scoped in self.probes:
            if item_scoped and item_id is None:
                continue
            if root in requested:
                tasks.append((root, partial(getattr(self, prober),
                                            token, item_id, cache)))
            else:
                skipped += cost
        if skipped and self.observability is not None:
            self.observability.metrics.counter(
                "monitor_probes_skipped_total",
                "GET probes the demand-driven plan proved unnecessary").inc(
                    skipped)
        return self._execute_probe_tasks(tasks, token=token, item_id=item_id)

    def _execute_probe_tasks(
            self, tasks: List[Tuple[str, Callable[[], Any]]],
            token: Optional[str] = None,
            item_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one phase's ``(root, probe)`` tasks and merge their results.

        With a concurrent scheduler installed the probes overlap on the
        pool; outcomes are merged **in task order**, so the returned
        bindings dict (and :attr:`unbound_roots`) are byte-identical to
        the serial loop.  A
        :class:`~repro.core.resilience.ProbeFailure` means the transport
        exhausted its retries (or the breaker is open): the root's value
        is unknowable, which is different from "the resource does not
        exist" -- so the root is recorded as unbound rather than bound to
        an empty value the contract would happily mis-evaluate.

        With a :attr:`probe_cache` installed (and *token* known), cached
        roots are answered without probing -- no network send, no
        ``probe_count`` tick -- and freshly probed bindings are stored
        for the next request; failed probes are never cached.

        Two overload seams gate the live probing itself: in
        :attr:`probe_mode` ``"cache"`` every root the cache could not
        serve is reported unbound without a single GET, and an exhausted
        :attr:`current_budget` abandons the pending tasks of the phase
        (serially task by task; concurrently at submission, see
        :meth:`~repro.core.scheduler.ProbeScheduler.map`).
        """
        bindings: Dict[str, Any] = {}
        unbound: set = set()
        budget = self.current_budget
        if self.probe_cache is not None and token is not None:
            tasks = self._consult_probe_cache(tasks, bindings, token,
                                              item_id)
        if self.probe_mode == "cache":
            # cached_only degradation: whatever the cache could not
            # answer stays unbound -- live GETs are exactly what this
            # mode exists to avoid.
            unbound.update(root for root, _ in tasks)
            tasks = []
        scheduler = self.scheduler
        if (scheduler is not None and scheduler.concurrent
                and len(tasks) > 1):
            thunks = [thunk for _, thunk in tasks]
            if budget is not None:
                # Pool threads have their own thread-locals: re-install
                # the request's budget inside each worker so its probe
                # sends stay capped.
                thunks = [self._budgeted(thunk, budget) for thunk in thunks]
            outcomes = scheduler.map(thunks, budget=budget)
            for (root, _), outcome in zip(tasks, outcomes):
                if outcome.ok:
                    bindings[root] = outcome.value
                else:
                    unbound.add(root)
        else:
            for root, thunk in tasks:
                if budget is not None and budget.exhausted():
                    unbound.add(root)
                    continue
                try:
                    bindings[root] = thunk()
                except ProbeFailure:
                    unbound.add(root)
        self.unbound_roots = frozenset(unbound)
        return bindings

    def _budgeted(self, thunk: Callable[[], Any],
                  budget: DeadlineBudget) -> Callable[[], Any]:
        """Wrap *thunk* to carry *budget* into the worker thread."""
        def run() -> Any:
            previous = self.current_budget
            self.current_budget = budget
            try:
                return thunk()
            finally:
                self.current_budget = previous

        return run

    def _consult_probe_cache(
            self, tasks: List[Tuple[str, Callable[[], Any]]],
            bindings: Dict[str, Any], token: str,
            item_id: Optional[str]) -> List[Tuple[str, Callable[[], Any]]]:
        """Serve cached roots into *bindings*; wrap the rest to cache.

        Returns the remaining ``(root, probe)`` tasks, each wrapped so a
        *successful* probe stores its binding under ``(root, resource
        id, token)``.  Hits and misses tick the
        ``monitor_probe_cache_{hits,misses}_total`` counters.
        """
        cache = self.probe_cache
        remaining: List[Tuple[str, Callable[[], Any]]] = []
        for root, thunk in tasks:
            scoped_id = item_id if root in self.item_scoped_roots else None
            hit, value = cache.get(root, scoped_id, token)
            if hit:
                bindings[root] = value
                self._count_cache(
                    "monitor_probe_cache_hits_total",
                    "Probe bindings served from the cross-request cache")
            else:
                self._count_cache(
                    "monitor_probe_cache_misses_total",
                    "Probe lookups the cross-request cache could not serve")
                remaining.append((root, self._caching_probe(
                    cache, root, scoped_id, token, thunk)))
        return remaining

    @staticmethod
    def _caching_probe(cache: ProbeCache, root: str,
                       scoped_id: Optional[str], token: str,
                       thunk: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap *thunk* so its successful result enters the cache.

        A :class:`~repro.core.resilience.ProbeFailure` propagates without
        caching -- an unreachable substrate is not an observation.
        """
        def probe_and_store() -> Any:
            value = thunk()
            cache.put(root, scoped_id, token, value)
            return value

        return probe_and_store

    def _count_cache(self, name: str, help_text: str) -> None:
        if self.observability is not None:
            self.observability.metrics.counter(name, help_text).inc()

    # -- probers: (token, item_id, cache) -> binding ---------------------------

    def _probe_project(self, token: str, item_id: Optional[str],
                       cache) -> Dict[str, Any]:
        project: Dict[str, Any] = {}
        response = self._get(
            token,
            f"http://{self.keystone_host}/v3/projects/{self.project_id}",
            cache=cache)
        if self.probe_body(response) is not None:
            project["id"] = self.project_id
        volumes_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}/volumes",
            cache=cache))
        if volumes_body is not None:
            project["volumes"] = volumes_body.get("volumes", [])
        return project

    def _probe_quota(self, token: str, item_id: Optional[str],
                     cache) -> Any:
        quota: Any = UNDEFINED
        quota_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}/quota_sets",
            cache=cache))
        if quota_body is not None:
            quota = quota_body.get("quota_set", {})
        return quota

    def _probe_volume(self, token: str, volume_id: str,
                      cache) -> Dict[str, Any]:
        volume: Dict[str, Any] = {}
        item_body = self.probe_body(self._get(
            token,
            f"http://{self.cinder_host}/v3/{self.project_id}"
            f"/volumes/{volume_id}", cache=cache))
        if item_body is not None:
            volume = dict(item_body.get("volume", {}))
            # Release-2 clouds expose snapshots; on older releases the
            # probe 404s and the binding stays undefined (size 0).
            snaps_body = self.probe_body(self._get(
                token,
                f"http://{self.cinder_host}/v3/{self.project_id}"
                f"/snapshots?volume_id={volume_id}", cache=cache))
            if snaps_body is not None:
                volume["snapshots"] = snaps_body.get("snapshots", [])
        return volume

    def _probe_user(self, token: str, item_id: Optional[str],
                    cache) -> Dict[str, Any]:
        """Resolve the requesting user via token introspection."""
        whoami_body = self.probe_body(self._get(
            token, f"http://{self.keystone_host}/v3/auth/tokens",
            extra_headers={"X-Subject-Token": token}, cache=cache))
        if whoami_body is None:
            return {}
        info = whoami_body.get("token", {})
        return {
            "id": info.get("user", {}).get("id"),
            "roles": [r["name"] for r in info.get("roles", [])],
            "groups": [g["name"] for g in info.get("groups", [])],
        }

    def context(self, token: str,
                item_id: Optional[str] = None,
                roots: Optional[Iterable[str]] = None) -> Context:
        """A lenient OCL context over freshly probed state.

        *roots* restricts probing to one plan phase's bindings; the
        context stays lenient, so a planned-away root resolves to
        undefined -- which the plan guarantees no expression will ask for.
        """
        return Context(self.bindings(token, item_id, roots=roots),
                       strict=False)


CloudStateProvider._index_probes()


#: Route captures in a monitor path template: ``<str:volume_id>`` -> name.
_PATH_CAPTURE = re.compile(r"<(?:[a-z]+:)?([A-Za-z_]\w*)>")


class MonitoredOperation:
    """One monitor route: trigger + forward target + expected codes."""

    def __init__(self, trigger: Trigger, monitor_path: str,
                 cloud_url_template: str,
                 expected_codes: Optional[Tuple[int, ...]] = None):
        self.trigger = trigger
        self.monitor_path = monitor_path
        self.cloud_url_template = cloud_url_template
        self.expected_codes = (expected_codes or
                               EXPECTED_SUCCESS_CODES[trigger.method])

    @property
    def item_capture(self) -> Optional[str]:
        """The capture name that addresses the monitored item, or ``None``.

        A route can declare several captures (scope segments plus the item
        id); the *last* capture of the URI template is the one naming the
        resource the operation targets (e.g. ``volume_id`` in
        ``cmonitor/volumes/<str:volume_id>``).  Collection routes have no
        captures and no item.
        """
        names = _PATH_CAPTURE.findall(self.monitor_path)
        return names[-1] if names else None

    def cloud_url(self, path_args: Dict[str, str]) -> str:
        """Fill the forward-URL template with the request's path captures."""
        url = self.cloud_url_template
        for key, value in path_args.items():
            url = url.replace("{" + key + "}", str(value))
        return url

    def __repr__(self) -> str:
        return f"<MonitoredOperation {self.trigger} at {self.monitor_path}>"


def operations_from_models(machine: StateMachine, diagram: ClassDiagram,
                           cloud_base: str, mount: str = "cmonitor",
                           scope_var: str = "project_id",
                           ) -> List[MonitoredOperation]:
    """Derive the monitor's routes from the design models.

    Each trigger of the behavioral model maps to the URI the resource model
    derives for its resource.  The monitor is scoped to one project
    (Listing 2 forwards to a fixed project URL), so the leading
    ``/{project_id}`` template segment is dropped from the monitor-side
    path and baked into *cloud_base* instead.  Remaining ``{x}`` template
    segments become ``<str:x>`` route captures.
    """
    paths = diagram.uri_paths()
    operations: List[MonitoredOperation] = []
    scope_prefix = "/{" + scope_var + "}"
    for trigger in machine.triggers():
        cls = diagram.find_class(trigger.resource)
        if cls is None:
            continue
        if cls.is_collection:
            uri = paths.get(cls.name)
        else:
            uri = diagram.item_uri(cls.name)
        if uri is None:
            continue
        # Strip the project-scope segment only when it is a *prefix* of a
        # longer path -- when the whole URI is "/{project_id}" the template
        # addresses the item itself (e.g. Keystone's project resource).
        if uri.startswith(scope_prefix) and len(uri) > len(scope_prefix):
            uri = uri[len(scope_prefix):]
        monitor_path = (mount + re.sub(r"\{(\w+)\}", r"<str:\1>", uri)
                        ).rstrip("/")
        cloud_url = cloud_base + uri
        operations.append(MonitoredOperation(trigger, monitor_path, cloud_url))
    return operations


class CloudMonitor:
    """The generated monitor: contracts + state provider + forwarding."""

    def __init__(self, contracts: Dict[Trigger, MethodContract],
                 provider: CloudStateProvider,
                 operations: Iterable[MonitoredOperation],
                 enforcing: Optional[bool] = None,
                 coverage: Optional[CoverageTracker] = None,
                 mirror: Optional["MirrorDatabase"] = None,
                 observability: Optional[Observability] = None,
                 probe_planning: Optional[bool] = None,
                 transport=None,
                 options: Optional[MonitorOptions] = None):
        #: The :class:`~repro.core.options.MonitorOptions` this monitor
        #: was built with; the ``enforcing`` / ``probe_planning``
        #: keywords, when given, override the matching fields.
        options = options if options is not None else MonitorOptions()
        if enforcing is not None:
            options = replace(options, enforcing=bool(enforcing))
        if probe_planning is not None:
            options = replace(options, probe_planning=bool(probe_planning))
        self.options = options
        self.contracts = contracts
        self.provider = provider
        self.operations = list(operations)
        self.enforcing = self.options.enforcing
        self.coverage = coverage
        #: When True (the default), each probe phase binds only the roots
        #: the contract's :class:`~repro.core.planning.ProbePlan` proves
        #: necessary; False restores the paper's probe-everything rounds.
        #: The ``roots`` keyword is part of the provider ``bindings``
        #: contract, so no capability sniffing happens here.
        self.probe_planning = bool(self.options.probe_planning)
        #: Cross-request probe cache (see :mod:`repro.core.probecache`),
        #: built fresh for this monitor when ``options.probe_cache`` is
        #: set -- so every fleet shard owns its own; ``None`` (the
        #: default) keeps the uncached probe-everything-again behavior.
        self.probe_cache: Optional[ProbeCache] = None
        if self.options.probe_cache:
            self.probe_cache = ProbeCache()
            self.provider.probe_cache = self.probe_cache
        #: Optional local copy of the monitored resources (the runtime
        #: analogue of the generated models.py tables).
        self.mirror = mirror
        #: Metrics + tracer + clock shared with the provider, the network,
        #: and the contracts; pass a ManualClock-backed Observability for
        #: deterministic timings.
        self.obs = observability if observability is not None \
            else Observability()
        #: What probes and the forward travel through.  ``None`` keeps the
        #: provider's own transport (the bare network unless the provider
        #: was built resilient); passing a
        #: :class:`~repro.core.resilience.ResilientTransport` threads
        #: retries + circuit breaking under every send.  With no explicit
        #: transport, ``options.resilience`` builds one from its declared
        #: retry/breaker parameters (breakers are lazy, so this performs
        #: no clock reads and stays byte-compatible with a pre-built
        #: transport).
        if transport is None and self.options.resilience is not None:
            transport = self.options.resilience.build_transport(
                self.provider.network)
        if transport is not None:
            self.provider.transport = transport
        self.transport = self.provider.transport
        attach = getattr(self.transport, "attach_observability", None)
        if attach is not None and getattr(
                self.transport, "observability", None) is None:
            attach(self.obs)
        if self.provider.observability is None:
            self.provider.observability = self.obs
        if self.provider.network.observability is None:
            self.provider.network.attach_observability(self.obs)
        for contract in self.contracts.values():
            contract.instrument(self.obs)
        #: The burn-rate engine over the shared registry: snapshotted
        #: after every monitored request, reported by ``/-/health`` and
        #: ``cloudmon slo``.  Replace :attr:`slos`.slos to monitor custom
        #: objectives.
        self.slos = SLOEngine(self.obs.metrics, clock=self.obs.clock)
        #: Alarm state machines over the burn-rate windows (see
        #: :mod:`repro.alerting`): evaluated right after every SLO
        #: snapshot with the snapshot's own clock reading, so alarms add
        #: zero clock reads to the monitored path.  Transitions land in
        #: the wide-event log as ``alarm_transition`` events; replace the
        #: rules/sinks with :meth:`configure_alarms`.
        self.alarms = AlarmEngine(self.slos, events=self.obs.events)
        #: Overload controls (see :mod:`repro.core.admission`), all off
        #: by default: a per-request deadline-budget template, one
        #: admission controller per monitor/shard, and the degradation
        #: ladder.  When all three are ``None`` the monitored path runs
        #: the exact pre-admission code -- zero extra clock reads, so
        #: recorded digest gates hold byte-for-byte.
        self.deadline = self.options.deadline
        self.admission: Optional[AdmissionController] = (
            self.options.admission.build()
            if self.options.admission is not None else None)
        self.ladder = (self.options.degradation.build()
                       if self.options.degradation is not None else None)
        #: Head/tail trace sampling plus obs-overhead self-accounting
        #: (see :mod:`repro.obs.sampling` / :mod:`repro.obs.overhead`).
        #: ``None`` (the default) retains every trace and runs the exact
        #: pre-sampling finish path -- zero extra clock reads, recorded
        #: digest gates hold byte-for-byte.
        self.sampler: Optional[TraceSampler] = (
            TraceSampler(self.options.sampling, metrics=self.obs.metrics)
            if self.options.sampling is not None else None)
        self.overhead: Optional[OverheadRecorder] = (
            OverheadRecorder(self.obs.metrics, self.obs.clock)
            if self.options.sampling is not None
            and self.options.sampling.overhead else None)
        #: Mode the in-flight request is served under ("full" when the
        #: overload controls are off); thread-local like the counter
        #: baselines, read by the wide event.
        self._request_mode = threading.local()
        #: Requested probe fan-out width.  At 1 (the default) probing is
        #: serial; above 1 the provider gets a
        #: :class:`~repro.core.scheduler.ProbeScheduler` sized to
        #: ``min(fanout, widest probe plan)`` -- wider could never be
        #: fully busy -- and each probe phase overlaps its independent
        #: root probes.  Outcome merging is submission-ordered, so the
        #: verdict stream is byte-identical to the serial path.
        self.fanout = max(1, int(self.options.fanout))
        self.scheduler: Optional[ProbeScheduler] = None
        if self.fanout > 1:
            self.scheduler = ProbeScheduler(
                width=min(self.fanout, self._max_plan_width()),
                events=self.obs.events)
            self.provider.scheduler = self.scheduler
        #: Appends to the verdict log must not tear under a sharded or
        #: stress deployment driving one monitor from many threads.
        self._log_lock = threading.Lock()
        #: Counter baselines captured at the start of the in-flight
        #: request so its wide event can report per-request deltas;
        #: thread-local because concurrent requests each carry their own.
        self._baseline = threading.local()
        #: Every verdict, in arrival order -- the validation log
        #: ("the invocation results can be logged for further fault
        #: localization", Section III-B).
        self.log: List[MonitorVerdict] = []
        self.app = Application("cmonitor")
        self.app.add_middleware(
            ObservabilityMiddleware(self.obs, app_name="cmonitor"))
        self._install_routes()

    # -- construction ------------------------------------------------------------

    @classmethod
    def for_service(cls, name: str, network: Network, project_id: str,
                    **kwargs) -> "CloudMonitor":
        """Assemble the monitor for a registered scenario by *name*.

        The one front door for every monitored service: looks *name* up
        in the :mod:`repro.core.scenarios` registry (``cinder``, ``nova``,
        ``keystone`` ship built in; register your own with
        :func:`repro.core.scenarios.register_scenario`) and hands the
        remaining keyword arguments to its builder.
        """
        from .scenarios import build_scenario

        return build_scenario(name, network, project_id, **kwargs)

    def _max_plan_width(self) -> int:
        """The widest probe phase across this monitor's contracts."""
        if not self.probe_planning:
            return len(tuple(self.provider.roots)) or 1
        widths = [contract.probe_plan(tuple(self.provider.roots)).width
                  for contract in self.contracts.values()]
        return max(widths, default=1)

    def close(self) -> None:
        """Release the probe scheduler's worker pool (if any)."""
        if self.scheduler is not None:
            self.scheduler.close()

    def configure_alarms(self, rules=None, sinks=None) -> AlarmEngine:
        """Replace the alarm engine's rules and/or notification sinks.

        *rules* is a sequence of :class:`~repro.alerting.AlarmRule`
        (``None`` keeps the default one-per-SLO set); *sinks* a sequence
        of :class:`~repro.alerting.NotificationSink` (``None`` keeps the
        wide-event-log sink).  Alarm state restarts from OK -- changing
        the rule set mid-incident re-derives severity on the next
        evaluation rather than trusting stale state.
        """
        self.alarms = AlarmEngine(
            self.slos, rules=rules, sinks=sinks,
            events=self.obs.events if sinks is None else None)
        return self.alarms

    def _install_routes(self) -> None:
        by_path: Dict[str, List[MonitoredOperation]] = {}
        for operation in self.operations:
            by_path.setdefault(operation.monitor_path, []).append(operation)
        for monitor_path, operations in by_path.items():
            self.app.add_route(path(
                monitor_path,
                self._make_view({op.trigger.method: op for op in operations}),
                name=monitor_path,
            ))
        # Operational endpoints (outside the monitored namespace): the
        # metrics exposition (Prometheus text by default, ?format=json
        # for the structured document including retained traces), the
        # SLO health report, the wide-event log, and trace lookup.
        self.app.add_route(path("-/metrics", self._metrics_view,
                                name="metrics", methods=("GET",)))
        self.app.add_route(path("-/health", self._health_view,
                                name="health", methods=("GET",)))
        self.app.add_route(path("-/alarms", self._alarms_view,
                                name="alarms", methods=("GET",)))
        self.app.add_route(path("-/events", self._events_view,
                                name="events", methods=("GET",)))
        self.app.add_route(path("-/traces", self._trace_index_view,
                                name="traces", methods=("GET",)))
        self.app.add_route(path("-/traces/<str:trace_id>", self._trace_view,
                                name="trace", methods=("GET",)))

    def _metrics_view(self, request: Request, **kwargs) -> Response:
        if request.params.get("format") == "json":
            return Response.json_response(self.obs.export_json())
        text = self.obs.export_prometheus()
        return Response(200, text.encode(), headers={
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8"})

    def _health_view(self, request: Request, **kwargs) -> Response:
        """The SLO burn-rate report plus active alarm states.

        A load balancer (or a human) polls this instead of re-deriving
        health from the raw metrics exposition.  503 while any objective
        is burning **or** any alarm stands at critical -- an alarm held
        up by de-escalation hysteresis keeps the endpoint unhealthy even
        on an evaluation tick where the burn rate momentarily dipped.
        200 otherwise (warn-level alarms are reported but not unhealthy).
        """
        report = self.slos.report()
        report["alarms"] = self.alarms.status()
        code = (200 if report["overall"] == "ok"
                and not self.alarms.has_critical() else 503)
        return Response.json_response(report, code)

    def _alarms_view(self, request: Request, **kwargs) -> Response:
        """The full alarm document: per-rule states + transition log."""
        return Response.json_response(self.alarms.report())

    def _events_view(self, request: Request, **kwargs) -> Response:
        """The retained wide events, filterable by query parameters.

        ``?event=``, ``?trace_id=``, and ``?verdict=`` filter; ``?limit=``
        keeps only the most recent N matches.
        """
        criteria: Dict[str, Any] = {}
        for key in ("event", "trace_id", "verdict"):
            value = request.params.get(key)
            if value is not None:
                criteria[key] = value
        limit = request.params.get("limit")
        if limit is not None:
            try:
                criteria["limit"] = int(limit)
            except ValueError:
                return Response.json_response(
                    {"error": f"limit must be an integer, got {limit!r}"},
                    400)
        return Response.json_response({
            "retained": len(self.obs.events),
            "emitted": self.obs.events.emitted_count,
            "events": self.obs.events.to_dicts(**criteria),
        })

    def _trace_index_view(self, request: Request, **kwargs) -> Response:
        """Trace analytics over the retained ring (attribution, exemplars)."""
        return Response.json_response(
            trace_report(self.obs.metrics, self.obs.tracer))

    def _trace_view(self, request: Request, trace_id: str = "",
                    **kwargs) -> Response:
        """One retained trace by id -- the exemplar resolution endpoint.

        The raw span record plus the analytics view of it (spans ranked
        by cost, dominant stage), so the hop from an exemplar to "what
        was slow about this exact request" is a single GET.
        """
        trace = self.obs.tracer.find(trace_id)
        if trace is None:
            return Response.json_response(
                {"error": f"no retained trace {trace_id!r} "
                          "(evicted or never finished)"}, 404)
        record = trace.to_dict()
        record["critical_path"] = critical_path(trace)
        return Response.json_response(record)

    def _make_view(self, by_method: Dict[str, "MonitoredOperation"]):
        def view(request: Request, **kwargs) -> Response:
            operation = by_method.get(request.method)
            if operation is None:
                return Response.method_not_allowed(tuple(by_method))
            response, _ = self.monitor_request(operation, request)
            return response

        return view

    # -- the Figure 2 workflow ---------------------------------------------------

    def monitor_request(self, operation: MonitoredOperation,
                        request: Request) -> Tuple[Response, MonitorVerdict]:
        """Run one request through pre-check, forward, post-check.

        Every stage is wrapped in a trace span (``pre_probe``,
        ``pre_eval``, ``snapshot``, ``forward``, ``post_probe``,
        ``post_eval``); the finished trace feeds the per-stage latency
        histograms and its id becomes the verdict's correlation id.
        """
        token = request.auth_token or ""
        contract = self.contracts.get(operation.trigger)
        if contract is None:
            raise MonitorError(
                f"no contract generated for {operation.trigger}")
        # The item id is the capture the URI template declares for the
        # operation's resource -- not whichever capture iterates first, so
        # multi-capture routes (scope segments + item id) bind correctly.
        capture = operation.item_capture
        item_id = (request.path_args.get(capture)
                   if capture is not None else None)
        plan: Optional[ProbePlan] = (
            contract.probe_plan(tuple(self.provider.roots))
            if self.probe_planning else None)

        trace = self.obs.tracer.begin(str(operation.trigger))
        trace.set_tag("method", operation.trigger.method)
        trace.set_tag("resource", operation.trigger.resource)
        if plan is not None:
            trace.set_tag("probe_plan", plan.describe())

        # Wide-event bookkeeping: transport events emitted while this
        # request is in flight inherit its trace id, and the request's
        # own wide event reports per-request counter deltas.
        metrics = self.obs.metrics
        self._baseline.value = {
            "probes": float(self.provider.probe_count),
            "retries": metrics.total("monitor_retries_total"),
            "transport_failures":
                metrics.total("monitor_transport_failures_total"),
            "probe_cache_hits":
                metrics.total("monitor_probe_cache_hits_total"),
        }
        with self.obs.events.correlate(trace.trace_id):
            admitted = self._admit(request)
            if admitted is None:
                return self._run_workflow(operation, request, token,
                                          contract, item_id, plan, trace)
            mode, budget, slot_held, mode_reason = admitted
            self._request_mode.value = mode
            self.provider.current_budget = budget
            if mode == "cached_only":
                self.provider.probe_mode = "cache"
            try:
                return self._run_workflow(operation, request, token,
                                          contract, item_id, plan, trace,
                                          mode=mode, budget=budget,
                                          mode_reason=mode_reason)
            finally:
                self._request_mode.value = None
                self.provider.current_budget = None
                self.provider.probe_mode = "live"
                if slot_held:
                    self.admission.release()

    def _admit(self, request: Request):
        """The overload gate in front of the Figure-2 workflow.

        Returns ``None`` when every overload control is off (the default
        -- the caller then runs the untouched workflow with no extra
        clock reads), else ``(mode, budget, slot_held, reason)``: the
        degradation mode to serve this request under, its deadline
        budget, whether an admission slot must be released afterwards,
        and a human-readable reason for any non-``full`` mode.

        One clock reading covers the admission decision, the ladder
        update, and the budget start; the request's scheduled arrival
        (:data:`~repro.core.admission.ARRIVAL_HEADER`, stamped by paced
        trace replay) both measures queue lag and backdates the budget,
        so queue wait counts against the deadline.
        """
        if (self.deadline is None and self.admission is None
                and self.ladder is None):
            return None
        clock = self.obs.clock
        now = clock()
        arrival = parse_arrival(request)
        decision = AdmissionController.ADMIT
        slot_held = False
        if self.admission is not None:
            decision = self.admission.admit(now=now, scheduled_at=arrival)
            slot_held = decision != AdmissionController.SHED
        shed = decision == AdmissionController.SHED
        mode, transition = "full", None
        severity = "ok"
        if self.ladder is not None:
            severity = self.alarms.overall
            mode, transition = self.ladder.observe(shed, severity=severity)
        reason = None
        if shed:
            # A shed request is served audit-only regardless of the
            # ladder's rung: admission already decided it cannot afford
            # contract evaluation.
            mode = "audit_only"
            reason = "admission shed"
        elif mode != "full":
            reason = f"degradation ladder at {mode}"
        budget: Optional[DeadlineBudget] = None
        if self.deadline is not None:
            budget = self.deadline.budget(
                clock, start=arrival if arrival is not None else now)
        if shed:
            self.obs.metrics.counter(
                "monitor_shed_total",
                "Requests shed by admission control "
                "(served audit-only)").inc()
            self.obs.events.emit(
                "admission_shed",
                decision=decision,
                lag=self.admission.last_lag,
                mode=mode,
                deadline_remaining_seconds=(
                    budget.remaining(now) if budget is not None else None))
        if transition is not None:
            self.obs.metrics.gauge(
                "monitor_degraded_mode",
                "Degradation ladder rung: 0 full, 1 cached_only, "
                "2 audit_only").set(MODE_GAUGE[self.ladder.mode])
            self.obs.events.emit(
                "monitor_mode_transition",
                from_mode=transition[0],
                to_mode=transition[1],
                shed=shed,
                severity=severity,
                deadline_remaining_seconds=(
                    budget.remaining(now) if budget is not None else None))
        return mode, budget, slot_held, reason

    def _run_workflow(self, operation: MonitoredOperation, request: Request,
                      token: str, contract: MethodContract,
                      item_id: Optional[str], plan: Optional[ProbePlan],
                      trace, mode: str = "full",
                      budget: Optional[DeadlineBudget] = None,
                      mode_reason: Optional[str] = None,
                      ) -> Tuple[Response, MonitorVerdict]:
        """Stages (1)-(6) of Figure 2 (see :meth:`monitor_request`).

        *mode* / *budget* are the overload controls' per-request verdicts
        (see :meth:`_admit`): ``audit_only`` short-circuits to a
        pass-through forward, ``cached_only`` answers probes from the
        probe cache (falling back to a degraded forward when the cache
        cannot serve the pre-state), and an exhausted *budget* turns a
        pre-state probe abandonment into a degraded forward with a
        ``deadline_exceeded`` reason instead of blocking the request.
        """
        if mode == "audit_only":
            return self._degraded_forward(
                operation, request, trace, mode,
                mode_reason or "degraded to audit_only",
                contract.security_requirements, budget=budget)
        # (1)-(2) probe pre-state and check the pre-condition.  The pre
        # round also binds the snapshot roots: the pre-probe context is
        # reused by the snapshot phase below.
        with trace.span("pre_probe"):
            if plan is not None and not plan.pre_phase_roots:
                # The (optimized) contract reads no pre-state at all --
                # constant pre-condition and no snapshot roots -- so the
                # phase skips the provider round-trip entirely instead of
                # asking it to bind an empty set.
                pre_context = Context({}, strict=False)
                unbound: FrozenSet[str] = frozenset()
            else:
                pre_context = self.provider.context(
                    token, item_id,
                    roots=plan.pre_phase_roots if plan is not None else None)
                unbound = self.provider.unbound_roots
        if unbound:
            if mode == "cached_only":
                # The ladder already decided live probing is off; a
                # cache miss degrades one rung further for this request
                # rather than refusing it.
                return self._degraded_forward(
                    operation, request, trace, mode,
                    "pre-state not in probe cache: "
                    + ", ".join(sorted(unbound)),
                    contract.security_requirements, unbound=unbound,
                    budget=budget)
            if budget is not None and budget.exhausted():
                # The probes were abandoned (or died) because the
                # deadline ran out, not because the substrate is sick:
                # forward rather than block, per the deadline contract.
                return self._degraded_forward(
                    operation, request, trace, mode,
                    "deadline_exceeded: could not bind "
                    + ", ".join(sorted(unbound)),
                    contract.security_requirements, unbound=unbound,
                    budget=budget)
            # The transport gave up on at least one probe: the pre-state
            # is unobservable, so neither blocking nor forwarding can be
            # justified.  Even in audit mode the request is NOT forwarded
            # -- a write whose outcome could never be checked would
            # corrupt the validation log.
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.INDETERMINATE, None, False,
                None, None,
                "pre-state unobservable: transport could not bind "
                + ", ".join(sorted(unbound)),
                contract.security_requirements,
                unbound_roots=unbound), trace)
            return self._invalid_response(503, verdict), verdict
        with trace.span("pre_eval"):
            applicable = contract.applicable_cases(pre_context)
            pre_holds = bool(applicable)
        requirements = self._requirements(contract, applicable)

        if not pre_holds and self.enforcing:
            verdict = self._finish(
                MonitorVerdict(
                    operation.trigger, Verdict.PRE_BLOCKED, False, False,
                    None, None,
                    "pre-condition failed; request not forwarded",
                    requirements),
                trace)
            return self._invalid_response(412, verdict), verdict

        # (3) snapshot the old values the post-condition references.
        with trace.span("snapshot"):
            snapshot = contract.snapshot(pre_context)

        # (4) forward to the private cloud, query string included: the
        # template fills the path, the incoming params ride along (a
        # template carrying its own query keeps both, incoming wins).
        forward_request = self._forward_request(operation, request)
        with trace.span("forward") as forward_span:
            cloud_response = self._send_forward(forward_request, budget)
            forward_span.tags["status"] = cloud_response.status_code
        if request.method != "GET":
            # The forwarded mutation may have changed cloud state; evict
            # the roots it can dirty *before* any post-phase probe (or
            # any later request) could be served stale pre-state.  Even a
            # transport-failed forward may have reached the application
            # (a mangled response still executed), so eviction does not
            # wait for a clean answer.
            self._invalidate_probe_cache()
        reason = transport_failure(cloud_response)
        if reason is not None:
            # The 503 in hand is the transport's own (retries exhausted or
            # breaker open), not the cloud's answer: the request may or
            # may not have taken effect, so any valid/invalid verdict
            # would be a guess.
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.INDETERMINATE, pre_holds, False,
                None, None,
                f"forward failed in the transport layer ({reason}); "
                "outcome unknowable",
                requirements, snapshot_bytes=snapshot.storage_bytes),
                trace)
            return self._invalid_response(503, verdict), verdict
        accepted = cloud_response.status_code in operation.expected_codes
        succeeded = status.is_success(cloud_response.status_code)

        # (5) check the outcome against the contract.
        if not pre_holds:
            if succeeded:
                verdict = self._finish(MonitorVerdict(
                    operation.trigger, Verdict.PRE_VIOLATION, False, True,
                    cloud_response.status_code, None,
                    "cloud accepted a request whose pre-condition is false "
                    "(privilege escalation or missing check)",
                    requirements), trace)
                return self._invalid_response(502, verdict), verdict
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.INVALID_AGREED, False, True,
                cloud_response.status_code, None,
                "pre-condition false and cloud rejected the request",
                requirements), trace)
            return cloud_response, verdict

        if not succeeded:
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.REJECTED_VALID, True, True,
                cloud_response.status_code, None,
                "cloud rejected a request whose pre-condition holds "
                "(authorized user denied or wrong functional check)",
                requirements), trace)
            return self._invalid_response(502, verdict), verdict

        with trace.span("post_probe"):
            post_context = self.provider.context(
                token, item_id,
                roots=plan.post_phase_roots if plan is not None else None)
        unbound = self.provider.unbound_roots
        if unbound:
            why = "post-state unobservable"
            if mode == "cached_only":
                why = "post-state not in probe cache"
            elif budget is not None and budget.exhausted():
                why = "post-state unobservable (deadline_exceeded)"
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.INDETERMINATE, True, True,
                cloud_response.status_code, None,
                f"{why}: transport could not bind "
                + ", ".join(sorted(unbound)),
                requirements, snapshot_bytes=snapshot.storage_bytes,
                unbound_roots=unbound), trace)
            return self._invalid_response(503, verdict), verdict
        with trace.span("post_eval"):
            post_holds = contract.check_post(post_context, snapshot)
        if not accepted:
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.POST_VIOLATION, True, True,
                cloud_response.status_code, post_holds,
                f"unexpected status code {cloud_response.status_code}; "
                f"expected one of {operation.expected_codes}",
                requirements, snapshot_bytes=snapshot.storage_bytes), trace)
            return self._invalid_response(502, verdict), verdict
        if not post_holds:
            verdict = self._finish(MonitorVerdict(
                operation.trigger, Verdict.POST_VIOLATION, True, True,
                cloud_response.status_code, False,
                "post-condition failed after a successful request",
                requirements, snapshot_bytes=snapshot.storage_bytes), trace)
            return self._invalid_response(502, verdict), verdict

        verdict = self._finish(MonitorVerdict(
            operation.trigger, Verdict.VALID, True, True,
            cloud_response.status_code, True,
            "pre- and post-conditions hold",
            requirements, snapshot_bytes=snapshot.storage_bytes), trace)
        if self.mirror is not None:
            try:
                body = cloud_response.json()
            except ValueError:
                body = None
            self.mirror.observe(operation.trigger, body, item_id=item_id)
        return cloud_response, verdict

    # -- degraded service --------------------------------------------------------

    @staticmethod
    def _forward_request(operation: MonitoredOperation,
                         request: Request) -> Request:
        """The cloud-side request for *request*, query string included:
        the template fills the path, the incoming params ride along (a
        template carrying its own query keeps both, incoming wins).  The
        monitor-internal arrival stamp never leaks to the cloud."""
        forwarded_url = operation.cloud_url(request.path_args)
        forward_request = Request(request.method, forwarded_url,
                                  body=request.body)
        forward_request.headers = request.headers.copy()
        if forward_request.headers.get(ARRIVAL_HEADER) is not None:
            forward_request.headers.remove(ARRIVAL_HEADER)
        forward_request.params.update(request.params)
        return forward_request

    def _send_forward(self, forward_request: Request,
                      budget: Optional[DeadlineBudget]) -> Response:
        """One forward send, deadline-capped when the transport can."""
        if budget is not None and getattr(self.transport,
                                          "supports_budget", False):
            return self.transport.send(forward_request, budget=budget)
        return self.transport.send(forward_request)

    def _degraded_forward(self, operation: MonitoredOperation,
                          request: Request, trace, mode: str, reason: str,
                          requirements: List[str],
                          unbound: Iterable[str] = (),
                          budget: Optional[DeadlineBudget] = None,
                          ) -> Tuple[Response, MonitorVerdict]:
        """Serve one request without contract evaluation.

        The degraded tail of the ladder: the request is forwarded and
        audit-logged (the cloud's answer passes through untouched), but
        the verdict is :data:`Verdict.INDETERMINATE` -- the monitor
        refuses to claim valid/invalid for state it never checked.
        Probe-cache invalidation still runs after mutations: a degraded
        write must not leave stale bindings behind for the recovery.
        """
        forward_request = self._forward_request(operation, request)
        with trace.span("forward") as forward_span:
            cloud_response = self._send_forward(forward_request, budget)
            forward_span.tags["status"] = cloud_response.status_code
        if request.method != "GET":
            self._invalidate_probe_cache()
        verdict = self._finish(MonitorVerdict(
            operation.trigger, Verdict.INDETERMINATE, None, True,
            cloud_response.status_code, None,
            f"degraded ({mode}): {reason}; contract not evaluated",
            list(requirements), unbound_roots=unbound), trace)
        return cloud_response, verdict

    # -- bookkeeping ----------------------------------------------------------------

    def _invalidate_probe_cache(self) -> None:
        """Evict probe-cache entries a forwarded mutation dirtied.

        The provider's :attr:`~CloudStateProvider.mutation_dirty_roots`
        names what a POST/PUT/DELETE can touch; eviction crosses all
        tokens and resource ids for those roots.  Each evicted entry
        ticks ``monitor_probe_cache_invalidations_total``.
        """
        cache = self.provider.probe_cache
        if cache is None:
            return
        evicted = cache.invalidate(self.provider.mutation_dirty_roots)
        if evicted:
            self.obs.metrics.counter(
                "monitor_probe_cache_invalidations_total",
                "Probe-cache entries evicted because a forwarded "
                "mutation dirtied their root").inc(evicted)

    @staticmethod
    def _requirements(contract: MethodContract, applicable) -> List[str]:
        if applicable:
            seen: Dict[str, None] = {}
            for case in applicable:
                for requirement in case.security_requirements:
                    seen.setdefault(requirement, None)
            return list(seen)
        return contract.security_requirements

    def _finish(self, verdict: MonitorVerdict,
                trace=None) -> MonitorVerdict:
        if trace is not None:
            verdict.correlation_id = trace.trace_id
            trace.set_tag("verdict", verdict.verdict)
            if verdict.unbound_roots:
                trace.set_tag("unbound_roots",
                              ",".join(verdict.unbound_roots))
            if self.sampler is None:
                self.obs.tracer.finish(trace)
                self._record_metrics(verdict, trace)
                self._emit_wide_event(verdict, trace)
                # One snapshot, one alarm evaluation, one clock reading:
                # the alarm engine reuses the snapshot's time, adding
                # zero clock reads to the deterministic per-request path.
                now = self.slos.snapshot()
                self.alarms.evaluate(now)
            else:
                self._finish_sampled(verdict, trace)
        with self._log_lock:
            self.log.append(verdict)
            # Indeterminate outcomes say nothing about the requirement
            # either way, so they must not move the pass/fail coverage
            # counters.
            if self.coverage is not None and not verdict.indeterminate:
                self.coverage.record(verdict.security_requirements,
                                     passed=not verdict.violation)
        return verdict

    def _finish_sampled(self, verdict: MonitorVerdict, trace) -> None:
        """The finish path with head/tail sampling enabled.

        Deliberately reordered relative to the default path so the
        sampling decision can see everything that forces a trace into
        the tail: metrics first (the exemplar-novelty check), then the
        SLO snapshot and alarm evaluation (alarm transitions force), and
        only then the decision, the conditional ring insert, and the
        wide event (shed for dropped traces).  The enabled path's event
        ordering and clock-read count therefore differ from the recorded
        digest gates -- by design: those gates pin the *disabled*
        default, and enabling sampling is an explicit opt-in.
        """
        sampler, overhead = self.sampler, self.overhead
        # Close the trace's clock before anything reads its duration --
        # the same single read Tracer.finish would have spent.
        if trace.end is None:
            trace.end = self.obs.clock()
        if overhead is not None:
            overhead.begin_request()
        stage = (overhead.stage if overhead is not None
                 else (lambda name: nullcontext()))

        # Exemplar force-keep: when this trace is about to become the
        # *first* exemplar of its monitor_request_seconds latency bucket
        # (a latency shape not seen before), it is pinned into the tail.
        # Later traces replacing a bucket's exemplar are sampled
        # normally; resolve_exemplars reports their traces as evicted
        # when the coin dropped them.
        histogram = self.obs.metrics.histogram(
            "monitor_request_seconds",
            "End-to-end latency of one monitored request",
            operation=str(verdict.trigger))
        novel = (histogram.bucket_index(trace.duration)
                 not in histogram.exemplars)
        with stage("metrics"):
            self._record_metrics(verdict, trace)
        if novel:
            sampler.mark_forced(trace.trace_id)

        now = self.slos.snapshot()
        if self.alarms.evaluate(now):
            # The transition events just emitted carry this trace's id
            # (we are inside its correlation scope): keep the trace they
            # point at.
            sampler.mark_forced(trace.trace_id)

        decision = sampler.decide(trace.trace_id, verdict=verdict.verdict,
                                  duration=trace.duration)
        trace.set_tag("sampling_decision", decision)
        with stage("tracing"):
            if decision != DECISION_DROPPED:
                self.obs.tracer.finish(trace)
        if decision == DECISION_DROPPED:
            # Head/tail on the event log too: a dropped (healthy) trace
            # sheds its monitor_request wide event.  Alarm, transition,
            # and shed events are emitted elsewhere and never shed.
            sampler.shed_event()
            return
        extra: Dict[str, Any] = {"sampling_decision": decision}
        if overhead is not None:
            attribution = overhead.attribution() or {}
            extra["obs_overhead"] = {name: _round9(cost)
                                     for name, cost
                                     in sorted(attribution.items())}
            extra["obs_overhead_seconds"] = _round9(
                sum(attribution.values()))
        # The events stage cannot appear inside the event it measures;
        # its cost lands in the obs_overhead_seconds histogram only.
        with stage("events"):
            self._emit_wide_event(verdict, trace, extra=extra)

    def _record_metrics(self, verdict: MonitorVerdict, trace) -> None:
        metrics = self.obs.metrics
        metrics.counter(
            "monitor_requests_total", "Requests run through the Figure-2 "
            "workflow").inc()
        metrics.counter(
            "monitor_verdicts_total", "Verdicts by outcome",
            verdict=verdict.verdict).inc()
        if verdict.violation:
            metrics.counter(
                "monitor_violations_total",
                "Verdicts where the cloud contradicted the contract").inc()
        if verdict.verdict == Verdict.PRE_BLOCKED:
            metrics.counter(
                "monitor_blocked_total",
                "Requests blocked in enforcing mode (412)").inc()
        if verdict.indeterminate:
            metrics.counter(
                "monitor_indeterminate_total",
                "Requests whose outcome the transport made unknowable"
                ).inc()
        metrics.counter(
            "monitor_snapshot_bytes_total",
            "Bytes of pre() old values stored across all requests").inc(
                verdict.snapshot_bytes)
        # Exemplars link each latency bucket to the most recent trace
        # that landed in it -- the hop from "p99 is high" to "this exact
        # request" (resolved via Tracer.find / the /-/traces/<id> route).
        exemplar = {"trace_id": trace.trace_id}
        metrics.histogram(
            "monitor_request_seconds",
            "End-to-end latency of one monitored request",
            operation=str(verdict.trigger)).observe(
                trace.duration, exemplar=exemplar, timestamp=trace.end)
        for span in trace.spans:
            metrics.histogram(
                "monitor_stage_seconds",
                "Latency of one Figure-2 stage",
                stage=span.name).observe(
                    span.duration, exemplar=exemplar, timestamp=span.end)

    def _emit_wide_event(self, verdict: MonitorVerdict, trace,
                         extra: Optional[Dict[str, Any]] = None) -> None:
        """One flat, queryable record for the whole monitored request.

        The audit log keeps the verdict; this event keeps *why*: the
        probe plan, the per-stage timing, the transport's retry and
        give-up deltas, and the breaker landscape at completion.
        *extra* fields (sampling decision, obs-overhead attribution)
        appear only on the sampling finish path, so the default event
        shape stays byte-identical.
        """
        metrics = self.obs.metrics
        baseline = getattr(self._baseline, "value", None) or {
            "probes": 0.0, "retries": 0.0, "transport_failures": 0.0,
            "probe_cache_hits": 0.0}
        self._baseline.value = None
        breaker_states = getattr(self.transport, "breaker_states", None)
        self.obs.events.emit(
            "monitor_request",
            trace_id=trace.trace_id,
            operation=str(verdict.trigger),
            method=verdict.trigger.method,
            resource=verdict.trigger.resource,
            verdict=verdict.verdict,
            pre_holds=verdict.pre_holds,
            post_holds=verdict.post_holds,
            forwarded=verdict.forwarded,
            response_status=verdict.response_status,
            message=verdict.message,
            security_requirements=list(verdict.security_requirements),
            unbound_roots=list(verdict.unbound_roots),
            monitor_mode=(getattr(self._request_mode, "value", None)
                          or "full"),
            probe_plan=trace.tags.get("probe_plan"),
            probes=int(self.provider.probe_count - baseline["probes"]),
            probe_cache_hits=int(
                metrics.total("monitor_probe_cache_hits_total")
                - baseline["probe_cache_hits"]),
            retries=int(metrics.total("monitor_retries_total")
                        - baseline["retries"]),
            transport_failures=int(
                metrics.total("monitor_transport_failures_total")
                - baseline["transport_failures"]),
            breaker_states=(breaker_states()
                            if callable(breaker_states) else {}),
            stage_seconds={span.name: _round9(span.duration)
                           for span in trace.spans},
            duration=_round9(trace.duration),
            **(extra or {}))

    @staticmethod
    def _invalid_response(code: int, verdict: MonitorVerdict) -> Response:
        return Response.json_response({"monitor": verdict.to_dict()}, code)

    # -- reporting --------------------------------------------------------------------

    def violations(self) -> List[MonitorVerdict]:
        """All violation verdicts recorded so far."""
        return [verdict for verdict in self.log if verdict.violation]

    def clear_log(self) -> None:
        """Forget recorded verdicts (coverage counters are kept)."""
        self.log.clear()

    def __repr__(self) -> str:
        mode = "enforcing" if self.enforcing else "audit"
        return (f"<CloudMonitor {mode} operations={len(self.operations)} "
                f"log={len(self.log)}>")
