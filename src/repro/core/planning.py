"""Demand-driven probe planning for the cloud monitor.

Binding the OCL roots is the expensive part of one monitored request: the
unplanned provider issues the full round of GET probes (Keystone project,
volume list, quota set, volume item, token introspection) before *each* of
the two evaluation phases, even when the method's contract only reads one
or two roots.  A :class:`ProbePlan` is the static answer to "which probes
does this contract actually need":

* the **pre phase** must bind every root the pre-condition reads *plus*
  every root the snapshot will capture old values from -- the monitor
  reuses the pre-probe context for the snapshot, so both sets ride on one
  probe round;
* the **post phase** must bind only the roots the post-condition reads
  outside ``pre()`` nodes, because the snapshot answers every old-value
  lookup.

Plans are computed once per contract (the AST never changes at runtime)
and consumed by ``CloudStateProvider.bindings(..., roots=...)``, which
skips the probes for every root not in the requested set and counts them
in the ``monitor_probes_skipped_total`` metric.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Tuple

from ..ocl.usage import old_value_roots, post_state_roots, required_roots


class Probe(NamedTuple):
    """One row of a provider's probe table: how one OCL root is bound.

    *prober* names the provider method that binds the root; every prober
    takes ``(token, item_id, cache)`` and returns the binding.  *cost* is
    the number of GET requests the prober sends -- shared by the
    planner's cost estimates and the skipped-probe accounting.  An
    *item_scoped* root reads the item the request URI addresses: it is
    probed only when the request names an item, and its probe-cache
    entries are keyed by the item id.
    """

    root: str
    prober: str
    cost: int
    item_scoped: bool = False


#: The Cinder scenario's probe table, in probe order: ``project`` is the
#: Keystone project probe plus the volume listing, ``volume`` the item
#: probe plus its snapshot listing.  This table is the single source for
#: the provider's roots, the planner's cost estimates and the
#: skipped-probe accounting -- if a prober gains or loses a request,
#: change its cost HERE (a test pins every scenario's costs to real
#: ``probe_count`` deltas, so drift fails loudly).
CINDER_PROBES: Tuple[Probe, ...] = (
    Probe("project", "_probe_project", 2),
    Probe("quota_sets", "_probe_quota", 1),
    Probe("volume", "_probe_volume", 2, item_scoped=True),
    Probe("user", "_probe_user", 1),
)

#: The OCL roots the Cinder-scenario provider knows how to bind.
PROBE_ROOTS: Tuple[str, ...] = tuple(probe.root for probe in CINDER_PROBES)

#: GET requests each Cinder-scenario root costs to bind.
PROBE_COSTS: Dict[str, int] = {probe.root: probe.cost
                               for probe in CINDER_PROBES}


class ProbePlan:
    """Which root bindings each Figure-2 phase of one contract needs."""

    def __init__(self, pre_roots: Iterable[str],
                 snapshot_roots: Iterable[str],
                 post_roots: Iterable[str]):
        #: Roots the pre-condition may read.
        self.pre_roots: FrozenSet[str] = frozenset(pre_roots)
        #: Roots read under ``pre()`` in the post-condition (snapshotted).
        self.snapshot_roots: FrozenSet[str] = frozenset(snapshot_roots)
        #: Roots the post-condition reads against the post-state.
        self.post_roots: FrozenSet[str] = frozenset(post_roots)

    @classmethod
    def for_contract(cls, contract,
                     roots: Optional[Iterable[str]] = None) -> "ProbePlan":
        """Analyse *contract*'s pre- and post-condition ASTs.

        :meth:`MethodContract.probe_plan` passes its
        :class:`~repro.core.contracts.CompiledContract`, so plans cover
        exactly the optimized ASTs the runtime evaluates.  *roots*
        defaults to :data:`PROBE_ROOTS`; pass the root names of a
        differently-shaped provider to plan for other scenarios.
        """
        known = tuple(roots) if roots is not None else PROBE_ROOTS
        return cls(
            pre_roots=required_roots(contract.precondition, known),
            snapshot_roots=old_value_roots(contract.postcondition, known),
            post_roots=post_state_roots(contract.postcondition, known),
        )

    @property
    def pre_phase_roots(self) -> FrozenSet[str]:
        """Bindings the pre-probe round must provide (pre + snapshot)."""
        return self.pre_roots | self.snapshot_roots

    @property
    def post_phase_roots(self) -> FrozenSet[str]:
        """Bindings the post-probe round must provide."""
        return self.post_roots

    @property
    def width(self) -> int:
        """The widest probe phase: how many independent root probes one
        round of this plan can issue at once.  The probe scheduler sizes
        its worker pool to the widest plan it will run -- more threads
        than this can never be busy simultaneously."""
        return max(len(self.pre_phase_roots), len(self.post_phase_roots), 1)

    def describe(self) -> str:
        """Compact ``pre:...|post:...`` form for trace tags and logs."""
        return ("pre:" + ",".join(sorted(self.pre_phase_roots)) +
                "|post:" + ",".join(sorted(self.post_phase_roots)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbePlan):
            return NotImplemented
        return (self.pre_roots == other.pre_roots and
                self.snapshot_roots == other.snapshot_roots and
                self.post_roots == other.post_roots)

    def __repr__(self) -> str:
        return f"<ProbePlan {self.describe()}>"
