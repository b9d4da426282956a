"""Contract generation from behavioral models (paper Section V).

For a method *m* triggering transitions ``t1..tn``:

* the pre-condition of each case is ``inv(source(ti)) and guard(ti)``;
* ``Pre(m)`` is the disjunction of the case pre-conditions ("we need to
  combine the information stated in all the transitions triggered by a
  method");
* ``Post(m)`` is the conjunction of implications
  ``pre(case_pre_i) implies inv(target(ti)) and effect(ti)`` -- each
  antecedent is evaluated in the state *before* the method executed, which
  is why it is wrapped in a ``pre()`` old-value node (the paper's Listing 2
  stores the antecedent variables in ``pre_*`` locals).

The generated :class:`MethodContract` renders to the Listing-1 text format
and knows which state must be snapshotted before forwarding a request.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import GenerationError
from ..ocl import (Context, Snapshot, compile_bool, compile_snapshot_plan,
                   optimize_expression, parse, to_text)
from ..ocl.nodes import Binary, Expression, Pre, conjoin, disjoin
from ..ocl.simplify import simplify as simplify_ocl
from ..uml import ClassDiagram, StateMachine, Transition, Trigger
from .planning import PROBE_COSTS, ProbePlan


class ContractCase:
    """One transition's contribution to a method contract.

    With ``simplify=True`` the combined expressions are normalized (unit
    ``true`` terms dropped, duplicates collapsed) -- the readable form the
    paper's Listing 1 presents; the default keeps the mechanical
    conjunction for full traceability to the model elements.
    """

    def __init__(self, transition: Transition, machine: StateMachine,
                 simplify: bool = False):
        self.transition = transition
        self.source_state = machine.get_state(transition.source)
        self.target_state = machine.get_state(transition.target)
        #: inv(source) and guard  -- this case applies when it holds.
        self.precondition: Expression = Binary(
            "and",
            parse(self.source_state.invariant),
            parse(transition.guard),
        )
        #: inv(target) and effect -- must hold afterwards if the case applied.
        self.postcondition: Expression = Binary(
            "and",
            parse(self.target_state.invariant),
            parse(transition.effect),
        )
        if simplify:
            self.precondition = simplify_ocl(self.precondition)
            self.postcondition = simplify_ocl(self.postcondition)
        #: pre(case_pre) implies post -- the Listing 1 implication.
        self.implication: Expression = Binary(
            "implies", Pre(self.precondition), self.postcondition)
        self.security_requirements: Tuple[str, ...] = (
            transition.security_requirements)

    def __repr__(self) -> str:
        return (f"<ContractCase {self.transition.source} -> "
                f"{self.transition.target}>")


class MethodContract:
    """The combined pre/post-condition of one method on one resource."""

    def __init__(self, trigger: Trigger, cases: List[ContractCase],
                 uri: Optional[str] = None):
        if not cases:
            raise GenerationError(
                f"no transitions are triggered by {trigger}; "
                f"cannot generate a contract")
        self.trigger = trigger
        self.cases = cases
        self.uri = uri or f"/{trigger.resource}"
        self.precondition: Expression = disjoin(
            [case.precondition for case in cases])
        self.postcondition: Expression = conjoin(
            [case.implication for case in cases])
        #: The :class:`CompiledContract` every runtime evaluation goes
        #: through; built on first use (see :meth:`compiled`).
        self._compiled: Optional[CompiledContract] = None
        self._obs = None
        self._probe_plans: Dict[Optional[Tuple[str, ...]], Any] = {}
        #: Guards the compile and plan memoization: fleet shards share
        #: contract objects, so two threads may race to first use.
        self._lock = threading.Lock()

    @property
    def security_requirements(self) -> List[str]:
        """All requirement ids realized by this method, in case order."""
        seen: Dict[str, None] = {}
        for case in self.cases:
            for requirement in case.security_requirements:
                seen.setdefault(requirement, None)
        return list(seen)

    # -- evaluation ------------------------------------------------------------

    def compiled(self) -> "CompiledContract":
        """The compiled form of this contract, built on first use.

        Compilation is lazy so that building a deployment stays cheap: a
        contract whose method is never requested is never compiled.  The
        artifact is built under the contract's lock and published as one
        attribute, so racing threads compile it exactly once and a reader
        sees either no artifact or all of it.
        """
        artifact = self._compiled
        if artifact is None:
            with self._lock:
                artifact = self._compiled
                if artifact is None:
                    artifact = CompiledContract(self)
                    self._compiled = artifact
        return artifact

    def probe_plan(self, roots: Optional[Tuple[str, ...]] = None):
        """The roots each monitoring phase must bind, as a ``ProbePlan``.

        *roots* is the provider's bindable root set (defaults to the
        Cinder scenario's).  The plan is a static analysis of the
        compiled contract's optimized ASTs (see
        :mod:`repro.core.planning`): a case folded to a constant stops
        reading, and so probing, its roots.  The
        expressions are immutable, so the result is memoized per root set
        (under the contract's lock -- fleet shards share contract objects).
        """
        key = tuple(roots) if roots is not None else None
        compiled = self.compiled()
        with self._lock:
            if key not in self._probe_plans:
                self._probe_plans[key] = ProbePlan.for_contract(compiled,
                                                                roots=key)
            return self._probe_plans[key]

    def instrument(self, observability) -> "MethodContract":
        """Report evaluation timings into *observability* (``None`` stops).

        Instrumented contracts record an ``ocl_eval_seconds`` histogram
        and an ``ocl_evaluations_total`` counter (both labelled by phase)
        around every pre/snapshot/post evaluation.  Returns self for
        chaining.
        """
        self._obs = observability
        return self

    def _record_eval(self, phase: str, start: float) -> None:
        obs = self._obs
        obs.metrics.histogram(
            "ocl_eval_seconds", "OCL contract evaluation latency, by phase",
            phase=phase).observe(obs.clock() - start)
        obs.metrics.counter(
            "ocl_evaluations_total", "OCL contract evaluations, by phase",
            phase=phase).inc()

    def applicable_cases(self, context: Context) -> List[ContractCase]:
        """The cases whose pre-condition holds in *context* (pre-state).

        One compiled closure per case; the pre-condition (the disjunction
        of the cases) holds exactly when the result is non-empty, so the
        monitor's pre stage is this one pass, timed as phase ``pre``.
        """
        start = self._obs.clock() if self._obs is not None else 0.0
        applicable = [case for case, holds in self.compiled().cases
                      if holds(context)]
        if self._obs is not None:
            self._record_eval("pre", start)
        return applicable

    def check_pre(self, context: Context) -> bool:
        """Evaluate the pre-condition in the current (pre-call) state."""
        return bool(self.applicable_cases(context))

    def snapshot(self, context: Context) -> Snapshot:
        """Capture every ``pre()`` value the post-condition will need.

        Runs the compiled snapshot plan: one closure per structurally
        distinct ``pre()`` operand of the optimized post-condition, so the
        keys match the compiled post-condition's lookups.
        """
        start = self._obs.clock() if self._obs is not None else 0.0
        snapshot = Snapshot()
        for key, closure in self.compiled().snapshot_plan:
            snapshot.values[key] = closure(context)
        if self._obs is not None:
            self._record_eval("snapshot", start)
        return snapshot

    def check_post(self, context: Context, snapshot: Snapshot) -> bool:
        """Evaluate the post-condition in the post-call state."""
        start = self._obs.clock() if self._obs is not None else 0.0
        result = self.compiled().post(context, snapshot)
        if self._obs is not None:
            self._record_eval("post", start)
        return result

    # -- rendering ----------------------------------------------------------------

    def precondition_text(self) -> str:
        """The pre-condition as canonical OCL."""
        return to_text(self.precondition)

    def postcondition_text(self) -> str:
        """The post-condition as canonical OCL."""
        return to_text(self.postcondition)

    def render(self) -> str:
        """The Listing-1 layout: labelled pre and post blocks."""
        header = f"{self.trigger.method}({self.uri})"
        pre_terms = " or\n ".join(
            f"({to_text(case.precondition)})" for case in self.cases)
        post_terms = " and\n ".join(
            f"(pre({to_text(case.precondition)}) => "
            f"{to_text(case.postcondition)})"
            for case in self.cases)
        return (
            f"PreCondition({header}):\n[{pre_terms}]\n\n"
            f"PostCondition({header}):\n[{post_terms}]"
        )

    def __repr__(self) -> str:
        return f"<MethodContract {self.trigger} cases={len(self.cases)}>"


class CompiledContract:
    """A :class:`MethodContract` compiled for runtime evaluation.

    Each case pre-condition and the post-condition are optimized (see
    :func:`repro.ocl.compile.optimize_expression`: constant folding, then
    and/or chains ordered so the operand with the cheapest probes, per
    the Cinder :data:`~repro.core.planning.PROBE_COSTS`, short-circuits
    first) and compiled to closures.  The snapshot plan is compiled over
    the same optimized post-condition.  The interpreter
    (:class:`~repro.ocl.Evaluator`) is the oracle the tests compare
    these closures against.
    """

    __slots__ = ("cases", "precondition", "postcondition", "post",
                 "snapshot_plan")

    def __init__(self, contract: MethodContract):
        pres = [optimize_expression(case.precondition, costs=PROBE_COSTS)
                for case in contract.cases]
        #: ``(case, closure)`` pairs in case order.
        self.cases: Tuple[Tuple[ContractCase, Any], ...] = tuple(
            (case, compile_bool(pre))
            for case, pre in zip(contract.cases, pres))
        #: The disjunction of the optimized case pre-conditions; probe
        #: planning analyses it with :attr:`postcondition`.
        self.precondition: Expression = disjoin(pres)
        #: The optimized post-condition.
        self.postcondition: Expression = optimize_expression(
            contract.postcondition, costs=PROBE_COSTS)
        self.post = compile_bool(self.postcondition)
        #: ``(structural key, closure)`` pairs filling a snapshot.
        self.snapshot_plan = tuple(compile_snapshot_plan(self.postcondition))


class ContractGenerator:
    """Generates method contracts for every trigger of a behavioral model."""

    def __init__(self, machine: StateMachine,
                 diagram: Optional[ClassDiagram] = None,
                 simplify: bool = False):
        self.machine = machine
        self.diagram = diagram
        self.simplify = simplify

    def _uri_for(self, trigger: Trigger) -> Optional[str]:
        if self.diagram is None:
            return None
        cls = self.diagram.find_class(trigger.resource)
        if cls is None:
            return None
        if cls.is_collection:
            return self.diagram.uri_paths().get(cls.name)
        return self.diagram.item_uri(cls.name)

    def for_trigger(self, trigger) -> MethodContract:
        """The contract of one trigger (``Trigger`` or ``"METHOD(res)"``)."""
        if not isinstance(trigger, Trigger):
            trigger = Trigger.parse(trigger)
        transitions = self.machine.transitions_triggered_by(trigger)
        cases = [ContractCase(t, self.machine, simplify=self.simplify)
                 for t in transitions]
        return MethodContract(trigger, cases, uri=self._uri_for(trigger))

    def all_contracts(self) -> Dict[Trigger, MethodContract]:
        """Contracts for every distinct trigger, in model order."""
        return {trigger: self.for_trigger(trigger)
                for trigger in self.machine.triggers()}
