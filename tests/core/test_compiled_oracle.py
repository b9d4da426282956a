"""Oracle in the loop: compiled contracts against the interpreter.

The monitor evaluates every contract through compiled closures.  These
tests wrap the runtime entry points of :class:`MethodContract` and, on
every monitored request, re-evaluate the same bound contexts with the
tree-walking :class:`~repro.ocl.Evaluator` over the *unoptimized*
contract ASTs: the applicable cases, ``pre_holds``, every snapshot value
and ``post_holds`` must all agree.  The workloads are the Table-I
battery of each shipped scenario, on a correct cloud and under the three
paper mutants (privilege escalation, missing check, privilege loss).
"""

from collections import Counter

import pytest

from repro.config import MonitorConfig, build_from_config
from repro.core import MethodContract
from repro.ocl import Evaluator, Snapshot
from repro.validation import TestOracle

#: Per scenario: monitor host, collection path, POST body key, whether
#: the monitor serves GET on an item, and the service whose policy the
#: three paper mutants rewrite, with the action each one targets --
#: escalation opens DELETE to members, missing check opens POST to
#: everyone, privilege loss closes GET to all but admins.
SCENARIOS = {
    "cinder": dict(host="cmonitor", path="/cmonitor/volumes",
                   body="volume", item_get=True, service="cinder",
                   actions=("volume:delete", "volume:post", "volume:get")),
    "nova": dict(host="smonitor", path="/smonitor/servers",
                 body="server", item_get=True, service="nova",
                 actions=("server:delete", "server:post", "server:get")),
    "keystone": dict(host="imonitor", path="/imonitor/projects",
                     body="project", item_get=False, service="keystone",
                     actions=("identity:delete_project",
                              "identity:create_project",
                              "identity:list_projects")),
}

#: Mutant -> (index into the scenario's ``actions``, mutated rule).
MUTANTS = {
    "clean": None,
    "M1-escalation": (0, "role:admin or role:member"),
    "M2-missing-check": (1, "@"),
    "M3-privilege-loss": (2, "role:admin"),
}


class OracleCheck:
    """Checks each compiled contract call against the interpreter."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.mismatches = []
        #: id(compiled snapshot) -> (that snapshot, interpreted capture of
        #: the raw post-condition from the same pre-state context).
        self._oracle_snapshots = {}
        real_cases = MethodContract.applicable_cases
        real_snapshot = MethodContract.snapshot
        real_post = MethodContract.check_post

        def applicable_cases(contract, context):
            applicable = real_cases(contract, context)
            expected = [case for case in contract.cases
                        if Evaluator(context).evaluate_bool(
                            case.precondition)]
            pre_holds = Evaluator(context).evaluate_bool(
                contract.precondition)
            self._expect(contract, "cases", applicable, expected)
            self._expect(contract, "pre_holds", bool(applicable), pre_holds)
            self.calls["pre"] += 1
            return applicable

        def snapshot(contract, context):
            compiled = real_snapshot(contract, context)
            optimized = Snapshot().capture(
                contract.compiled().postcondition, context)
            raw = Snapshot().capture(contract.postcondition, context)
            self._expect(contract, "snapshot", compiled.values,
                         optimized.values)
            for key, value in compiled.values.items():
                if key in raw.values:
                    self._expect(contract, "snapshot value", value,
                                 raw.values[key])
            self._oracle_snapshots[id(compiled)] = (compiled, raw)
            self.calls["snapshot"] += 1
            return compiled

        def check_post(contract, context, snapshot):
            post_holds = real_post(contract, context, snapshot)
            _, raw = self._oracle_snapshots.pop(id(snapshot))
            expected = Evaluator(context, raw).evaluate_bool(
                contract.postcondition)
            self._expect(contract, "post_holds", post_holds, expected)
            self.calls["post"] += 1
            return post_holds

        monkeypatch.setattr(MethodContract, "applicable_cases",
                            applicable_cases)
        monkeypatch.setattr(MethodContract, "snapshot", snapshot)
        monkeypatch.setattr(MethodContract, "check_post", check_post)

    def _expect(self, contract, what, compiled, interpreted):
        if compiled != interpreted:
            self.mismatches.append(
                f"{contract.trigger} {what}: compiled {compiled!r} "
                f"!= interpreter {interpreted!r}")


def _deployment(name):
    config = MonitorConfig.from_dict({
        "config_version": 1,
        "scenario": {"name": name, "register_as": SCENARIOS[name]["host"]},
        "monitor": {"enforcing": False}})
    return build_from_config(config)


def _run_battery(cloud, monitor, name):
    """Every user against every method of *name*'s monitor.

    Cinder replays the standard Table-I battery through
    :class:`TestOracle`; nova and keystone run the same (role, method)
    grid on their own resources.
    """
    if name == "cinder":
        TestOracle(cloud, monitor).run()
        return
    scenario = SCENARIOS[name]
    tokens = cloud.paper_tokens()
    clients = {user: cloud.client(token) for user, token in tokens.items()}
    url = f"http://{scenario['host']}{scenario['path']}"
    body = scenario["body"]
    for user in ("carol", "bob", "alice"):
        client = clients[user]
        client.get(url)
        client.post(url, {body: {"name": f"{user}-1"}})
        # Alice adds an item per caller, so a DELETE never empties the
        # collection before every caller has tried one.
        clients["alice"].post(url, {body: {"name": f"{user}-2"}})
        listing = clients["alice"].get(url).json()
        item_url = f"{url}/{next(iter(listing.values()))[-1]['id']}"
        if scenario["item_get"]:
            client.get(item_url)
        client.delete(item_url)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compiled_contracts_match_interpreter(monkeypatch, name, mutant):
    check = OracleCheck(monkeypatch)
    cloud, monitor = _deployment(name)
    try:
        if MUTANTS[mutant] is not None:
            index, rule = MUTANTS[mutant]
            scenario = SCENARIOS[name]
            getattr(cloud, scenario["service"]).policy.set_rule(
                scenario["actions"][index], rule)
        _run_battery(cloud, monitor, name)
    finally:
        monitor.close()
    assert check.mismatches == []
    # Every monitored request went through the checked pre stage, and
    # every forwarded one through snapshot and post (audit mode).
    assert check.calls["pre"] == len(monitor.log) > 0
    post_checked = sum(1 for verdict in monitor.log
                       if verdict.post_holds is not None)
    assert check.calls["post"] == post_checked > 0
    assert check.calls["snapshot"] >= check.calls["post"]
