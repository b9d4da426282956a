#!/usr/bin/env python
"""Quickstart: boot a simulated private cloud and monitor it.

Five minutes through the whole pipeline:

1. boot the paper's ``myProject`` OpenStack-like cloud (Keystone + Cinder),
2. generate the cloud monitor from the Figure-3 UML/OCL models,
3. send requests through the monitor and watch the verdicts,
4. seed an authorization bug and watch the monitor catch it.

Run with::

    python examples/quickstart.py
"""

from repro.config import MonitorConfig, MonitorSection, build_from_config

MONITOR_URL = "http://cmonitor/cmonitor/volumes"


def main() -> None:
    # 1. A private cloud with one project, three users (alice=admin,
    #    bob=member, carol=user) and a volume quota of 5, and
    # 2. the monitor, generated from the paper's design models, mounted on
    #    the virtual network next to the cloud as "cmonitor".  Audit mode
    #    forwards even contract-violating requests so wrong cloud
    #    behaviour is observable.
    cloud, monitor = build_from_config(
        MonitorConfig(monitor=MonitorSection(enforcing=False)))
    tokens = cloud.paper_tokens()

    alice = cloud.client(tokens["alice"])
    bob = cloud.client(tokens["bob"])
    carol = cloud.client(tokens["carol"])

    # 3. Normal traffic: the monitor validates every request.
    print("== normal traffic ==")
    response = bob.post(MONITOR_URL, {"volume": {"name": "data", "size": 2}})
    volume_id = response.json()["volume"]["id"]
    print(f"bob (member) creates a volume: {response.status_code} "
          f"-> {monitor.log[-1].verdict}")

    response = carol.get(f"{MONITOR_URL}/{volume_id}")
    print(f"carol (user) reads it:        {response.status_code} "
          f"-> {monitor.log[-1].verdict}")

    response = carol.delete(f"{MONITOR_URL}/{volume_id}")
    print(f"carol (user) tries DELETE:    {response.status_code} "
          f"-> {monitor.log[-1].verdict}")

    response = alice.delete(f"{MONITOR_URL}/{volume_id}")
    print(f"alice (admin) deletes it:     {response.status_code} "
          f"-> {monitor.log[-1].verdict}")

    print(f"violations so far: {len(monitor.violations())} (expected 0)")

    # 4. Seed the paper's M1 mutant: the policy now lets members DELETE.
    print("\n== privilege-escalation bug seeded (paper mutant M1) ==")
    cloud.cinder.policy.set_rule("volume:delete",
                                 "role:admin or role:member")
    volume_id = bob.post(MONITOR_URL,
                         {"volume": {"name": "x"}}).json()["volume"]["id"]
    response = bob.delete(f"{MONITOR_URL}/{volume_id}")
    verdict = monitor.log[-1]
    print(f"bob (member) DELETE now:      {response.status_code} "
          f"-> {verdict.verdict}")
    print(f"monitor message: {verdict.message}")
    print(f"violated security requirement: "
          f"{', '.join(verdict.security_requirements)}")

    print("\n== coverage of the Table-I security requirements ==")
    print(monitor.coverage.report())


if __name__ == "__main__":
    main()
