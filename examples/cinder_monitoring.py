#!/usr/bin/env python
"""The full paper walkthrough on the Cinder volume scenario.

Reproduces, in order, the concrete artifacts of the paper:

* Section IV   -- the Figure-3 resource and behavioral models,
* Table I      -- the security-requirements table,
* Section V    -- the generated DELETE(volume) contract (Listing 1),
* Section VI   -- the uml2django project files (Listings 2 and 3) and the
  cURL-driven monitor session against the simulated OpenStack.

Run with::

    python examples/cinder_monitoring.py
"""

from repro.config import MonitorConfig, build_from_config
from repro.core import (
    ContractGenerator,
    cinder_behavior_model,
    cinder_resource_model,
)
from repro.core.codegen import generate_project
from repro.httpsim import curl
from repro.rbac import SecurityRequirementsTable
from repro.uml import read_xmi, write_xmi


def section_iv_models():
    print("=" * 72)
    print("Section IV: design models (Figure 3)")
    print("=" * 72)
    diagram = cinder_resource_model()
    machine = cinder_behavior_model()
    print(f"resource model: {sorted(diagram.classes)}")
    print("derived URIs:")
    for name, uri in sorted(diagram.uri_paths().items()):
        print(f"  {name:<12} {uri}")
    print(f"behavioral model: {len(machine.states)} states, "
          f"{len(machine.transitions)} transitions")
    initial = machine.initial_state()
    print(f"initial state invariant: {initial.invariant}")

    # The models round-trip through XMI, the tool's input format.
    document = write_xmi(diagram, machine, "Cinder")
    parsed_diagram, parsed_machine = read_xmi(document)
    assert parsed_machine.transitions == machine.transitions
    print(f"XMI round trip: {len(document)} bytes, lossless")
    return diagram, machine


def table_i():
    print()
    print("=" * 72)
    print("Table I: security requirements for the Cinder API")
    print("=" * 72)
    table = SecurityRequirementsTable.paper_table()
    print(table.render())
    return table


def section_v_contracts(diagram, machine):
    print()
    print("=" * 72)
    print("Section V: generated contract for DELETE(volume) (Listing 1)")
    print("=" * 72)
    generator = ContractGenerator(machine, diagram)
    contract = generator.for_trigger("DELETE(volume)")
    print(contract.render())
    print(f"\ncombined from {len(contract.cases)} transitions; realizes "
          f"SecReq {', '.join(contract.security_requirements)}")


def section_vi_codegen(diagram, machine, table):
    print()
    print("=" * 72)
    print("Section VI: uml2django project (Listings 2 and 3)")
    print("=" * 72)
    project = generate_project("cmonitor", diagram, machine, table=table,
                               cloud_base="http://cinder/v3/myProject")
    for relative_path in sorted(project.files):
        line_count = len(project[relative_path].splitlines())
        print(f"  {relative_path:<36} {line_count:>4} lines")
    urls = project["cmonitor/urls.py"]
    print("\nurls.py (Listing 3):")
    for line in urls.splitlines():
        if "url(" in line:
            print(f"  {line.strip()}")


def section_vi_monitoring():
    print()
    print("=" * 72)
    print("Section VI-D: monitoring the (simulated) OpenStack deployment")
    print("=" * 72)
    cloud, monitor = build_from_config(MonitorConfig())
    tokens = cloud.paper_tokens()

    # Create a volume as bob so there is something to DELETE.
    bob = cloud.client(tokens["bob"])
    response = bob.post("http://cmonitor/cmonitor/volumes",
                        {"volume": {"name": "vol-to-delete"}})
    volume_id = response.json()["volume"]["id"]
    print(f"bob created {volume_id} through the monitor "
          f"({response.status_code}, {monitor.log[-1].verdict})")

    # The paper drives the monitor with cURL; same command shape here.
    command = (f"curl -X DELETE -H 'X-Auth-Token: {tokens['alice']}' "
               f"http://cmonitor/cmonitor/volumes/{volume_id}")
    print(f"$ {command}")
    response = curl(cloud.network, command)
    print(f"  -> {response.status_code} ({monitor.log[-1].verdict})")

    # An unauthorized cURL DELETE is blocked by the pre-condition (412).
    volume_id = bob.post("http://cmonitor/cmonitor/volumes",
                         {"volume": {"name": "v2"}}).json()["volume"]["id"]
    command = (f"curl -X DELETE -H 'X-Auth-Token: {tokens['carol']}' "
               f"http://cmonitor/cmonitor/volumes/{volume_id}")
    print(f"$ {command}")
    response = curl(cloud.network, command)
    print(f"  -> {response.status_code} ({monitor.log[-1].verdict}): "
          f"{monitor.log[-1].message}")

    print("\nmonitor log:")
    for verdict in monitor.log:
        print(f"  {str(verdict.trigger):<16} {verdict.verdict:<16} "
              f"SecReq {','.join(verdict.security_requirements)}")


def main() -> None:
    diagram, machine = section_iv_models()
    table = table_i()
    section_v_contracts(diagram, machine)
    section_vi_codegen(diagram, machine, table)
    section_vi_monitoring()


if __name__ == "__main__":
    main()
