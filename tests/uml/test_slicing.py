"""Tests for model slicing (the paper's future-work feature)."""

import pytest

from repro.errors import ModelError
from repro.core import cinder_behavior_model, cinder_resource_model
from repro.uml import (
    slice_class_diagram,
    slice_models,
    slice_state_machine,
    validate_class_diagram,
    validate_state_machine,
)
from repro.uml.validation import errors_only
from repro.workloads import synthetic_models


class TestStateMachineSlicing:
    def test_slice_by_method(self):
        machine = cinder_behavior_model()
        sliced = slice_state_machine(machine, methods=["DELETE"])
        assert len(sliced.transitions) == 3
        assert all(t.trigger.method == "DELETE" for t in sliced.transitions)

    def test_slice_keeps_touched_states_only(self):
        machine = cinder_behavior_model()
        sliced = slice_state_machine(machine, methods=["DELETE"])
        # DELETE touches all three Cinder states.
        assert set(sliced.states) == set(machine.states)
        sliced_post = slice_state_machine(machine, methods=["POST"])
        assert set(sliced_post.states) == set(machine.states)

    def test_slice_preserves_annotations_and_guards(self):
        machine = cinder_behavior_model()
        sliced = slice_state_machine(machine, methods=["DELETE"])
        for transition in sliced.transitions:
            assert transition.security_requirements == ("1.4",)
            assert "in-use" in transition.guard

    def test_initial_state_kept_when_touched(self):
        machine = cinder_behavior_model()
        sliced = slice_state_machine(machine, methods=["POST"])
        assert sliced.initial_state().name == machine.initial_state().name

    def test_initial_reassigned_when_not_touched(self):
        machine = cinder_behavior_model()
        # GET(volume)/PUT(volume) never touch the initial no-volume state.
        sliced = slice_state_machine(machine, resources=["volume"],
                                     methods=["GET", "PUT"])
        assert sliced.initial_state() is not None
        assert sliced.initial_state().name != machine.initial_state().name

    def test_empty_slice_rejected(self):
        with pytest.raises(ModelError):
            slice_state_machine(cinder_behavior_model(), methods=["PATCH"])

    def test_slice_name(self):
        sliced = slice_state_machine(cinder_behavior_model(),
                                     methods=["DELETE"], name="deletes")
        assert sliced.name == "deletes"

    def test_sliced_machine_validates(self):
        sliced = slice_state_machine(cinder_behavior_model(),
                                     methods=["DELETE", "POST"])
        assert errors_only(validate_state_machine(sliced)) == []


class TestClassDiagramSlicing:
    def test_slice_keeps_uri_ancestors(self):
        diagram = cinder_resource_model()
        sliced = slice_class_diagram(diagram, ["volume"])
        # volume needs Volumes -> project -> Projects to derive its URI.
        assert set(sliced.classes) == {
            "Projects", "project", "Volumes", "volume"}

    def test_sliced_uris_match_original(self):
        diagram = cinder_resource_model()
        sliced = slice_class_diagram(diagram, ["volume"])
        assert sliced.item_uri("volume") == diagram.item_uri("volume")

    def test_unknown_resource_rejected(self):
        with pytest.raises(ModelError):
            slice_class_diagram(cinder_resource_model(), ["ghost"])

    def test_sliced_diagram_validates(self):
        sliced = slice_class_diagram(cinder_resource_model(), ["volume"])
        assert errors_only(validate_class_diagram(sliced)) == []

    def test_attributes_preserved(self):
        sliced = slice_class_diagram(cinder_resource_model(), ["volume"])
        assert sliced.get_class("volume") == \
            cinder_resource_model().get_class("volume")


class TestCombinedSlicing:
    def test_volume_slice_of_cinder_is_whole_scenario(self):
        diagram, machine = slice_models(
            cinder_resource_model(), cinder_behavior_model(), ["volume"])
        # The Cinder models only describe the volume scenario, so slicing
        # by volume keeps every transition.
        assert len(machine.transitions) == \
            len(cinder_behavior_model().transitions)
        assert "quota_sets" not in diagram.classes  # not on the URI path

    def test_synthetic_slice_down_to_one_resource(self):
        full_diagram, full_machine = synthetic_models(4)
        diagram, machine = slice_models(full_diagram, full_machine,
                                        ["c2_item"])
        assert set(machine.states) == {
            "c2_item_empty", "c2_item_partial", "c2_item_full"}
        assert len(machine.transitions) == 13
        assert set(diagram.classes) == {"Root", "c2_items", "c2_item"}

    def test_sliced_contracts_match_full_model(self):
        from repro.core import ContractGenerator

        full_diagram, full_machine = synthetic_models(3)
        diagram, machine = slice_models(full_diagram, full_machine,
                                        ["c1_item"])
        sliced_contract = ContractGenerator(machine, diagram).for_trigger(
            "DELETE(c1_item)")
        full_contract = ContractGenerator(
            full_machine, full_diagram).for_trigger("DELETE(c1_item)")
        assert sliced_contract.precondition == full_contract.precondition
        assert sliced_contract.postcondition == full_contract.postcondition

    def test_method_filter_composes(self):
        diagram, machine = slice_models(
            cinder_resource_model(), cinder_behavior_model(),
            ["volume"], methods=["DELETE"])
        assert len(machine.transitions) == 3

    def test_sliced_monitor_still_kills_delete_mutant(self):
        from repro.cloud import PrivateCloud, paper_mutants
        from repro.core import CloudMonitor
        from repro.validation import MutationCampaign

        diagram, machine = slice_models(
            cinder_resource_model(), cinder_behavior_model(), ["volume"])

        def setup():
            cloud = PrivateCloud.paper_setup()
            monitor = CloudMonitor.for_service(
                "cinder", cloud.network, "myProject", machine=machine,
                diagram=diagram, enforcing=False)
            cloud.network.register("cmonitor", monitor.app)
            return cloud, monitor

        result = MutationCampaign(setup=setup).run(paper_mutants())
        assert result.kill_rate == 1.0
