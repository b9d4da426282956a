"""Edge-case sweep across modules: reprs, error hierarchy, small branches."""

import pytest

from repro import errors
from repro.config import build_from_config
from repro.core import (
    CloudMonitor,
    MethodContract,
    cinder_behavior_model,
    cinder_resource_model,
)
from repro.core.codegen import generate_urls
from repro.httpsim import Headers, Request, Response
from repro.ocl import Context, Snapshot, parse
from repro.ocl.values import UNDEFINED, require_number, unique
from repro.uml.dot import _wrap
from repro.validation import paper_config


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError)

    def test_ocl_syntax_error_carries_position(self):
        error = errors.OCLSyntaxError("bad", position=7, line=2)
        assert error.position == 7
        assert error.line == 2

    def test_catching_the_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.QuotaExceeded("over")


class TestReprs:
    def test_monitor_repr_shows_mode(self):
        cloud, monitor = build_from_config(paper_config(enforcing=True))
        assert "enforcing" in repr(monitor)
        cloud, monitor = build_from_config(paper_config(enforcing=False))
        assert "audit" in repr(monitor)

    def test_request_response_reprs(self):
        assert "GET" in repr(Request("get", "http://h/p"))
        assert "409" in repr(Response(409))

    def test_headers_repr(self):
        assert "X-K" in repr(Headers({"X-K": "v"}))

    def test_contract_repr(self):
        from repro.core import ContractGenerator

        contract = ContractGenerator(cinder_behavior_model()).for_trigger(
            "DELETE(volume)")
        assert "DELETE(volume)" in repr(contract)
        assert "cases=3" in repr(contract)


class TestSnapshotStorageBranches:
    def capture(self, value):
        snapshot = Snapshot()
        snapshot.values[("k",)] = value
        return snapshot.storage_bytes

    def test_bool_none_undefined_are_one_byte(self):
        assert self.capture(True) == 1
        assert self.capture(None) == 1
        assert self.capture(UNDEFINED) == 1

    def test_numbers_eight_bytes(self):
        assert self.capture(42) == 8
        assert self.capture(2.5) == 8

    def test_strings_by_encoded_length(self):
        assert self.capture("abc") == 3

    def test_lists_by_slot(self):
        assert self.capture([1, 2, 3]) == 24
        assert self.capture([]) == 8

    def test_other_objects_default(self):
        assert self.capture(object()) == 8


class TestValueHelpers:
    def test_require_number_rejects_bool(self):
        with pytest.raises(TypeError):
            require_number(True, "op")

    def test_require_number_rejects_str(self):
        with pytest.raises(TypeError):
            require_number("3", "op")

    def test_unique_with_unhashable(self):
        assert unique([[1], [1], [2]]) == [[1], [2]]


class TestDotWrapping:
    def test_long_invariant_wrapped(self):
        text = " and ".join([f"part{i} = {i}" for i in range(8)])
        wrapped = _wrap(text, width=30)
        assert "\\n" in wrapped

    def test_short_label_unwrapped(self):
        assert "\\n" not in _wrap("x = 1")


class TestCodegenOptions:
    def test_custom_views_module_name(self):
        source = generate_urls(cinder_resource_model(),
                               cinder_behavior_model(),
                               views_module="handlers")
        assert "from . import handlers" in source
        assert "handlers.volume" in source

    def test_generated_project_missing_file_raises(self):
        from repro.core.codegen import generate_project

        project = generate_project("cm", cinder_resource_model(),
                                   cinder_behavior_model())
        with pytest.raises(KeyError):
            project["not/there.py"]


class TestContractEdgeCases:
    def test_empty_case_list_rejected(self):
        from repro.errors import GenerationError
        from repro.uml import Trigger

        with pytest.raises(GenerationError):
            MethodContract(Trigger("GET", "x"), [])

    def test_compile_idempotent(self):
        from repro.core import ContractGenerator

        contract = ContractGenerator(cinder_behavior_model()).for_trigger(
            "GET(volumes)")
        first = contract.compile()._compiled_pre
        second = contract.compile()._compiled_pre
        assert first is second

    def test_simplified_generator_contracts_equivalent(self):
        from repro.core import ContractGenerator

        plain = ContractGenerator(cinder_behavior_model(),
                                  cinder_resource_model())
        tidy = ContractGenerator(cinder_behavior_model(),
                                 cinder_resource_model(), simplify=True)
        state = Context({
            "project": {"id": "p", "volumes": [{"id": "v"}]},
            "quota_sets": {"volumes": 5},
            "volume": {"id": "v", "status": "available"},
            "user": {"roles": ["admin"]},
        }, strict=False)
        for trigger_text in ("DELETE(volume)", "POST(volumes)",
                             "GET(volumes)"):
            assert plain.for_trigger(trigger_text).check_pre(state) == \
                tidy.for_trigger(trigger_text).check_pre(state)


class TestMonitorMisc:
    def test_unknown_contract_raises_monitor_error(self):
        from repro.core.monitor import MonitoredOperation
        from repro.errors import MonitorError
        from repro.uml import Trigger

        cloud, monitor = build_from_config(paper_config())
        operation = MonitoredOperation(Trigger("PUT", "ghost"), "x", "y")
        with pytest.raises(MonitorError):
            monitor.monitor_request(operation, Request("PUT", "/x"))

    def test_verdict_repr(self):
        cloud, monitor = build_from_config(paper_config())
        tokens = cloud.paper_tokens()
        cloud.client(tokens["carol"]).get("http://cmonitor/cmonitor/volumes")
        assert "GET(volumes)" in repr(monitor.log[-1])
