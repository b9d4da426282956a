"""Every example script runs to completion with deprecations as errors.

The examples are documentation that executes: each one asserts its own
story and exits non-zero when it breaks, so running them here keeps
them from rotting behind the API.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import MonitorOptions, ResilienceOptions
from repro.httpsim import Client, FailN

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, (
        result.stdout[-2000:] + result.stderr[-2000:])


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "examples" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTableDrivenCustomProvider:
    """A provider for a self-modelled service declares only a probe table.

    Regression: a provider that overrode ``bindings`` bypassed the shared
    probe path, so a dead service host crashed the request (HTTP 500, no
    verdict) and its roots never reached the probe cache.
    """

    PAGES = "http://wmonitor/wmonitor/pages"

    def _deployment(self, **options):
        wiki = _load_example("custom_service_monitor")
        network, monitor, tokens = wiki.build_wiki_deployment(
            MonitorOptions(enforcing=False, **options))
        clients = {}
        for name, token in tokens.items():
            clients[name] = Client(network)
            clients[name].authenticate(token)
        return network, monitor, clients

    def test_dead_service_host_is_indeterminate(self):
        network, monitor, clients = self._deployment(
            resilience=ResilienceOptions(max_attempts=2, base_delay=0.001))
        network.inject_fault("wiki", FailN(99))
        response = clients["vic"].get(self.PAGES)
        assert response.status_code == 503
        assert [v.verdict for v in monitor.log] == ["indeterminate"]
        assert monitor.log[0].unbound_roots == ["pages"]
        assert not monitor.log[0].forwarded

    def test_probe_cache_serves_its_roots(self):
        network, monitor, clients = self._deployment(probe_cache=True)
        clients["erin"].get(self.PAGES)
        probes = monitor.provider.probe_count
        hits = monitor.probe_cache.hits
        clients["erin"].get(self.PAGES)
        assert monitor.provider.probe_count == probes
        assert monitor.probe_cache.hits >= hits + 2   # pages and user
        assert monitor.obs.metrics.counter_value(
            "monitor_probe_cache_hits_total") == monitor.probe_cache.hits
        # A forwarded mutation evicts the pages binding, so the next read
        # re-probes it and sees the new page.
        clients["erin"].post(self.PAGES, {"title": "Home"})
        clients["erin"].get(self.PAGES)
        assert [v.verdict for v in monitor.log] == ["valid"] * 4
