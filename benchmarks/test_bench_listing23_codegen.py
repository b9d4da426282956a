"""LISTING-2/3: regenerate the Django project files (uml2django).

Paper artifacts: Listing 2 (the DELETE view in views.py) and Listing 3
(the urlpatterns in urls.py), produced by the uml2django tool of Section
VI.  The bench checks both listings' shapes and that the runnable monitor
assembled from the same models dispatches requests.
"""

import ast

from repro.config import build_from_config
from repro.core import CloudMonitor
from repro.core.codegen import generate_project
from repro.rbac import SecurityRequirementsTable
from repro.validation import paper_config


def test_bench_listing23_generate_project(benchmark, cinder_models):
    diagram, machine = cinder_models
    table = SecurityRequirementsTable.paper_table()

    project = benchmark(generate_project, "cmonitor", diagram, machine,
                        table, "http://cinder/v3/myProject")

    views = project["cmonitor/views.py"]
    urls = project["cmonitor/urls.py"]
    # Listing 2 shape.
    assert "def volume(request, volume_id):" in views
    assert "HttpResponseNotAllowed" in views
    assert "def volume_delete(request, volume_id):" in views
    assert "url = 'http://cinder/v3/myProject/volumes/%s' % (volume_id,)" \
        in views
    assert "RequestWithMethod(url, method='DELETE'" in views
    assert "response.code not in (204,)" in views
    assert "SECURITY_REQUIREMENTS = ['1.4']" in views
    # Listing 3 shape.
    assert "urlpatterns = [" in urls
    assert "(?P<volume_id>[^/]+)" in urls
    # All generated python parses.
    for relative_path, content in project.files.items():
        if relative_path.endswith(".py"):
            ast.parse(content)
    total_lines = sum(len(content.splitlines())
                      for content in project.files.values())
    print(f"\n[LISTING-2/3] generated {len(project)} files, "
          f"{total_lines} lines total")


def test_bench_listing23_runnable_monitor_dispatch(benchmark):
    """The runnable monitor built from the same models serves requests."""
    cloud, monitor = build_from_config(paper_config())
    tokens = cloud.paper_tokens()
    bob = cloud.client(tokens["bob"])

    def create_and_get():
        created = bob.post("http://cmonitor/cmonitor/volumes",
                           {"volume": {"name": "bench"}})
        volume_id = created.json()["volume"]["id"]
        fetched = bob.get(f"http://cmonitor/cmonitor/volumes/{volume_id}")
        cloud.cinder.volumes.delete(volume_id)  # keep state flat
        return created, fetched

    created, fetched = benchmark(create_and_get)
    assert created.status_code == 202
    assert fetched.status_code == 200
    assert all(not verdict.violation for verdict in monitor.log)
    print(f"\n[LISTING-2/3] monitor routes: "
          f"{[op.monitor_path for op in monitor.operations]}")
