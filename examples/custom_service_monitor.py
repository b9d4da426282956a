#!/usr/bin/env python
"""Monitoring a service you modelled yourself (beyond the paper's Cinder).

The library is not Cinder-specific: this example models a small wiki
service from scratch -- resource model, behavioral model, security
requirements -- implements the service with a *deliberate authorization
bug* (its DELETE handler enforces the read policy instead of the delete
policy), and shows the generated monitor catching the bug that code review
missed.

Run with::

    python examples/custom_service_monitor.py
"""

from repro.cloud import KeystoneService
from repro.core import (
    BehaviorModelBuilder,
    CloudMonitor,
    CloudStateProvider,
    ContractGenerator,
    ResourceModelBuilder,
)
from repro.core.monitor import MonitoredOperation
from repro.httpsim import Application, Network, Response, path, status
from repro.rbac import (
    Enforcer,
    RBACModel,
    SecurityRequirement,
    SecurityRequirementsTable,
)
from repro.uml import Trigger

PROJECT = "wikiProject"


# -- 1. the design models ------------------------------------------------------

def wiki_table() -> SecurityRequirementsTable:
    table = SecurityRequirementsTable()
    table.add(SecurityRequirement("2.1", "page", "GET", {
        "editor": ["writers"], "viewer": ["readers"]}))
    table.add(SecurityRequirement("2.2", "page", "POST", {
        "editor": ["writers"]}))
    table.add(SecurityRequirement("2.3", "page", "DELETE", {
        "editor": ["writers"]}))
    return table


def wiki_models():
    resources = (ResourceModelBuilder("Wiki")
                 .collection("Pages")
                 .resource("page", [("id", "String"), ("title", "String")])
                 .contains("Pages", "page", "pages")
                 .build())
    behavior = BehaviorModelBuilder("wiki_behavior", wiki_table())
    behavior.state("wiki_empty", "pages->size()=0", initial=True)
    behavior.state("wiki_has_pages", "pages->size()>=1")
    grown = "pages->size() = pre(pages->size()) + 1"
    shrunk = "pages->size() = pre(pages->size()) - 1"
    unchanged = "pages->size() = pre(pages->size())"
    behavior.transition("wiki_empty", "wiki_has_pages", "POST(Pages)",
                        effect=grown)
    behavior.transition("wiki_has_pages", "wiki_has_pages", "POST(Pages)",
                        effect=grown)
    behavior.transition("wiki_has_pages", "wiki_has_pages", "DELETE(page)",
                        guard="pages->size() > 1", effect=shrunk)
    behavior.transition("wiki_has_pages", "wiki_empty", "DELETE(page)",
                        guard="pages->size() = 1", effect=shrunk)
    for state in ("wiki_empty", "wiki_has_pages"):
        behavior.transition(state, state, "GET(Pages)", effect=unchanged)
    return resources, behavior.build()


# -- 2. the (buggy) wiki service -----------------------------------------------

def build_wiki_service(keystone: KeystoneService) -> Application:
    """A wiki whose DELETE view enforces the WRONG policy action."""
    app = Application("wiki")
    policy = Enforcer.from_dict(wiki_table().to_policy())
    pages = {}
    counter = {"next": 1}

    def credentials(request):
        token = request.auth_token
        return keystone.validate_token(token) if token else None

    def pages_view(request):
        creds = credentials(request)
        if creds is None:
            return Response.error(401)
        if request.method == "GET":
            if not policy.enforce("page:get", creds):
                return Response.error(403)
            return Response.json_response({"pages": list(pages.values())})
        if not policy.enforce("page:post", creds):
            return Response.error(403)
        page_id = f"page-{counter['next']}"
        counter["next"] += 1
        body = request.json() or {}
        pages[page_id] = {"id": page_id,
                          "title": body.get("title", "untitled")}
        return Response.json_response({"page": pages[page_id]}, 201)

    def page_view(request, page_id):
        creds = credentials(request)
        if creds is None:
            return Response.error(401)
        if request.method == "GET":
            if not policy.enforce("page:get", creds):
                return Response.error(403)
            if page_id not in pages:
                return Response.error(404)
            return Response.json_response({"page": pages[page_id]})
        # THE BUG: the developer copy-pasted the GET check, so any viewer
        # can delete pages.  Table I (wiki edition) says editors only.
        if not policy.enforce("page:get", creds):  # should be page:delete
            return Response.error(403)
        if page_id not in pages:
            return Response.error(404)
        del pages[page_id]
        return Response.no_content()

    app.add_routes([
        path("v1/pages", pages_view, methods=["GET", "POST"]),
        path("v1/pages/<str:page_id>", page_view,
             methods=["GET", "DELETE"]),
    ])
    return app


# -- 3. a state provider for the wiki's OCL roots ------------------------------

class WikiStateProvider(CloudStateProvider):
    """Probes the wiki's addressable state: the pages collection + user."""

    #: The wiki's OCL roots; probe plans pick from these per phase.
    roots = ("pages", "user")

    def bindings(self, token, item_id=None, roots=None):
        requested = set(self.roots if roots is None else roots)
        bindings = {}
        if "pages" in requested:
            listing = self._get(token, "http://wiki/v1/pages")
            if status.indicates_existence(listing.status_code):
                bindings["pages"] = listing.json().get("pages", [])
        if "user" in requested:
            user = {}
            whoami = self._get(
                token, f"http://{self.keystone_host}/v3/auth/tokens",
                extra_headers={"X-Subject-Token": token})
            if status.indicates_existence(whoami.status_code):
                info = whoami.json().get("token", {})
                user = {"id": info.get("user", {}).get("id"),
                        "roles": [r["name"] for r in info.get("roles", [])]}
            bindings["user"] = user
        return bindings


def main() -> None:
    # Identity: two users in two groups mapped to the wiki roles.
    rbac = RBACModel()
    rbac.add_role("editor")
    rbac.add_role("viewer")
    rbac.add_group("writers")
    rbac.add_group("readers")
    rbac.add_user("erin", "erin", ["writers"])
    rbac.add_user("vic", "vic", ["readers"])
    rbac.assign("editor", PROJECT, group="writers")
    rbac.assign("viewer", PROJECT, group="readers")

    network = Network()
    keystone = KeystoneService(rbac)
    keystone.create_project("wikiProject", project_id=PROJECT)
    keystone.passwords.update({"erin": "pw", "vic": "pw"})
    network.register("keystone", keystone.app)
    network.register("wiki", build_wiki_service(keystone))

    # Generate contracts and assemble the monitor for the wiki models.
    resources, behavior = wiki_models()
    generator = ContractGenerator(behavior, resources)
    contracts = generator.all_contracts()
    operations = [
        MonitoredOperation(Trigger("GET", "Pages"), "wmonitor/pages",
                           "http://wiki/v1/pages"),
        MonitoredOperation(Trigger("POST", "Pages"), "wmonitor/pages",
                           "http://wiki/v1/pages"),
        MonitoredOperation(Trigger("DELETE", "page"),
                           "wmonitor/pages/<str:page_id>",
                           "http://wiki/v1/pages/{page_id}"),
    ]
    provider = WikiStateProvider(network, PROJECT)
    monitor = CloudMonitor(contracts, provider, operations, enforcing=False)
    network.register("wmonitor", monitor.app)

    erin_token = keystone.issue_token("erin", "pw", PROJECT)
    vic_token = keystone.issue_token("vic", "pw", PROJECT)

    from repro.httpsim import Client

    erin = Client(network)
    erin.authenticate(erin_token)
    vic = Client(network)
    vic.authenticate(vic_token)

    print("erin (editor) creates two pages through the monitor:")
    first = erin.post("http://wmonitor/wmonitor/pages", {"title": "Home"})
    second = erin.post("http://wmonitor/wmonitor/pages", {"title": "FAQ"})
    for response in (first, second):
        print(f"  POST -> {response.status_code} "
              f"({monitor.log[-1].verdict})")
    page_id = first.json()["page"]["id"]

    print("\nvic (viewer) reads the collection:")
    response = vic.get("http://wmonitor/wmonitor/pages")
    print(f"  GET -> {response.status_code} ({monitor.log[-1].verdict})")

    print("\nvic (viewer) deletes a page -- the seeded bug lets it through,"
          "\nthe monitor's contract does not:")
    response = vic.delete(f"http://wmonitor/wmonitor/pages/{page_id}")
    verdict = monitor.log[-1]
    print(f"  DELETE -> {response.status_code} ({verdict.verdict})")
    print(f"  monitor: {verdict.message}")
    print(f"  violated requirement: "
          f"{', '.join(verdict.security_requirements)} "
          f"(wiki Table I: DELETE is editor-only)")
    assert verdict.violation, "the monitor must catch the seeded bug"

    print("\nthe same campaign on a fixed service would report no "
          "violations -- see examples/mutation_campaign.py for the full "
          "kill-matrix workflow.")


if __name__ == "__main__":
    main()
