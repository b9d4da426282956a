"""The modelling-coverage boundary: what the monitor cannot kill.

The monitor checks exactly what the models express (roles, resource state,
effects).  The scope-leak mutant violates an aspect the paper's behavioral
model does not capture -- token/project scope -- so it must *survive* the
generated monitor.  This is a deliberate negative result documenting the
approach's boundary, not a bug.
"""

import pytest

from repro.cloud import PrivateCloud, ScopeLeakMutant
from repro.validation import MutationCampaign, TestOracle


@pytest.fixture()
def two_project_cloud():
    cloud = PrivateCloud.paper_setup()
    cloud.keystone.create_project("otherProject", project_id="otherProject")
    cloud.keystone.rbac.assign("member", "otherProject",
                               group="service_architect")
    foreign_token = cloud.keystone.issue_token("bob", "bob-secret",
                                               "otherProject")
    return cloud, cloud.client(foreign_token)


class TestScopeLeakAtCloudLevel:
    def test_correct_cloud_rejects_cross_project(self, two_project_cloud):
        cloud, foreign = two_project_cloud
        response = foreign.get("http://cinder/v3/myProject/volumes")
        assert response.status_code == 403

    def test_mutant_opens_cross_project_access(self, two_project_cloud):
        cloud, foreign = two_project_cloud
        mutant = ScopeLeakMutant()
        mutant.apply(cloud)
        response = foreign.get("http://cinder/v3/myProject/volumes")
        assert response.status_code == 200
        mutant.revert(cloud)
        assert foreign.get(
            "http://cinder/v3/myProject/volumes").status_code == 403

    def test_mutant_is_authorization_category(self):
        assert ScopeLeakMutant().category == "authorization"


class TestScopeLeakSurvivesStandardMonitor:
    def test_standard_battery_does_not_kill(self):
        # The battery only uses tokens scoped to myProject, so the leak is
        # never exercised, let alone detected.
        result = MutationCampaign().run([ScopeLeakMutant()])
        assert result.kill_rate == 0.0

    def test_even_cross_project_traffic_is_not_flagged(self,
                                                       two_project_cloud):
        # Even when a foreign token reaches the monitor, the generated
        # contract has no scope condition: the modelled guards (role,
        # status, quota) all hold, so the monitor agrees with the mutated
        # cloud.  This pins down *why* the mutant survives.
        cloud, _ = two_project_cloud
        from repro.core import CloudMonitor

        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject", enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        mutant = ScopeLeakMutant()
        mutant.apply(cloud)
        foreign_token = cloud.keystone.issue_token("bob", "bob-secret",
                                                   "otherProject")
        foreign = cloud.client(foreign_token)
        response = foreign.get("http://cmonitor/cmonitor/volumes")
        assert response.status_code == 200
        assert monitor.log[-1].violation is False
        mutant.revert(cloud)

    def test_documented_boundary_in_campaign_render(self):
        result = MutationCampaign().run([ScopeLeakMutant()])
        text = result.render()
        assert "NO" in text
        assert "cross-project" in text
