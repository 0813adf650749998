"""WIRE2xx cross-check: live model is clean, mutations are caught."""

import copy

import pytest

from repro.lint.wireschema import build_model, check_model, check_wire_schema
from tests.lint.markers import REPO_ROOT


@pytest.fixture(scope="module")
def model():
    return build_model(REPO_ROOT)


class TestLiveModel:
    def test_repo_is_fully_covered(self, model):
        assert check_model(model) == []

    def test_entry_point_agrees(self):
        assert check_wire_schema(REPO_ROOT) == []

    def test_model_saw_the_real_registries(self, model):
        assert model.has_test_assets
        assert len(model.registered) >= 10
        assert len(model.message_classes) >= 10
        names = {name for _, name, _, _ in model.registered}
        assert "Serve" in names
        assert "KeyRequest" in names


class TestMutations:
    def test_unregistered_message_trips_wire201(self, model):
        # Drop a session message (control frames like StepDone are
        # registered in wire.py but live outside messages.__all__).
        broken = copy.deepcopy(model)
        message_names = {n for n, _ in broken.message_classes}
        index = next(
            i
            for i, (_, name, _, _) in enumerate(broken.registered)
            if name in message_names
        )
        dropped = broken.registered.pop(index)
        diags = check_model(broken)
        assert any(
            d.code == "WIRE201" and repr(dropped[1]) in d.message
            for d in diags
        )

    def test_missing_fixture_trips_wire203(self, model):
        broken = copy.deepcopy(model)
        name = broken.registered[0][1]
        broken.fixture_classes.discard(name)
        diags = check_model(broken)
        assert any(
            d.code == "WIRE203" and repr(name) in d.message
            for d in diags
        )

    def test_missing_golden_frame_trips_wire204(self, model):
        broken = copy.deepcopy(model)
        name = broken.registered[0][1]
        broken.golden_classes.discard(name)
        diags = check_model(broken)
        assert any(
            d.code == "WIRE204" and repr(name) in d.message
            for d in diags
        )

    def test_stale_fixture_trips_wire205(self, model):
        broken = copy.deepcopy(model)
        broken.fixture_classes.add("GhostMessage")
        diags = check_model(broken)
        assert any(
            d.code == "WIRE205" and "GhostMessage" in d.message
            for d in diags
        )

    def test_stale_golden_frame_trips_wire205(self, model):
        broken = copy.deepcopy(model)
        broken.golden_classes.add("GhostFrame")
        diags = check_model(broken)
        assert any(
            d.code == "WIRE205" and "GhostFrame" in d.message
            for d in diags
        )

    def test_missing_assets_skips_coverage_rules(self, model):
        broken = copy.deepcopy(model)
        broken.fixture_classes.clear()
        broken.golden_classes.clear()
        broken.has_test_assets = False
        assert check_model(broken) == []
