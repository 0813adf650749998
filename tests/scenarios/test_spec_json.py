"""``ScenarioSpec.to_json`` / ``from_json``: the spec's one JSON form.

Fuzz repro files and the daemon join handshake both carry a spec in this
form, so it must be lossless — every field, nested declarations and
tuples included — and a malformed input must fail with an error naming
the field, never decode to a silent default.
"""

import json

import pytest

from repro.scenarios.registry import all_scenarios, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.sim.faults import FAULT_SPEC_TYPES


def _round_trip(spec):
    return ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))


@pytest.mark.parametrize("name", scenario_names())
def test_every_registry_scenario_round_trips_exactly(name):
    (spec,) = [s for s in all_scenarios() if s.name == name]
    assert _round_trip(spec) == spec


def test_every_field_is_written():
    spec = ScenarioSpec(name="all")
    fields = ScenarioSpec.__dataclass_fields__
    assert set(spec.to_json()) == set(fields)


def test_fault_entries_are_tagged_by_kind():
    spec = next(s for s in all_scenarios() if s.fault_schedule)
    entries = spec.to_json()["fault_schedule"]
    assert [entry["kind"] for entry in entries] == [
        fault.kind for fault in spec.fault_schedule
    ]


def _minimal(**fields):
    data = {"name": "bad"}
    data.update(fields)
    return data


@pytest.mark.parametrize(
    "data, named",
    [
        (_minimal(turbo=True), r"spec: unknown fields \['turbo'\]"),
        ({"nodes": 10}, r"spec: missing fields \['name'\]"),
        (_minimal(nodes="10"), r"spec\.nodes: expected int"),
        (_minimal(detection_enabled=1), r"spec\.detection_enabled"),
        (_minimal(churn=[[3, 4]]), r"spec\.churn\[0\]: expected an object"),
        (
            _minimal(churn=[{"after_round": 3, "node": 4}]),
            r"spec\.churn\[0\]: unknown fields \['node'\]",
        ),
        (
            _minimal(fault_schedule=[{"kind": "loss", "kinds": "serve"}]),
            r"spec\.fault_schedule\[0\]\.kinds: expected a list",
        ),
        (
            _minimal(node_strategies=[[1]]),
            r"spec\.node_strategies\[0\]: expected 2 items",
        ),
        ([1, 2], r"spec: expected an object"),
    ],
    ids=[
        "unknown-field",
        "missing-field",
        "wrong-scalar",
        "bool-is-not-int",
        "churn-pair-form",
        "unknown-nested-field",
        "string-for-list",
        "short-tuple",
        "not-an-object",
    ],
)
def test_malformed_input_names_the_field(data, named):
    with pytest.raises(ValueError, match=named):
        ScenarioSpec.from_json(data)


def test_unknown_fault_kind_lists_the_valid_ones():
    data = _minimal(fault_schedule=[{"kind": "telegram"}])
    with pytest.raises(ValueError) as info:
        ScenarioSpec.from_json(data)
    message = str(info.value)
    assert "spec.fault_schedule[0]: unknown fault kind 'telegram'" in message
    for kind in FAULT_SPEC_TYPES:
        assert repr(kind) in message
