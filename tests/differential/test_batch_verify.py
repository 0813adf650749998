"""The deferred monitor fold is observably invisible.

A monitor engine folds a round's message-8 lifts with one Straus
multi-exponentiation wherever the individual lifted values never reach
the wire; a ``lift_transform`` hook (a lying monitor) or
``monitor_cross_checks`` forces the other path, one materialised lift
per pair.  With a single monitor per node no lifted value is ever
broadcast, so both paths put the same bytes on the wire and the
acceptance bar is the differential one: a run whose engines all carry
the identity hook must match the default run in verdicts, ordered
trace, meter snapshot and operation tallies, across the whole scenario
registry.  (The batched-vs-per-pair algebra itself is unit-tested in
``tests/core/test_verification.py`` and
``tests/crypto/test_multi_powmod.py``.)
"""

import pytest

from repro.scenarios import get_scenario, scenario_names
from tests.differential.harness import (
    record_scenario,
    replicas,
    small_spec,
    workers_under_test,
)

WORKERS = workers_under_test()

PAG_SCENARIOS = [
    name
    for name in scenario_names()
    if get_scenario(name).protocol == "pag"
]


def _single_monitor_spec(name="fig7", **extra):
    """A spec whose nodes have exactly one monitor: the shape where
    lifted pairs never leave the engine, so every lift defers."""
    return small_spec(name, monitors_per_node=1, **extra)


def _materialise_lifts(session):
    """Hand every engine its behaviour's lift hook — the base identity
    for honest nodes — which switches the deferred fold off."""
    for node in [*session.nodes.values(), *session.pending.values()]:
        node.monitor.set_behavior_hooks(
            node.monitor.active, node.behavior.transform_lifted
        )


@pytest.mark.parametrize("name", PAG_SCENARIOS)
def test_batch_off_is_bit_identical_across_registry(name):
    """Full registry at fm=1: the fold never changes an observable."""
    spec = _single_monitor_spec(name)
    on = record_scenario(spec, None, trace=True)
    off = record_scenario(
        spec, None, trace=True, prepare=_materialise_lifts
    )
    assert on.messages_sent > 0
    assert on == off, f"{name}: the deferred fold changed {on.diff(off)}"


def test_deferred_fold_engages_with_single_monitors():
    """fm=1: the batched path must actually run (not just be wired)."""
    spec = _single_monitor_spec()
    session = spec.build(None)
    session.run(spec.rounds)
    assert session.context.hasher.batched_lifts > 0
    # Accounting invariant: every protocol-level call in one bucket.
    hasher = session.context.hasher
    assert hasher.operations == (
        hasher.memo_hits
        + hasher.fixed_base_hits
        + hasher.cold_powmods
        + hasher.batched_lifts
    )
    # And the materialising twin performed zero batched lifts but
    # tallied the same protocol-level operation count.
    twin = spec.build(None)
    _materialise_lifts(twin)
    twin.run(spec.rounds)
    assert twin.context.hasher.batched_lifts == 0
    assert twin.context.hasher.operations == hasher.operations


def test_deferred_fold_identical_under_every_policy():
    """fm=1 on worker replicas, both merge modes: equal to serial."""
    spec = _single_monitor_spec()
    for trace in (True, False):
        reference = record_scenario(spec, None, trace=trace)
        record = record_scenario(spec, replicas(WORKERS + 1), trace=trace)
        assert record == reference, (
            f"fm=1, trace={trace}: mismatch in {record.diff(reference)}"
        )
