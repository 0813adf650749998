"""Determinism regressions: same spec + seed => same run, always.

Two independent runs of the same spec under the same policy must be
identical (the whole simulation is a function of the seed), and the
worker count must never leak into results — partitioning changes which
replica executes a node, not what the node does.
"""

import pytest

from repro.sim.execution import ParallelShardedPolicy, SerialPolicy

from tests.differential.harness import (
    record_scenario,
    serial_reference,
    small_spec,
)


def _spec():
    return small_spec("selfish")


@pytest.mark.parametrize(
    "make",
    [
        lambda: SerialPolicy(),
        lambda: ParallelShardedPolicy(workers=2),
    ],
    ids=["serial", "parallel-process"],
)
def test_same_seed_twice_is_identical(make):
    spec = _spec()
    first = record_scenario(spec, make(), trace=True)
    second = record_scenario(spec, make(), trace=True)
    assert first == second, f"mismatch in {first.diff(second)}"


def test_worker_count_does_not_change_results():
    spec = _spec()
    reference = serial_reference("selfish")
    for workers in (1, 2, 5, 9):
        policy = ParallelShardedPolicy(workers=workers)
        record = record_scenario(spec, policy, trace=True)
        assert record == reference, (
            f"workers={workers}: mismatch in {record.diff(reference)}"
        )


def test_worker_count_does_not_change_fast_path_results():
    spec = _spec()
    reference = serial_reference("selfish", trace=False)
    for workers in (2, 4):
        policy = ParallelShardedPolicy(workers=workers)
        record = record_scenario(spec, policy, trace=False)
        assert record == reference, (
            f"workers={workers}: mismatch in {record.diff(reference)}"
        )


def test_churn_schedule_is_deterministic_under_parallel():
    spec = small_spec("churn")
    reference = serial_reference("churn")
    for workers in (2, 3):
        policy = ParallelShardedPolicy(workers=workers)
        record = record_scenario(spec, policy, trace=True)
        assert record == reference, (
            f"workers={workers}: mismatch in {record.diff(reference)}"
        )
