"""Every registered scenario, bit-identical under every placement.

The acceptance bar of the parallel execution backend: for each scenario
in the registry, a serial run and a replica-backed parallel run must
produce byte-identical meter snapshots (totals and per-round series),
the same ordered message trace, the same verdict outcomes, and the same
crypto operation counts.  The traced sweep pins the parallel backend to
its full-fidelity capture path; the untraced sweep covers the metadata
fast path (parent metering from metadata alone).
"""

import pytest

from repro.scenarios import scenario_names
from repro.sim.execution import ParallelShardedPolicy

from tests.differential.harness import (
    record_scenario,
    replicas,
    serial_reference,
    small_spec,
    workers_under_test,
)

WORKERS = workers_under_test()

#: The full registry sweep drives the replicas in-process (the
#: ``serialized`` backend: same orchestration and merge code, no pools
#: to start); real worker processes are exercised on a representative
#: subset below.
PROCESS_SCENARIOS = ("fig7", "selfish", "churn")


@pytest.mark.parametrize("name", scenario_names())
def test_traced_runs_are_bit_identical(name):
    spec = small_spec(name)
    reference = serial_reference(name)
    assert reference.messages_sent > 0
    record = record_scenario(spec, replicas(WORKERS + 1), trace=True)
    assert record == reference, (
        f"{name}: mismatch in {record.diff(reference)}"
    )


@pytest.mark.parametrize("name", scenario_names())
def test_fast_path_runs_are_bit_identical(name):
    """No taps/drop rules: the parallel backend's metadata merge."""
    spec = small_spec(name)
    reference = serial_reference(name, trace=False)
    record = record_scenario(spec, replicas(WORKERS), trace=False)
    assert record == reference, (
        f"{name}: mismatch in {record.diff(reference)}"
    )


@pytest.mark.parametrize("name", PROCESS_SCENARIOS)
def test_process_pool_runs_are_bit_identical(name):
    """Real process workers: replicas cross a pickling boundary."""
    spec = small_spec(name)
    reference = serial_reference(name)
    policy = ParallelShardedPolicy(workers=WORKERS)
    record = record_scenario(spec, policy, trace=True)
    assert policy.mode == "process"
    assert record == reference, (
        f"{name}: mismatch in {record.diff(reference)}"
    )
    # And the metadata fast path across real process boundaries.
    fast_ref = serial_reference(name, trace=False)
    policy = ParallelShardedPolicy(workers=WORKERS)
    fast = record_scenario(spec, policy, trace=False)
    assert fast == fast_ref, f"{name}: mismatch in {fast.diff(fast_ref)}"
