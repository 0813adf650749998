"""Every registered scenario, bit-identical under every placement.

The acceptance bar of the parallel execution backend: for each scenario
in the registry, a serial run and a replica-backed parallel run must
produce byte-identical meter snapshots (totals and per-round series),
the same ordered message trace, the same verdict outcomes, and the same
crypto operation counts.  The traced sweep makes every replica send
carry its payload to the parent's taps; the untraced sweep covers
worker-held payloads queued from metadata alone.  Besides the registry,
fig7 runs with one monitor per node, the shape where no lifted pair is
ever broadcast.
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

#: ``(name, overrides)`` inputs of both sweeps: the registry at smoke
#: scale, plus fig7 at fm=1.
CASES = [pytest.param(name, (), id=name) for name in scenario_names()] + [
    pytest.param("fig7", (("monitors_per_node", 1),), id="fig7-fm1")
]


@pytest.mark.parametrize("name, extra", CASES)
def test_traced_runs_are_bit_identical(name, extra):
    spec = small_spec(name, **dict(extra))
    reference = serial_reference(name, **dict(extra))
    assert reference.messages_sent > 0
    record = record_scenario(spec, replicas(WORKERS + 1), trace=True)
    assert record == reference, (
        f"{name}: mismatch in {record.diff(reference)}"
    )


@pytest.mark.parametrize("name, extra", CASES)
def test_fast_path_runs_are_bit_identical(name, extra):
    """No taps/drop rules: payloads stay in the workers."""
    spec = small_spec(name, **dict(extra))
    reference = serial_reference(name, trace=False, **dict(extra))
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
    # And worker-held payloads across real process boundaries.
    fast_ref = serial_reference(name, trace=False)
    policy = ParallelShardedPolicy(workers=WORKERS)
    fast = record_scenario(spec, policy, trace=False)
    assert fast == fast_ref, f"{name}: mismatch in {fast.diff(fast_ref)}"
