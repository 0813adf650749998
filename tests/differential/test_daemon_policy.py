"""Every registered scenario, bit-identical through the wire codec.

The loopback :class:`~repro.sim.execution.DaemonPolicy` routes each
deliverable message through the full daemon wire path — encode, frame,
stream reassembly, decode — before it reaches the recipient.  For every
scenario in the registry the resulting run must be *bit-identical* to
the serial policy: same meter bytes, same ordered trace, same verdicts,
same crypto tallies.  That equivalence is what licenses the daemon
runtime's replica-from-spec design: if the codec round-trip perturbed
any observable byte, it would show up here first.
"""

import pytest

from repro.scenarios import scenario_names
from repro.sim.execution import DaemonPolicy

from tests.differential.harness import (
    record_scenario,
    serial_reference,
    small_spec,
)


@pytest.mark.parametrize("name", scenario_names())
def test_wire_round_tripped_runs_are_bit_identical(name):
    spec = small_spec(name)
    reference = serial_reference(name)
    assert reference.messages_sent > 0
    policy = DaemonPolicy()
    record = record_scenario(spec, policy, trace=True)
    assert record == reference, (
        f"{name} through the wire codec: mismatch in "
        f"{record.diff(reference)}"
    )
    # PAG scenarios must actually exercise the codec; baseline-protocol
    # scenarios pass their foreign message types through unencoded.
    if spec.protocol == "pag":
        assert policy.frames > 0
        assert policy.bytes_on_wire > 0
        assert policy.passthrough == 0
    else:
        assert policy.passthrough > 0


def test_daemon_policy_is_registered():
    from repro.sim.execution import make_policy

    policy = make_policy("daemon")
    assert isinstance(policy, DaemonPolicy)
    assert policy.name == "daemon"
