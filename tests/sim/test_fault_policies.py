"""Fault-injector coverage: every injector, every execution policy.

The contract under test is threefold: (1) each declarative
:class:`~repro.sim.faults.FaultSpec` wired through
``ScenarioSpec.fault_schedule`` produces identical traffic, verdicts
and per-injector counters under serial and parallel execution
(rules only evaluate on the parent network — replica workers run in
capture mode); (2) fault schedules are deterministic functions of the
spec seed; (3) malformed declarations fail loudly at construction, not
as silent no-ops mid-run.
"""

import random

import pytest

from repro.scenarios.spec import ScenarioSpec
from repro.sim.faults import (
    BudgetFault,
    CorruptionFault,
    DelayFault,
    LinkCutFault,
    LossFault,
    OutageFault,
    PartitionFault,
)
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.rng import derive_seed


def _stream(seed, label):
    """The rng stream a fault injector once derived by default."""
    return random.Random(derive_seed(seed, "fault", label))

POLICIES = ("serial", "parallel")

EXCHANGE = ("key_request", "key_response", "serve", "attestation", "ack")

FAULTS = {
    "loss": LossFault(probability=0.08, kinds=EXCHANGE),
    "delay": DelayFault(probability=0.06, triggers=5,
                        kinds=("serve", "attestation", "ack")),
    "partition": PartitionFault(group=(3, 7), first_round=3,
                                last_round=4, kinds=EXCHANGE),
    "outage": OutageFault(node_id=9, first_round=2, last_round=3),
    "link-cut": LinkCutFault(links=((2, 6), (6, 2)), kinds=EXCHANGE),
    "corruption": CorruptionFault(probability=1.0, max_corruptions=2,
                                  kinds=("serve", "ack")),
    "budget": BudgetFault(node_kbps=((4, 220.0),)),
}


def run_spec(fault, policy, seed=123, **overrides):
    spec = ScenarioSpec(
        name="fault-policy",
        nodes=12,
        rounds=7,
        warmup_rounds=2,
        fault_schedule=(fault,),
        seed=seed,
        policy=policy,
        workers=2,
        **overrides,
    )
    return spec.run()


def fingerprint(result):
    return {
        "messages_sent": result.messages_sent,
        "messages_dropped": result.messages_dropped,
        "messages_delayed": result.messages_delayed,
        "hashes": result.crypto_hashes,
        "fault_stats": result.fault_stats,
        "accusations": result.accusations,
        "verdicts": sorted(
            (v.node, v.reason.name, v.exchange_round, v.detected_by)
            for v in result.session.all_verdicts()
        ),
    }


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_injector_bit_identical_across_policies(name):
    """Each injector's drops, counters and verdicts are policy-blind,
    and the parallel merge grafts identical tallies back."""
    records = {
        policy: fingerprint(run_spec(FAULTS[name], policy))
        for policy in POLICIES
    }
    assert records["serial"] == records["parallel"]
    stats = records["serial"]["fault_stats"]
    assert list(stats) == [f"{FAULTS[name].kind}[0]"]


def test_fault_stats_fire_for_each_injector():
    """The scenario dimensions above actually exercise every injector
    (a fault that never fires would make the matrix test vacuous)."""
    for name, fault in FAULTS.items():
        result = run_spec(fault, "serial")
        (stats,) = result.fault_stats.values()
        assert sum(stats.values()) > 0, f"{name} never fired"


def test_loss_schedule_is_deterministic_in_spec_seed():
    """Satellite regression: the same spec drops the same messages.

    The loss injector once defaulted to an unseeded shared rng, so two
    runs of one spec disagreed; the rng now derives from the spec seed.
    """
    first = fingerprint(run_spec(FAULTS["loss"], "serial", seed=7))
    second = fingerprint(run_spec(FAULTS["loss"], "serial", seed=7))
    assert first == second
    assert first["messages_dropped"] > 0
    other_seed = fingerprint(run_spec(FAULTS["loss"], "serial", seed=8))
    assert other_seed != first  # the seed actually steers the schedule


def test_random_loss_default_rng_is_seed_derived():
    """Rule-level: a loss draws only from the stream ``build`` is given
    (there is no default), so two rules built from the same derived
    stream agree drop-for-drop; distinct seeds diverge."""
    messages = [
        Message(sender=s, recipient=r, round_no=0)
        for s in range(6)
        for r in range(6)
        if s != r
    ]
    loss = LossFault(probability=0.5)
    first = loss.build(_stream(99, "random-loss"), Network())
    second = loss.build(_stream(99, "random-loss"), Network())
    third = loss.build(_stream(100, "random-loss"), Network())
    picks_first = [first(m) for m in messages]
    picks_second = [second(m) for m in messages]
    picks_third = [third(m) for m in messages]
    assert picks_first == picks_second
    assert first.stats() == second.stats()
    assert first.stats()["dropped"] > 0
    assert picks_first != picks_third


def test_delay_counters_and_release_balance():
    result = run_spec(FAULTS["delay"], "serial")
    (stats,) = result.fault_stats.values()
    assert stats["delayed"] == stats["released"] > 0
    assert result.messages_delayed == stats["delayed"]
    # Delays reorder but never destroy traffic: no drop counted.
    assert result.messages_dropped == 0


def test_summary_carries_fault_keys_only_for_fault_specs():
    faulty = run_spec(FAULTS["loss"], "serial").summary()
    assert faulty["messages_dropped"] > 0
    assert "faults" in faulty and "accusations" in faulty
    plain = ScenarioSpec(
        name="plain", nodes=8, rounds=5, warmup_rounds=1
    ).run().summary()
    assert "faults" not in plain and "accusations" not in plain


def test_corrupted_update_is_caught_by_accusation_path():
    """Acceptance case: a Byzantine bit-flip on a serve is detected by
    the receiver's attestation check, recovered through the accusation
    path (probe -> probe-ack -> confirm), and convicts nobody."""
    result = run_spec(
        CorruptionFault(probability=1.0, max_corruptions=3,
                        kinds=("serve",)),
        "serial",
    )
    (stats,) = result.fault_stats.values()
    assert stats["corrupted"] == 3
    acc = result.accusations
    assert acc["accusations_received"] > 0
    assert acc["probes_sent"] > 0
    assert acc["probe_acks_accepted"] > 0
    assert acc["confirms_sent"] > 0
    assert result.convicted == ()


def test_outage_is_convicted_like_a_refusal():
    """A crashed node is observationally a refuser (section VI-B): it
    is convicted, and nobody else is."""
    result = run_spec(FAULTS["outage"], "serial")
    verdicts = [
        v for v in result.session.all_verdicts() if v.detected_by != 9
    ]
    assert {v.node for v in verdicts} == {9}


class TestDeclarationValidation:
    """Satellite: malformed declarations raise at construction."""

    def test_link_cut_rejects_self_link(self):
        with pytest.raises(ValueError, match="self-link"):
            LinkCutFault(links=((3, 3),))

    def test_link_cut_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            LinkCutFault(links=((-1, 2),))

    def test_link_cut_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pair"):
            LinkCutFault(links=((1, 2, 3),))

    def test_outage_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="window"):
            OutageFault(node_id=3, first_round=5, last_round=2)

    def test_outage_rejects_negative_node(self):
        with pytest.raises(ValueError):
            OutageFault(node_id=-1, first_round=0, last_round=1)

    def test_random_loss_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            LossFault(probability=1.5)

    def test_delay_rule_rejects_zero_triggers(self):
        with pytest.raises(ValueError, match="triggers"):
            DelayFault(probability=0.5, triggers=0)

    def test_partition_rejects_empty_group(self):
        with pytest.raises(ValueError, match="group"):
            PartitionFault(group=(), first_round=0, last_round=1)

    def test_partition_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="window"):
            PartitionFault(group=(1, 2), first_round=4, last_round=1)

    def test_corruption_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="max_corruptions"):
            CorruptionFault(max_corruptions=0)

    def test_corruption_rejects_kinds_it_cannot_mutate(self):
        with pytest.raises(ValueError, match="key_request"):
            CorruptionFault(kinds=("serve", "key_request"))

    def test_budget_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            BudgetFault(node_kbps=((3, 0.0),))

    def test_budget_rejects_a_node_named_twice(self):
        """Two budgets for one node are an error naming the node, not a
        silent pick of the last one."""
        with pytest.raises(ValueError, match="node 4 appears twice"):
            BudgetFault(node_kbps=((4, 250.0), (4, 100.0)))

    def test_spec_rejects_unknown_message_kind(self):
        with pytest.raises(ValueError, match="unknown message kinds"):
            ScenarioSpec(
                name="bad",
                nodes=8,
                rounds=5,
                warmup_rounds=1,
                fault_schedule=(
                    LossFault(probability=0.1, kinds=("telegram",)),
                ),
            )

    def test_spec_rejects_out_of_range_fault_node(self):
        with pytest.raises(ValueError, match="OutageFault"):
            ScenarioSpec(
                name="bad",
                nodes=8,
                rounds=5,
                warmup_rounds=1,
                fault_schedule=(
                    OutageFault(node_id=99, first_round=1, last_round=2),
                ),
            )

    def test_spec_rejects_window_past_the_run(self):
        with pytest.raises(ValueError, match="never takes effect"):
            ScenarioSpec(
                name="bad",
                nodes=8,
                rounds=5,
                warmup_rounds=1,
                fault_schedule=(
                    OutageFault(node_id=3, first_round=7, last_round=9),
                ),
            )

    def test_spec_rejects_non_fault_entries(self):
        with pytest.raises(ValueError, match="FaultSpec"):
            ScenarioSpec(
                name="bad",
                nodes=8,
                rounds=5,
                warmup_rounds=1,
                fault_schedule=("loss",),
            )

    def test_spec_rejects_faults_on_acting_protocol(self):
        with pytest.raises(ValueError, match="PAG"):
            ScenarioSpec(
                name="bad",
                protocol="acting",
                nodes=8,
                rounds=5,
                warmup_rounds=1,
                fault_schedule=(LossFault(probability=0.1),),
            )


def test_link_budget_throttles_serves_only():
    """Fig. 7 heterogeneity: a constrained link tail-drops serve traffic
    over its per-round byte budget but never touches the accountability
    plane, so nobody honest is convicted."""
    result = run_spec(BudgetFault(node_kbps=((4, 180.0),)), "serial")
    (stats,) = result.fault_stats.values()
    assert stats["dropped"] > 0
    assert result.convicted == ()


def test_delayed_messages_bypass_further_rules():
    """One fault per message: a released message re-enters the queue
    without re-evaluation, so a delay rule can never re-hold it and a
    loss rule can never eat it (the schedule stays replayable)."""
    network = Network()
    delay = DelayFault(probability=1.0, triggers=1).build(
        _stream(5, "delay"), network
    )
    loss = LossFault(probability=1.0).build(
        _stream(5, "random-loss"), network
    )
    network.add_drop_rule(delay)
    network.add_drop_rule(loss)
    network.begin_round(0)
    network.send(Message(sender=1, recipient=2, round_no=0))
    assert network.messages_delayed == 1
    assert network.pop() is None  # held, not queued
    # The round boundary flushes the held message; it re-enters the
    # queue without rule re-evaluation — the certain-loss rule behind
    # the delay rule never gets to eat it.
    network.begin_round(1)
    released = network.pop()
    assert released is not None and released.round_no == 0
    assert network.messages_dropped == 0
    assert delay.stats() == {"delayed": 1, "released": 1}
