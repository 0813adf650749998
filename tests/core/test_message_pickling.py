"""What the parallel policy pickles: every message of two real runs.

Cross-shard sends of ``--policy parallel`` travel as pickles, and the
four frozen-slots value classes nested in them (``ServeEntry``,
``SignedAck``, ``SignedAttestation``, ``RelayPair``) pickle as
``(cls, field values)`` instead of through the Python-level
``_dataclass_getstate`` pair.  A load must give back the same value, of
the same type, still frozen and still without a ``__dict__``.
"""

import dataclasses
import pickle

import pytest

import repro.core.messages as messages
from repro.core.messages import (
    AttestationRelayBatch,
    RelayPair,
    SignedAttestation,
)
from tests.net.live_traffic import SCENARIOS, live_messages

PROTOCOLS = (2, pickle.HIGHEST_PROTOCOL)


def _relay_batch():
    """The one kind the simulator never emits, with three pairs."""
    pairs = tuple(
        RelayPair(
            attestation=SignedAttestation(
                round_no=4,
                server=10 + k,
                receiver=2,
                hash_forward=(1 << 70) + k,
                hash_ack_only=1,
                signature=987654321 + k,
            ),
            cofactor=(1 << 90) + 3 * k,
            cofactor_prime_count=2,
        )
        for k in range(3)
    )
    return AttestationRelayBatch(
        round_no=4, sender=2, recipient=7, declarer=2, pairs=pairs,
        signature=55,
    )


def _value_objects(message):
    """The frozen value objects nested in ``message``, at any depth."""
    found = []
    pending = [message]
    while pending:
        item = pending.pop()
        if isinstance(item, tuple):
            pending.extend(item)
        elif dataclasses.is_dataclass(item):
            if item.__dataclass_params__.frozen:
                found.append(item)
            pending.extend(
                getattr(item, f.name) for f in dataclasses.fields(item)
            )
    return found


def _frozen_slots_classes():
    return [
        cls
        for cls in (getattr(messages, name) for name in messages.__all__)
        if dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and "__slots__" in vars(cls)
    ]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_live_traffic_survives_a_pickle(label, protocol):
    kinds = set()
    for message in live_messages(label):
        kinds.add(message.kind)
        loaded = pickle.loads(pickle.dumps(message, protocol))
        assert loaded == message
        assert type(loaded) is type(message)
        assert not hasattr(loaded, "__dict__")
        for value in _value_objects(loaded):
            if "__slots__" in vars(type(value)):
                assert not hasattr(value, "__dict__")
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
    if label == "coalition-mixed":
        # the nested ServeEntry tuples of the accusation path
        assert {"accusation", "monitor_probe"} <= kinds


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_relay_batch_survives_a_pickle(protocol):
    batch = _relay_batch()
    loaded = pickle.loads(pickle.dumps(batch, protocol))
    assert loaded == batch and type(loaded) is AttestationRelayBatch
    assert [type(pair) for pair in loaded.pairs] == [RelayPair] * 3
    for pair in loaded.pairs:
        assert not hasattr(pair, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.cofactor = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.attestation.signature = 1


def test_no_frozen_slots_class_pickles_through_dataclass_getstate():
    """A frozen-slots dataclass added to the catalogue without the
    constructor reduction would pickle, correctly and slowly, through
    ``dataclasses._dataclass_getstate``: fail here instead."""
    classes = _frozen_slots_classes()
    assert {cls.__name__ for cls in classes} >= {
        "ServeEntry", "SignedAck", "SignedAttestation", "RelayPair",
    }
    for cls in classes:
        assert cls.__reduce__ is not object.__reduce__, cls.__name__
        names = [f.name for f in dataclasses.fields(cls)]
        probe = cls(*range(len(names)))
        maker, values = probe.__reduce__()
        assert maker is cls
        assert values == tuple(getattr(probe, name) for name in names)
