"""What a full-fidelity node keeps between rounds.

A serve entry is immutable, so the process keeps one object per value
(:func:`~repro.core.messages.serve_entry`), built by the serve plans
and by the wire decoder alike, and released once its update has
expired.  A node keeps the forward set it is filling and the one it
serves from, nothing older.  None of this may change what a run
computes.
"""

import os
import subprocess
import sys
import textwrap

import repro
from repro.adversary.selfish import ContactAvoider, FreeRider
from repro.analysis.detection import detection_latency
from repro.core import messages
from repro.core.messages import Serve, forget_expired_entries, serve_entry
from repro.gossip.updates import Update
from repro.net.wire import decode_message, encode_message
from repro.scenarios import get_scenario

#: expiry rounds far past any run's, so no session in the process
#: releases these values while a test holds them.
_FAR = 1 << 40


def _fields(uid, expiry=_FAR, payload_bytes=938):
    return (uid, 3, expiry, payload_bytes, 0)


def test_equal_values_share_one_entry():
    update = Update(7, 3, _FAR)
    entry = serve_entry(_fields(7), 1, 1, update)
    assert entry is serve_entry(_fields(7), 1, 1)
    assert entry.update is update
    assert repr(entry) == (
        f"ServeEntry(update=Update(uid=7, round_created=3, "
        f"expiry_round={_FAR}, payload_bytes=938, session=0), count=1, "
        "has_payload=True, ack_only=False)"
    )
    # Another entry of the same update shares the update object.
    owned = serve_entry(_fields(7), 1, 2)
    assert owned is not entry and owned.update is update
    assert (owned.has_payload, owned.ack_only) == (False, True)


def test_another_update_with_the_same_uid_gets_its_own_entry():
    entry = serve_entry(_fields(8), 1, 1)
    later = serve_entry(_fields(8, expiry=_FAR + 1), 1, 1)
    heavier = serve_entry(_fields(8, payload_bytes=1200), 1, 1)
    assert len({id(entry), id(later), id(heavier)}) == 3
    assert later.update == Update(8, 3, _FAR + 1)
    assert heavier.update.payload_bytes == 1200
    assert entry.update is not later.update


def test_decoded_entries_come_from_the_intern():
    entries = (
        serve_entry(_fields(9), 1, 1),
        serve_entry(_fields(10), 2, 2),
    )
    serve = Serve(
        sender=1, recipient=2, round_no=4, key_prev=5, key_prime_count=1,
        entries=entries, signature=6,
    )
    first = decode_message(encode_message(serve))
    again = decode_message(encode_message(serve))
    assert first == serve
    for decoded, twice, built in zip(first.entries, again.entries, entries):
        assert decoded is built and twice is built


def test_the_intern_shrinks_once_updates_expire():
    live = serve_entry(_fields(11, expiry=_FAR + 10), 1, 1)
    expired = serve_entry(_fields(12, expiry=_FAR + 5), 1, 1)
    held = len(messages._INTERNED)
    forget_expired_entries(_FAR + 6)  # round _FAR + 6: uid 12 is expired
    assert len(messages._INTERNED) < held
    assert _FAR + 5 not in messages._INTERNED
    assert serve_entry(_fields(11, expiry=_FAR + 10), 1, 1) is live
    rebuilt = serve_entry(_fields(12, expiry=_FAR + 5), 1, 1)
    assert rebuilt == expired and rebuilt is not expired


def test_a_node_holds_at_most_two_forward_sets():
    spec = get_scenario("fig9", nodes=16, rounds=8)
    session = spec.build(None)
    for round_no in range(spec.rounds):
        session.run(1)
        for node in session.nodes.values():
            held = set(node.state.forward_sets)
            assert held <= {round_no - 1, round_no}, (node.node_id, held)


def test_detection_latency_is_unchanged():
    for behavior in (FreeRider(), ContactAvoider()):
        result = detection_latency(behavior)
        assert (
            result.first_violation_round, result.first_conviction_round
        ) == (2, 2)


def test_no_two_live_entries_share_a_value():
    """After fig9 16x8, in a fresh process: no more live ServeEntry
    objects than distinct values."""
    script = textwrap.dedent(
        """
        import gc
        from repro.core.messages import ServeEntry
        from repro.scenarios import get_scenario

        spec = get_scenario("fig9", nodes=16, rounds=8)
        session = spec.build(None)
        session.run(spec.rounds)
        gc.collect()
        live = [o for o in gc.get_objects() if type(o) is ServeEntry]
        print(len(live), len(set(live)))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    live, distinct = map(int, out.split())
    assert 0 < live <= distinct
