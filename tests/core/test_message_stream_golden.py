"""The node path's bit-identity oracle: every message, every counter.

``GOLDEN`` pins, for four small registry runs, the SHA-256 over the
``repr()`` of every message handed to ``Network.send`` in send order
(all fields, signatures included; dropped and delayed messages too, as
they looked when sent), the hasher's protocol-level ``operations``, its
four ``cache_stats()`` buckets and the signer's two counters.  Recorded
before the per-round serve plan touched ``core/node.py``, so a change to
the node, message, signing or send path that keeps these equal sent the
same bytes and did the same accountable work.  The bucket numbers alone
were taken again when the hasher's link memo began answering one end of
a link with what the other end had hashed (a link hit books as a
``memo_hit``); everything else is the first recording.

The stream digest, ``operations`` and the signer's counters do not
depend on the crypto backend; the bucket split does under gmpy2 (it
keeps no fixed-base tables), so those four pins skip themselves there
and nowhere else: at these 128-bit moduli ``auto`` is the Python
backend, and a forced ``openssl`` keeps the narrow tables and books
the same buckets.

Regenerate after an intended protocol change with::

    PYTHONPATH=src python tests/core/test_message_stream_golden.py
"""

import functools
import hashlib
from typing import Any, Dict, Tuple

import pytest

from repro.core.messages import KeyResponse
from repro.scenarios import get_scenario

#: label -> (registry name, overrides) of the pinned runs.
RUNS: Dict[str, Tuple[str, Dict[str, int]]] = {
    "fig9": ("fig9", dict(nodes=16, rounds=5, warmup_rounds=2)),
    "coalition-mixed": ("coalition-mixed", {}),
    "fault-fuzz": ("fault-fuzz", {}),
    "join-churn": ("join-churn", {}),
}

BUCKETS = ("memo_hits", "fixed_base_hits", "cold_powmods", "batched_lifts")

GOLDEN: Dict[str, Dict[str, Any]] = {
    "fig9": {
        "messages": 3034,
        "stream_sha256": (
            "53659a39f5687d746fce3f75dd52102413a3cd3646ca879126d3e7286712978c"
        ),
        "operations": 13230,
        "signatures": 2794,
        "verifications": 2749,
        "memo_hits": 2261,
        "fixed_base_hits": 10390,
        "cold_powmods": 579,
        "batched_lifts": 0,
    },
    "coalition-mixed": {
        "messages": 11873,
        "stream_sha256": (
            "0b1773c83c5a2b420a326beda4f1fa5d6012942fc4417977da27133b2656e288"
        ),
        "operations": 103234,
        "signatures": 11142,
        "verifications": 8937,
        "memo_hits": 13293,
        "fixed_base_hits": 87741,
        "cold_powmods": 2200,
        "batched_lifts": 0,
    },
    "fault-fuzz": {
        "messages": 8469,
        "stream_sha256": (
            "000c13c422ceff824af8dd97728516f65455bdafadb1cea038306595ed709e26"
        ),
        "operations": 49098,
        "signatures": 8043,
        "verifications": 6144,
        "memo_hits": 6518,
        "fixed_base_hits": 41367,
        "cold_powmods": 1213,
        "batched_lifts": 0,
    },
    "join-churn": {
        "messages": 10471,
        "stream_sha256": (
            "60a2ad8bc7fda2659169e2476db32b9d488cc7883c8b5f3d243a6d1c32110bec"
        ),
        "operations": 101476,
        "signatures": 9662,
        "verifications": 8804,
        "memo_hits": 16233,
        "fixed_base_hits": 83121,
        "cold_powmods": 2122,
        "batched_lifts": 0,
    },
}


def _canonical(message: Any) -> str:
    """``repr`` with the one unordered field put in order."""
    if type(message) is KeyResponse:
        return (
            f"KeyResponse({message.sender}, {message.recipient}, "
            f"{message.round_no}, {message.prime}, "
            f"{sorted(message.buffermap)}, {message.signature})"
        )
    return repr(message)


@functools.lru_cache(maxsize=None)
def observe(label: str) -> Dict[str, Any]:
    """Run ``label`` with ``Network.send`` wrapped; what it did."""
    name, overrides = RUNS[label]
    spec = get_scenario(name, **overrides)
    session = spec.build(None)
    network = session.simulator.network
    digest = hashlib.sha256()
    sent = 0
    inner = network.send

    def send(message: Any) -> None:
        nonlocal sent
        sent += 1
        digest.update(_canonical(message).encode())
        inner(message)

    network.send = send  # instance attribute: nodes look it up per call
    session.run(spec.rounds)
    hasher = session.context.hasher
    stats = hasher.cache_stats()
    signer = session.context.signer.counters
    return {
        "messages": sent,
        "stream_sha256": digest.hexdigest(),
        "operations": hasher.operations,
        "signatures": signer.signatures,
        "verifications": signer.verifications,
        "backend": hasher.backend.name,
        **{bucket: stats[bucket] for bucket in BUCKETS},
    }


def test_every_run_is_pinned():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_message_stream_and_protocol_counters(label):
    seen = observe(label)
    for field in (
        "messages", "stream_sha256", "operations", "signatures",
        "verifications",
    ):
        assert seen[field] == GOLDEN[label][field], field


@pytest.mark.parametrize("label", sorted(RUNS))
def test_hasher_buckets(label):
    seen = observe(label)
    if seen["backend"] == "gmpy2":
        pytest.skip("gmpy2 keeps no fixed-base tables")
    for bucket in BUCKETS:
        assert seen[bucket] == GOLDEN[label][bucket], bucket
    assert sum(seen[b] for b in BUCKETS) == seen["operations"]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {
            label: {k: v for k, v in observe(label).items() if k != "backend"}
            for label in RUNS
        },
        sort_dicts=False,
    )
