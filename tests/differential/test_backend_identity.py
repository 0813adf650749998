"""Paper-size runs are bit-identical whichever backend exponentiates.

Registry ``table1`` at 6 nodes x 2 rounds with the paper's 512-bit
modulus and 512-bit link primes (the benchmark's ``table1_paper``
workload) is run once forced onto builtin ``pow`` and once onto
libcrypto.  Arithmetic is exact, so the primes the pools draw, every
message handed to ``Network.send``, the meter, the operation counts and
the result JSON must all be equal; only the hasher's bucket split may
differ (the wide ladder is a Python-backend device).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.messages import KeyResponse
from repro.crypto.backend import available_backends
from repro.scenarios import ScenarioResult, get_scenario
from tests.differential.harness import _ops_of

BUCKETS = ("memo_hits", "fixed_base_hits", "cold_powmods", "batched_lifts")

pytestmark = pytest.mark.skipif(
    "openssl" not in available_backends(),
    reason="libcrypto is not reachable through _hashlib",
)


def _observe(monkeypatch, choice):
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", choice)
    spec = get_scenario("table1", nodes=6, rounds=2, warmup_rounds=1)
    session = spec.build_pag_with(
        None, sim_modulus_bits=512, sim_prime_bits=512
    )
    hasher = session.context.hasher
    assert hasher.backend.name == choice
    network = session.simulator.network
    digest = hashlib.sha256()
    primes = []
    inner = network.send

    def send(message):
        shown = message
        if type(message) is KeyResponse:
            primes.append(message.prime)
            # The one unordered field, put in order.
            shown = dataclasses.replace(
                message, buffermap=sorted(message.buffermap)
            )
        digest.update(repr(shown).encode())
        inner(message)

    network.send = send
    session.run(spec.rounds)
    result = ScenarioResult.collect(spec, session)
    stats = hasher.cache_stats()
    return {
        "result": json.dumps(result.summary(), sort_keys=True),
        "node_kbps": result.node_kbps,
        "meter": network.meter.snapshot(),
        "ops": _ops_of(session),
        "modulus": hasher.modulus,
        "primes": primes,
        "stream_sha256": digest.hexdigest(),
        "calls": sum(stats[bucket] for bucket in BUCKETS),
    }


def test_table1_at_paper_sizes_python_vs_openssl(monkeypatch):
    python = _observe(monkeypatch, "python")
    openssl = _observe(monkeypatch, "openssl")
    differing = [key for key in python if python[key] != openssl[key]]
    assert not differing, differing
    assert python["primes"] and all(
        prime.bit_length() == 512 for prime in python["primes"]
    )
    assert python["modulus"].bit_length() == 512
    assert python["calls"] == python["ops"]["hashes"] > 0
    assert python["ops"]["prime_generations"] == len(python["primes"])
