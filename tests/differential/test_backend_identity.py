"""Runs are bit-identical whichever backend exponentiates.

Each run is made once forced onto builtin ``pow`` and once onto
libcrypto.  Arithmetic is exact, so the primes the pools draw, every
message handed to ``Network.send``, the meter, the operation counts and
the result JSON must all be equal:

* registry ``table1`` at 6 nodes x 2 rounds with the paper's 512-bit
  modulus and 512-bit link primes (the benchmark's ``table1_paper``
  workload), where only the hasher's bucket split may differ (the wide
  ladder is a Python-backend device);
* registry ``fig9`` and ``coalition-mixed`` at differential-suite size
  and the 128-bit simulation modulus, where the four buckets must be
  equal too: ``auto`` picks libcrypto there, and its crossover is what
  decides, call by call, whether builtin ``pow`` runs anyway.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.messages import KeyResponse
from repro.crypto.backend import available_backends
from repro.scenarios import ScenarioResult, get_scenario
from tests.differential.harness import _ops_of, small_spec

BUCKETS = ("memo_hits", "fixed_base_hits", "cold_powmods", "batched_lifts")

pytestmark = pytest.mark.skipif(
    "openssl" not in available_backends(),
    reason="libcrypto is not reachable through _hashlib",
)


def _observe(monkeypatch, choice, spec, build):
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", choice)
    session = build(spec)
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
        "buckets": {bucket: stats[bucket] for bucket in BUCKETS},
    }


def _paper_size(spec):
    return spec.build_pag_with(None, sim_modulus_bits=512, sim_prime_bits=512)


def _calls(observed):
    return sum(observed["buckets"].values())


def test_table1_at_paper_sizes_python_vs_openssl(monkeypatch):
    spec = get_scenario("table1", nodes=6, rounds=2, warmup_rounds=1)
    python = _observe(monkeypatch, "python", spec, _paper_size)
    openssl = _observe(monkeypatch, "openssl", spec, _paper_size)
    differing = [
        key
        for key in python
        if key != "buckets" and python[key] != openssl[key]
    ]
    assert not differing, differing
    assert _calls(python) == _calls(openssl)
    assert python["primes"] and all(
        prime.bit_length() == 512 for prime in python["primes"]
    )
    assert python["modulus"].bit_length() == 512
    assert _calls(python) == python["ops"]["hashes"] > 0
    assert python["ops"]["prime_generations"] == len(python["primes"])


@pytest.mark.parametrize("name", ["fig9", "coalition-mixed"])
def test_simulation_width_python_vs_openssl(monkeypatch, name):
    spec = small_spec(name)
    python = _observe(monkeypatch, "python", spec, lambda s: s.build(None))
    openssl = _observe(monkeypatch, "openssl", spec, lambda s: s.build(None))
    differing = [key for key in python if python[key] != openssl[key]]
    assert not differing, differing
    assert python["modulus"].bit_length() == 128
    assert python["primes"] and all(
        prime.bit_length() == 32 for prime in python["primes"]
    )
    assert _calls(python) == python["ops"]["hashes"] > 0
    assert python["buckets"]["fixed_base_hits"] > 0
    assert python["buckets"]["cold_powmods"] > 0
