"""Regression: the wide-exponent memo earns its keep at 512 entries.

The memo caches ``(update, exponent)`` hash results, but reuse is
drain-local — within one exchange the server and the receiver hash the
same entries under the same per-exchange prime, and the next exchange
draws a fresh prime, so old entries never hit again.  A 16384-entry
default was therefore almost entirely dead weight: measured hit counts
on full sessions are identical at 512 and 16384 entries.  These tests
pin that measurement (so a workload shift that would benefit from a
bigger memo shows up as a failure here, with data) and pin the shipped
defaults to the small size.
"""

from repro.crypto.homomorphic import _MEMO_MAX, HomomorphicHasher
from repro.scenarios import get_scenario


def _memo_stats(name, entries, **overrides):
    """Run a scenario with a given memo bound; return its cache stats."""
    spec = get_scenario(name).with_overrides(**overrides)
    session = spec.build()
    hasher = session.context.hasher
    hasher.memo_max = entries
    session.run(spec.rounds)
    stats = hasher.cache_stats()
    stats["operations"] = hasher.operations
    return stats


def test_memo_hits_identical_at_512_and_16384_entries():
    # Two session scales (the fig7 60-node and table1 40-node shapes,
    # shrunk to smoke size but with enough rounds for memo churn).
    for name, overrides in [
        ("fig7", dict(nodes=20, rounds=8, warmup_rounds=2)),
        ("table1", dict(nodes=12, rounds=8, warmup_rounds=2)),
    ]:
        small = _memo_stats(name, 1 << 9, **overrides)
        large = _memo_stats(name, 1 << 14, **overrides)
        # Identical hasher traffic under both bounds...
        assert small["operations"] == large["operations"]
        # ...and identical reuse: the extra 15872 entries buy nothing.
        assert small["memo_hits"] == large["memo_hits"]
        # The memo is not dead — it does hit within exchanges.
        assert small["memo_hits"] > 0


def test_default_memo_size_is_small():
    assert _MEMO_MAX == 1 << 9
    assert HomomorphicHasher(modulus=3233).memo_max == 1 << 9


def test_memo_entry_count_respects_the_bound():
    stats = _memo_stats("fig7", 1 << 9, nodes=20, rounds=8,
                        warmup_rounds=2)
    assert stats["memo_max"] == 1 << 9
    assert stats["memo_entries"] <= 1 << 9
