"""Cryptographic cost accounting — Table I of the paper.

The paper measures "the number of generated RSA encryptions and
homomorphic hashes per second rather than the CPU load, which depends on
the hardware used" (section VII-C).  Two reproductions are provided:

* closed-form operation counts per node per second, derived from the
  protocol's message complexity;
* the Table I generator used by ``benchmarks/bench_table1_crypto_costs``.

The signature count agrees with the simulator's counters; the hash
count does not yet.  At 60 nodes, 15 rounds and 300 Kbps the simulator
counts 409 hashes per node-second, :func:`hashes_per_second` gives 831
and the paper 475 — an open finding, pinned as a strict xfail in
``tests/analysis/test_costs.py``.

Headline structure of Table I: signatures per second are *constant*
(33 in the paper: the number of protocol messages per round does not
depend on the stream rate), while homomorphic hashes are *linear in the
chunk rate* (the buffermap dominates: every owned chunk of the last
``depth`` rounds is hashed once per issued prime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.bandwidth import pag_duplicate_factor
from repro.core.config import PagConfig
from repro.streaming.video import QUALITY_LADDER, VideoQuality

__all__ = [
    "signatures_per_second",
    "hashes_per_second",
    "table1_rows",
    "Table1Row",
]


def signatures_per_second(fanout: int = 3, monitors: int = 3) -> float:
    """RSA signatures one node generates per round (= per second).

    Counted from the protocol:

    * as server, per successor: KeyRequest, Serve, Attestation  -> 3f
    * as receiver, per predecessor: KeyResponse, Ack, AttestationRelay
      -> 3f (f predecessors in expectation)
    * as monitor: message-8 broadcasts for its designated pairs
      (f per monitored node split over fm monitors, each broadcast to
      fm-1 peers -> f(fm-1) in expectation across fm monitored nodes)
      and message-9 relays (f per monitored node -> f*fm ... relayed to
      the server's fm monitors, one signature per message).

    With f = fm = 3 this gives 9 + 9 + 6 + 9 = 33 — exactly the
    constant row of Table I.
    """
    as_server = 3 * fanout
    as_receiver = 3 * fanout
    as_monitor_broadcasts = fanout * (monitors - 1)
    as_monitor_relays = fanout * monitors
    return float(
        as_server + as_receiver + as_monitor_broadcasts + as_monitor_relays
    )


def hashes_per_second(
    quality: VideoQuality,
    config: PagConfig | None = None,
) -> float:
    """Homomorphic hashes one node computes per second at a quality.

    Dominated by buffermap construction: each issued prime hashes the
    owned updates of the last ``depth`` rounds (f primes per round).
    Smaller terms: per-successor classification of the forward set,
    attestation pairs, acks, and the monitors' lift operations.
    """
    cfg = config or PagConfig()
    f = cfg.fanout
    u = quality.payload_kbps * 1000.0 / (cfg.update_bytes * 8.0)
    dup = pag_duplicate_factor(f, cfg.buffermap_depth)
    buffermap = f * cfg.buffermap_depth * u
    classification = f * u * dup
    attestations = 2.0 * f
    acks = 1.0 * f
    monitor_lifts = 2.0 * f  # lift forward+ack-only per designated pair
    return buffermap + classification + attestations + acks + monitor_lifts


@dataclass(frozen=True)
class Table1Row:
    """One column of Table I."""

    quality: str
    payload_kbps: float
    rsa_signatures_per_s: float
    homomorphic_hashes_per_s: float


def table1_rows(config: PagConfig | None = None) -> List[Table1Row]:
    """Regenerate Table I for the full quality ladder."""
    cfg = config or PagConfig()
    rows = []
    for quality in QUALITY_LADDER:
        rows.append(
            Table1Row(
                quality=quality.name,
                payload_kbps=quality.payload_kbps,
                rsa_signatures_per_s=signatures_per_second(
                    cfg.fanout, cfg.monitors_per_node
                ),
                homomorphic_hashes_per_s=hashes_per_second(quality, cfg),
            )
        )
    return rows
