"""Analytic per-node bandwidth models for PAG, AcTinG and plain gossip.

The packet-level simulator is exact but cannot run a million nodes in
Python; the paper faced the same wall and "computed the scalability of
the protocol when the number of nodes was too high to be simulated"
(section VII-A).  These closed-form models enumerate the same messages
the simulator sends — per node, per round, in the *download* direction —
and are validated against the simulator at small N by the test suite
(``tests/analysis/test_bandwidth_model.py``).

All results are unidirectional Kbps, the unit of Figs. 7-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import PagConfig
from repro.membership.views import default_fanout
from repro.sim.message import WireSizes

__all__ = [
    "PagBandwidthModel",
    "ActingBandwidthModel",
    "figure8_series",
    "figure9_series",
    "plain_gossip_kbps",
    "pag_duplicate_factor",
    "acting_duplicate_factor",
    "DUPLICATE_DELIVERY_FACTOR",
]

#: Simultaneity-only duplicate factor: mean payload copies per chunk
#: when the buffermap horizon covers the whole update lifetime, so the
#: only duplicates are same-round serves from several predecessors
#: (section V-D "Multiple receptions").  Measured from the packet-level
#: simulator.
DUPLICATE_DELIVERY_FACTOR = 1.3

#: Measured duplicate factors at the paper's buffermap depth of 4
#: rounds, by fanout.  With a 10-round lifetime and a 4-round buffermap
#: horizon, chunks re-circulate as payload once they leave the
#: advertised window — the dominant PAG overhead, and the reason the
#: paper reports that "a given node may have to forward several times a
#: given update to its successors".  Values measured by
#: tests/analysis/test_bandwidth_model.py's companion calibration runs.
_PAG_DUP_BY_FANOUT_DEPTH4 = {3: 2.8, 4: 5.2, 5: 5.4, 6: 5.6}


def pag_duplicate_factor(fanout: int, buffermap_depth: int = 4) -> float:
    """Mean payload copies per chunk per node, by configuration."""
    if buffermap_depth >= 6:
        return DUPLICATE_DELIVERY_FACTOR
    if buffermap_depth <= 2:
        # Severe recirculation; measured ~9 at fanout 3.
        return 3.2 * _PAG_DUP_BY_FANOUT_DEPTH4.get(3, 2.8)
    table = _PAG_DUP_BY_FANOUT_DEPTH4
    if fanout in table:
        return table[fanout]
    if fanout < 3:
        return table[3]
    return table[6] + 0.2 * (fanout - 6)


def acting_duplicate_factor(fanout: int) -> float:
    """AcTinG's request negotiation deduplicates across rounds; only
    simultaneous proposals cause duplicate requests."""
    return 1.0 + 0.07 * fanout


def _kbps(bytes_per_round: float, round_seconds: float = 1.0) -> float:
    return bytes_per_round * 8.0 / 1000.0 / round_seconds


@dataclass
class PagBandwidthModel:
    """Download bandwidth of one PAG node, by protocol component.

    Args:
        config: protocol parameters (rate, update size, fanout, ...).
        sizes: wire-size constants (defaults shared with the simulator).
        duplicate_factor: mean payload copies per chunk.
    """

    config: PagConfig
    sizes: WireSizes = field(default_factory=WireSizes)
    duplicate_factor: float | None = None

    def __post_init__(self) -> None:
        if self.duplicate_factor is None:
            self.duplicate_factor = pag_duplicate_factor(
                self.config.fanout, self.config.buffermap_depth
            )

    # -- building blocks -----------------------------------------------

    @property
    def updates_per_round(self) -> float:
        cfg = self.config
        return (
            cfg.stream_rate_kbps
            * 1000.0
            * cfg.round_seconds
            / (cfg.update_bytes * 8.0)
        )

    @property
    def entries_per_serve(self) -> float:
        """Serve entries ≈ what the server received last round."""
        return self.updates_per_round * self.duplicate_factor

    def components(self) -> Dict[str, float]:
        """Per-component download in Kbps (sums to :meth:`total_kbps`)."""
        cfg = self.config
        s = self.sizes
        f = cfg.fanout
        fm = cfg.monitors_per_node
        u = self.updates_per_round
        entries = self.entries_per_serve
        entry_meta = s.update_id + 2 + 1  # id, count, flags

        # Fresh payload: each chunk arrives duplicate_factor times.
        payload = u * self.duplicate_factor * cfg.update_bytes

        # As server: f KeyResponses (prime + buffermap) + f Acks.
        buffermap_hashes = cfg.buffermap_depth * u
        key_responses = f * (
            s.header
            + s.prime
            + buffermap_hashes * s.hash_value
            + s.signature
            + s.encryption_overhead
        )
        acks = f * (s.header + s.hash_value + s.signature + 12)

        # As receiver: f KeyRequests, f Serves (metadata; payload counted
        # above), f Attestations.
        key_requests = f * (s.header + s.signature)
        # Each of ~f predecessors serves its whole forward set (~entries
        # items): new chunks as payload (counted above), the rest as
        # id+count metadata.
        serve_meta = (
            f
            * (
                s.header
                + f * s.prime  # K(R-1, A): product of ~f primes
                + s.signature
                + s.encryption_overhead
            )
            + f * entries * entry_meta
        )
        attestations = f * (s.header + 2 * s.hash_value + s.signature + 12)

        # As monitor: pairs 6/7 from monitored nodes, peer broadcasts,
        # ack relays.  Each node monitors fm nodes on average; each
        # monitored node receives from ~f predecessors per round.
        pair_6 = s.header + s.hash_value + s.signature + 12
        pair_7 = (
            s.header
            + 2 * s.hash_value
            + s.signature
            + 12
            + (f - 1) * s.prime
            + s.signature
            + s.encryption_overhead
        )
        pairs = f * (pair_6 + pair_7)  # f pairs per X, split across fm,
        # times fm monitored nodes -> f per X times fm / fm = f ... per X
        broadcasts = (
            f * (fm - 1) * (s.header + 3 * s.hash_value + 2 * s.signature)
        )
        relays = f * fm * (s.header + s.hash_value + 2 * s.signature + 12)
        monitor_traffic = pairs + broadcasts + relays

        return {
            "payload": _kbps(payload, cfg.round_seconds),
            "buffermaps": _kbps(key_responses, cfg.round_seconds),
            "acks": _kbps(acks, cfg.round_seconds),
            "key_requests": _kbps(key_requests, cfg.round_seconds),
            "serve_metadata": _kbps(serve_meta, cfg.round_seconds),
            "attestations": _kbps(attestations, cfg.round_seconds),
            "monitoring": _kbps(monitor_traffic, cfg.round_seconds),
        }

    def total_kbps(self) -> float:
        return sum(self.components().values())

    @classmethod
    def for_system(
        cls, n_nodes: int, rate_kbps: float, update_bytes: int = 938
    ) -> "PagBandwidthModel":
        """Model with the paper's size-dependent fanout (Fig. 9)."""
        config = PagConfig.for_system_size(
            n_nodes,
            stream_rate_kbps=rate_kbps,
            update_bytes=update_bytes,
        )
        return cls(config=config)


@dataclass
class ActingBandwidthModel:
    """Download bandwidth of one AcTinG node.

    AcTinG's propose/request/serve negotiation delivers each chunk once;
    the accountability overhead is cleartext identifiers, per-message
    signatures, and audited log segments.
    """

    rate_kbps: float
    update_bytes: int = 938
    fanout: int = 3
    monitors_per_node: int = 3
    audit_probability: float = 0.3
    sizes: WireSizes = field(default_factory=WireSizes)
    round_seconds: float = 1.0

    @property
    def updates_per_round(self) -> float:
        return (
            self.rate_kbps
            * 1000.0
            * self.round_seconds
            / (self.update_bytes * 8.0)
        )

    def components(self) -> Dict[str, float]:
        s = self.sizes
        f = self.fanout
        u = self.updates_per_round
        payload = (
            u
            * acting_duplicate_factor(f)
            * (self.update_bytes + s.update_id)
        )
        proposals = f * (s.header + u * s.update_id + s.signature)
        # Requests this node sends are upload; downloads are the serves
        # (counted in payload) plus requests *received* as a server.
        requests = f * (s.header + (u / f) * s.update_id + s.signature)
        # Audits: each of my monitors samples my log with probability p
        # per round; as an auditor I download segments of my monitored
        # nodes.  Log entries accumulate at (f sends + f receives)/round.
        entries_per_round = 2.0 * f
        audit_down = (
            self.audit_probability
            * self.monitors_per_node
            * (entries_per_round * 48 + s.header + s.signature)
        )
        return {
            "payload": _kbps(payload, self.round_seconds),
            "proposals": _kbps(proposals, self.round_seconds),
            "requests": _kbps(requests, self.round_seconds),
            "audits": _kbps(audit_down, self.round_seconds),
        }

    def total_kbps(self) -> float:
        return sum(self.components().values())

    @classmethod
    def for_system(
        cls, n_nodes: int, rate_kbps: float
    ) -> "ActingBandwidthModel":
        f = default_fanout(n_nodes)
        return cls(rate_kbps=rate_kbps, fanout=f, monitors_per_node=f)


def plain_gossip_kbps(
    rate_kbps: float,
    update_bytes: int = 938,
    duplicate_factor: float = DUPLICATE_DELIVERY_FACTOR,
) -> float:
    """Download of a plain push-gossip node: payload times duplicates."""
    sizes = WireSizes()
    per_chunk = update_bytes + sizes.update_id
    chunks = rate_kbps * 1000.0 / (update_bytes * 8.0)
    return _kbps(chunks * duplicate_factor * per_chunk)


def figure8_series() -> List[Tuple[int, float]]:
    """Fig. 8: ``(update size in kbit, PAG Kbps)`` at 1000 nodes and a
    300 Kbps stream."""
    return [
        (
            kb,
            PagBandwidthModel.for_system(
                1000, 300.0, update_bytes=int(kb * 125)
            ).total_kbps(),
        )
        for kb in (1, 2, 5, 10, 20, 50, 100)
    ]


def figure9_series() -> List[Tuple[int, float, float]]:
    """Fig. 9: ``(nodes, PAG Kbps, AcTinG Kbps)`` for a 300 Kbps stream
    from 10^3 to 10^6 nodes."""
    return [
        (
            n,
            PagBandwidthModel.for_system(n, 300.0).total_kbps(),
            ActingBandwidthModel.for_system(n, 300.0).total_kbps(),
        )
        for n in (10**3, 10**4, 10**5, 10**6)
    ]
