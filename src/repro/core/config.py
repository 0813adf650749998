"""Configuration of a PAG deployment.

Defaults follow section VII-A of the paper: one-second rounds, 938-byte
updates released 10 seconds before playout, RSA-2048 signatures, 512-bit
primes and hash modulus, fanout and monitor-set size 3 (the value used
with 1000 nodes), buffermaps covering the last 4 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.membership.views import default_fanout

__all__ = ["PagConfig"]


@dataclass(frozen=True)
class PagConfig:
    """All tunables of a PAG session.

    Attributes:
        fanout: successors per node per round (f).
        monitors_per_node: monitor-set size per node (fm); the paper uses
            the same value as the fanout unless stated otherwise.
        stream_rate_kbps: source bit rate (300 Kbps in the base runs).
        rate_schedule: optional per-round rate ramp, as sorted
            ``(from_round, rate_kbps)`` steps handed to the source's
            :class:`~repro.gossip.source.StreamSchedule`;
            ``stream_rate_kbps`` applies before the first step.  Empty
            means a constant-bit-rate stream (every paper workload).
        update_bytes: chunk payload size (938 B).
        playout_delay_rounds: release-to-deadline delay (10 rounds).
        buffermap_depth: rounds of owned updates advertised in each
            KeyResponse (the paper's tuned value is 4).
        round_seconds: wall-clock duration of one round.
        sim_modulus_bits: modulus actually used for the in-simulation
            algebra.  The homomorphic identities are exact at any size,
            so simulations may compute with a smaller modulus while wire
            costs are still priced at the paper's sizes (512-bit hashes
            and primes, RSA-2048 signatures) by
            :class:`~repro.sim.message.WireSizes`.
        sim_prime_bits: prime size used for the in-simulation algebra.
        seed: root seed for all randomness in the session.
        detection_enabled: run the monitoring state machine (can be
            disabled for pure bandwidth measurements of the data path).
        monitor_cross_checks: enable the section V-B option "to check
            that monitors correctly compute and forward the hashes of
            updates": the monitored node also computes each lifted hash
            itself and sends it, signed, to all its monitors; a
            designated monitor whose broadcast disagrees is convicted
            once the successors' acknowledgements arbitrate.  Off by
            default (it adds small per-predecessor messages; the paper's
            bandwidth figures do not include it).
    """

    fanout: int = 3
    monitors_per_node: int = 3
    stream_rate_kbps: float = 300.0
    rate_schedule: Tuple[Tuple[int, float], ...] = ()
    update_bytes: int = 938
    playout_delay_rounds: int = 10
    buffermap_depth: int = 4
    round_seconds: float = 1.0
    sim_modulus_bits: int = 128
    sim_prime_bits: int = 32
    seed: int = 20160627
    detection_enabled: bool = True
    monitor_cross_checks: bool = False

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout must be at least 1")
        if self.monitors_per_node < 1:
            raise ValueError("monitor set must be non-empty")
        if self.buffermap_depth < 1:
            raise ValueError("buffermap depth must be at least 1 round")
        if self.playout_delay_rounds < 2:
            raise ValueError(
                "playout delay below 2 rounds leaves no forwarding window"
            )
        if self.sim_prime_bits < 8:
            raise ValueError("simulation primes below 8 bits collide")
        from repro.gossip.source import validate_rate_steps

        object.__setattr__(
            self, "rate_schedule", validate_rate_steps(self.rate_schedule)
        )

    @classmethod
    def for_system_size(cls, n: int, **overrides: Any) -> "PagConfig":
        """Config with the paper's size-dependent fanout (~log10 N)."""
        fanout = overrides.pop("fanout", default_fanout(n))
        monitors = overrides.pop("monitors_per_node", fanout)
        return cls(fanout=fanout, monitors_per_node=monitors, **overrides)
