"""Bandwidth and cost metering for simulated nodes.

The paper's headline numbers are *per-node bandwidth consumption in
Kbps* (Figs. 7, 8, 9) and *cryptographic operations per second*
(Table I).  This module collects exactly those quantities: bytes sent
and received per node per round, and operation tallies, with helpers to
convert to the paper's units given the round duration (1 second in all
experiments, section VII-A).

Storage is columnar: each node owns one per-round list per direction,
so a window sum is one slice-add and a steady-state CDF over a large
membership is a single pass over dense lists — no per-(node, round)
dict probes.  Byte totals are identical to the seed's dict-of-pairs
accounting (``tests/sim/test_metrics.py`` proves parity), and per-shard
meters from a sharded drain merge losslessly via :meth:`merge_from`.
Sums are Python integers, so no volume can overflow.

:class:`BandwidthMeter` and :func:`cdf_points` are pure Python; only
:class:`SpilledMeter`, the population tier's read side, works on the
numpy arrays its spill hands back.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "BandwidthMeter",
    "NodeTraffic",
    "SpilledMeter",
    "cdf_points",
    "kbps",
]


def kbps(total_bytes: float, seconds: float) -> float:
    """Convert a byte count over a duration to kilobits per second.

    The paper uses decimal kilobits (1 kbps = 1000 bit/s), the standard
    networking convention.
    """
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return total_bytes * 8.0 / 1000.0 / seconds


@dataclass(slots=True)
class NodeTraffic:
    """Per-node cumulative traffic counters."""

    bytes_up: int = 0
    bytes_down: int = 0
    messages_up: int = 0
    messages_down: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_up + self.bytes_down


def _grow(series: List[int], rnd: int) -> None:
    """Extend a per-round series with zeros so ``series[rnd]`` exists."""
    missing = rnd + 1 - len(series)
    if missing > 0:
        series.extend([0] * missing)


@dataclass(slots=True)
class BandwidthMeter:
    """Accounts every byte that crosses the simulated network.

    Consumption is attributed symmetrically, like the paper's
    measurements: an A->B message of s bytes costs A s bytes of upload
    and B s bytes of download.  Per-round series are kept so that warmup
    rounds can be excluded and CDFs computed over steady state.
    """

    totals: Dict[int, NodeTraffic] = field(
        default_factory=lambda: defaultdict(NodeTraffic)
    )
    #: node -> bytes uploaded per round (index = round number).
    up_series: Dict[int, List[int]] = field(default_factory=dict)
    #: node -> bytes downloaded per round.
    down_series: Dict[int, List[int]] = field(default_factory=dict)
    rounds_seen: int = 0

    def record(self, sender: int, recipient: int, size: int, rnd: int) -> None:
        """Meter one message of ``size`` bytes sent during round ``rnd``."""
        if size < 0:
            raise ValueError("message size cannot be negative")
        up = self.totals[sender]
        up.bytes_up += size
        up.messages_up += 1
        down = self.totals[recipient]
        down.bytes_down += size
        down.messages_down += 1
        series = self.up_series.get(sender)
        if series is None:
            series = self.up_series[sender] = []
        if len(series) <= rnd:
            _grow(series, rnd)
        series[rnd] += size
        series = self.down_series.get(recipient)
        if series is None:
            series = self.down_series[recipient] = []
        if len(series) <= rnd:
            _grow(series, rnd)
        series[rnd] += size
        if rnd + 1 > self.rounds_seen:
            self.rounds_seen = rnd + 1

    def add_round_rows(
        self, rows: Iterable[Tuple[int, int, int, int, int]], rnd: int
    ) -> None:
        """Meter round ``rnd`` from per-node ``(node, bytes_up,
        messages_up, bytes_down, messages_down)`` rows: the totals of a
        meter that saw that round only (a shard's send capture).
        Leaves this meter as one :meth:`record` per underlying send
        would (a direction with messages grows its series and
        ``rounds_seen`` even at zero bytes), at O(nodes touched)."""
        for node, bytes_up, messages_up, bytes_down, messages_down in rows:
            total = self.totals[node]
            total.bytes_up += bytes_up
            total.messages_up += messages_up
            total.bytes_down += bytes_down
            total.messages_down += messages_down
            for table, messages, size in (
                (self.up_series, messages_up, bytes_up),
                (self.down_series, messages_down, bytes_down),
            ):
                if messages:
                    series = table.setdefault(node, [])
                    if len(series) <= rnd:
                        _grow(series, rnd)
                    series[rnd] += size
                    if rnd >= self.rounds_seen:
                        self.rounds_seen = rnd + 1

    def node_series(
        self, node: int, direction: str = "both"
    ) -> List[int]:
        """Per-round byte series for ``node``, padded to ``rounds_seen``."""
        self._check_direction(direction)
        out = [0] * self.rounds_seen
        if direction in ("both", "up"):
            for rnd, size in enumerate(self.up_series.get(node, ())):
                out[rnd] += size
        if direction in ("both", "down"):
            for rnd, size in enumerate(self.down_series.get(node, ())):
                out[rnd] += size
        return out

    @staticmethod
    def _check_direction(direction: str) -> None:
        if direction not in ("both", "down", "up"):
            raise ValueError(f"unknown direction {direction!r}")

    def _resolve_window(
        self, first_round: int, last_round: int | None
    ) -> int:
        """Validate a round window and return its inclusive last round.

        Every window-taking reader shares this check: a negative
        ``first_round`` would silently slice from the *end* of the
        per-round lists (Python's negative indexing), and an inverted
        window would silently sum nothing — both are caller bugs, so
        both raise.  When ``last_round`` is None the window runs to the
        last recorded round (-1 on an empty meter, which the
        rate-computing callers then reject as inverted).
        """
        if first_round < 0:
            raise ValueError(
                f"first_round must be non-negative, got {first_round}"
            )
        last = self.rounds_seen - 1 if last_round is None else last_round
        if last_round is not None and last < first_round:
            raise ValueError(
                f"inverted round window: last_round {last} precedes "
                f"first_round {first_round}"
            )
        return last

    def node_bytes(
        self,
        node: int,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> int:
        """Bytes for ``node`` over a round window.

        Args:
            direction: ``"both"`` (up + down), ``"down"`` or ``"up"``.
                The paper's figures report unidirectional consumption
                (a 300 Kbps stream costs a receiver ~300 Kbps, not 600),
                so figure reproductions use ``"down"``.

        An explicitly inverted window or a negative ``first_round``
        raises; an empty meter with the default window sums to 0.
        """
        self._check_direction(direction)
        last = self._resolve_window(first_round, last_round)
        total = 0
        if direction in ("both", "up"):
            series = self.up_series.get(node)
            if series:
                total += sum(series[first_round : last + 1])
        if direction in ("both", "down"):
            series = self.down_series.get(node)
            if series:
                total += sum(series[first_round : last + 1])
        return total

    def node_kbps(
        self,
        node: int,
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> float:
        """Average bandwidth of ``node`` in Kbps over a round window."""
        last = self._resolve_window(first_round, last_round)
        if last < first_round:
            raise ValueError(
                f"inverted round window: last_round {last} precedes "
                f"first_round {first_round}"
            )
        duration = (last - first_round + 1) * round_seconds
        return kbps(
            self.node_bytes(node, first_round, last, direction), duration
        )

    def all_node_kbps(
        self,
        nodes: Iterable[int],
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> Dict[int, float]:
        """Per-node Kbps over a window, one slice-sum per node.

        The integer window total is formed first and scaled by one
        float factor; :class:`SpilledMeter` follows the same order.
        """
        self._check_direction(direction)
        last = self._resolve_window(first_round, last_round)
        if last < first_round:
            raise ValueError(
                f"inverted round window: last_round {last} precedes "
                f"first_round {first_round}"
            )
        duration = (last - first_round + 1) * round_seconds
        if duration <= 0:
            raise ValueError("duration must be positive")
        scale = 8.0 / 1000.0 / duration
        stop = last + 1
        up = self.up_series
        down = self.down_series
        out: Dict[int, float] = {}
        for node in nodes:
            total = 0
            if direction != "down":
                series = up.get(node)
                if series:
                    total += sum(series[first_round:stop])
            if direction != "up":
                series = down.get(node)
                if series:
                    total += sum(series[first_round:stop])
            out[node] = total * scale
        return out

    def mean_kbps(
        self,
        nodes: Iterable[int],
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> float:
        values = self.all_node_kbps(
            nodes, round_seconds, first_round, last_round, direction
        )
        if not values:
            return 0.0
        return sum(values.values()) / len(values)

    def snapshot(self) -> Dict[str, object]:
        """Canonical plain-data view of the whole meter.

        Key-sorted totals and per-round series, independent of dict
        insertion order — two meters fed the same traffic through any
        combination of direct records and :meth:`merge_from` produce
        equal snapshots.  This is the byte-identity primitive of the
        differential execution-policy suite.
        """
        return {
            "rounds_seen": self.rounds_seen,
            "totals": {
                node: (
                    traffic.bytes_up,
                    traffic.bytes_down,
                    traffic.messages_up,
                    traffic.messages_down,
                )
                for node, traffic in sorted(self.totals.items())
            },
            "up_series": {
                node: list(series)
                for node, series in sorted(self.up_series.items())
            },
            "down_series": {
                node: list(series)
                for node, series in sorted(self.down_series.items())
            },
        }

    def merge_from(self, other: "BandwidthMeter") -> None:
        """Fold another meter's accounting into this one.

        Used by the sharded execution policy: each shard meters its
        deliveries into a private meter, and the shards are merged in
        shard-index order at batch end so the combined accounting is
        deterministic.  Merging is exact — totals add, per-round series
        add element-wise.
        """
        for node, traffic in other.totals.items():
            mine = self.totals[node]
            mine.bytes_up += traffic.bytes_up
            mine.bytes_down += traffic.bytes_down
            mine.messages_up += traffic.messages_up
            mine.messages_down += traffic.messages_down
        for target, source in (
            (self.up_series, other.up_series),
            (self.down_series, other.down_series),
        ):
            for node, series in source.items():
                mine = target.get(node)
                if mine is None:
                    target[node] = list(series)
                    continue
                _grow(mine, len(series) - 1)
                for rnd, size in enumerate(series):
                    mine[rnd] += size
        if other.rounds_seen > self.rounds_seen:
            self.rounds_seen = other.rounds_seen


class SpilledMeter:
    """Windowed bandwidth reads over a columnar on-disk round spill.

    The population tier writes each round's dense per-node byte rows to
    a :class:`~repro.sim.trace.ColumnarRoundSpill` (fields ``up`` and
    ``down``) instead of keeping per-round series in RAM; this class is
    the read side, exposing the :class:`BandwidthMeter` window readers
    (``node_bytes`` / ``node_kbps`` / ``all_node_kbps`` / ``mean_kbps``)
    over that spill.  Reads follow the meter's float contract exactly —
    integer window sums first, then one multiply by
    ``8.0 / 1000.0 / duration`` — so a spilled read of the same traffic
    is bit-identical to an in-memory meter read (the Hypothesis parity
    suite in ``tests/sim/test_spilled_meter.py`` holds it to that).

    Args:
        spill: the round store; rows index plane-local nodes ``0..n-1``.
        node_offset: global id of plane-local node 0 — the population
            tier numbers its vectorised plane after the cohort ids.
    """

    __slots__ = ("spill", "node_offset")

    def __init__(self, spill, node_offset: int = 0) -> None:
        for name in ("up", "down"):
            if name not in spill.fields:
                raise ValueError(
                    f"spill lacks the {name!r} field; have "
                    f"{sorted(spill.fields)}"
                )
        if node_offset < 0:
            raise ValueError("node offset cannot be negative")
        self.spill = spill
        self.node_offset = node_offset

    @property
    def rounds_seen(self) -> int:
        return self.spill.rounds_written

    def node_ids(self) -> List[int]:
        return list(
            range(
                self.node_offset, self.node_offset + self.spill.n_nodes
            )
        )

    def _resolve_window(
        self, first_round: int, last_round: int | None
    ) -> int:
        # Same contract as BandwidthMeter._resolve_window.
        if first_round < 0:
            raise ValueError(
                f"first_round must be non-negative, got {first_round}"
            )
        last = self.rounds_seen - 1 if last_round is None else last_round
        if last_round is not None and last < first_round:
            raise ValueError(
                f"inverted round window: last_round {last} precedes "
                f"first_round {first_round}"
            )
        return last

    def window_sums(
        self,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ):
        """Per-node int64 byte sums over a window (plane-local order)."""
        BandwidthMeter._check_direction(direction)
        last = self._resolve_window(first_round, last_round)
        if last < first_round:
            # Nothing written yet; the spill loaded numpy when built.
            import numpy as _np

            return _np.zeros(self.spill.n_nodes, dtype=_np.int64)
        sums = None
        if direction != "down":
            sums = self.spill.window_sum("up", first_round, last)
        if direction != "up":
            down = self.spill.window_sum("down", first_round, last)
            sums = down if sums is None else sums + down
        return sums

    def window_kbps_vector(
        self,
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "down",
    ):
        """Per-node Kbps over a window, as a float vector.

        The bulk reader behind the population tier's CDF: one streamed
        pass over the spill, no per-node dict.  Scaling matches
        :meth:`BandwidthMeter.all_node_kbps` operation for operation.
        """
        last = self._resolve_window(first_round, last_round)
        if last < first_round:
            raise ValueError(
                f"inverted round window: last_round {last} precedes "
                f"first_round {first_round}"
            )
        duration = (last - first_round + 1) * round_seconds
        if duration <= 0:
            raise ValueError("duration must be positive")
        scale = 8.0 / 1000.0 / duration
        sums = self.window_sums(first_round, last, direction)
        return sums * scale

    def node_bytes(
        self,
        node: int,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> int:
        row = node - self.node_offset
        if not 0 <= row < self.spill.n_nodes:
            return 0
        return int(
            self.window_sums(
                first_round,
                self._resolve_window(first_round, last_round),
                direction,
            )[row]
        )

    def node_kbps(
        self,
        node: int,
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> float:
        last = self._resolve_window(first_round, last_round)
        duration = (last - first_round + 1) * round_seconds
        return kbps(
            self.node_bytes(node, first_round, last, direction), duration
        )

    def all_node_kbps(
        self,
        nodes: Iterable[int],
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> Dict[int, float]:
        values = self.window_kbps_vector(
            round_seconds, first_round, last_round, direction
        ).tolist()
        out: Dict[int, float] = {}
        for node in nodes:
            row = node - self.node_offset
            out[node] = (
                values[row] if 0 <= row < self.spill.n_nodes else 0.0
            )
        return out

    def mean_kbps(
        self,
        nodes: Iterable[int],
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> float:
        values = self.all_node_kbps(
            nodes, round_seconds, first_round, last_round, direction
        )
        if not values:
            return 0.0
        return sum(values.values()) / len(values)


def cdf_points(
    values: Mapping[int, float] | Iterable[float],
) -> List[Tuple[float, float]]:
    """Cumulative distribution points ``(value, percent <= value)``.

    Produces the series plotted in Fig. 7 of the paper (CDF of per-node
    bandwidth consumption, y axis in percent).
    """
    if isinstance(values, Mapping):
        values = values.values()
    data = sorted(values)
    n = len(data)
    return [(v, 100.0 * (i + 1) / n) for i, v in enumerate(data)]
