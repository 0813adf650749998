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
accounting (``tests/sim/test_metrics.py`` proves parity), and the
per-node rows of a parallel worker's one-round meter fold in losslessly
via :meth:`BandwidthMeter.add_round_rows`.  Sums are Python integers,
so no volume can overflow.

Each meter has one window reader: :meth:`BandwidthMeter.all_node_kbps`
(node id -> Kbps, what a session's ``bandwidth_kbps`` returns) and
:meth:`SpilledMeter.window_kbps_vector` (a Kbps vector over the
population plane).  Exact byte counts are read from
:meth:`BandwidthMeter.snapshot` or the ``totals``.

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


def _grow(series: List[int], rnd: int) -> None:
    """Extend a per-round series with zeros so ``series[rnd]`` exists."""
    missing = rnd + 1 - len(series)
    if missing > 0:
        series.extend([0] * missing)


def _check_direction(direction: str) -> None:
    if direction not in ("both", "down", "up"):
        raise ValueError(f"unknown direction {direction!r}")


def _resolve_window(
    rounds_seen: int,
    first_round: int,
    last_round: int | None,
    rate: bool = False,
) -> int:
    """Validate a round window and return its inclusive last round.

    Every window reader of both meters shares this check: a negative
    ``first_round`` would silently slice from the *end* of the
    per-round lists (Python's negative indexing), and an inverted
    window would silently sum nothing — both are caller bugs, so both
    raise.  When ``last_round`` is None the window runs to the last
    recorded round (-1 on an empty meter): a byte reader sums nothing
    over it, while a ``rate`` reader has no duration to divide by and
    rejects it as inverted too.
    """
    if first_round < 0:
        raise ValueError(
            f"first_round must be non-negative, got {first_round}"
        )
    last = rounds_seen - 1 if last_round is None else last_round
    if last < first_round and (rate or last_round is not None):
        raise ValueError(
            f"inverted round window: last_round {last} precedes "
            f"first_round {first_round}"
        )
    return last


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

    def all_node_kbps(
        self,
        nodes: Iterable[int],
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> Dict[int, float]:
        """Per-node Kbps over a window, one slice-sum per node.

        ``direction`` is ``"both"`` (up + down), ``"up"`` or ``"down"``;
        the paper's figures report ``"down"`` (a 300 Kbps stream costs a
        receiver ~300 Kbps, not 600).  The integer window total is
        formed first and scaled by one float factor;
        :class:`SpilledMeter` follows the same order.
        """
        _check_direction(direction)
        last = _resolve_window(
            self.rounds_seen, first_round, last_round, rate=True
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

    def snapshot(self) -> Dict[str, object]:
        """Canonical plain-data view of the whole meter.

        Key-sorted totals and per-round series, independent of dict
        insertion order — two meters fed the same traffic through any
        combination of direct records and :meth:`add_round_rows`
        produce equal snapshots.  This is the byte-identity primitive of the
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


class SpilledMeter:
    """Windowed bandwidth reads over a columnar on-disk round spill.

    The population tier writes each round's dense per-node byte rows to
    a :class:`~repro.sim.trace.ColumnarRoundSpill` (fields ``up`` and
    ``down``) instead of keeping per-round series in RAM; this class is
    the read side.  Its one reader, :meth:`window_kbps_vector`, returns
    a Kbps vector in plane-local row order (row ``i`` is plane node
    ``i``) and follows :meth:`BandwidthMeter.all_node_kbps`'s float
    contract exactly — integer window sums first, then one multiply by
    ``8.0 / 1000.0 / duration`` — so a spilled read of the same traffic
    is bit-identical to an in-memory meter read (the Hypothesis parity
    suite in ``tests/sim/test_spilled_meter.py`` holds it to that).
    """

    __slots__ = ("spill",)

    def __init__(self, spill) -> None:
        for name in ("up", "down"):
            if name not in spill.fields:
                raise ValueError(
                    f"spill lacks the {name!r} field; have "
                    f"{sorted(spill.fields)}"
                )
        self.spill = spill

    @property
    def rounds_seen(self) -> int:
        return self.spill.rounds_written

    def window_sums(
        self,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ):
        """Per-node int64 byte sums over a window (plane-local order)."""
        _check_direction(direction)
        last = _resolve_window(self.rounds_seen, first_round, last_round)
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
        last = _resolve_window(
            self.rounds_seen, first_round, last_round, rate=True
        )
        duration = (last - first_round + 1) * round_seconds
        if duration <= 0:
            raise ValueError("duration must be positive")
        scale = 8.0 / 1000.0 / duration
        sums = self.window_sums(first_round, last, direction)
        return sums * scale


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
