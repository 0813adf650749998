"""Traffic tracing: the global passive observer and test probes.

Section III's adversary "can monitor and record the traffic on network
links".  :class:`TraceRecorder` is that observer: it records message
metadata (never plaintext — the observer cannot invert encryptions) for
privacy analysis, and full references for white-box test assertions.

:class:`ColumnarRoundSpill` is the population tier's on-disk trace
format: dense per-round rows over a fixed node universe, one
little-endian int64 binary file per field, so a million-node run's
per-round byte series stream to disk instead of accumulating in RAM.
It is numpy-backed and imports numpy when constructed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from repro.sim.message import Message

__all__ = ["TraceRecord", "TraceRecorder", "ColumnarRoundSpill"]

#: Nodes per block wherever the population tier streams a round: the
#: plane's row build and write-through, and ``window_sum``'s reads.
NODE_BLOCK = 1 << 16


@dataclass(frozen=True)
class TraceRecord:
    """Metadata of one observed message (what a wiretap sees)."""

    round_no: int
    sender: int
    recipient: int
    kind: str
    size: int


@dataclass
class TraceRecorder:
    """Records all delivered traffic.

    Attributes:
        keep_messages: when True, full message objects are retained for
            white-box assertions in tests; the privacy analyses only use
            the metadata records, as a real wiretap would.
    """

    keep_messages: bool = False
    records: List[TraceRecord] = field(default_factory=list)
    messages: List[Message] = field(default_factory=list)

    def observe(self, message: Message, size: int) -> None:
        self.records.append(
            TraceRecord(
                round_no=message.round_no,
                sender=message.sender,
                recipient=message.recipient,
                kind=message.kind,
                size=size,
            )
        )
        if self.keep_messages:
            self.messages.append(message)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def kinds(self) -> Counter:
        """Histogram of observed message kinds."""
        return Counter(record.kind for record in self.records)

    def between(self, sender: int, recipient: int) -> List[TraceRecord]:
        return [
            r
            for r in self.records
            if r.sender == sender and r.recipient == recipient
        ]

    def in_round(self, round_no: int) -> List[TraceRecord]:
        return [r for r in self.records if r.round_no == round_no]

    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    def link_set(self) -> set[Tuple[int, int]]:
        """All (sender, recipient) pairs that ever communicated."""
        return {(r.sender, r.recipient) for r in self.records}

    def clear(self) -> None:
        self.records.clear()
        self.messages.clear()


class ColumnarRoundSpill:
    """Columnar on-disk per-round store over a fixed node universe.

    Each round appends one dense int64 row per field (``up``/``down``
    bytes by default) to that field's binary file.  Rows are written
    through: :meth:`append_round` hands each validated row's own buffer
    to the file, so a row is on disk (and the caller free to reuse its
    array) when the call returns, and the writer holds no rows in RAM
    however long the run lasts.  A writer may also hand a round over in
    node blocks, in order.  Rows are raw little-endian int64, so a
    row's file offset is simply ``round * n_nodes * 8`` and windowed
    reads stream back one node block of each row at a time.

    Node ids are row indices ``0..n_nodes-1``; callers with a global id
    space put their offset on top (see
    :class:`~repro.sim.metrics.SpilledMeter`).
    """

    #: Read-side budget: ``window_sum`` reads each row in slices of at
    #: most this many bytes (one node block; at least one node).
    _CHUNK_BYTES = NODE_BLOCK * 8

    def __init__(
        self,
        n_nodes: int,
        directory: Optional[str] = None,
        fields: Tuple[str, ...] = ("up", "down"),
    ) -> None:
        # Population tier only: imported here so that every other run
        # leaves numpy unloaded.
        import numpy

        self._np = numpy
        if n_nodes < 1:
            raise ValueError("spill needs a non-empty node universe")
        if not fields:
            raise ValueError("spill needs at least one field")
        self.n_nodes = n_nodes
        self.fields = tuple(fields)
        self._owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-spill-")
        self.directory = directory
        self._paths = {
            name: os.path.join(directory, f"{name}.i64")
            for name in self.fields
        }
        # "wb" truncates stale files: a reused spill dir must not leak
        # a previous run's rows into this one's round numbering.
        self._files = {
            name: open(path, "wb") for name, path in self._paths.items()
        }
        self._rounds_written = 0
        #: Nodes of the current round written so far by block appends.
        self._filled = 0
        self._closed = False

    def _ensure_open(self) -> None:
        """Reject use of a closed spill, or of one mid-round.

        Closing removes an owned directory, so a late ``read_round`` /
        ``window_sum`` would otherwise surface as a raw
        ``FileNotFoundError`` from whatever path it opened first.  A
        round whose blocks stopped short would shift every later row.
        """
        if self._closed:
            raise RuntimeError(
                "spill is closed (its files are gone); read the data "
                "before close()"
            )
        if self._filled:
            raise ValueError(
                f"round {self._rounds_written} is incomplete: nodes "
                f"{self._filled}..{self.n_nodes - 1} were never written"
            )

    def __enter__(self) -> "ColumnarRoundSpill":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def rounds_written(self) -> int:
        """Rounds appended so far (each one on disk)."""
        return self._rounds_written

    def append_round(
        self, rows: Mapping[str, object], start: Optional[int] = None
    ) -> None:
        """Append one round: a dense row per field, all fields at once.

        With ``start``, ``rows`` continue the current round from node
        ``start`` (blocks in node order); a round left incomplete fails
        the next whole-round append, read or close.
        """
        if not start or self._closed:
            # A new round needs the last one whole.
            self._ensure_open()
        if set(rows) != set(self.fields):
            raise ValueError(
                f"round rows must cover exactly {sorted(self.fields)}, "
                f"got {sorted(rows)}"
            )
        _np = self._np
        width = self.n_nodes
        if start is not None:
            width = _np.size(rows[self.fields[0]])
            if not start == self._filled < start + width <= self.n_nodes:
                raise ValueError(
                    f"a {width}-node block at node {start} does not "
                    f"extend the round in order (written up to node "
                    f"{self._filled} of {self.n_nodes})"
                )
        staged = {}
        for name, row in rows.items():
            # "<i8" is the on-disk format: no copy for a contiguous
            # int64 row on a little-endian host, a byte swap elsewhere.
            arr = _np.ascontiguousarray(row, dtype="<i8")
            if arr.shape != (width,):
                raise ValueError(
                    f"field {name!r} row has shape {arr.shape}, "
                    f"expected ({width},)"
                )
            staged[name] = arr
        for name, arr in staged.items():
            # A row wider than the file object's buffer goes to the OS
            # straight from the array's memory.
            self._files[name].write(arr.data)
        self._filled = (start or 0) + width
        if self._filled == self.n_nodes:
            self._filled = 0
            self.flush()
            self._rounds_written += 1

    def flush(self) -> None:
        """Push anything the file objects still hold to the OS.

        A round's last append ends with this, so between rounds there
        is nothing to push and the call costs one empty flush per field.
        """
        if self._closed:
            return
        for fh in self._files.values():
            fh.flush()

    def _check_field(self, field_name: str) -> None:
        if field_name not in self._paths:
            raise ValueError(
                f"unknown spill field {field_name!r}; "
                f"have {sorted(self.fields)}"
            )

    def read_round(self, field_name: str, rnd: int):
        """One round's dense row for a field, as an int64 array."""
        self._ensure_open()
        self._check_field(field_name)
        if not 0 <= rnd < self.rounds_written:
            raise ValueError(
                f"round {rnd} outside the {self.rounds_written} "
                "spilled rounds"
            )
        row_bytes = self.n_nodes * 8
        with open(self._paths[field_name], "rb") as fh:
            fh.seek(rnd * row_bytes)
            data = fh.read(row_bytes)
        _np = self._np
        return _np.frombuffer(data, dtype="<i8").astype(
            _np.int64, copy=False
        )

    def window_sum(
        self,
        field_name: Union[str, Tuple[str, ...]],
        first_round: int,
        last_round: int,
        scale: Optional[float] = None,
    ):
        """Per-node sum over an inclusive round window, streamed.

        ``field_name`` may also be a tuple of fields, summed together.
        The sum is int64; with ``scale`` the result is the float64
        vector ``sum * scale`` instead.  Either way the result is the
        one vector of ``n_nodes`` entries the read allocates: the rows
        are read and summed one node block at a time.
        Rounds beyond what was written contribute zero (matching
        :class:`~repro.sim.metrics.BandwidthMeter`'s padded-series
        semantics).
        """
        self._ensure_open()
        names = (field_name,) if isinstance(field_name, str) else field_name
        for name in names:
            self._check_field(name)
        if first_round < 0:
            raise ValueError(
                f"first_round must be non-negative, got {first_round}"
            )
        if last_round < first_round:
            raise ValueError(
                f"inverted round window: last_round {last_round} "
                f"precedes first_round {first_round}"
            )
        _np = self._np
        n_nodes = self.n_nodes
        total = _np.zeros(n_nodes, "i8" if scale is None else "f8")
        last = min(last_round, self.rounds_written - 1)
        if last < first_round:
            return total
        block = max(1, self._CHUNK_BYTES // 8)
        for lo in range(0, n_nodes, block):
            acc = _np.zeros(min(block, n_nodes - lo), dtype=_np.int64)
            for name in names:
                path = self._paths[name]
                for rnd in range(first_round, last + 1):
                    at = (rnd * n_nodes + lo) * 8
                    acc += _np.fromfile(path, "<i8", len(acc), offset=at)
            total[lo : lo + len(acc)] = acc if scale is None else acc * scale
        return total

    def bytes_on_disk(self) -> int:
        """Total spill file size: every appended row of every field."""
        self._ensure_open()
        return sum(
            os.path.getsize(path) for path in self._paths.values()
        )

    def close(self) -> None:
        """Close the files and, when the spill owns its directory,
        remove it (failing afterwards on an incomplete round)."""
        if self._closed:
            return
        try:
            self._ensure_open()
        finally:
            for fh in self._files.values():
                fh.close()
            self._closed = True
            if self._owns_directory:
                shutil.rmtree(self.directory, ignore_errors=True)
