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
from typing import Iterator, List, Mapping, Optional, Tuple

from repro.sim.message import Message

__all__ = ["TraceRecord", "TraceRecorder", "ColumnarRoundSpill"]


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
    however long the run lasts.  Rows are raw little-endian int64, so a
    row's file offset is simply ``round * n_nodes * 8`` and windowed
    reads stream back through one block of at most ``_CHUNK_BYTES``.

    Node ids are row indices ``0..n_nodes-1``; callers with a global id
    space put their offset on top (see
    :class:`~repro.sim.metrics.SpilledMeter`).
    """

    #: Read-side budget: ``window_sum`` reads as many whole rows as fit
    #: in this many bytes at a time (always at least one row).
    _CHUNK_BYTES = 8 << 20

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
        self._closed = False

    def _ensure_open(self) -> None:
        """Reject reads and writes on a closed spill explicitly.

        Closing removes an owned directory, so a late ``read_round`` /
        ``window_sum`` would otherwise surface as a raw
        ``FileNotFoundError`` from whatever path it opened first.
        """
        if self._closed:
            raise RuntimeError(
                "spill is closed (its files are gone); read the data "
                "before close()"
            )

    def __enter__(self) -> "ColumnarRoundSpill":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def rounds_written(self) -> int:
        """Rounds appended so far (each one on disk)."""
        return self._rounds_written

    def append_round(self, rows: Mapping[str, object]) -> None:
        """Append one round: a dense row per field, all fields at once."""
        self._ensure_open()
        if set(rows) != set(self.fields):
            raise ValueError(
                f"round rows must cover exactly {sorted(self.fields)}, "
                f"got {sorted(rows)}"
            )
        _np = self._np
        staged = {}
        for name, row in rows.items():
            # "<i8" is the on-disk format: no copy for a contiguous
            # int64 row on a little-endian host, a byte swap elsewhere.
            arr = _np.ascontiguousarray(row, dtype="<i8")
            if arr.shape != (self.n_nodes,):
                raise ValueError(
                    f"field {name!r} row has shape {arr.shape}, "
                    f"expected ({self.n_nodes},)"
                )
            staged[name] = arr
        for name, arr in staged.items():
            # A row wider than the file object's buffer goes to the OS
            # straight from the array's memory.
            self._files[name].write(arr.data)
        self.flush()
        self._rounds_written += 1

    def flush(self) -> None:
        """Push anything the file objects still hold to the OS.

        ``append_round`` ends with this, so between appends there is
        nothing to push and the call costs one empty flush per field.
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
        self, field_name: str, first_round: int, last_round: int
    ):
        """Per-node sum over an inclusive round window, streamed.

        Reads whole rows into one reusable block of at most
        ``_CHUNK_BYTES`` (one row when a row alone is wider), so the
        memory a window sum needs is set by that budget, not by the
        node count times a round count.  Rounds beyond what was written
        contribute zero (matching
        :class:`~repro.sim.metrics.BandwidthMeter`'s padded-series
        semantics).
        """
        self._ensure_open()
        self._check_field(field_name)
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
        last = min(last_round, self.rounds_written - 1)
        total = _np.zeros(self.n_nodes, dtype=_np.int64)
        if last < first_round:
            return total
        row_bytes = self.n_nodes * 8
        chunk_rounds = min(
            max(1, self._CHUNK_BYTES // row_bytes), last - first_round + 1
        )
        block = _np.empty((chunk_rounds, self.n_nodes), dtype="<i8")
        with open(self._paths[field_name], "rb") as fh:
            fh.seek(first_round * row_bytes)
            rnd = first_round
            while rnd <= last:
                count = min(chunk_rounds, last - rnd + 1)
                rows = block[:count]
                if fh.readinto(rows) != count * row_bytes:
                    raise OSError(
                        f"short read from {self._paths[field_name]}"
                    )
                # Row by row: no (n_nodes,) temporary, and faster than
                # an axis-0 reduction over a few wide rows.
                for row in rows:
                    total += row
                rnd += count
        return total

    def bytes_on_disk(self) -> int:
        """Total spill file size: every appended row of every field."""
        self._ensure_open()
        return sum(
            os.path.getsize(path) for path in self._paths.values()
        )

    def close(self) -> None:
        """Close the files and, when the spill owns its directory,
        remove it."""
        if self._closed:
            return
        for fh in self._files.values():
            fh.close()
        self._closed = True
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)
