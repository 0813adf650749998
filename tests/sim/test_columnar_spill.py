"""Unit coverage for the columnar on-disk round spill.

The population tier appends one dense int64 row per field per round and
reads windows back in bounded chunks; these tests pin the on-disk
layout (raw little-endian int64 rows), the write-through contract (a
row is on disk, and the caller's array its own again, when
``append_round`` returns), zero-padding past the written rounds,
directory ownership, and every argument-validation path.
"""

import os

import numpy as np
import pytest

from repro.sim.trace import ColumnarRoundSpill


def _rows(n_nodes, rnd, fields=("up", "down")):
    """Deterministic distinct rows per (round, field)."""
    return {
        name: np.arange(n_nodes, dtype=np.int64) * (rnd + 1)
        + (100 * idx)
        for idx, name in enumerate(fields)
    }


def test_round_trip_and_window_sum(tmp_path):
    spill = ColumnarRoundSpill(5, directory=str(tmp_path))
    for rnd in range(7):
        spill.append_round(_rows(5, rnd))
    assert spill.rounds_written == 7
    for rnd in range(7):
        expected = _rows(5, rnd)
        for field in ("up", "down"):
            np.testing.assert_array_equal(
                spill.read_round(field, rnd), expected[field]
            )
    # Window sum equals the sum of the read-back rows.
    manual = sum(_rows(5, rnd)["down"] for rnd in range(2, 6))
    np.testing.assert_array_equal(
        spill.window_sum("down", 2, 5), manual
    )
    spill.close()


def test_buffered_rows_are_readable_before_flush(tmp_path):
    # Write-through contract: a row is readable, and counted by
    # bytes_on_disk(), as soon as append_round returns -- no flush()
    # and no read in between.  (At the parent, bytes_on_disk() counted
    # flushed rows only and read 0 here.)
    spill = ColumnarRoundSpill(3, directory=str(tmp_path))
    for rnd in range(5):
        spill.append_round(_rows(3, rnd))
        assert spill.rounds_written == rnd + 1
        assert spill.bytes_on_disk() == (
            spill.rounds_written * 3 * 8 * len(spill.fields)
        )
    np.testing.assert_array_equal(
        spill.read_round("up", 1), _rows(3, 1)["up"]
    )
    spill.close()


def test_auto_flush_at_buffer_rounds(tmp_path):
    # There is no round buffer: every append lands in the field files
    # before it returns, whatever the round count.
    spill = ColumnarRoundSpill(4, directory=str(tmp_path))
    for rnd in range(3):
        spill.append_round(_rows(4, rnd))
        for name in spill.fields:
            assert os.path.getsize(tmp_path / f"{name}.i64") == (
                (rnd + 1) * 4 * 8
            )
    # flush() stays callable and changes nothing.
    spill.flush()
    assert os.path.getsize(tmp_path / "up.i64") == 3 * 4 * 8
    spill.close()


def test_caller_may_reuse_its_array_after_append(tmp_path):
    # At the parent the spill buffered the caller's array by reference,
    # so overwriting it after append_round corrupted the pending round.
    spill = ColumnarRoundSpill(3, directory=str(tmp_path))
    up = np.array([1, 2, 3], dtype=np.int64)
    down = np.array([4, 5, 6], dtype=np.int64)
    spill.append_round({"up": up, "down": down})
    up[:] = 99
    down[:] = 99
    spill.append_round({"up": up, "down": down})
    np.testing.assert_array_equal(spill.read_round("up", 0), [1, 2, 3])
    np.testing.assert_array_equal(spill.read_round("down", 0), [4, 5, 6])
    np.testing.assert_array_equal(spill.read_round("up", 1), [99] * 3)
    np.testing.assert_array_equal(
        spill.window_sum("down", 0, 1), [103, 104, 105]
    )
    spill.close()


def test_files_match_the_concatenated_rows_byte_for_byte(tmp_path):
    # The format the parent wrote: the rounds' rows concatenated, as
    # little-endian int64, nothing else in the file.  Rows arrive as
    # int64 arrays, other integer dtypes, strided views and lists.
    n = 6
    rows = [
        np.arange(n, dtype=np.int64) * 7 - 3,
        np.arange(n, dtype=np.int32) + (1 << 20),
        np.arange(2 * n, dtype=np.int64)[::2] << 40,
        [5, 4, 3, 2, 1, -(1 << 62)],
    ]
    spill = ColumnarRoundSpill(n, directory=str(tmp_path))
    for row in rows:
        spill.append_round({"up": row, "down": row[::-1]})
    for name, step in (("up", 1), ("down", -1)):
        expected = (
            np.concatenate([np.asarray(row)[::step] for row in rows])
            .astype("<i8")
            .tobytes()
        )
        assert (tmp_path / f"{name}.i64").read_bytes() == expected
    spill.close()


def test_window_sum_zero_pads_past_written_rounds(tmp_path):
    spill = ColumnarRoundSpill(3, directory=str(tmp_path))
    spill.append_round({"up": [1, 2, 3], "down": [4, 5, 6]})
    spill.append_round({"up": [10, 20, 30], "down": [40, 50, 60]})
    # Window extends far past the data: missing rounds contribute zero,
    # matching BandwidthMeter's padded-series semantics.
    np.testing.assert_array_equal(
        spill.window_sum("up", 0, 99), np.array([11, 22, 33])
    )
    # Window entirely past the data sums to zero.
    np.testing.assert_array_equal(
        spill.window_sum("up", 50, 99), np.zeros(3, dtype=np.int64)
    )
    spill.close()


def test_window_sum_streams_chunked(tmp_path, monkeypatch):
    # A read budget of three rows against 2*3+2 rounds forces the
    # chunked path, ragged last chunk included.
    monkeypatch.setattr(ColumnarRoundSpill, "_CHUNK_BYTES", 3 * 2 * 8)
    n_rounds = 3 * 2 + 2
    spill = ColumnarRoundSpill(2, directory=str(tmp_path))
    for rnd in range(n_rounds):
        spill.append_round(
            {"up": [rnd, 2 * rnd], "down": [0, 0]}
        )
    total = spill.window_sum("up", 0, n_rounds - 1)
    s = n_rounds * (n_rounds - 1) // 2
    np.testing.assert_array_equal(total, np.array([s, 2 * s]))
    # A window that starts mid-file and is not a chunk multiple.
    np.testing.assert_array_equal(
        spill.window_sum("up", 2, 6), np.array([20, 40])
    )
    spill.close()


def test_window_sum_reads_at_least_one_row_per_chunk(tmp_path, monkeypatch):
    # A row wider than the whole budget is still read, one at a time.
    monkeypatch.setattr(ColumnarRoundSpill, "_CHUNK_BYTES", 8)
    spill = ColumnarRoundSpill(4, directory=str(tmp_path))
    for rnd in range(3):
        spill.append_round(_rows(4, rnd))
    manual = sum(_rows(4, rnd)["down"] for rnd in range(3))
    np.testing.assert_array_equal(spill.window_sum("down", 0, 9), manual)
    spill.close()


def test_reused_directory_truncates_stale_files(tmp_path):
    first = ColumnarRoundSpill(2, directory=str(tmp_path))
    first.append_round({"up": [1, 1], "down": [2, 2]})
    first.flush()
    # A user-supplied directory is kept on close, files included.
    first.close()
    assert os.path.getsize(tmp_path / "up.i64") == 2 * 8
    # A new spill over the same directory must not inherit those rows.
    second = ColumnarRoundSpill(2, directory=str(tmp_path))
    assert second.rounds_written == 0
    assert os.path.getsize(tmp_path / "up.i64") == 0
    second.close()


def test_owned_tempdir_is_removed_on_close():
    spill = ColumnarRoundSpill(2)
    directory = spill.directory
    spill.append_round({"up": [1, 2], "down": [3, 4]})
    assert os.path.isdir(directory)
    spill.close()
    assert not os.path.exists(directory)
    # close() is idempotent.
    spill.close()


def test_append_after_close_raises(tmp_path):
    spill = ColumnarRoundSpill(2, directory=str(tmp_path))
    spill.close()
    with pytest.raises(RuntimeError, match="closed"):
        spill.append_round({"up": [1, 2], "down": [3, 4]})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_nodes=0), "non-empty node universe"),
        (dict(n_nodes=3, fields=()), "at least one field"),
    ],
)
def test_constructor_validation(tmp_path, kwargs, message):
    kwargs.setdefault("directory", str(tmp_path))
    with pytest.raises(ValueError, match=message):
        ColumnarRoundSpill(**kwargs)


def test_append_validates_fields_and_shape(tmp_path):
    spill = ColumnarRoundSpill(3, directory=str(tmp_path))
    with pytest.raises(ValueError, match="exactly"):
        spill.append_round({"up": [1, 2, 3]})  # missing "down"
    with pytest.raises(ValueError, match="exactly"):
        spill.append_round(
            {"up": [1, 2, 3], "down": [1, 2, 3], "mon": [1, 2, 3]}
        )
    with pytest.raises(ValueError, match="shape"):
        spill.append_round({"up": [1, 2], "down": [1, 2, 3]})
    # A failed append stages nothing.
    assert spill.rounds_written == 0
    spill.close()


def test_read_validation(tmp_path):
    spill = ColumnarRoundSpill(2, directory=str(tmp_path))
    spill.append_round({"up": [1, 2], "down": [3, 4]})
    with pytest.raises(ValueError, match="unknown spill field"):
        spill.read_round("sideways", 0)
    with pytest.raises(ValueError, match="outside"):
        spill.read_round("up", 1)
    with pytest.raises(ValueError, match="outside"):
        spill.read_round("up", -1)
    with pytest.raises(ValueError, match="non-negative"):
        spill.window_sum("up", -1, 3)
    with pytest.raises(ValueError, match="inverted"):
        spill.window_sum("up", 3, 2)
    spill.close()


def test_on_disk_layout_is_little_endian_int64(tmp_path):
    spill = ColumnarRoundSpill(2, directory=str(tmp_path))
    spill.append_round({"up": [1, 258], "down": [0, 0]})
    spill.flush()
    raw = (tmp_path / "up.i64").read_bytes()
    assert raw == np.array([1, 258], dtype="<i8").tobytes()
    spill.close()


def test_reads_on_closed_spill_raise_explicitly(tmp_path):
    """A closed spill's files are gone; every read path must say so
    instead of surfacing a FileNotFoundError from whichever file it
    opened first."""
    spill = ColumnarRoundSpill(2, directory=str(tmp_path))
    spill.append_round({"up": [1, 2], "down": [3, 4]})
    spill.close()
    with pytest.raises(RuntimeError, match="spill is closed"):
        spill.read_round("up", 0)
    with pytest.raises(RuntimeError, match="spill is closed"):
        spill.window_sum("up", 0, 0)
    with pytest.raises(RuntimeError, match="spill is closed"):
        spill.bytes_on_disk()


def test_context_manager_closes_and_removes_owned_dir():
    with ColumnarRoundSpill(2) as spill:
        directory = spill.directory
        spill.append_round({"up": [1, 2], "down": [3, 4]})
        assert spill.window_sum("up", 0, 0).tolist() == [1, 2]
    assert not os.path.exists(directory)
    with pytest.raises(RuntimeError, match="spill is closed"):
        spill.read_round("up", 0)


def test_context_manager_closes_on_error_too():
    directory = None
    with pytest.raises(ValueError, match="shape"):
        with ColumnarRoundSpill(2) as spill:
            directory = spill.directory
            spill.append_round({"up": [1], "down": [2]})
    assert not os.path.exists(directory)
