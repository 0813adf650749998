"""Block writes to the columnar spill.

The population plane hands each round to the spill in node blocks.  A
block write may only extend the current round in node order; the round
counts as written when its last node lands, and the files are then the
same bytes a whole-row append would have written.  A round left
incomplete is an error at the next whole-round append, read or close.
"""

import os

import numpy as np
import pytest

from repro.sim.trace import ColumnarRoundSpill


def _row(n_nodes, rnd):
    return np.arange(n_nodes, dtype=np.int64) * (rnd + 3) - rnd


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_blocks_write_the_bytes_of_whole_rows(tmp_path, block):
    n_nodes = 7
    whole_dir, block_dir = tmp_path / "whole", tmp_path / "blocks"
    whole_dir.mkdir()
    block_dir.mkdir()
    whole = ColumnarRoundSpill(n_nodes, directory=str(whole_dir))
    blocks = ColumnarRoundSpill(n_nodes, directory=str(block_dir))
    for rnd in range(3):
        up, down = _row(n_nodes, rnd), -_row(n_nodes, rnd)
        whole.append_round({"up": up, "down": down})
        for lo in range(0, n_nodes, block):
            # Only the block's own last write completes the round.
            assert blocks.rounds_written == rnd
            blocks.append_round(
                {"up": up[lo : lo + block], "down": down[lo : lo + block]},
                start=lo,
            )
        assert blocks.rounds_written == rnd + 1
    np.testing.assert_array_equal(
        blocks.window_sum("up", 0, 2), whole.window_sum("up", 0, 2)
    )
    whole.close()
    blocks.close()
    for name in ("up.i64", "down.i64"):
        assert (block_dir / name).read_bytes() == (
            (whole_dir / name).read_bytes()
        )


def test_a_block_must_continue_the_round(tmp_path):
    spill = ColumnarRoundSpill(4, directory=str(tmp_path))
    spill.append_round({"up": [1, 2], "down": [3, 4]}, start=0)
    # A gap, an overlap and a restart are all refused, and none of them
    # moves the round on.
    for start in (3, 1):
        with pytest.raises(ValueError, match="does not extend the round"):
            spill.append_round({"up": [9], "down": [9]}, start=start)
    with pytest.raises(ValueError, match="round 0 is incomplete"):
        spill.append_round({"up": [9], "down": [9]}, start=0)
    with pytest.raises(ValueError, match="does not extend the round"):
        spill.append_round({"up": [5, 6, 7], "down": [5, 6, 7]}, start=2)
    with pytest.raises(ValueError, match="shape"):
        spill.append_round({"up": [5, 6], "down": [7]}, start=2)
    spill.append_round({"up": [5, 6], "down": [7, 8]}, start=2)
    assert spill.read_round("up", 0).tolist() == [1, 2, 5, 6]
    assert spill.read_round("down", 0).tolist() == [3, 4, 7, 8]
    spill.close()


def test_an_incomplete_round_fails_append_read_and_close(tmp_path):
    spill = ColumnarRoundSpill(3, directory=str(tmp_path))
    spill.append_round({"up": [1, 2, 3], "down": [4, 5, 6]})
    spill.append_round({"up": [7], "down": [8]}, start=0)
    with pytest.raises(ValueError, match="round 1 is incomplete"):
        spill.append_round({"up": [1, 2, 3], "down": [4, 5, 6]})
    with pytest.raises(ValueError, match="round 1 is incomplete"):
        spill.read_round("up", 0)
    with pytest.raises(ValueError, match="round 1 is incomplete"):
        spill.window_sum("up", 0, 0)
    assert spill.rounds_written == 1
    with pytest.raises(ValueError, match="round 1 is incomplete"):
        spill.close()
    # The files are closed all the same; a second close is a no-op, and
    # neither a new round nor the rest of the old one is accepted.
    spill.close()
    for start in (0, 1):
        with pytest.raises(RuntimeError, match="spill is closed"):
            spill.append_round({"up": [1], "down": [2]}, start=start)


def test_an_incomplete_owned_spill_still_removes_its_directory():
    spill = ColumnarRoundSpill(2)
    spill.append_round({"up": [1], "down": [2]}, start=0)
    with pytest.raises(ValueError, match="round 0 is incomplete"):
        spill.close()
    assert not os.path.exists(spill.directory)
