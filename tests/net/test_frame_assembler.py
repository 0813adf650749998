"""`FrameAssembler` at the chunk shapes a socket really delivers.

A daemon's reader hands the assembler whatever ``read(64 KiB)``
returned: hundreds of whole frames and a cut one when the peer writes a
barrier step at once, a lone byte when it dribbles.  Every shape must
yield the same payloads in the same order, account for the unfinished
tail in ``buffered``, and refuse a forged length before holding any of
its body.
"""

import pytest

from repro.net.wire import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    WireValidationError,
    encode_message,
    frame,
)

from tests.net.fixtures import all_messages

PAYLOADS = [encode_message(m) for m in all_messages()]
STREAM = b"".join(frame(p) for p in PAYLOADS)


def test_one_byte_feeds_yield_every_frame_in_order():
    assembler = FrameAssembler()
    payloads = []
    for offset in range(len(STREAM)):
        payloads.extend(assembler.feed(STREAM[offset:offset + 1]))
    assert payloads == PAYLOADS
    assert assembler.buffered == 0


def test_one_64k_feed_holding_hundreds_of_frames():
    repeats = (1 << 16) // len(STREAM) + 1
    stream = STREAM * repeats
    chunk, rest = stream[:1 << 16], stream[1 << 16:]
    assembler = FrameAssembler()
    payloads = assembler.feed(chunk)
    assert len(payloads) > 300
    whole = sum(4 + len(p) for p in payloads)
    assert assembler.buffered == len(chunk) - whole
    payloads.extend(assembler.feed(rest))
    assert payloads == PAYLOADS * repeats
    assert assembler.buffered == 0


@pytest.mark.parametrize("split", [1, 2, 3])
def test_split_inside_the_length_prefix(split):
    framed = frame(PAYLOADS[0])
    assembler = FrameAssembler()
    assert assembler.feed(framed[:split]) == []
    assert assembler.buffered == split
    assert assembler.feed(framed[split:]) == [PAYLOADS[0]]
    assert assembler.buffered == 0


def test_buffered_counts_a_partial_frame_until_it_completes():
    first, second = frame(PAYLOADS[1]), frame(PAYLOADS[2])
    cut = 4 + len(PAYLOADS[2]) // 2
    assembler = FrameAssembler()
    assert assembler.feed(first + second[:cut]) == [PAYLOADS[1]]
    assert assembler.buffered == cut
    assert assembler.feed(b"") == []
    assert assembler.buffered == cut
    assert assembler.feed(second[cut:]) == [PAYLOADS[2]]
    assert assembler.buffered == 0


def test_oversized_prefix_rejected_before_any_body_byte():
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    # Dribbled: the fourth header byte is the one that raises.
    assembler = FrameAssembler()
    for offset in range(3):
        assert assembler.feed(header[offset:offset + 1]) == []
    with pytest.raises(WireValidationError, match="exceeds"):
        assembler.feed(header[3:])
    assert assembler.buffered == 4
    # Behind good frames in one chunk: consumed frames leave the
    # buffer, the forged header is refused without waiting for a body.
    assembler = FrameAssembler()
    with pytest.raises(WireValidationError, match="exceeds"):
        assembler.feed(STREAM + header)
    assert assembler.buffered == 4
