"""Real-process deployment runtime: wire protocol, transports, daemon.

The simulator executes the paper's message sequence in one process;
this package promotes it to a deployable peer protocol (ROADMAP item
1): a versioned binary wire codec over every PAG message kind
(:mod:`repro.net.wire`), a :class:`Transport` abstraction with TCP,
UNIX-socket and in-memory loopback implementations
(:mod:`repro.net.transport`), and an asyncio :class:`NodeDaemon`
hosting a shard of a session's nodes behind a join handshake
(:mod:`repro.net.daemon`).

The daemon fleet is held to the serial simulator's verdicts by
``tests/net``; the codec itself is held to the identity on every send
of every registry scenario by a tap on the serial run
(``tests/differential``).
"""

from __future__ import annotations

from repro.net.wire import (
    WIRE_VERSION,
    FrameAssembler,
    WireError,
    WireTruncatedError,
    WireUnknownKindError,
    WireValidationError,
    WireVersionError,
    decode_message,
    encodable,
    encode_message,
    frame,
)

__all__ = [
    "WIRE_VERSION",
    "FrameAssembler",
    "WireError",
    "WireTruncatedError",
    "WireUnknownKindError",
    "WireValidationError",
    "WireVersionError",
    "decode_message",
    "encodable",
    "encode_message",
    "frame",
]
