"""Client side of the service protocol: health, control, streaming.

:class:`ServiceClient` is the asyncio client the dashboard builds on;
the module-level helpers (:func:`request_health`,
:func:`request_control`) wrap one-shot exchanges in ``asyncio.run``
for synchronous callers like ``repro ctl``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import (
    Any,
    AsyncIterator,
    Dict,
    Optional,
    Tuple,
)

from repro.net import wire
from repro.net.daemon import recv_message, send_message
from repro.net.transport import Connection, connect

__all__ = [
    "ServiceClient",
    "ServiceProtocolError",
    "request_control",
    "request_health",
]


class ServiceProtocolError(Exception):
    """The server answered with an unexpected frame (or hung up)."""


class ServiceClient:
    """One connection to a ``repro serve`` endpoint."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint
        self._conn: Optional[Connection] = None

    async def __aenter__(self) -> "ServiceClient":
        await self.open()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def open(self) -> None:
        if self._conn is None:
            self._conn = await connect(self.endpoint)

    async def close(self) -> None:
        if self._conn is not None:
            await self._conn.close()
            self._conn = None

    @property
    def _live(self) -> Connection:
        if self._conn is None:
            raise ServiceProtocolError("client is not connected")
        return self._conn

    async def health(self) -> wire.HealthReport:
        """One health poll; the connection stays usable afterwards."""
        await send_message(self._live, wire.HealthRequest())
        reply = await recv_message(self._live)
        if not isinstance(reply, wire.HealthReport):
            raise ServiceProtocolError(
                f"expected HealthReport, got {type(reply).__name__}"
            )
        return reply

    async def control(
        self, op: str, node_id: Optional[int] = None, arg: str = ""
    ) -> wire.ControlResponse:
        """Submit one operator op and await its boundary application."""
        await send_message(
            self._live,
            wire.ControlRequest(op=op, node_id=node_id, arg=arg),
        )
        reply = await recv_message(self._live)
        if reply is None:
            raise ServiceProtocolError(
                "server hung up before answering the control request"
            )
        if not isinstance(reply, wire.ControlResponse):
            raise ServiceProtocolError(
                f"expected ControlResponse, got {type(reply).__name__}"
            )
        return reply

    async def subscribe(
        self, kinds: Tuple[str, ...] = ()
    ) -> AsyncIterator[Dict[str, Any]]:
        """Yield decoded events until the server ends the stream.

        Each yielded dict is the event payload (``seq``/``kind``/
        ``round`` plus kind-specific fields); when the server had to
        drop events for this (slow) subscriber, the next event carries
        a ``"dropped"`` count.  The connection is single-purpose after
        this call.
        """
        await send_message(
            self._live, wire.SubscribeRequest(kinds=tuple(kinds))
        )
        while True:
            frame = await recv_message(self._live)
            if frame is None:
                return
            if isinstance(frame, wire.ControlResponse):
                raise ServiceProtocolError(
                    f"subscription refused: {frame.detail}"
                )
            if not isinstance(frame, wire.EventFrame):
                raise ServiceProtocolError(
                    f"expected EventFrame, got {type(frame).__name__}"
                )
            event: Dict[str, Any] = json.loads(frame.payload)
            if frame.dropped:
                event["dropped"] = frame.dropped
            yield event


async def _one_shot_health(endpoint: str) -> Dict[str, Any]:
    async with ServiceClient(endpoint) as client:
        return dataclasses.asdict(await client.health())


def request_health(endpoint: str) -> Dict[str, Any]:
    """Synchronous one-shot health poll (the ``repro ctl health`` path)."""
    return asyncio.run(_one_shot_health(endpoint))


async def _one_shot_control(
    endpoint: str, op: str, node_id: Optional[int], arg: str
) -> Tuple[bool, str, str]:
    async with ServiceClient(endpoint) as client:
        reply = await client.control(op, node_id=node_id, arg=arg)
    return reply.ok, reply.detail, reply.state


def request_control(
    endpoint: str, op: str, node_id: Optional[int] = None, arg: str = ""
) -> Tuple[bool, str, str]:
    """Synchronous one-shot control op (the ``repro ctl`` path).

    Returns ``(ok, detail, server_state)``.
    """
    return asyncio.run(_one_shot_control(endpoint, op, node_id, arg))
