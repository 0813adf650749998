"""Service endpoint: health, event streaming and operator control.

One :class:`ServiceServer` fronts one :class:`SessionSupervisor` over
any :mod:`repro.net.transport` scheme (``tcp://``, ``unix://``,
``mem://``).  All frames are the versioned control messages from
:mod:`repro.net.wire` (kinds 76-81):

* ``HealthRequest`` -> ``HealthReport`` — liveness poll; the
  connection stays open so an observer can poll repeatedly.
* ``SubscribeRequest`` -> stream of ``EventFrame`` — NDJSON event
  payloads with per-batch drop counts; the server closes the
  connection once the run has stopped and the queue is drained, which
  is the end-of-stream signal.
* ``ControlRequest`` -> ``ControlResponse`` — operator ops, applied
  by the supervisor at the next round boundary.

The supervisor's round loop runs on a worker thread (via
``run_in_executor``); the server bridges its thread-side event bus to
the asyncio loop with ``call_soon_threadsafe`` wakers.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional, Set

from repro.net import wire
from repro.net.daemon import recv_message, send_message
from repro.net.transport import Connection, Listener, listen
from repro.service.supervisor import ControlOp, SessionSupervisor

if TYPE_CHECKING:
    pass

__all__ = ["ServiceServer"]

#: How long a subscriber stream sleeps between queue checks when no
#: waker fired (also bounds end-of-run detection latency).
_STREAM_POLL_SECONDS = 0.25


class ServiceServer:
    """Serves one supervised session over a transport endpoint."""

    def __init__(
        self, supervisor: SessionSupervisor, endpoint: str
    ) -> None:
        self.supervisor = supervisor
        self.requested_endpoint = endpoint
        self.endpoint: Optional[str] = None
        self._listener: Optional[Listener] = None
        self._run_future: Optional[asyncio.Future] = None
        self._connections: Set[Connection] = set()
        self.run_error: Optional[str] = None

    async def start(self) -> str:
        """Bind the listener and launch the supervised run.

        Returns the resolved endpoint (ephemeral TCP ports filled in).
        """
        self._listener = await listen(
            self.requested_endpoint, self._on_connection
        )
        self.endpoint = self._listener.endpoint
        loop = asyncio.get_running_loop()
        self._run_future = loop.run_in_executor(None, self._run_supervised)
        return self.endpoint

    def _run_supervised(self) -> None:
        try:
            self.supervisor.run()
        except Exception as exc:  # noqa: B902 - surfaced via exit code
            self.run_error = f"{type(exc).__name__}: {exc}"

    async def wait(self) -> int:
        """Block until the run finishes; returns a process exit code."""
        assert self._run_future is not None, "server not started"
        await self._run_future
        # Give subscriber streams a moment to flush the tail of the
        # event queue before the listener goes away.
        await asyncio.sleep(_STREAM_POLL_SECONDS)
        await self.close()
        return 0 if self.supervisor.state == "stopped" else 1

    async def close(self) -> None:
        if self._listener is not None:
            await self._listener.close()
            self._listener = None
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, conn: Connection) -> None:
        self._connections.add(conn)
        try:
            while True:
                message = await recv_message(conn)
                if message is None:
                    return
                if isinstance(message, wire.HealthRequest):
                    await send_message(conn, self.supervisor.health())
                elif isinstance(message, wire.ControlRequest):
                    await self._handle_control(conn, message)
                elif isinstance(message, wire.SubscribeRequest):
                    await self._stream_events(conn, message)
                    return
                else:
                    await send_message(
                        conn,
                        wire.ControlResponse(
                            ok=False,
                            detail=(
                                "unexpected frame "
                                f"{type(message).__name__}"
                            ),
                            state=self.supervisor.state,
                        ),
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(conn)
            await conn.close()

    async def _handle_control(
        self, conn: Connection, message: wire.ControlRequest
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            op = ControlOp(
                op=message.op, node_id=message.node_id, arg=message.arg
            )
        except ValueError as exc:
            await send_message(
                conn,
                wire.ControlResponse(
                    ok=False, detail=str(exc), state=self.supervisor.state
                ),
            )
            return
        ok, detail = await loop.run_in_executor(
            None, self.supervisor.control, op
        )
        await send_message(
            conn,
            wire.ControlResponse(
                ok=ok, detail=detail, state=self.supervisor.state
            ),
        )

    async def _stream_events(
        self, conn: Connection, request: wire.SubscribeRequest
    ) -> None:
        """Stream ``EventFrame``s until the run stops or the peer hangs
        up; closing the connection is the end-of-stream signal."""
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()

        def waker() -> None:
            loop.call_soon_threadsafe(wakeup.set)

        try:
            sub = self.supervisor.bus.subscribe(
                kinds=tuple(request.kinds), waker=waker
            )
        except ValueError as exc:
            await send_message(
                conn,
                wire.ControlResponse(
                    ok=False, detail=str(exc), state=self.supervisor.state
                ),
            )
            return
        try:
            while True:
                events, dropped = sub.drain()
                for event in events:
                    frame = wire.EventFrame(
                        seq=event.seq,
                        payload=event.to_json(),
                        dropped=dropped,
                    )
                    dropped = 0
                    await send_message(conn, frame)
                if not events and self.supervisor.finished:
                    return
                wakeup.clear()
                try:
                    await asyncio.wait_for(
                        wakeup.wait(), timeout=_STREAM_POLL_SECONDS
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            sub.close()
