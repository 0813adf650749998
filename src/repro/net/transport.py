"""Byte-stream transports for the node daemon.

Three schemes share one asyncio-friendly interface:

* ``tcp://host:port`` — localhost or LAN deployments (``port`` 0 binds
  an ephemeral port; the listener reports the resolved endpoint).
* ``unix:///path/to.sock`` — same-host daemons without the IP stack.
* ``mem://name`` — in-process loopback backed by queues, for tests and
  the single-process coordinator; no sockets, no event-loop I/O.

A :class:`Connection` moves whole *payloads* (the un-prefixed
``[version][kind][body]`` unit of :mod:`repro.net.wire`): socket-backed
connections add/strip the 4-byte length prefix internally via
:class:`~repro.net.wire.FrameAssembler`; the in-memory transport passes
payload bytes through a queue untouched.  ``recv()`` returns ``None``
on clean EOF and raises :class:`TransportError` on a mid-frame cut.

A socket read hands the assembler up to 64 KiB, i.e. a few hundred
frames when the peer is mid-step; they wait in a deque and ``recv()``
pops them one by one without touching the socket again.  ``send()``
is one write per frame: coalescing a barrier step's frames into one
write was measured on ``fleet_unix_2`` and bought under 3% of
``run_s``, inside the noise of ten pairs, so it is not done (see
PERFORMANCE.md, "The wire path").
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Awaitable, Callable, Deque, Dict, Optional, Tuple

from repro.net.wire import MAX_FRAME_BYTES, FrameAssembler, frame

__all__ = [
    "TransportError",
    "Connection",
    "Listener",
    "connect",
    "listen",
    "reset_memory_transport",
]


class TransportError(Exception):
    """Connection-layer failure: refused dial, mid-frame EOF, bad URL."""


def _split_endpoint(endpoint: str) -> Tuple[str, str]:
    scheme, sep, rest = endpoint.partition("://")
    if not sep or scheme not in ("tcp", "unix", "mem"):
        raise TransportError(
            f"endpoint {endpoint!r} is not tcp://, unix:// or mem://"
        )
    return scheme, rest


class Connection:
    """One ordered, framed, bidirectional peer link."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint
        self.closed = False

    async def send(self, payload: bytes) -> None:
        raise NotImplementedError

    async def recv(self) -> Optional[bytes]:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError


class _StreamConnection(Connection):
    """TCP / UNIX-socket connection over asyncio streams."""

    def __init__(
        self,
        endpoint: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        super().__init__(endpoint)
        self._reader = reader
        self._writer = writer
        self._assembler = FrameAssembler()
        self._ready: Deque[bytes] = deque()

    async def send(self, payload: bytes) -> None:
        if self.closed:
            raise TransportError(f"connection {self.endpoint} is closed")
        self._writer.write(frame(payload))
        await self._writer.drain()

    async def recv(self) -> Optional[bytes]:
        while not self._ready:
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                if self._assembler.buffered:
                    raise TransportError(
                        f"peer {self.endpoint} closed mid-frame with "
                        f"{self._assembler.buffered} bytes pending"
                    )
                return None
            self._ready.extend(self._assembler.feed(chunk))
        return self._ready.popleft()

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _MemoryConnection(Connection):
    """Queue-backed loopback half; two halves form a duplex pipe."""

    def __init__(self, endpoint: str) -> None:
        super().__init__(endpoint)
        self._inbox: asyncio.Queue = asyncio.Queue()
        self.peer: Optional["_MemoryConnection"] = None

    async def send(self, payload: bytes) -> None:
        if self.closed or self.peer is None or self.peer.closed:
            raise TransportError(f"connection {self.endpoint} is closed")
        if len(payload) > MAX_FRAME_BYTES:
            raise TransportError("payload exceeds the frame bound")
        await self.peer._inbox.put(bytes(payload))

    async def recv(self) -> Optional[bytes]:
        if self.closed:
            return None
        item = await self._inbox.get()
        return item  # None is the peer's EOF marker

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.peer is not None and not self.peer.closed:
            await self.peer._inbox.put(None)


class Listener:
    """An accepting endpoint; ``endpoint`` is the resolved address
    (ephemeral TCP ports are filled in after bind)."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    async def close(self) -> None:
        raise NotImplementedError


class _StreamListener(Listener):
    def __init__(self, endpoint: str, server: asyncio.AbstractServer) -> None:
        super().__init__(endpoint)
        self._server = server

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


class _MemoryListener(Listener):
    def __init__(
        self,
        endpoint: str,
        name: str,
        on_connection: Callable[[Connection], Awaitable[None]],
    ) -> None:
        super().__init__(endpoint)
        self._name = name
        self.on_connection = on_connection

    async def close(self) -> None:
        _MEMORY_LISTENERS.pop(self._name, None)


#: mem:// accept table — name -> listener, process-local by design.
_MEMORY_LISTENERS: Dict[str, _MemoryListener] = {}


def reset_memory_transport() -> None:
    """Drop all mem:// listeners (test isolation)."""
    _MEMORY_LISTENERS.clear()


async def listen(
    endpoint: str,
    on_connection: Callable[[Connection], Awaitable[None]],
) -> Listener:
    """Accept connections on ``endpoint``; each accepted
    :class:`Connection` is handed to ``on_connection`` as a task."""
    scheme, rest = _split_endpoint(endpoint)
    if scheme == "mem":
        if rest in _MEMORY_LISTENERS:
            raise TransportError(f"mem://{rest} is already listening")
        listener = _MemoryListener(endpoint, rest, on_connection)
        _MEMORY_LISTENERS[rest] = listener
        return listener

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _StreamConnection(endpoint, reader, writer)
        await on_connection(conn)

    if scheme == "tcp":
        host, _, port_text = rest.rpartition(":")
        if not host:
            raise TransportError(f"tcp endpoint {endpoint!r} needs host:port")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise TransportError(
                f"bad tcp port in {endpoint!r}"
            ) from exc
        start = asyncio.start_server(handle, host, port)
    else:
        start = asyncio.start_unix_server(handle, path=rest)
    try:
        server = await start
    except OSError as exc:
        raise TransportError(f"cannot listen on {endpoint}: {exc}") from exc
    if scheme == "tcp":
        endpoint = f"tcp://{host}:{server.sockets[0].getsockname()[1]}"
    return _StreamListener(endpoint, server)


async def connect(endpoint: str) -> Connection:
    """Dial ``endpoint`` and return the connected :class:`Connection`."""
    scheme, rest = _split_endpoint(endpoint)
    if scheme == "mem":
        listener = _MEMORY_LISTENERS.get(rest)
        if listener is None:
            raise TransportError(f"nothing listening on mem://{rest}")
        client = _MemoryConnection(endpoint)
        server_side = _MemoryConnection(endpoint)
        client.peer = server_side
        server_side.peer = client
        asyncio.get_running_loop().create_task(
            listener.on_connection(server_side)
        )
        return client
    try:
        if scheme == "tcp":
            host, _, port_text = rest.rpartition(":")
            reader, writer = await asyncio.open_connection(
                host, int(port_text)
            )
        else:
            reader, writer = await asyncio.open_unix_connection(path=rest)
    except (ConnectionError, OSError, ValueError) as exc:
        raise TransportError(f"cannot connect to {endpoint}: {exc}") from exc
    return _StreamConnection(endpoint, reader, writer)
