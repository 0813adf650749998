"""Timing wrappers the benchmark installs around layer entry points.

The program carries no spans of its own; a traced run patches the
public entry points of each layer *from here*, before the session is
built, so bound references taken at construction (the hasher's
``_powmod``) already see the wrapped callables.  One :class:`Tracer`
serves one run: every span and accumulator cell carries its
``run_id``.

A wrapped call is a span (name, start, end, parent).  Low-volume spans
are stored one by one; the rest are accumulated per ``(name, parent
name, round)`` as call count, total time and self time, where self
time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install"]

#: ``(module, class or None, attribute, span name, layer, stored)``.
#: ``stored`` spans are kept individually (they are few per run).
_TARGETS: Tuple[Tuple[str, Optional[str], str, str, str, bool], ...] = (
    *(
        (
            "repro.crypto.homomorphic",
            "HomomorphicHasher",
            attr,
            f"HomomorphicHasher.{attr}",
            "crypto.homomorphic",
            False,
        )
        for attr in (
            "hash",
            "hash_set",
            "rekey",
            "combine",
            "verify_forwarding",
        )
    ),
    *(
        (
            "repro.crypto.backend",
            cls,
            attr,
            f"Backend.{attr}",
            "crypto.backend",
            False,
        )
        for cls in ("Backend", "PythonBackend", "Gmpy2Backend")
        for attr in ("powmod", "multi_powmod")
    ),
    *(
        (
            "repro.crypto.primes",
            "PrimePool",
            attr,
            f"PrimePool.{attr}",
            "crypto.primes",
            False,
        )
        for attr in ("take", "take_many")
    ),
    (
        "repro.crypto.primes",
        None,
        "generate_prime",
        "generate_prime",
        "crypto.primes",
        False,
    ),
    *(
        (
            "repro.core.signing",
            cls,
            attr,
            f"Signer.{attr}",
            "core.signing",
            False,
        )
        for cls in ("TokenSigner", "RsaSigner")
        for attr in ("sign", "verify")
    ),
    (
        "repro.core.verification",
        "BatchVerifier",
        "fold",
        "BatchVerifier.fold",
        "core.verification",
        False,
    ),
    *(
        (
            "repro.core.node",
            cls,
            attr,
            f"PagNode.{attr}",
            "core.node",
            False,
        )
        for cls in ("PagNode", "PagSourceNode")
        for attr in ("on_message", "begin_round", "end_round")
    ),
    (
        "repro.sim.engine",
        "Simulator",
        "run_round",
        "Simulator.run_round",
        "sim.engine",
        True,
    ),
    *(
        (
            "repro.sim.network",
            "Network",
            attr,
            f"Network.{attr}",
            "sim.network",
            False,
        )
        for attr in (
            "send",
            "begin_round",
            "take_pending",
            "merge_captures",
            "merge_remote",
        )
    ),
    (
        "repro.sim.metrics",
        "BandwidthMeter",
        "record",
        "BandwidthMeter.record",
        "sim.metrics",
        False,
    ),
    (
        "repro.sim.metrics",
        "BandwidthMeter",
        "all_node_kbps",
        "BandwidthMeter.all_node_kbps",
        "sim.metrics",
        True,
    ),
    (
        "repro.sim.metrics",
        "SpilledMeter",
        "window_kbps_vector",
        "SpilledMeter.window_kbps_vector",
        "sim.metrics",
        True,
    ),
    (
        "repro.sim.population",
        "PopulationPlane",
        "end_round",
        "PopulationPlane.end_round",
        "sim.population",
        True,
    ),
    *(
        (
            "repro.sim.trace",
            "ColumnarRoundSpill",
            attr,
            f"ColumnarRoundSpill.{attr}",
            "sim.trace",
            True,
        )
        for attr in ("append_round", "flush", "window_sum", "read_round")
    ),
    *(
        ("repro.net.wire", None, attr, f"wire.{attr}", "net.wire", False)
        for attr in ("encode_message", "decode_message", "frame")
    ),
    (
        "repro.net.wire",
        "FrameAssembler",
        "feed",
        "FrameAssembler.feed",
        "net.wire",
        False,
    ),
)

#: Call sites that imported a wrapped module function by name; they are
#: re-pointed at the wrapper the defining module now holds.
_ALIASES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.transport", "frame", "repro.net.wire"),
)

#: Coroutine seams, timed by elapsed time only (see ``wrap_async``).
_ASYNC_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.daemon", "send_message", "daemon.send_message"),
    ("repro.net.daemon", "recv_message", "daemon.recv_message"),
)


class Tracer:
    """In-memory span store and accumulator of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin_ns = perf_counter_ns()
        #: round the engine (or a daemon) is executing; -1 outside.
        self.round = -1
        #: stored spans: id, parent id, name, start and end (ns since
        #: ``origin_ns``).
        self.spans: List[Dict[str, Any]] = []
        #: (name, parent name, round) -> [calls, total ns, self ns].
        self.cells: Dict[Tuple[str, Optional[str], int], List[int]] = {}
        #: span name -> layer.
        self.layers: Dict[str, str] = {}
        #: coroutine seam -> [calls, elapsed ns].
        self.waits: Dict[str, List[int]] = {}
        #: every ``PagSession`` built while tracing (a fleet builds one
        #: per shard), for the program's own counters.
        self.sessions: List[Any] = []
        #: open frames: [name, child ns, nearest stored span id].
        self._stack: List[List[Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        stored: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name`` of ``layer``."""
        self.layers[name] = layer
        stack = self._stack
        cells = self.cells
        spans = self.spans
        origin = self.origin_ns
        clock = perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent is not None else None
            if stored:
                span_id = len(spans)
                spans.append(
                    {
                        "id": span_id,
                        "parent": parent[2] if parent else None,
                        "name": name,
                        "round": tracer.round,
                    }
                )
            frame = [name, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                if stored:
                    spans[span_id]["start_ns"] = start - origin
                    spans[span_id]["end_ns"] = end - origin
                key = (
                    name,
                    parent[0] if parent is not None else None,
                    tracer.round,
                )
                cell = cells.get(key)
                if cell is None:
                    cells[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[1]

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_async(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """A coroutine function timed by elapsed time alone.

        Tasks interleave at every ``await``, so a coroutine cannot sit
        on the span stack; its elapsed time (waiting included) and call
        count are kept apart in :attr:`waits`.
        """
        cell = self.waits.setdefault(name, [0, 0])
        clock = perf_counter_ns

        async def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - start

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading -----------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """name -> calls, total seconds, self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, _parent, _round), cell in self.cells.items():
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += cell[0]
            row["total_s"] += cell[1] / 1e9
            row["self_s"] += cell[2] / 1e9
        return out

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """layer -> self seconds, busy seconds.

        Busy time is the duration of the layer's outermost spans: time
        in the layer and in whatever it calls.  A span counts as
        outermost when its parent belongs to another layer (the layers
        wrapped here never re-enter themselves through another layer).
        """
        out: Dict[str, Dict[str, float]] = {}
        for (name, parent, _round), cell in self.cells.items():
            layer = self.layers[name]
            row = out.setdefault(layer, {"self_s": 0.0, "busy_s": 0.0})
            row["self_s"] += cell[2] / 1e9
            if parent is None or self.layers[parent] != layer:
                row["busy_s"] += cell[1] / 1e9
        return out

    def dump(self) -> Dict[str, Any]:
        """Plain-data form of the whole trace (written to disk)."""
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "accumulated": [
                {
                    "name": name,
                    "layer": self.layers[name],
                    "parent": parent,
                    "round": round_no,
                    "calls": cell[0],
                    "total_ns": cell[1],
                    "self_ns": cell[2],
                }
                for (name, parent, round_no), cell in self.cells.items()
            ],
            "waits": {
                name: {"calls": cell[0], "elapsed_ns": cell[1]}
                for name, cell in self.waits.items()
            },
        }


def _wrap_attribute(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    layer: str,
    stored: bool,
) -> None:
    """Replace ``owner.attr`` (class or module) by its traced form."""
    raw = vars(owner).get(attr)
    if raw is None:
        return  # inherited (wrapped on the base) or absent here
    if isinstance(raw, staticmethod):
        wrapped: Any = staticmethod(
            tracer.wrap(name, layer, raw.__func__, stored)
        )
    else:
        wrapped = tracer.wrap(name, layer, raw, stored)
    setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Patch every layer entry point of the program with ``tracer``.

    Call before the session is built.  The patches last for the life
    of the process: a traced benchmark child does one run and exits.
    """
    for module_name, cls_name, attr, name, layer, stored in _TARGETS:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        _wrap_attribute(tracer, owner, attr, name, layer, stored)
    for module_name, attr, source in _ALIASES:
        setattr(
            importlib.import_module(module_name),
            attr,
            getattr(importlib.import_module(source), attr),
        )
    for module_name, attr, name in _ASYNC_TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap_async(name, getattr(module, attr)))

    monitor = importlib.import_module("repro.core.monitor").MonitorEngine
    for attr in sorted(vars(monitor)):
        if attr.startswith("on_") or attr in ("begin_round", "end_round"):
            _wrap_attribute(
                tracer,
                monitor,
                attr,
                f"MonitorEngine.{attr}",
                "core.monitor",
                False,
            )

    network = importlib.import_module("repro.sim.network").Network
    begin_round = network.begin_round

    def tracked_begin_round(self: Any, round_no: int) -> Any:
        tracer.round = round_no
        return begin_round(self, round_no)

    network.begin_round = tracked_begin_round

    session_cls = importlib.import_module("repro.core.session").PagSession
    create = session_cls.create.__func__

    def tracked_create(cls: Any, *args: Any, **kwargs: Any) -> Any:
        session = create(cls, *args, **kwargs)
        tracer.sessions.append(session)
        return session

    session_cls.create = classmethod(tracked_create)
