"""Live wire traffic: every encodable message of a small real run.

The hand-written fixtures carry one small message per kind; a real
session sends ``Serve`` frames with a hundred entries, ``KeyResponse``
buffermaps with a hundred wide uids, two-byte uid varints and (under a
coalition) the whole accusation path.  These captures put that traffic
under the codec tests, so the composite decode loops are exercised at
the sizes the daemon fleet actually moves.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Tuple

from repro.core.messages import KeyResponse, Serve
from repro.net import wire
from repro.scenarios import get_scenario

__all__ = ["SCENARIOS", "live_messages", "live_serve", "live_key_response"]

#: label -> (registry name, overrides) of the captured runs.
SCENARIOS: Dict[str, Tuple[str, Dict[str, int]]] = {
    "fig9": ("fig9", dict(nodes=16, rounds=5, warmup_rounds=2)),
    "coalition-mixed": ("coalition-mixed", {}),
}


class _EncodableTap:
    def __init__(self) -> None:
        self.messages: List[Any] = []

    def observe(self, message: Any, size: int) -> None:
        if wire.encodable(message):
            self.messages.append(message)


@functools.lru_cache(maxsize=None)
def live_messages(label: str) -> Tuple[Any, ...]:
    """Every encodable message of the run, in send order."""
    name, overrides = SCENARIOS[label]
    spec = get_scenario(name, **overrides)
    session = spec.build(None)
    tap = _EncodableTap()
    session.simulator.network.add_tap(tap)
    session.run(spec.rounds)
    return tuple(tap.messages)


def live_serve() -> Serve:
    """The first fig9 ``Serve`` carrying at least 20 entries."""
    return next(
        m
        for m in live_messages("fig9")
        if type(m) is Serve and len(m.entries) >= 20
    )


def live_key_response() -> KeyResponse:
    """The first fig9 ``KeyResponse`` advertising at least 40 uids."""
    return next(
        m
        for m in live_messages("fig9")
        if type(m) is KeyResponse and len(m.buffermap) >= 40
    )
