"""One round, one collection epoch of the cyclic garbage collector.

A round drains to quiescence, so almost everything it allocates is dead
by its barrier.  CPython's cyclic collector cannot know that: left on,
it fires every ~700 net allocations mid-round, promotes the round's
in-flight messages into the older generations, and those promotions
then pay for full collections over the whole session heap.  The run
loops (``Simulator.run_round``, a parallel replica between its
``begin`` and ``end`` barriers, a daemon between ``RoundStart`` and
``RoundDone``) hold automatic collection off for one round and turn it
back on at the barrier.  The first tracked allocation after that runs
the collection the round deferred, of the generation the interpreter's
own counts and thresholds choose: nothing here changes a threshold or
freezes an object, and every ``gc`` call under ``src/`` is in this
module.

Three rules the run loops rely on:

* a caller that turned collection off keeps it off: :func:`pause`
  returns False and the matching :func:`resume` does nothing;
* pauses may interleave (two daemons on one event loop): only the
  pause that turned collection off turns it back on;
* a worker forked in the middle of its parent's pause starts from the
  state the parent had before it (:func:`release_inherited`).

When a cycle is freed can move no byte, draw or verdict: no code under
``src/`` has a ``__del__``, a finalizer or a weak reference, and lint
rule DET105 keeps ``id()`` values out of container keys.  What a round
leaves behind as cyclic garbage at all is a departed node (its
``_handlers`` hold bound methods, its monitor engine holds its
``send``); ``tests/sim/test_collection.py`` audits every registry
scenario for anything else.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["pause", "resume", "round_epoch", "release_inherited"]

#: True while a :func:`pause` of this process holds collection off.
_holding = False


class _Tick:
    """A tracked allocation: where the re-enabled collector runs."""


def pause() -> bool:
    """Hold automatic collection off until :func:`resume`.

    Returns whether this call turned it off, for :func:`resume`.  False
    when collection is off already, whether a caller disabled it or
    another pause holds it.
    """
    global _holding
    if not gc.isenabled():
        return False
    gc.disable()
    _holding = True
    return True


def resume(paused: bool) -> None:
    """End the pause that returned ``paused``: turn collection back on
    and let the interpreter run the collection it deferred, here."""
    global _holding
    if not paused:
        return
    _holding = False
    gc.enable()
    _Tick()


@contextmanager
def round_epoch() -> Iterator[None]:
    """:func:`pause` for the block, :func:`resume` on every way out."""
    paused = pause()
    try:
        yield
    finally:
        resume(paused)


def release_inherited() -> None:
    """In a child forked while its parent held a pause, turn collection
    back on: the parent's pause ends in the parent."""
    global _holding
    if _holding:
        _holding = False
        gc.enable()
