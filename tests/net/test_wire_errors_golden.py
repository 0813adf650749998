"""Error parity of the v1 decoder, pinned per byte offset.

``golden_wire_errors_v1.json`` records which :class:`WireError`
subclass the decoder raises

* at *every* truncation offset of every fixture frame (and of one live
  ``Serve`` and one live ``KeyResponse``), run-length encoded, and
* for every hostile frame ``test_message_validation.py`` crafts.

It was generated on the slicing codec that preceded the cursor-walking
one: a decoder rewrite must fail the same inputs the same way, so a
peer's error handling (truncated vs. invalid vs. foreign version) never
depends on which build it talks to.

Regenerate (only when *adding* fixtures or validation tests) with::

    PYTHONPATH=src:. python tests/net/test_wire_errors_golden.py --regen
"""

import functools
import json
import os

import pytest

from repro.net.wire import WireError, decode_message, encode_message

from tests.net import test_message_validation as validation
from tests.net.fixtures import all_messages
from tests.net.live_traffic import live_key_response, live_serve

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_wire_errors_v1.json"
)


def _outcome(payload: bytes) -> str:
    try:
        decode_message(payload)
    except WireError as exc:
        return type(exc).__name__
    return "decoded"


def _truncation_runs(payload: bytes) -> list:
    """``[[outcome, count], ...]`` over cuts 0..len-1, in order."""
    runs: list = []
    for cut in range(len(payload)):
        outcome = _outcome(payload[:cut])
        if runs and runs[-1][0] == outcome:
            runs[-1][1] += 1
        else:
            runs.append([outcome, 1])
    return runs


@functools.lru_cache(maxsize=None)
def _truncations() -> dict:
    frames = {
        f"{index:02d}-{type(message).__name__}": message
        for index, message in enumerate(all_messages())
    }
    frames["live-Serve"] = live_serve()
    frames["live-KeyResponse"] = live_key_response()
    return {
        label: _truncation_runs(encode_message(message))
        for label, message in frames.items()
    }


@functools.lru_cache(maxsize=None)
def _crafted() -> dict:
    """test name -> ``[[payload hex, outcome], ...]`` of every decode
    the validation suite attempts, seen through a spy on the name the
    suite calls."""
    seen: dict = {}
    real = validation.decode_message
    try:
        for name, test in sorted(vars(validation).items()):
            if not name.startswith("test_"):
                continue

            def spy(payload, _calls=seen.setdefault(name, [])):
                _calls.append([bytes(payload).hex(), _outcome(payload)])
                return real(payload)

            validation.decode_message = spy
            test()
    finally:
        validation.decode_message = real
    return {name: calls for name, calls in seen.items() if calls}


def _load() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_case_is_pinned():
    golden = _load()
    assert sorted(golden["truncation"]) == sorted(_truncations())
    assert sorted(golden["crafted"]) == sorted(_crafted())


@pytest.mark.parametrize("label", sorted(_load()["truncation"]))
def test_truncation_errors_are_pinned(label):
    assert _truncations()[label] == _load()["truncation"][label]


@pytest.mark.parametrize("name", sorted(_load()["crafted"]))
def test_crafted_violation_errors_are_pinned(name):
    assert _crafted()[name] == _load()["crafted"][name]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to rewrite the golden file")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {"truncation": _truncations(), "crafted": _crafted()},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"pinned decoder errors to {GOLDEN_PATH}")
