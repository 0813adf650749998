"""Gossip dissemination substrate: updates, source, push gossip."""

from __future__ import annotations

from repro.gossip.dissemination import (
    PlainGossipNode,
    PlainSourceNode,
    PushMessage,
)
from repro.gossip.source import StreamSchedule
from repro.gossip.updates import Update, UpdateStore, content_integer

__all__ = [
    "PlainGossipNode",
    "PlainSourceNode",
    "PushMessage",
    "StreamSchedule",
    "Update",
    "UpdateStore",
    "content_integer",
]
