"""Membership management: directory and per-round views.

Implements the service the paper assumes from Fireflies-style membership
protocols: every node can compute, for any node and round, that node's
successors and monitors (section III).
"""

from __future__ import annotations

from repro.membership.directory import Directory
from repro.membership.views import ViewProvider, default_fanout

__all__ = [
    "Directory",
    "ViewProvider",
    "default_fanout",
]
