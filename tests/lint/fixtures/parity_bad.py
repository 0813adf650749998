"""Deliberate parity violations for the PAR3xx analyzer.

Never imported, only parsed: tests/lint/test_parity.py asserts every
``# expect[CODE]`` marker line yields exactly that diagnostic.
"""

_WORKER_CACHE = {}


class _ReplicaWorker:
    def __init__(self, parent):
        self.parent = parent  # expect[PAR301]

    def merge_up(self, verdict):
        self.parent.verdicts.append(verdict)  # expect[PAR301]

    def overwrite(self, meter):
        self.parent.meter = meter  # expect[PAR301]

    def leak(self, key, value):
        _WORKER_CACHE[key] = value  # expect[PAR302]


def _process_step(batch):
    global _WORKER_CACHE  # expect[PAR302]
    _WORKER_CACHE = dict(batch)


def helper_outside_scope(parent):
    # Not a replica scope: the parent merging into itself is the
    # design, so this must NOT be flagged.
    parent.meter.record(1)
