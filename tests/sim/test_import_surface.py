"""numpy stays out of every process that does not run the population tier.

Only ``repro.sim.population`` and the ``ColumnarRoundSpill`` it builds
import numpy (``SpilledMeter`` reads that spill's arrays), so the
CLI, a serial run and its result collection must leave it unloaded —
checked in a fresh interpreter, because pytest itself may have it loaded.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SERIAL = """
import sys

import repro.cli
import repro.scenarios
from repro.scenarios import get_scenario

assert "numpy" not in sys.modules, "importing the CLI loaded numpy"

result = get_scenario("fig9", nodes=14, rounds=6).run()
assert result.messages_sent > 0
assert len(result.cdf()) == len(result.node_kbps) > 0
assert "numpy" not in sys.modules, "a serial run loaded numpy"
"""

_POPULATION = """
import sys

from repro.scenarios import get_scenario

spec = get_scenario("fig9-1m", nodes=14, rounds=6, population=56)
assert "numpy" not in sys.modules, "resolving a spec loaded numpy"
session = spec.build(None)
try:
    assert "numpy" in sys.modules, "the population tier runs on numpy"
finally:
    for plane in session.simulator.planes:
        plane.close()
"""


def _run_fresh(script):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_and_serial_run_never_load_numpy():
    _run_fresh(_SERIAL)


def test_building_a_population_spec_loads_numpy():
    pytest.importorskip("numpy")
    _run_fresh(_POPULATION)
