"""numpy stays out of every process that does not run the population tier.

Only ``repro.sim.population`` and the ``ColumnarRoundSpill`` it builds
import numpy (``SpilledMeter`` reads that spill's arrays), so the
CLI, a serial run and its result collection must leave it unloaded —
checked in a fresh interpreter, because pytest itself may have it loaded.

Likewise ``repro.net`` (the wire codec, transports and daemon) belongs
to the fleet alone: a serial, parallel, accusation-path, paper-size or
population run must finish without it, which is what lets a change to
the codec promise those benchmark workloads cannot move.
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

_NO_NET = """
import sys

import repro.cli
from repro.scenarios import get_scenario

for name, overrides in (
    ("fig9", dict(nodes=14, rounds=6)),
    ("fig9", dict(nodes=14, rounds=6, policy="parallel", workers=2)),
    ("coalition-mixed", {}),
    ("table1", dict(nodes=6, rounds=2, warmup_rounds=1)),
    ("fig9-1m", dict(nodes=14, rounds=6, population=56)),
):
    result = get_scenario(name, **overrides).run()
    assert result.messages_sent > 0
    loaded = sorted(m for m in sys.modules if m.startswith("repro.net"))
    assert not loaded, f"{name} {overrides} loaded {loaded}"
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


def test_only_the_fleet_loads_the_net_package():
    pytest.importorskip("numpy")  # the population row needs it
    _run_fresh(_NO_NET)
