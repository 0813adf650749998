"""numpy stays out of every process that does not run the population tier.

Only ``repro.sim.population`` and the ``ColumnarRoundSpill`` it builds
import numpy (``SpilledMeter`` reads that spill's arrays), so the
CLI, a serial run and its result collection must leave it unloaded —
checked in a fresh interpreter, because pytest itself may have it loaded.

Likewise ``repro.net`` (the wire codec, transports and daemon) belongs
to the fleet alone: a serial, parallel, accusation-path, paper-size or
population run must finish without it, which is what lets a change to
the codec promise those benchmark workloads cannot move.

And ``ctypes`` (the libcrypto backend's FFI) is loaded by the first
backend resolution that picks libcrypto, never by an import: ``auto``
picks it at every modulus width when it loads, and a run forced onto
``python`` never imports it and exponentiates with ``pow`` itself.
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
assert "ctypes" not in sys.modules, "importing the CLI loaded ctypes"

result = get_scenario("fig9", nodes=14, rounds=6).run()
assert result.messages_sent > 0
assert len(result.cdf()) == len(result.node_kbps) > 0
assert "numpy" not in sys.modules, "a serial run loaded numpy"
assert "ctypes" not in sys.modules, "a forced-python run loaded ctypes"
assert result.session.context.hasher.backend.powmod is pow
"""

_AUTO = """
import sys

from repro.scenarios import get_scenario

assert "ctypes" not in sys.modules, "importing the scenarios loaded ctypes"
result = get_scenario("fig9", nodes=14, rounds=6).run()
simulation = result.session.context.hasher.backend
assert simulation.name != "python", simulation.name
spec = get_scenario("table1", nodes=4, rounds=1, warmup_rounds=0)
session = spec.build_pag_with(None, sim_modulus_bits=512, sim_prime_bits=512)
session.run(spec.rounds)
assert session.context.hasher.backend is simulation
assert ("ctypes" in sys.modules) == (simulation.name == "openssl")
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


def _run_fresh(script, backend=None):
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_CRYPTO_BACKEND", None)  # the default resolution
    if backend is not None:
        env["REPRO_CRYPTO_BACKEND"] = backend
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_and_serial_run_never_load_numpy():
    _run_fresh(_SERIAL, backend="python")


def test_auto_is_one_native_backend_at_every_width():
    from repro.crypto.backend import available_backends

    if available_backends() == ["python"]:
        pytest.skip("no native backend here: auto is builtin pow throughout")
    _run_fresh(_AUTO)


def test_building_a_population_spec_loads_numpy():
    pytest.importorskip("numpy")
    _run_fresh(_POPULATION)


def test_only_the_fleet_loads_the_net_package():
    pytest.importorskip("numpy")  # the population row needs it
    _run_fresh(_NO_NET)
