"""Every registered scenario's sends, through the daemon wire codec.

Daemons move PAG messages between processes as v1 wire frames, but the
fleet rejects churn, arrival, rate-ramp and fault specs.  The
:class:`~tests.differential.harness.CodecTap` on the serial run of
every registry scenario covers their traffic too: each encodable send
is framed, reassembled and decoded, and must come back equal, print
the same and re-encode to the same bytes.  PAG scenarios send nothing
else; the AcTinG baseline's own message types have no wire schema.
"""

import pytest

from repro.scenarios import scenario_names

from tests.differential.harness import serial_reference, small_spec


@pytest.mark.parametrize("name", scenario_names())
def test_wire_round_tripped_runs_are_bit_identical(name):
    codec = serial_reference(name).codec
    if small_spec(name).protocol == "pag":
        assert codec.encoded > 0
        assert codec.unencodable == 0
    else:
        assert codec.unencodable > 0
