"""Tests for the results exporter."""

import csv
import json

import pytest

from repro.analysis.export import EXPORTERS, export_all


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return export_all(out), out


def test_every_exporter_writes_a_file(artefacts):
    written, out = artefacts
    assert set(written) == set(EXPORTERS)
    for path in written.values():
        assert path.exists()
        assert path.stat().st_size > 0


def test_fig9_csv_is_well_formed(artefacts):
    written, _ = artefacts
    with written["fig9"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert rows[0]["nodes"] == "1000"
    for row in rows:
        assert float(row["pag_kbps"]) > float(row["acting_kbps"])


#: The Fig. 8 and Fig. 9 closed-form sweeps as exported and as printed:
#: the CSV rows keep one decimal, the renderers none.
FIG8_CSV = (
    "update_kbit,bandwidth_kbps\r\n1,3075.2\r\n2,2042.7\r\n5,1423.2\r\n"
    "10,1216.7\r\n20,1113.5\r\n50,1051.5\r\n100,1030.9\r\n"
)
FIG9_CSV = (
    "nodes,pag_kbps,acting_kbps\r\n1000,1285.4,393.9\r\n"
    "10000,2234.6,424.4\r\n100000,2525.5,455.3\r\n1000000,2841.3,486.8\r\n"
)
FIG8_PRINTED = """\
Fig. 8 — bandwidth vs update size (1000 nodes, 300 Kbps)
 update kb     Kbps
         1     3075
         2     2043
         5     1423
        10     1217
        20     1113
        50     1052
       100     1031
"""
FIG9_PRINTED = """\
Fig. 9 — scalability with a 300 Kbps stream
    nodes      PAG   AcTinG
     1000     1285      394
    10000     2235      424
   100000     2525      455
  1000000     2841      487
(paper anchors: PAG 2500 / AcTinG 840 at 10^6)
"""


def test_fig8_and_fig9_sweeps_export_and_print_the_same_grid(
    artefacts, capsys
):
    from repro.scenarios.figures import render_fig8, render_fig9

    written, _ = artefacts
    assert written["fig8"].read_bytes() == FIG8_CSV.encode()
    assert written["fig9"].read_bytes() == FIG9_CSV.encode()
    assert render_fig8() == 0
    assert capsys.readouterr().out == FIG8_PRINTED
    assert render_fig9() == 0
    assert capsys.readouterr().out == FIG9_PRINTED


def test_fig10_fractions_cover_unit_interval(artefacts):
    written, _ = artefacts
    with written["fig10"].open() as handle:
        rows = list(csv.DictReader(handle))
    fractions = [float(r["attacker_fraction"]) for r in rows]
    assert fractions[0] == 0.0
    assert fractions[-1] == 1.0


def test_table2_json_structure(artefacts):
    written, _ = artefacts
    payload = json.loads(written["table2"].read_text())
    assert set(payload) == {"PAG", "AcTinG", "RAC"}
    assert all(cell["quality"] is None for cell in payload["RAC"])


def test_table1_signature_constant_in_csv(artefacts):
    written, _ = artefacts
    with written["table1"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert all(float(r["signatures_per_s"]) == 33.0 for r in rows)


def test_cli_export_command(tmp_path, capsys):
    from repro.cli import main

    assert main(["export", "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert (tmp_path / "r" / "fig9_scalability.csv").exists()
