"""PAR3xx analyzer: fixture markers and scope-detection unit cases."""

import ast

from repro.lint.parity import analyze_parity
from tests.lint.markers import FIXTURES, expected_markers, found_pairs

FIXTURE = FIXTURES / "parity_bad.py"


def _par(source: str):
    tree = ast.parse(source)
    return analyze_parity("snippet.py", tree)


class TestParFixture:
    def test_every_marker_fires(self):
        expected = expected_markers(FIXTURE)
        assert expected, "fixture lost its # expect[...] markers"
        found = found_pairs(FIXTURE)
        missing = expected - found
        assert not missing, f"markers without diagnostics: {missing}"

    def test_no_unmarked_diagnostics(self):
        extra = found_pairs(FIXTURE) - expected_markers(FIXTURE)
        assert not extra, f"diagnostics without markers: {extra}"

    def test_only_par_codes(self):
        codes = {code for _, code in found_pairs(FIXTURE)}
        assert codes == {"PAR301", "PAR302"}


class TestParUnits:
    def test_parent_merge_outside_scope_is_clean(self):
        src = (
            "def collect(parent, rows):\n"
            "    parent.meter.record(rows)\n"
        )
        assert _par(src) == []

    def test_replica_local_state_is_clean(self):
        src = (
            "class _ReplicaWorker:\n"
            "    def step(self, item):\n"
            "        self.local.append(item)\n"
        )
        assert _par(src) == []

    def test_global_rebind_reported_once(self):
        src = (
            "_SLOT = None\n"
            "def _process_round(batch):\n"
            "    global _SLOT\n"
            "    _SLOT = batch\n"
        )
        diags = _par(src)
        assert [d.code for d in diags] == ["PAR302"]
        assert diags[0].line == 3
