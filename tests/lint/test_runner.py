"""End-to-end ``repro lint``: clean tree, CLI wiring, mutations."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint.diagnostics import RULES
from repro.lint.runner import lint_source
from tests.lint.markers import REPO_ROOT

SRC_TREE = REPO_ROOT / "src" / "repro"


def _cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=str(cwd or REPO_ROOT),
        env=env,
    )


def _lint(*argv):
    return main(["lint", *argv])


class TestCleanTree:
    def test_src_tree_is_clean(self, capsys):
        code = _lint(str(SRC_TREE))
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro lint: all clean" in out

    def test_rules_listing(self, capsys):
        assert _lint("--rules") == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_missing_path_exits_2(self, capsys):
        assert _lint("no_such_file_xyz.py") == 2
        err = capsys.readouterr().err
        assert "no such path" in err

    def test_cli_verb_lists_rules(self):
        proc = _cli("--rules")
        assert proc.returncode == 0, proc.stderr
        assert "DET101" in proc.stdout
        assert "PAR302" in proc.stdout

    @pytest.mark.parametrize(
        "flag", [["--no-wire-check"], ["--root", "."]], ids=["wire", "root"]
    )
    def test_retired_wire_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            _lint(*flag)
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMutations:
    """Seed a defect, assert the gate goes red with the right code."""

    def test_determinism_mutation_fails_cli(self, tmp_path):
        bad = tmp_path / "mutated.py"
        bad.write_text(
            "import random\n\n\ndef jitter(scale):\n"
            "    return scale * random.random()\n"
        )
        proc = _cli(str(bad))
        assert proc.returncode == 1, proc.stdout
        assert "DET101" in proc.stdout
        assert "Found 1 finding(s)" in proc.stdout

    def test_parity_mutation_fails(self, tmp_path, capsys):
        bad = tmp_path / "mutated.py"
        bad.write_text(
            "_SLOT = {}\n\n\ndef _process_batch(rows):\n"
            "    _SLOT['last'] = rows\n"
        )
        code = _lint(str(bad))
        out = capsys.readouterr().out
        assert code == 1
        assert "PAR302" in out

    def test_allow_comment_does_not_hide_a_finding(self):
        diags = lint_source(
            "jitter.py",
            "import random\n\n\ndef jitter(scale):\n"
            "    return scale * random.random()  # lint: allow[DET101] why\n",
        )
        assert [(d.line, d.code) for d in diags] == [(5, "DET101")]

    def test_unparseable_file_reports_prg903(self):
        diags = lint_source("broken.py", "def f(:\n")
        assert [d.code for d in diags] == ["PRG903"]
        assert "does not parse" in diags[0].message
        assert "does not parse" in RULES["PRG903"]
