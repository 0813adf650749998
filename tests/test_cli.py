"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--scenario", "fig9"])
        # None means "use the scenario's default" — including its own
        # execution-policy knob.
        assert args.nodes is None
        assert args.rate is None
        assert args.policy is None
        assert args.workers is None

    def test_run_scenario_and_policy_flags(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "fig9", "--policy", "serial"]
        )
        assert args.scenario == "fig9"
        assert args.policy == "serial"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "psychic"])

    def test_run_parallel_policy_flags(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "fig9", "--policy", "parallel",
             "--workers", "4"]
        )
        assert args.policy == "parallel"
        assert args.workers == 4

    def test_workers_and_shards_reject_non_positive_counts(self):
        """Satellite regression: ``--workers 0`` and negatives used to
        parse fine and only fail (or be ignored) much later.  (The
        retired ``--shards`` is rejected whatever its value.)"""
        for flag, value in (
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--shards", "0"),
            ("--shards", "-1"),
            ("--workers", "three"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "--scenario", "fig9", "--policy", "parallel",
                     flag, value]
                )

    def test_workers_requires_parallel_policy(self):
        """The flag must never be silently ignored: without a policy (or
        with a non-parallel one) it is an explicit error."""
        with pytest.raises(SystemExit, match="--workers"):
            main(["run", "--scenario", "fig9", "--nodes", "8",
                  "--rounds", "2", "--workers", "2"])
        with pytest.raises(SystemExit, match="--workers"):
            main(
                ["run", "--scenario", "fig9", "--nodes", "8", "--rounds",
                 "2", "--policy", "serial", "--workers", "2"]
            )

    def test_run_requires_a_scenario(self, capsys):
        """A run is a named scenario plus overrides: without
        ``--scenario`` every flag combination is argparse's usage
        error naming it."""
        for extra in (
            [],
            ["--nodes", "8", "--rounds", "2"],
            ["--json", "out.json"],
            ["--strategy", "free-rider"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["run", *extra])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "the following arguments are required: --scenario" in err

    def test_parallel_policy_requires_a_scenario(self, capsys):
        """A hand-built session has no spec to rebuild worker replicas
        from; a parallel run without ``--scenario`` is a usage error,
        never a run reported parallel that ran inline."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "8", "--rounds", "2",
                  "--policy", "parallel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --scenario" in err

    def test_parallel_workers_default_to_the_scenarios(self):
        from repro.cli import _policy_from

        for extra, expected in (([], 2), (["--workers", "3"], 3)):
            args = build_parser().parse_args(
                ["run", "--scenario", "fig9-parallel",
                 "--policy", "parallel", *extra]
            )
            assert _policy_from(args).workers == expected

    def test_retired_names_are_rejected_naming_the_valid_ones(
        self, capsys
    ):
        from repro.scenarios.fuzz import FuzzConfig
        from repro.scenarios.spec import ScenarioSpec
        from repro.sim.execution import ParallelShardedPolicy, make_policy

        for name in ("sharded", "daemon"):
            with pytest.raises(SystemExit):
                main(["run", "--scenario", "fig9", "--policy", name])
            err = capsys.readouterr().err
            assert f"invalid choice: '{name}'" in err
            assert "'serial', 'parallel')" in err
        # A retired flag is argparse's plain "unrecognized arguments".
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "fig9", "--shards", "3"])
        assert "unrecognized arguments: --shards" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve", "--scenario", "fig9", "--listen", "mem://x",
                  "--policy", "serial"])
        assert (
            "unrecognized arguments: --policy serial"
            in capsys.readouterr().err
        )
        valid = r"\('serial', 'parallel'\)$"
        for name in ("sharded", "population", "daemon"):
            with pytest.raises(ValueError, match=valid):
                ScenarioSpec(name="retired", policy=name)
            with pytest.raises(ValueError, match=valid):
                make_policy(name)
            with pytest.raises(ValueError, match=valid):
                FuzzConfig(policies=("serial", name))
        for backend in ("process", "serialized"):
            with pytest.raises(TypeError, match="'backend'"):
                ParallelShardedPolicy(backend=backend)

    def test_workers_accepted_with_parallel_policy(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "fig9", "--policy", "parallel",
             "--workers", "1"]
        )
        assert args.workers == 1

    def test_detect_strategy_choices(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "detect", "--strategy", "silent-receiver"]
        )
        assert args.strategy == "silent-receiver"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scenario", "detect", "--strategy", "nonsense"]
            )


class TestCommands:
    def test_run(self, capsys):
        assert main(
            ["run", "--scenario", "fig9", "--nodes", "12", "--rounds", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean download" in out
        assert "verdicts           : 0" in out

    def test_run_named_scenario(self, capsys):
        code = main(
            ["run", "--scenario", "selfish", "--rounds", "10",
             "--policy", "parallel", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'selfish'" in out
        assert "convicted" in out

    def test_run_unknown_scenario_fails_crisply(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["run", "--scenario", "fig99"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "--scenario fig9 --rounds 2",
                r"^error: warmup \(4\) must leave measurable rounds",
            ),
            (
                "--scenario fig9-1m --population 20000 --nodes 12 --rounds 4",
                r"^error: warmup \(4\) must leave measurable rounds",
            ),
            (
                "--scenario fig9-1m --population 10 --nodes 12",
                r"^error: population \(10\) must exceed",
            ),
            (
                "--scenario fig9 --nodes 3 --rounds 6",
                r"^error: fanout 3 invalid for 3 nodes$",
            ),
            (
                "--scenario table1 --nodes 2",
                r"^error: fanout 3 invalid for 2 nodes$",
            ),
            (
                "--scenario fig9 --rate -5 --rounds 6 --nodes 10",
                r"^error: stream rate must be positive, got -5.0$",
            ),
        ],
        ids=[
            "fig9-rounds", "fig9-1m-rounds", "fig9-1m-population",
            "fig9-fanout", "table1-fanout", "fig9-rate",
        ],
    )
    def test_run_rejected_override_is_a_one_line_error(
        self, argv, message
    ):
        with pytest.raises(SystemExit, match=message) as exc:
            main(["run", *argv.split()])
        assert "\n" not in str(exc.value.code)

    def test_run_value_error_during_the_run_propagates(self, monkeypatch):
        from repro.scenarios.spec import ScenarioSpec

        def fail(self, *args, **kwargs):
            raise ValueError("raised mid-run")

        monkeypatch.setattr(ScenarioSpec, "run", fail)
        with pytest.raises(ValueError, match="raised mid-run"):
            main(["run", "--scenario", "fig9", "--rounds", "6"])

    def test_run_population_scenario(self, capsys, tmp_path):
        json_path = tmp_path / "pop.json"
        code = main(
            ["run", "--scenario", "fig9-1m", "--population", "300",
             "--rounds", "6", "--nodes", "16", "--json",
             str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "population" in out
        assert "peak RSS" in out
        import json

        summary = json.loads(json_path.read_text())
        assert summary["population"] == 300
        assert summary["population_mean_down_kbps"] > 0
        assert summary["plane"]["plane_nodes"] == 284

    def test_run_population_requires_a_scenario(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "8", "--rounds", "2",
                  "--population", "100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --scenario" in err
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scenario", "fig9", "--population", "0"]
            )

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7", "fig9", "table2", "churn"):
            assert name in out
        assert main(["scenarios", "--verbose"]) == 0
        assert "paper:" in capsys.readouterr().out

    def test_detect(self, capsys):
        code = main(
            ["run", "--scenario", "detect", "--strategy", "free-rider",
             "--nodes", "16", "--rounds", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GUILTY" in out

    def test_fig8(self, capsys):
        assert main(["run", "--scenario", "fig8"]) == 0
        captured = capsys.readouterr()
        assert "update size" in captured.out
        assert captured.err == ""

    def test_fig9(self, capsys):
        assert main(["run", "--scenario", "fig9"]) == 0
        captured = capsys.readouterr()
        assert "1000000" in captured.out
        assert captured.err == ""

    def test_fig10(self, capsys):
        assert main(["run", "--scenario", "fig10"]) == 0
        captured = capsys.readouterr()
        assert "attackers" in captured.out
        assert captured.err == ""

    def test_table1(self, capsys):
        assert main(["run", "--scenario", "table1"]) == 0
        captured = capsys.readouterr()
        assert "1080p" in captured.out
        assert "33" in captured.out
        assert captured.err == ""

    def test_table2(self, capsys):
        assert main(["run", "--scenario", "table2"]) == 0
        captured = capsys.readouterr()
        assert "∅" in captured.out
        assert captured.err == ""

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out
        assert "True" in out

    def test_fig7_small(self, capsys):
        assert main(
            ["run", "--scenario", "fig7", "--nodes", "20", "--rounds", "8"]
        ) == 0
        assert "AcTinG" in capsys.readouterr().out


class TestDeprecatedAliases:
    """The legacy verbs are retired; ``run --scenario`` is the one way
    to reach a paper renderer."""

    def test_retired_verbs_are_rejected(self):
        for verb in ("fig7", "fig8", "fig9", "fig10", "table1", "table2",
                     "detect", "bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])

    def test_run_scenario_detect_conviction_exit_code(self, capsys):
        code = main(
            ["run", "--scenario", "detect", "--nodes", "16",
             "--rounds", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convicted: [8]" in out

    def test_strategy_requires_renderer_scenario(self):
        with pytest.raises(SystemExit, match="--strategy"):
            main(["run", "--scenario", "selfish", "--rounds", "6",
                  "--strategy", "free-rider"])


class TestFuzzCommand:
    def test_fuzz_clean_campaign_writes_report(self, capsys, tmp_path):
        out = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--iterations", "2", "--seed", "42",
            "--policies", "serial,parallel", "--json", str(out),
        ])
        assert code == 0
        assert "all invariants held" in capsys.readouterr().out
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["iterations"] == 2
        assert report["violations"] == []
        assert report["config"]["policies"] == ["serial", "parallel"]
        assert report["totals"]["faults"] >= 2

    def test_fuzz_replay_from_bare_spec(self, capsys, tmp_path):
        import json

        from repro.scenarios.spec import ScenarioSpec
        from repro.sim.faults import LossFault

        spec = ScenarioSpec(
            name="replay-me",
            nodes=10,
            rounds=7,
            warmup_rounds=2,
            fault_schedule=(
                # Confined to the exchange plane: unrestricted loss
                # also eats accountability traffic and (correctly)
                # produces convictions, which replay would report.
                LossFault(probability=0.05, kinds=("serve", "ack")),
            ),
            seed=9,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        code = main([
            "fuzz", "--replay", str(path), "--policies", "serial,parallel",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replaying replay-me" in out

    def test_fuzz_replay_rejects_the_old_churn_pair_form(self, tmp_path):
        """A churn entry as an ``[after, node]`` pair (the retired fuzz
        codec's form) is a named error, never misread."""
        import json

        from repro.scenarios.spec import ChurnEvent, ScenarioSpec

        spec = ScenarioSpec(
            name="old-form", nodes=10, rounds=7, warmup_rounds=2,
            churn=(ChurnEvent(after_round=3, node_id=4),),
        )
        payload = spec.to_json()
        payload["churn"] = [[3, 4]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"spec\.churn\[0\]"):
            main(["fuzz", "--replay", str(path)])

    def test_fuzz_replay_report_without_violations(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        path.write_text(json.dumps({"violations": []}))
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_fuzz_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown execution policy"):
            main(["fuzz", "--policies", "serial,warp"])


_SPEC = ["--scenario", "fig9", "--nodes", "10", "--rounds", "6"]
#: Port 1 is privileged: nothing a test run starts listens there.
_CLOSED = "tcp://127.0.0.1:1"
_REFUSED = f"cannot connect to {_CLOSED}"
_BAD_LISTEN = "endpoint 'bogus://x' is not tcp://, unix:// or mem://"
_NO_DIR = "unix:///nonexistent-repro-dir/daemon.sock"


class TestDaemonSessionCommands:
    def test_daemon_parser_requires_listen(self):
        args = build_parser().parse_args(
            ["daemon", "--listen", "tcp://127.0.0.1:0"]
        )
        assert args.listen == "tcp://127.0.0.1:0"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon"])

    def test_session_parser_defaults(self):
        args = build_parser().parse_args(
            ["session", "--scenario", "selfish"]
        )
        assert args.daemons is None
        assert args.local_daemons == 2
        assert args.transport == "mem"
        assert not args.verify_serial
        with pytest.raises(SystemExit):
            build_parser().parse_args(["session"])  # --scenario required
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["session", "--scenario", "x", "--transport", "pigeon"]
            )

    def test_session_local_fleet_with_serial_parity(self, capsys):
        code = main(
            ["session", "--scenario", "selfish", "--nodes", "14",
             "--rounds", "6", "--local-daemons", "2", "--verify-serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "serial parity: OK" in out
        assert "relay batches" in out

    def test_session_rejects_daemon_unsupported_scenarios(self):
        with pytest.raises(
            SystemExit, match=r"^error: scenario 'churn' uses churn"
        ):
            main(["session", "--scenario", "churn"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["session", *_SPEC, "--daemons", ","], "a session needs"),
            (["session", *_SPEC, "--daemons", _CLOSED], _REFUSED),
            (["watch", _CLOSED], _REFUSED),
            (["ctl", _CLOSED, "health"], _REFUSED),
            (["ctl", _CLOSED, "pause"], _REFUSED),
            (["daemon", "--listen", "bogus://x"], _BAD_LISTEN),
            (["daemon", "--listen", _NO_DIR], f"cannot listen on {_NO_DIR}"),
            (["serve", *_SPEC, "--listen", "bogus://x"], _BAD_LISTEN),
        ],
    )
    def test_network_failure_is_a_one_line_error(self, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(f"error: {message}")
        assert "\n" not in str(exc.value.code)

    def test_network_failure_exits_1_without_a_traceback(self):
        argv = [sys.executable, "-m", "repro", "daemon", "--listen"]
        done = subprocess.run(
            [*argv, "bogus://x"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 1
        assert done.stderr == f"error: {_BAD_LISTEN}\n"

    def test_session_rejected_override_is_a_one_line_error(self):
        with pytest.raises(
            SystemExit, match=r"^error: fanout 3 invalid for 3 nodes$"
        ) as exc:
            main(["session", "--scenario", "fig9", "--nodes", "3",
                  "--rounds", "6"])
        assert "\n" not in str(exc.value.code)

    def test_serve_rejected_override_is_a_one_line_error_before_listening(
        self, monkeypatch
    ):
        import repro.service

        def never(*args, **kwargs):
            raise AssertionError("serve listened before validating")

        monkeypatch.setattr(repro.service, "ServiceServer", never)
        with pytest.raises(
            SystemExit, match=r"^error: warmup \(4\) must leave measurable"
        ) as exc:
            main(["serve", "--scenario", "fig9", "--listen", "mem://x",
                  "--rounds", "1", "--nodes", "8"])
        assert "\n" not in str(exc.value.code)
