"""Supervisor lifecycle, operator control, and the determinism oracle.

The load-bearing test is the differential: a scripted operator
schedule (strategy flip, churn, admission) replayed through the
control API must produce measurements bit-identical to the same
schedule declared statically in the ScenarioSpec.  That equivalence is
what makes `repro ctl` safe to use on a run whose numbers matter.
"""

import dataclasses
import json
import threading

import pytest

from repro.scenarios.spec import ChurnEvent, JoinEvent, ScenarioSpec
from repro.service.supervisor import (
    STATES,
    ControlOp,
    SessionSupervisor,
    SupervisorError,
)


def _base(**overrides):
    overrides.setdefault("name", "sup-test")
    overrides.setdefault("nodes", 16)
    overrides.setdefault("rounds", 8)
    overrides.setdefault("warmup_rounds", 2)
    return ScenarioSpec(**overrides)


def _fingerprint(result):
    return {
        "summary": result.summary(),
        "node_kbps": result.node_kbps,
        "verdicts": [
            (v.node, v.exchange_round, v.reason.value, v.detected_by)
            for v in result.session.all_verdicts()
        ],
    }


class TestDeterminismOracle:
    def test_scripted_schedule_matches_static_spec(self):
        """churn + admit + strategy via control ops == static spec."""
        membership = dict(
            churn=(ChurnEvent(after_round=3, node_id=5),),
            arrivals=(JoinEvent(after_round=4, node_id=15),),
        )
        static = _base(
            node_strategies=((7, "free-rider"),), **membership
        )
        dynamic_spec = _base(**membership)
        supervisor = SessionSupervisor(
            dynamic_spec,
            manual_membership=True,
            schedule=(
                ControlOp(
                    "strategy", node_id=7, arg="free-rider",
                    after_round=-1,
                ),
                ControlOp("churn", node_id=5, after_round=3),
                ControlOp("admit", node_id=15, after_round=4),
            ),
        )
        dynamic = supervisor.run()
        assert supervisor.state == "stopped"
        assert _fingerprint(dynamic) == _fingerprint(static.run())

    def test_unscheduled_run_matches_plain_run(self):
        spec = _base(node_strategies=((7, "silent-receiver"),))
        supervised = SessionSupervisor(spec).run()
        assert _fingerprint(supervised) == _fingerprint(spec.run())


class TestCrashContainment:
    def _crash_once(self, supervisor, at_call):
        supervisor.start()
        original = supervisor.session.run
        calls = {"n": 0}

        def flaky(rounds):
            calls["n"] += 1
            if calls["n"] == at_call:
                raise RuntimeError("injected crash")
            return original(rounds)

        supervisor.session.run = flaky

    def test_restart_replays_to_a_bit_identical_result(self):
        spec = _base(node_strategies=((7, "free-rider"),))
        baseline = SessionSupervisor(
            spec, schedule=(ControlOp("churn", node_id=5, after_round=3),)
        ).run()
        supervisor = SessionSupervisor(
            spec,
            schedule=(ControlOp("churn", node_id=5, after_round=3),),
            max_restarts=1,
        )
        self._crash_once(supervisor, at_call=6)
        result = supervisor.run()
        assert supervisor.restarts == 1
        assert supervisor.state == "stopped"
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_no_restart_budget_fails_fast(self):
        supervisor = SessionSupervisor(_base())
        self._crash_once(supervisor, at_call=3)
        with pytest.raises(SupervisorError, match="injected crash"):
            supervisor.run()
        assert supervisor.state == "failed"
        assert "crashed" in supervisor.error
        ok, detail = supervisor.control(ControlOp("pause"))
        assert not ok and "failed" in detail


class TestValidation:
    def test_worker_replica_policies_are_rejected(self):
        with pytest.raises(SupervisorError, match="serial-schedule"):
            SessionSupervisor(_base(policy="parallel", workers=2))

    def test_population_specs_are_rejected(self):
        with pytest.raises(SupervisorError, match="population"):
            SessionSupervisor(_base(population=20))

    def test_scripted_ops_need_a_boundary(self):
        with pytest.raises(ValueError, match="after_round"):
            SessionSupervisor(
                _base(), schedule=(ControlOp("churn", node_id=5),)
            )

    def test_snapshot_is_not_schedulable(self):
        with pytest.raises(ValueError, match="snapshot"):
            SessionSupervisor(
                _base(),
                schedule=(ControlOp("snapshot", after_round=2),),
            )

    def test_unknown_op_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown control op"):
            ControlOp("reboot")

    def test_failing_scripted_op_aborts_the_run(self):
        supervisor = SessionSupervisor(
            _base(),
            # node 99 does not exist -> the op fails -> scripted runs
            # must abort, not silently diverge from their schedule.
            schedule=(ControlOp("churn", node_id=99, after_round=2),),
        )
        with pytest.raises(SupervisorError, match="scripted op"):
            supervisor.run()
        assert supervisor.state == "failed"


class TestLiveControl:
    def _run_in_thread(self, supervisor):
        holder = {}

        def target():
            try:
                holder["result"] = supervisor.run()
            except SupervisorError as exc:
                holder["error"] = str(exc)

        thread = threading.Thread(target=target)
        thread.start()
        return thread, holder

    def test_pause_resume_snapshot_drain(self):
        supervisor = SessionSupervisor(_base(), round_delay=0.02)
        thread, holder = self._run_in_thread(supervisor)
        try:
            ok, detail = supervisor.control(ControlOp("pause"))
            assert ok and detail == "paused"
            assert supervisor.health().state == "paused"
            frozen = supervisor.rounds_completed
            ok, detail = supervisor.control(ControlOp("snapshot"))
            assert ok
            snap = json.loads(detail)
            assert snap["round"] == supervisor.session.current_round
            assert supervisor.rounds_completed == frozen
            ok, detail = supervisor.control(ControlOp("resume"))
            assert ok and detail == "running"
            ok, detail = supervisor.control(ControlOp("drain"))
            assert ok
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert supervisor.state == "stopped"
        assert "result" in holder

    def test_live_op_failure_is_a_reply_not_a_crash(self):
        supervisor = SessionSupervisor(_base(), round_delay=0.02)
        thread, holder = self._run_in_thread(supervisor)
        try:
            ok, detail = supervisor.control(
                ControlOp("strategy", node_id=7, arg="not-a-strategy")
            )
            assert not ok and "unknown strategy" in detail
            ok, detail = supervisor.control(ControlOp("churn"))
            assert not ok and "needs a node id" in detail
        finally:
            supervisor.stop()
            thread.join(timeout=30)
        assert supervisor.state == "stopped"
        assert "result" in holder


class TestEarlyDrain:
    def test_drain_before_warmup_still_collects(self):
        supervisor = SessionSupervisor(
            _base(), schedule=(ControlOp("drain", after_round=0),)
        )
        result = supervisor.run()
        assert supervisor.state == "stopped"
        assert supervisor.rounds_completed == 1
        # The steady-state window clamps to the round that ran.
        assert result.spec.warmup_rounds == 0
        assert result.node_kbps

    def test_drain_before_any_round_yields_an_empty_result(self):
        supervisor = SessionSupervisor(
            _base(), schedule=(ControlOp("drain", after_round=-1),)
        )
        result = supervisor.run()
        assert supervisor.state == "stopped"
        assert supervisor.rounds_completed == 0
        assert result.node_kbps == {}
        assert result.verdicts == 0


class TestHealth:
    def test_health_shape_tracks_the_run(self):
        supervisor = SessionSupervisor(_base())
        health = supervisor.health()
        assert health.state == "init"
        assert health.nodes == 0
        result = supervisor.run()
        health = supervisor.health()
        assert health.state == "stopped"
        assert health.current_round == supervisor.spec.rounds
        assert health.total_rounds == supervisor.spec.rounds
        assert health.nodes == len(result.session.nodes) + 1
        assert health.restarts == 0
        assert health.subscribers == 0

    def test_state_vocabulary_is_pinned(self):
        assert STATES == (
            "init", "running", "paused", "draining", "stopped", "failed",
        )
