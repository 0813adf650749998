"""Session supervisor: lifecycle, operator control, crash containment.

A :class:`SessionSupervisor` owns one scenario run end to end::

    INIT -> RUNNING <-> PAUSED -> DRAINING -> STOPPED
                 \\-> FAILED (crash with no restart budget left)

The round loop is synchronous (driven by :meth:`run`, typically on a
worker thread under the asyncio server); operator control arrives from
any thread via :meth:`control` and is applied **only at round
boundaries** — after ``run_round`` returns and before the next round
begins.  Nothing in the engine executes between its round hooks and
the next round's start, so a dynamic op at boundary ``r + 1`` is
bit-identical to the same event declared statically in the spec
(``ChurnEvent(after_round=r)`` / ``JoinEvent`` / ``node_strategies``)
— the differential suite pins this equivalence down.

Crash containment: an exception out of ``run_round`` marks the run
``failed`` unless restart budget remains, in which case the session is
rebuilt from the spec and the *op journal* — every control op applied
so far, stamped with its boundary — is replayed to the crash point.
Replica-from-spec determinism makes the rebuilt session byte-identical
to the lost one.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.wire import HealthReport
from repro.service.events import EventBus
from repro.service.hooks import SessionTap

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioResult, ScenarioSpec

__all__ = ["ControlOp", "SessionSupervisor", "SupervisorError", "STATES"]

#: The lifecycle vocabulary, as reported in health frames and ``state``
#: events.
STATES: Tuple[str, ...] = (
    "init", "running", "paused", "draining", "stopped", "failed",
)

#: Control operations the supervisor accepts (the wire-level
#: ``ControlRequest.op`` vocabulary).
CONTROL_OPS: Tuple[str, ...] = (
    "pause", "resume", "churn", "admit", "strategy", "snapshot", "drain",
)

class SupervisorError(Exception):
    """Unsupported spec or an operation in the wrong lifecycle state."""


@dataclass(frozen=True)
class ControlOp:
    """One operator action.

    ``after_round`` schedules the op: it applies at the boundary right
    after that round completes (mirroring
    :class:`~repro.scenarios.spec.ChurnEvent` semantics); ``-1``
    applies before the first round, and ``None`` — the live-operator
    default — applies at the next boundary the loop reaches.
    """

    op: str
    node_id: Optional[int] = None
    arg: str = ""
    after_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in CONTROL_OPS:
            raise ValueError(
                f"unknown control op {self.op!r}; expected one of "
                f"{list(CONTROL_OPS)}"
            )


@dataclass
class _PendingOp:
    """A queued op plus its completion signal."""

    op: ControlOp
    done: threading.Event = field(default_factory=threading.Event)
    ok: bool = False
    detail: str = ""


class SessionSupervisor:
    """Owns one supervised scenario run.

    Args:
        spec: the scenario to run, on the serial policy (the spec's
            ``policy`` must be None or ``"serial"``).
        schedule: scripted operator ops (each needs ``after_round``);
            the determinism oracle replays a live operator session
            through this.
        bus: event bus to publish on (one is created when omitted).
        max_restarts: crash-containment budget; 0 fails fast.
        round_delay: seconds to sleep between rounds (live-observation
            throttle for ``repro serve``; keep 0 for batch runs).
    """

    def __init__(
        self,
        spec: "ScenarioSpec",
        schedule: Tuple[ControlOp, ...] = (),
        bus: Optional[EventBus] = None,
        max_restarts: int = 0,
        round_delay: float = 0.0,
        manual_membership: bool = False,
    ) -> None:
        if spec.policy == "parallel":
            raise SupervisorError(
                "the service supervisor needs a serial-schedule "
                "execution policy, not 'parallel'; worker processes run "
                "node lifecycles out of reach of boundary ops and hooks"
            )
        if spec.population:
            raise SupervisorError(
                "population-tier scenarios are batch workloads; the "
                "service supervisor does not run them"
            )
        for op in schedule:
            if op.after_round is None:
                raise ValueError(
                    f"scripted op {op.op!r} needs after_round (use -1 "
                    "for before the first round)"
                )
            if op.op == "snapshot":
                raise ValueError(
                    "snapshot is a live-operator query, not a "
                    "schedulable op"
                )
        self.spec = spec
        self.bus = bus if bus is not None else EventBus()
        self.max_restarts = max_restarts
        self.round_delay = round_delay
        #: strip the spec's static membership hook: the operator (or
        #: the scripted schedule) replays joins/leaves via control ops
        #: instead.  Announcement (directory, stable monitor sets,
        #: ``active_from`` views) still comes from the spec's declared
        #: arrivals, so a manual replay at the declared boundaries is
        #: bit-identical to the static schedule.
        self.manual_membership = manual_membership
        self.state = "init"
        self.restarts = 0
        self.rounds_completed = 0
        self.session: Optional[object] = None
        self.tap: Optional[SessionTap] = None
        self.result: Optional["ScenarioResult"] = None
        self.error: Optional[str] = None
        self._schedule: Dict[int, List[ControlOp]] = {}
        for op in schedule:
            boundary = op.after_round + 1  # type: ignore[operator]
            self._schedule.setdefault(boundary, []).append(op)
        #: applied ops by boundary — the restart replay journal.
        self._journal: List[Tuple[int, ControlOp]] = []
        self._pending: List[_PendingOp] = []
        self._cond = threading.Condition()
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _set_state(self, state: str) -> None:
        self.state = state
        data: Dict[str, object] = {
            "state": state,
            "scenario": self.spec.name,
            "restarts": self.restarts,
        }
        if self.error is not None:
            data["error"] = self.error
        self.bus.publish("state", self.rounds_completed, data)

    def start(self) -> None:
        """Build the session and enter ``running`` (idempotent)."""
        if self.state != "init":
            return
        self.session = self._build_session()
        self.tap = SessionTap(self.session, self.bus)
        self.tap.attach()
        self._set_state("running")

    def _build_session(self) -> object:
        session = self.spec.build()
        if self.manual_membership:
            simulator = session.simulator
            simulator.round_hooks = [
                hook
                for hook in simulator.round_hooks
                if not getattr(hook, "membership_hook", False)
            ]
        return session

    def run(self) -> "ScenarioResult":
        """Run the full supervised schedule; blocks until stopped.

        Returns the collected :class:`ScenarioResult`; raises
        :class:`SupervisorError` if the run ultimately failed.
        """
        self.start()
        try:
            while True:
                self._apply_boundary_ops()
                with self._cond:
                    if (
                        self._stop_requested
                        or self.rounds_completed >= self.spec.rounds
                    ):
                        break
                    if self.state == "paused":
                        self._cond.wait(timeout=0.1)
                        continue
                try:
                    self.session.run(1)
                except Exception as exc:  # noqa: B902 - crash containment
                    if not self._attempt_restart(exc):
                        raise SupervisorError(self.error) from exc
                    continue
                self.rounds_completed += 1
                if self.round_delay > 0:
                    time.sleep(self.round_delay)
            self._set_state("draining")
            self._collect()
            self._set_state("stopped")
            return self.result  # type: ignore[return-value]
        finally:
            self._fail_pending("supervisor is no longer running")
            if self.state not in ("stopped", "failed"):
                self.error = self.error or "run aborted"
                self._set_state("failed")

    def stop(self) -> None:
        """Request a clean drain at the next round boundary."""
        with self._cond:
            self._stop_requested = True
            self._cond.notify_all()

    @property
    def finished(self) -> bool:
        return self.state in ("stopped", "failed")

    def _collect(self) -> None:
        import dataclasses

        from repro.scenarios.spec import ScenarioResult

        if self.tap is not None:
            self.tap.detach()
        spec = self.spec
        if self.rounds_completed < spec.rounds:
            # Drained early: the declared steady-state window may not
            # have started yet, so clamp the warmup to the rounds that
            # actually ran and measure those.
            warmup = min(
                spec.warmup_rounds, max(self.rounds_completed - 1, 0)
            )
            spec = dataclasses.replace(spec, warmup_rounds=warmup)
        if self.rounds_completed == 0:
            # Drained before the first round: nothing to measure.
            self.result = ScenarioResult(spec=spec, session=self.session)
            return
        self.result = ScenarioResult.collect(spec, self.session)

    # ------------------------------------------------------------------
    # Crash containment
    # ------------------------------------------------------------------

    def _attempt_restart(self, exc: Exception) -> bool:
        self.error = (
            f"round {self.rounds_completed} crashed: "
            f"{type(exc).__name__}: {exc}"
        )
        if self.restarts >= self.max_restarts:
            self._set_state("failed")
            return False
        self.restarts += 1
        self._set_state("init")
        if self.tap is not None:
            self.tap.detach()
        replay_to = self.rounds_completed
        journal = list(self._journal)
        self.session = self._build_session()
        self.rounds_completed = 0
        # Replay without publishing: observers see a single 'running'
        # transition once the rebuilt session has caught up.
        for boundary, op in (j for j in journal if j[0] == 0):
            self._apply_op(op, journaled=False)
        for round_no in range(replay_to):
            self.session.run(1)
            self.rounds_completed += 1
            for _, op in (
                j for j in journal if j[0] == self.rounds_completed
            ):
                self._apply_op(op, journaled=False)
        self.tap = SessionTap(self.session, self.bus)
        self.tap.attach()
        self.error = None
        self._set_state("running")
        return True

    # ------------------------------------------------------------------
    # Operator control
    # ------------------------------------------------------------------

    def control(
        self, op: ControlOp, timeout: float = 30.0
    ) -> Tuple[bool, str]:
        """Submit one live op; blocks until the loop applies it.

        Thread-safe.  Returns ``(ok, detail)``; ``detail`` carries the
        snapshot JSON for the ``snapshot`` op.
        """
        if self.finished:
            return False, f"supervisor already {self.state}"
        pending = _PendingOp(op=op)
        with self._cond:
            self._pending.append(pending)
            self._cond.notify_all()
        if not pending.done.wait(timeout=timeout):
            return False, "control op timed out awaiting a round boundary"
        return pending.ok, pending.detail

    def _fail_pending(self, reason: str) -> None:
        with self._cond:
            pending, self._pending = self._pending, []
        for entry in pending:
            entry.ok = False
            entry.detail = reason
            entry.done.set()

    def _apply_boundary_ops(self) -> None:
        """Apply scheduled + live ops at the current boundary."""
        boundary = self.rounds_completed
        for op in self._schedule.pop(boundary, ()):  # scripted first
            ok, detail = self._apply_op(op)
            if not ok:
                raise SupervisorError(
                    f"scripted op {op.op!r} at boundary {boundary} "
                    f"failed: {detail}"
                )
        with self._cond:
            pending, self._pending = self._pending, []
        for entry in pending:
            entry.ok, entry.detail = self._apply_op(entry.op)
            entry.done.set()

    def _apply_op(
        self, op: ControlOp, journaled: bool = True
    ) -> Tuple[bool, str]:
        try:
            detail = self._dispatch_op(op)
        except Exception as exc:  # noqa: B902 - op errors are replies
            return False, f"{type(exc).__name__}: {exc}"
        if journaled and op.op not in ("snapshot",):
            self._journal.append((self.rounds_completed, op))
        return True, detail

    def _dispatch_op(self, op: ControlOp) -> str:
        session = self.session
        assert session is not None
        if op.op == "pause":
            if self.state == "running":
                self._set_state("paused")
            return "paused"
        if op.op == "resume":
            if self.state == "paused":
                self._set_state("running")
                with self._cond:
                    self._cond.notify_all()
            return "running"
        if op.op == "drain":
            self.stop()
            return "draining at the next boundary"
        if op.op == "snapshot":
            assert self.tap is not None
            return json.dumps(
                self.tap.snapshot(scenario=self.spec.name),
                sort_keys=True,
            )
        if op.op == "churn":
            self._require_node(op)
            session.remove_node(op.node_id)
            return f"node {op.node_id} removed"
        if op.op == "admit":
            self._require_node(op)
            session.admit_node(op.node_id)
            return f"node {op.node_id} admitted"
        if op.op == "strategy":
            self._require_node(op)
            session.set_behavior(
                op.node_id, _make_behavior(op.arg)
            )
            return f"node {op.node_id} now runs {op.arg!r}"
        raise ValueError(f"unknown control op {op.op!r}")

    @staticmethod
    def _require_node(op: ControlOp) -> None:
        if op.node_id is None:
            raise ValueError(f"op {op.op!r} needs a node id")

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health(self) -> HealthReport:
        """The liveness snapshot; the server sends it as the frame."""
        nodes = 0
        if self.session is not None:
            nodes = len(self.session.nodes) + 1
        return HealthReport(
            state=self.state,
            scenario=self.spec.name,
            current_round=self.rounds_completed,
            total_rounds=self.spec.rounds,
            nodes=nodes,
            subscribers=self.bus.subscriber_count,
            events_published=self.bus.published,
            restarts=self.restarts,
        )


def _make_behavior(strategy: str) -> object:
    """Resolve a strategy name to a behaviour instance.

    ``"correct"`` restores :class:`~repro.core.behavior
    .CorrectBehavior`; anything else resolves through
    :data:`~repro.scenarios.spec.SELFISH_STRATEGIES`.
    """
    from repro.core.behavior import CorrectBehavior
    from repro.scenarios.spec import SELFISH_STRATEGIES

    if strategy in ("", "correct"):
        return CorrectBehavior()
    if strategy not in SELFISH_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'correct' or one "
            f"of {sorted(SELFISH_STRATEGIES)}"
        )
    import repro.adversary.selfish as selfish

    return getattr(selfish, SELFISH_STRATEGIES[strategy])()
