"""The Nash-equilibrium argument of section VI-B, made executable.

The paper claims "PAG is a Nash equilibrium, which means that selfish
nodes have no interest in deviating from the protocol": every unilateral
deviation is detected, detection produces a proof, and the punished node
loses the stream — so any bandwidth saved is dominated by the benefit
lost.

This module defines the utility function and evaluates concrete
deviations by running the packet-level protocol: a deviation's utility
is computed from the deviator's *measured* bandwidth, *measured*
playback continuity, and whether the monitoring infrastructure convicted
it.  The claim is verified (not assumed) by
``tests/analysis/test_nash.py`` over the whole deviation catalogue of
:mod:`repro.adversary.selfish`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.behavior import Behavior
from repro.core.config import PagConfig
from repro.core.session import PagSession

__all__ = ["UtilityModel", "DeviationOutcome", "evaluate_deviation"]


@dataclass(frozen=True)
class UtilityModel:
    """Utility = stream benefit - bandwidth cost - punishment.

    Attributes:
        benefit_per_continuity: value of watching the full stream; the
            dominant term — users run the application because they want
            the content (section II-A).
        cost_per_kbps: disutility of one Kbps of sustained bandwidth
            (what a selfish node is trying to save).
        punishment: utility lost upon conviction — in deployed
            accountable systems, expulsion, i.e. the whole future
            benefit of the stream.
    """

    benefit_per_continuity: float = 100.0
    cost_per_kbps: float = 0.01
    punishment: float = 100.0

    def utility(
        self, continuity: float, bandwidth_kbps: float, convicted: bool
    ) -> float:
        value = (
            self.benefit_per_continuity * continuity
            - self.cost_per_kbps * bandwidth_kbps
        )
        if convicted:
            value -= self.punishment
        return value


@dataclass(frozen=True)
class DeviationOutcome:
    """Measured result of one deviation experiment."""

    deviation: str
    correct_utility: float
    deviant_utility: float
    deviant_convicted: bool
    correct_bandwidth_kbps: float
    deviant_bandwidth_kbps: float
    bandwidth_saved_kbps: float

    @property
    def deviation_profitable(self) -> bool:
        """True would falsify the Nash-equilibrium claim."""
        return self.deviant_utility > self.correct_utility


def evaluate_deviation(
    behavior: Behavior,
    n_nodes: int = 20,
    rounds: int = 16,
    deviant_id: int = 7,
    model: Optional[UtilityModel] = None,
    config: Optional[PagConfig] = None,
) -> DeviationOutcome:
    """Run the same session twice — all-correct, then with one deviant —
    and compare the deviant's utilities.

    Both runs share the seed, so the topology, stream and randomness are
    identical; only the deviant's behaviour differs (the definition of a
    unilateral deviation).
    """
    model = model or UtilityModel()

    baseline = PagSession.create(n_nodes, config=config)
    baseline.run(rounds)
    correct_bw = baseline.bandwidth_kbps(direction="both")[deviant_id]
    correct_continuity = baseline.playback_report(deviant_id).continuity
    correct_utility = model.utility(
        correct_continuity, correct_bw, convicted=False
    )

    deviant_session = PagSession.create(
        n_nodes, config=config, behaviors={deviant_id: behavior}
    )
    deviant_session.run(rounds)
    deviant_bw = deviant_session.bandwidth_kbps(direction="both")[deviant_id]
    deviant_continuity = deviant_session.playback_report(
        deviant_id
    ).continuity
    convicted = deviant_id in deviant_session.convicted_nodes()
    deviant_utility = model.utility(
        deviant_continuity, deviant_bw, convicted=convicted
    )

    return DeviationOutcome(
        deviation=type(behavior).__name__,
        correct_utility=correct_utility,
        deviant_utility=deviant_utility,
        deviant_convicted=convicted,
        correct_bandwidth_kbps=correct_bw,
        deviant_bandwidth_kbps=deviant_bw,
        bandwidth_saved_kbps=correct_bw - deviant_bw,
    )
