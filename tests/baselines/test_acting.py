"""Tests for the AcTinG baseline."""

from collections import Counter

import pytest

from repro.baselines.acting import ActingConfig, ActingServe, ActingSession


class _Receptions:
    """Counts every copy of an update delivered to a node."""

    def __init__(self) -> None:
        self.copies: Counter = Counter()

    def observe(self, message, size):
        if type(message) is ActingServe:
            for update in message.updates:
                self.copies[message.recipient, update.uid] += 1


@pytest.fixture(scope="module")
def receptions():
    return _Receptions()


@pytest.fixture(scope="module")
def honest_session(receptions):
    s = ActingSession.create(30)
    s.simulator.network.add_tap(receptions)
    s.run(15)
    return s


class TestHonestActing:
    def test_no_false_positives(self, honest_session):
        assert honest_session.all_verdicts() == []

    def test_content_disseminates(self, honest_session):
        released = {
            u.uid
            for u in honest_session.source.released
            if u.round_created <= 6
        }
        delivered = sum(
            1
            for node in honest_session.nodes.values()
            for uid in released
            if node.store.ever_received(uid)
        )
        coverage = delivered / (len(released) * len(honest_session.nodes))
        assert coverage > 0.9

    def test_bandwidth_near_paper_value(self, honest_session):
        """Paper: AcTinG averages ~460 Kbps for a 300 Kbps stream."""
        mean_down = honest_session.mean_bandwidth_kbps(5, "down")
        assert 300 < mean_down < 700

    def test_no_duplicate_payload_across_rounds(
        self, honest_session, receptions
    ):
        """The request negotiation prevents cross-round duplicates; only
        same-round simultaneous proposals cause extra copies."""
        for node in list(honest_session.nodes.values())[:5]:
            for uid in list(node.store._arrival_round)[:50]:
                assert receptions.copies[node.node_id, uid] <= 4

    def test_logs_grow_and_chain_verifies(self, honest_session):
        from repro.baselines.securelog import verify_segment

        node = honest_session.nodes[3]
        assert len(node.log) > 0
        assert verify_segment(node.log.segment(0))


class TestSelfishActing:
    def test_free_rider_is_convicted(self):
        s = ActingSession.create(30, selfish_nodes={7})
        s.run(15)
        assert s.convicted_nodes() == {7}

    def test_free_rider_saves_bandwidth(self):
        honest = ActingSession.create(30)
        honest.run(12)
        selfish = ActingSession.create(30, selfish_nodes={7})
        selfish.run(12)
        up_honest = honest.bandwidth_kbps(direction="up")[7]
        up_selfish = selfish.bandwidth_kbps(direction="up")[7]
        assert up_selfish < up_honest

    def test_multiple_free_riders(self):
        s = ActingSession.create(30, selfish_nodes={5, 11, 17})
        s.run(15)
        assert s.convicted_nodes() == {5, 11, 17}

    def test_log_forger_caught_by_chain_verification(self):
        """A cheater shipping a rewritten log segment: the hash chain
        commits to the deleted entries, so the first audit convicts."""
        s = ActingSession.create(30, forging_nodes={9})
        s.run(15)
        assert 9 in s.convicted_nodes()
        assert s.convicted_nodes() == {9}
        reasons = [
            v.evidence
            for v in s.all_verdicts()
            if v.node == 9 and "chain" in v.evidence
        ]
        assert reasons, "conviction must come from chain verification"


class TestPrivacyLeak:
    def test_audits_expose_interactions_in_clear(self):
        """The reason PAG exists: an AcTinG auditor reads partner ids
        and update ids straight out of the audited log."""
        s = ActingSession.create(20)
        s.run(12)
        leaked = False
        for node in s.nodes.values():
            for _audited, entries in node.audited_knowledge.items():
                for entry in entries:
                    if entry.update_uids:
                        leaked = True
                        assert isinstance(entry.partner, int)
        assert leaked, "audits never transferred any interaction record"


def test_acting_config_defaults():
    cfg = ActingConfig()
    assert cfg.fanout == 3
    assert 0 < cfg.audit_probability <= 1
