"""Tests for updates, stores and the source schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.source import StreamSchedule
from repro.gossip.updates import Update, UpdateStore, content_integer


def make_update(uid, created=0, ttl=10, size=938):
    return Update(
        uid=uid,
        round_created=created,
        expiry_round=created + ttl,
        payload_bytes=size,
    )


class TestContentInteger:
    def test_deterministic(self):
        assert content_integer(5) == content_integer(5)

    def test_distinct_per_uid_and_session(self):
        assert content_integer(5) != content_integer(6)
        assert content_integer(5, session=1) != content_integer(5, session=2)

    def test_width_is_1024_bits(self):
        assert content_integer(123).bit_length() == 1024

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_always_odd_and_wide(self, uid):
        c = content_integer(uid)
        assert c % 2 == 1
        assert c.bit_length() == 1024


class TestUpdate:
    def test_expiry_logic(self):
        u = make_update(1, created=0, ttl=10)
        assert not u.is_expired(10)
        assert u.is_expired(11)
        assert not u.expires_next_round(8)
        assert u.expires_next_round(9)
        assert u.expires_next_round(10)

    def test_content_matches_uid(self):
        u = make_update(7)
        assert u.content == content_integer(7)


class TestUpdateStore:
    def test_add_and_dedup(self):
        store = UpdateStore()
        u = make_update(1)
        assert store.add(u, round_no=0) is True
        assert store.add(u, round_no=1) is False
        assert len(store) == 1
        assert store.arrival_round(1) == 0

    def test_recent_uids_window(self):
        store = UpdateStore()
        for rnd in range(6):
            store.add(make_update(rnd), rnd)
        assert store.recent_uids(current_round=5, depth=4) == {2, 3, 4, 5}

    def test_drop_expired(self):
        store = UpdateStore()
        store.add(make_update(1, created=0, ttl=2), 0)
        store.add(make_update(2, created=5, ttl=10), 5)
        dropped = store.drop_expired(current_round=3)
        assert dropped == 1
        assert 1 not in store
        assert 2 in store
        # Arrival history survives eviction (playback metrics need it).
        assert store.ever_received(1)
        assert store.arrival_round(1) == 0
        assert len(store._arrival_round) == 2


class TestStreamSchedule:
    def test_rate_matches_over_time(self):
        # 300 Kbps at 938 B -> 39.97 chunks/round on average.
        sched = StreamSchedule(rate_kbps=300.0)
        total = sum(len(sched.release(r)) for r in range(100))
        expected = 300_000 * 100 / (938 * 8)
        assert abs(total - expected) <= 1

    def test_uids_are_sequential(self):
        sched = StreamSchedule(rate_kbps=80.0)
        first = sched.release(0)
        second = sched.release(1)
        uids = [u.uid for u in first + second]
        assert uids == list(range(len(uids)))

    def test_expiry_set_from_playout_delay(self):
        sched = StreamSchedule(rate_kbps=80.0, playout_delay_rounds=10)
        for u in sched.release(4):
            assert u.expiry_round == 14

    def test_validations(self):
        with pytest.raises(ValueError):
            StreamSchedule(rate_kbps=0)
        with pytest.raises(ValueError):
            StreamSchedule(rate_kbps=10, update_bytes=0)
        with pytest.raises(ValueError):
            StreamSchedule(rate_kbps=10, playout_delay_rounds=0)

    @given(st.floats(min_value=10, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_release_rate_property(self, rate):
        sched = StreamSchedule(rate_kbps=rate)
        total = sum(len(sched.release(r)) for r in range(50))
        expected = rate * 1000 * 50 / (938 * 8)
        assert abs(total - expected) <= 1
