"""Tests for membership directory and per-round views."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.directory import Directory
from repro.membership.views import ViewProvider, default_fanout
from repro.sim.rng import SeedSequence


def make_views(n=20, fanout=3, monitors=3, seed=1):
    directory = Directory.of_size(n)
    return ViewProvider(
        directory=directory,
        seeds=SeedSequence(seed),
        fanout=fanout,
        monitors_per_node=monitors,
    )


class TestDirectory:
    def test_of_size(self):
        d = Directory.of_size(5)
        assert d.size == 5
        assert d.source_id == 0
        assert d.consumers() == [1, 2, 3, 4]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Directory.of_size(1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Directory(members=[1, 1, 2])

    def test_rejects_foreign_source(self):
        with pytest.raises(ValueError):
            Directory(members=[1, 2], source_id=9)

    def test_others(self):
        d = Directory.of_size(4)
        assert d.others(2) == [0, 1, 3]

    def test_contains_and_len(self):
        d = Directory.of_size(4)
        assert 3 in d
        assert 4 not in d
        assert len(d) == 4


class TestDefaultFanout:
    def test_paper_settings(self):
        assert default_fanout(1000) == 3  # section VII-A
        assert default_fanout(10**6) == 6  # Fig. 9 scaling
        assert default_fanout(432) == 3  # the deployment
        assert default_fanout(10) == 3  # floor

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            default_fanout(1)


class TestSuccessors:
    def test_count_and_exclusions(self):
        views = make_views()
        succ = views.successors(5, round_no=0)
        assert len(succ) == 3
        assert 5 not in succ
        assert 0 not in succ  # the source is never served

    def test_deterministic(self):
        assert make_views().successors(5, 3) == make_views().successors(5, 3)

    def test_varies_across_rounds(self):
        views = make_views(n=100)
        picks = {tuple(views.successors(5, r)) for r in range(10)}
        assert len(picks) > 1

    def test_distinct_members(self):
        views = make_views()
        succ = views.successors(7, 2)
        assert len(set(succ)) == len(succ)

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            make_views(n=4, fanout=4)
        with pytest.raises(ValueError):
            make_views(n=4, fanout=0)

    def test_uniformity_chi_square(self):
        # Aggregate successor picks over many rounds; Pearson's statistic
        # against uniform should stay below a generous chi-square bound
        # for 47 dof (~83 at 99.9%).
        views = make_views(n=50, seed=9)
        counts = Counter()
        for rnd in range(200):
            counts.update(views.successors(10, rnd))
        population = [m for m in range(50) if m not in (0, 10)]
        assert set(counts) <= set(population)
        expected = sum(counts.values()) / len(population)
        stat = sum(
            (counts[member] - expected) ** 2 / expected
            for member in population
        )
        assert stat < 100.0


class TestPredecessors:
    def test_inverts_successors(self):
        views = make_views(n=30)
        for node in range(30):
            for succ in views.successors(node, 4):
                assert node in views.predecessors(succ, 4)

    def test_every_predecessor_listed_chose_the_node(self):
        views = make_views(n=30)
        for node in range(1, 30):
            for pred in views.predecessors(node, 4):
                assert node in views.successors(pred, 4)

    def test_source_receives_nothing(self):
        views = make_views(n=30)
        assert views.predecessors(0, 1) == []

    def test_mean_predecessor_count_equals_fanout(self):
        views = make_views(n=50, fanout=3)
        consumers = views.directory.consumers()
        total = sum(len(views.predecessors(c, 2)) for c in consumers)
        # 50 nodes each pick 3 successors among 49 consumers.
        assert total == 50 * 3


class TestMonitors:
    def test_stable_across_rounds(self):
        views = make_views()
        assert views.monitors(5) == views.monitors(5)

    def test_count_and_exclusions(self):
        views = make_views(monitors=4)
        mons = views.monitors(7)
        assert len(mons) == 4
        assert 7 not in mons
        assert 0 not in mons

    def test_monitored_by_inverts(self):
        views = make_views(n=15)
        for node in range(15):
            for mon in views.monitors(node):
                assert node in views.monitored_by(mon)
        watched = views.monitored_by(3)
        views.monitored_by(3).clear()  # a caller's copy, not the cache
        assert views.monitored_by(3) == watched != []

    def test_validation(self):
        with pytest.raises(ValueError):
            make_views(n=4, monitors=0)


def test_prune_rounds_before():
    views = make_views()
    before = views.successors(1, 0)
    views.predecessors(1, 0)
    views.successors(1, 5)
    views.prune_rounds_before(3)
    for cache in (
        views._successor_cache,
        views._predecessor_cache,
        views._eligible_cache,
    ):
        assert 0 not in cache
    assert 5 in views._successor_cache and 5 in views._eligible_cache
    # A pruned round is redrawn, identically, and pruned again.
    assert views.successors(1, 0) == before
    assert 0 in views._eligible_cache
    views.prune_rounds_before(3)
    assert 0 not in views._successor_cache
    assert 0 not in views._eligible_cache


def test_monitored_by_equals_the_per_monitor_scan():
    views = make_views(n=40, monitors=4)
    members = views.directory.members
    for monitor in members:
        assert views.monitored_by(monitor) == [
            m for m in members if monitor in views.monitors(m)
        ]
    assert views.monitored_by(0) == []  # the source monitors nobody


@given(st.integers(min_value=5, max_value=60), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_views_property_successors_well_formed(n, seed):
    views = ViewProvider(
        directory=Directory.of_size(n),
        seeds=SeedSequence(seed),
        fanout=min(3, n - 2) or 1,
        monitors_per_node=min(3, n - 2) or 1,
    )
    for node in range(0, n, max(1, n // 5)):
        succ = views.successors(node, 1)
        assert node not in succ
        assert 0 not in succ
        assert len(set(succ)) == len(succ)


def _reference_successors(views, node_id, round_no):
    """The draw as it stood before the per-round eligible list: one
    filtered copy of the membership per node per round."""
    active = views.active_from
    if active.get(node_id, 0) > round_no:
        return []
    rng = views.seeds.stream("succ", node_id, round_no)
    candidates = [
        m
        for m in views.directory.members
        if m != node_id
        and m != views.directory.source_id
        and active.get(m, 0) <= round_no
    ]
    return sorted(rng.sample(candidates, min(views.fanout, len(candidates))))


@given(
    n=st.integers(min_value=3, max_value=300),
    seed=st.integers(0, 2**16),
    fanout=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_successors_equal_the_reference_draw(n, seed, fanout, data):
    """Bit-identical draws through the index-shifting view on both of
    ``random.sample``'s branches (it copies a population of up to 21,
    i.e. N <= 23 at fanout 3, and indexes a larger one), with arrivals
    thinning the early rounds and the source, which is in no eligible
    list, as a caller."""
    arrivals = data.draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=n - 1),
            st.integers(min_value=1, max_value=3),
            max_size=n // 2,
        )
    )
    views = ViewProvider(
        directory=Directory.of_size(n),
        seeds=SeedSequence(seed),
        fanout=min(fanout, n - 1),
        monitors_per_node=1,
        active_from=arrivals,
    )
    callers = sorted(
        {0, 1, n // 2, n - 1}
        | set(data.draw(st.lists(st.integers(0, n - 1), max_size=6)))
    )
    for round_no in range(4):
        for node in callers:
            drawn = views.successors(node, round_no)
            assert drawn == _reference_successors(views, node, round_no)
            drawn.clear()  # a caller's copy, not the cache
            assert views.successors(node, round_no) == (
                _reference_successors(views, node, round_no)
            )


def _reference_monitors(views, node_id):
    """The draw as it stood while ``monitors()`` built its candidates:
    one filtered copy of the membership per node."""
    rng = views.seeds.stream("mon", node_id)
    candidates = [
        m
        for m in views.directory.members
        if m != node_id and m != views.directory.source_id
    ]
    return sorted(
        rng.sample(candidates, min(views.monitors_per_node, len(candidates)))
    )


@given(
    n=st.integers(min_value=3, max_value=300),
    seed=st.integers(0, 2**16),
    monitors=st.integers(min_value=1, max_value=7),
    source=st.sampled_from(["first", "middle", "last", None]),
)
@settings(max_examples=60, deadline=None)
def test_monitors_equal_the_reference_draw(n, seed, monitors, source):
    """Bit-identical monitor sets through the doubly index-shifted view,
    on both of ``random.sample``'s branches, for every member (the
    source, whose two skips coincide, included), a source at either end
    of the id range or absent, and a caller outside the membership."""
    members = list(range(0, 2 * n, 2))
    source_id = {
        "first": members[0],
        "middle": members[n // 2],
        "last": members[-1],
        None: None,
    }[source]
    views = ViewProvider(
        directory=Directory(members=members, source_id=source_id),
        seeds=SeedSequence(seed),
        fanout=1,
        monitors_per_node=min(monitors, n - 1),
    )
    for node in members + [1, 2 * n + 1]:
        drawn = views.monitors(node)
        assert drawn == _reference_monitors(views, node)
        drawn.clear()  # a caller's copy, not the cache
        assert views.monitors(node) == _reference_monitors(views, node)
