"""Unit tests for repro.network.source."""

import random

import pytest

from repro.errors import SourceUnavailableError
from repro.network.profiles import NetworkProfile, bursty, dead, lan, wide_area
from repro.network.simclock import SimClock
from repro.network.source import DataSource, make_mirror
from repro.network.wrapper import Wrapper
from repro.storage.tuples import counting_row_constructions

from helpers import make_relation


@pytest.fixture
def relation():
    return make_relation("books", ["isbn:int", "title:str"], [(i, f"t{i}") for i in range(10)])


@pytest.fixture
def source(relation):
    return DataSource("lib", relation, lan())


class TestDataSource:
    def test_exported_schema_is_qualified(self, source):
        assert source.exported_schema.names == ("books.isbn", "books.title")

    def test_cardinality_and_size(self, source, relation):
        assert source.cardinality == 10
        assert source.size_bytes == relation.size_bytes

    def test_set_profile(self, source):
        source.set_profile(dead())
        assert source.profile.unavailable


class TestSourceConnection:
    def test_fetch_streams_all_tuples_in_order(self, source):
        connection = source.open()
        arrivals = []
        while not connection.exhausted:
            row, arrival = connection.fetch()
            arrivals.append(arrival)
        assert len(arrivals) == 10
        assert arrivals == sorted(arrivals)
        assert source.stats.tuples_sent == 10

    def test_next_arrival_matches_fetch(self, source):
        connection = source.open()
        expected = connection.next_arrival()
        _, arrival = connection.fetch()
        assert arrival == expected

    def test_fetch_after_exhaustion_raises(self, source):
        connection = source.open()
        for _ in range(10):
            connection.fetch()
        assert connection.next_arrival() is None
        with pytest.raises(SourceUnavailableError):
            connection.fetch()

    def test_open_at_offset_shifts_arrivals(self, source):
        early = source.open(at_ms=0.0).next_arrival()
        late = source.open(at_ms=1000.0).next_arrival()
        assert late == pytest.approx(early + 1000.0)

    def test_closed_connection_rejects_fetch(self, source):
        connection = source.open()
        connection.close()
        assert connection.closed
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert connection.next_arrival() is None

    def test_unavailable_source_never_arrives(self, relation):
        source = DataSource("dead", relation, dead())
        connection = source.open()
        assert connection.next_arrival() == float("inf")
        assert not connection.exhausted
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert source.stats.failures == 1

    def test_drop_after_tuples_fails_mid_transfer(self, relation):
        profile = NetworkProfile(drop_after_tuples=3)
        source = DataSource("flaky", relation, profile)
        connection = source.open()
        for _ in range(3):
            connection.fetch()
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert connection.remaining() == 0

    def test_remaining_counts_down(self, source):
        connection = source.open()
        assert connection.remaining() == 10
        connection.fetch()
        assert connection.remaining() == 9


def per_row_schedule(profile, sizes, start_ms):
    """The per-row arrival loop every connection open used to run."""
    rng = random.Random(profile.seed)
    arrivals = []
    clock = start_ms + profile.initial_latency_ms
    in_burst = 0
    for size in sizes:
        clock += profile.transfer_ms(size)
        if profile.burst_size > 0:
            in_burst += 1
            if in_burst >= profile.burst_size:
                clock += profile.burst_gap_ms
                in_burst = 0
        jitter = rng.uniform(0.0, profile.jitter_ms) if profile.jitter_ms > 0 else 0.0
        arrivals.append(clock + jitter)
    return arrivals


def expected_schedule(source, start_ms, start_row=0):
    sizes = [row.size_bytes for row in source.relation.qualified().rows[start_row:]]
    return per_row_schedule(source.profile, sizes, start_ms)


PROFILES = {
    "lan": lan(),
    "wide_area": wide_area(seed=11),
    "bursty": bursty(burst_size=7, seed=3),
}


class TestRowFreeOpen:
    @pytest.fixture
    def big(self):
        return make_relation("big", ["k:int", "s:str"], [(i, f"s{i}") for i in range(450)])

    def test_open_boxes_no_rows(self, big):
        source = DataSource("big", big, wide_area())
        with counting_row_constructions() as counter:
            source.open(at_ms=3.0)
            source.open(at_ms=9.0, start_row=100)
            DataSource("dead", big, dead()).open()
            assert counter.count == 0

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("start_ms", [0.0, 17.25, 1234.567])
    @pytest.mark.parametrize("start_row", [0, 1, 213])
    def test_schedule_equals_per_row_loop(self, big, profile, start_ms, start_row):
        source = DataSource("big", big, PROFILES[profile])
        for _ in range(2):  # cold and cached
            connection = source.open(at_ms=start_ms, start_row=start_row)
            assert connection._arrivals == expected_schedule(source, start_ms, start_row)

    def test_drop_after_tuples_keeps_the_schedule(self, big):
        source = DataSource("big", big, wide_area(drop_after_tuples=40, seed=5))
        connection = source.open(at_ms=2.5, start_row=10)
        expected = expected_schedule(source, 2.5, 10)
        delivered = []
        with pytest.raises(SourceUnavailableError):
            while True:
                delivered.append(connection.fetch()[1])
        assert delivered == expected[:30]
        assert connection._arrivals == expected

    def test_unavailable_source_has_no_schedule(self, big):
        source = DataSource("dead", big, dead())
        connection = source.open(at_ms=5.0)
        assert connection._arrivals == []
        assert connection.next_arrival() == float("inf")
        assert connection.remaining() == 0
        assert connection.fetch_block(10) == ([], [])

    def test_cache_follows_set_profile(self, big):
        source = DataSource("big", big, lan())
        source.open(at_ms=1.0)
        source.set_profile(wide_area(seed=2))
        assert source.open(at_ms=1.0)._arrivals == expected_schedule(source, 1.0)
        source.set_profile(bursty())
        assert source.open(at_ms=1.0)._arrivals == expected_schedule(source, 1.0)

    def test_cache_follows_cardinality(self, big):
        source = DataSource("big", big, wide_area(seed=4))
        assert len(source.open()._arrivals) == 450
        big.extend(make_relation("big", ["k:int", "s:str"], [(-1, "x"), (-2, "y")]).rows)
        connection = source.open(at_ms=4.0)
        assert len(connection._arrivals) == 452
        assert connection._arrivals == expected_schedule(source, 4.0)
        assert connection.remaining() == 452

    def test_fetched_rows_carry_the_qualified_schema(self, big):
        source = DataSource("big", big, lan())
        qualified = ("big.k", "big.s")
        row, arrival = source.open().fetch()
        assert row.schema.names == qualified
        assert row.values == (0, "s0") and row.arrival == arrival
        wrapper = Wrapper(source, SimClock())
        wrapper.open(start_row=5)
        assert wrapper.fetch().schema.names == qualified
        rows = wrapper.fetch_batch(10)
        assert [r.values for r in rows] == [(i, f"s{i}") for i in range(6, 16)]
        assert all(r.schema.names == qualified for r in rows)


class TestMakeMirror:
    def test_full_mirror_has_same_rows(self, source):
        mirror = make_mirror(source, "mirror", lan())
        assert mirror.cardinality == source.cardinality
        assert mirror.relation.name == source.relation.name

    def test_partial_mirror_subset(self, source):
        mirror = make_mirror(source, "partial", lan(), coverage=0.5, seed=3)
        assert 0 < mirror.cardinality <= source.cardinality
        source_keys = set(source.relation.column("isbn"))
        assert set(mirror.relation.column("isbn")) <= source_keys

    def test_partial_mirror_deterministic(self, source):
        a = make_mirror(source, "m1", lan(), coverage=0.5, seed=3)
        b = make_mirror(source, "m2", lan(), coverage=0.5, seed=3)
        assert a.relation.multiset() == b.relation.multiset()

    def test_invalid_coverage_rejected(self, source):
        with pytest.raises(ValueError):
            make_mirror(source, "bad", lan(), coverage=0.0)
