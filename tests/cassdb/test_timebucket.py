"""TimeBucketedTable: exact bucket arithmetic, window reads, stamping."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassdb import (
    HOUR,
    MINUTE,
    Cluster,
    TableSchema,
    TimeBucketedTable,
)
from repro.core.model import APPLICATION_BY_TIME, LogDataModel
from repro.genlog.jobs import ApplicationRun

WIDTHS = (MINUTE, HOUR)
ORIGINS = (0.0, 1.7e9)  # simulation time and wall-clock time


def _table(width):
    return TimeBucketedTable(
        TableSchema("t", partition_key=("bucket", "key"),
                    clustering_key=("ts", "seq"),
                    key_codecs=(("bucket", int),)),
        "bucket", width)


@st.composite
def instants(draw, width, origin):
    """A float near *origin*: anywhere, exactly on a bucket boundary,
    or one ulp either side of one."""
    first = int(origin // width)
    boundary = (first + draw(st.integers(-3, 3))) * width
    return draw(st.one_of(
        st.floats(origin - 3 * width, origin + 3 * width,
                  allow_nan=False, allow_infinity=False),
        st.just(boundary),
        st.just(math.nextafter(boundary, -math.inf)),
        st.just(math.nextafter(boundary, math.inf)),
    ))


@st.composite
def windows(draw):
    width = draw(st.sampled_from(WIDTHS))
    origin = draw(st.sampled_from(ORIGINS))
    return (width, draw(instants(width, origin)),
            draw(instants(width, origin)))


def _brute_force(width, t0, t1):
    """Every bucket b with [b*w, (b+1)*w) overlapping [t0, t1), in
    exact rational arithmetic."""
    w, lo, hi = Fraction(width), Fraction(t0), Fraction(t1)
    if hi <= lo:
        return []
    return [b for b in range(math.floor(lo / w) - 1, math.floor(hi / w) + 2)
            if b * w < hi and (b + 1) * w > lo]


class TestBucketArithmetic:
    @settings(max_examples=400)
    @given(windows())
    def test_buckets_equal_brute_force(self, window):
        width, t0, t1 = window
        assert list(_table(width).buckets(t0, t1)) == \
            _brute_force(width, t0, t1)

    @settings(max_examples=200)
    @given(windows())
    def test_bucket_is_exact_floor(self, window):
        width, ts, _ = window
        assert _table(width).bucket(ts) == \
            math.floor(Fraction(ts) / Fraction(width))

    def test_wall_clock_window_ending_on_a_minute(self):
        # t1 - 1e-9 == t1 at this magnitude: the old expansion read the
        # minute that starts at t1.
        t1 = 1_700_000_040.0
        assert t1 - 1e-9 == t1
        assert list(_table(MINUTE).buckets(t1 - 90.0, t1)) == \
            [28333332, 28333333]

    @pytest.mark.parametrize("t0,t1", [(5.0, 5.0), (7.0, 3.0)])
    def test_empty_window_has_no_buckets(self, t0, t1):
        assert len(_table(MINUTE).buckets(t0, t1)) == 0

    def test_bucket_column_must_lead_partition_key(self):
        schema = TableSchema("t", partition_key=("key", "bucket"),
                             clustering_key=("ts",))
        with pytest.raises(ValueError):
            TimeBucketedTable(schema, "bucket", MINUTE)


class TestRuns:
    @pytest.mark.parametrize("start", [0.0, 5400.0, 7200.0, 1.7e9 + 1800.0])
    def test_zero_length_run_lands_in_its_start_hour(self, start):
        cluster = Cluster(2)
        model = LogDataModel(cluster)
        model.create_tables()
        run = ApplicationRun(apid=1, app="a", user="u", start=start,
                             end=start, nodes=("c0-0c0s0n0",),
                             exit_status="OK")
        model.write_applications([run])
        rows = list(cluster.scan_table("application_by_time"))
        assert [r["hour"] for r in rows] == \
            [APPLICATION_BY_TIME.bucket(start)]
        assert rows[0]["is_start"]

    def test_run_ending_on_the_hour_skips_the_next_hour(self):
        cluster = Cluster(2)
        model = LogDataModel(cluster)
        model.create_tables()
        start = 1.7e9 - 1.7e9 % HOUR + 600.0
        run = ApplicationRun(apid=1, app="a", user="u", start=start,
                             end=start - 600.0 + 2 * HOUR,
                             nodes=("c0-0c0s0n0",), exit_status="OK")
        model.write_applications([run])
        hours = sorted(r["hour"] for r in
                       cluster.scan_table("application_by_time"))
        first = APPLICATION_BY_TIME.bucket(start)
        assert hours == [first, first + 1]


class TestWindowRead:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster(3, replication_factor=2)
        table = _table(MINUTE)
        table.ensure(cluster)
        table.ensure(cluster)  # idempotent
        rows = [table.stamp({"key": key, "ts": ts, "seq": i})
                for i, (key, ts) in enumerate(
                    (k, t) for k in ("a", "b")
                    for t in (59.0, 60.0, 61.5, 119.9, 120.0, 200.0))]
        cluster.write_batch("t", rows)
        yield cluster
        cluster.close()

    def test_stamp_sets_bucket_from_ts(self):
        assert _table(MINUTE).stamp({"ts": 119.9}) == \
            {"ts": 119.9, "bucket": 1}

    def test_read_one_key_pushes_bounds(self, cluster):
        rows = list(_table(MINUTE).read(cluster, 60.0, 120.0, ("a",)))
        assert [r["ts"] for r in rows] == [60.0, 61.5, 119.9]
        assert {r["key"] for r in rows} == {"a"}

    def test_read_without_key_lists_stored_keys(self, cluster):
        table = _table(MINUTE)
        assert table.partitions(cluster, 61.0, 130.0) == \
            [(1, "a"), (1, "b"), (2, "a"), (2, "b")]
        rows = list(table.read(cluster, 61.0, 130.0))
        assert [(r["bucket"], r["key"], r["ts"]) for r in rows] == [
            (1, "a", 61.5), (1, "a", 119.9), (1, "b", 61.5),
            (1, "b", 119.9), (2, "a", 120.0), (2, "b", 120.0)]

    def test_read_of_empty_window_is_empty(self, cluster):
        assert list(_table(MINUTE).read(cluster, 120.0, 60.0)) == []
