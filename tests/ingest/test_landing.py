"""LandingIngestor: topic → micro-batches → time-bucketed tables."""

from repro.bus import MessageBus, Producer
from repro.cassdb import MINUTE, Cluster, TableSchema, TimeBucketedTable
from repro.ingest.landing import LandingIngestor
from repro.sparklet import SparkletContext

TABLE = TimeBucketedTable(
    TableSchema("landed", partition_key=("minute_bucket", "key"),
                clustering_key=("ts",), key_codecs=(("minute_bucket", int),)),
    "minute_bucket", MINUTE)


class _Ingestor(LandingIngestor):
    def __init__(self, bus, cluster, sc, **kw):
        super().__init__(bus, "landing-t", cluster, sc, (TABLE,), **kw)
        self.batches = []

    def shape(self, record):
        if record.get("skip"):
            return None
        return "landed", dict(record)

    def land(self, table, rows):
        self.batches.append(sorted(r["ts"] for r in rows))
        return super().land(table, rows)


def _publish(bus, stamps):
    producer = Producer(bus, default_topic="landing-t")
    for ts in stamps:
        producer.send({"key": "k", "ts": ts}, key="k", timestamp=ts)


def _run(stamps, interval):
    bus = MessageBus()
    bus.ensure_topic("landing-t")
    cluster = Cluster(2)
    sc = SparkletContext(1)
    try:
        ingestor = _Ingestor(bus, cluster, sc, batch_interval=interval,
                             group_id="g")
        _publish(bus, stamps)
        assert ingestor.process_available() == len(stamps)
        ingestor.flush()
        assert ingestor.lag == 0
        return ingestor, list(cluster.scan_table("landed"))
    finally:
        sc.stop()


class TestLanding:
    def test_wall_clock_records_land_stamped(self):
        base = 1_700_000_040.0
        stamps = [base + 0.5, base + 59.5, base + 61.0, base + 125.0]
        ingestor, rows = _run(stamps, interval=1.0)
        assert ingestor.rows == {"landed": 4}
        assert sorted((r["minute_bucket"], r["ts"]) for r in rows) == \
            [(int(ts // MINUTE), ts) for ts in stamps]

    def test_batches_stay_aligned_to_the_interval(self):
        # The clock is rebased to the batch holding the first record,
        # so minute batches still split on minute boundaries.
        base = 1_700_000_040.0
        stamps = [base + 30.0, base + 59.9, base + 60.1, base + 150.0]
        ingestor, _ = _run(stamps, interval=MINUTE)
        assert ingestor.batches == [[base + 30.0, base + 59.9],
                                    [base + 60.1], [base + 150.0]]

    def test_skipped_records_write_nothing(self):
        bus = MessageBus()
        bus.ensure_topic("landing-t")
        cluster = Cluster(2)
        sc = SparkletContext(1)
        try:
            ingestor = _Ingestor(bus, cluster, sc, batch_interval=1.0,
                                 group_id="g")
            Producer(bus, default_topic="landing-t").send(
                {"skip": True, "ts": 5.0}, key="k", timestamp=5.0)
            assert ingestor.process_available() == 1
            ingestor.flush()
            assert ingestor.rows == {"landed": 0}
            assert ingestor.batches == []
        finally:
            sc.stop()
