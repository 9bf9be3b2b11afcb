"""Landing ingest: a topic of typed records into time-bucketed tables.

A consumer group polls the topic, records ride a sparklet micro-batch
graph, and each closed batch becomes one ``write_batch`` per table,
every row stamped with its time bucket.  Subclasses supply only
:meth:`LandingIngestor.shape`.  No coalescing: one record, one row.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.bus import ConsumerGroup, MessageBus
from repro.sparklet.streaming import StreamingContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.cassdb import Cluster, TimeBucketedTable
    from repro.sparklet import SparkletContext

__all__ = ["LandingIngestor"]


class LandingIngestor:
    """Consumer group → micro-batches → one ``write_batch`` per table."""

    def __init__(self, bus: MessageBus, topic: str, cluster: "Cluster",
                 sc: "SparkletContext", tables: Iterable["TimeBucketedTable"],
                 *, batch_interval: float, group_id: str):
        self.tables = {table.name: table for table in tables}
        for table in self.tables.values():
            table.ensure(cluster)
        self.cluster = cluster
        # Rows landed per table.
        self.rows = dict.fromkeys(self.tables, 0)
        self._seq = itertools.count()
        self._epoch: float | None = None
        bus.ensure_topic(topic)
        self._group = ConsumerGroup(bus, group_id, topic)
        self._consumer = self._group.join()
        self.ssc = StreamingContext(sc, batch_interval)
        self._input = self.ssc.input_stream()
        self._input.foreachRDD(self._write_batch)

    def shape(self, record: Mapping[str, Any]
              ) -> tuple[str, dict[str, Any]] | None:
        """``(table, row)`` for one record, or None to skip it."""
        raise NotImplementedError

    def land(self, table: str, rows: list[dict[str, Any]]) -> int:
        """Write one batch's rows of one table; returns rows written."""
        return self.cluster.write_batch(table, rows)

    def _write_batch(self, rdd) -> None:
        batches: dict[str, list[dict[str, Any]]] = {t: [] for t in self.tables}
        for record in rdd.collect():
            shaped = self.shape(record)
            if shaped is not None:
                table, row = shaped
                batches[table].append(self.tables[table].stamp(row))
        for table, rows in batches.items():
            if rows:
                self.rows[table] += self.land(table, rows)

    def process_available(self, max_records: int = 100_000) -> int:
        """Poll, run complete batches, commit; returns records polled."""
        records = self._consumer.poll(max_records)
        if not records:
            return 0
        if self._epoch is None:
            # The streaming clock starts at batch 0 and advances one
            # batch at a time: rebase it to the batch holding the first
            # record, so wall-clock timestamps (~1.7e9 s) leave no
            # billions of empty batches to grind through.
            interval = self.ssc.batch_interval
            first = min(r.timestamp for r in records)
            self._epoch = math.floor(first / interval) * interval
        latest = 0.0
        for record in records:
            at = record.timestamp - self._epoch
            self._input.push(record.value, at)
            latest = max(latest, at)
        self.ssc.advance_to(latest)
        self._consumer.commit()
        return len(records)

    def flush(self) -> None:
        """Force the open micro-batch out (freshness over batching)."""
        self.ssc.advance(1)

    @property
    def lag(self) -> int:
        return self._group.lag()
