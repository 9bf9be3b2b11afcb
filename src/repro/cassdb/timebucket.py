"""Time-bucketed tables: the data model's one time-series layout (§II-B).

Partition by ``(time bucket, key…)``, cluster by ``ts``: a window read
is one bounded partition read per (bucket, key).  This module is the
only place a ``[t0, t1)`` window is turned into buckets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .errors import SchemaError
from .row import ClusteringBound
from .schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["HOUR", "MINUTE", "TimeBucketedTable"]

HOUR = 3600.0
MINUTE = 60.0


class TimeBucketedTable:
    """A table partitioned by (time bucket, key…), clustered by ``ts``."""

    __slots__ = ("schema", "bucket_column", "width", "key_columns")

    def __init__(self, schema: TableSchema, bucket_column: str,
                 width: float):
        if schema.partition_key[:1] != (bucket_column,):
            raise ValueError(
                f"{schema.name}: {bucket_column!r} must lead the "
                "partition key")
        self.schema = schema
        self.bucket_column = bucket_column
        self.width = float(width)
        self.key_columns = schema.partition_key[1:]

    @property
    def name(self) -> str:
        return self.schema.name

    def bucket(self, ts: float) -> int:
        """The bucket holding *ts*."""
        return int(ts // self.width)

    def buckets(self, t0: float, t1: float) -> range:
        """Exactly the buckets overlapping ``[t0, t1)``; empty when
        ``t1 <= t0``.  A *t1* on a bucket boundary excludes the bucket
        it starts; float ``divmod`` is exact, so this holds at any
        timestamp magnitude."""
        if t1 <= t0:
            return range(0)
        last, offset = divmod(t1, self.width)
        return range(self.bucket(t0), int(last) + (offset > 0))

    def stamp(self, row: dict[str, Any]) -> dict[str, Any]:
        """Set the row's bucket column from its ``ts``."""
        row[self.bucket_column] = self.bucket(row["ts"])
        return row

    def ensure(self, cluster: "Cluster") -> None:
        """Create the table if absent (idempotent)."""
        try:
            cluster.create_table(self.schema)
        except SchemaError:
            pass  # already provisioned

    def partitions(self, cluster: "Cluster", t0: float, t1: float,
                   key: Sequence[Any] | None = None) -> list[tuple]:
        """Partition tuples covering the window, in (bucket, key) order;
        without *key*, the keys stored in the window's buckets."""
        buckets = self.buckets(t0, t1)
        if key is not None or not self.key_columns:
            key = tuple(key or ())
            return [(b, *key) for b in buckets]
        columns = self.schema.partition_key
        found = []
        for ring_key in cluster.partition_keys(self.name):
            values = self.schema.partition_values_from_key(ring_key)
            if values[self.bucket_column] in buckets:
                found.append(tuple(values[c] for c in columns))
        return sorted(found)

    def read(self, cluster: "Cluster", t0: float, t1: float,
             key: Sequence[Any] | None = None) -> Iterator[dict[str, Any]]:
        """Rows with ``t0 <= ts < t1``: one partition read per
        (bucket, key), the ``ts`` bounds pushed down to the store."""
        lower = ClusteringBound((t0,))
        upper = ClusteringBound((t1,), inclusive=False)
        for partition in self.partitions(cluster, t0, t1, key):
            yield from cluster.select_partition(
                self.name, partition, lower=lower, upper=upper)
