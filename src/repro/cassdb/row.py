"""Row and cell model for the column-oriented store.

A *partition* (paper Fig 1) is a wide data row addressed by a hashed
partition key; inside it live many CQL rows ordered by clustering key
(for the event tables, the event timestamp).  Each row is a flexible
mapping of column name to :class:`Cell` — flexible because, as §II-B
notes, "each application run may include columns unique to it".

Cells carry a write timestamp so replicas can reconcile divergent
copies with last-write-wins, the same conflict-resolution rule
Cassandra uses; the cluster layer's read-repair relies on
:func:`merge_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = ["Cell", "Row", "ClusteringBound", "merge_rows"]


@dataclass(frozen=True, slots=True)
class Cell:
    """A single column value plus its write timestamp (microseconds)."""

    value: Any
    write_ts: int = 0

    def reconcile(self, other: "Cell") -> "Cell":
        """Last-write-wins; value comparison tie-breaks equal timestamps.

        The tie-break keeps reconciliation commutative and deterministic —
        two replicas merging in either order agree — matching Cassandra's
        lexically-greater-value rule for timestamp ties.
        """
        if other.write_ts != self.write_ts:
            return other if other.write_ts > self.write_ts else self
        return other if repr(other.value) > repr(self.value) else self


@dataclass(slots=True)
class Row:
    """A CQL row: a clustering key plus named cells.

    ``clustering`` is a tuple so rows order naturally inside a partition;
    the event tables cluster on ``(timestamp, seq)`` giving the one-hour
    time series layout of Fig 1.
    """

    clustering: tuple
    cells: dict[str, Cell] = field(default_factory=dict)
    tombstone_ts: int | None = None  # row-level deletion marker
    marker_ts: int | None = None  # row marker of a cell-less INSERT

    @classmethod
    def from_values(
        cls, clustering: tuple, values: Mapping[str, Any], write_ts: int = 0
    ) -> "Row":
        return cls(
            clustering=tuple(clustering),
            cells={name: Cell(val, write_ts) for name, val in values.items()},
        )

    @property
    def is_deleted(self) -> bool:
        return self.tombstone_ts is not None

    @property
    def is_live(self) -> bool:
        """A row is served by reads if it has cells or a row marker newer
        than any tombstone (after :func:`merge_rows`, the surviving cells
        and marker are exactly those) or was never deleted.

        An INSERT that names only primary-key columns writes no cells, so
        it stamps the row marker with its write timestamp instead.  A
        later INSERT therefore resurrects a deleted row, with or without
        regular columns, as in Cassandra."""
        return (bool(self.cells) or self.marker_ts is not None
                or self.tombstone_ts is None)

    def value(self, column: str, default: Any = None) -> Any:
        cell = self.cells.get(column)
        return default if cell is None else cell.value

    def as_dict(self) -> dict[str, Any]:
        """Plain ``column -> value`` view (no timestamps), for query results."""
        return {name: cell.value for name, cell in self.cells.items()}

    def columns(self) -> Iterator[str]:
        return iter(self.cells)


def merge_rows(a: Row, b: Row) -> Row:
    """Reconcile two replica copies of the same row (same clustering key).

    Column-wise last-write-wins; a row tombstone shadows any cell and
    row marker written at or before the tombstone's timestamp.
    """
    if a.clustering != b.clustering:
        raise ValueError("cannot merge rows with different clustering keys")
    tombstone = max(
        (ts for ts in (a.tombstone_ts, b.tombstone_ts) if ts is not None),
        default=None,
    )
    merged: dict[str, Cell] = {}
    for name in a.cells.keys() | b.cells.keys():
        ca, cb = a.cells.get(name), b.cells.get(name)
        if ca is None:
            cell = cb
        elif cb is None:
            cell = ca
        else:
            cell = ca.reconcile(cb)
        assert cell is not None
        if tombstone is None or cell.write_ts > tombstone:
            merged[name] = cell
    marker = max(
        (ts for ts in (a.marker_ts, b.marker_ts) if ts is not None),
        default=None,
    )
    if marker is not None and tombstone is not None and marker <= tombstone:
        marker = None
    return Row(clustering=a.clustering, cells=merged, tombstone_ts=tombstone,
               marker_ts=marker)


@dataclass(frozen=True, slots=True)
class ClusteringBound:
    """An inclusive/exclusive bound on clustering keys for range scans.

    Supports prefix bounds: a bound ``(ts,)`` against clustering keys
    ``(ts, seq)`` compares on the shared prefix only, which is how CQL's
    ``WHERE ts >= x`` behaves on a multi-column clustering key.
    """

    key: tuple
    inclusive: bool = True

    def admits_lower(self, clustering: tuple) -> bool:
        """True if *clustering* is >= (or >) this bound (as a lower bound).

        Exclusive prefix semantics match CQL: ``WHERE ts > 5`` rejects every
        row whose ts equals 5, whatever the remaining clustering columns.
        """
        prefix = clustering[: len(self.key)]
        if prefix != self.key:
            return prefix > self.key
        return self.inclusive

    def admits_upper(self, clustering: tuple) -> bool:
        """True if *clustering* is <= (or <) this bound (as an upper bound)."""
        prefix = clustering[: len(self.key)]
        if prefix != self.key:
            return prefix < self.key
        # Prefix matches the bound: inclusive admits it, exclusive rejects.
        return self.inclusive
