"""Typed alerts and their pipeline: bus topic → ``alerts_by_time``.

An :class:`Alert` is the detection subsystem's unit of output — a
severity-tagged, scored claim about one (detector, key, window).  The
engine publishes alerts to the dedicated ``alerts`` bus topic exactly
like event producers publish occurrences; an :class:`AlertIngestor`
consumer group lands them in the minute-bucketed ``alerts_by_time``
cassdb table via ``write_batch`` — the same streaming-ingest shape
events and self-ingested telemetry already ride, so alerts are
queryable (``alerts`` / ``alert_summary`` server ops) the moment the
open micro-batch flushes.

All timestamps are **event time** (the window that produced the
alert), never wall clock: a replayed stream produces byte-identical
alerts, which is what lets CI diff two detection runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

from repro.cassdb import MINUTE, TableSchema, TimeBucketedTable
from repro.ingest.landing import LandingIngestor

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus import MessageBus
    from repro.cassdb import Cluster
    from repro.sparklet import SparkletContext

__all__ = [
    "ALERTS_TOPIC",
    "ALERTS_BY_TIME",
    "SEVERITIES",
    "Alert",
    "AlertPublisher",
    "AlertIngestor",
]

ALERTS_TOPIC = "alerts"

# Ordered least to most severe; "info" is structure worth a look
# (lead-lag findings, storm all-clears), "critical" is an incident.
SEVERITIES = ("info", "warning", "critical")

ALERTS_BY_TIME = TimeBucketedTable(
    TableSchema(
        "alerts_by_time",
        partition_key=("minute_bucket",),
        clustering_key=("ts", "seq"),
        key_codecs=(("minute_bucket", int),),
        description="Detection alerts: partition minute_bucket, "
                    "clustered by (ts, seq)",
    ),
    "minute_bucket", MINUTE)


@dataclass(frozen=True, slots=True)
class Alert:
    """One detection finding, self-describing and JSON-serializable."""

    ts: float                  # event time (= window_end)
    severity: str              # one of SEVERITIES
    detector: str              # emitting detector's name
    key: str                   # what it is about: "MCE|c0-0", "c1-3", ...
    window_start: float
    window_end: float
    score: float               # detector-specific magnitude (z, lift, ...)
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    def to_record(self) -> dict[str, Any]:
        """The bus payload (plain dict; evidence stays structured)."""
        return {
            "ts": self.ts,
            "severity": self.severity,
            "detector": self.detector,
            "key": self.key,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "score": self.score,
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Alert":
        return cls(
            ts=float(record["ts"]),
            severity=record["severity"],
            detector=record["detector"],
            key=record["key"],
            window_start=float(record["window_start"]),
            window_end=float(record["window_end"]),
            score=float(record["score"]),
            evidence=dict(record.get("evidence", {})),
        )


class AlertPublisher:
    """Producer side: alerts onto the ``alerts`` topic.

    Keyed by detector name so one detector's alerts stay ordered within
    a topic partition (the per-key ordering contract every producer in
    the system relies on).
    """

    def __init__(self, bus: "MessageBus", topic: str = ALERTS_TOPIC):
        from repro import obs
        from repro.bus import Producer

        bus.ensure_topic(topic)
        self.topic = topic
        self._producer = Producer(bus, default_topic=topic)
        self._registry = obs.get_registry()

    def publish(self, alerts: list[Alert]) -> int:
        for alert in alerts:
            self._producer.send(alert.to_record(), key=alert.detector,
                                timestamp=alert.ts)
            self._registry.counter(
                "detect.alerts", detector=alert.detector,
                severity=alert.severity).inc()
        return len(alerts)

    @property
    def published(self) -> int:
        return self._producer.sent


class AlertIngestor(LandingIngestor):
    """Consumer side: the ``alerts`` topic into ``alerts_by_time``.

    The same micro-batch landing loop as self-ingested telemetry: a
    consumer group polls, records ride a sparklet micro-batch graph,
    one closed batch becomes one ``write_batch``.  The batch interval
    defaults to one minute because alerts are sparse and the table is
    minute-bucketed anyway.
    """

    def __init__(self, bus: "MessageBus", topic: str, cluster: "Cluster",
                 sc: "SparkletContext", *, batch_interval: float = MINUTE,
                 group_id: str = "alert-ingest"):
        super().__init__(bus, topic, cluster, sc, (ALERTS_BY_TIME,),
                         batch_interval=batch_interval, group_id=group_id)

    @property
    def rows_written(self) -> int:
        return self.rows["alerts_by_time"]

    def shape(self, record):
        row = {k: v for k, v in record.items() if k != "evidence"}
        row["seq"] = next(self._seq)
        if record.get("evidence"):
            row["evidence"] = json.dumps(record["evidence"],
                                         sort_keys=True, default=str)
        return "alerts_by_time", row

    def land(self, table, rows):
        from repro import obs

        written = super().land(table, rows)
        obs.get_registry().counter("detect.alerts_ingested").inc(written)
        return written
