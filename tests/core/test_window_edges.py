"""Window edges of the time-bucketed server ops, against a naive oracle.

Every windowed op (``telemetry_series``, ``telemetry_spans``,
``profile_flame``, ``critical_path``'s store fallback, ``alerts``,
``alert_summary``) must answer exactly what a full ``scan_table``
filtered by ``t0 <= ts < t1`` answers.  Rows sit on, just before and
just after minute boundaries, at simulation scale (~1e3 s) and at wall
clock scale (~1.7e9 s, where ``t - 1e-9 == t``); windows start and end
both mid-minute and exactly on a boundary.
"""

import json

import pytest

from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.detect import AlertIngestor
from repro.obs.export import TelemetryIngestor
from repro.obs.profile import critical_path, hot_functions
from repro.titan import TitanTopology

# Both bases sit exactly on a minute boundary.
BASES = (600.0, 1_700_000_040.0)
OFFSETS = (-60.0, -30.5, -0.5, 0.0, 0.25, 30.0, 59.75, 60.0, 60.5, 90.0,
           119.5, 120.0, 150.0, 180.0)
WINDOWS = (
    (0.25, 60.0),     # mid-minute start, boundary end
    (0.0, 120.0),     # both on boundaries
    (-30.5, 90.0),    # both mid-minute
    (60.0, 60.5),     # inside one minute
    (-0.5, 0.25),     # straddles one boundary
    (-60.0, 180.0),   # every row but the last
)
CASES = [(base, lo, hi) for base in BASES for lo, hi in WINDOWS]
COMPONENTS = ("cassdb", "server")
SEVERITIES = ("info", "warning", "critical")
DETECTORS = ("ewma_rate", "lustre_storm")
# Far above any id the process tracer hands out, so critical_path
# misses its in-memory ring and rebuilds the trace from the store.
TRACE_BASE = 10**12


def _minute(ts):
    return int(ts // 60.0)


def _plain(value):
    return json.loads(json.dumps(value))


def _trace_id(base, lo):
    return TRACE_BASE + int(base) + int(lo * 4) + 1000


@pytest.fixture(scope="module")
def store():
    fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1),
                               db_nodes=2).setup()
    bus = MessageBus()
    # The ingestors provision the tables; rows are written directly so
    # their timestamps are exactly the ones under test.
    TelemetryIngestor(bus, "telemetry-edges", fw.cluster, fw.sc)
    AlertIngestor(bus, "alerts-edges", fw.cluster, fw.sc)
    metrics, spans, profiles, alerts = [], [], [], []
    seq = 0
    span_id = 1
    chain_ms = 3000.0  # every root duration distinct: no sort ties
    for base in BASES:
        for i, off in enumerate(OFFSETS):
            ts = base + off
            for name in ("server.requests", "cassdb.reads"):
                seq += 1
                row = {"minute_bucket": _minute(ts), "metric_name": name,
                       "ts": ts, "seq": seq, "kind": "counter",
                       "value": seq, "delta": i + 1,
                       "labels": json.dumps({"op": ("a", "b")[i % 2]},
                                            sort_keys=True)}
                if i % 3 == 0:
                    row["exemplars"] = json.dumps(
                        [{"trace_id": i, "value": 1.5}], sort_keys=True)
                metrics.append(row)
            for j, component in enumerate(COMPONENTS):
                seq += 1
                profiles.append({
                    "minute_bucket": _minute(ts), "component": component,
                    "ts": ts, "seq": seq, "stack": f"main;f{i % 4};g{j}",
                    "samples": i + 1 + j, "total": 100 + i})
                # A root span and one child per (offset, component),
                # durations distinct so tree order is unambiguous.
                root = span_id
                spans.append({
                    "minute_bucket": _minute(ts), "component": component,
                    "ts": ts, "span_id": root, "trace_id": root,
                    "parent_id": None, "name": f"{component}.op",
                    "duration_ms": 1000.0 - root, "status": "ok"})
                spans.append({
                    "minute_bucket": _minute(ts), "component": component,
                    "ts": ts, "span_id": root + 1, "trace_id": root,
                    "parent_id": root, "name": f"{component}.inner",
                    "duration_ms": 0.5 * (1000.0 - root), "status": "ok"})
                span_id += 2
            for j, severity in enumerate(SEVERITIES):
                seq += 1
                alerts.append({
                    "minute_bucket": _minute(ts), "ts": ts, "seq": seq,
                    "severity": severity,
                    "detector": DETECTORS[(i + j) % 2],
                    "key": f"k{(i + j) % 3}", "window_start": ts - 1.0,
                    "window_end": ts, "score": float(i),
                    "evidence": json.dumps({"i": i}, sort_keys=True)})
        # One request trace per window for the store fallback: spans
        # inside the window only, linked across components and minutes.
        for lo, hi in WINDOWS:
            trace = _trace_id(base, lo)
            inside = [base + o for o in OFFSETS if lo <= o < hi]
            for k, ts in enumerate(inside):
                chain_ms -= 1.0
                spans.append({
                    "minute_bucket": _minute(ts),
                    "component": COMPONENTS[k % 2], "ts": ts,
                    "span_id": trace * 100 + k, "trace_id": trace,
                    "parent_id": None if k == 0 else trace * 100 + k - 1,
                    "name": f"step{k}", "duration_ms": chain_ms,
                    "status": "ok"})
            # The same trace well outside the window must not leak in:
            # it would win the root.
            ts = base + 600.0
            spans.append({
                "minute_bucket": _minute(ts), "component": "server",
                "ts": ts, "span_id": trace * 100 + 99, "trace_id": trace,
                "parent_id": None, "name": "later", "duration_ms": 1e6,
                "status": "ok"})
    cluster = fw.cluster
    cluster.write_batch("metrics_by_time", metrics)
    cluster.write_batch("spans_by_time", spans)
    cluster.write_batch("profiles_by_time", profiles)
    cluster.write_batch("alerts_by_time", alerts)
    yield fw, AnalyticsServer(fw)
    fw.stop()


def _ask(server, request):
    response = server.handle_sync(request)
    assert response["ok"], response.get("error")
    return _plain(response["result"])


def _window(fw, table, t0, t1):
    return [row for row in fw.cluster.scan_table(table)
            if t0 <= row["ts"] < t1]


def _link(rows):
    nodes = {}
    for row in rows:
        node = {k: v for k, v in row.items() if k != "minute_bucket"}
        node["children"] = []
        nodes[node["span_id"]] = node
    roots = []
    for node in nodes.values():
        parent = nodes.get(node["parent_id"])
        (parent["children"] if parent else roots).append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: (n["ts"], n["span_id"]))
    return nodes, roots


@pytest.mark.parametrize("base,lo,hi", CASES)
class TestWindowEdges:
    @pytest.mark.parametrize("labels", [None, {"op": "a"}])
    def test_telemetry_series(self, store, base, lo, hi, labels):
        fw, server = store
        t0, t1 = base + lo, base + hi
        request = {"op": "telemetry_series", "name": "server.requests",
                   "t0": t0, "t1": t1}
        if labels:
            request["labels"] = labels
        got = _ask(server, request)
        points = []
        for row in _window(fw, "metrics_by_time", t0, t1):
            row_labels = json.loads(row["labels"])
            if row["metric_name"] != "server.requests" or (
                    labels and row_labels != labels):
                continue
            point = {k: v for k, v in row.items()
                     if k not in ("minute_bucket", "metric_name", "labels")}
            point["labels"] = row_labels
            if "exemplars" in point:
                point["exemplars"] = json.loads(point["exemplars"])
            points.append(point)
        points.sort(key=lambda p: (p["ts"], p["seq"]))
        assert got == _plain({"name": "server.requests", "t0": t0,
                              "t1": t1, "points": points})

    @pytest.mark.parametrize("component", [None, "server"])
    def test_telemetry_spans(self, store, base, lo, hi, component):
        fw, server = store
        t0, t1 = base + lo, base + hi
        request = {"op": "telemetry_spans", "t0": t0, "t1": t1,
                   "limit": 1000}
        if component:
            request["component"] = component
        got = _ask(server, request)
        rows = [row for row in _window(fw, "spans_by_time", t0, t1)
                if component in (None, row["component"])]
        nodes, roots = _link(rows)
        roots.sort(key=lambda n: -n["duration_ms"])
        assert got == _plain({"t0": t0, "t1": t1, "spans": len(nodes),
                              "trees": roots})

    @pytest.mark.parametrize("component", [None, "cassdb"])
    def test_profile_flame(self, store, base, lo, hi, component):
        fw, server = store
        t0, t1 = base + lo, base + hi
        request = {"op": "profile_flame", "t0": t0, "t1": t1, "top": 5}
        if component:
            request["component"] = component
        got = _ask(server, request)
        by_stack = {}
        for row in _window(fw, "profiles_by_time", t0, t1):
            if component in (None, row["component"]):
                key = (row["component"], row["stack"])
                by_stack[key] = by_stack.get(key, 0) + row["samples"]
        assert got == _plain({
            "t0": t0, "t1": t1, "samples": sum(by_stack.values()),
            "stacks": len(by_stack),
            "folded": sorted(f"{c};{s} {n}"
                             for (c, s), n in by_stack.items()),
            "hot": hot_functions(by_stack, top=5),
        })

    def test_critical_path_store_fallback(self, store, base, lo, hi):
        fw, server = store
        t0, t1 = base + lo, base + hi
        trace = _trace_id(base, lo)
        got = _ask(server, {"op": "critical_path", "trace_id": trace,
                            "t0": t0, "t1": t1})
        rows = [row for row in _window(fw, "spans_by_time", t0, t1)
                if row["trace_id"] == trace]
        assert rows
        _, roots = _link(rows)
        root = max(roots, key=lambda n: n["duration_ms"])
        assert got == _plain(critical_path(root))

    @pytest.mark.parametrize("severity,detector", [
        (None, None), ("warning", None), (None, "lustre_storm"),
        ("critical", "ewma_rate"),
    ])
    def test_alerts_and_summary(self, store, base, lo, hi, severity,
                                detector):
        fw, server = store
        t0, t1 = base + lo, base + hi
        filters = {k: v for k, v in (("severity", severity),
                                     ("detector", detector)) if v}
        rows = []
        for row in _window(fw, "alerts_by_time", t0, t1):
            if any(row[k] != v for k, v in filters.items()):
                continue
            alert = {k: v for k, v in row.items() if k != "minute_bucket"}
            alert["evidence"] = json.loads(alert["evidence"])
            rows.append(alert)
        rows.sort(key=lambda a: (a["ts"], a["seq"]))

        got = _ask(server, {"op": "alerts", "t0": t0, "t1": t1,
                            "limit": 4, **filters})
        assert got == _plain({"t0": t0, "t1": t1, "total": len(rows),
                              "alerts": rows[-4:]})

        summary = _ask(server, {"op": "alert_summary", "t0": t0, "t1": t1,
                                **filters})
        counts = {"severity": {}, "detector": {}, "key": {}}
        for row in rows:
            for field, tally in counts.items():
                tally[row[field]] = tally.get(row[field], 0) + 1
        top_keys = sorted(counts["key"].items(),
                          key=lambda kv: (-kv[1], kv[0]))[:5]
        assert summary == _plain({
            "t0": t0, "t1": t1, "total": len(rows),
            "by_severity": dict(sorted(counts["severity"].items())),
            "by_detector": dict(sorted(counts["detector"].items())),
            "top_keys": [{"key": k, "count": n} for k, n in top_keys],
            "latest_ts": rows[-1]["ts"] if rows else None,
        })
