"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload runs the paper's pipeline through the public API on the
2-cabinet Titan slice (192 nodes) with the framework's default cluster
(4 nodes, replication factor 2) and default flush threshold, driven by
one single-threaded closed-loop client.  Inputs are generated from the
seed before any timing starts; the program only ever sees those inputs.

``batch_etl``       raw log files of one storm-bearing day → ``ingest_batch``
                    (1 s coalesce) → ``flush_all`` → ``refresh_synopsis``,
                    into a fresh store per day, then a read-back that
                    checks every (hour, type) partition through the server.
``stream_monitor``  raw lines replayed in 60 s event-time chunks through
                    ``LogProducer`` → bus → ``StreamingIngestor`` (1 s
                    windows) with detection attached, plus a dashboard
                    read (heat map and temporal map of the last hour,
                    alerts of the last 10 min) after each chunk.
``query_mix``       a store preloaded with the ``batch_etl`` day and its
                    application runs, flushed to column blocks, serving a
                    seeded request mix.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.genlog import JobGenerator, LogGenerator
from repro.ingest import LogProducer, coalesce_events, default_parser
from repro.titan import TitanTopology
from repro.titan.events import default_registry

from layers import storage_shape

TOPIC = "titan-console"
CHUNK_SECONDS = 60.0
STREAM_RATE = 100.0    # Titan-like: about 1 event per non-empty 1 s window


@dataclass(frozen=True)
class Size:
    """How much input a run generates and the least work it measures."""

    day_rate: float        # LogGenerator rate multiplier of the ETL day
    day_hours: float
    stream_hours: float
    # The least work a timed run measures, and exactly the work a run
    # with seconds=0 (the traced run) measures.
    min_days: int          # batch_etl days
    min_chunks: int        # stream_monitor chunks
    min_requests: int      # query_mix requests
    setup_every: int       # stream_monitor: a set-up sample every n chunks
    preload_repeats: int   # query_mix set-ups (each one preloads a day)
    mix_pool: int          # query_mix requests generated up front


SIZES = {
    "full": Size(day_rate=60, day_hours=24, stream_hours=30, min_days=3,
                 min_chunks=340, min_requests=1000, setup_every=40,
                 preload_repeats=7, mix_pool=30_000),
    "tiny": Size(day_rate=20, day_hours=3, stream_hours=1, min_days=1,
                 min_chunks=20, min_requests=60, setup_every=10,
                 preload_repeats=1, mix_pool=400),
}


def topology() -> TitanTopology:
    return TitanTopology(rows=1, cols=2)


# -- inputs ------------------------------------------------------------------

@dataclass
class DayInputs:
    paths: list[str]
    lines: int
    reference: list          # coalesce_events over a serial parse
    parsed_amount: int       # amounts of every parsed line, summed
    runs: list
    hours: float


def make_day(seed: int, size: Size, workdir: str) -> DayInputs:
    """One storm-bearing day of raw log files plus its job history."""
    topo = topology()
    gen = LogGenerator(topo, seed=seed, rate_multiplier=size.day_rate,
                       storms_per_day=24.0 / size.day_hours)
    events = gen.generate(size.day_hours)
    paths = sorted(gen.write_log_files(workdir, events).values())
    parser = default_parser()
    parsed = []
    lines = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                lines += 1
                event = parser.parse_line(line.rstrip("\n"))
                if event is not None:
                    parsed.append(event)
    runs = JobGenerator(topo, seed=seed + 1).generate(size.day_hours)
    return DayInputs(paths, lines, coalesce_events(parsed, 1.0),
                     sum(e.amount for e in parsed), runs, size.day_hours)


def make_stream(seed: int, size: Size) -> list[tuple[float, list[str]]]:
    """Raw lines in time order, cut into 60 s event-time chunks.

    The stream has no Lustre storms: a run replays only its first hours,
    and a storm landing in them on some seeds and not on others would
    make runs of different seeds unlike each other.
    """
    gen = LogGenerator(topology(), seed=seed, rate_multiplier=STREAM_RATE,
                       storms_per_day=0.0)
    events = gen.generate(size.stream_hours)
    chunks: dict[int, list[str]] = defaultdict(list)
    for event, line in zip(events, gen.raw_lines(events)):
        chunks[int(event.ts // CHUNK_SECONDS)].append(line)
    count = int(size.stream_hours * 3600 // CHUNK_SECONDS)
    return [((i + 1) * CHUNK_SECONDS, chunks.get(i, [])) for i in range(count)]


# -- measurement -------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list = field(default_factory=list)
    ingest_lines: int = 0
    ingest_s: float = 0.0
    freshness_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    # Set by the workload around its timed phase (trace hooks use them).
    timed_wall_s: float = 0.0
    storage_end: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def ingest_failed(self, exc: Exception) -> None:
        self.failed += 1
        self.mismatches.append(f"ingest raised {type(exc).__name__}: {exc}")

    def end_to_end(self) -> dict[str, float]:
        q = self.query_ms
        return {
            "setup_s": statistics.median(self.setup_s),
            "ingest_events_per_s": self.ingest_lines / self.ingest_s,
            "freshness_p50_ms": statistics.median(self.freshness_ms),
            "query_p50_ms": statistics.median(q),
            "queries_per_s": len(q) / (sum(q) / 1000.0),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def extra(self) -> dict[str, float]:
        """Metrics reported but not gated: the tails move from run to run
        by more than the largest bound a gate may have, and the error
        rate is 0 by design (``failed`` carries it)."""
        f = self.freshness_ms
        return {
            "query_p99_ms": statistics.quantiles(self.query_ms, n=100)[-1],
            "freshness_p90_ms": (statistics.quantiles(f, n=10)[-1]
                                 if len(f) > 1 else f[0]),
            "error_rate": self.failed / self.attempted,
        }


class Client:
    """One closed-loop client around ``AnalyticsServer.handle``."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.loop = asyncio.new_event_loop()
        self._seen: set[str] = set()
        self.repeats = 0

    def request(self, server: AnalyticsServer, request: dict) -> dict:
        key = json.dumps(request, sort_keys=True)
        self.repeats += key in self._seen
        self._seen.add(key)
        start = time.perf_counter()
        response = self.loop.run_until_complete(server.handle(request))
        self.outcome.query_ms.append((time.perf_counter() - start) * 1000.0)
        self.outcome.attempted += 1
        if not response.get("ok"):
            self.outcome.failed += 1
            self.outcome.mismatches.append(
                f"{request.get('op')} failed: {response.get('error')}")
        return response

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        requests = len(self.outcome.query_ms)
        self.outcome.properties.update(
            requests=requests, repeat_share=self.repeats / max(1, requests))


class Hooks:
    """Trace hooks: called at the edges of the timed phase."""

    def begin(self) -> None:
        pass

    def end(self, outcome: Outcome) -> None:
        pass

    def close(self) -> None:
        pass


def _timed_setup(out: Outcome, build):
    """Run *build* as one set-up sample, after collecting the garbage
    earlier phases left so none of it is paid inside the sample."""
    gc.collect()
    t0 = time.perf_counter()
    built = build()
    out.setup_s.append(time.perf_counter() - t0)
    return built


def _serving_framework():
    fw = LogAnalyticsFramework(topology()).setup()
    return fw, AnalyticsServer(fw)


# -- batch_etl ---------------------------------------------------------------

def _partition_expectations(reference) -> dict[tuple[int, str], list[int]]:
    expected: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
    for event in reference:
        slot = expected[(int(event.ts // 3600), event.type)]
        slot[0] += 1
        slot[1] += event.amount
    return expected


def run_batch_etl(day: DayInputs, size: Size, seconds: float,
                  hooks: Hooks) -> Outcome:
    out = Outcome()
    client = Client(out)
    expected = _partition_expectations(day.reference)
    types = sorted(t.name for t in default_registry())
    hours = range(int(day.hours))
    out.check(sum(e.amount for e in day.reference) == day.parsed_amount,
              "reference amounts differ from the parsed amounts")
    hooks.begin()
    start = time.perf_counter()
    days = 0
    while days < size.min_days or time.perf_counter() - start < seconds:
        # Each day's set-up is a sample; spread over the run, they see
        # the host's slow and fast phases alike.
        fw, server = _timed_setup(out, _serving_framework)
        out.properties.setdefault("storage_at_start",
                                  storage_shape(fw.cluster))
        try:
            _load_day(fw, day, out, with_runs=False)
            _read_back(client, server, day, expected, types, hours, out)
        finally:
            out.storage_end = storage_shape(fw.cluster)
            fw.stop()
        days += 1
    out.timed_wall_s = time.perf_counter() - start
    hooks.end(out)
    client.close()
    out.properties.update(days=days, lines_per_day=day.lines,
                          events_per_day=len(day.reference))
    return out


def _load_day(fw, day: DayInputs, out: Outcome, *, with_runs: bool) -> None:
    """Batch ETL of the day until durable (flushed), then the synopsis."""
    t0 = time.perf_counter()
    out.attempted += 1
    try:
        stats = fw.ingest_batch(day.paths, coalesce_seconds=1.0)
        if with_runs:
            fw.ingest_applications(day.runs)
        fw.cluster.flush_all()
        durable = time.perf_counter()
        fw.refresh_synopsis()
    except Exception as exc:  # noqa: BLE001 - counted as a failed ingest
        out.ingest_failed(exc)
        return
    done = time.perf_counter()
    out.ingest_lines += day.lines
    out.ingest_s += durable - t0
    out.freshness_ms.append((done - t0) * 1000.0)
    out.check(stats.lines == day.lines, f"lines {stats.lines} != {day.lines}")
    out.check(stats.written == len(day.reference),
              f"written {stats.written} != {len(day.reference)}")


def _read_back(client, server, day, expected, types, hours, out) -> None:
    """Every (hour, type) partition, every hour's synopsis and both event
    views' row counts, against the serial reference."""
    n = len(day.reference)
    for table in ("event_by_time", "event_by_location"):
        rows = client.request(server, {
            "op": "cql", "statement": f"SELECT count(*) FROM {table}"})
        out.check(rows.get("result") == [{"count": n}],
                  f"{table} rows {rows.get('result')} != {n}")
    for hour in hours:
        synopsis = client.request(server, {"op": "synopsis", "hour": hour})
        got = {(r["type"]): (r["occurrences"], r["total_amount"])
               for r in synopsis.get("result", [])}
        want = {t: tuple(v) for (h, t), v in expected.items() if h == hour}
        out.check(got == want, f"synopsis hour {hour}")
        for etype in types:
            count, amount = expected.get((hour, etype), (0, 0))
            rows = client.request(server, {
                "op": "cql",
                "statement": "SELECT count(*), sum(amount) FROM event_by_time"
                             " WHERE hour = ? AND type = ?",
                "params": [hour, etype]})
            want_rows = [{"count": count, "sum_amount": amount or None}]
            out.check(rows.get("result") == want_rows,
                      f"partition ({hour}, {etype}) {rows.get('result')}")


# -- stream_monitor ----------------------------------------------------------

def _monitoring_framework():
    fw, server = _serving_framework()
    bus = MessageBus()
    producer = LogProducer(bus, TOPIC)
    ingestor = fw.streaming_ingestor(bus, TOPIC, batch_interval=1.0)
    pipeline = fw.attach_detection(ingestor, bus)
    return fw, server, producer, ingestor, pipeline


def run_stream_monitor(chunks, size: Size, seconds: float,
                       hooks: Hooks) -> Outcome:
    out = Outcome()
    client = Client(out)
    fw, server, producer, ingestor, pipeline = _timed_setup(
        out, _monitoring_framework)
    out.properties["storage_at_start"] = storage_shape(fw.cluster)
    published: list[str] = []
    hooks.begin()
    start = time.perf_counter()
    try:
        for done, (end, lines) in enumerate(chunks):
            if (done >= size.min_chunks
                    and time.perf_counter() - start >= seconds):
                break
            t0 = time.perf_counter()
            out.attempted += 1
            try:
                producer.publish_lines(lines)
                ingestor.process_available()
                pipeline.drain()
            except Exception as exc:  # noqa: BLE001 - a failed ingest
                out.ingest_failed(exc)
            elapsed = time.perf_counter() - t0
            out.freshness_ms.append(elapsed * 1000.0)
            out.ingest_s += elapsed
            published.extend(lines)
            last_hour = {"t0": max(0.0, end - 3600.0), "t1": end}
            client.request(server, {"op": "heatmap", "context": last_hour})
            client.request(server, {"op": "histogram", "num_bins": 60,
                                    "context": last_hour})
            client.request(server, {"op": "alerts", "t0": end - 600.0,
                                    "t1": end, "limit": 20})
            if done % size.setup_every == size.setup_every - 1:
                _spare_setup(out)
        t0 = time.perf_counter()
        out.attempted += 1
        try:
            ingestor.flush()
            drained = pipeline.drain()
        except Exception as exc:  # noqa: BLE001 - a failed ingest
            out.ingest_failed(exc)
            drained = {}
        out.ingest_s += time.perf_counter() - t0
        out.ingest_lines = len(published)
        out.timed_wall_s = time.perf_counter() - start
        out.storage_end = storage_shape(fw.cluster)
        hooks.end(out)
        _check_stream(fw, ingestor, pipeline, drained, published, out)
        out.properties.update(
            chunks=len(out.freshness_ms), lines=len(published),
            windows=ingestor.stats.batches,
            nonempty_windows=pipeline.engine.windows_seen,
            nonempty_window_share=(pipeline.engine.windows_seen
                                   / max(1, ingestor.stats.batches)),
            alerts=pipeline.engine.alerts_emitted)
    finally:
        fw.stop()
        client.close()
    return out


def _spare_setup(out: Outcome) -> None:
    """One more set-up sample, taken between chunks and outside every
    chunk and request timing.  Set-up takes about 10 ms, and the host's
    speed drifts over seconds, so samples spread over the whole run give
    a steadier median than a burst of them at its start.  No collection
    first: a full collection here would take garbage the stream's own
    collections would otherwise pay for inside its timings."""
    t0 = time.perf_counter()
    spare = _monitoring_framework()
    out.setup_s.append(time.perf_counter() - t0)
    spare[0].stop()


def _check_stream(fw, ingestor, pipeline, drained, published, out) -> None:
    parser = default_parser()
    parsed = [e for e in map(parser.parse_line, published) if e is not None]
    reference = coalesce_events(parsed, 1.0)
    out.check(ingestor.stats.polled == len(published),
              f"polled {ingestor.stats.polled} != {len(published)}")
    out.check(ingestor.stats.written == len(reference),
              f"written {ingestor.stats.written} != {len(reference)}")
    for table in ("event_by_time", "event_by_location"):
        rows = fw.cluster.total_rows(table)
        out.check(rows == len(reference),
                  f"{table} rows {rows} != {len(reference)}")
    out.check(ingestor.lag == 0 and drained.get("lag") == 0,
              f"lag {ingestor.lag} / {drained.get('lag')} at the end")
    alert_rows = fw.cluster.total_rows("alerts_by_time")
    out.check(alert_rows == pipeline.engine.alerts_emitted,
              f"alerts_by_time {alert_rows} != "
              f"{pipeline.engine.alerts_emitted} emitted")


# -- query_mix ---------------------------------------------------------------

# (kind, weight): mostly interactive ops, a small share of engine ops.
# The shares are assumed, not measured: the paper names the analyst's
# operations (contexts, heat maps, hot spots, transfer entropy) but gives
# no traffic mix, and no request trace exists to take one from.  So are
# HOT_SHARE and HOT_SET; a claim resting on the repeat share they give
# (``repeat_share`` in the report) rests on this assumption.
MIX = (
    ("heatmap", 12), ("hotspots", 5), ("histogram", 8), ("distribution", 6),
    ("events", 12), ("runs", 6), ("placement", 6), ("cql_group", 16),
    ("cql_point", 23), ("cql_scan", 2), ("transfer_entropy", 2),
    ("keywords", 2),
)
HOT_SHARE = 0.3      # share of CQL SELECTs drawn from the hot set
HOT_SET = 8
CHECK_SHARE = 0.3    # share of heat maps and GROUP BYs checked

GROUP_BY = ("SELECT source, count(*), sum(amount) FROM event_by_time"
            " WHERE hour = ? AND type = ? AND ts >= ? GROUP BY source")
POINT = ("SELECT ts, source, type, amount FROM event_by_location"
         " WHERE hour = ? AND source = ? AND ts = ?")


def make_mix(seed: int, day: DayInputs, n: int) -> list[dict]:
    """A seeded request sequence over the preloaded day.

    Requests flagged ``"check": true`` are compared with a naive
    evaluation over the generated events after the timed phase.
    """
    rng = random.Random(seed)
    events = day.reference
    horizon = day.hours * 3600.0
    types = sorted({e.type for e in events})
    components = sorted({e.component for e in events})
    pairs = sorted({(int(e.ts // 3600), e.type) for e in events})
    points = list(events)
    rng.shuffle(points)
    apps = [r.start for r in day.runs]

    def window(lo: float, hi: float) -> tuple[float, float]:
        width = rng.uniform(lo, hi) * 3600.0
        t0 = rng.uniform(0.0, max(1.0, horizon - width))
        return round(t0, 3), round(min(horizon, t0 + width), 3)

    def group_by() -> dict:
        hour, etype = rng.choice(pairs)
        ts = round(hour * 3600.0 + rng.uniform(0.0, 1800.0), 3)
        return {"op": "cql", "statement": GROUP_BY,
                "params": [hour, etype, ts]}

    def point() -> dict:
        event = points.pop() if points else rng.choice(events)
        return {"op": "cql", "statement": POINT,
                "params": [int(event.ts // 3600), event.component,
                           float(event.ts)]}

    hot = [group_by() if i % 2 else point() for i in range(HOT_SET)]
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    mix = []
    for _ in range(n):
        kind = rng.choices(kinds, weights)[0]
        if kind in ("cql_group", "cql_point") and rng.random() < HOT_SHARE:
            mix.append(dict(rng.choice(hot)))
            continue
        if kind == "heatmap":
            t0, t1 = window(1, 4)
            req = {"op": "heatmap", "context": {
                "t0": t0, "t1": t1,
                "event_types": rng.sample(types, rng.randint(1, 2))}}
            req["check"] = rng.random() < CHECK_SHARE
        elif kind == "hotspots":
            t0, t1 = window(6, 24)
            req = {"op": "hotspots", "z_threshold": 4.0, "context": {
                "t0": t0, "t1": t1,
                "event_types": [rng.choice(("MCE", "DRAM_CE", "GPU_SBE"))]}}
        elif kind == "histogram":
            t0, t1 = window(2, 12)
            req = {"op": "histogram", "num_bins": 48, "context": {
                "t0": t0, "t1": t1, "event_types": [rng.choice(types)]}}
        elif kind == "distribution":
            t0, t1 = window(2, 12)
            req = {"op": "distribution", "granularity": "cabinet",
                   "context": {"t0": t0, "t1": t1,
                               "event_types": [rng.choice(types)]}}
        elif kind == "events":
            t0, t1 = window(1, 6)
            req = {"op": "events", "limit": 100, "context": {
                "t0": t0, "t1": t1, "sources": [rng.choice(components)]}}
        elif kind == "runs":
            t0, t1 = window(1, 3)
            req = {"op": "runs", "context": {"t0": t0, "t1": t1}}
        elif kind == "placement":
            ts = rng.choice(apps) + 1.0 if apps else rng.uniform(0, horizon)
            req = {"op": "placement", "ts": round(ts, 3)}
        elif kind == "cql_group":
            req = group_by()
            req["check"] = rng.random() < CHECK_SHARE
        elif kind == "cql_point":
            req = point()
        elif kind == "cql_scan":
            req = {"op": "cql", "statement":
                   "SELECT type, count(*) FROM event_by_time GROUP BY type"}
        elif kind == "transfer_entropy":
            t0, t1 = window(4, 8)
            source, target = rng.sample(types, 2)
            req = {"op": "transfer_entropy", "source_type": source,
                   "target_type": target, "context": {"t0": t0, "t1": t1}}
        else:
            t0, t1 = window(1 / 6, 1 / 6)
            req = {"op": "keywords", "n": 10, "context": {"t0": t0, "t1": t1}}
        mix.append(req)
    return mix


def naive_answer(request: dict, events) -> object:
    """The response a checked request must get, from the events alone."""
    if request["op"] == "heatmap":
        ctx = request["context"]
        wanted = set(ctx["event_types"])
        counts: Counter[str] = Counter()
        for e in events:
            if e.type in wanted and ctx["t0"] <= e.ts < ctx["t1"]:
                counts[e.component] += e.amount
        return dict(counts)
    hour, etype, lower = request["params"]
    groups: dict[str, list[int]] = {}
    for e in events:
        if int(e.ts // 3600) == hour and e.type == etype and e.ts >= lower:
            slot = groups.setdefault(e.component, [0, 0])
            slot[0] += 1
            slot[1] += e.amount
    return [{"source": s, "count": c, "sum_amount": a}
            for s, (c, a) in sorted(groups.items())]


def run_query_mix(day: DayInputs, mix: list[dict], size: Size,
                  seconds: float, hooks: Hooks) -> Outcome:
    out = Outcome()
    client = Client(out)
    def preloaded():
        fw, server = _serving_framework()
        _load_day(fw, day, out, with_runs=True)
        return fw, server

    for i in range(size.preload_repeats):
        fw, server = _timed_setup(out, preloaded)
        if i + 1 < size.preload_repeats:
            fw.stop()
    out.properties["storage_at_start"] = storage_shape(fw.cluster)
    checked: list[tuple[dict, object]] = []
    hooks.begin()
    start = time.perf_counter()
    try:
        for done, request in enumerate(mix):
            if (done >= size.min_requests
                    and time.perf_counter() - start >= seconds):
                break
            check = request.pop("check", False)
            response = client.request(server, request)
            if check:
                checked.append((request, response.get("result")))
        out.timed_wall_s = time.perf_counter() - start
        out.storage_end = storage_shape(fw.cluster)
        hooks.end(out)
    finally:
        fw.stop()
        client.close()
    for request, result in checked:
        want = naive_answer(request, day.reference)
        out.check(result == want, f"{request['op']} {request} differs")
    ops = Counter(r["op"] for r in mix[:len(out.query_ms)])
    out.properties.update(
        checked=len(checked), ops=dict(sorted(ops.items())), events=len(day.reference),
        lines=day.lines)
    return out


WORKLOADS = ("batch_etl", "stream_monitor", "query_mix")


def _settle_inputs() -> None:
    """Move the generated inputs out of the collector's way, so the
    program's collections do not traverse the benchmark's own objects."""
    gc.collect()
    gc.freeze()


def run(workload: str, seed: int, seconds: float, size: Size, workdir: str,
        hooks: Hooks) -> Outcome:
    """Generate the workload's inputs from *seed*, then run it."""
    if workload == "stream_monitor":
        chunks = make_stream(seed, size)
        _settle_inputs()
        out = run_stream_monitor(chunks, size, seconds, hooks)
    else:
        day = make_day(seed, size, os.path.join(workdir, "day"))
        if workload == "batch_etl":
            _settle_inputs()
            out = run_batch_etl(day, size, seconds, hooks)
        else:
            mix = make_mix(seed, day, size.mix_pool)
            _settle_inputs()
            out = run_query_mix(day, mix, size, seconds, hooks)
    out.properties["seed"] = seed
    return out
