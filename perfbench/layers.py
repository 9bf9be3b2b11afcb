"""Per-layer attribution for the traced run, applied from outside the program.

The benchmark wraps the public entry point of each layer (named after the
module that owns it) and keeps, per thread, a stack of open frames.  A
frame's *self time* is the thread CPU time (``time.thread_time``) it spent
minus the CPU time of the wrapped frames it called.  CPU time rather than
wall time: a sparklet worker thread that waits for the interpreter lock,
or a driver thread blocked on task futures, is not busy, so the busy
seconds of all layers add up to about the traced wall time at most.  Work on
sparklet worker threads and on the server's executor threads is counted
in whichever layer's frame it runs under; task bodies outside any other
layer count as ``sparklet``.

Counts come from the arguments and results of the wrapped calls and from
deltas of the program's own registry counters over the timed phase.
Garbage-collector pauses are read through ``gc.callbacks``.

Nothing here is imported by the program; :func:`install` patches class
and module attributes and :meth:`LayerTracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time
from collections import defaultdict

# Layers with self time, in report order.  Each maps to one busy_s metric.
BUSY_METRICS = {
    "ingest": "ingest.parse.busy_s",
    "bus.publish": "bus.publish.busy_s",
    "bus.poll": "bus.poll.busy_s",
    "sparklet": "sparklet.job.busy_s",
    "model.write": "model.write.busy_s",
    "model.read": "model.read.busy_s",
    "cassdb.write_batch": "cassdb.write_batch.busy_s",
    "cassdb.flush": "cassdb.flush.busy_s",
    "cassdb.read": "cassdb.read.busy_s",
    "cassdb.aggregate": "cassdb.aggregate.busy_s",
    "cql": "cql.execute.busy_s",
    "analytics": "analytics.busy_s",
    "context.events": "context.events.busy_s",
    "server.handle": "server.handle.busy_s",
    "server.serialize": "server.serialize.busy_s",
    "detect": "detect.busy_s",
}

# Server ops whose latency median around ``handle`` is reported per op:
# the union of the ops the three workloads issue.
SERVER_OPS = ("cql", "events", "runs", "placement", "heatmap", "hotspots",
              "histogram", "distribution", "transfer_entropy", "keywords",
              "alerts", "synopsis")

COUNT_METRICS = (
    "ingest.parse.lines", "bus.publish.records", "bus.poll.records",
    "sparklet.jobs", "sparklet.shuffle.records", "model.write.rows",
    "model.read.partitions", "cassdb.write_batch.calls",
    "cassdb.write_batch.rows", "cassdb.flush.rows", "cassdb.read.calls",
    "cassdb.read.rows", "cql.execute.calls",
)


class LayerTracer:
    """Self-time and count accounting around wrapped layer entry points."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0.0
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- per-thread state -------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = {"stack": [], "busy": defaultdict(float),
                     "count": defaultdict(int), "wall": defaultdict(list),
                     "sum": defaultdict(float)}
            self._tls.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _enter(self, layer: str) -> tuple[dict, float]:
        state = self._state()
        state["stack"].append([layer, 0.0])
        return state, time.thread_time()

    def _leave(self, state: dict, cpu_start: float) -> None:
        cpu = time.thread_time() - cpu_start
        stack = state["stack"]
        layer, child = stack.pop()
        state["busy"][layer] += cpu - child
        if stack:
            stack[-1][1] += cpu

    def inside(self, layer: str) -> bool:
        """Whether the calling thread has an open frame of *layer*."""
        return any(frame[0] == layer for frame in self._state()["stack"])

    def count(self, name: str, amount: int = 1) -> None:
        self._state()["count"][name] += amount

    def add(self, name: str, amount: float) -> None:
        self._state()["sum"][name] += amount

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, *, counts=None,
             materialize: bool = False, samples: str | None = None) -> None:
        """Replace ``owner.name`` with a frame of *layer* around it.

        *counts* is ``counts(tracer, args, kwargs, result, nested)`` and
        records what the call did; *nested* is true when the thread
        already had a frame of the same layer open (so a public entry
        point that calls another one is counted once).  *materialize*
        turns a generator function's result into an iterator over a list
        built inside the frame, so its work is timed where it happens.
        *samples* names a wall-clock latency list the call appends to.
        """
        fn = owner.__dict__[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer.inside(layer)
            wall_start = time.perf_counter()
            state, cpu_start = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                tracer._leave(state, cpu_start)
            if samples is not None:
                state["wall"][samples].append(
                    (time.perf_counter() - wall_start) * 1000.0)
            if counts is not None:
                counts(tracer, args, kwargs, result, nested)
            return result

        self._patch(owner, name, wrapper)

    def wrap_handle(self, server_cls) -> None:
        """Wrap the coroutine ``AnalyticsServer.handle``: a
        ``server.handle`` frame, and a wall-clock latency per op."""
        fn = server_cls.__dict__["handle"]
        tracer = self

        @functools.wraps(fn)
        async def wrapper(server, request):
            wall_start = time.perf_counter()
            state, cpu_start = tracer._enter("server.handle")
            try:
                return await fn(server, request)
            finally:
                tracer._leave(state, cpu_start)
                state["wall"][f"server.{request.get('op')}"].append(
                    (time.perf_counter() - wall_start) * 1000.0)
                state["count"]["server.requests"] += 1

        self._patch(server_cls, "handle", wrapper)

    def wrap_recursive(self, module, name: str, layer: str) -> None:
        """Wrap a module-level recursive function once per outer call."""
        fn = getattr(module, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.inside(layer):
                return fn(*args, **kwargs)
            state, cpu_start = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(state, cpu_start)

        self._patch(module, name, wrapper)

    def wrap_task_pool(self, pool_cls) -> None:
        """Wrap ``WorkerPool.run_tasks``: the driver-side call is a
        ``sparklet`` frame, every task body runs in a ``sparklet`` frame
        on its worker thread, and the time from submission to the task's
        start is summed as queue wait."""
        fn = pool_cls.__dict__["run_tasks"]
        tracer = self

        def traced_task(task, submitted):
            def run(tc):
                tracer.add("sparklet.task.queue_wait_s",
                           time.perf_counter() - submitted)
                state, cpu_start = tracer._enter("sparklet")
                try:
                    return task(tc)
                finally:
                    tracer._leave(state, cpu_start)
            return run

        @functools.wraps(fn)
        def wrapper(pool, tasks):
            submitted = time.perf_counter()
            traced = [(traced_task(task, submitted), preferred, index)
                      for task, preferred, index in tasks]
            state, cpu_start = tracer._enter("sparklet")
            try:
                results, contexts = fn(pool, traced)
            finally:
                tracer._leave(state, cpu_start)
            tracer.count("sparklet.shuffle.records", sum(
                tc.metrics.shuffle_records_written for tc in contexts))
            return results, contexts

        self._patch(pool_cls, "run_tasks", wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector ------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_started

    # -- timed phase ------------------------------------------------------

    def begin(self) -> None:
        """Zero every accumulator; call with no wrapped call in flight."""
        with self._lock:
            for state in self._threads:
                for key in ("busy", "count", "wall", "sum"):
                    state[key].clear()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Busy seconds, counts, wall samples and sums over all threads."""
        busy: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        walls: dict[str, list] = defaultdict(list)
        sums: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._threads)
        for state in states:
            for key, value in list(state["busy"].items()):
                busy[key] += value
            for key, value in list(state["count"].items()):
                counts[key] += value
            for key, value in list(state["wall"].items()):
                walls[key].extend(value)
            for key, value in list(state["sum"].items()):
                sums[key] += value
        return busy, counts, walls, sums


# -- registry counter deltas ---------------------------------------------

def registry_totals(registry) -> dict[str, float]:
    """Per metric name, the sum over label series of each counter's value
    and each histogram's observation count."""
    from repro.obs import Counter, Histogram

    totals: dict[str, float] = defaultdict(float)
    for name, _labels, metric in registry.collect():
        if isinstance(metric, Counter):
            totals[name] += metric.value
        elif isinstance(metric, Histogram):
            totals[name] += metric.count
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points."""
    from repro.bus.consumer import Consumer
    from repro.bus.producer import Producer
    from repro.cassdb.cluster import Cluster
    from repro.cassdb.query import Session
    from repro.core import analytics, context, correlation, model, server, \
        textmining
    from repro.detect import alerts, detectors, engine
    from repro.ingest.parsers import LineParser
    from repro.sparklet.executor import WorkerPool
    from repro.sparklet.scheduler import DAGScheduler

    def parsed(t, args, kwargs, result, nested):
        t.count("ingest.parse.lines")

    def polled(t, args, kwargs, result, nested):
        t.count("bus.poll.records", len(result))

    def sent(t, args, kwargs, result, nested):
        t.count("bus.publish.records")

    def job(t, args, kwargs, result, nested):
        t.count("sparklet.jobs")

    def model_rows(t, args, kwargs, result, nested):
        t.count("model.write.rows", result)

    def written(t, args, kwargs, result, nested):
        if not nested:
            t.count("cassdb.write_batch.calls")
            t.count("cassdb.write_batch.rows", result)

    def read_one(t, args, kwargs, result, nested):
        if not nested:
            t.count("cassdb.read.calls")
            t.count("cassdb.read.rows", len(result))
            if t.inside("model.read"):
                t.count("model.read.partitions")

    def read_many(t, args, kwargs, result, nested):
        if not nested:
            t.count("cassdb.read.calls")
            t.count("cassdb.read.rows", sum(len(rows) for rows in result))
            if t.inside("model.read"):
                t.count("model.read.partitions", len(result))

    def executed(t, args, kwargs, result, nested):
        if not nested:
            t.count("cql.execute.calls")

    tracer.wrap(LineParser, "parse_line", "ingest", counts=parsed)
    tracer.wrap(Producer, "send", "bus.publish", counts=sent)
    tracer.wrap(Consumer, "poll", "bus.poll", counts=polled)
    tracer.wrap(DAGScheduler, "run_job", "sparklet", counts=job,
                samples="sparklet.job")
    tracer.wrap_task_pool(WorkerPool)
    tracer.wrap(model.LogDataModel, "write_events", "model.write",
                counts=model_rows)
    tracer.wrap(model.LogDataModel, "write_applications", "model.write")
    for name in ("events_of_type", "events_at_location"):
        tracer.wrap(model.LogDataModel, name, "model.read", materialize=True)
    for name in ("runs_in_interval", "runs_running_at", "runs_of_user",
                 "runs_on_node", "synopsis_for_hour", "event_types",
                 "nodeinfo"):
        tracer.wrap(model.LogDataModel, name, "model.read")
    tracer.wrap(Cluster, "write_batch", "cassdb.write_batch", counts=written)
    tracer.wrap(Cluster, "flush_all", "cassdb.flush")
    timed_flush = Cluster.flush_all

    def flush_all(cluster):
        # Rows moved out of memtables, counted outside the timed frame.
        pending = storage_shape(cluster)["memtable_rows"]
        timed_flush(cluster)
        tracer.count("cassdb.flush.rows",
                     pending - storage_shape(cluster)["memtable_rows"])

    tracer._patch(Cluster, "flush_all", flush_all)
    tracer.wrap(Cluster, "select_partition", "cassdb.read", counts=read_one)
    tracer.wrap(Cluster, "read_partition_raw", "cassdb.read",
                counts=read_one)
    tracer.wrap(Cluster, "select_partitions", "cassdb.read",
                counts=read_many)
    tracer.wrap(Cluster, "scan_table", "cassdb.read", materialize=True)
    tracer.wrap(Cluster, "aggregate_partitions", "cassdb.aggregate")
    tracer.wrap(Cluster, "fold_table_partitions", "cassdb.aggregate",
                materialize=True)
    tracer.wrap(Session, "execute", "cql", counts=executed)
    tracer.wrap(context.Context, "events", "context.events")
    for module, names in (
        (analytics, ("heatmap", "distribution_by",
                     "distribution_by_application", "time_histogram",
                     "detect_hotspots")),
        (correlation, ("te_pair",)),
        (textmining, ("storm_keywords",)),
    ):
        for name in names:
            tracer.wrap(module, name, "analytics")
    tracer.wrap_handle(server.AnalyticsServer)
    tracer.wrap_recursive(server, "_jsonable", "server.serialize")
    for cls in (detectors.EWMARateDetector, detectors.SpatialBurstDetector,
                detectors.LustreStormDetector, detectors.LeadLagDetector):
        tracer.wrap(cls, "observe", "detect")
    tracer.wrap(alerts.AlertPublisher, "publish", "detect")
    tracer.wrap(engine.DetectionPipeline, "drain", "detect")


def storage_shape(cluster) -> dict[str, int]:
    """Replica rows in memtables and in column blocks, and SSTable count."""
    memtable = blocks = sstables = 0
    for node in cluster.nodes.values():
        for store in node.tables.values():
            memtable += store.memtable.row_count
            memtable += sum(m.row_count for m in store.frozen)
            sstables += len(store.sstables)
            blocks += sum(len(s) for s in store.sstables)
    return {"memtable_rows": memtable, "block_rows": blocks,
            "sstables": sstables}


def layer_report(tracer: LayerTracer, before: dict, after: dict,
                 wall_s: float, storage: dict) -> dict[str, float]:
    """Every per-layer metric over the timed phase.

    *before*/*after* are :func:`registry_totals` at the phase edges,
    *storage* is :func:`storage_shape` at its end (summed over the
    workload's clusters).
    """
    busy, counts, walls, sums = tracer.totals()

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    out: dict[str, float] = {}
    for layer, metric in BUSY_METRICS.items():
        out[metric] = busy.get(layer, 0.0)
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    out["ingest.coalesce.kept_ratio"] = _ratio(
        delta("ingest.records_written"), counts.get("ingest.parse.lines", 0))
    out["bus.redelivered"] = delta("bus.consumer.redelivered")
    out["sparklet.job.p50_ms"] = _median(walls.get("sparklet.job", []))
    out["sparklet.task.queue_wait_s"] = sums.get(
        "sparklet.task.queue_wait_s", 0.0)
    windows = delta("ingest.stream.batches")
    out["sparklet.stream.windows"] = windows
    out["sparklet.stream.nonempty_ratio"] = _ratio(
        delta("ingest.stream.batch_rows"), windows)
    out["cassdb.rows_pruned"] = delta("cassdb.store.rows_pruned")
    out["cassdb.bloom_skips"] = delta("cassdb.store.bloom_skips")
    out["cassdb.sstables"] = storage["sstables"]
    out["cassdb.memtable_rows"] = storage["memtable_rows"]
    hits = delta("cassdb.query.plan_cache_hits")
    out["cql.plan_cache.hit_ratio"] = _ratio(
        hits, hits + delta("cassdb.query.plan_cache_misses"))
    out["server.requests"] = counts.get("server.requests", 0)
    cache_hits = delta("server.result_cache.hits")
    out["server.result_cache.hit_ratio"] = _ratio(
        cache_hits, cache_hits + delta("server.result_cache.misses"))
    for op in SERVER_OPS:
        out[f"server.{op}.p50_ms"] = _median(walls.get(f"server.{op}", []))
    out["detect.windows"] = delta("detect.windows")
    out["detect.alerts"] = delta("detect.alerts")
    out["python.gc.collections"] = tracer.gc_collections
    out["python.gc.pause_s"] = tracer.gc_pause_s
    out["bench.unattributed_s"] = wall_s - sum(busy.values())
    return out


class TraceHooks:
    """Installs the wrappers and reports the layers over the timed phase."""

    def __init__(self):
        from repro import obs

        self.registry = obs.get_registry()
        self.tracer = LayerTracer()
        install(self.tracer)
        self.layers: dict[str, float] = {}
        self._before: dict[str, float] = {}

    def begin(self) -> None:
        self._before = registry_totals(self.registry)
        self.tracer.begin()

    def end(self, outcome) -> None:
        self.layers = layer_report(
            self.tracer, self._before, registry_totals(self.registry),
            outcome.timed_wall_s, outcome.storage_end)

    def close(self) -> None:
        self.tracer.uninstall()


def overhead_pct(workload: str, untraced: dict, traced: dict) -> float:
    """How much slower the traced run's primary rate was, in percent."""
    key = "queries_per_s" if workload == "query_mix" else "ingest_events_per_s"
    return (untraced[key]["value"] / traced[key] - 1.0) * 100.0
