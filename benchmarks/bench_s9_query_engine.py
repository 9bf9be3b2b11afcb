"""S9 — query engine: aggregate pushdown vs shipping rows, plan cache.

PR 6 replaced the ad-hoc statement dispatcher with a real pipeline
(tokenize → parse → plan → optimize → compile) whose headline
optimization is **partial-aggregate pushdown**: a routed GROUP BY folds
rows into partial states at the replica read and ships only the
partials, instead of rehydrating every row to a dict and grouping at
the coordinator.  This bench holds the two lines that justify it:

* **pushdown win** — the grouped aggregate executed by the optimized
  plan (MergePartials ← PartialAggregateScan) must beat shipping the
  rows instead — a plain ``SELECT source, amount`` over the same
  partitions folded into the same groups on the client (parity
  asserted) — by ≥ 2×;
* **plan-cache overhead** — re-executing a cached statement must not be
  slower than a session with the plan cache disabled, i.e. the new
  prepare pipeline stays off the warm path.

Runs standalone for the CI bench-smoke job::

    PYTHONPATH=src python benchmarks/bench_s9_query_engine.py --quick \
        --json BENCH_s9_query_engine.json

and as pytest-collected tests against a smaller fixture.
"""

import argparse
import json
import sys
import time

import pytest

from repro.cassdb import Cluster, Session

from conftest import report

GROUPED_QUERY = (
    "SELECT source, count(*), sum(amount), avg(amount) FROM ev"
    " WHERE hour IN ({hours}) AND type = 'MCE' GROUP BY source")
SHIPPED_QUERY = ("SELECT source, amount FROM ev"
                 " WHERE hour IN ({hours}) AND type = 'MCE'")
POINT_QUERY = ("SELECT ts FROM ev WHERE hour = 0 AND type = 'MCE'"
               " AND ts >= 1.0 LIMIT 5")


def _best(fn, rounds=3):
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_cluster(hours, rows_per_hour, db_nodes=6):
    cluster = Cluster(db_nodes, replication_factor=2)
    session = Session(cluster)
    session.execute(
        "CREATE TABLE ev (hour int, type text, ts double, seq int,"
        " source text, amount int, PRIMARY KEY ((hour, type), ts, seq))")
    insert = session.prepare(
        "INSERT INTO ev (hour, type, ts, seq, source, amount)"
        " VALUES (?, ?, ?, ?, ?, ?)")
    for hour in range(hours):
        for i in range(rows_per_hour):
            session.engine.execute(
                insert, (hour, "MCE", float(i), i, f"n{i % 7}", i % 100))
    return cluster


def client_fold(rows):
    """GROUPED_QUERY's result computed from shipped rows on the client."""
    groups: dict = {}
    for r in rows:
        acc = groups.setdefault(r["source"], [0, None, 0])
        acc[0] += 1
        if r["amount"] is not None:
            acc[1] = r["amount"] + (acc[1] or 0)
            acc[2] += 1
    return [{"source": source, "count": n, "sum_amount": total,
             "avg_amount": total / k if k else None}
            for source, (n, total, k) in sorted(groups.items())]


def run_pushdown_win(cluster, hours, *, passes=5, rounds=3):
    """Grouped aggregate: pushed plan vs rows shipped and folded by the
    client."""
    hour_list = ", ".join(map(str, range(hours)))
    query = GROUPED_QUERY.format(hours=hour_list)
    shipped_query = SHIPPED_QUERY.format(hours=hour_list)
    session = Session(cluster)
    assert (session.execute(query)
            == client_fold(session.execute(shipped_query))), "parity"

    t_pushed = _best(lambda: [session.execute(query)
                              for _ in range(passes)], rounds)
    t_shipped = _best(lambda: [client_fold(session.execute(shipped_query))
                               for _ in range(passes)], rounds)
    return {
        "passes": passes,
        "groups": len(session.execute(query)),
        "pushed_s": t_pushed,
        "shipped_s": t_shipped,
        "speedup": t_shipped / t_pushed if t_pushed else float("inf"),
    }


def run_plan_cache_overhead(cluster, *, calls=2000, rounds=3):
    """Warm-path cost of the prepare pipeline: cached vs re-planned."""
    cached = Session(cluster)
    uncached = Session(cluster, plan_cache_size=0)

    def drive(session):
        for _ in range(calls):
            session.execute(POINT_QUERY)

    drive(cached)  # prime the cache
    t_cached = _best(lambda: drive(cached), rounds)
    t_uncached = _best(lambda: drive(uncached), rounds)
    return {
        "calls": calls,
        "cached_s": t_cached,
        "uncached_s": t_uncached,
        "cache_hits": cached.plan_cache_len,
        "overhead_pct": (t_cached - t_uncached) / t_uncached * 100.0,
    }


def run_all(cluster, hours, *, passes=5, rounds=3, calls=2000):
    return {
        "pushdown": run_pushdown_win(cluster, hours,
                                     passes=passes, rounds=rounds),
        "plan_cache": run_plan_cache_overhead(cluster, calls=calls,
                                              rounds=rounds),
    }


def _report_all(results):
    pd, pc = results["pushdown"], results["plan_cache"]
    report("S9: query engine", [
        ("experiment", "baseline", "optimized", "note"),
        ("grouped aggregate", f"{pd['shipped_s']:.4f}s client fold",
         f"{pd['pushed_s']:.4f}s pushed",
         f"{pd['speedup']:.2f}x ({pd['groups']} groups)"),
        ("plan cache", f"{pc['uncached_s']:.4f}s re-plan",
         f"{pc['cached_s']:.4f}s cached",
         f"{pc['overhead_pct']:+.2f}% ({pc['calls']} calls)"),
    ])


# -- pytest entry points -----------------------------------------------------

@pytest.fixture(scope="module")
def bench_cluster():
    cluster = build_cluster(hours=6, rows_per_hour=600)
    yield cluster
    cluster.close()


class TestQueryEngineBench:
    def test_pushdown_beats_row_shipping(self, bench_cluster):
        r = run_pushdown_win(bench_cluster, hours=6, passes=3, rounds=2)
        # CI smoke holds the 2x line; under pytest the fixture is small,
        # so only require the pushed plan to win at all.
        assert r["speedup"] > 1.0, r

    def test_plan_cache_not_slower(self, bench_cluster):
        r = run_plan_cache_overhead(bench_cluster, calls=500, rounds=2)
        assert r["overhead_pct"] <= 10.0, r

    def test_report(self, bench_cluster):
        _report_all(run_all(bench_cluster, hours=6, passes=2, rounds=2,
                            calls=300))


# -- standalone entry point (CI bench-smoke job) -----------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small data set / few passes (CI smoke)")
    ap.add_argument("--json", dest="json_path",
                    help="write timing results to this JSON file")
    args = ap.parse_args(argv)

    hours = 8 if args.quick else 16
    rows = 1500 if args.quick else 4000
    cluster = build_cluster(hours, rows)
    try:
        results = run_all(cluster, hours,
                          passes=4 if args.quick else 8,
                          rounds=2 if args.quick else 3,
                          calls=1000 if args.quick else 4000)
    finally:
        cluster.close()
    _report_all(results)
    payload = {"bench": "s9_query_engine", "quick": args.quick,
               "hours": hours, "rows_per_hour": rows, "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    ok = (results["pushdown"]["speedup"] >= 2.0
          and results["plan_cache"]["overhead_pct"] <= 10.0)
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
