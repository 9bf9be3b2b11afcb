"""S10 — columnar blocks: vectorized scans vs the row-at-a-time path.

SSTable partitions are column-major (``ColumnBlock``): pushed-down
predicates, projections, and aggregate folds run one column at a time
(``repro.cassdb.vector``), materializing row dicts only for the
survivors.  The row baseline is the same cluster without the final
``flush_all``: every row stays in the row-form memtables, which the
read path serves row at a time.  One bench run builds both over
identical data and holds two lines:

* **filtered scan win** — a full-partition scan with a pushed-down
  residual predicate (``source = 'n3'``, ~1/7 selectivity over a
  dictionary-encoded column) must run ≥ 2× faster on columnar blocks;
* **grouped aggregate win** — a pushed-down ``GROUP BY`` over the same
  dictionary-encoded column must fold ≥ 2× faster per-column than the
  row-bucket fold.

Runs standalone for the CI bench-smoke job::

    PYTHONPATH=src python benchmarks/bench_s10_columnar.py --quick \
        --json BENCH_s10_columnar.json

and as pytest-collected tests against a smaller fixture.
"""

import argparse
import json
import sys
import time

import pytest

from repro.cassdb import Cluster, Session

from conftest import report

FILTER_QUERY = ("SELECT ts, seq, amount FROM ev WHERE hour = {hour}"
                " AND type = 'MCE' AND source = 'n3'")
GROUPED_QUERY = (
    "SELECT source, count(*), sum(amount), avg(amount) FROM ev"
    " WHERE hour IN ({hours}) AND type = 'MCE' GROUP BY source")
COUNT_QUERY = ("SELECT source, count(*) FROM ev"
               " WHERE hour IN ({hours}) AND type = 'MCE' GROUP BY source")


def _best(fn, rounds=3):
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_cluster(hours, rows_per_hour, db_nodes=6, *, flush=True):
    # The threshold keeps every row memtable-resident until flush_all.
    cluster = Cluster(db_nodes, replication_factor=2, flush_threshold=10**9)
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
    # Push everything into SSTables (column blocks); without the flush
    # the rows stay in memtables, the row-form baseline.
    if flush:
        cluster.flush_all()
    return cluster


def _hours_list(hours):
    return ", ".join(map(str, range(hours)))


def run_filtered_scan(col_cluster, row_cluster, hours,
                      *, passes=5, rounds=3):
    """Full-partition scan with a pushed-down residual predicate."""
    col, row = Session(col_cluster), Session(row_cluster)
    queries = [FILTER_QUERY.format(hour=h) for h in range(hours)]
    for q in queries:  # parity first: both layouts must agree
        assert col.execute(q) == row.execute(q)

    def drive(session):
        for _ in range(passes):
            for q in queries:
                session.execute(q)

    t_col = _best(lambda: drive(col), rounds)
    t_row = _best(lambda: drive(row), rounds)
    return {
        "passes": passes,
        "rows_matched": sum(len(col.execute(q)) for q in queries),
        "columnar_s": t_col,
        "row_s": t_row,
        "speedup": t_row / t_col if t_col else float("inf"),
    }


def run_grouped_aggregate(col_cluster, row_cluster, hours,
                          *, passes=5, rounds=3):
    """Pushed-down GROUP BY: per-column fold vs row-bucket fold."""
    col, row = Session(col_cluster), Session(row_cluster)
    grouped = GROUPED_QUERY.format(hours=_hours_list(hours))
    counted = COUNT_QUERY.format(hours=_hours_list(hours))
    assert col.execute(grouped) == row.execute(grouped)
    assert col.execute(counted) == row.execute(counted)

    def drive(session, query):
        for _ in range(passes):
            session.execute(query)

    t_col = _best(lambda: drive(col, grouped), rounds)
    t_row = _best(lambda: drive(row, grouped), rounds)
    tc_col = _best(lambda: drive(col, counted), rounds)
    tc_row = _best(lambda: drive(row, counted), rounds)
    return {
        "passes": passes,
        "groups": len(col.execute(grouped)),
        "columnar_s": t_col,
        "row_s": t_row,
        "speedup": t_row / t_col if t_col else float("inf"),
        "count_columnar_s": tc_col,
        "count_row_s": tc_row,
        "count_speedup": tc_row / tc_col if tc_col else float("inf"),
    }


def run_all(col_cluster, row_cluster, hours, *, passes=5, rounds=3):
    return {
        "filtered_scan": run_filtered_scan(col_cluster, row_cluster, hours,
                                           passes=passes, rounds=rounds),
        "grouped": run_grouped_aggregate(col_cluster, row_cluster, hours,
                                         passes=passes, rounds=rounds),
    }


def _report_all(results):
    fs, gr = results["filtered_scan"], results["grouped"]
    report("S10: columnar blocks", [
        ("experiment", "memtable rows", "columnar", "note"),
        ("filtered scan", f"{fs['row_s']:.4f}s",
         f"{fs['columnar_s']:.4f}s",
         f"{fs['speedup']:.2f}x ({fs['rows_matched']} rows kept)"),
        ("grouped aggregate", f"{gr['row_s']:.4f}s",
         f"{gr['columnar_s']:.4f}s",
         f"{gr['speedup']:.2f}x ({gr['groups']} groups)"),
        ("count(*) groups", f"{gr['count_row_s']:.4f}s",
         f"{gr['count_columnar_s']:.4f}s",
         f"{gr['count_speedup']:.2f}x"),
    ])


# -- pytest entry points -----------------------------------------------------

@pytest.fixture(scope="module")
def bench_clusters():
    col = build_cluster(hours=4, rows_per_hour=700, flush=True)
    row = build_cluster(hours=4, rows_per_hour=700, flush=False)
    yield col, row
    col.close()
    row.close()


class TestColumnarBench:
    def test_filtered_scan_wins(self, bench_clusters):
        col, row = bench_clusters
        r = run_filtered_scan(col, row, hours=4, passes=3, rounds=2)
        # CI smoke holds the 2x line; under pytest the fixture is small,
        # so only require the columnar path to win at all.
        assert r["speedup"] > 1.0, r

    def test_grouped_aggregate_wins(self, bench_clusters):
        col, row = bench_clusters
        r = run_grouped_aggregate(col, row, hours=4, passes=3, rounds=2)
        assert r["speedup"] > 1.0, r

    def test_report(self, bench_clusters):
        col, row = bench_clusters
        _report_all(run_all(col, row, hours=4, passes=2, rounds=2))


# -- standalone entry point (CI bench-smoke job) -----------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small data set / few passes (CI smoke)")
    ap.add_argument("--json", dest="json_path",
                    help="write timing results to this JSON file")
    args = ap.parse_args(argv)

    hours = 6 if args.quick else 12
    rows = 2000 if args.quick else 6000
    col_cluster = build_cluster(hours, rows, flush=True)
    row_cluster = build_cluster(hours, rows, flush=False)
    try:
        results = run_all(col_cluster, row_cluster, hours,
                          passes=4 if args.quick else 8,
                          rounds=2 if args.quick else 3)
    finally:
        col_cluster.close()
        row_cluster.close()
    _report_all(results)
    payload = {"bench": "s10_columnar", "quick": args.quick,
               "hours": hours, "rows_per_hour": rows, "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    ok = (results["filtered_scan"]["speedup"] >= 2.0
          and results["grouped"]["speedup"] >= 2.0)
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
