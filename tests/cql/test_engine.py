"""Execution tests for the query engine: aggregates, parity with a naive
evaluator, full-table scans, and engine configuration."""

import itertools
import operator
import random

import pytest

from repro.cassdb import Cluster, InvalidQueryError, Session
from repro.cql import CQLPlanningError, Param, parse_statement
from repro.sparklet import SparkletContext

PARTITION_KEY = ("hour", "type")
_OPS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge,
        "in": lambda value, values: value in values}


def _fold(rows, fn, column):
    if column is None:
        return len(rows)
    values = [r[column] for r in rows if r.get(column) is not None]
    if fn == "count":
        return len(values)
    if not values:
        return None
    if fn == "avg":
        return sum(values) / len(values)
    return {"sum": sum, "min": min, "max": max}[fn](values)


def naive_select(rows, query, params=()):
    """Evaluate a routed SELECT over plain row dicts, without the planner.

    Rows pass every WHERE term (a missing cell matches nothing), then
    either fold per GROUP BY key or project.  *rows* must come in
    (partition key, clustering key) order, so a single-partition LIMIT
    keeps the right rows.  A GROUP BY over partition-key columns only
    reports every queried partition, with zero counts when it is empty.
    """
    stmt = parse_statement(query)

    def bind(v):
        return params[v.index] if isinstance(v, Param) else v

    preds = [(p.column, _OPS[p.op],
              [bind(v) for v in p.value] if p.op == "in" else bind(p.value))
             for p in stmt.predicates]
    kept = [r for r in rows
            if all(r.get(c) is not None and op(r[c], v)
                   for c, op, v in preds)]
    if stmt.order_by is not None and stmt.order_by[1] == "desc":
        kept.reverse()
    if stmt.aggregates is None:
        if stmt.columns is not None:
            kept = [{c: r.get(c) for c in stmt.columns} for r in kept]
        return kept if stmt.limit is None else kept[:stmt.limit]
    groups: dict = {}
    if set(stmt.group_by) <= set(PARTITION_KEY):
        keyed = {p.column: [bind(v) for v in p.value] if p.op == "in"
                 else [bind(p.value)]
                 for p in stmt.predicates if p.column in PARTITION_KEY}
        for combo in itertools.product(*(keyed[c] for c in PARTITION_KEY)):
            pk = dict(zip(PARTITION_KEY, combo))
            groups.setdefault(tuple(pk[c] for c in stmt.group_by), [])
    for r in kept:
        groups.setdefault(tuple(r.get(c) for c in stmt.group_by),
                          []).append(r)
    if not stmt.group_by and not groups:
        groups[()] = []
    try:
        keys = sorted(groups)
    except TypeError:
        keys = sorted(groups, key=repr)
    out = []
    for key in keys:
        row = dict(zip(stmt.group_by, key))
        for a in stmt.aggregates:
            row[a.output_name] = _fold(groups[key], a.fn, a.column)
        out.append(row)
    return out if stmt.limit is None else out[:stmt.limit]


def table_rows(cluster):
    """Every live row of ``ev`` in primary-key order.  ``scan_table``
    rebuilds partition-key values from the ring key, as strings, for a
    table declared through CQL."""
    rows = [{**r, "hour": int(r["hour"])} for r in cluster.scan_table("ev")]
    return sorted(rows, key=lambda r: tuple(r[c] for c in
                                            ("hour", "type", "ts", "seq")))


@pytest.fixture
def cluster():
    c = Cluster(4, replication_factor=2)
    yield c
    c.close()


@pytest.fixture
def session(cluster):
    s = Session(cluster)
    s.execute(
        "CREATE TABLE ev (hour int, type text, ts double, seq int,"
        " source text, amount int, PRIMARY KEY ((hour, type), ts, seq))"
    )
    for hour in (0, 1):
        for i in range(12):
            cols = "hour, type, ts, seq, source, amount"
            vals = (hour, "MCE", float(i), i, f"n{i % 3}", i * 10)
            if i % 4 == 3:  # rows with no 'amount' cell at all
                cols = "hour, type, ts, seq, source"
                vals = vals[:-1]
            s.execute(
                f"INSERT INTO ev ({cols}) VALUES "
                f"({', '.join('?' * len(vals))})", vals)
    return s


class TestAggregateExecution:
    def test_grouped_aggregates_match_manual(self, session):
        rows = session.execute(
            "SELECT source, count(*), sum(amount), min(ts), max(ts)"
            " FROM ev WHERE hour = 0 AND type = 'MCE' GROUP BY source")
        by_source = {r["source"]: r for r in rows}
        # i in {0,3,6,9} -> n0; i=3 has no 'amount' cell (i % 4 == 3)
        assert by_source["n0"]["count"] == 4
        assert by_source["n0"]["sum_amount"] == 0 + 60 + 90
        assert by_source["n0"]["min_ts"] == 0.0
        assert by_source["n0"]["max_ts"] == 9.0
        # Group keys come back deterministically ordered.
        assert [r["source"] for r in rows] == ["n0", "n1", "n2"]

    def test_count_column_ignores_missing_cells(self, session):
        rows = session.execute(
            "SELECT count(*), count(amount) FROM ev"
            " WHERE hour = 0 AND type = 'MCE'")
        assert rows == [{"count": 12, "count_amount": 9}]

    def test_avg_is_float_division(self, session):
        rows = session.execute(
            "SELECT avg(ts) FROM ev WHERE hour = 0 AND type = 'MCE'")
        assert rows[0]["avg_ts"] == pytest.approx(5.5)

    def test_ungrouped_empty_partition_returns_zero_row(self, session):
        rows = session.execute(
            "SELECT count(*), min(amount), avg(amount) FROM ev"
            " WHERE hour = 99 AND type = 'MCE'")
        assert rows == [{"count": 0, "min_amount": None, "avg_amount": None}]

    def test_grouped_empty_partition_returns_no_rows(self, session):
        rows = session.execute(
            "SELECT source, count(*) FROM ev"
            " WHERE hour = 99 AND type = 'MCE' GROUP BY source")
        assert rows == []

    def test_aggregate_with_clustering_range(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev"
            " WHERE hour = 0 AND type = 'MCE' AND ts >= 6.0")
        assert rows == [{"count": 6}]

    def test_aggregate_with_residual_filter(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev"
            " WHERE hour = 0 AND type = 'MCE' AND source = 'n1'")
        assert rows == [{"count": 4}]

    def test_group_by_partition_key_column(self, session):
        rows = session.execute(
            "SELECT hour, count(*) FROM ev"
            " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY hour")
        assert rows == [{"hour": 0, "count": 12}, {"hour": 1, "count": 12}]

    def test_aggregate_binds_params(self, session):
        rows = session.execute(
            "SELECT max(ts) FROM ev WHERE hour = ? AND type = ? AND ts < ?",
            (0, "MCE", 4.0))
        assert rows == [{"max_ts": 3.0}]

    def test_group_by_without_aggregate_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT source FROM ev WHERE hour = 0 AND type = 'MCE'"
                " GROUP BY source")

    def test_plain_column_not_in_group_by_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT ts, count(*) FROM ev WHERE hour = 0 AND"
                " type = 'MCE' GROUP BY source")

    def test_order_by_with_aggregate_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT count(*) FROM ev WHERE hour = 0 AND type = 'MCE'"
                " ORDER BY ts")


class TestPushdownParity:
    """Routed aggregates (pushed partial folds) against a naive GROUP BY
    fold over every live row of the table."""

    QUERIES = [
        ("SELECT source, count(*), sum(amount), avg(amount) FROM ev"
         " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY source", ()),
        ("SELECT count(*), min(ts), max(amount) FROM ev"
         " WHERE hour = 0 AND type = 'MCE' AND ts >= 3.0", ()),
        ("SELECT count(amount) FROM ev WHERE hour = ? AND type = ?"
         " AND source = 'n2'", (1, "MCE")),
    ]

    EDGE_CASES = [
        # empty partition, ungrouped and grouped
        "SELECT count(*), min(amount), avg(amount) FROM ev"
        " WHERE hour = 99 AND type = 'MCE'",
        "SELECT source, count(*) FROM ev"
        " WHERE hour = 99 AND type = 'MCE' GROUP BY source",
        # IN list with one empty partition
        "SELECT source, count(*), sum(amount) FROM ev"
        " WHERE hour IN (0, 99) AND type = 'MCE' GROUP BY source",
        "SELECT hour, count(*), max(ts) FROM ev"
        " WHERE hour IN (1, 99) AND type = 'MCE' GROUP BY hour",
        # everything filtered out, by a residual and by a clustering range
        "SELECT count(*), sum(amount) FROM ev"
        " WHERE hour = 0 AND type = 'MCE' AND source = 'none'",
        "SELECT source, count(*) FROM ev"
        " WHERE hour IN (0, 1) AND type = 'MCE' AND ts >= 1000.0"
        " GROUP BY source",
        # missing cells: rows without 'amount' or without 'source'
        "SELECT source, count(amount), min(amount), avg(amount) FROM ev"
        " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY source",
        # deleted rows, including a re-inserted primary-key-only row
        "SELECT count(*), count(source), sum(ts) FROM ev"
        " WHERE hour = 1 AND type = 'MCE'",
        # LIMIT over an aggregate
        "SELECT source, count(*) FROM ev"
        " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY source LIMIT 2",
        "SELECT count(*), max(amount) FROM ev"
        " WHERE hour = 0 AND type = 'MCE' LIMIT 1",
    ]

    @pytest.mark.parametrize("query,params", QUERIES)
    def test_parity(self, cluster, session, query, params):
        assert (session.execute(query, params)
                == naive_select(table_rows(cluster), query, params))
        plan = session.explain(query)
        assert plan["plan"]["children"][0]["op"] == "MergePartials"

    @pytest.mark.parametrize("flushed", [False, True],
                             ids=["memtable", "flushed"])
    @pytest.mark.parametrize("query", EDGE_CASES)
    def test_edge_case(self, cluster, session, query, flushed):
        key = "hour = ? AND type = 'MCE' AND ts = ? AND seq = ?"
        for hour, i in ((0, 5), (1, 2), (1, 7)):
            session.execute(f"DELETE FROM ev WHERE {key}",
                            (hour, float(i), i))
        session.execute("INSERT INTO ev (hour, type, ts, seq)"
                        " VALUES (1, 'MCE', 7.0, 7)")
        session.execute("INSERT INTO ev (hour, type, ts, seq, amount)"
                        " VALUES (0, 'MCE', 20.0, 20, 5)")
        if flushed:
            cluster.flush_all()
        rows = table_rows(cluster)
        assert len(rows) == 24 - 3 + 2  # (1, 7.0, 7) came back
        assert session.execute(query) == naive_select(rows, query)


class TestRandomDifferential:
    """Seeded random routed SELECTs, aggregate and plain, against a dict
    model of the table built from the same writes: inserts with any
    subset of regular columns (primary-key-only included), deletes and
    re-inserts, with one flush between two rounds of writes."""

    HOURS = (0, 1, 2, 3)   # hour 3 is never written
    TYPES = ("A", "B")
    AGGREGATES = ("count(*)", "count(amount)", "count(source)",
                  "sum(amount)", "min(amount)", "max(amount)",
                  "avg(amount)", "min(ts)", "max(ts)", "sum(ts)")
    GROUP_BYS = ((), ("source",), ("hour",), ("type",), ("hour", "type"))

    def _write(self, rng, session, model, n):
        for _ in range(n):
            key = (rng.choice(self.HOURS[:3]), rng.choice(self.TYPES),
                   float(rng.randrange(8)), rng.randrange(2))
            where = dict(zip(("hour", "type", "ts", "seq"), key))
            if rng.random() < 0.3:
                session.execute(
                    "DELETE FROM ev WHERE hour = ? AND type = ?"
                    " AND ts = ? AND seq = ?", key)
                model.pop(key, None)
                continue
            cells = {}
            if rng.random() < 0.5:
                cells["source"] = f"s{rng.randrange(3)}"
            if rng.random() < 0.5:
                cells["amount"] = rng.randrange(-5, 50)
            values = {**where, **cells}
            session.execute(
                f"INSERT INTO ev ({', '.join(values)}) VALUES"
                f" ({', '.join('?' * len(values))})", tuple(values.values()))
            model.setdefault(key, {}).update(cells)

    def _query(self, rng) -> tuple[str, bool]:
        """One random routed SELECT, and whether its row order is fixed."""
        terms = []
        single = True
        for column, domain in (("hour", self.HOURS), ("type", self.TYPES)):
            if rng.random() < 0.4:
                picked = rng.sample(domain, 2)
                terms.append(f"{column} IN "
                             f"({', '.join(repr(v) for v in picked)})")
                single = False
            else:
                terms.append(f"{column} = {rng.choice(domain)!r}")
        if rng.random() < 0.4:
            terms.append(f"ts {rng.choice(('>', '>=', '<', '<=', '='))}"
                         f" {float(rng.randrange(8))}")
        if rng.random() < 0.25:
            terms.append(f"source = 's{rng.randrange(4)}'")
        if rng.random() < 0.15:
            terms.append(f"amount > {rng.randrange(-5, 50)}")
        where = " AND ".join(terms)
        limit = (f" LIMIT {rng.randrange(1, 6)}"
                 if rng.random() < 0.25 else "")
        if rng.random() < 0.5:
            group_by = rng.choice(self.GROUP_BYS)
            aggs = rng.sample(self.AGGREGATES, rng.randrange(1, 4))
            select = ", ".join([*group_by, *aggs])
            tail = f" GROUP BY {', '.join(group_by)}" if group_by else ""
            return f"SELECT {select} FROM ev WHERE {where}{tail}{limit}", True
        columns = rng.choice(("*", "ts, seq", "source, amount",
                              "hour, ts, amount"))
        if not single:
            return f"SELECT {columns} FROM ev WHERE {where}", False
        order = " ORDER BY ts DESC" if rng.random() < 0.3 else ""
        return f"SELECT {columns} FROM ev WHERE {where}{order}{limit}", True

    def _check(self, rng, session, model, n):
        rows = [{**dict(zip(("hour", "type", "ts", "seq"), key)), **cells}
                for key, cells in sorted(model.items())]
        for _ in range(n):
            query, ordered = self._query(rng)
            got, want = session.execute(query), naive_select(rows, query)
            if not ordered:
                got, want = sorted(got, key=repr), sorted(want, key=repr)
            assert got == want, query

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_routed_selects_match_dict_model(self, cluster, seed):
        rng = random.Random(seed)
        session = Session(cluster)
        session.execute(
            "CREATE TABLE ev (hour int, type text, ts double, seq int,"
            " source text, amount int, PRIMARY KEY ((hour, type), ts, seq))")
        model: dict = {}
        self._write(rng, session, model, 150)
        self._check(rng, session, model, 60)
        cluster.flush_all()
        self._write(rng, session, model, 150)
        self._check(rng, session, model, 120)


class TestReinsertAfterDelete:
    """A re-INSERT after DELETE brings the row back, also when it names
    only primary-key columns (its row marker outlives the tombstone)."""

    @pytest.mark.parametrize("with_cell", [False, True],
                             ids=["key-only", "with-cell"])
    @pytest.mark.parametrize("flush_at_end", [False, True],
                             ids=["end-memtable", "end-flushed"])
    @pytest.mark.parametrize("flush_after_delete", [False, True],
                             ids=["delete-memtable", "delete-flushed"])
    def test_reinsert_is_visible(self, cluster, session, flush_after_delete,
                                 flush_at_end, with_cell):
        if with_cell:
            insert = ("INSERT INTO ev (hour, type, ts, seq, amount)"
                      " VALUES (5, 'X', 1.0, 1, 7)")
        else:
            insert = ("INSERT INTO ev (hour, type, ts, seq)"
                      " VALUES (5, 'X', 1.0, 1)")
        session.execute(insert)
        session.execute("DELETE FROM ev WHERE hour = 5 AND type = 'X'"
                        " AND ts = 1.0 AND seq = 1")
        if flush_after_delete:
            cluster.flush_all()
        session.execute(insert)
        if flush_at_end:
            cluster.flush_all()
        where = "WHERE hour = 5 AND type = 'X'"
        assert (session.execute(f"SELECT ts, seq FROM ev {where}")
                == [{"ts": 1.0, "seq": 1}])
        assert (session.execute(f"SELECT count(*) FROM ev {where}")
                == [{"count": 1}])


class TestFullScanAggregates:
    def test_serial_fallback_without_sparklet(self, session):
        rows = session.execute("SELECT count(*), max(amount) FROM ev")
        assert rows == [{"count": 24, "max_amount": 100}]
        plan = session.explain("SELECT count(*) FROM ev")
        scan = plan["plan"]["children"][0]
        assert scan["op"] == "FullScanAggregate"
        assert scan["engine"] == "serial"

    def test_sparklet_route_matches_serial(self, cluster, session):
        sc = SparkletContext(cluster=cluster)
        try:
            spark = Session(cluster, sparklet=sc)
            plan = spark.explain("SELECT source, count(*) FROM ev"
                                 " GROUP BY source")
            assert plan["plan"]["children"][0]["engine"] == "sparklet"
            assert (spark.execute("SELECT source, count(*) FROM ev"
                                  " GROUP BY source")
                    == session.execute("SELECT source, count(*) FROM ev"
                                       " GROUP BY source"))
        finally:
            sc.stop()

    def test_full_scan_with_residual_predicate(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev WHERE source = 'n0' ALLOW FILTERING")
        assert rows == [{"count": 8}]

    def test_plain_select_still_requires_routing(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute("SELECT * FROM ev")


class TestEngineConfig:
    def test_limit_placeholder_still_rejected(self, session):
        with pytest.raises(CQLPlanningError):
            session.execute(
                "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE' LIMIT ?",
                (5,))

    def test_explain_statement_executes_to_payload(self, session):
        q = "SELECT ts FROM ev WHERE hour = 0 AND type = 'MCE' LIMIT 2"
        assert session.execute("EXPLAIN " + q) == [session.explain(q)]
