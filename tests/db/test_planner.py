"""Planner decisions: pushdown, join strategies, EXPLAIN, scan metrics."""

import pytest

from repro import obs
from repro.db import Database, PlannerOptions, parse
from repro.db.query import naive_execute_select
from repro.errors import ProgrammingError


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


@pytest.fixture
def db():
    # Options pinned by argument so the assertions on optimized plan
    # lines hold even when the environment selects the naive planner.
    database = Database(planner_options=PlannerOptions(), plan_cache=128)
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, industry TEXT, "
        "PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "PRIMARY KEY (cid), "
        "FOREIGN KEY (deal_id) REFERENCES deals (deal_id))"
    )
    database.execute("CREATE INDEX ix_contacts_deal ON contacts (deal_id)")
    for i in range(4):
        database.execute(
            "INSERT INTO deals VALUES (?, ?)",
            [f"d{i}", "bank" if i % 2 else "auto"],
        )
        # 8 contacts per deal so the right side is >= 4x the probe side
        # and the index nested-loop join threshold is met.
        for j in range(8):
            database.execute(
                "INSERT INTO contacts VALUES (?, ?, ?)",
                [i * 10 + j, f"d{i}", f"p{i}.{j}"],
            )
    return database


class TestJoinStrategies:
    def test_index_nested_loop_join_when_right_indexed(self, db):
        result = db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd1'"
        )
        assert any("index join c via ix_contacts_deal" in line
                   for line in result.plan)
        assert len(result.rows) == 8

    def test_hash_join_build_side_selection(self, db):
        # No usable right index (join on nm has none) and the left side
        # is smaller than the right: build on the left.
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "JOIN contacts c ON c.nm = d.industry"
        )
        assert any("build=left" in line for line in result.plan)

    def test_index_join_skipped_when_left_too_large(self, db):
        # Probing contacts (32 rows) into deals (4 rows) via the pk
        # would do 32 point lookups against a 4-row table; the planner
        # falls back to a hash join.
        result = db.execute(
            "SELECT d.industry FROM contacts c "
            "JOIN deals d ON d.deal_id = c.deal_id"
        )
        assert any("hash join d" in line for line in result.plan)
        assert len(result.rows) == 32

    def test_left_join_keeps_unmatched_rows(self, db):
        db.execute("INSERT INTO deals VALUES ('d9', 'void')")
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd9'"
        )
        assert result.rows == [("d9", None)]


class TestPushdown:
    def test_base_predicate_pushed_into_scan(self, db):
        result = db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.industry = 'bank' AND c.nm LIKE 'p1%'"
        )
        assert any("pushdown" in line for line in result.plan)
        assert sorted(result.column("nm")) == [f"p1.{j}" for j in range(8)]

    def test_left_join_never_pushes_right_side_predicate(self, db):
        db.execute("INSERT INTO deals VALUES ('d9', 'void')")
        result = db.execute(
            "SELECT d.deal_id, c.nm FROM deals d "
            "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd9' AND c.nm IS NULL"
        )
        # Filtering c before a LEFT JOIN would change which rows get
        # null-extended; the engine must keep the unmatched row.
        assert result.rows == [("d9", None)]

    def test_runtime_null_probe_yields_empty_scan(self, db):
        result = db.execute(
            "SELECT deal_id FROM deals WHERE deal_id = ?", [None]
        )
        assert result.rows == []
        assert any("empty scan" in line for line in result.plan)


class TestInListAccess:
    def test_in_list_served_by_index(self, db, registry):
        result = db.execute(
            "SELECT cid FROM contacts WHERE deal_id IN (?, ?, NULL)",
            ["d3", "d1"],
        )
        assert "index in-list ix_contacts_deal(deal_id)" in result.plan
        # Union in rowid order, as a full scan would visit the rows.
        assert result.column("cid") == (
            [10 + j for j in range(8)] + [30 + j for j in range(8)]
        )
        assert registry.counter("db.rows_scanned").value == 16

    def test_not_in_uses_key_filter(self, db):
        # NOT IN has no probe values; 4 distinct deal_id keys over 32
        # rows passes the key filter's cardinality guard.
        result = db.execute(
            "SELECT cid FROM contacts WHERE deal_id NOT IN ('d0')"
        )
        assert "index key filter ix_contacts_deal(deal_id)" in result.plan
        assert len(result.rows) == 24

    def test_equality_index_preferred_over_in_list(self, db):
        result = db.execute(
            "SELECT nm FROM contacts WHERE deal_id IN ('d1', 'd2') "
            "AND cid = 12"
        )
        assert any("index lookup pk_contacts" in line
                   for line in result.plan)
        assert result.rows == [("p1.2",)]

    @pytest.mark.parametrize("statement", [
        "UPDATE contacts SET nm = 'moved' WHERE deal_id IN (?, ?)",
        "DELETE FROM contacts WHERE deal_id IN (?, ?)",
    ])
    def test_mutations_use_in_list(self, db, statement):
        params = ["d2", "d0"]
        where = statement.split(" WHERE ", 1)[1]
        selected = naive_execute_select(
            db, parse(f"SELECT cid FROM contacts WHERE {where}"), params
        ).column("cid")
        everyone = db.execute("SELECT cid FROM contacts").column("cid")
        result = db.execute(statement, params)
        assert any("index in-list ix_contacts_deal" in line
                   for line in result.plan)
        assert result.scalar() == len(selected) == 16
        if statement.startswith("DELETE"):
            remaining = db.execute("SELECT cid FROM contacts").column("cid")
            assert remaining == [c for c in everyone if c not in selected]
        else:
            moved = db.execute(
                "SELECT cid FROM contacts WHERE nm = 'moved'"
            ).column("cid")
            assert moved == selected


class TestKeyFilter:
    def test_like_served_by_key_filter(self, db, registry):
        result = db.execute(
            "SELECT cid FROM contacts WHERE LOWER(deal_id) LIKE ?", ["%3"]
        )
        assert "index key filter ix_contacts_deal(deal_id)" in result.plan
        assert result.column("cid") == [30 + j for j in range(8)]
        # Only the candidates of passing keys are fetched.
        assert registry.counter("db.rows_scanned").value == 8

    def test_explain_reports_key_filter(self, db):
        lines = db.explain(
            "SELECT c.nm FROM contacts c WHERE LOWER(c.deal_id) LIKE 'd1'"
        ).column("plan")
        assert lines[0] == "index key filter ix_contacts_deal(deal_id)"

    def test_high_cardinality_column_scans(self, db, registry):
        # 32 distinct names over 32 rows: evaluating per key would cost
        # as much as the scan, so the guard keeps the full scan.
        db.execute("CREATE INDEX ix_contacts_nm ON contacts (nm)")
        result = db.execute(
            "SELECT cid FROM contacts WHERE LOWER(nm) LIKE 'p1.%'"
        )
        assert "full scan contacts" in result.plan
        assert result.column("cid") == [10 + j for j in range(8)]
        assert registry.counter("db.rows_scanned").value == 32

    def test_raising_key_behind_rejecting_conjunct(self, db):
        # LIKE over an INTEGER key raises for every non-NULL key; the
        # first conjunct rejects each row holding one, so the row-wise
        # WHERE never reaches the LIKE there and nothing may raise.
        db.execute(
            "CREATE TABLE marks (mid INTEGER, grp INTEGER, tag TEXT, "
            "PRIMARY KEY (mid))"
        )
        db.execute("CREATE INDEX ix_marks_grp ON marks (grp)")
        rows = [(1, 1, "a"), (2, 1, "b"), (3, 2, "a"), (4, None, "x"),
                (5, 2, "b"), (6, None, "x")]
        for row in rows:
            db.execute("INSERT INTO marks VALUES (?, ?, ?)", list(row))
        sql = "SELECT mid FROM marks WHERE tag = 'x' AND grp LIKE '1%'"
        result = db.execute(sql)
        assert "index key filter ix_marks_grp(grp)" in result.plan
        assert result.rows == naive_execute_select(db, parse(sql)).rows

    @pytest.mark.parametrize("sql,error", [
        ("SELECT cid FROM contacts WHERE LENGTH(deal_id) + 'x' = 1",
         ProgrammingError),
        ("SELECT cid FROM contacts WHERE ABS(deal_id) = 1", TypeError),
    ])
    def test_raising_key_still_raises_on_its_rows(self, db, sql, error):
        # Every key raises, so every row is a candidate and the WHERE
        # raises on the first, exactly as the row-wise reference does.
        with pytest.raises(error):
            naive_execute_select(db, parse(sql))
        with pytest.raises(error):
            db.execute(sql)

    @pytest.mark.parametrize("statement", [
        "UPDATE contacts SET nm = 'moved' WHERE LOWER(deal_id) LIKE ?",
        "DELETE FROM contacts WHERE LOWER(deal_id) LIKE ?",
    ])
    def test_mutations_use_key_filter(self, db, statement):
        params = ["%2"]
        where = statement.split(" WHERE ", 1)[1]
        selected = naive_execute_select(
            db, parse(f"SELECT cid FROM contacts WHERE {where}"), params
        ).column("cid")
        everyone = db.execute("SELECT cid FROM contacts").column("cid")
        result = db.execute(statement, params)
        assert "index key filter ix_contacts_deal(deal_id)" in result.plan
        assert result.scalar() == len(selected) == 8
        if statement.startswith("DELETE"):
            remaining = db.execute("SELECT cid FROM contacts").column("cid")
            assert remaining == [c for c in everyone if c not in selected]
        else:
            moved = db.execute(
                "SELECT cid FROM contacts WHERE nm = 'moved'"
            ).column("cid")
            assert moved == selected

    def test_unknown_column_raises_on_tuple_rows(self, db):
        with pytest.raises(ProgrammingError, match="unknown column"):
            db.execute("SELECT nope FROM deals")
        with pytest.raises(ProgrammingError, match="unknown column"):
            db.execute("SELECT deal_id FROM deals WHERE d.industry = 'x'")


class TestScanMetrics:
    def test_join_rows_split_from_base_scan(self, db, registry):
        db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id"
        )
        snapshot = registry.snapshot()
        assert "db.rows_scanned" in snapshot
        assert "db.join.probe_rows" in snapshot
        # Join work is counted separately from base access regardless
        # of which join strategy the planner picked.
        assert registry.counter("db.join.probe_rows").value > 0
        assert registry.counter("db.join.build_rows").value > 0

    def test_index_join_probe_rows_accounting(self, db, registry):
        db.execute(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = 'd1'"
        )
        # One probe row (the single deal), eight fetched contact rows.
        assert registry.counter("db.join.probe_rows").value == 1
        assert registry.counter("db.join.build_rows").value == 8

    def test_single_table_query_has_no_join_counters(self, db, registry):
        db.execute("SELECT deal_id FROM deals")
        snapshot = registry.snapshot()
        assert "db.join.build_rows" not in snapshot
        assert "db.join.probe_rows" not in snapshot


class TestExplain:
    def test_explain_select_reports_plan_without_rows(self, db):
        result = db.explain(
            "SELECT c.nm FROM deals d "
            "JOIN contacts c ON c.deal_id = d.deal_id "
            "WHERE d.deal_id = ?",
            ["d1"],
        )
        assert result.columns == ["plan"]
        lines = result.column("plan")
        assert any("index join" in line for line in lines)

    def test_explain_sql_statement(self, db):
        result = db.execute(
            "EXPLAIN SELECT deal_id FROM deals WHERE deal_id = 'd1'"
        )
        assert result.columns == ["plan"]
        assert any("index lookup pk_deals" in line
                   for line in result.column("plan"))

    def test_explain_update_uses_index_without_mutating(self, db):
        result = db.explain(
            "UPDATE contacts SET nm = 'x' WHERE deal_id = 'd1'"
        )
        lines = result.column("plan")
        assert any("ix_contacts_deal" in line for line in lines)
        assert any("candidate rows" in line for line in lines)
        assert "x" not in db.execute("SELECT nm FROM contacts").column("nm")

    def test_explain_delete_reports_access_path(self, db):
        result = db.explain("DELETE FROM contacts WHERE cid = 11")
        assert any("pk_contacts" in line for line in result.column("plan"))
        assert db.execute(
            "SELECT count(*) FROM contacts"
        ).scalar() == 32


class TestMutationPlans:
    def test_update_rowcount_carries_plan(self, db):
        result = db.execute(
            "UPDATE contacts SET nm = 'renamed' WHERE deal_id = 'd2'"
        )
        assert result.scalar() == 8
        assert any("ix_contacts_deal" in line for line in result.plan)

    def test_delete_rowcount_carries_plan(self, db):
        result = db.execute("DELETE FROM contacts WHERE cid = 30")
        assert result.scalar() == 1
        assert any("index lookup pk_contacts" in line
                   for line in result.plan)

    def test_update_without_index_scans(self, db):
        result = db.execute(
            "UPDATE contacts SET nm = 'n' WHERE nm = 'p0.0'"
        )
        assert result.scalar() == 1
        assert any("full scan contacts" in line for line in result.plan)
