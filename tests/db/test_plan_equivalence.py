"""Option-lattice equivalence: every planner configuration, same rows.

The contract the overhauled engine makes is that planner choices can
never change results, only speed.  This suite enforces it directly: a
zoo of SELECT shapes runs under *every* combination of planner feature
flags (the full 2^5 lattice) and each result — columns, rows, and row
order — must be identical to the seed row-at-a-time executor kept in
:func:`repro.db.query.naive_execute_select`.

The fixture data is deliberately adversarial: NULL join keys on both
sides, duplicate keys, ties in sort columns, floats whose sum depends
on fold order, and an empty table.
"""

import itertools

import pytest

from repro.db import Database, parse
from repro.db.plan import PlannerOptions, SelectPlan
from repro.db.query import naive_execute_select

FLAGS = (
    "predicate_pushdown",
    "index_join",
    "join_side_selection",
    "streaming_aggregation",
    "topk_order",
)

LATTICE = [
    PlannerOptions(**dict(zip(FLAGS, bits)))
    for bits in itertools.product((False, True), repeat=len(FLAGS))
]


@pytest.fixture(scope="module")
def db():
    database = Database(plan_cache=0)
    database.execute(
        "CREATE TABLE deals (deal_id TEXT, industry TEXT, value REAL, "
        "lead TEXT, PRIMARY KEY (deal_id))"
    )
    database.execute(
        "CREATE TABLE contacts (cid INTEGER, deal_id TEXT, nm TEXT, "
        "role TEXT, PRIMARY KEY (cid))"
    )
    database.execute(
        "CREATE TABLE scopes (sid INTEGER, deal_id TEXT, tower TEXT, "
        "hours REAL, PRIMARY KEY (sid))"
    )
    database.execute("CREATE TABLE empty (k INTEGER, PRIMARY KEY (k))")
    database.execute("CREATE INDEX ix_contacts_deal ON contacts (deal_id)")
    database.execute("CREATE INDEX ix_deals_industry ON deals (industry)")
    database.execute("CREATE INDEX ix_scopes_deal ON scopes (deal_id)")
    database.execute("CREATE INDEX ix_scopes_tower ON scopes (tower)")
    # contacts.role (4 keys incl. NULL over 8 rows) and scopes.tower (3
    # keys incl. NULL over 6 rows) pass the key filter's guard.
    database.execute("CREATE INDEX ix_contacts_role ON contacts (role)")
    deals = [
        ("d1", "bank", 10.5, "Sam"),
        ("d2", "auto", 0.1, "Sam"),
        ("d3", "bank", 0.2, None),
        ("d4", "retail", 0.3, "Wei"),
        ("d5", None, 10.5, "Jane"),
        ("d6", "bank", None, "Jane"),
    ]
    for row in deals:
        database.execute("INSERT INTO deals VALUES (?, ?, ?, ?)", list(row))
    contacts = [
        (1, "d1", "Sam", "CSE"),
        (2, "d1", "Jane", "TSA"),
        (3, "d2", "Sam", "CSE"),
        (4, None, "Ghost", "DPE"),   # NULL join key, right side
        (5, "d3", "Wei", "DPE"),
        (6, "d3", "Wei", "CSE"),     # duplicate nm, different role
        (7, "dX", "Orphan", "TSA"),  # key with no matching deal
        (8, "d5", "Jane", None),
    ]
    for row in contacts:
        database.execute(
            "INSERT INTO contacts VALUES (?, ?, ?, ?)", list(row)
        )
    scopes = [
        (1, "d1", "WAN", 100.0),
        (2, "d1", "LAN", 0.1),
        (3, "d2", "WAN", 0.2),
        (4, "d3", None, 0.3),
        (5, None, "LAN", 0.4),       # NULL join key again
        (6, "d4", "WAN", None),
    ]
    for row in scopes:
        database.execute("INSERT INTO scopes VALUES (?, ?, ?, ?)", list(row))
    return database


# (sql, params) pairs; every shape the engine optimizes differently.
QUERY_ZOO = [
    ("SELECT * FROM deals", ()),
    ("SELECT deal_id, value FROM deals WHERE industry = 'bank'", ()),
    ("SELECT deal_id FROM deals WHERE industry = ?", ("auto",)),
    ("SELECT deal_id FROM deals WHERE industry = ?", (None,)),
    ("SELECT deal_id FROM deals WHERE value > 0.15 AND lead = 'Sam'", ()),
    ("SELECT deal_id FROM deals WHERE industry IS NULL", ()),
    ("SELECT deal_id FROM deals ORDER BY value DESC, deal_id", ()),
    ("SELECT deal_id FROM deals ORDER BY value DESC, deal_id LIMIT 3", ()),
    ("SELECT deal_id FROM deals ORDER BY value LIMIT 2 OFFSET 2", ()),
    ("SELECT DISTINCT industry FROM deals", ()),
    ("SELECT DISTINCT industry FROM deals LIMIT 2", ()),
    ("SELECT DISTINCT industry FROM deals LIMIT 2 OFFSET 1", ()),
    ("SELECT DISTINCT lead FROM deals ORDER BY lead LIMIT 2", ()),
    ("SELECT deal_id FROM deals LIMIT 4", ()),
    ("SELECT k FROM empty", ()),
    ("SELECT count(*) FROM empty", ()),
    # Joins — NULL keys on both sides must never match.
    ("SELECT d.deal_id, c.nm FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE d.industry = 'bank' AND c.role = 'CSE'", ()),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE d.value > 0.15", ()),
    # LEFT JOIN + predicate on the right side: pushdown must not
    # filter before null-extension.
    ("SELECT d.deal_id, c.nm FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE c.nm IS NULL", ()),
    ("SELECT d.deal_id, c.nm, s.tower FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id "
     "JOIN scopes s ON s.deal_id = d.deal_id "
     "ORDER BY d.deal_id, c.cid, s.sid", ()),
    ("SELECT a.nm, b.nm FROM contacts a "
     "JOIN contacts b ON b.deal_id = a.deal_id "
     "WHERE a.cid != b.cid", ()),
    # Aggregation — order-sensitive float sums, DISTINCT aggregates,
    # HAVING, ORDER BY on aggregate aliases, expressions over results.
    ("SELECT count(*), sum(value), avg(value), min(value), max(value) "
     "FROM deals", ()),
    ("SELECT industry, count(*) n, sum(value) total FROM deals "
     "GROUP BY industry", ()),
    ("SELECT industry, count(*) n FROM deals GROUP BY industry "
     "ORDER BY n DESC, industry", ()),
    ("SELECT industry, sum(value) total FROM deals GROUP BY industry "
     "ORDER BY total DESC LIMIT 2", ()),
    ("SELECT industry, count(DISTINCT lead) leads FROM deals "
     "GROUP BY industry ORDER BY leads DESC, industry LIMIT 2", ()),
    ("SELECT industry FROM deals GROUP BY industry "
     "HAVING count(*) > 1", ()),
    ("SELECT d.industry, count(*) n, sum(s.hours) h FROM deals d "
     "JOIN scopes s ON s.deal_id = d.deal_id "
     "GROUP BY d.industry ORDER BY h DESC, d.industry", ()),
    ("SELECT industry, max(value) - min(value) spread FROM deals "
     "GROUP BY industry ORDER BY industry", ()),
    ("SELECT lead, count(*) FROM deals WHERE industry = ? "
     "GROUP BY lead ORDER BY lead", ("bank",)),
    ("SELECT sum(value) FROM deals WHERE industry = 'nope'", ()),
    # IN-lists on indexed columns: the index path must return the union
    # in scan order, skip NULL choices and collapse duplicates.
    ("SELECT deal_id, value FROM deals WHERE industry IN ('retail', 'bank')",
     ()),
    ("SELECT cid, nm FROM contacts WHERE deal_id IN (?, ?, ?)",
     ("d3", "dX", "d1")),
    ("SELECT deal_id FROM deals WHERE industry IN ('auto', NULL)", ()),
    ("SELECT cid FROM contacts WHERE deal_id IN (?, ?)", (None, "d2")),
    ("SELECT cid FROM contacts WHERE deal_id IN (?)", (None,)),
    ("SELECT sid, hours FROM scopes WHERE deal_id IN ('d1', 'd2', 'd1')",
     ()),
    ("SELECT deal_id FROM deals WHERE industry NOT IN ('bank', 'auto')", ()),
    ("SELECT cid FROM contacts WHERE deal_id IN ('d1', 'd3') AND cid = 5",
     ()),
    ("SELECT cid FROM contacts WHERE role = 'CSE' AND deal_id IN ('d3', 'd1')",
     ()),
    # The synopsis tower criterion: IN + GROUP BY + MIN, where choice
    # order differs from row order (first-encounter group order).
    ("SELECT deal_id, MIN(hours) AS best FROM scopes "
     "WHERE tower IN (?, ?) GROUP BY deal_id", ("LAN", "WAN")),
    ("SELECT d.deal_id, c.nm FROM deals d "
     "JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE d.industry IN ('bank', 'retail') ORDER BY c.nm", ()),
    ("SELECT count(*) FROM deals WHERE industry IN ('nope', 'none')", ()),
    # Index key filter: a conjunct over one indexed column is evaluated
    # per distinct key (NULL keys included); candidates in rowid order.
    ("SELECT cid, nm FROM contacts WHERE LOWER(role) LIKE '%s%'", ()),
    ("SELECT cid, nm FROM contacts WHERE LOWER(role) LIKE ?", ("c%",)),
    ("SELECT sid FROM scopes WHERE LOWER(tower) LIKE ?", ("%an",)),
    ("SELECT cid FROM contacts WHERE role NOT IN ('CSE', 'TSA')", ()),
    ("SELECT cid FROM contacts WHERE role NOT IN (?, NULL)", ("DPE",)),
    ("SELECT cid FROM contacts WHERE role IS NULL", ()),
    ("SELECT sid, hours FROM scopes WHERE tower IS NULL", ()),
    ("SELECT sid, hours FROM scopes WHERE tower IS NOT NULL", ()),
    ("SELECT c.cid FROM contacts c WHERE LOWER(c.role) LIKE ?", ("%a",)),
    ("SELECT c.cid, d.industry FROM contacts c "
     "JOIN deals d ON d.deal_id = c.deal_id "
     "WHERE LOWER(c.role) LIKE '%e' ORDER BY c.cid", ()),
    ("SELECT d.deal_id, c.cid FROM deals d "
     "LEFT JOIN contacts c ON c.deal_id = d.deal_id "
     "WHERE TRIM(d.industry) = 'bank'", ()),
    # Every non-NULL key raises (TEXT + INTEGER), but the earlier
    # conjunct rejects every row holding one: naive rows, no error.
    ("SELECT cid FROM contacts WHERE cid + 0 > 7 AND role + 0 = 1", ()),
    ("SELECT cid FROM contacts WHERE cid + 0 > 7 AND ABS(role) = 1", ()),
    ("SELECT cid, role FROM contacts WHERE nm = 'Jane' AND role IS NULL",
     ()),
    # Single-table aggregation on stored tuples: HAVING and folded
    # aggregate expressions go through the interpreter.
    ("SELECT role, count(*) n, max(cid) + 1 m FROM contacts "
     "GROUP BY role HAVING count(*) > 1", ()),
    ("SELECT tower, max(hours) + 1, min(sid) FROM scopes "
     "WHERE LOWER(tower) LIKE ? GROUP BY tower "
     "HAVING sum(hours) > 0.2 ORDER BY tower", ("%a%",)),
    ("SELECT role, count(DISTINCT deal_id) FROM contacts "
     "WHERE role IS NOT NULL GROUP BY role ORDER BY role", ()),
    ("SELECT nm, count(*) FROM contacts GROUP BY nm "
     "HAVING max(role) = 'DPE'", ()),
    ("SELECT count(*), max(cid) + 1 FROM contacts WHERE role = 'none'", ()),
    # SELECT * point lookups on stored tuples.
    ("SELECT * FROM contacts WHERE cid = 5", ()),
    ("SELECT * FROM deals WHERE deal_id = ?", ("d3",)),
    ("SELECT * FROM scopes s WHERE s.sid = ? ORDER BY s.hours", (4,)),
]


def _reference(db, sql, params):
    return naive_execute_select(db, parse(sql), params)


@pytest.mark.parametrize("sql,params", QUERY_ZOO,
                         ids=[q[0][:60] for q in QUERY_ZOO])
def test_every_option_combination_matches_naive(db, sql, params):
    statement = parse(sql)
    expected = _reference(db, sql, params)
    for options in LATTICE:
        result = SelectPlan(db, statement, options).execute(params)
        assert result.columns == expected.columns, options
        assert result.rows == expected.rows, options


def test_lattice_is_exhaustive():
    assert len(LATTICE) == 32
    assert PlannerOptions.naive() in LATTICE
    assert PlannerOptions() in LATTICE


def test_plans_are_reusable_across_params(db):
    statement = parse("SELECT deal_id FROM deals WHERE industry = ?")
    plan = SelectPlan(db, statement, PlannerOptions())
    for value in ("bank", "auto", None, "retail"):
        expected = _reference(
            db, "SELECT deal_id FROM deals WHERE industry = ?", (value,)
        )
        assert plan.execute((value,)).rows == expected.rows
