"""DB execution-engine bench: ``BENCH_db.json``.

Measures the SELECT engine overhaul (plan cache, join-aware planner,
compiled expressions, streaming aggregation) against the seed
row-at-a-time executor on a scaled join+rollup workload shaped like the
organized layer's synopsis schema (deals / deal_scopes / contacts).

Four engine configurations are ablated:

* ``naive``        — no plan cache, every planner option off
                     (re-parse + re-plan per execution; expressions
                     still compile and the index access paths stay).
* ``cache_only``   — plan cache on, planner features off.
* ``planner_only`` — planner features on, plan cache off.
* ``full``         — the production default.

Every configuration must return byte-identical rows for every workload
query (the planner can change speed, never results); the bench asserts
this before timing.  The headline number is the p50 speedup over the
pooled workload executions (the mix is point-lookup heavy, like the
synopsis store's real traffic), full vs naive; per-query p50 speedups
are reported alongside so the slow cases stay visible.  The acceptance
gate is >= 5x at full scale.  Timing interleaves the configurations
per execution so machine-load drift cannot bias the ratios.

Run standalone (CI smoke uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_db.py [--smoke]

or under pytest, where it runs at smoke scale and checks the JSON::

    PYTHONPATH=src python -m pytest benchmarks/bench_db.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.db import Database, PlannerOptions

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_db.json"
)

_INDUSTRIES = ["banking", "insurance", "retail", "telecom",
               "automotive", "energy", "pharma", "media"]
_TOWERS = ["WAN", "LAN", "HelpDesk", "Desktop", "Security", "Storage"]
_ROLES = ["CSE", "TSA", "DPE", "CFA"]

_SCHEMA = (
    """
    CREATE TABLE deals (
        deal_id TEXT, name TEXT NOT NULL, industry TEXT, value REAL,
        PRIMARY KEY (deal_id)
    )
    """,
    """
    CREATE TABLE deal_scopes (
        scope_id INTEGER, deal_id TEXT NOT NULL, tower TEXT,
        hours REAL, PRIMARY KEY (scope_id),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    """
    CREATE TABLE contacts (
        cid INTEGER, deal_id TEXT NOT NULL, nm TEXT, role TEXT,
        PRIMARY KEY (cid),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    "CREATE INDEX ix_deals_industry ON deals (industry)",
    "CREATE INDEX ix_scopes_deal ON deal_scopes (deal_id)",
    "CREATE INDEX ix_contacts_deal ON contacts (deal_id)",
)


def _populate(db: Database, deals: int, scopes_per_deal: int,
              contacts_per_deal: int, seed: int) -> None:
    rng = random.Random(seed)
    scope_id = contact_id = 0
    for i in range(deals):
        deal_id = f"d{i:05d}"
        db.execute(
            "INSERT INTO deals VALUES (?, ?, ?, ?)",
            [deal_id, f"DEAL {i}", _INDUSTRIES[i % len(_INDUSTRIES)],
             round(rng.uniform(1.0, 500.0), 2)],
        )
        for _ in range(scopes_per_deal):
            scope_id += 1
            db.execute(
                "INSERT INTO deal_scopes VALUES (?, ?, ?, ?)",
                [scope_id, deal_id, rng.choice(_TOWERS),
                 round(rng.uniform(10.0, 5000.0), 1)],
            )
        for _ in range(contacts_per_deal):
            contact_id += 1
            db.execute(
                "INSERT INTO contacts VALUES (?, ?, ?, ?)",
                [contact_id, deal_id, f"person{contact_id % 97}",
                 rng.choice(_ROLES)],
            )


def _configs() -> Dict[str, Tuple[PlannerOptions, int]]:
    """name -> (planner options, plan-cache capacity)."""
    return {
        "naive": (PlannerOptions.naive(), 0),
        "cache_only": (PlannerOptions.naive(), 128),
        "planner_only": (PlannerOptions(), 0),
        "full": (PlannerOptions(), 128),
    }


def _workload(deals: int) -> List[Tuple[str, str, List[Sequence[object]]]]:
    """(name, sql, param sets) — the scaled join+rollup mix."""
    rng = random.Random(7)
    deal_ids = [f"d{rng.randrange(deals):05d}" for _ in range(64)]
    return [
        ("deal_detail_join",
         "SELECT d.name, s.tower, s.hours FROM deals d "
         "JOIN deal_scopes s ON s.deal_id = d.deal_id "
         "WHERE d.deal_id = ?",
         [[deal_id] for deal_id in deal_ids]),
        ("deal_people_join",
         "SELECT c.nm, c.role FROM deals d "
         "JOIN contacts c ON c.deal_id = d.deal_id "
         "WHERE d.deal_id = ? ORDER BY c.cid",
         [[deal_id] for deal_id in deal_ids]),
        ("industry_filtered_join",
         "SELECT d.deal_id, s.tower FROM deals d "
         "JOIN deal_scopes s ON s.deal_id = d.deal_id "
         "WHERE d.industry = ? AND s.hours > 4000.0",
         [[industry] for industry in _INDUSTRIES]),
        ("deal_tower_rollup",
         "SELECT s.tower, count(*) n, sum(s.hours) total "
         "FROM deals d JOIN deal_scopes s ON s.deal_id = d.deal_id "
         "WHERE d.deal_id = ? GROUP BY s.tower ORDER BY total DESC",
         [[deal_id] for deal_id in deal_ids]),
        ("industry_rollup",
         "SELECT d.industry, count(*) n, sum(s.hours) total "
         "FROM deals d JOIN deal_scopes s ON s.deal_id = d.deal_id "
         "GROUP BY d.industry ORDER BY total DESC",
         [[]]),
        ("tower_topk",
         "SELECT s.tower, count(*) n, avg(s.hours) mean FROM deals d "
         "JOIN deal_scopes s ON s.deal_id = d.deal_id "
         "WHERE d.industry = ? GROUP BY s.tower "
         "ORDER BY n DESC LIMIT 3",
         [[industry] for industry in _INDUSTRIES]),
        ("value_topk",
         "SELECT deal_id, value FROM deals "
         "ORDER BY value DESC LIMIT 10",
         [[]]),
    ]


def _assert_equivalence(
    databases: Dict[str, Database],
    workload: List[Tuple[str, str, List[Sequence[object]]]],
) -> None:
    """Every configuration must agree with naive on rows + columns."""
    for name, sql, param_sets in workload:
        for params in param_sets:
            reference = databases["naive"].execute(sql, list(params))
            for config, db in databases.items():
                if config == "naive":
                    continue
                result = db.execute(sql, list(params))
                assert result.columns == reference.columns, (config, name)
                assert result.rows == reference.rows, (config, name)


def _time_workload(
    databases: Dict[str, Database],
    workload: List[Tuple[str, str, List[Sequence[object]]]],
    repetitions: int,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-config timings, interleaved per execution.

    Configurations are timed back-to-back on each (query, params) pair
    rather than in separate blocks, so machine-load drift during the
    run biases every configuration equally and the reported speedup
    ratios stay stable across runs.
    """
    samples: Dict[str, Dict[str, List[float]]] = {
        config: {name: [] for name, _, _ in workload}
        for config in databases
    }
    for name, sql, param_sets in workload:
        for _ in range(repetitions):
            for params in param_sets:
                for config, db in databases.items():
                    started = time.perf_counter()
                    db.execute(sql, list(params))
                    samples[config][name].append(
                        time.perf_counter() - started
                    )
    timings: Dict[str, Dict[str, Dict[str, float]]] = {}
    for config, per_query in samples.items():
        timings[config] = {}
        pooled: List[float] = []
        for name, values in per_query.items():
            pooled.extend(values)
            values.sort()
            timings[config][name] = {
                "executions": len(values),
                "p50_us": statistics.median(values) * 1e6,
                "p95_us": values[int(len(values) * 0.95) - 1] * 1e6,
                "total_seconds": sum(values),
            }
        pooled.sort()
        timings[config]["__workload__"] = {
            "executions": len(pooled),
            "p50_us": statistics.median(pooled) * 1e6,
            "p95_us": pooled[int(len(pooled) * 0.95) - 1] * 1e6,
            "total_seconds": sum(pooled),
        }
    return timings


def run_bench(deals: int, scopes_per_deal: int, contacts_per_deal: int,
              repetitions: int, seed: int,
              out_path: pathlib.Path = DEFAULT_OUT,
              smoke: bool = False) -> Dict[str, object]:
    databases: Dict[str, Database] = {}
    for config, (options, capacity) in _configs().items():
        db = Database(planner_options=options, plan_cache=capacity)
        for statement in _SCHEMA:
            db.execute(statement)
        _populate(db, deals, scopes_per_deal, contacts_per_deal, seed)
        databases[config] = db

    workload = _workload(deals)
    _assert_equivalence(databases, workload)

    results = _time_workload(databases, workload, repetitions)

    speedups = {
        name: results["naive"][name]["p50_us"]
        / results["full"][name]["p50_us"]
        for name, _, _ in workload
    }
    # The headline: p50 over the pooled workload executions (the mix is
    # point-lookup heavy, like the synopsis store's real traffic).  The
    # per-query table above keeps the slow cases honest.
    workload_speedup = (
        results["naive"]["__workload__"]["p50_us"]
        / results["full"]["__workload__"]["p50_us"]
    )
    report: Dict[str, object] = {
        "bench": "db",
        "schema_version": 1,
        "created_unix": time.time(),
        "smoke": smoke,
        "scale": {
            "deals": deals,
            "scopes_per_deal": scopes_per_deal,
            "contacts_per_deal": contacts_per_deal,
            "repetitions": repetitions,
            "seed": seed,
        },
        "configs": {
            config: {"options": options.describe(), "plan_cache": capacity}
            for config, (options, capacity) in _configs().items()
        },
        "timings": results,
        "speedup_p50": speedups,
        "workload_speedup_p50": workload_speedup,
        "per_query_median_speedup": statistics.median(speedups.values()),
        "equivalent_rows": True,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_report(report: Dict[str, object]) -> None:
    """Schema + acceptance assertions shared by pytest and CI."""
    assert report["bench"] == "db"
    assert report["schema_version"] == 1
    assert report["equivalent_rows"] is True
    assert set(report["timings"]) == {
        "naive", "cache_only", "planner_only", "full"
    }
    for config, timings in report["timings"].items():
        for name, stats in timings.items():
            assert stats["p50_us"] > 0, (config, name)
            assert stats["executions"] > 0, (config, name)
    speedups = report["speedup_p50"]
    assert speedups, "workload must not be empty"
    floor = 1.0 if report["smoke"] else 5.0
    assert report["workload_speedup_p50"] >= floor, (
        f"workload p50 speedup {report['workload_speedup_p50']:.2f}x "
        f"below the {floor:.0f}x acceptance floor"
    )


def test_bench_db(report_writer):
    """Pytest entry: smoke-scale run + JSON sanity."""
    report = run_bench(deals=60, scopes_per_deal=4, contacts_per_deal=3,
                       repetitions=2, seed=2008, smoke=True)
    check_report(report)
    parsed = json.loads(DEFAULT_OUT.read_text())
    assert parsed["bench"] == "db"
    lines = ["E20: DB execution engine (plan cache + planner + streaming)"]
    for name, speedup in report["speedup_p50"].items():
        lines.append(f"{name}: {speedup:.1f}x p50 vs naive")
    lines.append(
        f"workload p50: {report['workload_speedup_p50']:.1f}x"
    )
    report_writer("E20_db_engine", "\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=400)
    parser.add_argument("--scopes", type=int, default=8)
    parser.add_argument("--contacts", type=int, default=6)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="small scales for CI")
    args = parser.parse_args()
    if args.smoke:
        args.deals, args.scopes, args.contacts = 60, 4, 3
        args.repetitions = 2
    report = run_bench(args.deals, args.scopes, args.contacts,
                       args.repetitions, args.seed, args.out,
                       smoke=args.smoke)
    check_report(report)
    print(f"wrote {args.out}")
    for name, speedup in report["speedup_p50"].items():
        naive = report["timings"]["naive"][name]["p50_us"]
        full = report["timings"]["full"][name]["p50_us"]
        print(f"{name:24s} naive {naive:9.1f}us  full {full:9.1f}us  "
              f"{speedup:6.1f}x")
    print(f"workload p50 speedup: "
          f"{report['workload_speedup_p50']:.1f}x "
          f"(per-query median {report['per_query_median_speedup']:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
