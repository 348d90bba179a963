"""Output checks: every failed check counts as a wrong answer.

* form search — no more results than the page, no degradation, and
  every returned deal lies in the synopsis-SQL deal set of the same form
  (Fig. 1 scopes the keyword query to that set);
* graph — worked-with deal sets and role-capacity rosters are recomputed
  from the ``contacts`` rows, one pass over the table;
* keyword — page bound and non-increasing scores;
* synopsis — the view is of the requested deal and carries its name;
* mutations — after a write returns, its deal is wholly present in, or
  wholly absent from, the index, the synopsis DB and the graph;
* cold start — a loaded snapshot answers a query sample exactly like the
  system that wrote it, and holds the same synopsis rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Set

import inputs

def default_user():
    """The analyst every request runs as (the system's default user)."""
    from repro.security.access import User

    return User("analyst", frozenset({"sales"}))


SYNOPSIS_TABLES = ("deals", "deal_scopes", "contacts", "win_strategies",
                   "technologies", "client_references")


def form_of(request):
    """The :class:`FormQuery` of a ``search`` request."""
    from repro.core.query_analyzer import FormQuery

    kind = request[1]
    if kind == "mq1":
        _, _, tower, industry, geography = request
        return FormQuery(tower=tower, industry=industry,
                         geography=geography)
    if kind == "mq2":
        return FormQuery(person_name=request[2])
    if kind == "mq3":
        return FormQuery(role=request[2], tower=request[3])
    _, _, tower, technology = request
    return FormQuery(tower=tower, exact_phrase=technology)


def graph_query_of(request):
    """The :class:`GraphQuery` of a ``graph`` request."""
    from repro.core.metaqueries import GraphQuery

    _, kind, subject, limit = request
    return GraphQuery(kind, subject, limit)


class ContactRows:
    """Person key -> deals and role -> person key -> deals, from rows."""

    def __init__(self, system) -> None:
        from repro.graph.model import person_key

        self.key_deals: Dict[str, Set[str]] = {}
        self.role_deals: Dict[str, Dict[str, Set[str]]] = {}
        rows = system.organized.db.execute(
            "SELECT deal_id, name, email, role FROM contacts"
        ).to_dicts()
        for row in rows:
            key = person_key(str(row["name"] or ""),
                             str(row["email"] or ""))
            if key is None:
                continue
            deal_id = row["deal_id"]
            self.key_deals.setdefault(key, set()).add(deal_id)
            role = str(row["role"] or "").lower()
            if role:
                self.role_deals.setdefault(role, {}).setdefault(
                    key, set()).add(deal_id)


def check_graph(answer, request, rows: ContactRows) -> Optional[str]:
    """Recompute worked-with / role-capacity answers from contact rows."""
    kind, limit = request[1], request[3]
    if kind == "worked-with":
        expected = sorted(set().union(
            *(rows.key_deals.get(key, set()) for key in answer.persons)
        )) if answer.persons else []
        if answer.deals != expected:
            return f"worked-with {request[2]!r}: deals differ from rows"
        if limit is not None and len(answer.colleagues) > limit:
            return f"worked-with {request[2]!r}: exceeds limit"
    elif kind == "role-capacity":
        expected = rows.role_deals.get(answer.role.lower(), {})
        keys = [person.key for person in answer.people]
        wanted = len(expected) if limit is None else min(limit,
                                                          len(expected))
        if len(keys) != wanted or not set(keys) <= set(expected):
            return f"role-capacity {request[2]!r}: roster differs from rows"
        for person in answer.people:
            if person.deals != sorted(expected[person.key]):
                return f"role-capacity {request[2]!r}: deals differ"
    elif limit is not None and len(answer.people if kind == "expertise"
                                   else answer.colleagues) > limit:
        return f"{kind} {request[2]!r}: exceeds limit"
    return None


def check_search(results, request, system) -> Optional[str]:
    """Page bound, no degradation, and results within the synopsis set."""
    from repro.core.query_analyzer import SynopsisSearch

    if results.degraded is not None:
        return f"{request}: degraded={results.degraded}"
    if len(results.activities) > inputs.SEARCH_PAGE:
        return f"{request}: more results than the page"
    form = form_of(request)
    synopsis = SynopsisSearch(system.organized, system.taxonomy).execute(form)
    outside = set(results.deal_ids) - set(synopsis)
    if outside:
        return (f"{request}: deals outside the synopsis set: "
                f"{sorted(outside)[:3]}")
    return None


def check_keyword(hits, request) -> Optional[str]:
    if len(hits) > inputs.KEYWORD_PAGE:
        return f"{request}: more hits than the page"
    scores = [hit.score for hit in hits]
    if scores != sorted(scores, reverse=True):
        return f"{request}: scores not in rank order"
    return None


def check_synopsis(view, request, system) -> Optional[str]:
    deal_id = request[2]
    row = system.organized.deal_row(deal_id)
    if view.deal_id != deal_id or row is None:
        return f"{request}: synopsis of the wrong deal"
    if view.name != (str(row.get("name") or "") or deal_id):
        return f"{request}: synopsis name differs from its row"
    return None


def check_answer(answer, request, system, rows: ContactRows) -> Optional[str]:
    """Dispatch on the request type."""
    op = request[0]
    if op == "search":
        return check_search(answer, request, system)
    if op == "graph":
        return check_graph(answer, request, rows)
    if op == "keyword":
        return check_keyword(answer, request)
    return check_synopsis(answer, request, system)


def deal_presence(system, deal_id: str, documents: int) -> Optional[bool]:
    """True/False when the deal is wholly present/absent, else None."""
    indexed = len(system.engine.index.docs_with_metadata("deal_id",
                                                        [deal_id]))
    in_db = system.organized.deal_row(deal_id) is not None
    in_graph = deal_id in system.graph.deal_ids()
    if indexed == documents and in_db and in_graph:
        return True
    if indexed == 0 and not in_db and not in_graph:
        return False
    return None


def build_report_errors(system, documents: int) -> List[str]:
    """Every generated document indexed and analyzed, none lost."""
    report = system.build_report
    errors = []
    if report.documents_indexed != documents:
        errors.append(f"indexed {report.documents_indexed} of {documents}")
    if report.documents_analyzed != documents:
        errors.append(f"analyzed {report.documents_analyzed} of {documents}")
    if report.documents_failed or report.documents_quarantined:
        errors.append(f"failed {report.documents_failed}, quarantined "
                      f"{report.documents_quarantined}")
    if report.deals_populated != inputs.DEALS:
        errors.append(f"populated {report.deals_populated} deals")
    return errors


def execute_read(system, request, user):
    """Run one read request directly against ``system``."""
    op = request[0]
    if op == "search":
        return system.search(form_of(request), user, inputs.SEARCH_PAGE)
    if op == "keyword":
        return system.keyword_search(request[2], inputs.KEYWORD_PAGE)
    if op == "graph":
        return system.graph_query(graph_query_of(request))
    return system.synopsis(request[2], user)


def canonical(answer, request) -> str:
    """An answer as canonical JSON, for exact cross-system comparison."""
    op = request[0]
    if op == "search":
        plain = [answer.scoped, answer.degraded, [
            [a.deal_id, a.name, a.score, a.synopsis_score, a.siapi_score,
             [[h.doc_id, h.score] for h in a.documents]]
            for a in answer.activities
        ]]
    elif op == "keyword":
        plain = [[hit.doc_id, hit.score] for hit in answer]
    else:  # graph answers and synopsis views are dataclasses
        plain = dataclasses.asdict(answer)
    return json.dumps(plain, sort_keys=True, default=str)


def rows_digest(system) -> str:
    """Digest of every synopsis-DB row, per table, in canonical order."""
    digest = hashlib.blake2b(digest_size=16)
    for table in SYNOPSIS_TABLES:
        rows = sorted(map(repr, system.organized.db.execute(
            f"SELECT * FROM {table}")))
        digest.update(f"{table}:{len(rows)}\n".encode())
        digest.update("\n".join(rows).encode())
    return digest.hexdigest()
