"""Mutation-race tests: queries racing mutations see quiesced epochs.

The serving PR's snapshot promise: a query racing ``add`` / ``remove``
(engine level) or ``add_workbook`` / ``remove_deal`` (system level)
always returns a ranking **bit-identical to some quiesced epoch** —
the corpus as it was before or after a whole mutation, never a torn
index observed mid-write.

The proof technique: replay the mutation script serially first,
recording the ranking at every quiesced state; then race concurrent
readers against a writer replaying the same script and assert every
observed ranking is in the recorded set.
"""

import random
import threading

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, User
from repro.core.metaqueries import scope_query
from repro.docmodel.repository import EngagementWorkbook
from repro.corpus import DealGenerator, WorkbookFactory
from repro.search import IndexableDocument, SearchEngine

SALES = User("u", frozenset({"sales"}))

WORDS = [
    "storage", "network", "migration", "replication", "services",
    "desktop", "server", "cloud", "backup", "security",
]

QUERY = "storage OR network OR services"


def _make_docs(n=20, deals=4):
    rng = random.Random(11)
    return [
        IndexableDocument(
            f"doc{i:02d}",
            {
                "title": " ".join(rng.choice(WORDS) for _ in range(3)),
                "body": " ".join(rng.choice(WORDS) for _ in range(25)),
            },
            {"deal_id": f"d{i % deals}", "doc_type": "scope"},
        )
        for i in range(n)
    ]


def _ranking(engine, limit=10):
    return tuple(
        (hit.doc_id, hit.score)
        for hit in engine.search(QUERY, limit)
    )


class TestEngineSnapshotIsolation:
    """Concurrent readers vs a writer churning five documents."""

    def test_rankings_match_some_quiesced_epoch(self):
        docs = _make_docs()
        churned = docs[:5]

        # Serial replay: record the ranking at every quiesced state.
        replay = SearchEngine()
        replay.add_all(docs)
        allowed = {_ranking(replay)}
        for doc in churned:
            replay.remove(doc.doc_id)
            allowed.add(_ranking(replay))
        for doc in churned:
            replay.add(doc)
            allowed.add(_ranking(replay))

        engine = SearchEngine()
        engine.add_all(docs)
        stop = threading.Event()
        observed = []
        observed_lock = threading.Lock()
        failures = []

        def reader():
            local = []
            try:
                while not stop.is_set():
                    local.append(_ranking(engine))
            except BaseException as exc:  # pragma: no cover - fail loud
                failures.append(exc)
            with observed_lock:
                observed.extend(local)

        def writer():
            try:
                for _ in range(10):
                    for doc in churned:
                        engine.remove(doc.doc_id)
                    for doc in churned:
                        engine.add(doc)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert observed  # the race actually exercised readers
        torn = [r for r in set(observed) if r not in allowed]
        assert torn == [], (
            f"{len(torn)} distinct torn rankings observed "
            f"(readers saw an index state that never existed at rest)"
        )


class TestSystemSnapshotIsolation:
    """Queries racing ``add_workbook`` / ``remove_deal`` on the system.

    The churned workbook carries exactly one document, so the whole
    onboarding is a single index mutation and the quiesced-epoch set
    has exactly two members: with and without the extra engagement.
    """

    @pytest.fixture(scope="class")
    def world(self):
        corpus = CorpusGenerator(
            CorpusConfig(n_deals=4, docs_per_deal=14)
        ).generate()
        eil = EILSystem.build(corpus)
        generator = DealGenerator(seed=999, taxonomy=corpus.taxonomy)
        deal = generator.generate(len(corpus.deals) + 1)[-1]
        full = WorkbookFactory(corpus.taxonomy, seed=999).build_workbook(
            deal, 12
        )
        workbook = EngagementWorkbook(
            deal.deal_id, name=full.name,
            documents=full.documents()[:1],
        )
        return corpus, eil, deal, workbook

    def test_keyword_rankings_match_a_quiesced_epoch(self, world):
        corpus, eil, deal, workbook = world

        def keyword_ranking():
            return tuple(
                (hit.doc_id, hit.score)
                for hit in eil.keyword_search("services", limit=10)
            )

        base = keyword_ranking()
        eil.add_workbook(workbook)
        with_extra = keyword_ranking()
        eil.remove_deal(deal.deal_id)
        assert keyword_ranking() == base  # churn is restorative
        allowed = {base, with_extra}

        stop = threading.Event()
        observed = []
        observed_lock = threading.Lock()
        failures = []
        form = scope_query("End User Services")
        known_deals = {d.deal_id for d in corpus.deals} | {deal.deal_id}

        def reader():
            local = []
            try:
                while not stop.is_set():
                    local.append(keyword_ranking())
                    results = eil.search(form, SALES)
                    assert set(results.deal_ids) <= known_deals
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            with observed_lock:
                observed.extend(local)

        def churn():
            try:
                for _ in range(15):
                    eil.add_workbook(workbook)
                    eil.remove_deal(deal.deal_id)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert observed
        torn = [r for r in set(observed) if r not in allowed]
        assert torn == [], (
            f"{len(torn)} torn keyword rankings under "
            f"add_workbook/remove_deal churn"
        )

    def test_synopsis_reads_survive_churn(self, world):
        corpus, eil, deal, workbook = world
        stop = threading.Event()
        failures = []

        def reader():
            try:
                while not stop.is_set():
                    for deal_id in eil.deal_ids():
                        if deal_id == deal.deal_id:
                            continue  # may vanish mid-iteration
                        synopsis = eil.synopsis(deal_id, SALES)
                        assert synopsis.deal_id == deal_id
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        def churn():
            try:
                for _ in range(10):
                    eil.add_workbook(workbook)
                    eil.remove_deal(deal.deal_id)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
