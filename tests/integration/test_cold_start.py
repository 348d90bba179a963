"""Cold-start equivalence: build → persist → load → identical answers.

The acceptance contract for persistent storage: a system loaded from
disk is indistinguishable from the freshly built one — same rankings
and counts bit-for-bit, same synopses, and the loaded system keeps
supporting incremental maintenance (``add_workbook`` / ``remove_deal``).
One test loads in a genuinely fresh process to prove nothing leaks
through interpreter state.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.eil import EILSystem
from repro.core.metaqueries import scope_query, service_keyword_query
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.docmodel.repository import WorkbookCollection
from repro.errors import StorageError
from repro.search.engine import ExecutionOptions
from repro.security.access import User
from repro.storage.segment import Segment

_USER = User("tester", frozenset({"sales"}))
_CONFIG = dict(seed=2008, n_deals=6, docs_per_deal=14)
_KEYWORDS = ["network migration", "help desk outsourcing", "security",
             "storage OR network OR services"]
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(**_CONFIG)).generate()


@pytest.fixture(scope="module")
def built(corpus):
    return EILSystem.build(corpus)


def keyword_fingerprint(eil):
    return [
        [
            [(hit.doc_id, hit.score) for hit in eil.keyword_search(q, 10)],
            eil.keyword_count(q),
        ]
        for q in _KEYWORDS
    ]


def form_fingerprint(eil, corpus):
    member = corpus.deals[0].team[0]
    results = []
    for form in (
        scope_query("End User Services"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    ):
        outcome = eil.search(form, _USER)
        results.append(
            [
                [(a.deal_id, a.score) for a in outcome.activities],
                outcome.scoped,
            ]
        )
    return results


def test_cold_start_same_process(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    cold = EILSystem.load(str(tmp_path), corpus)
    assert keyword_fingerprint(cold) == keyword_fingerprint(built)
    assert form_fingerprint(cold, corpus) == form_fingerprint(built, corpus)
    assert cold.deal_ids() == built.deal_ids()
    for deal_id in built.deal_ids():
        assert dataclasses.asdict(cold.synopsis(deal_id, _USER)) == (
            dataclasses.asdict(built.synopsis(deal_id, _USER))
        )
    assert cold.build_report == built.build_report


def test_cold_start_supports_mutations(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    cold = EILSystem.load(str(tmp_path), corpus)
    workbook = next(iter(corpus.collection))
    removed = cold.remove_deal(workbook.deal_id)
    assert removed > 0
    assert workbook.deal_id not in cold.deal_ids()
    cold.add_workbook(workbook)
    assert workbook.deal_id in cold.deal_ids()
    # After remove + re-add the system answers like the original.
    mutated = keyword_fingerprint(cold)
    assert [counts for _, counts in mutated] == [
        counts for _, counts in keyword_fingerprint(built)
    ]


def _corpus_and_newcomer():
    """The fixture corpus plus one workbook generated after it."""
    full = CorpusGenerator(
        CorpusConfig(**dict(_CONFIG, n_deals=_CONFIG["n_deals"] + 1))
    ).generate()
    workbooks = list(full.collection)
    corpus = dataclasses.replace(
        full,
        deals=full.deals[:-1],
        collection=WorkbookCollection(workbooks[:-1]),
    )
    return corpus, full.deals[-1], workbooks[-1]


def synopsis_rows(eil):
    db = eil.organized.db
    return {
        table: db.execute(f"SELECT * FROM {table}").rows
        for table in db.table_names
    }


def test_cold_start_onboards_and_offboards_new_workbook(tmp_path):
    # Separate corpora: onboarding upserts into the shared collection.
    corpus, deal, workbook = _corpus_and_newcomer()
    built = EILSystem.build(corpus)
    built.save_index(str(tmp_path))
    cold_corpus, _, cold_workbook = _corpus_and_newcomer()
    cold = EILSystem.load(str(tmp_path), cold_corpus)
    forms = [scope_query(tower) for tower in deal.towers]

    def answers(eil):
        return [
            [(a.deal_id, a.score) for a in eil.search(form, _USER).activities]
            for form in forms
        ]

    built.add_workbook(workbook)
    cold.add_workbook(cold_workbook)
    assert deal.deal_id in cold.deal_ids()
    assert synopsis_rows(cold) == synopsis_rows(built)
    assert answers(cold) == answers(built)
    assert any(deal.deal_id in [d for d, _ in a] for a in answers(cold))
    assert keyword_fingerprint(cold) == keyword_fingerprint(built)

    assert cold.remove_deal(deal.deal_id) == built.remove_deal(deal.deal_id)
    assert synopsis_rows(cold) == synopsis_rows(built)
    assert answers(cold) == answers(built)
    assert keyword_fingerprint(cold) == keyword_fingerprint(built)


def test_cold_start_tiny_scope_filters_decoded_postings(
    built, corpus, tmp_path, monkeypatch
):
    built.save_index(str(tmp_path))
    cold = EILSystem.load(str(tmp_path), corpus)
    query = "services"
    unscoped = [hit.doc_id for hit in built.engine.search(query)]
    # Two documents against posting lists of dozens per field.
    scope = frozenset(unscoped[3:5] + ["no-such-doc"])
    assert len(unscoped) >= 10 * len(scope)

    def refuse(*args, **kwargs):
        raise AssertionError("probed a segment per document")

    monkeypatch.setattr(Segment, "term_frequency", refuse)
    # The per-document reference mode does probe, which shows the
    # loaded index answers from segments.
    with pytest.raises(AssertionError, match="probed a segment"):
        cold.engine.search(query, None, scope, ExecutionOptions.exhaustive())
    reference = [
        (hit.doc_id, hit.score)
        for hit in built.engine.search(
            query, None, scope, ExecutionOptions.exhaustive()
        )
    ]
    assert len(reference) == 2
    for limit in (None, 1):
        expected = reference[:limit] if limit else reference
        assert [
            (hit.doc_id, hit.score)
            for hit in cold.engine.search(query, limit, scope)
        ] == expected


def test_cold_start_fresh_process(built, corpus, tmp_path):
    built.save_index(str(tmp_path))
    script = (
        "import json, sys\n"
        "from repro.core.eil import EILSystem\n"
        "from repro.corpus.generator import CorpusConfig, CorpusGenerator\n"
        f"corpus = CorpusGenerator(CorpusConfig(**{_CONFIG!r})).generate()\n"
        f"eil = EILSystem.load({str(tmp_path)!r}, corpus)\n"
        f"queries = {_KEYWORDS!r}\n"
        "out = [[[ [h.doc_id, h.score] for h in eil.keyword_search(q, 10)],\n"
        "        eil.keyword_count(q)] for q in queries]\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    local = json.loads(json.dumps([
        [[[d, s] for d, s in hits], count]
        for hits, count in keyword_fingerprint(built)
    ]))
    assert fresh == local


_ABSENT = object()


def _set_manifest_shards(directory, value):
    path = directory / EILSystem.EIL_MANIFEST
    manifest = json.loads(path.read_text())
    if value is _ABSENT:
        manifest.pop("shards", None)
    else:
        manifest["shards"] = value
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "shards, shards_json, loads",
    [
        (_ABSENT, False, True),
        (1, False, True),
        (2, False, False),
        ("x", False, False),
        (None, False, False),
        (1, True, False),
    ],
    ids=["no-field", "one", "two", "string", "null", "shards-json"],
)
def test_snapshot_shards_field(built, corpus, tmp_path, shards,
                               shards_json, loads):
    # Snapshots from before sharding was retired may carry "shards";
    # only the unsharded layout loads, anything else asks to re-persist.
    built.save_index(str(tmp_path))
    _set_manifest_shards(tmp_path, shards)
    if shards_json:
        (tmp_path / "index" / "SHARDS.json").write_text(
            '{"format": "repro-sharded-index", "version": 1, "shards": 2}'
        )
    if loads:
        cold = EILSystem.load(str(tmp_path), corpus)
        assert keyword_fingerprint(cold) == keyword_fingerprint(built)
    else:
        with pytest.raises(StorageError, match="re-run save_index"):
            EILSystem.load(str(tmp_path), corpus)


def test_missing_or_foreign_directory_rejected(corpus, tmp_path):
    with pytest.raises(StorageError):
        EILSystem.load(str(tmp_path / "absent"), corpus)
    (tmp_path / EILSystem.EIL_MANIFEST).write_text('{"format": "other"}')
    with pytest.raises(StorageError, match="manifest"):
        EILSystem.load(str(tmp_path), corpus)
