"""The traced run: benchmark-side spans around each layer's public calls.

:class:`Instrumentation` wraps public functions of the program's layers
in :class:`harness.SpanRecorder` spans for the life of a traced run and
restores them afterwards; nothing inside ``src/`` changes.  Recording
is switched on only for the traced phases, so the same process also
measures an untraced phase for ``trace.overhead_ratio``.  The program's
own counters (``engine.postings_touched``, ``db.rows_scanned``, the
cache counters, ``serving.queue_wait``) are read from its metrics
registry, which is enabled only while tracing.

Each layer metric and the end-to-end metric it should move:

=============================  =======================================
layer spans and counts         should move (workload)
=============================  =======================================
acquire, analyzer.analyze,     setup_s and build_docs_per_s
index.add, analysis.analyze,   (serve_churn); onboard_p50_ms
docmodel.parse, annotator.*,
populate.store, db.insert_rows,
graph.materialize
persist.save, persist.load,    setup_s, cold_start_s and bytes_per_doc
storage.*_bytes                (search_cold)
synopsis.execute, db.execute,  search_p50_ms, synopsis_p50_ms
rank.combine, access.present,
context.synopsis_build
siapi.search_grouped,          search_p50_ms and its tail,
engine.search                  keyword_p50_ms
graph.<class>                  graph_p50_ms and its tail
cache.*_hit_ratio              search_p50_ms, keyword_p50_ms
                               (serve_churn; about 0 on search_cold)
serving.*                      tails and failures (serve_churn)
mutation.*                     onboard_p50_ms (serve_churn)
=============================  =======================================
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import harness

#: Annotator names in the EIL pipeline, each timed by its own span.
ANNOTATORS = ("eil-pipeline", "contact-details", "ontology-services",
              "person-heuristics", "social-networking", "technologies",
              "win-strategies", "client-references", "context-fields")

#: Layers whose spans are reported: (span name, module, owner, attribute).
#: ``owner`` None wraps a module-level function.
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("offline.pipeline", "repro.core.eil", "EILSystem",
     "run_offline_pipeline"),
    ("acquire", "repro.core.acquisition", "DataAcquisition", "acquire"),
    ("analyzer.analyze", "repro.search.analyzer", "Analyzer", "analyze"),
    ("index.add", "repro.search.engine", "SearchEngine", "add"),
    ("analysis.analyze", "repro.core.analysis", "InformationAnalysis",
     "analyze"),
    ("docmodel.parse", "repro.docmodel.parsers", "DocumentParser",
     "to_cas"),
    ("docmodel.parse", "repro.docmodel.parsers", "DocumentParser",
     "to_indexable"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_deal_context"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_scopes"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_contacts"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_win_strategies"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_technologies"),
    ("populate.store", "repro.core.organized", "OrganizedInformation",
     "store_client_references"),
    ("graph.materialize", "repro.core.eil", None,
     "index_deal_from_organized"),
    ("persist.save", "repro.core.eil", "EILSystem", "save_index"),
    ("persist.load", "repro.core.eil", "EILSystem", "load"),
    ("synopsis.execute", "repro.core.query_analyzer", "SynopsisSearch",
     "execute"),
    ("siapi.search_grouped", "repro.search.siapi", "SiapiService",
     "search_grouped"),
    ("engine.search", "repro.search.engine", "SearchEngine", "search"),
    ("rank.combine", "repro.core.ranking", "RankCombiner", "combine"),
    ("access.present", "repro.security.access", "AccessController",
     "presentable_documents"),
    ("context.synopsis_build", "repro.core.context", "SynopsisBuilder",
     "build"),
    ("graph.worked_with", "repro.graph.graph", "EntityGraph",
     "worked_with"),
    ("graph.role_capacity", "repro.graph.graph", "EntityGraph",
     "role_capacity"),
    ("graph.expertise", "repro.graph.graph", "EntityGraph", "expertise"),
    ("graph.team_overlap", "repro.graph.graph", "EntityGraph",
     "team_overlap"),
    ("mutation.add_workbook", "repro.core.eil", "EILSystem",
     "add_workbook"),
    ("mutation.remove_deal", "repro.core.eil", "EILSystem", "remove_deal"),
    ("request.search", "repro.core.eil", "EILSystem", "search"),
    ("request.keyword", "repro.core.eil", "EILSystem", "keyword_search"),
    ("request.graph", "repro.core.eil", "EILSystem", "graph_query"),
    ("request.synopsis", "repro.core.eil", "EILSystem", "synopsis"),
)

#: Span names reported as ``<name>_s`` (inclusive) and ``<name>.self_s``;
#: ``db.execute`` is timed by the wrapper that also counts SELECTs.
REPORTED_SPANS = tuple(dict.fromkeys(
    [name for name, _, _, _ in LAYERS] + ["db.execute"]))

#: Program counters read in the traced online phase.
COUNTERS = ("engine.postings_touched", "db.rows_scanned",
            "query.cache.hits", "query.cache.misses",
            "engine.cache.hits", "engine.cache.misses",
            "db.stmt_cache.hits", "db.stmt_cache.misses", "serving.shed")


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = ["text.stem_calls", "text.stem_distinct_ratio",
             "db.insert_rows", "db.selects_per_request",
             "db.rows_scanned_per_returned", "engine.postings_per_request",
             "storage.index_bytes", "storage.synopsis_bytes",
             "storage.graph_bytes", "cache.query_hit_ratio",
             "cache.engine_hit_ratio", "cache.db_stmt_hit_ratio",
             "requests.repeat_share", "serving.queue_wait_p95_ms",
             "serving.shed", "build.acquire_analyze_share",
             "trace.overhead_ratio"]
    for name in REPORTED_SPANS:
        names += [f"{name}_s", f"{name}.self_s"]
    names += [f"annotator.{name}_s" for name in ANNOTATORS]
    return names


def per_layer_units() -> Dict[str, str]:
    """Unit of each per-layer metric."""
    units = {}
    for name in per_layer_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_bytes"):
            units[name] = "B"
        elif name in ("text.stem_calls", "db.insert_rows", "serving.shed"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    return units


class Instrumentation:
    """Installs the layer spans and the counting hooks; undoes them."""

    def __init__(self) -> None:
        self.recorder = harness.SpanRecorder()
        self.active = False
        self.stem_calls = 0
        self.stem_words: set = set()
        self.insert_rows = 0
        self.selects = 0
        self.rows_returned = 0
        self._restore: List[Callable[[], None]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Instrumentation":
        import importlib

        for name, module_name, owner_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name)
            self._patch(owner, attr, self._timed(name))
        from repro.db.database import Database
        from repro.text.stemmer import PorterStemmer
        from repro.uima.engine import AnalysisEngine

        self._patch(PorterStemmer, "stem", self._count_stems)
        self._patch(Database, "insert", self._count_inserts)
        self._patch(Database, "execute", self._time_execute)
        self._patch(AnalysisEngine, "run", self._time_annotators)
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, raw))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str) -> Callable[[Callable], Callable]:
        def make(function: Callable) -> Callable:
            recorder, state = self.recorder, self

            def timed(*args, **kwargs):
                if not state.active:
                    return function(*args, **kwargs)
                with recorder.span(name):
                    return function(*args, **kwargs)

            return timed
        return make

    def _count_stems(self, function: Callable) -> Callable:
        state = self

        def stem(stemmer, word):
            if state.active:
                state.stem_calls += 1
                state.stem_words.add(word)
            return function(stemmer, word)

        return stem

    def _count_inserts(self, function: Callable) -> Callable:
        state = self

        def insert(db, table_name, values):
            if state.active:
                state.insert_rows += 1
            return function(db, table_name, values)

        return insert

    def _time_execute(self, function: Callable) -> Callable:
        recorder, state = self.recorder, self

        def execute(db, sql, params=()):
            if not state.active:
                return function(db, sql, params)
            with recorder.span("db.execute"):
                result = function(db, sql, params)
            if sql.lstrip()[:6].upper() == "SELECT":
                state.selects += 1
                state.rows_returned += len(result)
            return result

        return execute

    def _time_annotators(self, function: Callable) -> Callable:
        recorder, state = self.recorder, self

        def run(engine, cas):
            if not state.active:
                return function(engine, cas)
            with recorder.span(f"annotator.{engine.name}"):
                return function(engine, cas)

        return run

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """All spans as JSON lines, written once at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.recorder.spans:
                handle.write(json.dumps([
                    span.span_id, span.parent_id, span.request_id,
                    span.name, span.start, span.end,
                ]) + "\n")

    def metrics(self, online: Dict[str, float], storage: Dict[str, int],
                requests: int, repeat_share: float,
                queue_wait_p95_ms: float,
                overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric; layers that did not run report 0."""
        times = harness.layer_times(self.recorder.spans)

        def total(name: str) -> float:
            return times.get(name, {}).get("total_s", 0.0)

        def own(name: str) -> float:
            return times.get(name, {}).get("self_s", 0.0)

        def ratio(hits: float, misses: float) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        out: Dict[str, float] = {
            "text.stem_calls": self.stem_calls,
            "text.stem_distinct_ratio": (
                len(self.stem_words) / self.stem_calls
                if self.stem_calls else 0.0),
            "db.insert_rows": self.insert_rows,
            "db.selects_per_request": (
                online.get("selects", 0) / requests if requests else 0.0),
            "db.rows_scanned_per_returned": (
                online.get("db.rows_scanned", 0)
                / online["rows_returned"]
                if online.get("rows_returned") else 0.0),
            "engine.postings_per_request": (
                online.get("engine.postings_touched", 0) / requests
                if requests else 0.0),
            "storage.index_bytes": storage.get("index", 0),
            "storage.synopsis_bytes": storage.get("synopsis", 0),
            "storage.graph_bytes": storage.get("graph", 0),
            "cache.query_hit_ratio": ratio(
                online.get("query.cache.hits", 0),
                online.get("query.cache.misses", 0)),
            "cache.engine_hit_ratio": ratio(
                online.get("engine.cache.hits", 0),
                online.get("engine.cache.misses", 0)),
            "cache.db_stmt_hit_ratio": ratio(
                online.get("db.stmt_cache.hits", 0),
                online.get("db.stmt_cache.misses", 0)),
            "requests.repeat_share": repeat_share,
            "serving.queue_wait_p95_ms": queue_wait_p95_ms,
            "serving.shed": online.get("serving.shed", 0),
            "build.acquire_analyze_share": (
                (total("acquire") + total("analysis.analyze"))
                / total("offline.pipeline")
                if total("offline.pipeline") else 0.0),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in REPORTED_SPANS:
            out[f"{name}_s"] = total(name)
            out[f"{name}.self_s"] = own(name)
        for name in ANNOTATORS:
            out[f"annotator.{name}_s"] = own(f"annotator.{name}")
        return out


def counter_values(registry) -> Dict[str, float]:
    """Current values of :data:`COUNTERS` in the program's registry."""
    counters = registry.counters
    return {name: counters[name].value if name in counters else 0
            for name in COUNTERS}
