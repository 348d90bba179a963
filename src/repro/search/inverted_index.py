"""Positional inverted index, one posting list per (field, term).

Postings record term positions within each field so phrase queries can
verify adjacency.  The index also maintains the per-field statistics the
BM25 scorer needs: document frequency per term, field length per
document, and average field length.

Two compiled structures sit beside the positional postings so the hot
query path never walks dict-of-dict chains per (term, document):

* :class:`TermPostings` — a flat posting array per (field, term)
  carrying parallel ``doc_ids`` / ``tfs`` / ``lengths`` lists plus the
  running ``max_tf`` (the MaxScore upper-bound ingredient).  Arrays are
  compiled lazily on first access and then maintained *incrementally*:
  ``add`` appends the new document's entry in place, ``remove`` drops
  only the removed document's own (field, term) arrays, so the compile
  cost is never paid again for untouched terms.  Consistency is
  epoch-exact — every mutation that could change an array either
  updates it or invalidates it.
* a metadata value index (``docs_with_metadata``) mapping each hashable
  ``(key, value)`` metadata pair to its document-id set, which lets the
  SIAPI facade turn an activity scope into an id-set ``doc_filter`` the
  engine can push down into posting traversal.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SearchError
from repro.obs import get_registry
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument

__all__ = ["InvertedIndex", "TermPostings"]


class TermPostings:
    """Flat, score-ready posting array for one (field, term).

    Attributes:
        doc_ids: Document ids in insertion order.
        tfs: Term frequency per document (parallel to ``doc_ids``).
        lengths: Field token count per document (parallel).
        max_tf: Largest term frequency seen — an upper-bound ingredient
            for MaxScore pruning (monotone under appends; removals drop
            the whole array, so it is never stale).
    """

    __slots__ = ("doc_ids", "tfs", "lengths", "max_tf")

    def __init__(self) -> None:
        self.doc_ids: List[str] = []
        self.tfs: List[int] = []
        self.lengths: List[int] = []
        self.max_tf = 0

    def append(self, doc_id: str, tf: int, length: int) -> None:
        """Add one document's entry (index ``add`` / lazy compile)."""
        self.doc_ids.append(doc_id)
        self.tfs.append(tf)
        self.lengths.append(length)
        if tf > self.max_tf:
            self.max_tf = tf

    def __len__(self) -> int:
        return len(self.doc_ids)


class InvertedIndex:
    """The engine's storage: documents plus positional postings."""

    def __init__(self, analyzer: Optional[Analyzer] = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._documents: Dict[str, IndexableDocument] = {}
        # field -> term -> doc_id -> sorted positions
        self._postings: Dict[str, Dict[str, Dict[str, List[int]]]] = {}
        # field -> doc_id -> token count
        self._field_lengths: Dict[str, Dict[str, int]] = {}
        # Running totals so average_length stays O(1); scoring calls it
        # per (term, document) pair and a full re-sum would make large
        # queries quadratic in corpus size.
        self._field_token_totals: Dict[str, int] = {}
        self._token_total = 0
        # doc_id -> field -> distinct terms, so removal only touches the
        # document's own postings instead of the whole field vocabulary.
        self._doc_terms: Dict[str, Dict[str, Set[str]]] = {}
        # (field, term) -> compiled flat postings; lazily built, then
        # incrementally maintained (see module docstring).
        self._compiled: Dict[Tuple[str, str], TermPostings] = {}
        # metadata key -> value -> doc ids (hashable values only).
        self._meta_index: Dict[str, Dict[Any, Set[str]]] = {}
        #: Mutation counter; every ``add``/``remove`` bumps it.  Scorers
        #: key their per-(term, field) idf caches on it.
        self.epoch = 0

    # -- mutation -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index ``document``; re-adding an id raises (delete first)."""
        if document.doc_id in self._documents:
            raise SearchError(f"document {document.doc_id!r} already indexed")
        self._documents[document.doc_id] = document
        doc_terms = self._doc_terms.setdefault(document.doc_id, {})
        for field_name, text in document.fields.items():
            terms = self.analyzer.analyze(text)
            field_postings = self._postings.setdefault(field_name, {})
            field_terms = doc_terms.setdefault(field_name, set())
            grouped: Dict[str, List[int]] = {}
            for analyzed in terms:
                grouped.setdefault(analyzed.term, []).append(
                    analyzed.position
                )
            length = len(terms)
            for term, positions in grouped.items():
                field_postings.setdefault(term, {})[
                    document.doc_id
                ] = positions
                field_terms.add(term)
                compiled = self._compiled.get((field_name, term))
                if compiled is not None:
                    compiled.append(
                        document.doc_id, len(positions), length
                    )
            self._field_lengths.setdefault(field_name, {})[
                document.doc_id
            ] = length
            self._field_token_totals[field_name] = (
                self._field_token_totals.get(field_name, 0) + length
            )
            self._token_total += length
        for key, value in document.metadata.items():
            try:
                by_value = self._meta_index.setdefault(key, {})
                by_value.setdefault(value, set()).add(document.doc_id)
            except TypeError:
                continue  # unhashable value; never scope-filterable
        self.epoch += 1

    def remove(self, doc_id: str) -> IndexableDocument:
        """Remove a document from the index and return it.

        O(document's own terms) via the reverse map, not O(field
        vocabulary): continuous offboarding (``EILSystem.remove_deal``)
        must not rescan every posting list per document.  Compiled
        posting arrays are invalidated per touched (field, term) only —
        untouched terms keep their arrays.
        """
        document = self._documents.pop(doc_id, None)
        if document is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        doc_terms = self._doc_terms.pop(doc_id, {})
        terms_touched = 0
        for field_name in document.fields:
            field_postings = self._postings.get(field_name, {})
            for term in doc_terms.get(field_name, ()):
                docs = field_postings.get(term)
                if docs is None:
                    continue
                terms_touched += 1
                docs.pop(doc_id, None)
                self._compiled.pop((field_name, term), None)
                if not docs:
                    del field_postings[term]
            if not field_postings and field_name in self._postings:
                del self._postings[field_name]
            lengths = self._field_lengths.get(field_name)
            if lengths is not None:
                length = lengths.pop(doc_id, 0)
                if not lengths:
                    del self._field_lengths[field_name]
                    self._field_token_totals.pop(field_name, None)
                else:
                    self._field_token_totals[field_name] = (
                        self._field_token_totals.get(field_name, 0) - length
                    )
                self._token_total -= length
        for key, value in document.metadata.items():
            by_value = self._meta_index.get(key)
            if by_value is None:
                continue
            try:
                members = by_value.get(value)
            except TypeError:
                continue
            if members is not None:
                members.discard(doc_id)
                if not members:
                    del by_value[value]
        self.epoch += 1
        metrics = get_registry()
        metrics.inc("index.removals")
        metrics.observe("index.remove_terms_touched", terms_touched)
        return document

    # -- lookup ---------------------------------------------------------------

    def document(self, doc_id: str) -> IndexableDocument:
        """Fetch a stored document by id."""
        document = self._documents.get(doc_id)
        if document is None:
            raise SearchError(f"document {doc_id!r} not indexed")
        return document

    def has_document(self, doc_id: str) -> bool:
        """True if ``doc_id`` is indexed."""
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def doc_ids(self) -> Set[str]:
        """Ids of all indexed documents."""
        return set(self._documents)

    @property
    def fields(self) -> List[str]:
        """All field names seen so far."""
        return sorted(self._postings)

    def postings(
        self, term: str, field: Optional[str] = None
    ) -> Dict[str, List[int]]:
        """doc_id -> positions for ``term``.

        With ``field=None`` the postings of all fields are merged
        (positions are only meaningful within one field, so merged
        postings carry position lists per contributing field appended —
        callers doing phrase matching must pass an explicit field).
        """
        if field is not None:
            return dict(self._postings.get(field, {}).get(term, {}))
        merged: Dict[str, List[int]] = {}
        for field_postings in self._postings.values():
            for doc_id, positions in field_postings.get(term, {}).items():
                merged.setdefault(doc_id, []).extend(positions)
        return merged

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """Compiled flat postings for ``(field, term)``, or ``None``.

        First access compiles the array from the positional postings
        (O(df)); afterwards ``add`` appends and ``remove`` invalidates,
        so steady-state queries read a ready-made score-at-match-time
        array.  ``len()`` of the result is the term's in-field document
        frequency.
        """
        key = (field, term)
        compiled = self._compiled.get(key)
        if compiled is None:
            docs = self._postings.get(field, {}).get(term)
            if not docs:
                return None
            lengths = self._field_lengths.get(field, {})
            compiled = TermPostings()
            for doc_id, positions in docs.items():
                compiled.append(
                    doc_id, len(positions), lengths.get(doc_id, 0)
                )
            self._compiled[key] = compiled
            get_registry().inc("index.postings_compiled")
        return compiled

    def max_tf(self, term: str, field: str) -> Optional[int]:
        """``max_tf`` of an already-compiled posting array, else None.

        Deliberately does *not* compile: MaxScore bound estimation must
        stay O(1) even for clauses that end up pruned without ever
        touching their postings.
        """
        compiled = self._compiled.get((field, term))
        return compiled.max_tf if compiled is not None else None

    def matching_docs(self, term: str, field: Optional[str] = None) -> Set[str]:
        """Ids of documents containing ``term`` (optionally in ``field``)."""
        if field is not None:
            return set(self._postings.get(field, {}).get(term, {}))
        matches: Set[str] = set()
        for field_postings in self._postings.values():
            matches.update(field_postings.get(term, {}))
        return matches

    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        """Ids of documents whose metadata ``key`` is one of ``values``.

        Backed by an incrementally-maintained (key, value) -> id-set
        map, so an activity scope of *k* values resolves in O(k) plus
        the result size — never a corpus scan.  Unhashable values are
        skipped (they can never have been indexed either).
        """
        by_value = self._meta_index.get(key)
        if not by_value:
            return set()
        matches: Set[str] = set()
        for value in values:
            try:
                members = by_value.get(value)
            except TypeError:
                continue
            if members:
                matches.update(members)
        return matches

    def phrase_docs(
        self, terms: List[str], field: Optional[str] = None
    ) -> Set[str]:
        """Documents containing ``terms`` consecutively in one field."""
        if not terms:
            return set()
        fields = [field] if field is not None else list(self._postings)
        matches: Set[str] = set()
        for field_name in fields:
            field_postings = self._postings.get(field_name, {})
            candidate_docs: Optional[Set[str]] = None
            for term in terms:
                docs = set(field_postings.get(term, {}))
                candidate_docs = (
                    docs if candidate_docs is None else candidate_docs & docs
                )
                if not candidate_docs:
                    break
            if not candidate_docs:
                continue
            for doc_id in candidate_docs:
                starts = set(field_postings[terms[0]][doc_id])
                for offset, term in enumerate(terms[1:], start=1):
                    positions = field_postings[term][doc_id]
                    starts &= {p - offset for p in positions}
                    if not starts:
                        break
                if starts:
                    matches.add(doc_id)
        return matches

    # -- statistics ------------------------------------------------------------

    def document_frequency(self, term: str, field: Optional[str] = None) -> int:
        """Number of documents containing ``term``."""
        return len(self.matching_docs(term, field))

    def df(self, term: str, field: Optional[str] = None) -> int:
        """O(1) document-frequency estimate for query planning.

        Per field this is exact.  With ``field=None`` it sums the
        per-field frequencies, which double-counts documents carrying
        the term in several fields — an upper bound, which is all the
        ascending-df AND ordering needs (use
        :meth:`document_frequency` for the exact merged count).
        """
        if field is not None:
            return len(self._postings.get(field, {}).get(term, ()))
        return sum(
            len(field_postings.get(term, ()))
            for field_postings in self._postings.values()
        )

    def term_frequency(
        self, term: str, doc_id: str, field: Optional[str] = None
    ) -> int:
        """Occurrences of ``term`` in ``doc_id`` (optionally per field)."""
        if field is not None:
            return len(
                self._postings.get(field, {}).get(term, {}).get(doc_id, ())
            )
        return sum(
            len(field_postings.get(term, {}).get(doc_id, ()))
            for field_postings in self._postings.values()
        )

    def field_length(self, field: str, doc_id: str) -> int:
        """Token count of ``field`` in ``doc_id`` (0 if absent)."""
        return self._field_lengths.get(field, {}).get(doc_id, 0)

    def field_lengths(self, field: str) -> Dict[str, int]:
        """doc_id -> token count for every document *having* ``field``.

        Presence-aware (a zero-length field instance still appears),
        which is what the segment encoder needs: ``field_length`` alone
        cannot distinguish "absent" from "present but empty", and
        ``field_document_count`` must survive a persistence round-trip.
        """
        return dict(self._field_lengths.get(field, {}))

    def terms_of(self, doc_id: str) -> Dict[str, Set[str]]:
        """field -> distinct analyzed terms of one indexed document.

        Exposes the removal reverse map so layered indexes (the segment
        store's memtable) can invalidate exactly the merged posting
        caches an ``add`` touched, without re-analyzing the document.
        """
        return {
            field: set(terms)
            for field, terms in self._doc_terms.get(doc_id, {}).items()
        }

    def total_length(self, doc_id: str) -> int:
        """Token count across all fields of ``doc_id``."""
        return sum(
            lengths.get(doc_id, 0) for lengths in self._field_lengths.values()
        )

    def average_length(self, field: Optional[str] = None) -> float:
        """Average field length (or average total document length).

        The per-field average divides by the number of documents that
        *have* the field, not the corpus size — a corpus-wide
        denominator deflates avgdl for sparse fields and skews BM25
        length normalization toward long field instances.
        """
        if not self._documents:
            return 0.0
        if field is not None:
            lengths = self._field_lengths.get(field)
            if not lengths:
                return 0.0
            return self._field_token_totals.get(field, 0) / len(lengths)
        return self._token_total / len(self._documents)

    def field_document_count(self, field: str) -> int:
        """Number of documents that have ``field``."""
        return len(self._field_lengths.get(field, {}))

    def field_token_total(self, field: str) -> int:
        """Exact total token count across all documents' ``field``.

        Exposed (as an integer, not a precomputed ratio) so the segment
        store can sum its memtable's and segments' totals and divide
        once, reproducing :meth:`average_length` bit-identically.
        """
        return self._field_token_totals.get(field, 0)

    def token_total(self) -> int:
        """Exact total token count across all fields of all documents."""
        return self._token_total

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        """All distinct index terms (optionally restricted to a field)."""
        if field is not None:
            return set(self._postings.get(field, {}))
        terms: Set[str] = set()
        for field_postings in self._postings.values():
            terms.update(field_postings)
        return terms
