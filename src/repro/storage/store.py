"""LSM-style segmented index store, drop-in for ``InvertedIndex``.

:class:`SegmentBackedIndex` layers a mutable in-memory *memtable* (a
plain :class:`~repro.search.inverted_index.InvertedIndex`) over a list
of immutable :class:`~repro.storage.segment.Segment` files:

* ``add`` writes to the memtable; when it reaches ``memtable_limit``
  documents it *flushes* — the memtable is encoded into one compact
  delta-varint segment and replaced with a fresh empty one.
* ``remove`` of a memtable document is a plain in-memory remove; for a
  segment document it writes a *tombstone* (the segment stays
  immutable; live statistics are adjusted incrementally).
* After each flush a *tiered merge* runs: segments are bucketed by
  live-document-count tier (powers of ``merge_fanout``), and any tier
  holding ``merge_fanout`` or more segments is structurally merged into
  one — posting bytes and docstore records are copied, never
  re-analyzed — dropping tombstones along the way.

Query-path equivalence is exact: every statistic BM25 and the MaxScore
planner consume (N, df, tf, field lengths, integer token totals
divided once for avgdl) is computed live across memtable + segments,
so a segment-backed engine returns **bit-identical rankings** to the
all-in-memory engine (enforced by the execution-equivalence suite).
Two bound-side details make MaxScore stay sound: ``df`` is always the
exact live count (a tombstoned segment decode-counts once and caches),
and ``max_tf`` only ever over-estimates (stored encode-time maxima, or
``None`` when the memtable's contribution is unknown — a loose bound
never prunes wrongly).

Concurrency matches ``InvertedIndex``: the store itself is unlocked
and relies on the owning engine's writer-preferring ReadWriteLock —
flushes and merges happen inside ``add`` calls, which the engine
already runs under its write lock, so queries never observe a
half-merged segment list.

Persistence (``save``/``load``) writes a manifest (format-versioned,
checksummed, atomically replaced) plus one file per segment.  While a
directory is attached, flushed and merged segments spill straight to
disk (docstores leave RAM — this is what bounds build memory at 100k+
docs); the manifest is only rewritten by ``save``, so a crash leaves
the previous manifest's consistent view intact and ``save`` sweeps any
unreferenced segment files.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SearchError, StorageError
from repro.obs import get_registry
from repro.search.analyzer import Analyzer
from repro.search.document import IndexableDocument
from repro.search.inverted_index import InvertedIndex, TermPostings
from repro.storage.atomic import atomic_write_bytes, atomic_write_text
from repro.storage.segment import (
    Segment,
    encode_from_index,
    merge_segments,
)

__all__ = ["SegmentBackedIndex", "MANIFEST_NAME", "MANIFEST_FORMAT"]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-segment-index"
MANIFEST_VERSION = 1

#: Documents held in the memtable before an automatic flush.
DEFAULT_MEMTABLE_LIMIT = 4096
#: Segments per size tier before a tiered merge compacts them.
DEFAULT_MERGE_FANOUT = 4

_DOC_CACHE_SIZE = 256


def _checksum(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _manifest_checksum(body: Dict[str, Any]) -> str:
    canonical = json.dumps(
        {key: body[key] for key in body if key != "checksum"},
        sort_keys=True,
    )
    return _checksum(canonical.encode("utf-8"))


class SegmentBackedIndex:
    """Memtable + immutable segments behind the ``InvertedIndex`` API."""

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        merge_fanout: int = DEFAULT_MERGE_FANOUT,
    ) -> None:
        if memtable_limit < 1:
            raise ValueError(
                f"memtable_limit must be >= 1, got {memtable_limit}"
            )
        if merge_fanout < 2:
            raise ValueError(
                f"merge_fanout must be >= 2, got {merge_fanout}"
            )
        self.analyzer = analyzer or Analyzer()
        self.memtable = InvertedIndex(self.analyzer)
        self.segments: List[Segment] = []
        self.memtable_limit = memtable_limit
        self.merge_fanout = merge_fanout
        self.directory: Optional[str] = None
        #: Mutation counter, mirroring ``InvertedIndex.epoch`` — flushes
        #: and merges do NOT bump it (they are content-preserving).
        self.epoch = 0
        # Merged (segments + memtable) posting arrays; content-stable
        # across flush/merge, invalidated per touched (field, term) on
        # add and remove.
        self._compiled: Dict[Tuple[str, str], TermPostings] = {}
        # Merged positional postings for phrase matching, same policy.
        self._positional: Dict[Tuple[str, str], Dict[str, List[int]]] = {}
        # Small decoded-document cache in front of the on-disk docstore.
        self._doc_cache: "OrderedDict[str, IndexableDocument]" = OrderedDict()
        self._checksums: Dict[str, str] = {}
        self._next_segment = 1

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_inverted(
        cls,
        index: InvertedIndex,
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        merge_fanout: int = DEFAULT_MERGE_FANOUT,
    ) -> "SegmentBackedIndex":
        """Adopt an existing in-memory index as the initial memtable.

        The index is taken over, not copied — the caller must stop
        using it directly.
        """
        store = cls(
            analyzer=index.analyzer,
            memtable_limit=memtable_limit,
            merge_fanout=merge_fanout,
        )
        store.memtable = index
        store.epoch = index.epoch
        store._refresh_gauges()
        return store

    # -- mutation -----------------------------------------------------------

    def add(self, document: IndexableDocument) -> None:
        """Index ``document`` into the memtable (auto-flush at limit)."""
        if self.has_document(document.doc_id):
            raise SearchError(
                f"document {document.doc_id!r} already indexed"
            )
        self.memtable.add(document)
        for field, terms in self.memtable.terms_of(
            document.doc_id
        ).items():
            for term in terms:
                self._compiled.pop((field, term), None)
                self._positional.pop((field, term), None)
        self.epoch += 1
        if len(self.memtable) >= self.memtable_limit:
            self.flush()
            self.maybe_merge()
        else:
            get_registry().set_gauge(
                "storage.memtable_docs", len(self.memtable)
            )

    def remove(self, doc_id: str) -> IndexableDocument:
        """Remove a document: memtable delete or segment tombstone."""
        if self.memtable.has_document(doc_id):
            touched = self.memtable.terms_of(doc_id)
            document = self.memtable.remove(doc_id)
            for field, terms in touched.items():
                for term in terms:
                    self._compiled.pop((field, term), None)
                    self._positional.pop((field, term), None)
            self._doc_cache.pop(doc_id, None)
            self.epoch += 1
            get_registry().set_gauge(
                "storage.memtable_docs", len(self.memtable)
            )
            return document
        for segment in self.segments:
            if not segment.has_doc(doc_id):
                continue
            document = segment.document(doc_id)
            segment.tombstone(doc_id)
            # The segment has no reverse term map; re-analyzing this one
            # document recovers exactly the touched (field, term) pairs
            # so cache invalidation stays per-term, like the memtable's.
            terms_touched = 0
            for field, text in document.fields.items():
                for term in {
                    analyzed.term
                    for analyzed in self.analyzer.analyze(text)
                }:
                    terms_touched += 1
                    self._compiled.pop((field, term), None)
                    self._positional.pop((field, term), None)
            self._doc_cache.pop(doc_id, None)
            self.epoch += 1
            metrics = get_registry()
            metrics.inc("index.removals")
            metrics.observe("index.remove_terms_touched", terms_touched)
            metrics.set_gauge("storage.tombstones", self._tombstone_count())
            return document
        raise SearchError(f"document {doc_id!r} not indexed")

    # -- segment lifecycle --------------------------------------------------

    def flush(self) -> bool:
        """Encode the memtable into a segment; True if one was written.

        Content-preserving: merged posting caches stay valid (segments
        are ordered oldest-first with the memtable logically last, and
        a flush moves the memtable's documents to the new last
        segment without reordering anything).
        """
        if len(self.memtable) == 0:
            return False
        data = encode_from_index(self.memtable)
        self._append_segment(data)
        self.memtable = InvertedIndex(self.analyzer)
        metrics = get_registry()
        metrics.inc("storage.flushes")
        self._refresh_gauges()
        return True

    def _append_segment(self, data: bytes) -> Segment:
        segment = Segment.from_bytes(data)
        if self.directory is not None:
            path = self._new_segment_path()
            atomic_write_bytes(path, data)
            self._checksums[path] = _checksum(data)
            segment.attach_file(path)
        self.segments.append(segment)
        return segment

    def _new_segment_path(self) -> str:
        assert self.directory is not None
        name = f"seg-{self._next_segment:06d}.rsg"
        self._next_segment += 1
        return os.path.join(self.directory, name)

    def maybe_merge(self) -> int:
        """Run the tiered merge policy; returns merges performed.

        Dead segments (every document tombstoned) are dropped outright.
        Then, while any live-doc-count tier (powers of
        ``merge_fanout``) holds ``merge_fanout`` or more segments, that
        tier is merged into one tombstone-free segment, placed at the
        oldest member's position so segment order stays oldest-first.
        """
        merges = 0
        for segment in [s for s in self.segments if s.live_count == 0]:
            self.segments.remove(segment)
            segment.close()
        while True:
            tiers: Dict[int, List[int]] = {}
            for position, segment in enumerate(self.segments):
                tiers.setdefault(self._tier(segment), []).append(position)
            group = next(
                (
                    positions
                    for _, positions in sorted(tiers.items())
                    if len(positions) >= self.merge_fanout
                ),
                None,
            )
            if group is None:
                break
            self._merge_positions(group)
            merges += 1
        if merges:
            self._refresh_gauges()
        return merges

    def _tier(self, segment: Segment) -> int:
        tier = 0
        size = max(1, segment.live_count)
        while size >= self.merge_fanout:
            size //= self.merge_fanout
            tier += 1
        return tier

    def _merge_positions(self, positions: List[int]) -> None:
        group = [self.segments[i] for i in positions]
        start = time.monotonic()
        data = merge_segments(group)
        merged = Segment.from_bytes(data)
        if self.directory is not None:
            path = self._new_segment_path()
            atomic_write_bytes(path, data)
            self._checksums[path] = _checksum(data)
            merged.attach_file(path)
        insert_at = positions[0]
        for position in sorted(positions, reverse=True):
            segment = self.segments.pop(position)
            if segment.path is not None:
                self._checksums.pop(segment.path, None)
            segment.close()
        self.segments.insert(insert_at, merged)
        elapsed = time.monotonic() - start
        metrics = get_registry()
        metrics.inc("storage.merges")
        metrics.observe("storage.merge_seconds", elapsed)

    def compact(self) -> None:
        """Flush, then merge everything into one tombstone-free segment."""
        self.flush()
        if len(self.segments) > 1 or any(
            segment.tombstones for segment in self.segments
        ):
            self._merge_positions(list(range(len(self.segments))))
        self.maybe_merge()
        self._refresh_gauges()

    def _tombstone_count(self) -> int:
        return sum(len(segment.tombstones) for segment in self.segments)

    def _refresh_gauges(self) -> None:
        metrics = get_registry()
        metrics.set_gauge("storage.segments", len(self.segments))
        metrics.set_gauge("storage.memtable_docs", len(self.memtable))
        metrics.set_gauge("storage.tombstones", self._tombstone_count())

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> Dict[str, Any]:
        """Flush + write every segment and an atomic manifest.

        Returns the storage stats recorded (also exported as gauges).
        Any ``seg-*.rsg`` file in the directory that the new manifest
        does not reference (older merged-away segments, files from a
        crashed run) is deleted — the manifest is the source of truth.
        """
        directory = os.path.abspath(directory)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.flush()
        entries: List[Dict[str, Any]] = []
        for segment in self.segments:
            if (
                segment.path is None
                or os.path.dirname(os.path.abspath(segment.path))
                != directory
            ):
                data = segment.raw_bytes()
                path = self._new_segment_path()
                atomic_write_bytes(path, data)
                self._checksums[path] = _checksum(data)
                segment.attach_file(path)
            checksum = self._checksums.get(segment.path)
            if checksum is None:
                checksum = _checksum(segment.raw_bytes())
                self._checksums[segment.path] = checksum
            entries.append(
                {
                    "file": os.path.basename(segment.path),
                    "checksum": checksum,
                    "bytes": segment.size_bytes,
                    "docs": segment.doc_count,
                    "tombstones": sorted(
                        segment.doc_ids[ordinal]
                        for ordinal in segment.tombstones
                    ),
                }
            )
        body: Dict[str, Any] = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "segments": entries,
            "next_segment": self._next_segment,
        }
        body["checksum"] = _manifest_checksum(body)
        atomic_write_text(
            os.path.join(directory, MANIFEST_NAME),
            json.dumps(body, indent=2, sort_keys=True) + "\n",
        )
        referenced = {entry["file"] for entry in entries}
        for name in os.listdir(directory):
            if (
                name.startswith("seg-")
                and name.endswith(".rsg")
                and name not in referenced
            ):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
        stats = self.storage_stats()
        metrics = get_registry()
        metrics.set_gauge("storage.bytes_per_doc", stats["bytes_per_doc"])
        self._refresh_gauges()
        return stats

    @classmethod
    def load(
        cls,
        directory: str,
        analyzer: Optional[Analyzer] = None,
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        merge_fanout: int = DEFAULT_MERGE_FANOUT,
        verify: bool = True,
    ) -> "SegmentBackedIndex":
        """Cold-start a store from a saved directory.

        Rejects foreign or damaged state with :class:`StorageError`:
        missing/unparseable manifest, wrong format marker or version,
        manifest checksum mismatch, missing segment files, and (with
        ``verify=True``) segment checksum mismatches.
        """
        directory = os.path.abspath(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise StorageError(
                f"cannot read index manifest {manifest_path}: {exc}"
            ) from exc
        try:
            body = json.loads(text)
        except ValueError as exc:
            raise StorageError(
                f"index manifest {manifest_path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict) or body.get("format") != MANIFEST_FORMAT:
            raise StorageError(
                f"{manifest_path} is not a segment index manifest"
            )
        version = body.get("version")
        if version != MANIFEST_VERSION:
            raise StorageError(
                f"index manifest version {version!r} unsupported "
                f"(expected {MANIFEST_VERSION})"
            )
        if body.get("checksum") != _manifest_checksum(body):
            raise StorageError(
                f"index manifest {manifest_path} failed its checksum "
                f"(partial or corrupted write)"
            )
        store = cls(
            analyzer=analyzer,
            memtable_limit=memtable_limit,
            merge_fanout=merge_fanout,
        )
        store.directory = directory
        store._next_segment = int(body.get("next_segment", 1))
        for entry in body["segments"]:
            path = os.path.join(directory, entry["file"])
            if not os.path.isfile(path):
                raise StorageError(f"missing segment file {path}")
            if verify:
                with open(path, "rb") as handle:
                    data = handle.read()
                if _checksum(data) != entry["checksum"]:
                    raise StorageError(
                        f"segment {path} failed its checksum"
                    )
                if len(data) != entry["bytes"]:
                    raise StorageError(
                        f"segment {path} has {len(data)} bytes, "
                        f"manifest says {entry['bytes']}"
                    )
                segment = Segment.from_bytes(data)
                segment.attach_file(path)
            else:
                segment = Segment.open(path)
            for doc_id in entry.get("tombstones", ()):
                segment.tombstone(doc_id)
            store._checksums[path] = entry["checksum"]
            store.segments.append(segment)
        store._refresh_gauges()
        get_registry().set_gauge(
            "storage.bytes_per_doc",
            store.storage_stats()["bytes_per_doc"],
        )
        return store

    def storage_stats(self) -> Dict[str, Any]:
        """Byte and document accounting across all segments."""
        size_bytes = sum(s.size_bytes for s in self.segments)
        postings_bytes = sum(s.postings_bytes for s in self.segments)
        docstore_bytes = sum(s.docstore_bytes for s in self.segments)
        docs = len(self)
        return {
            "segments": len(self.segments),
            "memtable_docs": len(self.memtable),
            "docs": docs,
            "tombstones": self._tombstone_count(),
            "size_bytes": size_bytes,
            "postings_bytes": postings_bytes,
            "docstore_bytes": docstore_bytes,
            "bytes_per_doc": (size_bytes / docs) if docs else 0.0,
        }

    def close(self) -> None:
        """Release every segment's file descriptor."""
        for segment in self.segments:
            segment.close()

    # -- lookup (InvertedIndex-compatible) ----------------------------------

    def document(self, doc_id: str) -> IndexableDocument:
        """Fetch a stored document by id (memtable, then segments)."""
        if self.memtable.has_document(doc_id):
            return self.memtable.document(doc_id)
        cached = self._doc_cache.get(doc_id)
        if cached is not None:
            self._doc_cache.move_to_end(doc_id)
            return cached
        for segment in self.segments:
            document = segment.document(doc_id)
            if document is not None:
                self._doc_cache[doc_id] = document
                if len(self._doc_cache) > _DOC_CACHE_SIZE:
                    self._doc_cache.popitem(last=False)
                return document
        raise SearchError(f"document {doc_id!r} not indexed")

    def has_document(self, doc_id: str) -> bool:
        """True if ``doc_id`` is live anywhere in the store."""
        if self.memtable.has_document(doc_id):
            return True
        return any(segment.has_doc(doc_id) for segment in self.segments)

    def __len__(self) -> int:
        return len(self.memtable) + sum(
            segment.live_count for segment in self.segments
        )

    @property
    def doc_ids(self) -> Set[str]:
        """Ids of all live documents."""
        ids = self.memtable.doc_ids
        for segment in self.segments:
            ids.update(segment.live_doc_ids())
        return ids

    @property
    def fields(self) -> List[str]:
        """Field names with live content, sorted."""
        names = set(self.memtable.fields)
        for segment in self.segments:
            for field in segment.posting_fields():
                if segment.live_field_docs(field) > 0:
                    names.add(field)
        return sorted(names)

    def postings(
        self, term: str, field: Optional[str] = None
    ) -> Dict[str, List[int]]:
        """doc_id -> positions (merged across fields when field=None)."""
        if field is not None:
            return dict(self._merged_positions(field, term))
        merged: Dict[str, List[int]] = {}
        for field_name in self.fields:
            for doc_id, positions in self._merged_positions(
                field_name, term
            ).items():
                merged.setdefault(doc_id, []).extend(positions)
        return merged

    def _merged_positions(
        self, field: str, term: str
    ) -> Dict[str, List[int]]:
        key = (field, term)
        cached = self._positional.get(key)
        if cached is not None:
            return cached
        merged: Dict[str, List[int]] = {}
        for segment in self.segments:
            merged.update(segment.positions(field, term))
        merged.update(self.memtable.postings(term, field))
        self._positional[key] = merged
        return merged

    def term_postings(
        self, term: str, field: str
    ) -> Optional[TermPostings]:
        """Merged compiled postings (segments oldest-first, then
        memtable), or None when no live document matches."""
        key = (field, term)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = TermPostings()
            for segment in self.segments:
                for doc_id, tf, length in segment.iter_term(field, term):
                    compiled.append(doc_id, tf, length)
            memtable = self.memtable.term_postings(term, field)
            if memtable is not None:
                for i, doc_id in enumerate(memtable.doc_ids):
                    compiled.append(
                        doc_id, memtable.tfs[i], memtable.lengths[i]
                    )
            if len(compiled) == 0:
                return None
            self._compiled[key] = compiled
            get_registry().inc("index.postings_compiled")
        return compiled

    def max_tf(self, term: str, field: str) -> Optional[int]:
        """O(1) upper bound on the live max tf, or None if unknown.

        Soundness rule for MaxScore: the returned value must never be
        *below* the true live maximum.  Stored segment maxima only ever
        over-estimate (tombstones can't raise a max); the memtable's
        contribution is exact when compiled and unknown otherwise — in
        the unknown case the whole answer is None and the planner falls
        back to its loose bound.
        """
        compiled = self._compiled.get((field, term))
        if compiled is not None:
            return compiled.max_tf
        best: Optional[int] = None
        for segment in self.segments:
            stored = segment.stored_max_tf(field, term)
            if stored is not None and (best is None or stored > best):
                best = stored
        if self.memtable.df(term, field) > 0:
            memtable_max = self.memtable.max_tf(term, field)
            if memtable_max is None:
                return None
            if best is None or memtable_max > best:
                best = memtable_max
        return best

    def matching_docs(
        self, term: str, field: Optional[str] = None
    ) -> Set[str]:
        """Ids of live documents containing ``term``."""
        matches = self.memtable.matching_docs(term, field)
        for segment in self.segments:
            fields = (
                [field] if field is not None else segment.posting_fields()
            )
            for field_name in fields:
                for doc_id, _, _ in segment.iter_term(field_name, term):
                    matches.add(doc_id)
        return matches

    def docs_with_metadata(
        self, key: str, values: Iterable[Any]
    ) -> Set[str]:
        """Ids of live documents whose metadata ``key`` is in ``values``."""
        values = list(values)
        matches = self.memtable.docs_with_metadata(key, values)
        for segment in self.segments:
            for value in values:
                matches |= segment.meta_docs(key, value)
        return matches

    def phrase_docs(
        self, terms: List[str], field: Optional[str] = None
    ) -> Set[str]:
        """Live documents containing ``terms`` consecutively in a field."""
        if not terms:
            return set()
        fields = [field] if field is not None else self.fields
        matches: Set[str] = set()
        for field_name in fields:
            maps = []
            empty = False
            candidate_docs: Optional[Set[str]] = None
            for term in terms:
                positions = self._merged_positions(field_name, term)
                maps.append(positions)
                docs = set(positions)
                candidate_docs = (
                    docs
                    if candidate_docs is None
                    else candidate_docs & docs
                )
                if not candidate_docs:
                    empty = True
                    break
            if empty or not candidate_docs:
                continue
            for doc_id in candidate_docs:
                starts = set(maps[0][doc_id])
                for offset in range(1, len(terms)):
                    positions = maps[offset][doc_id]
                    starts &= {p - offset for p in positions}
                    if not starts:
                        break
                if starts:
                    matches.add(doc_id)
        return matches

    # -- statistics (live-exact) --------------------------------------------

    def document_frequency(
        self, term: str, field: Optional[str] = None
    ) -> int:
        """Exact number of live documents containing ``term``."""
        return len(self.matching_docs(term, field))

    def df(self, term: str, field: Optional[str] = None) -> int:
        """Live document frequency; per-field exact, summed otherwise.

        Matches ``InvertedIndex.df`` semantics: with ``field=None`` the
        per-field counts are summed (an upper bound used only for AND
        ordering).  The per-field value is exact even under tombstones
        — MaxScore bound soundness requires it (see module docstring).
        """
        if field is not None:
            total = self.memtable.df(term, field)
            for segment in self.segments:
                total += segment.df(field, term)
            return total
        total = self.memtable.df(term, None)
        for segment in self.segments:
            for field_name in segment.posting_fields():
                total += segment.df(field_name, term)
        return total

    def term_frequency(
        self, term: str, doc_id: str, field: Optional[str] = None
    ) -> int:
        """Occurrences of ``term`` in a live ``doc_id``."""
        if self.memtable.has_document(doc_id):
            return self.memtable.term_frequency(term, doc_id, field)
        for segment in self.segments:
            if not segment.has_doc(doc_id):
                continue
            if field is not None:
                return segment.term_frequency(field, term, doc_id)
            return sum(
                segment.term_frequency(field_name, term, doc_id)
                for field_name in segment.posting_fields()
            )
        return 0

    def field_length(self, field: str, doc_id: str) -> int:
        """Token count of ``field`` in ``doc_id`` (0 if absent)."""
        if self.memtable.has_document(doc_id):
            return self.memtable.field_length(field, doc_id)
        for segment in self.segments:
            if segment.has_doc(doc_id):
                return segment.field_length(field, doc_id)
        return 0

    def field_lengths(self, field: str) -> Dict[str, int]:
        """doc_id -> token count for live documents having ``field``."""
        lengths = self.memtable.field_lengths(field)
        for segment in self.segments:
            for doc_id in segment.live_doc_ids():
                ordinal = segment._ord[doc_id]
                array_ = segment._length_arrays.get(field)
                if array_ is None:
                    continue
                value = array_[ordinal]
                if value >= 0:
                    lengths[doc_id] = value
        return lengths

    def terms_of(self, doc_id: str) -> Dict[str, Set[str]]:
        """field -> distinct terms of one live document."""
        if self.memtable.has_document(doc_id):
            return self.memtable.terms_of(doc_id)
        document = self.document(doc_id)
        return {
            field: {
                analyzed.term
                for analyzed in self.analyzer.analyze(text)
            }
            for field, text in document.fields.items()
        }

    def total_length(self, doc_id: str) -> int:
        """Token count across all fields of ``doc_id``."""
        if self.memtable.has_document(doc_id):
            return self.memtable.total_length(doc_id)
        for segment in self.segments:
            if segment.has_doc(doc_id):
                return segment.total_length(doc_id)
        return 0

    def average_length(self, field: Optional[str] = None) -> float:
        """Average field length over live documents.

        Integer token totals and document counts are summed across the
        memtable and every segment first, then divided once — the same
        float the all-in-memory index computes (bit-identical BM25
        avgdl).
        """
        if len(self) == 0:
            return 0.0
        if field is not None:
            docs = self.field_document_count(field)
            if docs == 0:
                return 0.0
            return self.field_token_total(field) / docs
        return self.token_total() / len(self)

    def field_document_count(self, field: str) -> int:
        """Live documents having ``field``."""
        return self.memtable.field_document_count(field) + sum(
            segment.live_field_docs(field) for segment in self.segments
        )

    def field_token_total(self, field: str) -> int:
        """Exact live token total of ``field`` (integer)."""
        return self.memtable.field_token_total(field) + sum(
            segment.live_field_tokens(field) for segment in self.segments
        )

    def token_total(self) -> int:
        """Exact live token total across all fields (integer)."""
        return self.memtable.token_total() + sum(
            segment.live_token_total() for segment in self.segments
        )

    def vocabulary(self, field: Optional[str] = None) -> Set[str]:
        """Distinct terms with at least one live posting."""
        terms = self.memtable.vocabulary(field)
        for segment in self.segments:
            fields = (
                [field] if field is not None else segment.posting_fields()
            )
            for field_name in fields:
                if segment.tombstones:
                    terms.update(
                        term
                        for term in segment.terms(field_name)
                        if segment.df(field_name, term) > 0
                    )
                else:
                    terms.update(segment.terms(field_name))
        return terms
