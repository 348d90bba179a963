"""Measurement logic of the perfbench harness, kept free of the system.

Everything here is plain Python with no import of ``repro``, so
``test_harness.py`` can pin the rules down directly:

* the percentile rule — a timing is reported as its median plus the
  highest percentile that has at least ten samples beyond it;
* failure accounting — shed, deadline, exception and wrong-answer
  outcomes all count as failed, and a failed request misses every
  latency limit;
* seeded request-plan generation — exact op-mix proportions and Zipf
  popularity draws, identical for identical seeds;
* benchmark-side spans — name, start, end, parent and request id, kept
  in memory, with a layer's self time computed as its span minus the
  union of its children's spans.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# -- percentiles --------------------------------------------------------------

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` of ``count``."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(pct / 100.0 * count - 1e-9))


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def reportable(count: int, pct: float) -> bool:
    """May ``pct`` be reported for ``count`` samples?

    The median always may; a tail percentile needs :data:`MIN_BEYOND`
    samples beyond it.
    """
    if count <= 0:
        return False
    return pct <= 50.0 or samples_beyond(count, pct) >= MIN_BEYOND


def tail_percentile(count: int) -> Optional[float]:
    """The highest reportable tail percentile, or None (median only)."""
    for pct in TAIL_PERCENTILES:
        if reportable(count, pct):
            return pct
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest reportable tail of ``samples``.

    Returns ``{"n", "p50", "tail_pct", "tail"}``; the tail entries are
    None when fewer than ``MIN_BEYOND`` samples lie beyond even p90.
    Infinite samples (failed requests) sort last, as they should.
    """
    ordered = sorted(samples)
    if not ordered:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail_pct": pct,
        "tail": nearest_rank(ordered, pct) if pct is not None else None,
    }


def percentile(samples: Sequence[float], pct: float) -> float:
    """``pct`` of ``samples``; raises when the rule forbids reporting it."""
    if not reportable(len(samples), pct):
        raise ValueError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(samples)} samples"
        )
    return nearest_rank(sorted(samples), pct)


# -- outcomes and failure accounting -----------------------------------------

OK = "ok"
SHED = "shed"
DEADLINE = "deadline"
EXCEPTION = "exception"
WRONG = "wrong"


def classify_exception(
    exc: BaseException,
    shed_types: Tuple[type, ...],
    deadline_types: Tuple[type, ...],
) -> str:
    """Outcome status of a request that raised ``exc``."""
    if isinstance(exc, shed_types):
        return SHED
    if isinstance(exc, deadline_types):
        return DEADLINE
    return EXCEPTION


class Ledger:
    """Every attempted operation with its latency and outcome.

    Thread-safe: server callbacks, generator and writer threads record
    concurrently.  A failed operation keeps its measured time for the
    record but enters latency percentiles as infinite, so it misses any
    latency limit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Tuple[str, float, str]] = []
        self.errors: List[str] = []

    def record(self, op: str, seconds: float, status: str = OK,
               detail: str = "") -> int:
        """Record one operation of type ``op``; returns its index."""
        with self._lock:
            self._records.append((op, seconds, status))
            self._note(op, status, detail)
            return len(self._records) - 1

    def mark_wrong(self, index: int, detail: str) -> None:
        """Turn a recorded success into a wrong answer."""
        with self._lock:
            op, seconds, status = self._records[index]
            if status == OK:
                self._records[index] = (op, seconds, WRONG)
                self._note(op, WRONG, detail)

    def _note(self, op: str, status: str, detail: str) -> None:
        if status != OK and len(self.errors) < 20:
            self.errors.append(f"{op}/{status}: {detail}")

    @property
    def attempted(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def failed(self) -> int:
        with self._lock:
            return sum(1 for _, _, s in self._records if s != OK)

    def count(self, op: str) -> int:
        """Attempted operations of type ``op``."""
        with self._lock:
            return sum(1 for name, _, _ in self._records if name == op)

    def by_status(self) -> Dict[str, int]:
        """Attempt counts per outcome status."""
        counts: Dict[str, int] = {}
        with self._lock:
            for _, _, status in self._records:
                counts[status] = counts.get(status, 0) + 1
        return counts

    def latencies(self, op: str) -> List[float]:
        """Seconds per ``op`` attempt; failed attempts are infinite."""
        with self._lock:
            return [
                seconds if status == OK else math.inf
                for name, seconds, status in self._records
                if name == op
            ]


# -- seeded request plans -----------------------------------------------------


def exact_mix(rng: random.Random, weights: Dict[Hashable, float],
              count: int) -> List[Hashable]:
    """``count`` labels in exactly the given proportions, shuffled.

    Proportions are rounded by largest remainder, so every plan of the
    same length carries the same number of each label; only the order
    depends on the seed.
    """
    total = sum(weights.values())
    labels = sorted(weights)
    raw = {label: weights[label] / total * count for label in labels}
    counts = {label: int(raw[label]) for label in labels}
    short = count - sum(counts.values())
    by_remainder = sorted(labels, key=lambda l: (-(raw[l] - counts[l]), l))
    for label in by_remainder[:short]:
        counts[label] += 1
    out = [label for label in labels for _ in range(counts[label])]
    rng.shuffle(out)
    return out


def zipf_weights(size: int, exponent: float) -> List[float]:
    """Unnormalized Zipf popularity of ranks ``1..size``."""
    return [1.0 / (rank ** exponent) for rank in range(1, size + 1)]


class Deck:
    """Draws from a pool without replacement, reshuffling when empty.

    Every item comes up once before any comes up twice, so a run's
    sample covers the pool evenly and two seeds draw similar mixes of
    cheap and costly parameters, while the order still depends on the
    seed.
    """

    def __init__(self, pool: Sequence) -> None:
        if not pool:
            raise ValueError("empty pool")
        self.pool = tuple(pool)
        self._cards: List = []

    def draw(self, rng: random.Random):
        if not self._cards:
            self._cards = list(self.pool)
            rng.shuffle(self._cards)
        return self._cards.pop()


class StratifiedDeck:
    """A :class:`Deck` of strata, each itself a :class:`Deck`.

    ``pool`` is ordered by a property that drives a request's cost (for
    a person, how many deals they are on) and cut into ``strata`` equal
    bands; draws cycle through the bands in a shuffled order, so every
    run draws cheap and costly items in the same proportions.
    """

    def __init__(self, pool: Sequence, strata: int) -> None:
        size = -(-len(pool) // strata)
        self._bands = Deck([Deck(pool[i:i + size])
                            for i in range(0, len(pool), size)])

    def draw(self, rng: random.Random):
        return self._bands.draw(rng).draw(rng)


def repeat_share(keys: Sequence[Hashable]) -> float:
    """Share of ``keys`` that already occurred earlier in the sequence."""
    if not keys:
        return 0.0
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys)


def distinct_draws(
    rng: random.Random,
    labels: Sequence[str],
    makers: Dict[str, Callable[[random.Random], Hashable]],
    max_tries: int = 200,
    seen: Optional[set] = None,
) -> List[Hashable]:
    """One request per label, none equal to an earlier one.

    ``makers[label](rng)`` draws a candidate; duplicates are redrawn.
    ``seen``, when given, holds earlier requests to avoid and gains the
    new ones.  Raises when a label's parameter space is exhausted.
    """
    seen = set() if seen is None else seen
    out: List[Hashable] = []
    for label in labels:
        for _ in range(max_tries):
            request = makers[label](rng)
            if request not in seen:
                break
        else:
            raise ValueError(f"request space of {label!r} exhausted")
        seen.add(request)
        out.append(request)
    return out


# -- benchmark-side spans -----------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    request_id: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested timing spans per thread, kept in memory until written.

    A span opened with no open parent in its thread starts a new
    request (a fresh id, or the one passed in); nested spans inherit
    their parent's request id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[SpanRecord] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def new_request_id(self) -> int:
        return next(self._request_ids)

    @contextmanager
    def span(self, name: str,
             request_id: Optional[int] = None) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent_id, rid = stack[-1]
        else:
            parent_id = None
            rid = request_id if request_id is not None else (
                self.new_request_id()
            )
        span_id = next(self._span_ids)
        stack.append((span_id, rid))
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                SpanRecord(span_id, parent_id, rid, name, start, end)
            )


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Self seconds per span id: duration minus its children's union.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so concurrent children never drive a
    self time below zero or count their overlap twice.
    """
    children: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
            if child.end > span.start and child.start < span.end
        ]
        out[span.span_id] = max(0.0, span.seconds - _union_length(clipped))
    return out


def layer_times(
    spans: Sequence[SpanRecord],
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    ``total_s`` counts only spans with no enclosing span of the same
    name, so a recursive layer is not counted twice; ``self_s`` sums
    every span's self time.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
        parent = by_id.get(span.parent_id) if span.parent_id else None
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent_id) if parent.parent_id else None
        if not nested:
            entry["total_s"] += span.seconds
    return out
