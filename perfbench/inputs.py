"""Workload inputs: the rollout corpus, query pools and request plans.

The corpus is the paper's rollout shape — 1,000 deals — at the
generator's minimum workbook size of 12 documents, so about 12k
documents.  It is generated from a fixed corpus seed (2008, the
generator's default) together with ``HELD_OUT`` extra workbooks from the
same generator call; those never enter the bulk build and are what the
churn writer onboards and offboards.  The corpus being fixed lets every
``search_cold`` run cold-start from one snapshot per checkout.

The ``--seed`` argument drives everything a run sends: which requests,
in which order, which held-out workbooks churn, and in what order.
Query parameters come from the generator's ground truth (towers,
industries, geographies, team members, roles, technologies, deal ids),
never from the system's own output.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import harness

CORPUS_SEED = 2008
DEALS = 1000
DOCS_PER_DEAL = 12
HELD_OUT = 48

#: Read request types; each gets its own latency metrics.
OPS = ("search", "graph", "keyword", "synopsis")

#: Form-search kinds in the proportions of the paper's Section 2 study:
#: of the 120 sales email threads, 46 asked a scope question (MQ1), 20
#: who worked with whom (MQ2), 43 who held a role (MQ3) and 35 for a
#: service plus a keyword (MQ4); ``repro.corpus.emails_gen`` encodes the
#: same counts.  This is the only traffic share with a source.
PAPER_THREAD_COUNTS = {"mq1": 46, "mq2": 20, "mq3": 43, "mq4": 35}

#: Share of each read type in search_cold's plan.  Assumed: the paper
#: gives no traffic mix.  With one closed-loop client a type's share
#: changes how many samples it gets, not its latency, so form search
#: and graph queries get the samples their tails need.
OP_WEIGHTS = {"search": 0.4, "graph": 0.4, "keyword": 0.1,
              "synopsis": 0.1}

#: Sub-class shares within each read type: form searches as in the
#: paper's study, every other type in equal shares (assumed).
KIND_WEIGHTS = {
    "search": PAPER_THREAD_COUNTS,
    "graph": {"worked-with": 1, "team-overlap": 1, "role-capacity": 1,
              "expertise": 1},
    "keyword": {"term": 1, "name": 1, "pair": 1},
    "synopsis": {"deal": 1},
}

#: Result page sizes a user sees.
SEARCH_PAGE = 20
KEYWORD_PAGE = 10

Request = Tuple[Hashable, ...]  # (op, kind, *parameters)


def corpus_shape() -> Dict[str, int]:
    """The corpus parameters, as recorded with every result."""
    return {"seed": CORPUS_SEED, "deals": DEALS,
            "docs_per_deal": DOCS_PER_DEAL, "held_out": HELD_OUT}


def generate_corpus():
    """The fixed corpus plus the held-out workbooks, in generation order."""
    from repro import CorpusConfig, CorpusGenerator
    from repro.docmodel.repository import WorkbookCollection

    full = CorpusGenerator(
        CorpusConfig(seed=CORPUS_SEED, n_deals=DEALS + HELD_OUT,
                     docs_per_deal=DOCS_PER_DEAL)
    ).generate()
    workbooks = list(full.collection)
    corpus = dataclasses.replace(
        full,
        deals=full.deals[:DEALS],
        collection=WorkbookCollection(workbooks[:DEALS]),
    )
    return corpus, workbooks[DEALS:]


@dataclasses.dataclass(frozen=True)
class Pools:
    """Sorted parameter pools drawn from the corpus ground truth."""

    towers: Tuple[str, ...]
    industries: Tuple[str, ...]
    geographies: Tuple[str, ...]
    customers: Tuple[str, ...]
    names: Tuple[str, ...]  # by how many deals each person is on
    roles: Tuple[str, ...]
    technologies: Tuple[str, ...]
    deal_ids: Tuple[str, ...]

    @classmethod
    def from_corpus(cls, corpus) -> "Pools":
        deals = corpus.deals
        return cls(
            towers=tuple(sorted({t for d in deals for t in d.towers})),
            industries=tuple(sorted({d.industry for d in deals})),
            geographies=tuple(sorted({d.geography for d in deals})),
            customers=tuple(sorted({d.customer for d in deals})),
            names=names_by_deals(deals),
            roles=tuple(sorted({m.role for d in deals for m in d.team})),
            technologies=tuple(sorted({tech for d in deals
                                       for _, tech in d.technologies})),
            deal_ids=tuple(d.deal_id for d in deals),
        )


def names_by_deals(deals) -> Tuple[str, ...]:
    """Team-member names, ordered by how many deals each is on."""
    counts: Dict[str, int] = {}
    for deal in deals:
        for name in {member.person.full_name for member in deal.team}:
            counts[name] = counts.get(name, 0) + 1
    return tuple(sorted(counts, key=lambda name: (counts[name], name)))


#: Bands the name pool is cut into by deal count (see StratifiedDeck).
NAME_STRATA = 8


def request_makers(pools: Pools) -> Dict[str, Callable]:
    """One request maker per ``op/kind`` label.

    Each parameter of each kind is dealt from its own
    :class:`harness.Deck`, so a run covers every tower, role and
    technology about equally often.
    """
    limits = (None,) + tuple(range(1, 51))
    words = (pools.technologies + pools.towers + pools.industries
             + pools.customers)
    decks: Dict[Tuple[str, str], harness.Deck] = {}

    def deal(label: str, field: str, pool: Sequence, rng: random.Random):
        deck = decks.get((label, field))
        if deck is None:
            deck = decks[(label, field)] = (
                harness.StratifiedDeck(pool, NAME_STRATA)
                if pool is pools.names else harness.Deck(pool))
        return deck.draw(rng)

    def maker(op: str, kind: str, *fields: Tuple[str, Sequence]):
        label = f"{op}/{kind}"
        return label, lambda rng: (op, kind) + tuple(
            deal(label, name, pool, rng) for name, pool in fields)

    return dict([
        # MQ1: service scope, optionally narrowed by sector or region.
        maker("search", "mq1", ("tower", pools.towers),
              ("industry", ("",) + pools.industries),
              ("geography", ("",) + pools.geographies)),
        # MQ2: who worked with a person.
        maker("search", "mq2", ("name", pools.names)),
        # MQ3: who held a role, optionally within a service.
        maker("search", "mq3", ("role", pools.roles),
              ("tower", ("",) + pools.towers)),
        # MQ4: service scope plus a technology phrase in the workbooks.
        maker("search", "mq4", ("tower", pools.towers),
              ("technology", pools.technologies)),
        maker("graph", "worked-with", ("name", pools.names),
              ("limit", limits)),
        maker("graph", "team-overlap", ("name", pools.names),
              ("limit", limits)),
        maker("graph", "role-capacity", ("role", pools.roles),
              ("limit", limits)),
        maker("graph", "expertise",
              ("topic", pools.technologies + pools.towers),
              ("limit", limits)),
        # The keyword baseline: a person's name (Fig. 7) or one topic,
        # or two technologies.
        maker("keyword", "term", ("term", words)),
        maker("keyword", "name", ("name", pools.names)),
        maker("keyword", "pair", ("pair", tuple(
            f"{a} {b}" for a in pools.technologies
            for b in pools.technologies if a != b))),
        maker("synopsis", "deal", ("deal", pools.deal_ids)),
    ])


def op_labels(rng: random.Random, count: int, block: int,
              kind_weights: Dict[str, Dict[str, float]] = KIND_WEIGHTS,
              op_weights: Dict[str, float] = OP_WEIGHTS) -> List[str]:
    """``count`` ``op/kind`` labels, in blocks of ``block`` exact shares.

    A run that stops at a block boundary has exactly the configured mix,
    whatever the seed.
    """
    labels: List[str] = []
    while len(labels) < count:
        ops = harness.exact_mix(rng, op_weights, block)
        kinds = {op: iter(harness.exact_mix(rng, kind_weights[op],
                                            ops.count(op)))
                 for op in OPS}
        labels += [f"{op}/{next(kinds[op])}" for op in ops]
    return labels[:count]


#: search_cold's plan block: the smallest with exact op and kind shares.
COLD_BLOCK = 100


def cold_plan(seed: int, pools: Pools, count: int) -> List[Request]:
    """``count`` distinct read requests: nothing repeats, caches miss."""
    rng = random.Random(f"cold:{seed}")
    return harness.distinct_draws(rng, op_labels(rng, count, COLD_BLOCK),
                                  request_makers(pools))


#: serve_churn's reads come in windows, one per write interval, so the
#: cache state each window starts from is the same: every write bumps
#: the epochs and the caches start empty.  In each window the form
#: searches of a kind go to a fresh hot set of up to ``HOT_PER_KIND``
#: requests, asked in exact Zipf proportions (rank ``k`` weighs
#: ``1 / (k + 1)``), so the first ask of each is a miss and the others
#: can hit: in a window of 40 reads, 9 of the 28 searches repeat.  The
#: hot sets rotate through the decks, so a run's misses cover many
#: parameters rather than one seed's favourites.  The other reads are
#: dealt like search_cold's.
#:
#: The hot sets are up to eight wide so that most asks are first asks:
#: serve_churn's gated search median counts only those, since a cache
#: hit is not query latency, and a run needs about a hundred of them.
#: A hit through the server is about 0.1 ms of work and 0.5 ms of
#: waking an idle worker thread, so a median of hits follows the host's
#: wake-up latency more than the program.
CACHED_OPS = ("search",)
HOT_PER_KIND = 8
ZIPF_EXPONENT = 1.0

#: serve_churn's read-type shares.  Assumed, like OP_WEIGHTS: form
#: search, the read the query cache fronts, gets 70% so that a run has
#: enough misses for a steady median, the rest equal.
CHURN_OP_WEIGHTS = {"search": 7, "graph": 1, "keyword": 1, "synopsis": 1}

#: serve_churn's kinds leave out the heavy-tailed ones, whose slowest
#: parameters take 0.3-4 s alone: MQ4 text queries (up to 2 s), role
#: and expertise traversals, keyword pairs, and single keyword terms (a
#: tower name as one term matches most documents and takes 2-4 s).
#: One such request on one of the two workers would set the latency of
#: every read beside it.  search_cold covers them.  The kept form
#: searches keep the paper's proportions; the rest are equal.
CHURN_KIND_WEIGHTS = {
    "search": {kind: PAPER_THREAD_COUNTS[kind]
               for kind in ("mq1", "mq2", "mq3")},
    "graph": {"worked-with": 1, "team-overlap": 1},
    "keyword": {"name": 1},
    "synopsis": {"deal": 1},
}


def hot_ranks(rng: random.Random, asks: int) -> List[int]:
    """The hot-set rank of each of ``asks`` asks, in exact Zipf counts.

    Ranks are numbered from 0 by popularity; every rank up to the
    largest is asked at least once.
    """
    size = min(HOT_PER_KIND, asks)
    return harness.exact_mix(rng, dict(enumerate(
        harness.zipf_weights(size, ZIPF_EXPONENT))), asks)


def churn_window_misses(window: int) -> int:
    """Cached reads in a window of ``window`` reads that are first asks.

    The counts are exact, so this is the same for every seed.
    """
    rng = random.Random(0)
    labels = op_labels(rng, window, window, CHURN_KIND_WEIGHTS,
                       CHURN_OP_WEIGHTS)
    return sum(len(set(hot_ranks(rng, labels.count(label))))
               for label in set(labels)
               if label.split("/")[0] in CACHED_OPS)


def churn_plan(seed: int, pools: Pools, windows: int,
               window: int) -> List[Request]:
    """``windows`` windows of ``window`` reads each (see CACHED_OPS).

    Op and kind shares are exact in every window, and so is the number
    of repeats, so only which requests are asked and their order depend
    on the seed.
    """
    rng = random.Random(f"churn:{seed}")
    makers = request_makers(pools)
    asked: set = set()
    plan: List[Request] = []
    for _ in range(windows):
        labels = op_labels(rng, window, window, CHURN_KIND_WEIGHTS,
                           CHURN_OP_WEIGHTS)
        hot = {}
        for label in sorted(set(labels)):
            if label.split("/")[0] not in CACHED_OPS:
                continue
            ranks = hot_ranks(rng, labels.count(label))
            requests = harness.distinct_draws(
                rng, [label] * (max(ranks) + 1), makers, seen=asked)
            hot[label] = iter([requests[rank] for rank in ranks])
        plan += [next(hot[label]) if label in hot else makers[label](rng)
                 for label in labels]
    return plan


def churn_order(seed: int, held_out: Sequence) -> List:
    """The held-out workbooks in the order the writer onboards them."""
    order = list(held_out)
    random.Random(f"writes:{seed}").shuffle(order)
    return order
