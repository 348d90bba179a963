"""The two workloads and what each run reports.

``search_cold`` cold-starts the checkout's snapshot of the rollout
corpus (``snapshot.py``) and sends distinct reads from one closed-loop
client through :class:`~repro.serving.EILServer`: nothing repeats, so
the query and engine caches almost never hit and the time is the query
analyzer, db, SIAPI/postings, ranking, access and graph work itself.
The serving queue stays empty.

``serve_churn`` builds the corpus from its workbooks and serves the
built system: reads arrive open-loop at a fixed rate in windows, and a
writer onboards or offboards a held-out workbook between every two
windows, which invalidates the caches.  In each window the form
searches go to a fresh Zipf hot set, so 32% of them are repeats the
query cache can answer (``inputs.churn_plan``).  Their latency is
reported apart from the first asks', as ``search_repeat_p50_ms``: a
cache hit is not query latency.  Two server workers.  Each operation
is timed from when it was due, and the generator's lateness is
recorded.

Both report every end-to-end metric in ``E2E``.  ``setup_s`` is the
median input generation plus bringing the system up: the median
snapshot load on ``search_cold``, the bulk build on ``serve_churn``.
Metrics that exist on one workload only, or move too much from run to
run to gate (``EXTRA``), are printed and recorded but not part of the
run's result line.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import harness
import inputs
import layers
import snapshot

SETUP_REPEATS = 3
LOAD_REPEATS = 3
MAX_CONCURRENCY = 2
#: Room for a stall of about two seconds at serve_churn's rate before
#: reads are shed or miss their deadline; a slower system still fails.
QUEUE_DEPTH = 64
READ_DEADLINE_S = 5.0
#: Reads needed per type, so search and graph report a p90 tail; on
#: serve_churn, form searches that miss the cache.
MIN_SAMPLES = {"search": 100, "graph": 100, "keyword": 20, "synopsis": 20}
#: The closed loop runs past ``--seconds`` until MIN_SAMPLES are met,
#: but never past this multiple of it.
MAX_RUN_FACTOR = 3
COLD_PLAN = 1500
#: serve_churn's offered load.  Assumed, not from the paper, which
#: gives no traffic figures: two workers under one interpreter lock are
#: about one core, and at 10 reads/s it is a quarter busy.  At 17 the
#: medians moved by half from run to run with how often requests
#: overlapped, and at 32 queueing made one run in four ten times slower.
CHURN_RATE = 10.0
#: A write between every two windows of reads (assumed, as the rate).
#: Each window of 40 reads holds 28 form searches, 9 of them repeats
#: that the query cache can answer (``inputs.churn_plan``).
WRITE_INTERVAL_S = 4.0
CHURN_WINDOW = int(CHURN_RATE * WRITE_INTERVAL_S)
#: The write before window ``k`` is due this long before its first read.
WRITE_LEAD_S = 0.05
#: Answers kept for the output checks, per ``op/kind``.
CHECK_SAMPLE = 10
#: Requests per pass in a traced search_cold run (fixed, so layer
#: totals compare across commits).
TRACE_REQUESTS = 2 * inputs.COLD_BLOCK
#: search_cold reads its peak memory after this many requests, which
#: every run serves: the caches grow with each distinct request, so a
#: reading at the end of the run would follow how many requests the
#: host's speed allowed.
RSS_REQUESTS = 3 * inputs.COLD_BLOCK

#: End-to-end metrics of every workload: name -> (unit, meaning).
E2E = {
    "setup_s": ("s", "input generation plus snapshot load or build"),
    "peak_rss_mb": ("MB", "peak resident memory through set-up and a "
                          "fixed stretch of requests, before the checks"),
    "search_p50_ms": ("ms", "form search median; on serve_churn, of the "
                            "first asks in each window (cache misses)"),
}

#: Metrics printed but not in the result line: one workload's only, or
#: too unsteady from run to run to gate.  In serve_churn a graph,
#: keyword or synopsis request takes 2-15 ms alone and several times
#: that when it shares the interpreter lock with a search miss, so their
#: medians moved by 0.28-0.37 of themselves over ten runs.
EXTRA = {
    "graph_p50_ms": "ms",
    "keyword_p50_ms": "ms",
    "synopsis_p50_ms": "ms",
    "query_qps": "1/s",
    "generate_s": "s",
    "cold_start_s": "s",
    "bytes_per_doc": "B",
    "build_docs_per_s": "docs/s",
    "onboard_p50_ms": "ms",
    "search_repeat_p50_ms": "ms",
}

WHY = {
    "search_cold": (
        "1,000 deals x 12 docs cold-started from a snapshot; distinct"
        " reads, closed loop, 1 client: caches miss; form-search "
        "kinds in the paper's Section 2 shares, other shares assumed"
    ),
    "serve_churn": (
        "same corpus built per run; open loop, 10 reads/s; form "
        "searches from rotating Zipf hot sets, 32% repeats, median of "
        "first asks gated; a write every 4 s empties caches; rate and "
        "shares assumed"
    ),
}

DOCUMENTS = inputs.DEALS * inputs.DOCS_PER_DEAL


def settle() -> None:
    """Run the full collection a build or load leaves pending.

    Left alone it lands in the first seconds of the measured phase as a
    ~0.4 s pause that sets the tail latencies of whichever run it falls
    in.
    """
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State of one benchmark invocation."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = root / ".bench_build" / "perfbench"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.user = checks.default_user()
        self.ledger = harness.Ledger()
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.extra: Dict[str, Tuple[float, int]] = {}
        self.record: Dict[str, object] = {}
        self.generate_s = 0.0
        self.instrumentation: Optional[layers.Instrumentation] = None

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = value
        self.samples[name] = samples

    def setup(self, make_plan: Callable, count: int):
        """Generate the inputs ``SETUP_REPEATS`` times (once when traced)."""
        times = []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            gc.collect()
            started = time.perf_counter()
            corpus, held_out = inputs.generate_corpus()
            pools = inputs.Pools.from_corpus(corpus)
            plan = make_plan(self.seed, pools, count)
            times.append(time.perf_counter() - started)
        self.generate_s = statistics.median(times)
        self.extra["generate_s"] = (self.generate_s, len(times))
        self.record["generate_samples_s"] = times
        return corpus, held_out, pools, plan

    def put_latencies(self) -> None:
        """Median per read type; the tail the sample count allows."""
        tails = {}
        for op in inputs.OPS:
            seconds = self.ledger.latencies(op)
            summary = harness.summarize(seconds)
            name, p50 = f"{op}_p50_ms", summary["p50"] * 1e3
            if name in E2E:
                self.put(name, p50, len(seconds))
            else:
                self.extra[name] = (p50, len(seconds))
            if summary["tail"] is not None:
                tails[f"{op}_p{summary['tail_pct']:g}_ms"] = (
                    summary["tail"] * 1e3)
        self.record["tails"] = tails

    def submit(self, server, request):
        """Send a read through the server; returns its future."""
        op = request[0]
        if op == "search":
            return server.submit_search(
                checks.form_of(request), self.user, inputs.SEARCH_PAGE,
                deadline_seconds=READ_DEADLINE_S)
        if op == "keyword":
            return server.submit_keyword_search(
                request[2], inputs.KEYWORD_PAGE,
                deadline_seconds=READ_DEADLINE_S)
        return server.submit_graph_query(checks.graph_query_of(request),
                                         deadline_seconds=READ_DEADLINE_S)

    def failure(self, op: str, seconds: float, exc: BaseException,
                request) -> None:
        from repro.errors import DeadlineExceededError, ServerOverloadedError

        status = harness.classify_exception(
            exc, (ServerOverloadedError,), (DeadlineExceededError,))
        self.ledger.record(op, seconds, status,
                           f"{request}: {type(exc).__name__}: {exc}")

    def check_sample(self, system, kept) -> None:
        """Check kept answers; each failure marks its request wrong."""
        rows = checks.ContactRows(system)
        for index, request, answer in kept:
            error = checks.check_answer(answer, request, system, rows)
            if error:
                self.ledger.mark_wrong(index, error)

    # -- the traced run ----------------------------------------------------

    def tracing(self, on: bool) -> None:
        """Switch benchmark spans and the program's own metrics."""
        from repro import obs

        obs.set_enabled(on)
        if self.instrumentation is not None:
            self.instrumentation.active = on

    def counters(self) -> Dict[str, float]:
        from repro.obs import get_registry

        now = layers.counter_values(get_registry())
        now["selects"] = self.instrumentation.selects
        now["rows_returned"] = self.instrumentation.rows_returned
        return now

    def finish_trace(self, workload: str, before: Dict[str, float],
                     storage: Dict[str, int], requests: int,
                     repeat_share: float, overhead: float) -> None:
        from repro.obs import get_registry

        after = self.counters()
        online = {name: after[name] - before[name] for name in after}
        histogram = get_registry().histograms.get("serving.queue_wait")
        wait_p95 = (histogram.percentile(95) * 1e3
                    if histogram is not None and histogram.count else 0.0)
        inst = self.instrumentation
        self.metrics = inst.metrics(online, storage, requests, repeat_share,
                                    wait_p95, overhead)
        self.samples = {name: requests for name in self.metrics}
        inst.write_spans(self.work_dir /
                         f"trace-{workload}-seed{self.seed}.jsonl")
        self.record["spans"] = len(inst.recorder.spans)


# -- search_cold --------------------------------------------------------------


def closed_loop(run: Run, system, server, plan, start: int,
                stop: Callable[[float, int], bool], kept: list
                ) -> Tuple[int, float, List[float]]:
    """One client, one request at a time, until ``stop(elapsed, sent)``.

    Returns the next plan index, the elapsed seconds and the service
    times of the requests that succeeded.
    """
    index = start
    served: List[float] = []
    kept_per_kind: Dict[str, int] = {}
    for _, request, _ in kept:
        label = f"{request[0]}/{request[1]}"
        kept_per_kind[label] = kept_per_kind.get(label, 0) + 1
    began = time.perf_counter()
    while not stop(time.perf_counter() - began, index - start):
        if index >= len(plan):
            raise RuntimeError("request plan exhausted")
        request = plan[index]
        index += 1
        op = request[0]
        started = time.perf_counter()
        try:
            if op == "synopsis":  # the server fronts no synopsis view
                answer = checks.execute_read(system, request, run.user)
            else:
                answer = run.submit(server, request).result()
        except Exception as exc:  # every failure is counted, none fatal
            run.failure(op, time.perf_counter() - started, exc, request)
            continue
        elapsed = time.perf_counter() - started
        slot = run.ledger.record(op, elapsed)
        served.append(elapsed)
        label = f"{op}/{request[1]}"
        if kept_per_kind.get(label, 0) < CHECK_SAMPLE:
            kept_per_kind[label] = kept_per_kind.get(label, 0) + 1
            kept.append((slot, request, answer))
    return index, time.perf_counter() - began, served


def search_cold(run: Run) -> None:
    from repro import EILSystem
    from repro.serving import EILServer

    corpus, _, pools, plan = run.setup(inputs.cold_plan, COLD_PLAN)
    directory, build_s = snapshot.ensure(run.work_dir, run.root)
    run.record["snapshot_build_s"] = build_s
    sizes = snapshot.snapshot_bytes(directory)

    if run.trace:
        run.instrumentation = layers.Instrumentation().install()
        run.tracing(True)
    loads, system = [], None
    for _ in range(1 if run.trace else LOAD_REPEATS):
        system = None
        gc.collect()
        started = time.perf_counter()
        system = EILSystem.load(str(directory), corpus)
        loads.append(time.perf_counter() - started)
    run.tracing(False)
    run.put("setup_s", run.generate_s + statistics.median(loads),
            len(loads))
    run.record["load_samples_s"] = loads
    run.extra["cold_start_s"] = (statistics.median(loads), len(loads))
    run.extra["bytes_per_doc"] = (sizes["total"] / DOCUMENTS, 1)
    settle()

    kept: list = []
    with EILServer(system, max_concurrency=MAX_CONCURRENCY,
                   queue_depth=QUEUE_DEPTH) as server:
        if not run.trace:
            def head(_: float, sent: int) -> bool:
                return sent >= RSS_REQUESTS

            def enough(elapsed: float, sent: int) -> bool:
                # Whole plan blocks only, so every run has the same mix.
                elapsed += head_s
                sent += RSS_REQUESTS
                if sent % inputs.COLD_BLOCK:
                    return False
                if elapsed >= run.seconds * MAX_RUN_FACTOR:
                    return True
                return elapsed >= run.seconds and all(
                    run.ledger.count(op) >= need
                    for op, need in MIN_SAMPLES.items())

            index, head_s, served = closed_loop(run, system, server, plan,
                                                0, head, kept)
            run.put("peak_rss_mb", peak_rss_mb(), 1)
            _, tail_s, more = closed_loop(run, system, server, plan, index,
                                          enough, kept)
            served += more
            run.extra["query_qps"] = (len(served) / (head_s + tail_s),
                                      len(served))
            run.put_latencies()
        else:
            def fixed(_: float, sent: int) -> bool:
                return sent >= TRACE_REQUESTS

            # The same requests twice, untraced then traced; bumping the
            # index epoch empties the query and engine caches between.
            _, _, plain = closed_loop(run, system, server, plan, 0, fixed,
                                      kept)
            system.engine.bump_epoch()
            settle()
            before = run.counters()
            run.tracing(True)
            _, _, traced = closed_loop(run, system, server, plan, 0, fixed,
                                       kept)
            run.tracing(False)
            run.finish_trace(
                "search_cold", before, sizes, TRACE_REQUESTS,
                harness.repeat_share(plan[:TRACE_REQUESTS]),
                sum(traced) / sum(plain))
    run.check_sample(system, kept)
    started = time.perf_counter()
    errors = snapshot.cold_start_errors(directory, system, pools, run.user)
    slot = run.ledger.record("cold_start_check",
                             time.perf_counter() - started)
    for error in errors:
        run.ledger.mark_wrong(slot, error)
    run.record.update({
        "offered": "closed loop, 1 client",
        "read_share": 1.0, "write_share": 0.0,
        "repeat_share": harness.repeat_share(plan),
    })


# -- serve_churn --------------------------------------------------------------


def open_loop(run: Run, system, server, plan,
              writes) -> Dict[str, object]:
    """Reads at ``CHURN_RATE``, a write between windows of reads.

    Generator thread 1 submits the server's reads; generator thread 2
    runs synopsis views, which the server does not front; the writer
    runs mutations and consumes ``writes``.  Every operation is timed
    from when it was due.
    """
    ledger = run.ledger
    lock = threading.Lock()
    lateness: List[float] = []
    served: List[float] = []
    pending: List = []
    # Asks of a request already asked earlier in its window: their
    # latency is kept apart, as ``search_repeat``, since a cache hit is
    # not query latency.
    repeats = {i for start in range(0, len(plan), CHURN_WINDOW)
               for i in range(start, min(start + CHURN_WINDOW, len(plan)))
               if plan[i] in plan[start:i]}
    begin = time.perf_counter() + 0.05
    due = [begin + i / CHURN_RATE for i in range(len(plan))]

    def wait_until(moment: float) -> None:
        delay = moment - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with lock:
            lateness.append(time.perf_counter() - moment)

    def completed(op: str, at: float, request) -> Callable:
        def done(future) -> None:
            latency = time.perf_counter() - at
            exc = future.exception()
            if exc is not None:
                run.failure(op, latency, exc, request)
                return
            ledger.record(op, latency)
            with lock:
                served.append(latency)
        return done

    def server_reads() -> None:
        for i, request in enumerate(plan):
            if request[0] == "synopsis":
                continue
            op = "search_repeat" if i in repeats else request[0]
            wait_until(due[i])
            try:
                future = run.submit(server, request)
            except Exception as exc:  # shed at the door
                run.failure(op, time.perf_counter() - due[i], exc, request)
                continue
            pending.append(future)
            future.add_done_callback(completed(op, due[i], request))

    def synopsis_reads() -> None:
        for i, request in enumerate(plan):
            if request[0] != "synopsis":
                continue
            wait_until(due[i])
            try:
                checks.execute_read(system, request, run.user)
            except Exception as exc:
                run.failure("synopsis", time.perf_counter() - due[i], exc,
                            request)
                continue
            latency = time.perf_counter() - due[i]
            ledger.record("synopsis", latency)
            with lock:
                served.append(latency)

    def writer() -> None:
        done = 0
        for k, (kind, workbook) in enumerate(writes, start=1):
            if k * CHURN_WINDOW >= len(plan):
                break
            moment = begin + k * WRITE_INTERVAL_S - WRITE_LEAD_S
            delay = moment - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            done += 1
            op = "onboard" if kind == "add" else "offboard"
            try:
                if kind == "add":
                    system.add_workbook(workbook)
                else:
                    system.remove_deal(workbook.deal_id)
            except Exception as exc:
                run.failure(op, time.perf_counter() - moment, exc,
                            workbook.deal_id)
                continue
            slot = ledger.record(op, time.perf_counter() - moment)
            present = checks.deal_presence(system, workbook.deal_id,
                                           inputs.DOCS_PER_DEAL)
            if present is not (kind == "add"):
                ledger.mark_wrong(slot, f"{workbook.deal_id} after {kind}: "
                                        f"present={present}")
        del writes[:done]

    threads = [threading.Thread(target=fn, name=f"perfbench-{fn.__name__}")
               for fn in (server_reads, synopsis_reads, writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for future in list(pending):
        try:
            future.result(timeout=60)
        except Exception:  # recorded by its callback
            pass
    return {"served": served, "lateness": sorted(lateness)}


def serve_churn(run: Run) -> None:
    from repro import EILSystem
    from repro.serving import EILServer

    # Whole windows: at least ``--seconds`` of them and enough for the
    # form searches' misses, at most MAX_RUN_FACTOR times as many.
    misses = inputs.churn_window_misses(CHURN_WINDOW)
    windows = min(max(math.ceil(run.seconds / WRITE_INTERVAL_S),
                      math.ceil(MIN_SAMPLES["search"] / misses)),
                  math.ceil(MAX_RUN_FACTOR * run.seconds / WRITE_INTERVAL_S))
    reads = windows * CHURN_WINDOW
    corpus, held_out, _, plan = run.setup(
        lambda seed, pools, _: inputs.churn_plan(seed, pools, windows,
                                                 CHURN_WINDOW), reads)
    if run.trace:
        run.instrumentation = layers.Instrumentation().install()
        run.tracing(True)
    gc.collect()
    started = time.perf_counter()
    system = EILSystem.build(corpus)
    built = time.perf_counter() - started
    sizes: Dict[str, int] = {}
    if run.trace:
        # Persistence runs in the traced run only: search_cold times
        # the cold start, and saving here would add to every run.
        directory = run.work_dir / f"churn-snapshot-{os.getpid()}"
        try:
            system.save_index(str(directory))
            EILSystem.load(str(directory), corpus)
            sizes = snapshot.snapshot_bytes(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    run.tracing(False)
    slot = run.ledger.record("build", built)
    for error in checks.build_report_errors(system, DOCUMENTS):
        run.ledger.mark_wrong(slot, error)
    settle()
    run.put("setup_s", run.generate_s + built, 1)
    run.extra["build_docs_per_s"] = (DOCUMENTS / built, 1)
    run.record["build_s"] = built

    writes = [(kind, workbook)
              for workbook in inputs.churn_order(run.seed, held_out)
              for kind in ("add", "remove")]
    with EILServer(system, max_concurrency=MAX_CONCURRENCY,
                   queue_depth=QUEUE_DEPTH) as server:
        first = open_loop(run, system, server, plan, writes)
        if run.trace:
            system.engine.bump_epoch()
            settle()
            before = run.counters()
            run.tracing(True)
            # The same reads again from empty caches, with the next
            # held-out workbooks on the same schedule.
            second = open_loop(run, system, server, plan, writes)
            run.tracing(False)
            run.finish_trace(
                "serve_churn", before, sizes, reads,
                harness.repeat_share(plan),
                statistics.mean(second["served"])
                / statistics.mean(first["served"]))
    if not run.trace:
        run.put("peak_rss_mb", peak_rss_mb(), 1)
        run.extra["query_qps"] = (
            len(first["served"]) / (reads / CHURN_RATE), len(first["served"]))
        run.put_latencies()
    repeated = run.ledger.latencies("search_repeat")
    if repeated:
        run.extra["search_repeat_p50_ms"] = (
            harness.percentile(repeated, 50.0) * 1e3, len(repeated))
    onboard = run.ledger.latencies("onboard")
    if onboard:
        run.extra["onboard_p50_ms"] = (
            harness.percentile(onboard, 50.0) * 1e3, len(onboard))
    writes_done = len(onboard) + run.ledger.count("offboard")
    lateness = first["lateness"]
    run.record.update({
        "offered": f"open loop, {CHURN_RATE:g} reads/s for "
                   f"{reads / CHURN_RATE:g} s, a write every "
                   f"{WRITE_INTERVAL_S:g} s",
        "read_share": reads / (reads + writes_done),
        "write_share": writes_done / (reads + writes_done),
        "repeat_share": harness.repeat_share(plan),
        "generator_lateness_p50_ms": harness.nearest_rank(lateness, 50) * 1e3,
        "generator_lateness_max_ms": lateness[-1] * 1e3,
    })
    # Quiesced: re-run a sample of the hot requests and check them.
    kept = []
    for request in list(dict.fromkeys(plan))[:4 * CHECK_SAMPLE]:
        started = time.perf_counter()
        try:
            answer = checks.execute_read(system, request, run.user)
        except Exception as exc:
            run.failure("check", time.perf_counter() - started, exc, request)
            continue
        kept.append((run.ledger.record("check",
                                       time.perf_counter() - started),
                     request, answer))
    run.check_sample(system, kept)


WORKLOADS = {"search_cold": search_cold, "serve_churn": serve_churn}


def execute(workload: str, root: Path, seed: int, seconds: float,
            trace: bool) -> Run:
    """Run one workload in this process."""
    from repro import obs

    run = Run(root, seed, seconds, trace)
    obs.set_enabled(False)
    try:
        WORKLOADS[workload](run)
    finally:
        if run.instrumentation is not None:
            run.instrumentation.uninstall()
    attempted = run.ledger.attempted
    run.extra["failed_ratio"] = (
        run.ledger.failed / attempted if attempted else 0.0, attempted)
    run.record.update({
        "workload": workload, "why": WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace,
        "corpus": inputs.corpus_shape(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "outcomes": run.ledger.by_status(),
    })
    return run
