"""Span tracing for the benchmark's traced runs.

:class:`Tracer` wraps the public functions of each layer of the
program from the outside (nothing inside ``src/`` records spans).  A
span is ``(layer, name, thread, start, end, parent)``:

* the parent is the innermost open span on the same thread; a
  thread's outermost span takes the main thread's innermost open span
  as its parent (the pipeline's worker threads are started from, and
  joined by, ``Pipeline.run`` on the main thread);
* a span's *self time* is its duration minus the part of it covered
  by its children, same-thread and cross-thread alike, so a parent
  that waits on its workers is not charged for their work;
* for the per-layer table, each instant of the traced wall is split
  evenly among the threads whose innermost span is running its own
  code at that instant, so the layer rows plus the unattributed time
  add up to the wall exactly.

Nothing here imports the program until :meth:`Tracer.install`.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from calc import ratio, reinflate_ratio, union_length

#: Layer key -> the program module it stands for.
LAYERS = {
    "bgzf": "io.bgzf",
    "bam": "io.bam",
    "index": "io.index",
    "pileup": "pileup",
    "screen": "core screen",
    "exact": "stats.poisson_binomial",
    "annotate": "core annotate",
    "sink": "pipeline.sinks",
    "sched": "parallel.scheduler",
    "pipeline": "pipeline.engine",
    "serve": "serve",
}

#: Layers whose spans count as a worker doing work (not waiting,
#: scheduling or writing output).
WORK_LAYERS = ("bgzf", "bam", "index", "pileup", "screen", "exact", "annotate")

#: A flattened span: (layer, name, tid, start, end, parent index or -1).
Record = Tuple[str, str, int, float, float, int]


class _Span:
    __slots__ = ("layer", "name", "tid", "start", "end", "parent")

    def __init__(self, layer, name, tid, start, parent):
        self.layer = layer
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent


# -- span arithmetic ----------------------------------------------------------


def _children(records: Sequence[Record]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, rec in enumerate(records):
        if rec[5] >= 0:
            kids[rec[5]].append(i)
    return kids


def self_segments(records: Sequence[Record]) -> List[List[Tuple[float, float]]]:
    """Per span, the sub-intervals not covered by any of its children
    (children clipped to the parent's interval)."""
    kids = _children(records)
    out: List[List[Tuple[float, float]]] = []
    for i, (_, _, _, start, end, _) in enumerate(records):
        children = kids.get(i)
        if not children:
            out.append([(start, end)])
            continue
        covered = sorted(
            (max(records[c][3], start), min(records[c][4], end)) for c in children
        )
        segs = []
        cursor = start
        for c_start, c_end in covered:
            if c_end <= c_start:
                continue
            if c_start > cursor:
                segs.append((cursor, c_start))
            cursor = max(cursor, c_end)
        if end > cursor:
            segs.append((cursor, end))
        out.append(segs)
    return out


def self_times(records: Sequence[Record], segments=None) -> List[float]:
    """Each span's duration minus the part its children cover."""
    if segments is None:
        segments = self_segments(records)
    return [sum(e - s for s, e in segs) for segs in segments]


def attribute_wall(
    records: Sequence[Record], window: Tuple[float, float], segments=None
) -> Tuple[Dict[str, float], float]:
    """Split the wall ``window`` among layers.

    At every instant, the threads running a span's own code (a self
    segment) share that instant evenly; instants where no thread is in
    a span are unattributed.  Returns ``(seconds per layer,
    unattributed seconds)``, which sum to the window's length.
    """
    w0, w1 = window
    if segments is None:
        segments = self_segments(records)
    events = []
    for rec, segs in zip(records, segments):
        layer = rec[0]
        for s, e in segs:
            s, e = max(s, w0), min(e, w1)
            if e > s:
                events.append((s, 1, layer))
                events.append((e, -1, layer))
    events.sort()
    share: Dict[str, float] = defaultdict(float)
    active: Dict[str, int] = {}
    k = 0
    last = w0
    covered = 0.0
    for t, delta, layer in events:
        if k and t > last:
            dt = t - last
            covered += dt
            for name, count in active.items():
                share[name] += dt * count / k
        last = t
        k += delta
        count = active.get(layer, 0) + delta
        if count:
            active[layer] = count
        else:
            del active[layer]
    return dict(share), (w1 - w0) - covered


def worker_balance(records: Sequence[Record]) -> Tuple[float, float]:
    """Pipeline worker idleness and imbalance.

    For each ``Pipeline.run`` span, its workers are the threads that
    pull from the scheduler inside it: its own thread, or threads whose
    outermost spans hang off it.  A worker's busy time is the union of
    its work-layer spans inside the run; its idle time is the rest of
    the run.  Returns ``(idle seconds summed over runs and workers,
    largest max/mean busy ratio over runs)``.
    """
    kids = _children(records)
    by_tid: Dict[int, List[Record]] = defaultdict(list)
    for rec in records:
        by_tid[rec[2]].append(rec)
    starts = {tid: [rec[3] for rec in recs] for tid, recs in by_tid.items()}
    idle = 0.0
    imbalance = 0.0
    for r, run in enumerate(records):
        if run[0] != "pipeline":
            continue
        _, _, r_tid, r_start, r_end, _ = run
        threads = {r_tid} | {records[c][2] for c in kids.get(r, ())}
        busy = []
        for tid in sorted(threads):
            recs = by_tid[tid]
            lo = bisect.bisect_left(starts[tid], r_start)
            hi = bisect.bisect_right(starts[tid], r_end)
            inside = [rec for rec in recs[lo:hi] if rec[4] <= r_end]
            if not any(rec[0] == "sched" for rec in inside):
                continue
            busy.append(
                union_length((rec[3], rec[4]) for rec in inside if rec[0] in WORK_LAYERS)
            )
        if not busy:
            continue
        idle += sum(r_end - r_start - b for b in busy)
        mean = sum(busy) / len(busy)
        if mean > 0:
            imbalance = max(imbalance, max(busy) / mean)
    return idle, imbalance


def chrome_trace(
    records: Sequence[Record], thread_names: Dict[int, str], origin: float
) -> dict:
    """Chrome trace-event JSON (one track per thread; opens in Perfetto)."""
    pid = os.getpid()
    events = [
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": name}}
        for tid, name in thread_names.items()
    ]
    for layer, name, tid, start, end, _ in records:
        events.append(
            {
                "ph": "X",
                "cat": layer,
                "name": name,
                "pid": pid,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- the tracer ----------------------------------------------------------------


class Tracer:
    """Records spans and counters around the program's layer functions."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        #: per-thread counters (merged by :meth:`counts`), so
        #: concurrent workers never lose an increment
        self._counters: List[Dict[str, float]] = []
        self._local = threading.local()
        self.thread_names: Dict[int, str] = {}
        self.run_stats: List[object] = []
        self.renders: List[Tuple[float, float]] = []  # (queue wait, duration)
        self._stacks: Dict[int, List[_Span]] = {}
        self._main = threading.main_thread().ident
        self._patches: List[Tuple[object, str, object]] = []
        self._reader_keys: Dict[int, object] = {}
        self._readers: List[object] = []
        self._blocks = set()
        self._enqueued: Dict[object, List[float]] = defaultdict(list)

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, layer: str, name: str):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
            self.thread_names[tid] = threading.current_thread().name
        if stack:
            parent = stack[-1]
        elif tid != self._main:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        else:
            parent = None
        span = _Span(layer, name, tid, time.perf_counter(), parent)
        stack.append(span)
        self.spans.append(span)
        return span, stack

    def counter(self) -> Dict[str, float]:
        """This thread's counters."""
        mine = getattr(self._local, "counts", None)
        if mine is None:
            mine = self._local.counts = defaultdict(float)
            self._counters.append(mine)
        return mine

    def counts(self) -> Dict[str, float]:
        """Every thread's counters, summed."""
        total: Dict[str, float] = defaultdict(float)
        for counts in self._counters:
            for key, value in counts.items():
                total[key] += value
        return total

    @staticmethod
    def _close(span: _Span, stack: List[_Span]) -> None:
        span.end = time.perf_counter()
        stack.pop()

    def timed(self, layer: str, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            span, stack = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, layer: str, name: str, iterator, on_item=None):
        """Re-yield ``iterator``, one span per pull."""
        while True:
            span, stack = self._open(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span, stack)
            if on_item is not None:
                on_item(item)
            yield item

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, layer: str, after=None) -> None:
        label = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        self._patch(owner, attr, self.timed(layer, label, getattr(owner, attr), after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- what gets wrapped --------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.core import batched, caller, workflow
        from repro.io import bam, bgzf, index
        from repro.pileup import vectorized
        from repro.pipeline import engine, sinks, sources
        from repro.serve import shards

        tracer = self

        # io.bgzf: reads, seeks and reader construction (block 0).
        reader_cls = bgzf.BgzfReader
        orig_read = reader_cls.read

        def read(reader, n=-1):
            span, stack = tracer._open("bgzf", "BgzfReader.read")
            try:
                tracer._blocks.add((tracer._reader_keys.get(id(reader)), reader.tell() >> 16))
                data = orig_read(reader, n)
            finally:
                tracer._close(span, stack)
            tracer.counter()["bgzf.bytes"] += len(data)
            return data

        def registered(_, args):
            reader, source = args[0], args[1]
            key = id(source) if hasattr(source, "read") else os.fspath(source)
            tracer._reader_keys[id(reader)] = key
            tracer._readers.append(reader)
            tracer._blocks.add((key, reader.tell() >> 16))

        def sought(_, args):
            reader = args[0]
            tracer._blocks.add((tracer._reader_keys.get(id(reader)), reader.tell() >> 16))

        self._patch(reader_cls, "read", read)
        self._wrap(reader_cls, "readexact", "bgzf")
        self._wrap(reader_cls, "seek", "bgzf", sought)
        self._wrap(reader_cls, "__init__", "bgzf", registered)

        # io.bam: record framing and decode.
        def record(result, _):
            if result is not None:
                tracer.counter()["bam.records"] += 1

        self._wrap(bam.BamReader, "read_record", "bam", record)
        self._wrap(bam, "decode_record", "bam")

        # io.index: index builds and seek plans.
        self._wrap(index, "build_linear_index", "index")

        def seek_plan(_, __):
            tracer.counter()["index.seeks"] += 1

        self._wrap(index.MultiContigIndex, "chunks_for", "index", seek_plan)

        # pileup: streaming column pulls and the columnar batch builder.
        orig_pileup = sources.pileup

        def count_reads(records):
            for rec in records:
                tracer.counter()["pileup.reads"] += 1
                yield rec

        def column(col):
            tracer.counter()["pileup.columns"] += 1
            tracer.counter()["pileup.bases"] += col.depth

        def traced_pileup(records, *args, **kwargs):
            inner = orig_pileup(count_reads(records), *args, **kwargs)
            return tracer.timed_iter("pileup", "pileup", inner, column)

        self._patch(sources, "pileup", traced_pileup)

        def batches(result, args):
            if len(args) > 1:  # add_read(read)
                tracer.counter()["pileup.reads"] += 1
            for batch in result:
                tracer.counter()["pileup.columns"] += batch.n_columns
                tracer.counter()["pileup.bases"] += int(batch.depths.sum())

        builder = vectorized.ColumnBatchBuilder
        self._wrap(builder, "add_read", "pileup", batches)
        self._wrap(builder, "finish", "pileup", batches)

        # core screen: the per-allele approximation and the batch screen.
        def lane(_, __):
            tracer.counter()["screen.lanes"] += 1

        self._wrap(workflow, "poisson_tail_approx", "screen", lane)
        orig_screen = batched.screen_batch

        def screen_batch(batch, corrected_alpha, config, stats):
            before = stats.tests_run
            try:
                return orig_screen(batch, corrected_alpha, config, stats)
            finally:
                tracer.counter()["screen.lanes"] += stats.tests_run - before

        self._patch(batched, "screen_batch", self.timed("screen", "screen_batch", screen_batch))

        # stats.poisson_binomial: the exact DP, scalar and batched.
        def dp(result, _):
            tracer.counter()["exact.lanes"] += 1
            tracer.counter()["exact.dp_steps"] += result.steps

        def dp_batch(result, _):
            tracer.counter()["exact.lanes"] += int(result.steps.size)
            tracer.counter()["exact.dp_steps"] += int(result.steps.sum())

        self._wrap(workflow, "poibin_sf_dp", "exact", dp)
        self._wrap(batched, "poibin_sf_dp_batch", "exact", dp_batch)

        # core annotate: the rest of call_columns.
        self._wrap(caller.VariantCaller, "call_columns", "annotate")

        # pipeline.sinks
        def written(_, __):
            tracer.counter()["sink.calls"] += 1

        for sink in (sinks.VcfSink, sinks.JsonlSink):
            self._wrap(sink, "start", "sink")
            self._wrap(sink, "write", "sink", written)
            self._wrap(sink, "finish", "sink")

        # parallel.scheduler via the engine's make_scheduler.
        orig_make = engine.make_scheduler

        def dispensed(item, _):
            if item is not None:
                tracer.counter()["pipeline.chunks"] += 1 if hasattr(item, "chrom") else len(item)

        def make_scheduler(*args, **kwargs):
            scheduler = orig_make(*args, **kwargs)
            name = f"{type(scheduler).__name__}.next"
            scheduler.next = tracer.timed("sched", name, scheduler.next, dispensed)
            return scheduler

        self._patch(engine, "make_scheduler", make_scheduler)

        # pipeline.engine: whole runs (their RunStats feed skip ratios).
        def ran(result, _):
            tracer.run_stats.append(result.stats)

        self._wrap(engine.Pipeline, "run", "pipeline", ran)

        # serve: queue wait from enqueue to render, and render time.
        orig_item_init = shards.WorkItem.__init__

        def item_init(item, request, key, complete):
            orig_item_init(item, request, key, complete)
            tracer._enqueued[key].append(time.perf_counter())

        self._patch(shards.WorkItem, "__init__", item_init)
        orig_render = shards.ShardWorker._render

        def render(worker, request, key):
            stamps = tracer._enqueued.get(key)
            t0 = time.perf_counter()
            wait = t0 - stamps.pop(0) if stamps else 0.0
            span, stack = tracer._open("serve", "ShardWorker._render")
            try:
                return orig_render(worker, request, key)
            finally:
                tracer._close(span, stack)
                tracer.renders.append((wait, span.end - span.start))

        self._patch(shards.ShardWorker, "_render", render)

    # -- results -------------------------------------------------------------

    def records(self) -> List[Record]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            (s.layer, s.name, s.tid, s.start, s.end,
             index[id(s.parent)] if s.parent is not None else -1)
            for s in self.spans
        ]

    def summary(self, window: Tuple[float, float], trace_path: str) -> dict:
        """Per-layer metrics, the self-time table and the span file."""
        records = self.records()
        segments = self_segments(records)
        share, unattributed = attribute_wall(records, window, segments)
        per_thread: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for rec, own in zip(records, self_times(records, segments)):
            per_thread[rec[0]] += own
            calls[rec[0]] += 1
        idle, imbalance = worker_balance(records)
        blocks = sum(r.blocks_read for r in self._readers)
        hits = sum(r.cache_hits for r in self._readers)
        misses = sum(r.cache_misses for r in self._readers)
        tests = sum(s.tests_run for s in self.run_stats)
        skipped = sum(s.exact_skipped for s in self.run_stats)
        c = self.counts()
        waits = [w for w, _ in self.renders]
        durations = [d for _, d in self.renders]
        metrics = {
            "bgzf.inflate_s": share.get("bgzf", 0.0),
            "bgzf.blocks": blocks,
            "bgzf.mb_out": c["bgzf.bytes"] / 1e6,
            "bgzf.cache_hit_ratio": ratio(hits, hits + misses),
            "bgzf.reinflate_ratio": reinflate_ratio(blocks, len(self._blocks)),
            "bam.decode_s": share.get("bam", 0.0),
            "bam.records": c["bam.records"],
            "bam.records_per_s": ratio(c["bam.records"], share.get("bam", 0.0)),
            "index.build_s": share.get("index", 0.0),
            "index.seeks": c["index.seeks"],
            "pileup.build_s": share.get("pileup", 0.0),
            "pileup.reads": c["pileup.reads"],
            "pileup.columns": c["pileup.columns"],
            "pileup.bases": c["pileup.bases"],
            "screen.s": share.get("screen", 0.0),
            "screen.lanes": c["screen.lanes"],
            "screen.skip_ratio": ratio(skipped, tests),
            "exact.s": share.get("exact", 0.0),
            "exact.lanes": c["exact.lanes"],
            "exact.dp_steps": c["exact.dp_steps"],
            "annotate.s": share.get("annotate", 0.0),
            "sink.s": share.get("sink", 0.0),
            "sink.calls": c["sink.calls"],
            "sched.wait_s": share.get("sched", 0.0),
            "pipeline.chunks": c["pipeline.chunks"],
            "pipeline.worker_idle_s": idle,
            "pipeline.imbalance": imbalance,
            "serve.render_s": ratio(sum(durations), len(durations)),
            "serve.queue_wait_ms": 1000 * ratio(sum(waits), len(waits)),
            "trace.unattributed_s": unattributed,
        }
        table = [
            {
                "layer": layer,
                "module": module,
                "wall_s": share.get(layer, 0.0),
                "self_s": per_thread.get(layer, 0.0),
                "spans": calls.get(layer, 0),
            }
            for layer, module in LAYERS.items()
        ]
        with open(trace_path, "w") as fh:
            fh.write(
                json.dumps(
                    chrome_trace(records, self.thread_names, window[0]),
                    separators=(",", ":"),
                )
            )
        return {
            "metrics": metrics,
            "table": table,
            "wall_s": window[1] - window[0],
            "spans": len(records),
        }
