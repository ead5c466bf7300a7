"""The pipeline execution layer: one ``run()`` for every mode.

:class:`Pipeline` composes a :class:`~repro.pipeline.sources.ColumnSource`
with an :class:`ExecutionPolicy` and a set of
:class:`~repro.pipeline.sinks.CallSink` objects:

* work units are the source's regions, re-chunked for scheduling when
  ``chunk_columns`` is set;
* workers evaluate chunks through
  :meth:`~repro.core.caller.VariantCaller.call_columns` (streaming or
  batched engine, per ``config.engine``) with ``apply_filters=False``;
  under the batched engine, sources that speak columnar hand the
  worker structure-of-arrays
  :class:`~repro.pileup.column.ColumnBatch` units via ``batches_for``
  instead of per-column objects;
* the dynamic post-filter runs exactly **once** on the merged calls --
  the paper's fix for the legacy wrapper's double-filtering bug --
  except in the deliberate ``"legacy"`` demonstration mode, which
  reproduces the bug faithfully (fit+apply per partition, then again
  on the merge);
* the Bonferroni scope is the *total* length of all regions, so a
  multi-contig run corrects genome-wide exactly like a single-contig
  run corrects over its one contig;
* final calls stream through the sinks one at a time.

The thread / process / serial workers and the trace bookkeeping here
were lifted from ``repro.parallel.openmp``;
:func:`repro.parallel.openmp.parallel_call` is now a thin adapter over
this module.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.caller import VariantCaller
from repro.core.config import CallerConfig
from repro.core.filters import DynamicFilterPolicy, apply_filters, filter_once
from repro.core.results import CallResult, RunStats, VariantCall
from repro.io.regions import Region
from repro.parallel.partition import chunk_region, partition_region
from repro.parallel.scheduler import make_scheduler
from repro.parallel.trace import Category, Tracer
from repro.pipeline.sinks import CallSink
from repro.pipeline.sources import ColumnSource

__all__ = ["ExecutionPolicy", "Pipeline"]

_MODES = ("serial", "thread", "process", "legacy")

#: Trace categories a source records for its pulls.
_PULL_CATEGORIES = (Category.DECOMPRESS, Category.BAM_ITER)


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """How the pipeline executes its work units.

    Attributes:
        mode: ``"serial"`` (one worker, deterministic), ``"thread"``
            (shared memory, the OpenMP analogue), ``"process"``
            (fork-based, real CPU scaling) or ``"legacy"`` (the old
            wrapper-script pipeline, double-filtering bug included --
            demonstration only).
        n_workers: worker count (threads / processes; partition count
            in legacy mode).
        chunk_columns: columns per scheduling chunk; ``None`` processes
            each region as a single unit (the serial shims' mode).
        schedule: ``"static"`` / ``"dynamic"`` / ``"guided"``.
    """

    mode: str = "serial"
    n_workers: int = 1
    chunk_columns: Optional[int] = None
    schedule: str = "dynamic"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown execution mode {self.mode!r}")
        if self.n_workers <= 0:
            raise ValueError(
                f"n_workers must be positive, got {self.n_workers}"
            )
        if self.chunk_columns is not None and self.chunk_columns <= 0:
            raise ValueError("chunk_columns must be positive when set")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def _flatten(item) -> List[Region]:
    """Schedulers may hand back one Region or a span of them."""
    if isinstance(item, Region):
        return [item]
    return list(item)


def _chunk_units(
    source: ColumnSource,
    caller: VariantCaller,
    chunk: Region,
    tracer: Tracer,
    worker: int,
) -> Tuple[object, bool]:
    """The work units of one chunk: structure-of-arrays batches for
    the batched engine (when the source speaks columnar), per-column
    objects otherwise.  Either form feeds
    :meth:`VariantCaller.call_columns` unchanged.

    Returns ``(units, is_batch_stream)``: batch streams may be lazy
    generators whose batches are built only as the worker pulls them,
    so the worker evaluates them one at a time (keeping in-flight
    memory one batch, and the trace's source/probability attribution
    disjoint).
    """
    if caller.config.engine == "batched":
        batches_for = getattr(source, "batches_for", None)
        if batches_for is not None:
            return batches_for(chunk, tracer, worker), True
    return source.columns_for(chunk, tracer, worker), False


def _evaluate_chunk(
    worker: int,
    source: ColumnSource,
    caller: VariantCaller,
    chunk: Region,
    scope: int,
    tracer: Tracer,
    merged: CallResult,
) -> None:
    """Evaluate one chunk's work units into ``merged``.

    Batch streams are pulled *outside* the probability span -- the
    source records its own BAM_ITER/DECOMPRESS time per pull -- and
    each batch is evaluated as its own unit, so a lazily-built chunk
    never has all its batches in memory at once.

    The chunk's ``time_total`` is its whole wall time, source pulls
    included, and its ``time_pileup`` the part the source recorded as
    pulls (inflation, decode and pileup build) on ``tracer``.
    """
    t0 = time.perf_counter()
    pulled = tracer.busy(worker, *_PULL_CATEGORIES)
    units, is_batch_stream = _chunk_units(
        source, caller, chunk, tracer, worker
    )
    done = CallResult(calls=[], stats=RunStats())
    if not is_batch_stream:
        with tracer.span(worker, Category.PROB):
            result = caller.call_columns(units, scope, apply_filters=False)
        done.merge(result)
    else:
        for batch in units:
            with tracer.span(worker, Category.PROB):
                result = caller.call_columns(
                    batch, scope, apply_filters=False
                )
            done.merge(result)
    done.stats.time_pileup = tracer.busy(worker, *_PULL_CATEGORIES) - pulled
    done.stats.time_total = time.perf_counter() - t0
    merged.merge(done)


def _worker_loop(
    worker: int,
    scheduler,
    source: ColumnSource,
    caller: VariantCaller,
    scope: int,
    tracer: Tracer,
) -> CallResult:
    """One worker: pull chunks until the scheduler runs dry."""
    merged = CallResult(calls=[], stats=RunStats())
    while True:
        with tracer.span(worker, Category.SCHED):
            item = scheduler.next(worker)
        if item is None:
            break
        for chunk in _flatten(item):
            _evaluate_chunk(
                worker, source, caller, chunk, scope, tracer, merged
            )
    return merged


def _record_barrier(tracer: Tracer, n_workers: int) -> None:
    """Synthesise end-barrier events: each worker waits from its last
    activity until the slowest worker finishes (the dark-green tail in
    Figure 2)."""
    events = tracer.events
    if not events:
        return
    t_end = max(e.end for e in events)
    for w in range(n_workers):
        w_events = [e for e in events if e.worker == w]
        if not w_events:
            continue
        last = max(e.end for e in w_events)
        if t_end - last > 1e-9:
            tracer.record(w, Category.BARRIER, last, t_end)


class Pipeline:
    """Source -> engine -> sinks, behind a single :meth:`run`.

    Example -- call every contig of a BAM with four threads, writing
    a VCF and a machine-readable stats report as the calls stream::

        from repro.pipeline import (BamSource, ExecutionPolicy,
                                    Pipeline, StatsSink, VcfSink)
        from repro.io.fasta import load_reference

        source = BamSource("sample.bam", load_reference("ref.fa"))
        result = Pipeline(
            source,
            policy=ExecutionPolicy(mode="thread", n_workers=4,
                                   chunk_columns=256),
            sinks=[VcfSink("calls.vcf", contigs=source.contigs),
                   StatsSink("stats.json")],
        ).run()

    Args:
        source: where columns come from (see
            :mod:`repro.pipeline.sources`).
        config: caller configuration (default: improved preset); its
            ``engine`` field picks streaming vs batched evaluation.
        filter_policy: dynamic post-filter, applied exactly once on the
            merged calls (``None`` skips post-filtering; legacy mode
            substitutes the default policy, since the bug it
            demonstrates *is* the filter).
        policy: execution policy (default: serial, unchunked).
        sinks: call sinks to stream the final calls into.
        tracer: optional tracer collecting Figure 2 events.
    """

    def __init__(
        self,
        source: ColumnSource,
        *,
        config: Optional[CallerConfig] = None,
        filter_policy: Optional[DynamicFilterPolicy] = DynamicFilterPolicy(),
        policy: Optional[ExecutionPolicy] = None,
        sinks: Sequence[CallSink] = (),
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.source = source
        self.config = config or CallerConfig.improved()
        self.filter_policy = filter_policy
        self.policy = policy or ExecutionPolicy()
        self.sinks: List[CallSink] = list(sinks)
        self.tracer = tracer

    def run(self) -> CallResult:
        """Execute the pipeline end to end and return the result.

        The returned :class:`CallResult` holds the filtered calls and
        the merged run statistics; the same calls have already been
        streamed through every sink.
        """
        regions = list(self.source.regions())
        if not regions:
            raise ValueError("source declares no regions to call")
        scope = sum(len(r) for r in regions)
        tracer = self.tracer or Tracer()
        if self.policy.mode == "legacy":
            result = self._run_legacy(regions, tracer)
        else:
            merged = self._execute(regions, scope, tracer)
            if self.filter_policy is not None:
                merged = CallResult(
                    calls=filter_once(merged.calls, self.filter_policy),
                    stats=merged.stats,
                )
            result = merged
        # Fold the source's I/O counters (BGZF block-cache hit/miss/
        # eviction tallies from every reader it created) into the run
        # stats before the sinks snapshot them.  Process-backend
        # children already folded their own readers' deltas into the
        # stats they returned (see _process_worker), so this fold adds
        # exactly the parent-side readers and nothing double-counts.
        io_stats = getattr(self.source, "io_stats", None)
        if io_stats is not None:
            counters = io_stats()
            result.stats.cache_hits += int(counters.get("cache_hits", 0))
            result.stats.cache_misses += int(counters.get("cache_misses", 0))
            result.stats.cache_evictions += int(
                counters.get("cache_evictions", 0)
            )
            result.stats.prefetch_hits += int(
                counters.get("prefetch_hits", 0)
            )
            result.stats.prefetch_wasted += int(
                counters.get("prefetch_wasted", 0)
            )
        # Sinks only open once calling has succeeded (filter labels are
        # fitted on the complete call set anyway, so nothing could
        # stream earlier) -- a failed run never leaves a header-only
        # output file behind.
        try:
            for sink in self.sinks:
                sink.start()
            for call in result.calls:
                for sink in self.sinks:
                    sink.write(call)
            for sink in self.sinks:
                sink.finish(result)
        except BaseException:
            for sink in self.sinks:
                abort = getattr(sink, "abort", None)
                if abort is not None:
                    abort()
            raise
        return result

    # -- execution backends --------------------------------------------------

    def _chunks(self, regions: Sequence[Region]) -> List[Region]:
        if self.policy.chunk_columns is None:
            return list(regions)
        return [
            chunk
            for region in regions
            for chunk in chunk_region(region, self.policy.chunk_columns)
        ]

    def _execute(
        self, regions: Sequence[Region], scope: int, tracer: Tracer
    ) -> CallResult:
        caller = VariantCaller(self.config, filter_policy=None)
        chunks = self._chunks(regions)
        mode = self.policy.mode
        if mode == "serial":
            scheduler = make_scheduler(self.policy.schedule, chunks, 1)
            merged = _worker_loop(0, scheduler, self.source, caller, scope, tracer)
            n_workers = 1
        elif mode == "thread":
            n_workers = self.policy.n_workers
            scheduler = make_scheduler(self.policy.schedule, chunks, n_workers)
            results: List[Optional[CallResult]] = [None] * n_workers
            errors: List[Optional[BaseException]] = [None] * n_workers

            def run_worker(w: int) -> None:
                """One thread's worker loop, errors captured for re-raise."""
                try:
                    results[w] = _worker_loop(
                        w, scheduler, self.source, caller, scope, tracer
                    )
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors[w] = exc

            threads = [
                threading.Thread(target=run_worker, args=(w,), name=f"omp-{w}")
                for w in range(n_workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for exc in errors:
                # A dead worker must fail the run, not shrink its output.
                if exc is not None:
                    raise exc
            merged = CallResult(calls=[], stats=RunStats())
            for r in results:
                if r is not None:
                    merged.merge(r)
        else:  # process
            n_workers = self.policy.n_workers
            merged = self._process_backend(chunks, caller, scope, tracer)
        _record_barrier(tracer, n_workers)
        return merged

    def _process_backend(
        self,
        chunks: Sequence[Region],
        caller: VariantCaller,
        scope: int,
        tracer: Tracer,
    ) -> CallResult:
        """Fork-based backend: chunks pre-partitioned round-robin
        (static) across processes; shared state inherited
        copy-on-write."""
        import multiprocessing as mp

        prepare = getattr(self.source, "prepare", None)
        if prepare is not None:
            prepare()  # e.g. build the BAM index before forking
        ctx = mp.get_context("fork")
        n = self.policy.n_workers
        assignments = [
            (w, [chunks[i] for i in range(w, len(chunks), n)])
            for w in range(n)
        ]
        _FORK_STATE["source"] = self.source
        _FORK_STATE["caller"] = caller
        _FORK_STATE["scope"] = scope
        try:
            with ctx.Pool(n) as pool:
                outputs = pool.map(_process_worker, assignments)
        finally:
            _FORK_STATE.clear()
        merged = CallResult(calls=[], stats=RunStats())
        for calls, stats, events in outputs:
            merged.merge(CallResult(calls=calls, stats=stats))
            for e in events:
                tracer.record(e.worker, e.category, e.start, e.end)
        return merged

    def _run_legacy(
        self, regions: Sequence[Region], tracer: Tracer
    ) -> CallResult:
        """The wrapper-script pipeline, double filtering included.

        Each partition is Bonferroni-corrected over *its own* length
        and filtered with thresholds fitted to its own calls; the
        merged survivors are then filtered again.  Output depends on
        the partitioning -- the bug, reproduced on purpose.
        """
        policy = self.filter_policy or DynamicFilterPolicy()
        merged_stats = RunStats()
        survivors: List[VariantCall] = []
        for region in regions:
            for part in partition_region(region, self.policy.n_workers):
                caller = VariantCaller(self.config, filter_policy=None)
                columns = self.source.columns_for(part, tracer, 0)
                result = caller.call_columns(
                    columns, len(part), apply_filters=False
                )
                merged_stats.merge(result.stats)
                filtered = apply_filters(result.calls, policy.fit(result.calls))
                survivors.extend(c for c in filtered if c.filter == "PASS")
        survivors.sort(key=lambda c: (c.chrom, c.pos, c.alt))
        final = apply_filters(survivors, policy.fit(survivors))
        return CallResult(calls=final, stats=merged_stats)


# -- process backend fork state ------------------------------------------------

_FORK_STATE: dict = {}


def _process_worker(args: Tuple[int, List[Region]]):
    """One forked worker's chunk loop.

    Readers this child creates live in its own address space, so their
    block-cache counters would be invisible to the parent; the child
    folds its ``io_stats()`` *delta* (new counts minus whatever was
    inherited from pre-fork readers via copy-on-write) into the
    returned stats, and the parent's own post-run ``io_stats()`` fold
    covers only parent-side readers -- totals add up exactly once.
    """
    worker, chunk_list = args
    source = _FORK_STATE["source"]
    caller = _FORK_STATE["caller"]
    scope = _FORK_STATE["scope"]
    tracer = Tracer()
    merged = CallResult(calls=[], stats=RunStats())
    io_stats = getattr(source, "io_stats", None)
    baseline = io_stats() if io_stats is not None else None
    for chunk in chunk_list:
        _evaluate_chunk(worker, source, caller, chunk, scope, tracer, merged)
    if baseline is not None:
        counters = io_stats()
        for attr, key in (
            ("cache_hits", "cache_hits"),
            ("cache_misses", "cache_misses"),
            ("cache_evictions", "cache_evictions"),
            ("prefetch_hits", "prefetch_hits"),
            ("prefetch_wasted", "prefetch_wasted"),
        ):
            delta = int(counters.get(key, 0)) - int(baseline.get(key, 0))
            setattr(merged.stats, attr, getattr(merged.stats, attr) + delta)
    return merged.calls, merged.stats, tracer.events
