"""Shard routing and warm-reader workers for :mod:`repro.serve`.

The service's parallelism is a fixed pool of :class:`ShardWorker`
threads.  A :class:`ShardMap` routes every request to one worker by
hashing ``(bam path, contig)`` -- deterministically, so repeat and
overlapping traffic for the same file region always lands on the same
worker.  That worker keeps the expensive per-process state *warm*
across requests:

* a small LRU of :class:`~repro.pipeline.sources.BamSource` instances
  keyed by ``(bam fingerprint, reference fingerprint, pileup config,
  cache blocks)`` -- each holds its resolved
  :class:`~repro.io.index.RandomAccessIndex`, its thread-local
  :class:`~repro.io.bam.BamReader` and that reader's decompressed-
  block LRU, so a warm request pays neither index build nor reader
  open nor block re-inflation;
* a small LRU of loaded reference FASTAs keyed by fingerprint.

Because warm-source keys embed file *fingerprints* (path+size+mtime),
a BAM or FASTA rewritten in place gets a fresh source; the stale one
ages out of the LRU.  :class:`RegionView` adapts a warm source to one
request's regions and reports per-request I/O counter *deltas*, so
every response's stats describe that request alone even though the
readers live for the whole process.
"""

from __future__ import annotations

import hashlib
import io
import queue
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cachesim.lru import LruCache
from repro.core.results import CallResult
from repro.io.regions import Region, parse_region
from repro.serve.cache import CachedResult
from repro.serve.models import (
    ALL_REGIONS,
    CallRequest,
    FileFingerprint,
    ResultKey,
    ValidationError,
)

__all__ = ["RegionView", "ShardMap", "ShardWorker", "WorkItem"]


class ShardMap:
    """Deterministic ``(bam, contig) -> shard`` routing.

    The hash is content-addressed (SHA-1 over the path and contig
    text), not Python's randomised ``hash()``, so the same request
    routes to the same shard across processes and restarts -- warm
    state stays useful after a rolling restart of identical topology.

    Args:
        n_shards: worker count (positive).

    Raises:
        ValueError: if ``n_shards`` is not positive.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards

    def shard_for(self, key: ResultKey) -> int:
        """The shard index serving ``key``.

        Routing uses the BAM *path* (not the full fingerprint) plus
        the region's contig: rewriting a file keeps its traffic on the
        same worker, and every region of one contig shares that
        worker's reader and block cache.
        """
        blob = f"{key.bam.path}\x00{key.contig}".encode("utf-8")
        digest = hashlib.sha1(blob).digest()
        return int.from_bytes(digest[:8], "big") % self.n_shards


class WorkItem:
    """One queued computation: a request, its key, and a completion
    callback ``complete(key, result, exc)`` run on the worker thread.
    """

    __slots__ = ("request", "key", "complete")

    def __init__(
        self,
        request: CallRequest,
        key: ResultKey,
        complete: Callable[[ResultKey, Optional[CachedResult], Optional[BaseException]], None],
    ) -> None:
        self.request = request
        self.key = key
        self.complete = complete


class RegionView:
    """A warm :class:`~repro.pipeline.sources.BamSource`, scoped to one
    request.

    Delegates column/batch production to the shared warm source but:

    * reports the *request's* regions (so the Bonferroni scope and the
      pipeline's work units follow the request, not the whole file);
    * reports I/O counters as deltas against a baseline captured at
      construction (so per-request stats are not cumulative over the
      warm reader's lifetime).
    """

    def __init__(self, source, regions: Sequence[Region]) -> None:
        self._source = source
        self._regions = list(regions)
        self._baseline = source.io_stats()

    def regions(self) -> Sequence[Region]:
        """The request's regions."""
        return list(self._regions)

    def prepare(self) -> None:
        """Delegate index warm-up to the underlying source."""
        self._source.prepare()

    def columns_for(self, chunk, tracer=None, worker: int = 0):
        """Delegate the per-column stream to the warm source."""
        return self._source.columns_for(chunk, tracer, worker)

    def batches_for(self, chunk, tracer=None, worker: int = 0):
        """Delegate the batch stream to the warm source."""
        return self._source.batches_for(chunk, tracer, worker)

    def io_stats(self) -> Dict[str, float]:
        """This request's I/O counters: current minus baseline."""
        now = self._source.io_stats()
        return {k: now[k] - self._baseline.get(k, 0) for k in now}


class ShardWorker(threading.Thread):
    """One warm worker: a queue-draining thread owning shard-local
    warm sources.

    Args:
        shard_id: this worker's index in the shard map.
        warm_sources: BamSource instances kept warm (LRU beyond it).
        cache_blocks: per-reader decompressed-block LRU size handed to
            every warm source (``None`` uses the source default).
        decompress_threads: BGZF readahead pool size handed to every
            warm source's readers (``None`` uses the source default,
            i.e. serial; results are byte-identical either way).

    The thread drains :attr:`queue` until it sees the ``None``
    sentinel; every :class:`WorkItem` is answered through its
    ``complete`` callback (with either a
    :class:`~repro.serve.cache.CachedResult` or the exception), so a
    failing request never kills the worker.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        warm_sources: int = 4,
        cache_blocks: Optional[int] = None,
        decompress_threads: Optional[int] = None,
    ) -> None:
        super().__init__(name=f"serve-shard-{shard_id}", daemon=True)
        if warm_sources <= 0:
            raise ValueError(
                f"warm_sources must be positive, got {warm_sources}"
            )
        self.shard_id = shard_id
        self.queue: "queue.Queue[Optional[WorkItem]]" = queue.Queue()
        self.cache_blocks = cache_blocks
        self.decompress_threads = decompress_threads
        self._sources: LruCache[tuple, object] = LruCache(warm_sources)
        self._references: LruCache[FileFingerprint, dict] = LruCache(
            max(2, warm_sources)
        )
        #: requests this worker computed (successes and failures)
        self.executed = 0
        #: requests answered with an error
        self.errors = 0
        #: True when the most recent request reused a warm source
        self.last_warm_source = False

    # -- warm state ----------------------------------------------------------

    def _reference_for(self, fingerprint: FileFingerprint) -> dict:
        """The loaded ``{contig: FastaRecord}`` mapping, warm per
        reference-file fingerprint."""
        refs = self._references.get(fingerprint)
        if refs is None:
            from repro.io.fasta import load_reference

            refs = load_reference(fingerprint.path)
            self._references.put(fingerprint, refs)
        return refs

    def _source_for(self, request: CallRequest, bam: FileFingerprint):
        """The warm :class:`BamSource` for this request's (bam,
        reference, pileup config), creating and caching it on miss."""
        ref_fp = FileFingerprint.of(request.reference)
        key = (
            bam,
            ref_fp,
            request.pileup,
            self.cache_blocks,
            self.decompress_threads,
        )
        source = self._sources.get(key)
        self.last_warm_source = source is not None
        if source is None:
            from repro.pipeline.sources import BamSource

            kwargs = {}
            if self.cache_blocks is not None:
                kwargs["cache_blocks"] = self.cache_blocks
            if self.decompress_threads is not None:
                kwargs["decompress_threads"] = self.decompress_threads
            try:
                source = BamSource(
                    bam.path,
                    self._reference_for(ref_fp),
                    pileup_config=request.pileup,
                    **kwargs,
                )
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
            self._sources.put(key, source)
        return source

    def warm_stats(self) -> Dict[str, object]:
        """JSON-safe warm-state counters for the server's stats view."""
        return {
            "shard": self.shard_id,
            "executed": int(self.executed),
            "errors": int(self.errors),
            "warm_sources": len(self._sources),
            "warm_source_hits": int(self._sources.hits),
            "warm_source_misses": int(self._sources.misses),
        }

    # -- execution -----------------------------------------------------------

    def _resolve_regions(
        self, request: CallRequest, source
    ) -> Tuple[List[Region], List[Tuple[str, int]]]:
        """The request's regions and the VCF-header contig list.

        Mirrors the CLI's resolution: a named region yields that one
        span (and its contig labels the header); a whole-file request
        covers every header contig.

        Raises:
            ValidationError: if the region names a contig absent from
                the BAM header or the reference mapping.
        """
        lengths = dict(source.contigs)
        if request.region is None:
            return list(source.regions()), list(source.contigs)
        text = request.region.strip()
        chrom = text.split(":", 1)[0]
        if chrom not in lengths:
            raise ValidationError(
                f"region contig {chrom!r} not in the BAM header"
            )
        try:
            region = parse_region(text, reference_length=lengths[chrom])
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if region.end > lengths[chrom]:
            region = Region(chrom, region.start, lengths[chrom])
        return [region], [(chrom, lengths[chrom])]

    def _render(self, request: CallRequest, key: ResultKey) -> CachedResult:
        """Execute one request on this worker's warm state.

        Runs the pipeline serially (the service's parallelism is the
        shard pool itself) and renders the body through the standard
        streaming sinks into memory.
        """
        from repro.pipeline.engine import ExecutionPolicy, Pipeline
        from repro.pipeline.sinks import JsonlSink, VcfSink

        source = self._source_for(request, key.bam)
        regions, contigs = self._resolve_regions(request, source)
        view = RegionView(source, regions)
        buf = io.StringIO()
        if request.output_format == "jsonl":
            sink = JsonlSink(buf)
        else:
            sink = VcfSink(buf, contigs=contigs)
        result: CallResult = Pipeline(
            view,
            config=request.config,
            policy=ExecutionPolicy(mode="serial"),
            sinks=[sink],
        ).run()
        return CachedResult(
            body=buf.getvalue(),
            output_format=request.output_format,
            stats=result.stats.to_dict(),
            n_calls=len(result.calls),
            n_pass=len(result.passed),
        )

    def run(self) -> None:
        """Drain the queue until the shutdown sentinel arrives."""
        while True:
            item = self.queue.get()
            if item is None:
                break
            self.executed += 1
            try:
                result = self._render(item.request, item.key)
            except BaseException as exc:  # noqa: BLE001 - delivered to waiter
                self.errors += 1
                item.complete(item.key, None, exc)
            else:
                item.complete(item.key, result, None)
