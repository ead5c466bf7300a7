"""Bulk pileup construction into columnar :class:`ColumnBatch` values.

The streaming engine (:mod:`repro.pileup.engine`) deposits one base at
a time, which is faithful to htslib's pileup loop but slow in Python at
the paper's depths.  Here the entire pileup of a region is instead
built with a handful of array operations: flatten all (position, base,
qual, strand) observations, mask, stable-sort by position, and record
column boundaries as offsets -- a structure-of-arrays
:class:`~repro.pileup.column.ColumnBatch` whose per-column
:class:`~repro.pileup.column.PileupColumn` views slice the flat arrays
without copying.

Three producers share that core:

* :func:`pileup_batch_from_arrays` / :func:`pileup_sample_batch` --
  the ungapped read-matrix representation of
  :class:`repro.sim.reads.ReadSimulator` samples;
* :func:`pileup_batch_from_reads` / :class:`ColumnBatchBuilder` --
  CIGAR-aware alignments (BAM/SAM records), whose aligned blocks are
  appended to flat byte buffers and deposited column-major a window at
  a time instead of one interpreter round-trip per base.

The test suite checks all paths produce columns identical to the
streaming engine; benchmarks use these so that -- as in the C original
-- the probability computation, not Python pileup overhead, dominates
the measured runtimes.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.io.cigar import ALIGNED_OPS, aligned_blocks
from repro.io.records import AlignedRead
from repro.io.regions import Region
from repro.pileup.column import SEQ_CODE_LUT, ColumnBatch, PileupColumn
from repro.pileup.engine import BATCH_SWEEP_COLUMNS, PileupConfig

__all__ = [
    "ColumnBatchBuilder",
    "iter_pileup_batches",
    "pileup_batch_from_arrays",
    "pileup_batch_from_reads",
    "pileup_from_arrays",
    "pileup_sample",
    "pileup_sample_batch",
]

#: Default columns per batch flushed by :class:`ColumnBatchBuilder`
#: (and therefore by :func:`iter_pileup_batches`): the batch-emitting
#: sweep's historical granularity, which matches the batched caller
#: engine's internal slice size so one flushed batch feeds one
#: vectorised screening pass.
BUILDER_BATCH_COLUMNS = BATCH_SWEEP_COLUMNS

#: Most bases one :class:`ColumnBatchBuilder` window (and so one
#: emitted batch) holds, and most bases the builder takes in between
#: flushes on top of those of the reads overlapping the scan frontier.
#: A window costs ~4 bytes per base while its batch lives (codes,
#: qualities and one packed code/strand/mapq word), so 2**18 bases
#: bound a batch near 1 MiB at any depth (~87 columns at 3000x; at
#: 40x the column cap flushes first).
PENDING_BASE_BUDGET = 1 << 18

#: Bases a window is assembled in at a time: the index and
#: permutation arrays of a slice cost ~30 bytes per base while they
#: live, so slices of 2**13 bases keep them near 256 KiB.  Measured
#: peak RSS of ``serve`` with two workers under 2500 region requests
#: at 40x: 50.7 MB, against 52.1 MB with 2**15-base slices and
#: 47.4 MB for the streaming engine.
ASSEMBLY_BASES = 1 << 13

#: ``bytes.translate`` tables from read bases to the builder's packed
#: byte: the base code (``BASE_TO_CODE``, unknown -> ``N``) with the
#: read's strand in bit 3.
_FORWARD_CODES = SEQ_CODE_LUT.tobytes()
_REVERSE_CODES = (SEQ_CODE_LUT | np.uint8(8)).tobytes()


def _ref_bases_at(reference: str, positions: np.ndarray) -> str:
    """Uppercase reference characters at sorted ``positions`` (one
    gather).  Only the covered span is encoded, so per-chunk cost is
    bounded by the chunk, not the reference length."""
    if positions.size == 0:
        return ""
    lo = int(positions[0])
    raw = np.frombuffer(
        reference[lo : int(positions[-1]) + 1].encode("ascii"),
        dtype=np.uint8,
    )
    return raw[positions - lo].tobytes().decode("ascii").upper()


def _batch_from_flat(
    chrom: str,
    positions: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reverse: np.ndarray,
    mapqs: np.ndarray,
    reference: str,
    cfg: PileupConfig,
) -> ColumnBatch:
    """Assemble a batch from flat per-base arrays.

    ``positions`` must already be stable-sorted so that, within a
    column, bases appear in read-deposit order -- that ordering is what
    makes the depth cap (keep the first ``max_depth``) agree with the
    streaming engine exactly.
    """
    if positions.size == 0:
        return ColumnBatch.empty(chrom)
    # positions is sorted, so column boundaries come from one diff --
    # no np.unique, which would sort a second time.
    first = np.empty(positions.size, dtype=bool)
    first[0] = True
    np.not_equal(positions[1:], positions[:-1], out=first[1:])
    first_idx = np.nonzero(first)[0]
    return _batch_from_columns(
        chrom,
        positions[first_idx],
        np.diff(np.append(first_idx, positions.size)),
        codes,
        quals,
        reference,
        cfg,
        reverse=reverse,
        mapqs=mapqs,
    )


def _batch_from_columns(
    chrom: str,
    unique_pos: np.ndarray,
    depths: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reference: str,
    cfg: PileupConfig,
    *,
    reverse: Optional[np.ndarray] = None,
    mapqs: Optional[np.ndarray] = None,
    planes: Optional[Callable[[], Tuple[np.ndarray, np.ndarray]]] = None,
) -> ColumnBatch:
    """Assemble a batch from its (non-empty) columns' positions and
    depths and the column-major per-base arrays, applying the depth
    cap.

    The strand/mapq planes are either eager arrays or a deferred
    ``planes`` thunk (producing the sorted-order pair); a deferred
    thunk is carried into the batch, composed with the depth-cap mask
    when one applies, so the planes are never built unless something
    downstream reads them.
    """
    if int(depths.max()) > cfg.max_depth:
        # Vectorised first-come cap: index of each base within its
        # column, keep only the first max_depth of them.
        within = np.arange(codes.size) - np.repeat(
            np.cumsum(depths) - depths, depths
        )
        keep = within < cfg.max_depth
        codes = codes[keep]
        quals = quals[keep]
        if planes is None:
            reverse = reverse[keep]
            mapqs = mapqs[keep]
        else:
            uncapped = planes

            def planes(
                _build: Callable[
                    [], Tuple[np.ndarray, np.ndarray]
                ] = uncapped,
                _keep: np.ndarray = keep,
            ) -> Tuple[np.ndarray, np.ndarray]:
                """The deferred planes with the depth-cap mask folded in."""
                rev, mq = _build()
                return rev[_keep], mq[_keep]

        kept = np.minimum(depths, cfg.max_depth)
        capped = depths - kept
    else:
        kept = depths
        capped = np.zeros(depths.size, dtype=np.int64)
    offsets = np.zeros(unique_pos.size + 1, dtype=np.int64)
    np.cumsum(kept, out=offsets[1:])
    return ColumnBatch(
        chrom=chrom,
        positions=unique_pos.astype(np.int64),
        ref_bases=_ref_bases_at(reference, unique_pos),
        base_codes=codes,
        quals=quals,
        reverse=reverse,
        mapqs=mapqs,
        offsets=offsets,
        n_capped=capped,
        planes=planes,
    )


def pileup_batch_from_arrays(
    starts: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reverse: np.ndarray,
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    mapq: Union[int, np.ndarray] = 60,
) -> ColumnBatch:
    """Build the pileup of an ``(n, read_length)`` read matrix as one
    :class:`ColumnBatch`.

    Args:
        starts: sorted int read start positions, shape ``(n,)``.
        codes: uint8 base-code matrix, shape ``(n, read_length)``.
        quals: uint8 Phred matrix, same shape.
        reverse: bool strand vector, shape ``(n,)``.
        reference: full reference sequence (indexed absolutely).
        region: half-open interval to build columns for.
        config: quality filters and depth cap.  Only the *quality*
            semantics of the streaming engine apply here: matrix input
            carries no SAM flags, so the flag-based read filters
            (``include_duplicates`` / ``include_secondary`` /
            ``include_qcfail``) have no effect -- every read in the
            matrix is treated as a primary, non-duplicate, QC-pass
            alignment.
        mapq: mapping quality -- one int stamped on all reads (the
            simulator's default), or a per-read int vector of shape
            ``(n,)``.  The ``min_mapq`` filter compares against the
            *raw* values (a scalar below threshold empties the whole
            pileup; a vector drops exactly the failing reads, like the
            streaming engine's per-read ``read_passes``); values above
            255 are only saturated to 255 afterwards, when stamped
            into the batch's uint8 ``mapqs`` array (so e.g.
            ``mapq=300`` passes a ``min_mapq=260`` filter but reads
            back as 255, the SAM-format ceiling).

    Returns:
        The region's non-empty columns as one batch (possibly empty).

    Raises:
        ValueError: on inconsistent array shapes or negative ``mapq``
            (which a bare uint8 cast would silently wrap or reject
            depending on the NumPy version).
    """
    cfg = config or PileupConfig()
    n, rl = codes.shape
    if starts.shape != (n,) or quals.shape != (n, rl) or reverse.shape != (n,):
        raise ValueError("read matrix arrays are not mutually consistent")
    if np.isscalar(mapq) or np.ndim(mapq) == 0:
        mapq = int(mapq)
        if mapq < 0:
            raise ValueError(f"mapq must be non-negative, got {mapq}")
        if mapq < cfg.min_mapq or n == 0:
            return ColumnBatch.empty(region.chrom)
        mapq_reads = None
    else:
        mapq_arr = np.asarray(mapq)
        if mapq_arr.shape != (n,):
            raise ValueError(
                f"per-read mapq must have shape ({n},), got {mapq_arr.shape}"
            )
        if n and int(mapq_arr.min()) < 0:
            raise ValueError("mapq must be non-negative in every read")
        keep_reads = mapq_arr >= cfg.min_mapq
        if not keep_reads.all():
            # Dropping whole reads preserves the sorted-starts
            # counting-deposit structure, so the fast path below still
            # applies to the surviving subset.
            starts = starts[keep_reads]
            codes = codes[keep_reads]
            quals = quals[keep_reads]
            reverse = reverse[keep_reads]
            mapq_arr = mapq_arr[keep_reads]
            n = int(starts.size)
        if n == 0:
            return ColumnBatch.empty(region.chrom)
        mapq_reads = np.minimum(mapq_arr, 255).astype(np.uint8)
    if np.any(starts[1:] < starts[:-1]):
        # Unsorted input loses the counting-deposit structure; fall
        # back to a general stable sort of the flattened matrix.
        return _batch_from_arrays_sorted(
            starts, codes, quals, reverse, reference, region, cfg,
            mapq if mapq_reads is None else 0, mapq_reads,
        )

    # Counting deposit: because every read spans exactly rl contiguous
    # positions and starts are sorted, the reads covering position p
    # are precisely rows lo[p]..hi[p], and the stable sort-by-position
    # permutation can be *computed* instead of searched for: base
    # (i, j) lands at col_start[p] + (i - lo[p]).  This is the same
    # deposit order as the streaming sweep (read order within each
    # column), with no O(m log m) sort anywhere.
    i_lo = int(np.searchsorted(starts, region.start - rl + 1, side="left"))
    i_hi = int(np.searchsorted(starts, region.end, side="left"))
    if i_hi <= i_lo:
        return ColumnBatch.empty(region.chrom)
    starts_r = starts[i_lo:i_hi]
    nr = i_hi - i_lo
    span_lo = int(starts_r[0])
    span_hi = int(starts_r[-1]) + rl
    grid = np.arange(span_lo, span_hi, dtype=np.int64)
    lo = np.searchsorted(starts_r, grid - rl + 1, side="left")
    col_start = np.zeros(grid.size + 1, dtype=np.int64)
    np.cumsum(
        np.searchsorted(starts_r, grid, side="right") - lo,
        out=col_start[1:],
    )
    m = nr * rl
    # dest[i, j] = col_start[p] + i - lo[p] for p = starts[i] + j,
    # factored as (col_start - lo) gathered per position plus an
    # in-place row add.  Each read's positions are contiguous, so the
    # gather is a sliding-window row copy, not an element gather;
    # 32-bit indices halve the memory traffic whenever they fit.
    idx_dtype = np.int64 if m > np.iinfo(np.int32).max else np.int32
    base = (col_start[:-1] - lo).astype(idx_dtype)
    windows = np.lib.stride_tricks.sliding_window_view(base, rl)
    dest = windows[starts_r - span_lo]
    dest += np.arange(nr, dtype=idx_dtype)[:, None]
    dest = dest.reshape(-1)
    # Deposit by direct scatter.  Base code (3 bits) and strand (1
    # bit) share one byte so the whole deposit is two single-byte
    # scatters, which stay cache-resident where a permutation index
    # would not.
    q_sorted = np.empty(m, dtype=np.uint8)
    q_sorted[dest] = quals[i_lo:i_hi].reshape(-1)
    packed = codes[i_lo:i_hi] | (
        reverse[i_lo:i_hi].astype(np.uint8) << np.uint8(3)
    )[:, None]
    p_sorted = np.empty(m, dtype=np.uint8)
    p_sorted[dest] = packed.reshape(-1)
    c_sorted = p_sorted & np.uint8(7)
    r_sorted = p_sorted >= 8
    pos_sorted = np.repeat(grid, np.diff(col_start))
    if mapq_reads is None:
        m_sorted = None
    else:
        # Per-read mapq: one extra single-byte scatter through the
        # same computed permutation.
        m_sorted = np.empty(m, dtype=np.uint8)
        m_sorted[dest] = np.repeat(mapq_reads[i_lo:i_hi], rl)

    # The region clip is a slice of the sorted axis, not a mask.
    a = int(col_start[region.start - span_lo]) if region.start > span_lo else 0
    b = int(col_start[region.end - span_lo]) if region.end < span_hi else m
    pos_sorted = pos_sorted[a:b]
    q_sorted = q_sorted[a:b]
    c_sorted = c_sorted[a:b]
    r_sorted = r_sorted[a:b]
    if m_sorted is not None:
        m_sorted = m_sorted[a:b]
    if pos_sorted.size == 0:
        return ColumnBatch.empty(region.chrom)

    if cfg.min_baseq > 0:
        keep = q_sorted >= cfg.min_baseq
        if not keep.all():
            pos_sorted = pos_sorted[keep]
            q_sorted = q_sorted[keep]
            c_sorted = c_sorted[keep]
            r_sorted = r_sorted[keep]
            if m_sorted is not None:
                m_sorted = m_sorted[keep]
            if pos_sorted.size == 0:
                return ColumnBatch.empty(region.chrom)
    if m_sorted is None:
        m_sorted = np.full(pos_sorted.size, min(mapq, 255), dtype=np.uint8)
    return _batch_from_flat(
        region.chrom,
        pos_sorted,
        c_sorted,
        q_sorted,
        r_sorted,
        m_sorted,
        reference,
        cfg,
    )


def _batch_from_arrays_sorted(
    starts: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reverse: np.ndarray,
    reference: str,
    region: Region,
    cfg: PileupConfig,
    mapq: int,
    mapq_reads: Optional[np.ndarray] = None,
) -> ColumnBatch:
    """General fallback for unsorted read matrices: flatten, mask and
    stable-sort by position (the pre-counting-deposit construction).
    ``mapq_reads`` (uint8, one per read, already min_mapq-filtered)
    overrides the constant ``mapq`` when given."""
    n, rl = codes.shape
    positions = (starts[:, None] + np.arange(rl)[None, :]).ravel()
    flat_codes = codes.ravel()
    flat_quals = quals.ravel()
    flat_rev = np.repeat(reverse, rl)
    flat_mapqs = (
        None if mapq_reads is None else np.repeat(mapq_reads, rl)
    )

    mask = (
        (positions >= region.start)
        & (positions < region.end)
        & (flat_quals >= cfg.min_baseq)
    )
    positions = positions[mask]
    flat_codes = flat_codes[mask]
    flat_quals = flat_quals[mask]
    flat_rev = flat_rev[mask]
    if flat_mapqs is not None:
        flat_mapqs = flat_mapqs[mask]
    if positions.size == 0:
        return ColumnBatch.empty(region.chrom)

    order = np.argsort(positions, kind="stable")
    if flat_mapqs is None:
        flat_mapqs = np.full(positions.size, min(mapq, 255), dtype=np.uint8)
    else:
        flat_mapqs = flat_mapqs[order]
    return _batch_from_flat(
        region.chrom,
        positions[order],
        flat_codes[order],
        flat_quals[order],
        flat_rev[order],
        flat_mapqs,
        reference,
        cfg,
    )


def pileup_from_arrays(
    starts: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reverse: np.ndarray,
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    mapq: Union[int, np.ndarray] = 60,
) -> Iterator[PileupColumn]:
    """Yield pileup columns from an ``(n, read_length)`` read matrix.

    Compatibility view over :func:`pileup_batch_from_arrays` (same
    arguments and semantics): the columns are zero-copy views into the
    underlying batch, yielded in increasing position order.
    """
    batch = pileup_batch_from_arrays(
        starts, codes, quals, reverse, reference, region, config, mapq=mapq
    )
    return batch.columns()


class ColumnBatchBuilder:
    """Incremental, bounded-memory columnar pileup construction.

    Reads arrive one at a time in coordinate order (the order a sorted
    BAM yields them).  Each read's aligned blocks
    (:func:`repro.io.cigar.aligned_blocks`) are appended to flat
    pending buffers -- base codes (strand folded into bit 3) and
    qualities as bytes, one ``(start, length, mapq)`` entry per block
    -- so a read costs a few buffer appends and no per-read arrays.
    Because every later read starts at or after the current one, all
    columns strictly left of the newest read's start are complete.
    The completed window is assembled into a
    :class:`~repro.pileup.column.ColumnBatch` (sliced zero-copy into
    work units of at most ``batch_columns`` columns, strand/mapq planes
    still lazy) and its bases leave the buffers as soon as either

    * the scan has passed ``batch_columns`` reference positions since
      the last flush, or
    * :data:`PENDING_BASE_BUDGET` bases have been deposited since the
      last flush.

    Memory is therefore bounded by the bases of the reads overlapping
    the scan frontier (read length x depth, which any column sweep
    must hold) plus one budget of new bases, whatever the depth, the
    column cap or the size of the region -- which is what lets a
    whole-genome region stream through the caller in constant memory.

    Columns, offsets, depth capping, ``min_baseq`` filtering and the
    within-column deposit order are bit-identical to building the whole
    chunk at once with :func:`pileup_batch_from_reads` (which is itself
    a one-window instance of this builder) and to the streaming engine
    (:func:`repro.pileup.engine.pileup`); the property suite in
    ``tests/test_column_batch.py`` asserts it per flush boundary.

    Example -- stream a read list in bounded batches::

        builder = ColumnBatchBuilder(reference, region, batch_columns=1024)
        for read in reads:                  # coordinate-sorted
            for batch in builder.add_read(read):
                consume(batch)              # at most 1024 columns each
            if builder.done:
                break
        for batch in builder.finish():
            consume(batch)

    (:func:`iter_pileup_batches` wraps exactly this loop.)

    Args:
        reference: reference sequence for ``region.chrom`` (indexed
            absolutely by position).
        region: half-open interval to build columns for.
        config: pileup filtering parameters (defaults to
            :class:`~repro.pileup.engine.PileupConfig`).
        batch_columns: flush granularity -- emitted batches hold at
            most this many columns.  ``None`` disables incremental
            flushing (the base budget included): everything is
            assembled as one batch by :meth:`finish` (the whole-chunk
            compatibility mode).

    Raises:
        ValueError: if ``batch_columns`` is not positive.
    """

    def __init__(
        self,
        reference: str,
        region: Region,
        config: Optional[PileupConfig] = None,
        *,
        batch_columns: Optional[int] = BUILDER_BATCH_COLUMNS,
    ) -> None:
        if batch_columns is not None and batch_columns <= 0:
            raise ValueError(
                f"batch_columns must be positive, got {batch_columns}"
            )
        self.reference = reference
        self.region = region
        self.config = config or PileupConfig()
        self.batch_columns = batch_columns
        #: True once a read at or beyond ``region.end`` has been seen:
        #: no further column can change, so driver loops may stop
        #: feeding reads (mirroring the streaming sweep's early break).
        self.done = False
        # Pending bases, written block after block into buffers grown
        # by doubling and compacted in place (no reallocation per
        # read); flushed heads leave dead bytes behind until the next
        # compaction.
        self._codes = bytearray()
        self._quals = bytearray()
        self._used = 0
        # One entry per pending block: reference start, length and
        # buffer offset of its unflushed bases, and its mapq.
        self._starts = array("q")
        self._lens = array("q")
        self._offsets = array("q")
        self._mapqs = array("B")
        self._since_flush = 0
        self._flush_from = region.start
        self._last_read_pos = -1
        self._finished = False

    def add_read(self, read: AlignedRead) -> List[ColumnBatch]:
        """Deposit one alignment; return any batches it completed.

        Read-level semantics -- chromosome/region skips, flag and
        mapping-quality filters, the coordinate-sort check -- are
        identical to :func:`repro.pileup.engine.pileup`.  A record
        without a sequence (SAM ``*``) deposits nothing.

        Raises:
            ValueError: if the input violates coordinate sorting, or
                the builder was already finished.
        """
        if self._finished:
            raise ValueError("builder already finished")
        if read.rname != self.region.chrom or read.is_unmapped:
            return []
        pos = read.pos
        if pos < self._last_read_pos:
            raise ValueError(
                f"reads are not coordinate-sorted: {read.qname} at "
                f"{pos} after {self._last_read_pos}"
            )
        self._last_read_pos = pos
        if pos >= self.region.end:
            self.done = True
            return []
        out = self._maybe_flush(pos)
        cigar = read.cigar
        if len(cigar) == 1 and cigar[0][0] in ALIGNED_OPS:
            blocks = [(pos, 0, cigar[0][1])]
        else:
            blocks = aligned_blocks(cigar, pos)
        if not blocks or not read.seq:
            return out
        ref, _, n = blocks[-1]
        if ref + n <= self.region.start or not self.config.read_passes(read):
            return out
        table = _REVERSE_CODES if read.is_reverse else _FORWARD_CODES
        codes = read.seq.encode("ascii").translate(table)
        quals = read.qual.tobytes() if read.qual.size else bytes(len(codes))
        mapq = min(read.mapq, 255)
        for ref, q, n in blocks:
            self._push(ref, codes, quals, q, n, mapq)
        return out

    def add(
        self,
        positions: np.ndarray,
        codes: np.ndarray,
        quals: np.ndarray,
        reverse: bool,
        mapq: int,
    ) -> List[ColumnBatch]:
        """Deposit one pre-decoded read (sorted aligned positions plus
        parallel uint8 base codes / Phred qualities, a strand flag and
        a mapping quality); return any batches it completed.

        The caller is responsible for read-level filtering; reads must
        arrive sorted by their first aligned position.

        Raises:
            ValueError: if the input violates coordinate sorting, or
                the builder was already finished.
        """
        if self._finished:
            raise ValueError("builder already finished")
        n = positions.size
        if n == 0:
            return []
        start = int(positions[0])
        if start < self._last_read_pos:
            raise ValueError(
                f"reads are not coordinate-sorted: read at {start} "
                f"after {self._last_read_pos}"
            )
        self._last_read_pos = start
        if start >= self.region.end:
            self.done = True
            return []
        out = self._maybe_flush(start)
        packed = np.asarray(codes, dtype=np.uint8) | np.uint8(8 * bool(reverse))
        packed = packed.tobytes()
        qual_bytes = np.asarray(quals, dtype=np.uint8).tobytes()
        cuts = [0, *(np.flatnonzero(np.diff(positions) != 1) + 1).tolist(), n]
        for lo, hi in zip(cuts, cuts[1:]):
            self._push(
                int(positions[lo]), packed, qual_bytes, lo, hi - lo,
                min(int(mapq), 255),
            )
        return out

    def finish(self) -> List[ColumnBatch]:
        """Flush everything still pending and seal the builder.

        Returns the final batches (possibly empty).  Idempotent; any
        further :meth:`add_read` / :meth:`add` raises.
        """
        if self._finished:
            return []
        self._finished = True
        return self._flush(self.region.end)

    # -- internals ---------------------------------------------------------

    def _push(
        self, ref: int, codes: bytes, quals: bytes, q: int, n: int, mapq: int
    ) -> None:
        """Append one aligned block (reference start ``ref``, query
        bases ``q .. q+n``), clipped to the region."""
        lo = max(ref, self.region.start)
        hi = min(ref + n, self.region.end)
        if hi <= lo:
            return
        q += lo - ref
        n = hi - lo
        used = self._used
        end = used + n
        if end > len(self._codes):
            grow = bytes(max(end, 2 * len(self._codes), 4096) - len(self._codes))
            self._codes += grow
            self._quals += grow
        self._codes[used:end] = codes[q : q + n]
        self._quals[used:end] = quals[q : q + n]
        self._offsets.append(used)
        self._used = end
        self._starts.append(lo)
        self._lens.append(n)
        self._mapqs.append(mapq)
        self._since_flush += n

    def _maybe_flush(self, frontier: int) -> List[ColumnBatch]:
        """Flush the complete window once the scan has advanced
        ``batch_columns`` positions, or the pending-base budget has
        filled, since the last flush."""
        if self.batch_columns is None:
            return []
        if (
            frontier - self._flush_from < self.batch_columns
            and self._since_flush < PENDING_BASE_BUDGET
        ):
            return []
        return self._flush(frontier)

    def _flush(self, bound: int) -> List[ColumnBatch]:
        """Assemble and emit every column strictly left of ``bound``.

        Blocks straddling the boundary are split: their tails stay
        pending in arrival order, so a read spanning any number of
        flush boundaries deposits into each window exactly the bases
        that belong there, in the same within-column order as a
        whole-chunk build.  Tails stay where they are in the buffers;
        the buffers are compacted only once dead bytes outnumber live
        ones, so a flush costs its window, not the reads it carries
        over.
        """
        bound = min(bound, self.region.end)
        self._since_flush = 0
        out: List[ColumnBatch] = []
        while bound > self._flush_from:
            out.extend(self._flush_window(bound))
        return out

    def _flush_window(self, bound: int) -> List[ColumnBatch]:
        """Emit the columns from the last flush up to ``bound`` -- or,
        in incremental mode, up to the first column at which the
        window would exceed :data:`PENDING_BASE_BUDGET` bases (at least
        one column) -- and advance the flush point past them."""
        if not self._starts:
            self._flush_from = bound
            return []
        starts = np.frombuffer(self._starts, dtype=np.int64).copy()
        lens = np.frombuffer(self._lens, dtype=np.int64).copy()
        head = np.clip(bound - starts, 0, lens)
        if self.batch_columns is not None and head.sum() > PENDING_BASE_BUDGET:
            # Bases left of each column, from the blocks' starts and
            # ends relative to the flush point (no column past the
            # last pending base holds any).
            rel = starts - self._flush_from
            width = min(bound, int((starts + lens).max())) - self._flush_from
            depth = np.bincount(np.minimum(rel, width), minlength=width + 1)
            depth -= np.bincount(np.minimum(rel + lens, width), minlength=width + 1)
            filled = np.cumsum(np.cumsum(depth[:width]))
            cut = int(np.searchsorted(filled, PENDING_BASE_BUDGET, side="right"))
            bound = self._flush_from + max(cut, 1)
            head = np.clip(bound - starts, 0, lens)
        self._flush_from = bound
        offsets = np.frombuffer(self._offsets, dtype=np.int64).copy()
        mapqs = np.frombuffer(self._mapqs, dtype=np.uint8).copy()
        win = np.flatnonzero(head)
        batch = None
        if win.size:
            batch = _assemble_window(
                self.region.chrom,
                starts[win],
                head[win],
                offsets[win],
                mapqs[win],
                np.frombuffer(self._codes, dtype=np.uint8),
                np.frombuffer(self._quals, dtype=np.uint8),
                self.reference,
                self.config,
            )
        keep = np.flatnonzero(head < lens)
        tail = (lens - head)[keep]
        offsets = offsets[keep] + head[keep]
        live = int(tail.sum())
        if 2 * live < self._used:
            self._codes[:live] = _gather(self._codes, offsets, tail)
            self._quals[:live] = _gather(self._quals, offsets, tail)
            offsets = np.cumsum(tail) - tail
            self._used = live
        self._starts = array("q", np.maximum(starts[keep], bound).tobytes())
        self._lens = array("q", tail.tobytes())
        self._offsets = array("q", offsets.tobytes())
        self._mapqs = array("B", mapqs[keep].tobytes())
        if batch is None or batch.n_columns == 0:
            return []
        cap = self.batch_columns
        n = batch.n_columns
        if cap is None or n <= cap:
            return [batch]
        return [
            batch.slice_columns(lo, min(lo + cap, n))
            for lo in range(0, n, cap)
        ]


def _ragged_index(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``offsets[k] .. offsets[k] + lengths[k]``."""
    idx = np.repeat(offsets - (np.cumsum(lengths) - lengths), lengths)
    idx += np.arange(idx.size)
    return idx


def _gather(buffer: bytearray, offsets: np.ndarray, lengths: np.ndarray) -> bytes:
    """The byte ranges ``offsets[k] .. offsets[k] + lengths[k]`` of
    ``buffer``, concatenated without a per-byte index array (the
    carried-over reads of a deep pileup hold far more bases than one
    window)."""
    view = memoryview(buffer)
    return b"".join(
        [view[o : o + n] for o, n in zip(offsets.tolist(), lengths.tolist())]
    )


def _assemble_window(
    chrom: str,
    starts: np.ndarray,
    lens: np.ndarray,
    offsets: np.ndarray,
    mapqs: np.ndarray,
    codes: np.ndarray,
    quals: np.ndarray,
    reference: str,
    cfg: PileupConfig,
) -> ColumnBatch:
    """One window's blocks -> one batch.

    ``starts``/``lens``/``offsets``/``mapqs`` describe the window's
    aligned blocks in arrival order: reference start, length, offset
    of their bases in the ``codes`` (base code, strand in bit 3) and
    ``quals`` buffers, and mapping quality.  Bases are deposited
    column-major by scatters through a permutation that preserves
    arrival order within each column (the streaming deposit order),
    :data:`ASSEMBLY_BASES` bases at a time, then ``min_baseq`` is
    masked and the strand/mapq planes are deferred into a lazy thunk.

    When block starts and ends both rise with arrival -- every window
    of ungapped equal-length reads -- the permutation is *computed*,
    as in :func:`pileup_batch_from_arrays`: the blocks covering column
    ``c`` are a contiguous run of arrival indices starting at
    ``passed[c]`` (the number of blocks ending at or before ``c``), so
    block ``k``'s base lands at ``col_start[c] + k - passed[c]``.
    Other windows (gaps, mixed read lengths) take a stable sort of the
    narrow column indices instead.
    """
    lo = int(starts.min())
    rel = starts - lo
    ends = rel + lens
    width = int(ends.max())
    depth = np.cumsum(
        np.bincount(rel, minlength=width + 1)
        - np.bincount(ends, minlength=width + 1)
    )[:width]
    col_start = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(depth, out=col_start[1:])
    monotone = bool((rel[1:] >= rel[:-1]).all() and (ends[1:] >= ends[:-1]).all())
    # One 16-bit word per base carries its code, strand (bit 3) and
    # mapq (high byte), so the lazy planes need no permutation.
    words = np.empty(int(col_start[-1]), dtype=np.uint16)
    q_sorted = np.empty(words.size, dtype=np.uint8)
    c0 = 0
    while c0 < width:
        c1 = int(
            np.searchsorted(col_start, col_start[c0] + ASSEMBLY_BASES, "right")
        ) - 1
        c1 = min(max(c1, c0 + 1), width)
        # The blocks' pieces inside columns [c0, c1), still in arrival
        # order (and still monotone when the blocks are).
        a = np.clip(c0 - rel, 0, lens)
        n = np.clip(c1 - rel, 0, lens) - a
        sel = np.flatnonzero(n)
        a, n = a[sel], n[sel]
        piece = rel[sel] + a - c0
        idx = _ragged_index(offsets[sel] + a, n)
        word = codes[idx].astype(np.uint16)
        word |= np.repeat(mapqs[sel].astype(np.uint16) << 8, n)
        qual = quals[idx]
        del idx
        cols = np.repeat(piece - (np.cumsum(n) - n), n)
        cols += np.arange(cols.size)
        if monotone:
            passed = np.searchsorted(piece + n, np.arange(c1 - c0), "right")
            dest = (col_start[c0:c1] - passed)[cols]
            del cols
            dest += np.repeat(np.arange(sel.size), n)
        else:
            key = cols.astype(np.uint16 if c1 - c0 <= 1 << 16 else np.int64)
            del cols
            dest = np.empty(key.size, dtype=np.intp)
            dest[np.argsort(key, kind="stable")] = np.arange(key.size)
            dest += col_start[c0]
        words[dest] = word
        q_sorted[dest] = qual
        c0 = c1
    if cfg.min_baseq > 0:
        keep = q_sorted >= cfg.min_baseq
        if not keep.all():
            nonempty = np.flatnonzero(depth)
            depth = np.zeros(width, dtype=np.int64)
            depth[nonempty] = np.add.reduceat(
                keep, col_start[nonempty], dtype=np.int64
            )
            words = words[keep]
            q_sorted = q_sorted[keep]
    if words.size == 0:
        return ColumnBatch.empty(chrom)
    columns = np.flatnonzero(depth)

    def planes() -> Tuple[np.ndarray, np.ndarray]:
        """Deferred strand/mapq planes for this window."""
        return (words & 8) != 0, (words >> 8).astype(np.uint8)

    return _batch_from_columns(
        chrom,
        columns + lo,
        depth[columns],
        (words & 7).astype(np.uint8),
        q_sorted,
        reference,
        cfg,
        planes=planes,
    )


def iter_pileup_batches(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
    *,
    batch_columns: Optional[int] = BUILDER_BATCH_COLUMNS,
) -> Iterator[ColumnBatch]:
    """Stream coordinate-sorted alignments through a
    :class:`ColumnBatchBuilder`, yielding bounded
    :class:`~repro.pileup.column.ColumnBatch` work units as the scan
    completes them.

    Construction memory stays proportional to one flush window
    (``batch_columns`` columns), never the whole region -- the
    bounded-memory twin of :func:`pileup_batch_from_reads`, with
    identical columns overall (the batched caller engine produces
    byte-identical calls from either).

    Example::

        for batch in iter_pileup_batches(reads, ref, region,
                                         batch_columns=1024):
            survivors = screen_batch(batch, alpha, config, stats)

    Raises:
        ValueError: if the input violates coordinate sorting or
            ``batch_columns`` is not positive.
    """
    builder = ColumnBatchBuilder(
        reference, region, config, batch_columns=batch_columns
    )
    for read in reads:
        yield from builder.add_read(read)
        if builder.done:
            break
    yield from builder.finish()


def pileup_batch_from_reads(
    reads: Iterable[AlignedRead],
    reference: str,
    region: Region,
    config: Optional[PileupConfig] = None,
) -> ColumnBatch:
    """Columnar pileup over coordinate-sorted alignments, as one batch.

    The CIGAR-aware twin of :func:`pileup_batch_from_arrays`: each
    read's aligned blocks are buffered in read order and deposited
    column-major by an arrival-order-preserving permutation -- so
    within a column bases keep the streaming engine's deposit order
    and the depth cap drops exactly the same reads.  Read-level
    semantics (chromosome/region skips, flag filters, the
    coordinate-sort check) are identical to
    :func:`repro.pileup.engine.pileup`.

    Implemented as a one-window :class:`ColumnBatchBuilder` pass
    (``batch_columns=None``), so construction memory is the whole
    chunk; callers that can consume batches incrementally should use
    :func:`iter_pileup_batches` instead, which bounds memory at one
    flush window.

    The batch's strand/mapq planes are built *lazily*: the screen only
    reads base codes and qualities, so the planes are unpacked from
    the batch's packed per-base words only if the ``merge_mapq`` error
    model or a surviving column's DP4 actually needs them (pure
    screen-outs skip them entirely).

    Raises:
        ValueError: if the input violates coordinate sorting.
    """
    builder = ColumnBatchBuilder(
        reference, region, config, batch_columns=None
    )
    for read in reads:
        builder.add_read(read)
        if builder.done:
            break
    batches = builder.finish()
    return batches[0] if batches else ColumnBatch.empty(region.chrom)


def pileup_sample_batch(
    sample,
    region: Optional[Region] = None,
    config: Optional[PileupConfig] = None,
) -> ColumnBatch:
    """Columnar pileup of a :class:`~repro.sim.reads.SimulatedSample`.

    ``region`` defaults to the whole genome.  A sample carrying a
    per-read ``mapqs`` vector (simulated from a
    :class:`~repro.sim.quality.MapqProfile`) feeds it through as the
    per-read mapping qualities, so ``min_mapq`` filtering and
    ``merge_mapq`` models see the same per-read values the BAM path
    would.
    """
    if region is None:
        region = Region(sample.genome.name, 0, len(sample.genome))
    mapqs = getattr(sample, "mapqs", None)
    return pileup_batch_from_arrays(
        sample.starts,
        sample.codes,
        sample.quals,
        sample.reverse,
        sample.genome.sequence,
        region,
        config,
        mapq=sample.mapq if mapqs is None else mapqs,
    )


def pileup_sample(
    sample,
    region: Optional[Region] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[PileupColumn]:
    """Pileup a :class:`~repro.sim.reads.SimulatedSample` directly.

    Compatibility view over :func:`pileup_sample_batch`; ``region``
    defaults to the whole genome.
    """
    return pileup_sample_batch(sample, region, config).columns()
