"""Batched column evaluation: the chunk-level caller engine.

The streaming workflow (:mod:`repro.core.workflow`) is faithful to the
paper's per-allele control flow, but in Python the O(d) Poisson-tail
screen costs one interpreter round-trip per allele -- at realistic
depths the screening *overhead* dominates, inverting the paper's
Figure 2 profile where the exact DP is the expensive stage.

This engine restores the intended profile by keeping the whole call
path in array sweeps over a structure-of-arrays
:class:`~repro.pileup.column.ColumnBatch`:

1. :func:`screen_batch` derives per-column base counts, candidate
   gating and the screening ``lambda`` from fused bincounts over the
   batch's flat arrays (for pure base-quality models a
   (column, code, phred) histogram dotted with a 256-entry Phred
   lookup table; with ``merge_mapq`` a per-base gather through the
   fused 256 x 256 (base quality x mapping quality) table,
   sum-reduced per column), then skips every clearly-insignificant
   (column, candidate-allele) pair in a handful of masked array
   sweeps via
   :func:`~repro.stats.approximation.poisson_tail_approx_batch`;
2. :func:`exact_batch` runs the screening survivors through the
   *batched* exact Poisson-binomial DP
   (:func:`~repro.stats.poisson_binomial.poibin_sf_dp_batch`) --
   survivors' probability rows are gathered straight from the batch's
   flat quality planes, and the emitted
   :class:`~repro.core.results.VariantCall` records (p-values, DP4,
   strand bias) are assembled from array slices.

No :class:`~repro.pileup.column.PileupColumn` object is constructed
anywhere on this path -- not for screened-out columns, not for
exact-stage survivors, not under ``merge_mapq`` (regression-tested by
a constructor census in ``tests/test_engine_equivalence.py``).

Equivalence guarantee
---------------------
The paper's "only false negatives with respect to the original"
property rests on the skip decision, so the decision itself must not
drift between engines.  Two mechanisms keep the engines byte-identical
on every input, not just statistically close:

* the screening kernel replays the scalar gamma series / continued
  fraction elementwise and agrees with the scalar path bit-for-bit on
  ~98% of inputs and to ~1e-15 otherwise; any pair whose corrected
  ``p-hat`` lands within :data:`GUARD_BAND` of the skip threshold is
  re-decided with the scalar
  :func:`~repro.stats.approximation.poisson_tail_approx` -- the
  authoritative tie-breaker (this also covers the histogram/gather
  ``lambda``, whose summation order differs from the streaming
  ``probs.sum()`` by a few ulps);
* the exact stage needs no guard band at all:
  :func:`~repro.stats.poisson_binomial.poibin_sf_dp_batch` is
  bit-for-bit the scalar DP per lane (see its docstring), and its
  probability rows come from lookup tables built with the verbatim
  scalar error-model expression
  (:func:`~repro.core.model.allele_error_probabilities_batch`), so
  p-values, early-stop step counts and decision censuses match the
  streaming engine exactly.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import CallerConfig
from repro.core.model import allele_error_probabilities_batch
from repro.core.results import ColumnDecision, RunStats, VariantCall
from repro.pileup.column import CODE_TO_BASE, ColumnBatch, PileupColumn
from repro.stats.approximation import (
    poisson_tail_approx,
    poisson_tail_approx_batch,
)
from repro.stats.fisher import strand_bias_phred_batch
from repro.stats.poisson_binomial import poibin_sf_dp_batch

__all__ = [
    "GUARD_BAND",
    "dp4_batch",
    "evaluate_batch",
    "evaluate_columns_batched",
    "exact_batch",
    "batch_margins",
    "merged_qual_prob_table",
    "qual_prob_table",
    "screen_batch",
]

#: Corrected p-hat values within this distance of the skip threshold
#: are re-decided with the scalar code path.  The batch and scalar
#: kernels differ by < 1e-14 in practice; 1e-6 leaves ~8 orders of
#: magnitude of safety while re-running a negligible number of pairs.
GUARD_BAND = 1e-6

#: Columns gathered per vectorised pass when the caller consumes an
#: unbounded column stream.  Large enough to amortise the batch
#: kernels, small enough that peak memory stays a constant number of
#: columns rather than the whole region.
BATCH_COLUMNS = 1024

#: Bases per vectorised pass of :func:`evaluate_batch`: the screen
#: builds ~20 bytes of per-base key arrays, so 2**14 bases keep a pass
#: within ~330 KiB however deep or wide the incoming batch is.
BATCH_BASES = 1 << 14

#: Ceiling on the survivor-plane size (lanes x reads, float64) handed
#: to one :func:`poibin_sf_dp_batch` call: 2^23 elements = 64 MiB.
#: Keeps the exact stage's memory a constant regardless of how deep
#: or numerous the survivors are.
PLANE_ELEMENTS = 1 << 23

#: Ceiling on a chunk's DP head state (lanes x chunk k_max): every
#: sweep step costs one fused pass over this many elements, so the
#: bound keeps steps cheap *and* forces high-k lanes (strong variants,
#: k in the hundreds) into their own narrow chunks instead of widening
#: every error-candidate lane's k=2 head.
HEAD_ELEMENTS = 1 << 15


_QUAL_PROBS: Optional[np.ndarray] = None
_MERGED_PROBS: Optional[np.ndarray] = None


def qual_prob_table() -> np.ndarray:
    """Specific-allele error probability for every possible uint8 Phred
    score: ``10**(-q/10) * (1/3)``.

    Built with the exact elementwise expression of the scalar error
    model (:func:`~repro.core.model.allele_error_probabilities_batch`),
    so ``table[quals]`` is bitwise identical to
    :func:`~repro.core.model.allele_error_probabilities` -- which is
    what lets the exact DP run on table-derived vectors without
    perturbing a single output bit.  (Read-only; one shared instance.)
    """
    global _QUAL_PROBS
    if _QUAL_PROBS is None:
        table = allele_error_probabilities_batch(
            np.arange(256, dtype=np.uint8)
        )
        table.setflags(write=False)
        _QUAL_PROBS = table
    return _QUAL_PROBS


def merged_qual_prob_table() -> np.ndarray:
    """The ``merge_mapq`` twin of :func:`qual_prob_table`: a 256 x 256
    table over (base quality, mapping quality) pairs, holding
    ``(1 - (1-p_base)(1-p_map)) / 3``.

    uint8 qualities admit only 65536 input pairs, so
    ``table[quals, mapqs]`` reproduces
    ``allele_error_probabilities(column, merge_mapq=True)`` bitwise --
    mapping-quality merging is a pure function of the two qualities,
    which is what keeps the merged model columnar end to end (the
    pre-PR-4 engine fell back to per-column gathering here).
    """
    global _MERGED_PROBS
    if _MERGED_PROBS is None:
        grid = np.arange(256, dtype=np.uint8)
        table = allele_error_probabilities_batch(
            grid[:, None], grid[None, :]
        )
        table.setflags(write=False)
        _MERGED_PROBS = table
    return _MERGED_PROBS


def batch_margins(depths: np.ndarray, config: CallerConfig) -> np.ndarray:
    """Vectorised :meth:`CallerConfig.margin_for_depth` over a depth
    array (constant unless ``adaptive_margin`` is enabled)."""
    margins = np.full(depths.shape, config.approx_margin, dtype=np.float64)
    if config.adaptive_margin is not None:
        deep = depths > config.adaptive_margin
        margins[deep] = config.approx_margin * np.sqrt(
            config.adaptive_margin / depths[deep]
        )
    return margins


def _column_probs(
    batch: ColumnBatch, col: int, merge_mapq: bool
) -> np.ndarray:
    """One column's per-read error-probability vector, gathered from
    the quality planes (bitwise identical to the streaming model)."""
    lo, hi = int(batch.offsets[col]), int(batch.offsets[col + 1])
    if merge_mapq:
        return merged_qual_prob_table()[
            batch.quals[lo:hi], batch.mapqs[lo:hi]
        ]
    return qual_prob_table()[batch.quals[lo:hi]]


def screen_batch(
    batch: ColumnBatch,
    corrected_alpha: float,
    config: CallerConfig,
    stats: RunStats,
) -> List[tuple]:
    """The columnar gather + screen: coverage / candidate gating and
    the vectorised Poisson-tail skip over a whole
    :class:`~repro.pileup.column.ColumnBatch`, as pure array slicing.

    No per-column Python object is built here -- per-column base
    counts, quality histograms and candidate gating all come from
    bincounts over the batch's flat arrays, so a column whose every
    allele is screened out costs no object construction at all.  Only
    the guard-band re-decisions touch a single column's quality slice.

    ``merge_mapq`` models are screened columnar too: the per-column
    ``lambda`` becomes a sum-reduction of the fused
    (base quality x mapping quality) table gathered over the flat
    planes, instead of the (column, code, phred) histogram dot.

    Args:
        batch: the columns under test, in stored order.
        corrected_alpha: per-test raw-p-value threshold.
        config: workflow parameters.
        stats: counters, mutated in place with the same censuses the
            streaming engine would record.

    Returns:
        Surviving ``(column index, alt_code, alt_count)`` triples --
        the pairs that must still run the exact DP.
    """
    n = batch.n_columns
    stats.columns_seen += n
    if n == 0:
        return []
    depths = batch.depths
    low = depths < config.min_coverage
    stats.record_decisions(ColumnDecision.LOW_COVERAGE, int(low.sum()))

    merge = config.merge_mapq
    screen_possible = config.use_approximation and bool(
        (depths >= config.approx_min_depth).any()
    )
    # One fused bincount yields both per-column histograms the
    # base-quality screen needs: (column, code, phred) keys, reduced
    # to base counts and quality histograms.  32-bit keys keep the
    # pass memory-bound on half the bytes; they fit for every batch
    # below ~1.6M columns (far above evaluate_batch's BATCH_COLUMNS
    # slices), and 64-bit keys keep direct callers with huge batches
    # correct.  The merged model takes its lambda from the 2-D table
    # instead, so it only needs the plain (column, code) counts.
    key_dtype = np.int32 if n * 1280 <= np.iinfo(np.int32).max else np.int64
    col_of = np.repeat(np.arange(n, dtype=key_dtype), depths)
    if screen_possible and not merge:
        key = col_of * key_dtype(1280)
        key += batch.base_codes.astype(key_dtype) * key_dtype(256)
        key += batch.quals
        hist = np.bincount(key, minlength=n * 1280).reshape(n, 5, 256)
        counts = hist.sum(axis=2)
        qhist = hist.sum(axis=1)
    else:
        key = col_of * key_dtype(5)
        key += batch.base_codes
        counts = np.bincount(key, minlength=n * 5).reshape(n, 5)
        qhist = None
    cand = counts[:, :4] > 0
    ref_codes = batch.ref_codes.astype(np.int64)
    acgt_ref = ref_codes < 4
    cand[np.nonzero(acgt_ref)[0], ref_codes[acgt_ref]] = False
    cand[low] = False
    n_cand = cand.sum(axis=1)
    stats.record_decisions(
        ColumnDecision.NO_CANDIDATE, int(((~low) & (n_cand == 0)).sum())
    )
    stats.tests_run += int(n_cand.sum())

    pair_col, pair_code = np.nonzero(cand)
    if pair_col.size == 0:
        return []
    pair_count = counts[pair_col, pair_code]
    if config.use_approximation:
        screen_col = (~low) & (depths >= config.approx_min_depth)
        is_screen = screen_col[pair_col]
    else:
        is_screen = np.zeros(pair_col.size, dtype=bool)
    stats.approx_invocations += int(is_screen.sum())

    keep = ~is_screen
    if is_screen.any():
        # Per-column lambda: for the base-quality model, counts per
        # (column, phred) dotted with the 256-entry probability
        # table; for the merged model, the fused 2-D table gathered
        # per base and sum-reduced per column.  Either agrees with
        # the streaming ``probs.sum()`` to the last few ulps; the
        # guard band below re-decides anything within numerical
        # shouting distance of the threshold.
        if merge:
            lam_col = np.bincount(
                col_of,
                weights=merged_qual_prob_table()[batch.quals, batch.mapqs],
                minlength=n,
            )
        else:
            lam_col = qhist @ qual_prob_table()
        s_idx = np.nonzero(is_screen)[0]
        s_col = pair_col[s_idx]
        ks = pair_count[s_idx].astype(np.float64)
        p_hat = poisson_tail_approx_batch(ks, lam_col[s_col])
        corrected = np.minimum(1.0, p_hat / corrected_alpha * config.alpha)
        thresholds = config.alpha + batch_margins(
            depths[s_col].astype(np.float64), config
        )
        skip = corrected >= thresholds
        near = np.abs(corrected - thresholds) < GUARD_BAND
        for i in np.nonzero(near)[0]:
            ci = int(s_col[i])
            probs = _column_probs(batch, ci, merge)
            exact_p_hat = poisson_tail_approx(int(ks[i]), probs)
            exact_corrected = min(
                1.0, exact_p_hat / corrected_alpha * config.alpha
            )
            margin = config.margin_for_depth(int(depths[ci]))
            skip[i] = exact_corrected >= config.alpha + margin
        n_skip = int(skip.sum())
        stats.exact_skipped += n_skip
        stats.record_decisions(ColumnDecision.SKIPPED_APPROX, n_skip)
        keep[s_idx[~skip]] = True
    sel = np.nonzero(keep)[0]
    return list(
        zip(
            pair_col[sel].tolist(),
            pair_code[sel].tolist(),
            pair_count[sel].tolist(),
        )
    )


def dp4_batch(
    batch: ColumnBatch,
    cols: np.ndarray,
    ref_codes: np.ndarray,
    alt_codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LoFreq's DP4 (ref-fwd, ref-rev, alt-fwd, alt-rev) for many
    (column, alt allele) pairs of one batch at once.

    One fused (column, base code, strand) bincount over the named
    columns' flat bases replaces the per-call masking loop: the
    distinct columns' base/strand slices are gathered with a ragged
    arange, keyed, counted, and the four DP4 entries read off the
    ``(columns, 5, 2)`` count cube per pair.  Counts are integers, so
    this is exactly the per-column computation, just batched.

    Args:
        batch: the columns the indices refer to.
        cols: int column indices, one per pair (duplicates fine --
            two alt alleles called at one column share its counts).
        ref_codes: int reference base code per pair.
        alt_codes: int alternate base code per pair.

    Returns:
        Four parallel int64 arrays ``(ref_fwd, ref_rev, alt_fwd,
        alt_rev)``.
    """
    ucols, inverse = np.unique(cols, return_inverse=True)
    starts = batch.offsets[ucols]
    lens = batch.depths[ucols]
    total = int(lens.sum())
    # Ragged arange: for each distinct column, the flat indices of its
    # bases (starts[i] .. starts[i] + lens[i]).
    ends = np.cumsum(lens)
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lens), lens
    )
    codes = batch.base_codes[flat].astype(np.int64)
    rev = batch.reverse[flat].astype(np.int64)
    col_of = np.repeat(np.arange(ucols.size, dtype=np.int64), lens)
    key = (col_of * 5 + codes) * 2 + rev
    counts = np.bincount(key, minlength=ucols.size * 10).reshape(
        ucols.size, 5, 2
    )
    return (
        counts[inverse, ref_codes, 0],
        counts[inverse, ref_codes, 1],
        counts[inverse, alt_codes, 0],
        counts[inverse, alt_codes, 1],
    )


def exact_batch(
    batch: ColumnBatch,
    survivors: List[tuple],
    corrected_alpha: float,
    config: CallerConfig,
    stats: RunStats,
) -> List[VariantCall]:
    """The batch-native exact stage: run every screening survivor
    through the batched Poisson-binomial DP and build the calls from
    arrays.

    Survivor probability rows are gathered straight from the batch's
    flat quality planes (Phred LUT, or the fused (base x mapping)
    quality table under ``merge_mapq``) into a zero-padded plane;
    :func:`~repro.stats.poisson_binomial.poibin_sf_dp_batch` then
    replays the scalar pruned DP bit-for-bit across all lanes at
    once, so p-values, early-stop step counts and the decision census
    are exactly the streaming engine's.  Survivors are processed in
    depth-sorted chunks capped at :data:`PLANE_ELEMENTS` plane cells,
    bounding memory independently of survivor depth.

    The emitted calls' annotations are vectorised too: DP4 comes from
    one fused bincount over the called columns (:func:`dp4_batch`)
    and strand bias from the batched Fisher kernel
    (:func:`~repro.stats.fisher.strand_bias_phred_batch`), so no
    scalar per-call loop remains on the call path.  Only pairs that
    reach an emitted call touch the strand plane -- and no
    :class:`~repro.pileup.column.PileupColumn` is built for any of it.

    Args:
        batch: the columns the ``survivors`` indices refer to.
        survivors: ``(column index, alt_code, alt_count)`` triples,
            as returned by :func:`screen_batch`.
        corrected_alpha: per-test raw-p-value threshold.
        config: workflow parameters.
        stats: counters, mutated in place.

    Returns:
        The emitted calls (unsorted; the caller sorts).
    """
    calls: List[VariantCall] = []
    if not survivors:
        return calls
    pair_col = np.array([s[0] for s in survivors], dtype=np.int64)
    pair_code = np.array([s[1] for s in survivors], dtype=np.int64)
    pair_count = np.array([s[2] for s in survivors], dtype=np.int64)
    d_pair = batch.depths[pair_col]
    offsets = batch.offsets
    merge = config.merge_mapq
    prune = corrected_alpha if config.early_stop else None
    called_rows: List[np.ndarray] = []
    called_pvalues: List[np.ndarray] = []

    # When survivors cover a sizeable fraction of the batch (the
    # no-approximation regime), one whole-plane table gather beats a
    # per-column gather apiece; otherwise stay sparse.  (Distinct
    # columns by bincount: np.unique would import numpy.ma, ~0.6 MB.)
    survivor_bases = int(
        np.diff(offsets)[np.flatnonzero(np.bincount(pair_col))].sum()
    )
    probs_flat: Optional[np.ndarray] = None
    if survivor_bases * 4 >= int(offsets[-1]):
        if merge:
            probs_flat = merged_qual_prob_table()[batch.quals, batch.mapqs]
        else:
            probs_flat = qual_prob_table()[batch.quals]

    # Survivors are chunked sorted by (k, depth): each step of the
    # batch DP costs (lanes x chunk k_max), so chunks grow greedily
    # under the head-state budget -- a lone high-k lane (a strong
    # variant among k=2 error candidates) lands in its own narrow
    # chunk instead of widening every other lane's head -- and under
    # the plane-cell budget, which bounds memory for deep survivors.
    order = np.lexsort((d_pair, pair_count))
    lo = 0
    while lo < order.size:
        k_max = int(pair_count[order[lo]])
        d_max = int(d_pair[order[lo]])
        hi = lo + 1
        while hi < order.size:
            k_next = max(k_max, int(pair_count[order[hi]]))
            d_next = max(d_max, int(d_pair[order[hi]]))
            rows_next = hi + 1 - lo
            if (
                rows_next * k_next > HEAD_ELEMENTS
                or rows_next * d_next > PLANE_ELEMENTS
            ):
                break
            k_max = k_next
            d_max = d_next
            hi += 1
        rows = order[lo:hi]
        lo = hi
        cols = pair_col[rows]
        ks = pair_count[rows]
        lens = d_pair[rows]
        plane = np.zeros((rows.size, int(lens.max())), dtype=np.float64)
        row_cache: dict = {}
        for r, ci in enumerate(cols.tolist()):
            probs = row_cache.get(ci)
            if probs is None:
                if probs_flat is not None:
                    probs = probs_flat[
                        int(offsets[ci]) : int(offsets[ci + 1])
                    ]
                else:
                    probs = _column_probs(batch, ci, merge)
                row_cache[ci] = probs
            plane[r, : probs.size] = probs
        res = poibin_sf_dp_batch(ks, plane, lens, prune_above=prune)
        stats.dp_invocations += rows.size
        stats.dp_steps += int(res.steps.sum())

        complete = res.complete
        pvalues = res.pvalues
        stats.record_decisions(
            ColumnDecision.EXACT_PRUNED, int((~complete).sum())
        )
        significant = complete & (pvalues < corrected_alpha)
        stats.record_decisions(
            ColumnDecision.EXACT_NOT_SIGNIFICANT,
            int((complete & ~significant).sum()),
        )
        af = ks / lens
        rejected = significant & (
            (ks < config.min_alt_count) | (af < config.min_af)
        )
        stats.record_decisions(
            ColumnDecision.REJECTED_FILTER, int(rejected.sum())
        )
        called = significant & ~rejected
        stats.record_decisions(ColumnDecision.CALLED, int(called.sum()))
        idx = np.nonzero(called)[0]
        if idx.size:
            called_rows.append(rows[idx])
            called_pvalues.append(pvalues[idx])
    if not called_rows:
        return calls

    # Assemble every emitted call's annotations in vectorised passes:
    # DP4 from one bincount over the called columns, strand bias from
    # the batched Fisher kernel.  This is the last stage that was a
    # scalar per-call loop; calls are rare, but variant-dense panels
    # concentrate them in few batches.
    sel = np.concatenate(called_rows)
    pvs = np.concatenate(called_pvalues)
    cols_all = pair_col[sel]
    alts_all = pair_code[sel]
    ks_all = pair_count[sel]
    lens_all = d_pair[sel]
    ref_codes = batch.ref_codes.astype(np.int64)
    rf, rr, af_fwd, ar = dp4_batch(
        batch, cols_all, ref_codes[cols_all], alts_all
    )
    sb = strand_bias_phred_batch(rf, rr, af_fwd, ar)
    corrected = np.minimum(1.0, pvs / corrected_alpha * config.alpha)
    afs = ks_all / lens_all
    for j in range(sel.size):
        ci = int(cols_all[j])
        calls.append(
            VariantCall(
                chrom=batch.chrom,
                pos=int(batch.positions[ci]),
                ref=batch.ref_bases[ci],
                alt=CODE_TO_BASE[int(alts_all[j])],
                pvalue=float(pvs[j]),
                corrected_pvalue=float(corrected[j]),
                depth=int(lens_all[j]),
                alt_count=int(ks_all[j]),
                af=float(afs[j]),
                dp4=(int(rf[j]), int(rr[j]), int(af_fwd[j]), int(ar[j])),
                strand_bias=float(sb[j]),
                used_exact=True,
            )
        )
    return calls


def evaluate_batch(
    batch: ColumnBatch,
    corrected_alpha: float,
    config: CallerConfig,
    stats: RunStats,
) -> List[VariantCall]:
    """Evaluate one :class:`~repro.pileup.column.ColumnBatch` natively.

    The whole Figure 1b workflow as array passes: the gather/screen
    stage is :func:`screen_batch`, the exact stage is
    :func:`exact_batch` -- so neither screened-out columns nor
    exact-DP survivors materialise any per-column Python object, under
    every configuration including ``merge_mapq``.  Calls, decisions
    and censuses match the streaming engine exactly (see the module
    docstring for why).
    """
    n = batch.n_columns
    offsets = batch.offsets
    if n > BATCH_COLUMNS or int(offsets[-1]) > BATCH_BASES:
        # Bound the screen's per-column histograms (256 bins each) to
        # a constant number of columns, exactly like the loose-column
        # buffering path, and its per-base key arrays to a constant
        # number of bases (at least one column per slice).
        calls: List[VariantCall] = []
        lo = 0
        while lo < n:
            hi = int(
                np.searchsorted(offsets, offsets[lo] + BATCH_BASES, "right")
            ) - 1
            hi = min(max(hi, lo + 1), lo + BATCH_COLUMNS, n)
            sub = batch.slice_columns(lo, hi)
            survivors = screen_batch(sub, corrected_alpha, config, stats)
            calls.extend(
                exact_batch(sub, survivors, corrected_alpha, config, stats)
            )
            lo = hi
        return calls
    survivors = screen_batch(batch, corrected_alpha, config, stats)
    return exact_batch(batch, survivors, corrected_alpha, config, stats)


class _PackBuffer:
    """Reusable flat planes for packing loose columns into a batch.

    ``evaluate_columns_batched`` flushes a pack every
    :data:`BATCH_COLUMNS` columns; allocating four fresh flat arrays
    per flush (the old ``ColumnBatch.from_columns`` path) churns the
    allocator under the thread backend.  One buffer per thread is kept
    and grown geometrically instead; the packed batch holds *views*
    into it, valid until the next :meth:`pack` on the same thread --
    exactly the lifetime of one ``evaluate_batch`` call, which fully
    consumes the batch before the next flush starts.
    """

    __slots__ = ("codes", "quals", "rev", "mapqs")

    def __init__(self) -> None:
        self.codes = np.empty(0, dtype=np.uint8)
        self.quals = np.empty(0, dtype=np.uint8)
        self.rev = np.empty(0, dtype=bool)
        self.mapqs = np.empty(0, dtype=np.uint8)

    def pack(self, columns: List[PileupColumn]) -> ColumnBatch:
        """Pack per-column objects into one batch backed by the
        reusable buffers (same layout as
        :meth:`ColumnBatch.from_columns`)."""
        depths = np.array([c.depth for c in columns], dtype=np.int64)
        offsets = np.zeros(len(columns) + 1, dtype=np.int64)
        np.cumsum(depths, out=offsets[1:])
        total = int(offsets[-1])
        if self.codes.size < total:
            size = max(total, 2 * self.codes.size)
            self.codes = np.empty(size, dtype=np.uint8)
            self.quals = np.empty(size, dtype=np.uint8)
            self.rev = np.empty(size, dtype=bool)
            self.mapqs = np.empty(size, dtype=np.uint8)
        for i, c in enumerate(columns):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            self.codes[lo:hi] = c.base_codes
            self.quals[lo:hi] = c.quals
            self.rev[lo:hi] = c.reverse
            self.mapqs[lo:hi] = c.mapqs
        return ColumnBatch(
            chrom=columns[0].chrom,
            positions=np.array([c.pos for c in columns], dtype=np.int64),
            ref_bases="".join(c.ref_base for c in columns),
            base_codes=self.codes[:total],
            quals=self.quals[:total],
            reverse=self.rev[:total],
            mapqs=self.mapqs[:total],
            offsets=offsets,
            n_capped=np.array([c.n_capped for c in columns], dtype=np.int64),
        )


_PACK_LOCAL = threading.local()


def _pack_columns(columns: List[PileupColumn]) -> ColumnBatch:
    """Pack a non-empty same-chromosome run through this thread's
    reusable :class:`_PackBuffer`."""
    buffer = getattr(_PACK_LOCAL, "buffer", None)
    if buffer is None:
        buffer = _PACK_LOCAL.buffer = _PackBuffer()
    return buffer.pack(columns)


def evaluate_columns_batched(
    columns: Iterable[PileupColumn],
    corrected_alpha: float,
    config: CallerConfig,
    stats: RunStats,
) -> List[VariantCall]:
    """Chunk-level equivalent of looping
    :func:`~repro.core.workflow.evaluate_column` over ``columns``.

    Compatibility shim for loose per-column inputs: consecutive
    same-chromosome runs are packed into a
    :class:`~repro.pileup.column.ColumnBatch` and fed to
    :func:`evaluate_batch`, so loose columns and native batches run
    the identical columnar engine.  Packs go through a reusable
    per-thread buffer (:class:`_PackBuffer`) instead of allocating
    four fresh flat arrays per flush.

    Args:
        columns: the chunk's pileup columns, any order (a chromosome
            change starts a new pack).
        corrected_alpha: per-test raw-p-value threshold.
        config: workflow parameters (``config.engine`` is not consulted
            here -- dispatch happens in the caller).
        stats: counters, mutated in place; ends up with the same counts
            the streaming engine would produce.

    Returns:
        The emitted calls (unsorted; the caller sorts).
    """
    calls: List[VariantCall] = []
    run: List[PileupColumn] = []
    for column in columns:
        if run and column.chrom != run[0].chrom:
            calls.extend(
                evaluate_batch(
                    _pack_columns(run), corrected_alpha, config, stats
                )
            )
            run = []
        run.append(column)
    if run:
        calls.extend(
            evaluate_batch(
                _pack_columns(run), corrected_alpha, config, stats
            )
        )
    return calls
