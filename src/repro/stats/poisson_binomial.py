"""Exact Poisson-binomial tail probabilities.

Given per-read error probabilities ``p_1..p_d`` the error count ``X``
at a pileup column follows a Poisson-binomial distribution.  LoFreq
tests ``P(X >= K)`` for ``K`` observed mismatches with the recurrence
from the paper (Section II-A)::

    P_n(X = k) = P_{n-1}(X = k) (1 - p_n) + P_{n-1}(X = k - 1) p_n

Three implementations live here:

* :func:`poibin_pmf_dp` -- the full O(d^2) dynamic program returning
  the complete pmf (used by Figure 1a and as a reference).
* :func:`poibin_sf_dp` -- the production tail computation.  It keeps
  only ``P_n(X = 0..K-1)`` (O(K) memory), accumulates
  ``P(X >= K)`` incrementally and applies LoFreq's early-stop pruning:
  the running tail is monotonically non-decreasing in ``n`` (adding a
  Bernoulli can only push mass rightwards), so as soon as it exceeds
  the significance threshold the column can be declared
  not-significant without finishing the DP.
* :func:`poibin_sf_dp_batch` -- the 2-D twin of :func:`poibin_sf_dp`:
  one DP over many (k, probability-row) lanes at once, sweeping the
  read axis with whole-matrix operations and masking lanes out as
  their early stop fires.  Bit-for-bit identical to running the
  scalar DP per lane (see its docstring for why), which is what lets
  the batched caller engine run its exact stage without lifting
  survivors into per-column Python objects.
* :func:`poibin_sf_brute_force` -- 2^d enumeration, the ground-truth
  oracle for property tests (d <= ~18).

The DP bodies are NumPy-vectorised over ``k`` so each of the ``d``
steps is one fused array operation; this is the "cache-friendly single
array sweep" whose memory behaviour :mod:`repro.cachesim` models.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "poibin_pmf_dp",
    "poibin_sf_dp",
    "poibin_sf_dp_batch",
    "poibin_sf",
    "poibin_sf_brute_force",
    "poibin_mean_variance",
    "BatchDpResult",
    "DpResult",
]


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"probabilities must be 1-D, got shape {p.shape}")
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return p


def poibin_mean_variance(probs: np.ndarray) -> Tuple[float, float]:
    """Mean and variance of the Poisson-binomial: ``(sum p, sum p(1-p))``."""
    p = _validate_probs(probs)
    return float(p.sum()), float((p * (1.0 - p)).sum())


def poibin_pmf_dp(probs: np.ndarray) -> np.ndarray:
    """Full pmf ``P(X = 0..d)`` by the O(d^2) recurrence.

    Returns an array of length ``d + 1`` summing to 1 (up to float
    round-off).
    """
    p = _validate_probs(probs)
    d = p.size
    pmf = np.zeros(d + 1, dtype=np.float64)
    pmf[0] = 1.0
    for n in range(d):
        pn = p[n]
        # P_n(k) = P_{n-1}(k)(1-pn) + P_{n-1}(k-1)pn, done as one
        # vectorised shift-multiply-add over the first n+2 entries.
        upper = n + 2
        prev = pmf[:upper].copy()
        pmf[:upper] = prev * (1.0 - pn)
        pmf[1:upper] += prev[:-1] * pn
    return pmf


class DpResult:
    """Outcome of the pruned tail DP.

    Attributes:
        pvalue: ``P(X >= k)`` if the DP ran to completion, otherwise a
            *lower bound* that already exceeds the pruning threshold.
        complete: whether the DP processed all ``d`` reads.
        steps: number of reads processed (equals ``d`` when complete);
            the work measure Table I's runtime model is built on.
    """

    __slots__ = ("pvalue", "complete", "steps")

    def __init__(self, pvalue: float, complete: bool, steps: int) -> None:
        self.pvalue = pvalue
        self.complete = complete
        self.steps = steps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DpResult(pvalue={self.pvalue:.3g}, complete={self.complete}, "
            f"steps={self.steps})"
        )


def poibin_sf_dp(
    k: int,
    probs: np.ndarray,
    *,
    prune_above: Optional[float] = None,
) -> DpResult:
    """``P(X >= k)`` by the truncated O(d * k) dynamic program.

    Only ``P_n(X = 0..k-1)`` is maintained; the tail mass is
    accumulated as it leaks past ``k - 1``.  If ``prune_above`` is
    given and the running tail exceeds it, the DP stops early: the true
    p-value can only be larger, so the caller (which compares against a
    significance level) already knows the verdict.  This reproduces
    LoFreq's early-stopping behaviour the paper mentions in the
    Discussion ("conditions for early stopping that work especially
    well on shallow columns").

    Args:
        k: observed mismatch count (the tail starts here, inclusive).
        probs: per-read error probabilities.
        prune_above: optional early-stop threshold (e.g. the Bonferroni
            corrected alpha).

    Returns:
        A :class:`DpResult`; ``pvalue`` is exact iff ``complete``.
    """
    p = _validate_probs(probs)
    d = p.size
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return DpResult(1.0, True, 0)
    if k > d:
        return DpResult(0.0, True, 0)

    # head[j] = P_n(X = j) for j in 0..k-1; tail = P_n(X >= k).
    head = np.zeros(k, dtype=np.float64)
    head[0] = 1.0
    low, high = head[:-1], head[1:]
    shifted = np.empty(k - 1, dtype=np.float64)
    tail = 0.0
    for n, pn in enumerate(p.tolist()):
        if pn == 0.0:
            continue
        # Mass leaking from head[k-1] past the boundary joins the tail.
        tail += float(head[k - 1]) * pn
        # head[j] = head[j] * (1 - pn) + head[j - 1] * pn, in place.
        np.multiply(low, pn, out=shifted)
        head *= 1.0 - pn
        high += shifted
        if prune_above is not None and tail > prune_above:
            return DpResult(tail, False, n + 1)
    return DpResult(tail, True, d)


class BatchDpResult:
    """Per-lane outcome of the batched tail DP.

    Attributes:
        pvalues: float64 array; lane ``i`` holds ``P(X >= k_i)`` when
            ``complete[i]``, otherwise the lower bound at which the
            lane's early stop fired.
        complete: bool array, True where the lane's DP ran over all of
            its reads.
        steps: int64 array of reads processed per lane (equals the
            lane's length when complete).
    """

    __slots__ = ("pvalues", "complete", "steps")

    def __init__(
        self, pvalues: np.ndarray, complete: np.ndarray, steps: np.ndarray
    ) -> None:
        self.pvalues = pvalues
        self.complete = complete
        self.steps = steps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchDpResult(lanes={self.pvalues.size}, "
            f"complete={int(self.complete.sum())}, "
            f"steps={int(self.steps.sum())})"
        )


#: Rows are compacted out of the batched DP's working set whenever the
#: still-running fraction drops below this; keeps the per-step matrix
#: work proportional to the lanes that are actually alive.
_COMPACT_FRACTION = 0.5

#: Sweep steps per cached probability block.  Reading a plane *column*
#: per step would cost one cache miss per lane; instead the sweep
#: copies (lanes x _SWEEP_BLOCK) slabs -- contiguous row segments, one
#: streaming pass over the plane in total -- and serves the per-step
#: columns out of the cache-resident slab.
_SWEEP_BLOCK = 128

#: Batches of at most this many running lanes take the scalar DP lane
#: by lane: at depth 3000 four scalar lanes took 42 ms against 62 ms
#: for the sweep, which wins from about eight lanes on.
_SCALAR_LANES = 4


def poibin_sf_dp_batch(
    ks: np.ndarray,
    probs: np.ndarray,
    lengths: Optional[np.ndarray] = None,
    *,
    prune_above: Optional[float] = None,
) -> BatchDpResult:
    """Run :func:`poibin_sf_dp` over many lanes in one 2-D sweep.

    Lane ``i`` is the pair ``(ks[i], probs[i, :lengths[i]])``; the
    plane is zero-padded on the right so ragged depths share one
    matrix.  The result is **bit-for-bit** what the scalar DP returns
    per lane -- pvalues, completion flags and step counts alike:

    * the per-step recurrence is the scalar one evaluated elementwise
      (same multiply/add order, float64 throughout);
    * each lane's ``k``-wide head buffer is right-aligned at a shared
      boundary column, so the uniform shift-multiply-add touches only
      zeros left of a lane's own head -- and for the non-negative DP
      state ``x * 1.0`` and ``x + 0.0`` are bitwise identity, making
      the zero padding (and frozen lanes) exact no-ops;
    * the early stop is checked per lane exactly where the scalar
      loop checks it (after every step with a non-zero probability),
      freezing the lane's pvalue and step count at that point.

    Lanes whose early stop has fired are masked out of further
    updates, and the working set is compacted whenever the live
    fraction halves, so a batch of mostly-prunable lanes does not pay
    for its slowest member.

    Example -- two ragged lanes, one shared zero-padded plane::

        >>> import numpy as np
        >>> plane = np.zeros((2, 4))
        >>> plane[0, :4] = 0.01   # lane 0: 4 reads at p = 0.01
        >>> plane[1, :2] = 0.20   # lane 1: 2 reads at p = 0.20
        >>> res = poibin_sf_dp_batch(
        ...     np.array([2, 1]), plane, np.array([4, 2]))
        >>> bool(res.complete.all())
        True
        >>> np.allclose(res.pvalues[1], 1 - 0.8 * 0.8)
        True

    Args:
        ks: int array of tail points, one per lane.
        probs: 2-D float64 plane, one row of per-read error
            probabilities per lane, zero-padded past ``lengths``.
        lengths: per-lane read counts; defaults to the full row width.
        prune_above: optional early-stop threshold shared by all lanes
            (e.g. the Bonferroni-corrected alpha).

    Returns:
        A :class:`BatchDpResult` with one entry per lane.

    Raises:
        ValueError: on shape mismatches, out-of-range probabilities,
            negative ``ks``, or non-zero padding past ``lengths``.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"probs must be 2-D (lanes, reads), got {p.shape}")
    m, width = p.shape
    ks_arr = np.asarray(ks, dtype=np.int64)
    if ks_arr.shape != (m,):
        raise ValueError(f"ks must have shape ({m},), got {ks_arr.shape}")
    if m and np.min(ks_arr) < 0:
        raise ValueError("k must be >= 0 in every lane")
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if lengths is None:
        lens_all = np.full(m, width, dtype=np.int64)
    else:
        lens_all = np.asarray(lengths, dtype=np.int64)
        if lens_all.shape != (m,):
            raise ValueError(
                f"lengths must have shape ({m},), got {lens_all.shape}"
            )
        if m and (np.min(lens_all) < 0 or np.max(lens_all) > width):
            raise ValueError("lengths must lie in [0, row width]")
    # One pass over the plane classifies it for the sweep: rows whose
    # zero count equals their padding have all-zero padding and no
    # interior zeros (the hot case -- quality-derived probabilities
    # are never exactly 0), which both validates the padding and
    # licenses the pruning fast path below.
    zeros_per_row = (
        np.count_nonzero(p == 0.0, axis=1) if p.size else np.zeros(m)
    )
    zero_free = bool((zeros_per_row == width - lens_all).all())
    if not zero_free:
        if p.size and p[np.arange(width) >= lens_all[:, None]].any():
            raise ValueError("probs must be zero-padded past lengths")

    pvalues = np.zeros(m, dtype=np.float64)
    complete = np.ones(m, dtype=bool)
    steps = np.zeros(m, dtype=np.int64)
    pvalues[ks_arr == 0] = 1.0  # P(X >= 0) = 1, settled in 0 steps
    # ks > length lanes keep pvalue 0.0 / steps 0, like the scalar DP.
    run = (ks_arr > 0) & (ks_arr <= lens_all)
    sel = np.nonzero(run)[0]
    if sel.size <= _SCALAR_LANES:
        # Too few lanes to amortise the sweep's per-step array calls:
        # the scalar DP gives the same bits in fewer operations.
        for lane in sel.tolist():
            res = poibin_sf_dp(
                int(ks_arr[lane]),
                p[lane, : lens_all[lane]],
                prune_above=prune_above,
            )
            pvalues[lane] = res.pvalue
            complete[lane] = res.complete
            steps[lane] = res.steps
        return BatchDpResult(pvalues, complete, steps)

    # Right-aligned head state: lane i's P(X = j) lives at column
    # k_max - k_i + j, its boundary (j = k_i - 1) at the shared last
    # column.  Columns left of a lane's head hold zeros forever.
    lane_k = ks_arr[sel]
    lane_len = lens_all[sel]
    k_max = int(lane_k.max())
    n_lanes = sel.size
    head = np.zeros((n_lanes, k_max), dtype=np.float64)
    head[np.arange(n_lanes), k_max - lane_k] = 1.0
    tail = np.zeros(n_lanes, dtype=np.float64)
    alive = np.ones(n_lanes, dtype=bool)
    n_alive = n_lanes
    # Lanes complete exactly at n == their length, so the completion
    # scan only needs to run at those step counts.
    len_events = np.flatnonzero(np.bincount(lane_len))
    len_ptr = 0

    def retire(rows: np.ndarray) -> None:
        """Zero out finished lanes so the sweep skips them for free."""
        # Rows of finished lanes are zeroed rather than dropped: the
        # sweep keeps updating them (cheaper than masking every
        # step), but zero state stays zero, so the tail.max() prune
        # gate below never re-fires for them.  Compaction trims them
        # out of the working set wholesale.
        head[rows] = 0.0
        tail[rows] = 0.0
        alive[rows] = False

    n = 0
    block = np.empty((n_lanes, 0), dtype=np.float64)
    block_base = 0
    while n_alive:
        # ``sel`` maps working rows to plane rows; the plane itself is
        # never compacted (it can be the big array) -- working rows
        # are gathered slab by slab: contiguous row segments, one
        # streaming pass over the plane in total, with the per-step
        # columns served out of the cache-resident slab.
        j = n - block_base
        if j >= block.shape[1]:
            block_base = n
            j = 0
            hi = min(n + _SWEEP_BLOCK, width)
            block = p[:, n:hi].copy() if sel.size == m else p[sel, n:hi]
        pn = block[:, j]
        one_minus = 1.0 - pn
        # Mass leaking past each lane's k-1 boundary joins its tail.
        tail += head[:, -1] * pn
        shifted = head[:, :-1] * pn[:, None]
        head[:, 1:] *= one_minus[:, None]
        head[:, 1:] += shifted
        head[:, 0] *= one_minus
        n += 1
        if prune_above is not None and float(tail.max()) > prune_above:
            # The scalar loop only checks after steps with pn > 0; on
            # a zero-free plane that gate is vacuous within a lane's
            # length (and past it the lane's state is already zeroed).
            pruned = tail > prune_above
            if not zero_free:
                pruned &= pn > 0.0
            if pruned.any():
                rows = np.nonzero(pruned)[0]
                lanes = sel[rows]
                pvalues[lanes] = tail[rows]
                complete[lanes] = False
                steps[lanes] = n
                retire(rows)
                n_alive -= rows.size
        if len_ptr < len_events.size and n == int(len_events[len_ptr]):
            len_ptr += 1
            done = alive & (lane_len <= n)
            if done.any():
                rows = np.nonzero(done)[0]
                lanes = sel[rows]
                pvalues[lanes] = tail[rows]
                steps[lanes] = lane_len[rows]
                retire(rows)
                n_alive -= rows.size
        if n_alive and n_alive <= _COMPACT_FRACTION * alive.size:
            rows = np.nonzero(alive)[0]
            lane_k = lane_k[rows]
            lane_len = lane_len[rows]
            sel = sel[rows]
            tail = tail[rows]
            block = block[rows]
            new_k_max = int(lane_k.max())
            head = head[np.ix_(rows, np.arange(k_max - new_k_max, k_max))]
            k_max = new_k_max
            alive = np.ones(rows.size, dtype=bool)
    return BatchDpResult(pvalues, complete, steps)


def poibin_sf(k: int, probs: np.ndarray) -> float:
    """Convenience wrapper: exact ``P(X >= k)`` (no pruning)."""
    return poibin_sf_dp(k, probs).pvalue


def poibin_sf_brute_force(k: int, probs: np.ndarray) -> float:
    """Ground-truth ``P(X >= k)`` by enumerating all 2^d outcomes.

    Only usable for tiny ``d``; exists to anchor the property tests.

    Raises:
        ValueError: for d > 20 (enumeration would be unreasonable).
    """
    p = _validate_probs(probs)
    d = p.size
    if d > 20:
        raise ValueError(f"brute force limited to d <= 20, got {d}")
    if k <= 0:
        return 1.0
    total = 0.0
    for errs in itertools.product((0, 1), repeat=d):
        if sum(errs) >= k:
            prob = 1.0
            for e, pi in zip(errs, p):
                prob *= pi if e else (1.0 - pi)
            total += prob
    return total


def poibin_sf_binomial(k: int, d: int, p: float) -> float:
    """Homogeneous special case ``p_i = p`` (ordinary binomial tail).

    Computed by stable summation in log space; used in tests to check
    the generic DP against an independent formula.
    """
    if k <= 0:
        return 1.0
    if k > d:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    # Sum from the dominant end for accuracy.
    acc = -math.inf
    log_choose = 0.0
    # log C(d, j) built incrementally.
    logs = [0.0] * (d + 1)
    for j in range(1, d + 1):
        log_choose += math.log(d - j + 1) - math.log(j)
        logs[j] = log_choose
    for j in range(k, d + 1):
        term = logs[j] + j * log_p + (d - j) * log_q
        hi, lo = (acc, term) if acc >= term else (term, acc)
        acc = hi + math.log1p(math.exp(lo - hi)) if lo != -math.inf else hi
    return math.exp(acc)
