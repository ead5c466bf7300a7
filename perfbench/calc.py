"""The benchmark's own arithmetic: percentiles, ratios and set overlaps.

Pure functions over plain numbers, so they are unit-tested on their
own (``perfbench/tests``).
"""

from __future__ import annotations

import statistics
from typing import Hashable, Iterable, Sequence, Set, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(
    samples: Sequence[float], pct: int = 90, min_beyond: int = 10
) -> Tuple[float, float, int]:
    """The ``pct`` percentile when at least ``min_beyond`` samples lie
    beyond it, otherwise the median.

    Nearest-rank definition: the p-th percentile of ``n`` sorted samples
    is the one at rank ``ceil(p * n / 100)``, leaving ``n - rank``
    samples beyond it (for p90, ten or more once ``n >= 100``).  Fewer
    samples support no tail figure: the largest of a handful of calls
    is one outlier, and it spread 0.38 of its median over runs of the
    same code, so such runs report their median and say so.  Lowering
    the percentile until ten samples lie beyond it would make which
    percentile is reported change with the sample count.
    Returns ``(value, percentile reported, samples beyond it)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-pct * n // 100))
    if n - rank >= min_beyond:
        return float(ordered[rank - 1]), float(pct), n - rank
    return median(ordered), 50.0, n // 2


def jaccard(a: Set[Hashable], b: Set[Hashable]) -> float:
    """|a & b| / |a | b|; two empty sets agree perfectly."""
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def reinflate_ratio(blocks_inflated: int, distinct_blocks: int) -> float:
    """BGZF blocks inflated per distinct block the run read: 1.0 means
    every block was inflated exactly once."""
    return ratio(blocks_inflated, distinct_blocks)


def repeat_share(keys: Iterable[Hashable]) -> float:
    """Share of requests that exactly repeat an earlier request."""
    seen: Set[Hashable] = set()
    repeats = total = 0
    for key in keys:
        total += 1
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return ratio(repeats, total)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def vcf_keys(text: str) -> Set[Tuple[str, int, str, str]]:
    """PASS (or unfiltered) call identities ``(chrom, pos, ref, alt)``
    of VCF text."""
    keys = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[6] in ("PASS", "."):
            keys.add((fields[0], int(fields[1]), fields[3], fields[4]))
    return keys


def reads_overlapping(starts, read_length: int, start: int, end: int) -> int:
    """Reads (sorted 0-based ``starts``) overlapping the 1-based
    inclusive span ``start..end``."""
    import numpy as np

    lo = np.searchsorted(starts, start - read_length, side="left")
    hi = np.searchsorted(starts, end - 1, side="right")
    return int(hi - lo)
