"""Caller configuration.

:class:`CallerConfig` gathers every knob of the workflow in Figure 1b.
The two presets mirror the paper's comparison:

* :meth:`CallerConfig.original` -- LoFreq as released: exact
  Poisson-binomial test with early-stop pruning, no approximation.
* :meth:`CallerConfig.improved` -- the paper's version: an O(d)
  Poisson first-pass filter skips the exact test when the approximate
  p-value clears the significance level by ``approx_margin`` (0.01)
  and the column is at least ``approx_min_depth`` (100) deep.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["CallerConfig"]


@dataclasses.dataclass(frozen=True)
class CallerConfig:
    """All parameters of the variant-calling workflow.

    Attributes:
        alpha: significance level on the Bonferroni-corrected scale
            (paper/LoFreq default 0.05).
        bonferroni: number of tests to correct for; ``None`` means
            dynamic -- 3 x (region length), LoFreq's default.
        use_approximation: enable the paper's Poisson first-pass filter.
        approx_margin: the conservative safety margin: skip the exact
            test only when ``p_hat_corrected >= alpha + approx_margin``
            (paper: 0.01).
        approx_min_depth: minimum column depth for the approximation
            (paper: 100 -- below that the DP array is cache-resident
            and LoFreq's early stopping already wins).
        adaptive_margin: optional depth-aware margin (the Discussion's
            future-work idea): when set, the margin shrinks as
            ``approx_margin * sqrt(adaptive_margin / depth)`` for
            depths above ``adaptive_margin``, reflecting the Poisson
            approximation's vanishing error at high depth.
        min_coverage: minimum column depth to test at all (LoFreq
            default 10).
        min_alt_count: minimum supporting reads for an emitted call.
        min_af: minimum allele frequency for an emitted call.
        merge_mapq: fold mapping quality into the per-read error
            probability.
        early_stop: enable LoFreq's DP pruning (running tail already
            above threshold => abandon).
        engine: column-evaluation strategy.  ``"batched"`` (the
            default) screens every (column, allele) pair of a chunk in
            one vectorised Poisson-tail pass and only loops over the
            screening survivors; ``"streaming"`` runs the Figure 1b
            workflow one allele at a time and is kept as the reference
            oracle the batched engine is tested against (identical
            calls and decision counts, see :mod:`repro.core.batched`).
    """

    alpha: float = 0.05
    bonferroni: Optional[int] = None
    use_approximation: bool = True
    approx_margin: float = 0.01
    approx_min_depth: int = 100
    adaptive_margin: Optional[int] = None
    min_coverage: int = 10
    min_alt_count: int = 2
    min_af: float = 0.0
    merge_mapq: bool = False
    early_stop: bool = True
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.engine not in ("streaming", "batched"):
            raise ValueError(
                f"engine must be 'streaming' or 'batched', got {self.engine!r}"
            )
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.approx_margin < 0.0:
            raise ValueError(
                f"approx_margin must be >= 0, got {self.approx_margin}"
            )
        if self.approx_min_depth < 0:
            raise ValueError("approx_min_depth must be >= 0")
        if self.bonferroni is not None and self.bonferroni <= 0:
            raise ValueError("bonferroni must be positive when set")
        if self.min_coverage < 0 or self.min_alt_count < 0:
            raise ValueError("count thresholds must be non-negative")
        if not (0.0 <= self.min_af <= 1.0):
            raise ValueError(f"min_af must be in [0, 1], got {self.min_af}")

    # -- presets -----------------------------------------------------------

    @classmethod
    def original(cls, **overrides) -> "CallerConfig":
        """LoFreq as released (no approximation shortcut)."""
        return cls(use_approximation=False, **overrides)

    @classmethod
    def improved(cls, **overrides) -> "CallerConfig":
        """The paper's improved LoFreq (approximation enabled)."""
        return cls(use_approximation=True, **overrides)

    # -- derived quantities --------------------------------------------------

    def n_tests(self, region_length: int) -> int:
        """Bonferroni denominator for a region of the given length."""
        if self.bonferroni is not None:
            return self.bonferroni
        from repro.stats.correction import default_test_count

        return default_test_count(region_length)

    def corrected_alpha(self, region_length: int) -> float:
        """Per-test raw-p-value threshold ``alpha / n_tests``."""
        from repro.stats.correction import bonferroni_alpha

        return bonferroni_alpha(self.alpha, self.n_tests(region_length))

    def margin_for_depth(self, depth: int) -> float:
        """The skip margin at a given depth (constant unless
        ``adaptive_margin`` is enabled)."""
        if self.adaptive_margin is None or depth <= self.adaptive_margin:
            return self.approx_margin
        import math

        return self.approx_margin * math.sqrt(self.adaptive_margin / depth)
