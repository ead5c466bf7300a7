"""Tests for the benchmark's own arithmetic.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calc  # noqa: E402
import calib  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402


# -- percentiles ----------------------------------------------------------------


def test_p90_at_100_samples_leaves_exactly_ten_beyond():
    samples = list(range(1, 101))
    value, pct, beyond = calc.tail_percentile(samples)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(1 for x in samples if x > value) == 10


def test_p90_kept_when_more_than_ten_beyond():
    assert calc.tail_percentile(list(range(1, 1001))) == (900.0, 90.0, 100)


def test_fewer_than_ten_beyond_p90_reports_the_median():
    # 99 samples leave only 9 beyond p90.
    assert calc.tail_percentile(list(range(1, 100))) == (50.0, 50.0, 49)
    assert calc.tail_percentile(list(range(1, 12))) == (6.0, 50.0, 5)
    assert calc.tail_percentile([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0, 2)
    with pytest.raises(ValueError):
        calc.tail_percentile([])


# -- ratios ---------------------------------------------------------------------


def test_reinflate_ratio():
    assert calc.reinflate_ratio(389, 280) == pytest.approx(389 / 280)
    assert calc.reinflate_ratio(280, 280) == 1.0
    assert calc.reinflate_ratio(0, 0) == 0.0


def test_repeat_share_counts_exact_repeats_of_earlier_requests():
    assert calc.repeat_share(["a", "b", "a", "c", "b", "a"]) == pytest.approx(0.5)
    assert calc.repeat_share(["a", "b", "c"]) == 0.0
    assert calc.repeat_share([]) == 0.0


def test_request_plan_is_seeded_and_repeats_the_stated_share():
    plan = serving.request_plan(7, [30000, 30000, 30000])
    assert plan == serving.request_plan(7, [30000, 30000, 30000])
    assert plan != serving.request_plan(8, [30000, 30000, 30000])
    assert calc.repeat_share(plan) == pytest.approx(serving.REPEAT_SHARE, abs=0.03)
    for sample, start, end in plan:
        assert 2 <= start <= end <= 30000
        assert serving.REGION_MIN_BP - 1 <= end - start + 1 <= serving.REGION_MAX_BP


def test_jaccard_and_vcf_keys():
    body = (
        "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n"
        "c\t5\t.\tA\tG\t50\tPASS\t.\nc\t9\t.\tC\tT\t50\tsb\t.\n"
    )
    keys = calc.vcf_keys(body)
    assert keys == {("c", 5, "A", "G")}
    assert calc.jaccard(keys, {("c", 5, "A", "G"), ("c", 7, "T", "A")}) == 0.5
    assert calc.jaccard(set(), set()) == 1.0


def test_reads_overlapping_a_one_based_span():
    starts = np.array([0, 10, 20, 30])  # 0-based, reads of 10 bp
    assert calc.reads_overlapping(starts, 10, 1, 10) == 1  # bases 0..9
    assert calc.reads_overlapping(starts, 10, 10, 11) == 2  # bases 9..10
    assert calc.reads_overlapping(starts, 10, 41, 50) == 0


# -- calibration ----------------------------------------------------------------


def test_calibration_scales_to_the_reference_speed():
    ref = calib.REFERENCE_PROBE_S
    assert calib.factor([ref, ref]) == pytest.approx(1.0)
    # Probes twice as slow as the reference halve the timings between them.
    assert calib.factor([2 * ref]) == pytest.approx(0.5)
    # The scale uses the mean of the probes around the timing.
    assert calib.factor([ref, 3 * ref]) == pytest.approx(0.5)


def test_prober_times_every_cpu_and_stops_its_processes():
    with calib.Prober() as prober:
        assert prober.probe() > 0
        procs = list(prober.procs)
    assert len(procs) == len(os.sched_getaffinity(0))
    assert all(p.returncode == 0 for p in procs)


# -- self time ------------------------------------------------------------------


def rec(layer, tid, start, end, parent=-1):
    return (layer, layer, tid, float(start), float(end), parent)


def test_self_time_subtracts_nested_children():
    records = [
        rec("pipeline", 1, 0, 10),
        rec("pileup", 1, 2, 5, 0),
        rec("bam", 1, 3, 4, 1),
        rec("exact", 1, 6, 8, 0),
    ]
    assert spans.self_times(records) == [5.0, 2.0, 1.0, 2.0]
    share, unattributed = spans.attribute_wall(records, (0.0, 10.0))
    assert share == {"pipeline": 5.0, "pileup": 2.0, "bam": 1.0, "exact": 2.0}
    assert unattributed == 0.0


def test_cross_thread_children_share_the_wall():
    records = [
        rec("pipeline", 1, 0, 10),  # waits on two workers
        rec("bam", 2, 1, 6, 0),
        rec("exact", 3, 4, 9, 0),
    ]
    # The parent is charged only where neither worker runs.
    assert spans.self_times(records) == [2.0, 5.0, 5.0]
    share, unattributed = spans.attribute_wall(records, (0.0, 12.0))
    # [4, 6) has two workers running: one second each.
    assert share == pytest.approx({"pipeline": 2.0, "bam": 4.0, "exact": 4.0})
    assert unattributed == pytest.approx(2.0)
    assert sum(share.values()) + unattributed == pytest.approx(12.0)


def test_children_are_clipped_to_their_parent():
    records = [rec("annotate", 1, 0, 4), rec("pileup", 2, 3, 6, 0)]
    assert spans.self_times(records) == [3.0, 3.0]
    share, unattributed = spans.attribute_wall(records, (1.0, 5.0))
    assert share == pytest.approx({"annotate": 2.0, "pileup": 2.0})
    assert unattributed == pytest.approx(0.0)


def test_worker_balance():
    records = [
        rec("pipeline", 1, 0, 10),
        rec("sched", 2, 0, 1, 0),
        rec("bam", 2, 1, 7, 0),
        rec("sched", 3, 0, 1, 0),
        rec("exact", 3, 1, 3, 0),
    ]
    idle, imbalance = spans.worker_balance(records)
    assert idle == pytest.approx((10 - 6) + (10 - 2))
    assert imbalance == pytest.approx(6 / 4)


def test_tracer_links_worker_threads_to_the_main_threads_span():
    tracer = spans.Tracer()

    def work():
        time.sleep(0.01)

    worker = tracer.timed("bam", "work", work)

    def run():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.timed("pipeline", "run", run)()
    records = tracer.records()
    assert [r[0] for r in records] == ["pipeline", "bam"]
    assert records[1][5] == 0
    assert records[0][2] != records[1][2]
    own = spans.self_times(records)
    assert own[0] < records[0][4] - records[0][3] - 0.009


def test_chrome_trace_has_one_track_per_thread():
    records = [rec("pipeline", 1, 0, 1), rec("bam", 2, 0.5, 0.75, 0)]
    trace = spans.chrome_trace(records, {1: "MainThread", 2: "omp-0"}, 0.0)
    tracks = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert tracks == {1, 2}
    assert names == {"MainThread", "omp-0"}
    bam = [e for e in trace["traceEvents"] if e.get("cat") == "bam"][0]
    assert (bam["ts"], bam["dur"]) == (500000.0, 250000.0)
