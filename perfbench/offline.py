"""The offline workloads: ``repro-lofreq call`` on a whole BAM.

Each call is one fresh process.  A run makes one untimed serial call,
then repeats the workload's call for about ``--seconds`` (at least
:data:`MIN_CALLS` times), with a calibration probe between calls, and
reports medians of the scaled timings; every call's VCF is checked
against the serial one.
"""

from __future__ import annotations

import time
from pathlib import Path

import calc
import calib
import inputs
import procs

#: Calls per run, at least, whatever ``--seconds`` says.
MIN_CALLS = 3
#: Stop starting calls once a run has used this long.
RUN_LIMIT_S = 120.0

#: workload -> (input set, extra ``call`` flags).  Every other CLI
#: default is left alone, so a change of default shows up here the
#: way users see it.
WORKLOADS = {
    "deep_scan": ("deep_scan", []),
    "ultra_deep": ("ultra_deep", []),
    "deep_scan_2w": ("deep_scan", ["--workers", "2"]),
}


#: Serve-layer metrics of a workload that never touches ``serve``.
SERVE_ABSENT = {
    "serve.result_cache_hit_ratio": 0.0,
    "serve.coalesced": 0,
    "serve.warm_source_hit_ratio": 0.0,
    "serve.shard_share_max": 0.0,
    "serve.rejected": 0,
    "serve.repeat_share": 0.0,
}


class Checker:
    """Correctness checks on one run's VCFs: the first VCF a run
    writes is the reference every later one must match byte for byte."""

    def __init__(self, truth) -> None:
        self.truth = {tuple(t) for t in truth}
        self.expected = None
        self.failures = []

    def check(self, res: dict, out: Path) -> float:
        """Check one call; returns its truth Jaccard (0.0 on failure)."""
        if res.get("rc") != 0 or not out.exists():
            self.failures.append(f"call exited {res.get('rc')}")
            return 0.0
        data = out.read_bytes()
        if self.expected is None:
            self.expected = data
        elif data != self.expected:
            self.failures.append("VCF differs from the reference VCF")
            return 0.0
        try:
            return calc.jaccard(calc.vcf_keys(data.decode()), self.truth)
        except (IndexError, ValueError):
            self.failures.append("VCF is malformed")
            return 0.0


def _setup(inp_name: str, seed: int):
    inp = inputs.ensure(procs.ROOT, inp_name, seed)
    sample = inp.samples[0]
    bam, fasta = inp.path(sample, "bam"), inp.path(sample, "fasta")
    return inp, sample, bam, fasta, Checker(sample["truth"])


def serial_reference(bam: str, fasta: str, checker: Checker) -> int:
    """One untimed serial ``call`` of the program under test: it warms
    the page cache and the bytecode cache before anything is timed, and
    its VCF is the run's reference, so every timed call (``--workers
    2`` too) must match serial output.  Returns the calls made (1); a
    failed reference call is one of the checker's failures."""
    out = procs.scratch("serial.vcf")
    checker.check(procs.run_call(["call", bam, "--reference", fasta, "--out", str(out)]), out)
    if checker.failures:
        checker.failures[-1] = f"serial reference call: {checker.failures[-1]}"
    return 1


def run(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics.  Each call's timings are
    scaled by the calibration probes taken right before and after it
    (see ``calib.py``)."""
    inp_name, flags = WORKLOADS[name]
    inp, sample, bam, fasta, checker = _setup(inp_name, seed)
    reference = serial_reference(bam, fasta, checker)
    reference_failed = bool(checker.failures)
    walls, setups, latencies, peaks, jaccards = [], [], [], [], []
    raw_walls, probes = [], []
    calls = 0
    with calib.Prober() as prober:
        probe = prober.probe()
        probes.append(probe)
        t_begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_begin
            # Start another call only if it would end nearer to
            # ``seconds`` than stopping now does.
            typical = calc.median(raw_walls) + probe if raw_walls else 0.0
            if calls >= MIN_CALLS and (elapsed + typical / 2 >= seconds or elapsed > RUN_LIMIT_S):
                break
            calls += 1
            out = procs.scratch("calls.vcf")
            res = procs.run_call(["call", bam, "--reference", fasta, "--out", str(out), *flags])
            before, probe = probe, prober.probe()
            probes.append(probe)
            scale = calib.factor((before, probe))
            failures = len(checker.failures)
            jaccard = checker.check(res, out)
            if res.get("first_decode_s") is None and res.get("rc") == 0:
                checker.failures.append("no BAM record was decoded")
            if len(checker.failures) > failures:
                continue
            raw_walls.append(res["import_s"] + res["main_s"])
            walls.append(raw_walls[-1] * scale)
            setups.append((res["import_s"] + res["first_decode_s"]) * scale)
            latencies.append(res["latency_s"] * scale)
            peaks.append(res["peak_rss_mb"])
            jaccards.append(jaccard)
            out.unlink()
    attempted = reference + calls
    # Without a serial reference no call could be checked against it.
    failed = attempted if reference_failed else calls - len(walls)
    if not walls:
        raise RuntimeError(f"every call failed: {checker.failures}")
    wall = calc.median(walls)
    p90, p90_pct, beyond = calc.tail_percentile([x * 1000 for x in latencies])
    metrics = {
        "wall_s": wall,
        "reads_per_s": inp.reads / wall,
        "setup_s": calc.median(setups),
        "peak_mem_mb": calc.median(peaks),
        "truth_jaccard": calc.median(jaccards),
        "request_p50_ms": 1000 * calc.median(latencies),
        "request_p90_ms": p90,
        "requests_per_s": 1 / calc.median(latencies),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures,
        "notes": {
            "calls": len(walls),
            "raw_wall_s": calc.median(raw_walls),
            "probe_s": calc.median(probes),
            "wall_samples": walls,
            "raw_wall_samples": raw_walls,
            "probe_samples": probes,
            "request_p90_percentile": p90_pct,
            "request_p90_samples_beyond": beyond,
            "input_reads": inp.reads,
            "input_columns": inp.columns,
            "input_bam_bytes": inp.bam_bytes,
        },
    }


def run_traced(name: str, seed: int, trace_path: Path) -> dict:
    """Traced run: a traced call between two untraced ones (the
    overhead ratio compares it with their mean, which cancels a steady
    drift of the machine's speed)."""
    inp_name, flags = WORKLOADS[name]
    inp, sample, bam, fasta, checker = _setup(inp_name, seed)
    reference = serial_reference(bam, fasta, checker)
    reference_failed = bool(checker.failures)
    failed = 0
    results = []
    for trace in (None, trace_path, None):
        out = procs.scratch("calls.vcf")
        res = procs.run_call(
            ["call", bam, "--reference", fasta, "--out", str(out), *flags], trace=trace
        )
        failures = len(checker.failures)
        checker.check(res, out)
        failed += len(checker.failures) > failures
        results.append(res)
    before, traced, after = results
    if "trace" not in traced:
        raise RuntimeError(f"traced call failed: {checker.failures}")
    summary = traced["trace"]
    metrics = dict(summary["metrics"])
    metrics["trace.overhead_ratio"] = traced["main_s"] / ((before["main_s"] + after["main_s"]) / 2)
    metrics.update(SERVE_ABSENT)
    return {
        "metrics": metrics,
        "attempted": reference + len(results),
        "failed": reference + len(results) if reference_failed else failed,
        "failures": checker.failures,
        "summary": summary,
        "notes": {
            "input_reads": inp.reads,
            "input_columns": inp.columns,
            "input_bam_bytes": inp.bam_bytes,
        },
    }
