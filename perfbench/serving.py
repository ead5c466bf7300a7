"""The ``region_serve`` workload: region requests against ``serve``.

One client process (this one) holds :data:`CLIENTS` TCP connections in
a closed loop: each connection sends its next request when the reply to
the previous one arrives.  Requests name regions of several
single-contig sample BAMs; a stated share of them repeats an earlier
request exactly, which the server's result cache answers without
decoding anything.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

import calc
import calib
import inputs
import procs

CLIENTS = 2
#: The request mix is assumed, not measured: no request log or traffic
#: measurement of ``serve`` exists to take it from (see NOTES.md).
#: Share of requests that repeat an earlier request exactly, drawn from
#: the last REPEAT_WINDOW fresh ones (well inside the server's default
#: 256-entry result cache, however long the run).
REPEAT_SHARE = 0.3
REPEAT_WINDOW = 64
#: Region sizes, log-uniform between these.
REGION_MIN_BP, REGION_MAX_BP = 100, 2000
#: Timed requests per run, at least, whatever ``--seconds`` says.
MIN_REQUESTS = 100
#: Seconds of closed-loop requests between two calibration probes.
SEGMENT_S = 3.0
#: Requests per phase of the traced run (untraced, then traced).
TRACED_REQUESTS = 100
#: Server start-ups timed per run (``setup_s`` is their median).
SETUP_SPAWNS = 3
#: Served bodies re-checked against an offline ``call --region``.
CHECKED_FRESH, CHECKED_REPEATS = 1, 1
PLAN_LENGTH = 5000

Region = Tuple[int, int, int]  # (sample index, 1-based start, inclusive end)


def request_plan(seed: int, lengths: List[int], n: int = PLAN_LENGTH) -> List[Region]:
    """The seeded request sequence: region sizes log-uniform in
    [REGION_MIN_BP, REGION_MAX_BP], starts past the first base (so every
    fresh request seeks), and REPEAT_SHARE exact repeats of recent
    fresh requests."""
    rng = random.Random(seed)
    fresh: List[Region] = []
    plan: List[Region] = []
    for _ in range(n):
        if fresh and rng.random() < REPEAT_SHARE:
            plan.append(rng.choice(fresh[-REPEAT_WINDOW:]))
            continue
        sample = rng.randrange(len(lengths))
        size = int(math.exp(rng.uniform(math.log(REGION_MIN_BP), math.log(REGION_MAX_BP))))
        start = rng.randint(2, lengths[sample] - size + 1)
        region = (sample, start, start + size - 1)
        fresh.append(region)
        plan.append(region)
    return plan


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inp = inputs.ensure(procs.ROOT, "region_serve", seed)
        self.samples = self.inp.samples
        self.plan = request_plan(seed, [s["length"] for s in self.samples])
        self.sent = 0
        self.errors: List[str] = []

    def payload(self, region: Region) -> dict:
        sample = self.samples[region[0]]
        return {
            "bam": self.inp.path(sample, "bam"),
            "reference": self.inp.path(sample, "fasta"),
            "region": f"{sample['contig']}:{region[1]}-{region[2]}",
        }

    def warm_up(self, server: procs.Server) -> float:
        """One seek request per BAM; returns spawn-to-last-reply seconds."""
        conn = procs.Connection(server.port)
        try:
            for i, sample in enumerate(self.samples):
                self.sent += 1
                reply = conn.roundtrip(self.payload((i, 1001, 1100)))
                if reply.get("status") != "ok":
                    self.errors.append(f"warm-up: {reply.get('error')}")
        finally:
            conn.close()
        return time.perf_counter() - server.spawned

    def closed_loop(
        self,
        server: procs.Server,
        start: int = 0,
        stop_at: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list:
        """Drive the plan from request ``start`` with CLIENTS closed-loop
        connections.

        Stops issuing at request ``limit``, or once ``perf_counter()``
        passes ``stop_at``.  Returns one outcome ``(t_send, t_reply,
        reply or None)`` per request of the plan, None for those not
        issued.
        """
        counter = itertools.count(start)
        lock = threading.Lock()
        outcomes: list = [None] * len(self.plan)

        def client() -> None:
            conn = procs.Connection(server.port)
            try:
                while True:
                    with lock:
                        i = next(counter)
                    if i >= len(self.plan) or (limit is not None and i >= limit):
                        return
                    if stop_at is not None and time.perf_counter() >= stop_at:
                        return
                    t0 = time.perf_counter()
                    try:
                        reply = conn.roundtrip(self.payload(self.plan[i]))
                    except (OSError, ValueError) as exc:
                        outcomes[i] = (t0, time.perf_counter(), None)
                        self.errors.append(f"request {i}: {exc}")
                        return
                    outcomes[i] = (t0, time.perf_counter(), reply)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        done = [o for o in outcomes if o is not None]
        self.sent += len(done)
        for i, o in enumerate(outcomes):
            if o is not None and o[2] is not None and o[2].get("status") != "ok":
                self.errors.append(f"request {i}: {o[2].get('kind')}: {o[2].get('error')}")
        return outcomes

    def check_sample(self, outcomes: list) -> None:
        """Compare a seeded sample of served bodies with an offline
        ``call --region`` of the same region."""
        import repro.cli

        ok = [
            i for i, o in enumerate(outcomes)
            if o is not None and o[2] is not None and o[2].get("status") == "ok"
        ]
        first = {}
        for i in ok:
            first.setdefault(self.plan[i], i)
        fresh = [i for i in ok if first[self.plan[i]] == i]
        repeats = [i for i in ok if first[self.plan[i]] != i]
        rng = random.Random(self.seed + 1)
        chosen = rng.sample(fresh, min(CHECKED_FRESH, len(fresh)))
        chosen += rng.sample(repeats, min(CHECKED_REPEATS, len(repeats)))
        for i in chosen:
            payload = self.payload(self.plan[i])
            out = procs.scratch("region.vcf")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = repro.cli.main(
                    ["call", payload["bam"], "--reference", payload["reference"],
                     "--region", payload["region"], "--out", str(out)]
                )
            if rc != 0 or not out.exists() or out.read_text() != outcomes[i][2]["body"]:
                self.errors.append(f"request {i}: served body differs from offline call")
            out.unlink(missing_ok=True)

    def truth_jaccard(self, outcomes: list) -> float:
        called, regions = set(), set()
        for i, o in enumerate(outcomes):
            if o is None or o[2] is None or o[2].get("status") != "ok":
                continue
            region = self.plan[i]
            regions.add(region)
            called |= {(region[0],) + key[1:] for key in calc.vcf_keys(o[2]["body"])}
        truth = {
            (r[0], pos, ref, alt)
            for r in regions
            for _, pos, ref, alt in self.samples[r[0]]["truth"]
            if r[1] <= pos <= r[2]
        }
        return calc.jaccard(called, truth)

    def reads(self, outcomes: list) -> int:
        starts = [self.inp.starts(s) for s in self.samples]
        total = 0
        for i, o in enumerate(outcomes):
            if o is not None and o[2] is not None:
                sample, start, end = self.plan[i]
                total += calc.reads_overlapping(
                    starts[sample], self.samples[sample]["read_length"], start, end
                )
        return total


def _phase(outcomes: list) -> Tuple[float, list]:
    done = [o for o in outcomes if o is not None]
    return max(o[1] for o in done) - min(o[0] for o in done), done


def _timed_phase(wl: Workload, server: procs.Server, prober: calib.Prober,
                 probes: list, seconds: float) -> Tuple[list, list, list]:
    """The timed requests: closed-loop segments of SEGMENT_S with a
    calibration probe after each, until ``seconds`` have passed and
    MIN_REQUESTS were issued.  The first probe is the last of
    ``probes``; each new one is appended.  Returns the plan-aligned
    outcomes, the scale of each request's segment, and ``(raw seconds,
    scale)`` per segment."""
    outcomes: list = [None] * len(wl.plan)
    scales: list = [None] * len(wl.plan)
    segments = []
    start = 0
    t_begin = time.perf_counter()
    while start < MIN_REQUESTS or time.perf_counter() - t_begin < seconds:
        seg = wl.closed_loop(server, start, stop_at=time.perf_counter() + SEGMENT_S)
        probes.append(prober.probe())
        scale = calib.factor(probes[-2:])
        issued = [i for i, o in enumerate(seg) if o is not None]
        if not issued:
            wl.errors.append(f"no request issued from request {start} on")
            break
        for i in issued:
            outcomes[i], scales[i] = seg[i], scale
        segments.append((_phase(seg)[0], scale))
        start = issued[-1] + 1
    return outcomes, scales, segments


def run(seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics, every timing scaled by the
    calibration probes around it (see ``calib.py``)."""
    wl = Workload(seed)
    setups, raw_setups = [], []
    with calib.Prober() as prober:
        probe = prober.probe()
        probes = [probe]
        for spawn in range(SETUP_SPAWNS):
            server = procs.Server()
            try:
                raw_setups.append(wl.warm_up(server))
                before, probe = probe, prober.probe()
                probes.append(probe)
                setups.append(raw_setups[-1] * calib.factor((before, probe)))
                if spawn == SETUP_SPAWNS - 1:
                    outcomes, scales, segments = _timed_phase(wl, server, prober, probes, seconds)
                    peak = server.peak_rss_mb()
            finally:
                server.stop()
    raw_phase = sum(raw for raw, _ in segments)
    phase = sum(raw * scale for raw, scale in segments)
    done = [i for i, o in enumerate(outcomes) if o is not None]
    # A failed request misses any latency target: it counts as having
    # waited the whole phase.
    latencies = [
        (outcomes[i][1] - outcomes[i][0]) * scales[i]
        if outcomes[i][2] is not None and outcomes[i][2].get("status") == "ok" else phase
        for i in done
    ]
    wl.check_sample(outcomes)
    p90, p90_pct, beyond = calc.tail_percentile([x * 1000 for x in latencies])
    keys = [wl.plan[i] for i in done]
    metrics = {
        "wall_s": sum(latencies) / len(latencies),
        "reads_per_s": wl.reads(outcomes) / phase,
        "setup_s": calc.median(setups),
        "peak_mem_mb": peak,
        "truth_jaccard": wl.truth_jaccard(outcomes),
        "request_p50_ms": 1000 * calc.median(latencies),
        "request_p90_ms": p90,
        "requests_per_s": len(done) / phase,
    }
    return {
        "metrics": metrics,
        "attempted": wl.sent,
        "failed": len(wl.errors),
        "failures": wl.errors,
        "notes": {
            "timed_requests": len(latencies),
            "segments": len(segments),
            "raw_requests_per_s": len(done) / raw_phase,
            "probe_s": calc.median(probes),
            "segment_scales": [scale for _, scale in segments],
            "request_p90_percentile": p90_pct,
            "request_p90_samples_beyond": beyond,
            "repeat_share": calc.repeat_share(keys),
            "setup_samples": setups,
            "raw_setup_samples": raw_setups,
            "input_reads": wl.inp.reads,
            "input_columns": wl.inp.columns,
            "input_bam_bytes": wl.inp.bam_bytes,
        },
    }


def run_traced(seed: int, trace_path: Path) -> dict:
    """Traced run: the same TRACED_REQUESTS against a traced server
    between two untraced ones."""
    wl = Workload(seed)
    phases = []
    for trace in (None, trace_path, None):
        server = procs.Server(trace=trace)
        try:
            wl.warm_up(server)
            outcomes = wl.closed_loop(server, limit=TRACED_REQUESTS)
            phases.append(_phase(outcomes)[0])
            if trace is not None:
                traced_outcomes = outcomes
                conn = procs.Connection(server.port)
                try:
                    stats = conn.roundtrip({"op": "stats"})["stats"]
                finally:
                    conn.close()
        finally:
            stopped = server.stop()
        if trace is not None:
            result = stopped
    if "trace" not in result:
        raise RuntimeError("traced server wrote no trace summary")
    wl.check_sample(traced_outcomes)
    summary = result["trace"]
    metrics = dict(summary["metrics"])
    workers = stats["workers"]
    executed = [w["executed"] for w in workers]
    warm_hits = sum(w["warm_source_hits"] for w in workers)
    warm_total = warm_hits + sum(w["warm_source_misses"] for w in workers)
    keys = [wl.plan[i] for i, o in enumerate(traced_outcomes) if o is not None]
    metrics.update(
        {
            "serve.result_cache_hit_ratio": calc.ratio(
                stats["result_cache_hits"], stats["requests_total"]
            ),
            "serve.coalesced": stats["coalesced"],
            "serve.warm_source_hit_ratio": calc.ratio(warm_hits, warm_total),
            "serve.shard_share_max": calc.ratio(max(executed), sum(executed)),
            "serve.rejected": stats["rejected"],
            "serve.repeat_share": calc.repeat_share(keys),
            "trace.overhead_ratio": phases[1] / ((phases[0] + phases[2]) / 2),
        }
    )
    return {
        "metrics": metrics,
        "attempted": wl.sent,
        "failed": len(wl.errors),
        "failures": wl.errors,
        "summary": summary,
        "notes": {
            "server_stats": stats,
            "input_reads": wl.inp.reads,
            "input_columns": wl.inp.columns,
            "input_bam_bytes": wl.inp.bam_bytes,
        },
    }
