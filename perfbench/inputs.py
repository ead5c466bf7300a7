"""Seeded, cached benchmark inputs.

Every workload's BAM, FASTA and truth set come from ``repro.sim`` with
the benchmark's ``--seed``.  They are cached on disk under
``.perfbench/inputs/``, keyed by the input set's name, the seed and a
digest of the generator settings, so repeated runs on one seed do not
re-simulate.  The program under test only ever receives the files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

#: Generator settings per input set.  ``deep_scan_2w`` reuses the
#: ``deep_scan`` set (the same BAM, called with two workers).
#: ``samples`` > 1 writes that many independent single-contig BAMs.
SPECS = {
    # ROADMAP's deep SARS-CoV-2-like scan (3 kb at 3000x, 12 variants),
    # shrunk to 600 bp so several calls fit in one run: 18k reads.  The
    # variant density is kept (12 per 3 kb is 2.4 per 600 bp), so the
    # exact DP keeps its small share of the wall.
    "deep_scan": dict(
        samples=1, genome_length=600, depth=3000, variants=3,
        min_freq=0.01, max_freq=0.10, read_length=100,
    ),
    # Amplicon-like: every read spans the whole 40 bp contig, so depth
    # is 40000x at every column and true variants sit 1 per 5 bp.
    "ultra_deep": dict(
        samples=1, genome_length=40, depth=40000, variants=8,
        min_freq=0.01, max_freq=0.10, read_length=40,
    ),
    # Serving samples: moderate depth, so the variants are drawn at
    # frequencies that depth can resolve (>= 16 supporting reads).
    "region_serve": dict(
        samples=3, genome_length=30000, depth=40, variants=30,
        min_freq=0.40, max_freq=0.80, read_length=100,
    ),
}

#: Bumped whenever the way inputs are written changes.
LAYOUT_VERSION = 2


def _digest(settings: dict) -> str:
    blob = json.dumps({"v": LAYOUT_VERSION, **settings}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:10]


def sample_seed(seed: int, index: int) -> int:
    """Independent per-sample seed derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write_sample(directory: Path, name: str, spec: dict, seed: int) -> dict:
    from repro.io.fasta import write_fasta
    from repro.sim import (
        QualityModel,
        ReadSimulator,
        VariantPanel,
        random_panel,
        sars_cov_2_like,
    )

    genome = sars_cov_2_like(length=spec["genome_length"], seed=seed)
    length, read_length = spec["genome_length"], spec["read_length"]
    # Read starts are uniform over [0, length - read_length], so
    # coverage ramps up near the contig ends; keep the truth set where
    # the full depth is reached.
    starts = [
        min(p, length - read_length) - max(0, p - read_length + 1) for p in range(length)
    ]
    full = max(starts)
    ramps = {p for p, n in enumerate(starts) if n < full}
    drawn = random_panel(genome.sequence, spec["variants"], seed=seed, exclude_positions=ramps)
    # Frequencies form a fixed geometric ladder over [min_freq,
    # max_freq] dealt out in seeded order: the seed moves positions,
    # bases and reads, but the exact DP's work (depth x alt count) is
    # the same for every seed.
    n = spec["variants"]
    ratio = (spec["max_freq"] / spec["min_freq"]) ** (1 / max(1, n - 1))
    ladder = [spec["min_freq"] * ratio**i for i in range(n)]
    np.random.default_rng(seed).shuffle(ladder)
    panel = VariantPanel(
        dataclasses.replace(v, frequency=f) for v, f in zip(drawn, ladder)
    )
    simulator = ReadSimulator(
        genome,
        panel,
        quality_model=QualityModel.hiseq(),
        read_length=spec["read_length"],
    )
    sample = simulator.simulate(spec["depth"], seed=seed)
    bam = directory / f"{name}.bam"
    fasta = directory / f"{name}.fa"
    sample.write_bam(bam)
    write_fasta(fasta, [genome])
    np.save(directory / f"{name}.starts.npy", sample.starts)
    # VCF text coordinates: 1-based POS.
    truth = [[genome.name, v.pos + 1, v.ref, v.alt] for v in panel]
    return {
        "bam": bam.name,
        "fasta": fasta.name,
        "contig": genome.name,
        "length": len(genome),
        "reads": sample.n_reads,
        "read_length": sample.read_length,
        "bam_bytes": bam.stat().st_size,
        "truth": truth,
    }


class Inputs:
    """One materialised input set (a directory of samples)."""

    def __init__(self, directory: Path, meta: dict) -> None:
        self.directory = directory
        self.samples = meta["samples"]

    def path(self, sample: dict, key: str) -> str:
        return str(self.directory / sample[key])

    @property
    def reads(self) -> int:
        return sum(s["reads"] for s in self.samples)

    @property
    def columns(self) -> int:
        return sum(s["length"] for s in self.samples)

    @property
    def bam_bytes(self) -> int:
        return sum(s["bam_bytes"] for s in self.samples)

    def starts(self, sample: dict) -> np.ndarray:
        return np.load(self.directory / sample["bam"].replace(".bam", ".starts.npy"))


def ensure(root: Path, name: str, seed: int) -> Inputs:
    """The cached input set ``name`` for ``seed``, generated on a miss."""
    spec = SPECS[name]
    directory = root / ".perfbench" / "inputs" / f"{name}-s{seed}-{_digest(spec)}"
    meta_path = directory / "meta.json"
    if meta_path.exists():
        return Inputs(directory, json.loads(meta_path.read_text()))
    tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    samples = [
        _write_sample(tmp, f"sample{i}", spec, sample_seed(seed, i))
        for i in range(spec["samples"])
    ]
    meta = {"name": name, "seed": seed, "spec": spec, "samples": samples}
    (tmp / "meta.json").write_text(json.dumps(meta))
    # Flush the new files now, not while the first calls are timed.
    os.sync()
    try:
        tmp.rename(directory)
    except OSError:
        # Another run finished the same set first; use theirs.
        shutil.rmtree(tmp, ignore_errors=True)
    return Inputs(directory, json.loads(meta_path.read_text()))
