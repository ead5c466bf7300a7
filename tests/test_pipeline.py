"""Tests for the composable pipeline API (sources -> engine -> sinks).

Covers the ISSUE 2 acceptance criteria: multi-contig BAMs round-trip
through ``Pipeline.run()`` and the CLI with calls on every contig, and
the pre-redesign surfaces (``VariantCaller.call_bam``,
``parallel_call``, the CLI ``call`` subcommand) are byte-identical to
their old behaviour on single-contig inputs.
"""

import io
import json

import pytest

from repro.core.caller import VariantCaller
from repro.core.config import CallerConfig
from repro.core.filters import DynamicFilterPolicy
from repro.io.bam import BamReader, BamWriter
from repro.io.fasta import write_fasta
from repro.io.records import SamHeader
from repro.io.regions import Region
from repro.io.vcf import read_vcf, write_vcf
from repro.pileup.engine import pileup
from repro.pipeline import (
    BamSource,
    ColumnsSource,
    ExecutionPolicy,
    JsonlSink,
    Pipeline,
    ReadsSource,
    SampleSource,
    StatsSink,
    TeeSink,
    VcfSink,
)


def reference_call_bam(caller, bam_path, reference, region=None):
    """The pre-redesign ``VariantCaller.call_bam`` body, kept verbatim
    as the equivalence oracle for the pipeline-backed shim."""
    with BamReader(bam_path) as reader:
        if region is None:
            name, length = reader.header.references[0]
            region = Region(name, 0, length)
        columns = pileup(
            iter(reader), reference, region, caller.pileup_config
        )
        return caller.call_columns(columns, len(region))


def vcf_bytes(result, contigs):
    buf = io.StringIO()
    write_vcf(buf, [c.to_vcf_record() for c in result.calls], reference=contigs)
    return buf.getvalue()


@pytest.fixture(scope="module")
def bam_workspace(tmp_path_factory, sample, genome):
    root = tmp_path_factory.mktemp("pipeline")
    bam = root / "single.bam"
    sample.write_bam(bam)
    return root, bam


# -- multi-contig fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def multi_contig(tmp_path_factory):
    """A coordinate-sorted BAM over two contigs, plus truth and FASTA."""
    from repro.sim import ReadSimulator, random_panel
    from repro.sim.genome import random_genome

    root = tmp_path_factory.mktemp("multictg")
    genome_a = random_genome(700, gc_content=0.4, name="ctgA", seed=5)
    genome_b = random_genome(500, gc_content=0.45, name="ctgB", seed=6)
    panel_a = random_panel(genome_a.sequence, 4, freq_range=(0.06, 0.2), seed=7)
    panel_b = random_panel(genome_b.sequence, 3, freq_range=(0.06, 0.2), seed=8)
    sample_a = ReadSimulator(genome_a, panel_a, read_length=80).simulate(
        depth=200, seed=9
    )
    sample_b = ReadSimulator(genome_b, panel_b, read_length=80).simulate(
        depth=200, seed=10
    )
    bam = root / "multi.bam"
    header = SamHeader(
        references=[("ctgA", len(genome_a)), ("ctgB", len(genome_b))],
        sort_order="coordinate",
    )
    with BamWriter(bam, header) as writer:
        for read in sample_a.reads():
            writer.write(read)
        for read in sample_b.reads():
            writer.write(read)
    fasta = root / "multi.fa"
    write_fasta(fasta, [genome_a, genome_b])
    fasta_b_only = root / "onlyB.fa"
    write_fasta(fasta_b_only, [genome_b])
    refmap = {"ctgA": genome_a.sequence, "ctgB": genome_b.sequence}
    truth = {
        "ctgA": {(v.pos, v.ref, v.alt) for v in panel_a},
        "ctgB": {(v.pos, v.ref, v.alt) for v in panel_b},
    }
    return {
        "root": root,
        "bam": bam,
        "fasta": fasta,
        "fasta_b_only": fasta_b_only,
        "refmap": refmap,
        "truth": truth,
    }


class TestShimEquivalence:
    """Old entry points are byte-identical adapters over the pipeline."""

    def test_call_bam_vcf_byte_identical(self, bam_workspace, genome):
        _, bam = bam_workspace
        contigs = [(genome.name, len(genome))]
        old = reference_call_bam(VariantCaller(), bam, genome.sequence)
        new = VariantCaller().call_bam(bam, genome.sequence)
        assert vcf_bytes(old, contigs) == vcf_bytes(new, contigs)

    def test_call_bam_region_byte_identical(self, bam_workspace, genome):
        _, bam = bam_workspace
        region = Region(genome.name, 100, 900)
        contigs = [(genome.name, len(genome))]
        old = reference_call_bam(VariantCaller(), bam, genome.sequence, region)
        new = VariantCaller().call_bam(bam, genome.sequence, region)
        assert vcf_bytes(old, contigs) == vcf_bytes(new, contigs)

    def test_parallel_call_vcf_byte_identical(self, bam_workspace, genome):
        from repro.parallel import ParallelCallOptions, parallel_call

        _, bam = bam_workspace
        contigs = [(genome.name, len(genome))]
        old = reference_call_bam(VariantCaller(), bam, genome.sequence)
        for backend in ("serial", "thread"):
            new = parallel_call(
                str(bam),
                genome.sequence,
                options=ParallelCallOptions(n_workers=3, backend=backend),
            )
            assert vcf_bytes(old, contigs) == vcf_bytes(new, contigs), backend

    def test_call_bam_stats_counters_match(self, bam_workspace, genome):
        _, bam = bam_workspace
        old = reference_call_bam(VariantCaller(), bam, genome.sequence)
        new = VariantCaller().call_bam(bam, genome.sequence)
        assert old.stats.columns_seen == new.stats.columns_seen
        assert old.stats.tests_run == new.stats.tests_run
        assert old.stats.decisions == new.stats.decisions

    def test_legacy_call_bam_matches_inline_legacy(self, bam_workspace, genome):
        """legacy_call_bam (relocated from cli.py) reproduces the old
        inline _legacy_call_bam output exactly."""
        from repro.core.filters import apply_filters
        from repro.core.results import CallResult, RunStats
        from repro.parallel import legacy_call_bam
        from repro.parallel.partition import partition_region

        _, bam = bam_workspace
        config = CallerConfig.improved()
        policy = DynamicFilterPolicy()
        region = Region(genome.name, 0, len(genome))
        merged_stats = RunStats()
        survivors = []
        for part in partition_region(region, 4):
            caller = VariantCaller(config, filter_policy=None)
            res = reference_call_bam(caller, bam, genome.sequence, part)
            merged_stats.merge(res.stats)
            filtered = apply_filters(res.calls, policy.fit(res.calls))
            survivors.extend(c for c in filtered if c.filter == "PASS")
        survivors.sort(key=lambda c: (c.chrom, c.pos, c.alt))
        oracle = CallResult(
            calls=apply_filters(survivors, policy.fit(survivors)),
            stats=merged_stats,
        )
        got = legacy_call_bam(bam, genome.sequence, config=config, n_partitions=4)
        contigs = [(genome.name, len(genome))]
        assert vcf_bytes(oracle, contigs) == vcf_bytes(got, contigs)

    def test_legacy_pipeline_matches_legacy_parallel_call(self, sample, genome):
        from repro.parallel import legacy_parallel_call

        oracle = legacy_parallel_call(sample, genome.sequence, n_partitions=4)
        got = Pipeline(
            SampleSource(sample),
            policy=ExecutionPolicy(mode="legacy", n_workers=4),
        ).run()
        assert [c.key for c in oracle.calls] == [c.key for c in got.calls]
        assert [c.filter for c in oracle.calls] == [c.filter for c in got.calls]


class TestSources:
    def test_columns_source(self, columns, whole_region, sample):
        single = VariantCaller().call_sample(sample)
        result = Pipeline(ColumnsSource(iter(columns), whole_region)).run()
        assert result.keys() == single.keys()

    def test_columns_source_chunked(self, columns, whole_region, sample):
        single = VariantCaller().call_sample(sample)
        result = Pipeline(
            ColumnsSource(columns, whole_region),
            policy=ExecutionPolicy(mode="thread", n_workers=3, chunk_columns=128),
        ).run()
        assert result.keys() == single.keys()

    def test_reads_source_streaming(self, sample, genome, whole_region):
        single = VariantCaller().call_sample(sample)
        result = Pipeline(
            ReadsSource(sample.reads(), genome.sequence, whole_region)
        ).run()
        assert result.keys() == single.keys()

    def test_reads_source_one_shot_iterator_guard(self, sample, genome, whole_region):
        source = ReadsSource(sample.reads(), genome.sequence, whole_region)
        list(source.columns_for(whole_region))
        with pytest.raises(ValueError, match="single pass"):
            source.columns_for(whole_region)

    def test_reads_source_list_rewinds(self, sample, genome, whole_region):
        source = ReadsSource(
            sample.read_list(), genome.sequence, whole_region
        )
        a = list(source.columns_for(whole_region))
        b = list(source.columns_for(whole_region))
        assert len(a) == len(b) > 0

    def test_bam_source_default_regions_cover_header(self, multi_contig):
        source = BamSource(multi_contig["bam"], multi_contig["refmap"])
        assert [r.chrom for r in source.regions()] == ["ctgA", "ctgB"]
        assert source.contigs == [("ctgA", 700), ("ctgB", 500)]

    def test_bam_source_str_reference_defaults_to_first_contig(self, multi_contig):
        """Legacy call_bam scope: a plain-string reference on a
        multi-contig BAM restricts the default regions to the first
        header reference instead of failing."""
        source = BamSource(
            multi_contig["bam"], multi_contig["refmap"]["ctgA"]
        )
        assert [r.chrom for r in source.regions()] == ["ctgA"]

    def test_bam_source_str_reference_multi_contig_regions_rejected(
        self, multi_contig
    ):
        regions = [Region("ctgA", 0, 700), Region("ctgB", 0, 500)]
        with pytest.raises(ValueError, match="single reference string"):
            BamSource(multi_contig["bam"], "ACGT" * 200, regions=regions)


class TestMultiContig:
    def test_serial_calls_every_contig(self, multi_contig):
        result = Pipeline(
            BamSource(multi_contig["bam"], multi_contig["refmap"])
        ).run()
        for chrom, truth in multi_contig["truth"].items():
            called = {
                (c.pos, c.ref, c.alt) for c in result.passed if c.chrom == chrom
            }
            assert truth <= called, chrom

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_parallel_matches_serial(self, multi_contig, mode):
        serial = Pipeline(
            BamSource(multi_contig["bam"], multi_contig["refmap"])
        ).run()
        result = Pipeline(
            BamSource(multi_contig["bam"], multi_contig["refmap"]),
            policy=ExecutionPolicy(mode=mode, n_workers=3, chunk_columns=128),
        ).run()
        assert result.keys() == serial.keys()
        assert result.stats.columns_seen == serial.stats.columns_seen

    def test_bonferroni_scope_is_total_length(self, multi_contig):
        source = BamSource(multi_contig["bam"], multi_contig["refmap"])
        total = sum(len(r) for r in source.regions())
        assert total == 1200
        # A genome-wide run must correct over both contigs: a config
        # with an explicit matching bonferroni gives identical calls.
        implicit = Pipeline(
            BamSource(multi_contig["bam"], multi_contig["refmap"])
        ).run()
        explicit = Pipeline(
            BamSource(multi_contig["bam"], multi_contig["refmap"]),
            config=CallerConfig.improved(bonferroni=3 * total),
        ).run()
        assert implicit.keys() == explicit.keys()

    def test_cli_all_contigs_round_trip(self, multi_contig):
        from repro.cli import main

        out = multi_contig["root"] / "cli_multi.vcf"
        rc = main(
            [
                "call", str(multi_contig["bam"]),
                "--reference", str(multi_contig["fasta"]),
                "--out", str(out),
                "--all-contigs",
            ]
        )
        assert rc == 0
        headers, records = read_vcf(out)
        assert "##contig=<ID=ctgA,length=700>" in headers
        assert "##contig=<ID=ctgB,length=500>" in headers
        by_chrom = {r.chrom for r in records if r.filter == "PASS"}
        assert by_chrom == {"ctgA", "ctgB"}

    def test_cli_region_resolves_contig_not_first_reference(self, multi_contig):
        """Satellite: --region ctgB must work even when the FASTA lacks
        the BAM's first reference."""
        from repro.cli import main

        out = multi_contig["root"] / "cli_b_only.vcf"
        rc = main(
            [
                "call", str(multi_contig["bam"]),
                "--reference", str(multi_contig["fasta_b_only"]),
                "--out", str(out),
                "--region", "ctgB",
            ]
        )
        assert rc == 0
        _, records = read_vcf(out)
        assert records and all(r.chrom == "ctgB" for r in records)
        truth = multi_contig["truth"]["ctgB"]
        called = {(r.pos, r.ref, r.alt) for r in records if r.filter == "PASS"}
        assert truth <= called

    def test_cli_region_and_all_contigs_conflict(self, multi_contig, capsys):
        from repro.cli import main

        rc = main(
            [
                "call", str(multi_contig["bam"]),
                "--reference", str(multi_contig["fasta"]),
                "--out", str(multi_contig["root"] / "y.vcf"),
                "--all-contigs", "--region", "ctgA:1-100",
            ]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_region_unknown_contig_errors(self, multi_contig, capsys):
        from repro.cli import main

        rc = main(
            [
                "call", str(multi_contig["bam"]),
                "--reference", str(multi_contig["fasta"]),
                "--out", str(multi_contig["root"] / "x.vcf"),
                "--region", "ctgZ:1-100",
            ]
        )
        assert rc == 2
        assert "ctgZ" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["ctgA:bogus", "ctgA:900-100"])
    def test_cli_malformed_region_errors_cleanly(self, multi_contig, capsys, bad):
        from repro.cli import main

        rc = main(
            [
                "call", str(multi_contig["bam"]),
                "--reference", str(multi_contig["fasta"]),
                "--out", str(multi_contig["root"] / "z.vcf"),
                "--region", bad,
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSinks:
    def test_vcf_sink_matches_write_vcf(self, sample, genome, tmp_path):
        out = tmp_path / "sink.vcf"
        contigs = [(genome.name, len(genome))]
        result = Pipeline(
            SampleSource(sample), sinks=[VcfSink(out, contigs=contigs)]
        ).run()
        assert out.read_text() == vcf_bytes(result, contigs)

    def test_jsonl_sink(self, sample, tmp_path):
        out = tmp_path / "calls.jsonl"
        result = Pipeline(SampleSource(sample), sinks=[JsonlSink(out)]).run()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(result.calls)
        assert lines[0]["chrom"] == result.calls[0].chrom
        assert lines[0]["pos"] == result.calls[0].pos
        assert {"ref", "alt", "af", "dp4", "filter"} <= set(lines[0])

    def test_stats_sink(self, sample, tmp_path):
        out = tmp_path / "stats.json"
        result = Pipeline(SampleSource(sample), sinks=[StatsSink(out)]).run()
        payload = json.loads(out.read_text())
        assert payload["n_calls"] == len(result.calls)
        assert payload["n_pass"] == len(result.passed)
        assert payload["stats"] == result.stats.to_dict()
        assert payload["stats"]["columns_seen"] == result.stats.columns_seen

    def test_tee_sink(self, sample, genome, tmp_path):
        vcf_out = tmp_path / "tee.vcf"
        stats_out = tmp_path / "tee.json"
        Pipeline(
            SampleSource(sample),
            sinks=[
                TeeSink(
                    VcfSink(vcf_out, contigs=[(genome.name, len(genome))]),
                    StatsSink(stats_out),
                )
            ],
        ).run()
        assert vcf_out.stat().st_size > 0
        assert json.loads(stats_out.read_text())["stats"]["columns_seen"] > 0

    def test_sink_accepts_text_handle(self, sample, genome):
        buf = io.StringIO()
        result = Pipeline(
            SampleSource(sample),
            sinks=[VcfSink(buf, contigs=[(genome.name, len(genome))])],
        ).run()
        assert buf.getvalue().count("\nchrT\t") == len(result.calls)


class TestExecutionPolicy:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(mode="gpu")
        with pytest.raises(ValueError):
            ExecutionPolicy(n_workers=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(chunk_columns=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(schedule="fifo")

    def test_empty_source_rejected(self):
        class Empty:
            def regions(self):
                return []

            def columns_for(self, chunk, tracer=None, worker=0):
                return []

        with pytest.raises(ValueError, match="no regions"):
            Pipeline(Empty()).run()

    def test_no_filter_policy_leaves_calls_raw(self, sample):
        result = Pipeline(SampleSource(sample), filter_policy=None).run()
        assert all(c.filter == "PASS" for c in result.calls)

    def test_thread_worker_failure_propagates(self, multi_contig):
        """A dead worker must fail the run, not silently shrink the
        output (and corrupt the post-filter fit)."""
        refmap = {"ctgA": multi_contig["refmap"]["ctgA"]}  # ctgB missing
        with pytest.raises(ValueError, match="ctgB"):
            Pipeline(
                BamSource(multi_contig["bam"], refmap),
                policy=ExecutionPolicy(
                    mode="thread", n_workers=3, chunk_columns=128
                ),
            ).run()

    def test_failed_run_leaves_no_output_file(self, multi_contig, tmp_path):
        out = tmp_path / "partial.vcf"
        refmap = {"ctgA": multi_contig["refmap"]["ctgA"]}
        with pytest.raises(ValueError):
            Pipeline(
                BamSource(multi_contig["bam"], refmap),
                sinks=[VcfSink(out)],
            ).run()
        assert not out.exists()

    def test_batched_engine_through_pipeline(self, sample):
        streaming = Pipeline(SampleSource(sample)).run()
        batched = Pipeline(
            SampleSource(sample),
            config=CallerConfig.improved(engine="batched"),
        ).run()
        assert streaming.keys() == batched.keys()
        assert streaming.stats.decisions == batched.stats.decisions


class TestBamSourceBatchColumns:
    """Source-side streaming construction (PR 5): chunks are built
    incrementally by ``ColumnBatchBuilder`` and handed to the engine
    as a lazy stream of bounded work units."""

    def test_default_single_unit_below_cap(self, bam_workspace, genome):
        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence)
        region = source.regions()[0]
        batches = list(source.batches_for(region))
        assert len(batches) == 1  # 1200 columns < default 16384 cap

    def test_batches_stream_lazily(self, bam_workspace, genome):
        """batches_for is a generator: pulling the first batch must not
        build the rest of the chunk."""
        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence, batch_columns=100)
        region = source.regions()[0]
        stream = source.batches_for(region)
        assert not isinstance(stream, (list, tuple))
        first = next(iter(stream))
        assert first.n_columns <= 100

    def test_cap_streams_bounded_units(self, bam_workspace, genome):
        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence, batch_columns=100)
        region = source.regions()[0]
        batches = list(source.batches_for(region))
        assert len(batches) > 1
        assert all(b.n_columns <= 100 for b in batches)
        # Together the streamed batches are exactly the whole-chunk
        # batch, column for column.
        whole = next(
            iter(
                BamSource(
                    bam, genome.sequence, batch_columns=None
                ).batches_for(region)
            )
        )
        import numpy as np

        assert sum(b.n_columns for b in batches) == whole.n_columns
        assert np.array_equal(
            np.concatenate([b.positions for b in batches]), whole.positions
        )
        assert np.array_equal(
            np.concatenate([b.quals for b in batches]), whole.quals
        )
        assert np.array_equal(
            np.concatenate([b.base_codes for b in batches]),
            whole.base_codes,
        )
        # Strand/mapq planes stay lazy on every streamed unit.
        assert all(not b.planes_materialised for b in batches)

    def test_resliced_pipeline_byte_identical(self, bam_workspace, genome):
        _, bam = bam_workspace
        results = {}
        for label, cap in (("whole", None), ("sliced", 64)):
            results[label] = Pipeline(
                BamSource(bam, genome.sequence, batch_columns=cap),
                config=CallerConfig(engine="batched"),
            ).run()
        contigs = [(genome.name, len(genome))]
        assert vcf_bytes(results["whole"], contigs) == vcf_bytes(
            results["sliced"], contigs
        )
        assert (
            results["whole"].stats.decisions
            == results["sliced"].stats.decisions
        )

    def test_invalid_cap_rejected(self, bam_workspace, genome):
        _, bam = bam_workspace
        with pytest.raises(ValueError, match="batch_columns"):
            BamSource(bam, genome.sequence, batch_columns=0)


class TestMultiIndex:
    def test_multi_index_covers_both_contigs(self, multi_contig):
        from repro.io.index import build_linear_index

        indexes = build_linear_index(multi_contig["bam"])
        assert set(indexes) == {"ctgA", "ctgB"}
        assert indexes["ctgA"].data_start < indexes["ctgB"].data_start
        # Seeking through the ctgB index must land on ctgB records.
        with BamReader(multi_contig["bam"]) as reader:
            reader.seek(indexes["ctgB"].query(0))
            record = reader.read_record()
        assert record.rname == "ctgB"

    def test_single_contig_index_unchanged(self, bam_workspace):
        from repro.io.index import build_linear_index
        from repro.io.linear_index import build_index

        _, bam = bam_workspace
        with pytest.warns(DeprecationWarning, match="build_index"):
            flat = build_index(bam)
        multi = build_linear_index(bam)
        (name,) = multi.keys()
        assert multi[name].checkpoints == flat.checkpoints
        assert multi[name].max_read_span == flat.max_read_span


class TestIoStatsBackends:
    """ISSUE 7 satellite: block-cache counters reach RunStats on every
    backend, including forked process workers (PR 6 deferral)."""

    def test_process_backend_reports_child_cache_counters(
        self, bam_workspace, genome
    ):
        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence)
        result = Pipeline(
            source,
            policy=ExecutionPolicy(
                mode="process", n_workers=2, chunk_columns=200
            ),
        ).run()
        # Child readers live in the forked workers; before the fix
        # their hits/misses were dropped on the floor and these
        # counters were (parent-only) zero.
        total = result.stats.cache_hits + result.stats.cache_misses
        assert total > 0, result.stats.to_dict()

    def test_serial_and_process_counters_both_complete(
        self, bam_workspace, genome
    ):
        _, bam = bam_workspace
        serial = Pipeline(BamSource(bam, genome.sequence)).run()
        process = Pipeline(
            BamSource(bam, genome.sequence),
            policy=ExecutionPolicy(
                mode="process", n_workers=2, chunk_columns=200
            ),
        ).run()
        assert serial.stats.cache_misses > 0
        assert process.stats.cache_misses > 0
        # Identical calls either way -- the counters describe I/O, not
        # output.
        assert [c.key for c in process.calls] == [c.key for c in serial.calls]


class TestStreamingColumnsFor:
    """ISSUE 7 satellite: BamSource.columns_for streams the pileup()
    generator per column (PR 5 deferral) instead of materialising the
    chunk's column list."""

    def test_columns_for_is_lazy(self, bam_workspace, genome):
        import inspect

        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence)
        (region,) = source.regions()
        stream = source.columns_for(region)
        assert inspect.isgenerator(stream)
        first = next(stream)
        assert first.pos >= region.start
        stream.close()  # abandoning a partial stream must be safe

    def test_streamed_columns_match_eager_pileup(self, bam_workspace, genome):
        _, bam = bam_workspace
        source = BamSource(bam, genome.sequence)
        (region,) = source.regions()
        streamed = list(source.columns_for(region))
        with BamReader(bam) as reader:
            eager = list(
                pileup(iter(reader), genome.sequence, region)
            )
        assert len(streamed) == len(eager)
        for got, want in zip(streamed, eager):
            assert got.pos == want.pos
            assert got.depth == want.depth
            assert list(got.base_codes) == list(want.base_codes)

    def test_streaming_engine_pipeline_unchanged(self, bam_workspace, genome):
        _, bam = bam_workspace
        caller = VariantCaller()
        expected = reference_call_bam(caller, str(bam), genome.sequence)
        result = Pipeline(
            BamSource(bam, genome.sequence),
            policy=ExecutionPolicy(mode="thread", n_workers=3, chunk_columns=128),
        ).run()
        assert result.keys() == expected.keys()


class TestStageClock:
    """``time_total`` is each chunk's wall time, source pulls included;
    ``time_pileup`` is the pull time the source traced within it."""

    @pytest.mark.parametrize("engine", ["batched", "streaming"])
    def test_total_covers_pileup_and_most_of_a_serial_wall(
        self, bam_workspace, genome, engine
    ):
        import time

        _, bam = bam_workspace
        t0 = time.perf_counter()
        result = Pipeline(
            BamSource(bam, genome.sequence),
            config=CallerConfig(engine=engine),
        ).run()
        wall = time.perf_counter() - t0
        stats = result.stats
        assert 0 < stats.time_pileup < stats.time_total <= wall
        assert stats.time_stats < stats.time_total
        # Only filtering and the I/O-counter fold run outside the
        # chunk clock of a serial run.
        assert stats.time_total >= 0.8 * wall

    def test_thread_workers_sum_within_workers_times_wall(
        self, bam_workspace, genome
    ):
        import time

        _, bam = bam_workspace
        t0 = time.perf_counter()
        result = Pipeline(
            BamSource(bam, genome.sequence),
            policy=ExecutionPolicy(mode="thread", n_workers=2, chunk_columns=256),
        ).run()
        wall = time.perf_counter() - t0
        stats = result.stats
        assert 0 < stats.time_pileup < stats.time_total <= 2 * wall
