"""Tests for workload generators, the runner, and trace record/replay."""

import io

import pytest

from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.ftl.dftl import DFTL
from repro.workloads.base import (
    OpKind,
    Operation,
    WorkloadRunner,
    fill_device,
)
from repro.workloads.generators import (
    HotColdWrites,
    MixedReadWrite,
    SequentialWrites,
    UniformRandomWrites,
    ZipfianWrites,
)
from repro.workloads.ingest import (
    StreamingTraceWorkload,
    TraceFormatError,
    iter_trace_records,
    parse_trace_line,
    record_trace,
)


LOGICAL_PAGES = 1000


class TestGenerators:
    def test_uniform_stays_in_range(self):
        workload = UniformRandomWrites(LOGICAL_PAGES, seed=1)
        for operation in workload.operations(500):
            assert 0 <= operation.logical < LOGICAL_PAGES
            assert operation.kind is OpKind.WRITE

    def test_uniform_is_deterministic_given_a_seed(self):
        first = [op.logical for op in
                 UniformRandomWrites(LOGICAL_PAGES, seed=7).operations(100)]
        second = [op.logical for op in
                  UniformRandomWrites(LOGICAL_PAGES, seed=7).operations(100)]
        assert first == second

    def test_different_seeds_differ(self):
        first = [op.logical for op in
                 UniformRandomWrites(LOGICAL_PAGES, seed=1).operations(100)]
        second = [op.logical for op in
                  UniformRandomWrites(LOGICAL_PAGES, seed=2).operations(100)]
        assert first != second

    def test_reset_restarts_the_stream(self):
        workload = UniformRandomWrites(LOGICAL_PAGES, seed=5)
        first = [op.logical for op in workload.operations(50)]
        workload.reset()
        second = [op.logical for op in workload.operations(50)]
        assert first == second

    def test_sequential_wraps_around(self):
        workload = SequentialWrites(10, start=8)
        logicals = [op.logical for op in workload.operations(5)]
        assert logicals == [8, 9, 0, 1, 2]

    def test_zipfian_is_skewed(self):
        workload = ZipfianWrites(LOGICAL_PAGES, seed=3, theta=0.99)
        counts = {}
        for operation in workload.operations(3000):
            counts[operation.logical] = counts.get(operation.logical, 0) + 1
        top_share = max(counts.values()) / 3000
        distinct = len(counts)
        assert top_share > 0.05          # a few pages dominate
        assert distinct < LOGICAL_PAGES  # far from uniform coverage

    def test_zipfian_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            ZipfianWrites(LOGICAL_PAGES, theta=2.5)

    def test_hot_cold_concentrates_on_hot_set(self):
        workload = HotColdWrites(LOGICAL_PAGES, seed=4, hot_fraction=0.1,
                                 hot_probability=0.9)
        hot_hits = sum(1 for op in workload.operations(2000)
                       if op.logical < LOGICAL_PAGES * 0.1)
        assert hot_hits > 1600

    def test_hot_cold_validates_fractions(self):
        with pytest.raises(ValueError):
            HotColdWrites(LOGICAL_PAGES, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdWrites(LOGICAL_PAGES, hot_probability=1.0)

    def test_mixed_read_write_emits_reads_of_written_pages(self):
        base = UniformRandomWrites(LOGICAL_PAGES, seed=6)
        workload = MixedReadWrite(base, read_fraction=0.5, seed=6)
        written = set()
        reads = 0
        for operation in workload.operations(1000):
            if operation.kind is OpKind.WRITE:
                written.add(operation.logical)
            else:
                reads += 1
                assert operation.logical in written
        assert reads > 100

    def test_workload_rejects_nonpositive_space(self):
        with pytest.raises(ValueError):
            UniformRandomWrites(0)


class TestRunner:
    @pytest.fixture
    def ftl(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        ftl = DFTL(FlashDevice(config), cache_capacity=64)
        fill_device(ftl)
        return ftl

    def test_runner_counts_host_operations(self, ftl):
        runner = WorkloadRunner(ftl, interval_writes=100)
        result = runner.run(UniformRandomWrites(ftl.config.logical_pages,
                                                seed=1), 450)
        assert result.operations_executed == 450
        assert result.host_writes == 450

    def test_intervals_partition_the_run(self, ftl):
        runner = WorkloadRunner(ftl, interval_writes=100)
        result = runner.run(UniformRandomWrites(ftl.config.logical_pages,
                                                seed=1), 450)
        assert len(result.intervals) == 5
        assert sum(i.host_writes for i in result.intervals) == 450

    def test_interval_callback_is_invoked(self, ftl):
        seen = []
        runner = WorkloadRunner(ftl, interval_writes=50)
        runner.run(UniformRandomWrites(ftl.config.logical_pages, seed=1), 200,
                   on_interval=lambda measurement: seen.append(measurement))
        assert len(seen) == 4

    def test_steady_state_wa_skips_warmup(self, ftl):
        runner = WorkloadRunner(ftl, interval_writes=100)
        result = runner.run(UniformRandomWrites(ftl.config.logical_pages,
                                                seed=1), 800)
        overall = result.write_amplification(ftl.config.delta)
        steady = result.steady_state_write_amplification(ftl.config.delta)
        assert overall > 0
        assert steady > 0

    def test_fill_device_writes_whole_logical_space(self, ftl):
        # The fixture already filled it; a fresh one for an exact count.
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        fresh = DFTL(FlashDevice(config), cache_capacity=64)
        written = fill_device(fresh, fraction=1.0)
        assert written == fresh.config.logical_pages
        assert fresh.read(written - 1) is not None


    def test_batches_flatten_to_the_operation_trace(self):
        """Chunked generation must be a pure re-batching of operations()."""
        def mixed(seed):
            return MixedReadWrite(UniformRandomWrites(LOGICAL_PAGES,
                                                      seed=seed))

        for factory in (UniformRandomWrites, SequentialWrites,
                        ZipfianWrites, HotColdWrites, mixed):
            reference = _materialize(factory(5), 333) \
                if factory is mixed else \
                _materialize(factory(LOGICAL_PAGES, seed=5), 333)
            for batch_ops in (1, 7, 256, 1000):
                workload = factory(5) if factory is mixed \
                    else factory(LOGICAL_PAGES, seed=5)
                flattened = [(op.kind, op.logical, op.payload)
                             for chunk in workload.batches(333, batch_ops)
                             for op in chunk]
                assert flattened == reference, \
                    (getattr(factory, "__name__", "mixed"), batch_ops)

    def test_batches_rejects_nonpositive_chunk(self):
        workload = UniformRandomWrites(LOGICAL_PAGES, seed=5)
        with pytest.raises(ValueError):
            next(workload.batches(10, 0))

    def test_run_is_chunk_size_invariant(self):
        """Same trace, intervals, and counters for any max_batch_ops."""
        def run_with(max_batch_ops):
            config = simulation_configuration(num_blocks=64,
                                              pages_per_block=8,
                                              page_size=256)
            ftl = DFTL(FlashDevice(config), cache_capacity=64)
            fill_device(ftl)
            ftl.device.stats.reset()
            runner = WorkloadRunner(ftl, interval_writes=100,
                                    max_batch_ops=max_batch_ops)
            result = runner.run(
                UniformRandomWrites(config.logical_pages, seed=9), 450)
            return ([(m.interval_index, m.host_writes,
                      m.stats.page_writes, m.stats.page_reads)
                     for m in result.intervals],
                    result.final_stats.page_writes,
                    result.final_stats.page_reads,
                    result.host_writes)

        reference = run_with(4096)
        for max_batch_ops in (1, 33, 100, 101, 256):
            assert run_with(max_batch_ops) == reference, max_batch_ops


def _materialize(workload, count):
    return [(op.kind, op.logical, op.payload)
            for op in workload.operations(count)]


class TestReset:
    """reset() must restore *full* generator state, not just the RNG."""

    @pytest.fixture(params=["uniform", "sequential", "zipfian", "hotcold",
                            "mixed", "trace"])
    def workload(self, request, tmp_path_factory):
        if request.param == "uniform":
            return UniformRandomWrites(LOGICAL_PAGES, seed=9)
        if request.param == "sequential":
            return SequentialWrites(LOGICAL_PAGES, seed=9, start=17)
        if request.param == "zipfian":
            return ZipfianWrites(LOGICAL_PAGES, seed=9, theta=0.9)
        if request.param == "hotcold":
            return HotColdWrites(LOGICAL_PAGES, seed=9, hot_fraction=0.2,
                                 hot_probability=0.8)
        if request.param == "mixed":
            return MixedReadWrite(UniformRandomWrites(LOGICAL_PAGES, seed=9),
                                  read_fraction=0.4, seed=9)
        path = tmp_path_factory.mktemp("reset") / "trace.txt"
        record_trace([Operation(OpKind.WRITE, i % 40) for i in range(120)],
                     path)
        return StreamingTraceWorkload(path, LOGICAL_PAGES, wrap=True)

    def test_two_consecutive_runs_are_identical(self, workload):
        first = _materialize(workload, 200)
        workload.reset()
        second = _materialize(workload, 200)
        assert first == second

    def test_reset_mid_stream_restarts_from_the_beginning(self, workload):
        reference = _materialize(workload, 200)
        workload.reset()
        _materialize(workload, 37)  # leave the generator mid-stream
        workload.reset()
        assert _materialize(workload, 200) == reference

    def test_runner_reruns_of_one_workload_match(self, workload):
        """Two FTL runs of the same (reset) workload see identical streams."""
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        results = []
        for _ in range(2):
            ftl = DFTL(FlashDevice(config), cache_capacity=64)
            fill_device(ftl)
            ftl.stats.reset()
            workload.reset()
            # Cap the logical space: the shared workloads address
            # LOGICAL_PAGES pages, the tiny device fewer — remap by modulo.
            ops = [Operation(op.kind, op.logical % ftl.config.logical_pages,
                             op.payload)
                   for op in workload.operations(300)]
            ftl.submit(ops)
            results.append(dict(ftl.stats.counts))
        assert results[0] == results[1]


class TestTrace:
    def test_parse_valid_lines(self):
        assert parse_trace_line("W 12").kind is OpKind.WRITE
        assert parse_trace_line("r 3").kind is OpKind.READ
        assert parse_trace_line("T 9").kind is OpKind.TRIM

    def test_parse_skips_blank_and_comment_lines(self):
        assert parse_trace_line("") is None
        assert parse_trace_line("# comment") is None

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_trace_line("W")
        with pytest.raises(ValueError):
            parse_trace_line("X 3")
        with pytest.raises(ValueError):
            parse_trace_line("W -1")

    def test_record_and_load_roundtrip(self):
        operations = [Operation(OpKind.WRITE, 3), Operation(OpKind.READ, 3),
                      Operation(OpKind.TRIM, 4)]
        buffer = io.StringIO()
        count = record_trace(operations, buffer)
        assert count == 3
        buffer.seek(0)
        loaded = [record for record, _line in iter_trace_records(buffer)]
        assert [(record.kind, record.offset) for record in loaded] == [
            (OpKind.WRITE, 3), (OpKind.READ, 3), (OpKind.TRIM, 4)]

    def test_trace_workload_replays_in_order(self, tmp_path):
        path = tmp_path / "trace.txt"
        record_trace([Operation(OpKind.WRITE, i) for i in range(5)], path)
        workload = StreamingTraceWorkload(path, logical_pages=10)
        replayed = [op.logical for op in workload.operations(10)]
        assert replayed == [0, 1, 2, 3, 4]

    def test_trace_workload_wraps_when_asked(self, tmp_path):
        path = tmp_path / "trace.txt"
        record_trace([Operation(OpKind.WRITE, i) for i in range(3)], path)
        workload = StreamingTraceWorkload(path, logical_pages=10, wrap=True)
        replayed = [op.logical for op in workload.operations(7)]
        assert replayed == [0, 1, 2, 0, 1, 2, 0]

    def test_trace_workload_rejects_out_of_range_pages(self, tmp_path):
        path = tmp_path / "trace.txt"
        record_trace([Operation(OpKind.WRITE, 1),
                      Operation(OpKind.WRITE, 99)], path)
        workload = StreamingTraceWorkload(path, logical_pages=10, oor="error")
        with pytest.raises(TraceFormatError, match=":2:"):
            list(workload.operations(2))


class TestTraceGzipAndErrors:
    """Transparent .gz trace IO and line-numbered parse failures."""

    def test_gzip_roundtrip_by_suffix(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        operations = [Operation(OpKind.WRITE, i) for i in range(50)]
        record_trace(operations, path)
        # The file really is gzip (magic bytes), not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = [record.offset for record, _line in iter_trace_records(path)]
        assert loaded == list(range(50))

    def test_gzip_workload_from_file(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        record_trace([Operation(OpKind.WRITE, i) for i in range(5)], path)
        workload = StreamingTraceWorkload(path, logical_pages=10)
        assert [op.logical for op in workload.operations(5)] == [0, 1, 2, 3, 4]

    def test_malformed_line_reports_file_and_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("W 1\n# fine\nW xyz\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(iter_trace_records(path))
        assert excinfo.value.line_number == 3
        assert excinfo.value.source == str(path)
        assert f"{path}:3:" in str(excinfo.value)

    def test_malformed_gzip_line_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        import gzip
        with gzip.open(path, "wt") as handle:
            handle.write("W 1\nQ 2\n")
        with pytest.raises(TraceFormatError, match=":2:"):
            list(StreamingTraceWorkload(path, logical_pages=10)
                 .operations(2))

    def test_error_is_still_a_value_error(self):
        # Backwards compatibility: existing `except ValueError` keeps working.
        with pytest.raises(ValueError):
            parse_trace_line("W one two three")
        assert issubclass(TraceFormatError, ValueError)

    def test_parse_trace_line_tags_standalone_line_numbers(self):
        with pytest.raises(TraceFormatError, match="line 7:"):
            parse_trace_line("bogus line", line_number=7)

    def test_non_integer_page_is_a_format_error(self):
        with pytest.raises(TraceFormatError, match="non-integer"):
            parse_trace_line("W 3.5")
