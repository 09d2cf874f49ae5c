"""Tests for the command-line interface."""

import json

import pytest

from repro.api import FTLSpec
from repro.cli import build_parser, main
from repro.workloads import Operation, OpKind, record_trace


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        arguments = build_parser().parse_args(["compare"])
        assert arguments.ftls == ["GeckoFTL", "uFTL"]
        assert arguments.writes == 4000

    def test_unknown_ftl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--ftls", "NopeFTL"])

    def test_ftl_arguments_parse_into_specs(self):
        arguments = build_parser().parse_args(
            ["compare", "--ftls", "GeckoFTL(cache_capacity=64)", "uftl"])
        assert arguments.ftls == [
            FTLSpec("GeckoFTL", {"cache_capacity": 64}), FTLSpec("uFTL")]

    def test_malformed_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--ftls", "GeckoFTL(cache_capacity="])

    def test_replay_unknown_ftl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "trace.txt", "--ftl",
                                       "NopeFTL"])


class TestCommands:
    """Drive main() for every subcommand: exit code 0 + expected headers."""

    def test_ram_command_prints_all_ftls(self, capsys):
        assert main(["ram", "--capacity-gb", "2048"]) == 0
        output = capsys.readouterr().out
        assert "Integrated-RAM breakdown at 2048.0 GB (analytical)" in output
        for name in ("DFTL", "LazyFTL", "uFTL", "IB-FTL", "GeckoFTL"):
            assert name in output

    def test_recovery_command_prints_battery_column(self, capsys):
        assert main(["recovery", "--capacity-gb", "512"]) == 0
        output = capsys.readouterr().out
        assert "Recovery-time breakdown at 512.0 GB (analytical)" in output
        assert "battery" in output
        assert "GeckoFTL" in output

    def test_compare_command_small_run(self, capsys):
        code = main(["compare", "--ftls", "GeckoFTL", "--writes", "500",
                     "--blocks", "64", "--pages-per-block", "8",
                     "--page-size", "256", "--cache-entries", "64"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Write-amplification after 500 random updates" in output
        assert "GeckoFTL" in output
        assert "wa_total" in output

    COMPARE_TINY = ["--writes", "400", "--blocks", "64",
                    "--pages-per-block", "8", "--page-size", "256",
                    "--cache-entries", "64"]
    COMPARE_BANNER = ("\n" + "=" * 44 + "\n"
                      "Write-amplification after 400 random updates\n"
                      + "=" * 44 + "\n")

    def test_compare_command_accepts_spec_strings(self, capsys):
        # Pinned byte-for-byte: the printed rows are simulator counts, so any
        # drift here is a behaviour change, not a formatting detail.
        code = main(["compare", "--ftls", "GeckoFTL(cache_capacity=32)",
                     "DFTL"] + self.COMPARE_TINY)
        assert code == 0
        assert capsys.readouterr().out == self.COMPARE_BANNER + (
            "ftl                         | wa_total | ram_bytes | wa_gc  "
            "| wa_translation | wa_user | wa_validity\n"
            "----------------------------+----------+-----------+--------"
            "+----------------+---------+------------\n"
            "GeckoFTL(cache_capacity=32) | 2.464    | 672       | 1.08   "
            "| 0.352          | 1       | 0.032      \n"
            "DFTL                        | 2.19     | 728       | 0.9597 "
            "| 0.2302         | 1       |            \n")

    def test_compare_command_accepts_enum_kwargs(self, capsys):
        code = main(["compare", "--ftls",
                     "DFTL(victim_policy='metadata_aware')"]
                    + self.COMPARE_TINY)
        assert code == 0
        assert capsys.readouterr().out == self.COMPARE_BANNER + (
            "ftl                                  | wa_total | ram_bytes "
            "| wa_gc | wa_translation | wa_user\n"
            "-------------------------------------+----------+-----------"
            "+-------+----------------+--------\n"
            "DFTL(victim_policy='metadata_aware') | 2.176    | 728       "
            "| 0.946 | 0.23           | 1      \n")

    def test_replay_command(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        operations = [Operation(OpKind.WRITE, i % 50) for i in range(300)]
        record_trace(operations, trace)
        code = main(["replay", str(trace), "--ftl", "GeckoFTL",
                     "--writes", "300", "--blocks", "64",
                     "--pages-per-block", "8", "--page-size", "256",
                     "--cache-entries", "64"])
        assert code == 0
        output = capsys.readouterr().out
        assert f"Replay of {trace} against GeckoFTL" in output
        assert "write_amplification" in output
        assert "host_writes" in output

    def test_replay_command_accepts_msr_format(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        with trace.open("w") as handle:
            for index in range(200):
                handle.write(f"{index},host,0,Write,"
                             f"{(index % 50) * 4096},4096,100\n")
        code = main(["replay", str(trace), "--format", "msr", "--wrap",
                     "--writes", "300", "--blocks", "64",
                     "--pages-per-block", "8", "--page-size", "256",
                     "--cache-entries", "64"])
        assert code == 0
        output = capsys.readouterr().out
        assert "write_amplification" in output


class TestIngestCommand:
    """repro ingest: validate / --stat / --convert over trace files."""

    @pytest.fixture
    def msr_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        # 3 records; the 8 KB write at byte 4096 windows onto 2 pages.
        trace.write_text("1,host,0,Write,4096,8192,100\n"
                         "2,host,0,Read,0,4096,100\n"
                         "3,host,0,Write,40960,4096,100\n")
        return trace

    def test_validate_default_counts_records_and_ops(self, msr_trace,
                                                     capsys):
        assert main(["ingest", str(msr_trace), "--format", "msr"]) == 0
        output = capsys.readouterr().out
        assert "Validated 1 trace(s) (msr)" in output
        assert "records" in output and "ops" in output

    def test_stat_prints_histogram_and_footprint(self, msr_trace, capsys):
        assert main(["ingest", str(msr_trace), "--format", "msr",
                     "--stat"]) == 0
        output = capsys.readouterr().out
        assert "Trace statistics (msr, lpn_scale=4096)" in output
        for column in ("writes", "reads", "trims", "footprint_pages",
                       "offset_range"):
            assert column in output

    def test_stat_on_several_files_prints_the_tenant_split(self, msr_trace,
                                                           tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("1,host,0,Write,0,4096,100\n")
        assert main(["ingest", str(msr_trace), str(other),
                     "--format", "msr", "--stat"]) == 0
        output = capsys.readouterr().out
        assert "Tenant split (by windowed ops)" in output
        assert "t0" in output and "t1" in output
        assert "80.0%" in output and "20.0%" in output

    def test_convert_writes_a_native_trace(self, msr_trace, tmp_path,
                                           capsys):
        out = tmp_path / "native.txt"
        assert main(["ingest", str(msr_trace), "--format", "msr",
                     "--convert", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "W 1", "W 2", "R 0", "W 10"]
        assert "wrote 4 native op(s)" in capsys.readouterr().out

    def test_malformed_trace_fails_with_line_number(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("1,host,0,Write,0,4096,100\ngarbage\n")
        assert main(["ingest", str(trace), "--format", "msr"]) == 2
        error = capsys.readouterr().err
        assert "invalid trace" in error and ":2:" in error

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.csv")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestSweepCommand:
    """The `repro sweep` subcommand: grids, plan files, sinks, resume."""

    TINY = ["--blocks", "64", "--pages-per-block", "8", "--page-size", "256",
            "--writes", "400", "--interval-writes", "200"]

    def test_requires_grid_or_plan(self, capsys):
        assert main(["sweep"] + self.TINY) == 2
        assert "needs --grid or --plan" in capsys.readouterr().err

    def test_grid_sweep_prints_progress_and_summary(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL,DFTL cache=32",
                     "--backend", "serial"] + self.TINY)
        assert code == 0
        output = capsys.readouterr().out
        assert "[1/2]" in output and "[2/2]" in output
        assert "Sweep of 2 tasks" in output
        assert "executed=2 skipped=0" in output
        assert "GeckoFTL" in output and "DFTL" in output

    def test_invalid_grid_is_a_usage_error(self, capsys):
        assert main(["sweep", "--grid", "cheese=1"] + self.TINY) == 2
        assert "invalid sweep plan" in capsys.readouterr().err

    def test_resume_without_store_is_a_usage_error(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL cache=32",
                     "--resume"] + self.TINY)
        assert code == 2
        assert "--resume needs --store" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--sink"])
    def test_removed_flags_are_unknown_arguments(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "ftl=GeckoFTL cache=32", flag, "2"]
                 + self.TINY)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_invalid_backend_is_a_usage_error(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL cache=32",
                     "--backend", "cheese"] + self.TINY)
        assert code == 2
        assert "invalid execution backend" in capsys.readouterr().err

    def test_plan_file_sweep(self, tmp_path, capsys):
        plan = {"ftls": ["GeckoFTL"],
                "devices": [{"num_blocks": 64, "pages_per_block": 8,
                             "page_size": 256}],
                "cache_capacities": [32], "seeds": [1],
                "write_operations": 300, "interval_writes": 150}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert main(["sweep", "--plan", str(plan_path)]) == 0
        output = capsys.readouterr().out
        assert "Sweep of 1 tasks" in output

    def test_invalid_plan_file_is_a_usage_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"cheese": 1}))
        assert main(["sweep", "--plan", str(plan_path)]) == 2
        assert "invalid sweep plan" in capsys.readouterr().err

    def test_store_and_resume_skip_completed_tasks(self, tmp_path, capsys):
        store = tmp_path / "rows.jsonl"
        arguments = ["sweep", "--grid", "ftl=GeckoFTL cache=32,48",
                     "--store", str(store)] + self.TINY
        assert main(arguments) == 0
        assert "executed=2 skipped=0" in capsys.readouterr().out
        assert len(store.read_text().splitlines()) == 2

        assert main(arguments + ["--resume"]) == 0
        assert "executed=0 skipped=2" in capsys.readouterr().out
        assert len(store.read_text().splitlines()) == 2

    def test_sqlite_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "rows.sqlite"
        arguments = ["sweep", "--grid", "ftl=GeckoFTL cache=32,48",
                     "--store", str(store)] + self.TINY
        assert main(arguments) == 0
        assert "executed=2 skipped=0" in capsys.readouterr().out
        assert main(arguments + ["--resume"]) == 0
        assert "executed=0 skipped=2" in capsys.readouterr().out
        from repro.engine import open_store
        with open_store(store) as reopened:
            assert len(reopened.rows()) == 2

    def test_shard_workers_then_merge(self, tmp_path, capsys):
        store = tmp_path / "rows.jsonl"
        base = ["sweep", "--grid", "ftl=GeckoFTL,DFTL cache=32 seed=1,2",
                "--store", str(store)] + self.TINY
        assert main(base + ["--shard", "0/2"]) == 0
        assert main(base + ["--shard", "1/2"]) == 0
        # Workers fill only their sub-stores; the merge writes the store.
        assert not store.exists()
        capsys.readouterr()
        assert main(base + ["--backend", "shard(hosts=2)"]) == 0
        out = capsys.readouterr().out
        assert "executed=4 skipped=0" in out
        rows = [json.loads(line)
                for line in store.read_text().splitlines()]
        assert [row["index"] for row in rows] == [0, 1, 2, 3]

    def test_shard_requires_store(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL cache=32",
                     "--shard", "0/2"] + self.TINY)
        assert code == 2
        assert "--shard needs --store" in capsys.readouterr().err

    def test_group_by_device_field(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL ratio=0.5,0.7",
                     "--cache-entries", "32",
                     "--group-by", "device.logical_ratio"] + self.TINY)
        assert code == 0
        output = capsys.readouterr().out
        assert "device.logical_ratio" in output
        assert "0.5" in output and "0.7" in output


class TestCrashCli:
    """The `repro crash` subcommand and `repro sweep --crash`."""

    TINY = ["--blocks", "64", "--pages-per-block", "8", "--page-size", "256"]

    def test_crash_command_prints_step_table_and_totals(self, capsys):
        code = main(["crash", "--ftl", "LazyFTL", "--writes", "600",
                     "--crash-after", "300", "--cache-entries", "32"]
                    + self.TINY)
        assert code == 0
        output = capsys.readouterr().out
        assert "Crash of LazyFTL after 300 ops" in output
        assert "step3_full_scan" in output
        assert "Recovery totals and post-recovery impact" in output
        assert "wa_delta" in output

    def test_crash_command_gecko_phase_gc(self, capsys):
        code = main(["crash", "--ftl", "GeckoFTL", "--writes", "600",
                     "--crash-after", "100", "--phase", "gc",
                     "--cache-entries", "32"] + self.TINY)
        assert code == 0
        output = capsys.readouterr().out
        assert "phase=gc, fired=yes" in output
        assert "step6_dirty_entries" in output

    def test_crash_command_no_recover(self, capsys):
        code = main(["crash", "--writes", "400", "--crash-after", "200",
                     "--no-recover", "--cache-entries", "32"] + self.TINY)
        assert code == 0
        assert "recovery skipped" in capsys.readouterr().out

    def test_sweep_crash_flag_produces_recovery_columns(self, capsys):
        code = main(["sweep", "--grid", "ftl=GeckoFTL,DFTL cache=32",
                     "--writes", "400", "--interval-writes", "200",
                     "--crash", "after_ops=200,phase=ops"] + self.TINY)
        assert code == 0
        output = capsys.readouterr().out
        assert "recovery_spare=" in output
        assert "recovery.total_spare_reads" in output
        assert "wa_delta" in output

    def test_sweep_crash_rows_persist_recovery(self, tmp_path):
        sink = tmp_path / "rows.jsonl"
        code = main(["sweep", "--grid", "ftl=LazyFTL cache=32",
                     "--writes", "400", "--interval-writes", "200",
                     "--crash", "200", "--store", str(sink)] + self.TINY)
        assert code == 0
        row = json.loads(sink.read_text().splitlines()[0])
        assert row["crash"]["after_ops"] == 200
        assert row["recovery"]["total_spare_reads"] > 0
        assert row["recovery"]["total_page_writes"] >= 0

    def test_malformed_crash_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--grid", "ftl=GeckoFTL", "--crash",
                 "after_ops=1,phase=nope"])

    def test_crash_command_invalid_workload_is_a_usage_error(self, capsys):
        code = main(["crash", "--workload", "NopeWorkload",
                     "--writes", "100"] + self.TINY)
        assert code == 2
        assert "invalid crash scenario" in capsys.readouterr().err

    def test_crash_command_negative_crash_after_is_a_usage_error(self, capsys):
        code = main(["crash", "--writes", "100", "--crash-after", "-5"]
                    + self.TINY)
        assert code == 2
        assert "invalid crash scenario" in capsys.readouterr().err

    def test_plan_file_sweep_honors_crash_flag(self, tmp_path, capsys):
        plan = {"ftls": ["GeckoFTL"],
                "devices": [{"num_blocks": 64, "pages_per_block": 8,
                             "page_size": 256}],
                "cache_capacities": [32], "seeds": [1],
                "write_operations": 400, "interval_writes": 200}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code = main(["sweep", "--plan", str(plan_path),
                     "--crash", "after_ops=200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "recovery_spare=" in output
        assert "recovery.total_spare_reads" in output


class TestQueryCommand:
    """The `repro query` subcommand: aggregates, quantiles, rows, export."""

    @staticmethod
    def _populate(path, rows=120):
        from repro.engine import open_store
        with open_store(path) as store:
            for index in range(rows):
                ftl = ("GeckoFTL", "DFTL", "LazyFTL")[index % 3]
                store.append({"key": f"{index:016x}", "ftl": ftl,
                              "seed": index, "wa_total": 1.0 + index % 7,
                              "ram_bytes": 1000 + index})
        return path

    @staticmethod
    def _body(lines):
        """Table rows only: drop the title and '===' ruler lines."""
        return [line for line in lines
                if line.strip() and set(line.strip()) != {"="}
                and "rows." not in line]

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "absent.sqlite")]) == 2
        assert "no such result store" in capsys.readouterr().err

    def test_grouped_aggregate_never_materializes_rows(self, tmp_path,
                                                       capsys, monkeypatch):
        # The ISSUE's acceptance bar: a grouped WA-by-FTL question over a
        # >=100-row sweep answered in SQL. Poisoning rows() proves no
        # Python row loading happens on the SQLite path.
        from repro.engine import SqliteResultStore
        store = self._populate(tmp_path / "rows.sqlite")
        monkeypatch.setattr(
            SqliteResultStore, "rows",
            lambda self: (_ for _ in ()).throw(
                AssertionError("rows() materialized in Python")))
        code = main(["query", str(store), "--by", "ftl",
                     "--metrics", "wa_total"])
        assert code == 0
        output = capsys.readouterr().out
        assert "GeckoFTL" in output and "wa_total_mean" in output

    def test_aggregate_matches_python_on_jsonl(self, tmp_path, capsys):
        sqlite_store = self._populate(tmp_path / "rows.sqlite")
        jsonl_store = self._populate(tmp_path / "rows.jsonl")
        assert main(["query", str(sqlite_store), "--metrics",
                     "wa_total"]) == 0
        from_sqlite = capsys.readouterr().out.splitlines()
        assert main(["query", str(jsonl_store), "--metrics",
                     "wa_total"]) == 0
        from_jsonl = capsys.readouterr().out.splitlines()
        # Same table body (title/ruler lines name the different paths).
        assert self._body(from_sqlite) == self._body(from_jsonl)

    def test_where_filters(self, tmp_path, capsys):
        store = self._populate(tmp_path / "rows.sqlite")
        assert main(["query", str(store), "--where", "ftl=DFTL",
                     "--metrics", "wa_total"]) == 0
        output = capsys.readouterr().out
        assert "DFTL" in output and "GeckoFTL" not in output

    def test_select_prints_jsonl_rows(self, tmp_path, capsys):
        store = self._populate(tmp_path / "rows.sqlite")
        assert main(["query", str(store), "--select", "ftl", "wa_total",
                     "--order-by=-wa_total", "--limit", "3"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert all(line["wa_total"] == 7.0 for line in lines)

    def test_quantile_uses_sql_on_sqlite(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.engine import SqliteResultStore
        store = self._populate(tmp_path / "rows.sqlite")
        monkeypatch.setattr(
            SqliteResultStore, "rows",
            lambda self: (_ for _ in ()).throw(
                AssertionError("rows() materialized in Python")))
        assert main(["query", str(store), "--quantile", "0.5",
                     "--metric", "wa_total"]) == 0
        assert "wa_total_p50" in capsys.readouterr().out

    def test_quantile_python_fallback_agrees(self, tmp_path, capsys):
        sqlite_store = self._populate(tmp_path / "rows.sqlite")
        jsonl_store = self._populate(tmp_path / "rows.jsonl")
        assert main(["query", str(sqlite_store), "--quantile", "0.9"]) == 0
        from_sqlite = capsys.readouterr().out.splitlines()
        assert main(["query", str(jsonl_store), "--quantile", "0.9"]) == 0
        from_jsonl = capsys.readouterr().out.splitlines()
        assert self._body(from_sqlite) == self._body(from_jsonl)

    def test_export_round_trips_between_formats(self, tmp_path, capsys):
        source = self._populate(tmp_path / "rows.jsonl", rows=10)
        assert main(["query", str(source), "--export",
                     str(tmp_path / "rows.sqlite")]) == 0
        assert "exported 10 row(s)" in capsys.readouterr().out
        assert main(["query", str(tmp_path / "rows.sqlite"), "--export",
                     str(tmp_path / "back.jsonl")]) == 0
        assert (tmp_path / "back.jsonl").read_bytes() == source.read_bytes()

    def test_bad_field_is_a_usage_error(self, tmp_path, capsys):
        store = self._populate(tmp_path / "rows.sqlite", rows=3)
        assert main(["query", str(store), "--select", "no;such"]) == 2
        assert "query failed" in capsys.readouterr().err
