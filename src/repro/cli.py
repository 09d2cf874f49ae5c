"""Command-line interface for quick experiments.

Lets a user run the library's main experiment shapes without writing code::

    python -m repro.cli compare --ftls GeckoFTL uFTL --writes 5000
    python -m repro.cli compare --ftls "GeckoFTL(cache_capacity=4096)"
    python -m repro.cli ram --capacity-gb 2048
    python -m repro.cli recovery --capacity-gb 2048
    python -m repro.cli replay trace.txt --ftl GeckoFTL
    python -m repro.cli sweep --grid "ftl=GeckoFTL,DFTL cache=1024,4096" \
        --backend "pool(workers=4)" --store results.sqlite --resume
    python -m repro.cli query results.sqlite --by ftl --metrics wa_total

FTLs and workloads are named through their registries (:mod:`repro.api` and
:mod:`repro.workloads.registry`): any registered name is accepted, optionally
with constructor arguments in parentheses. Output is plain text, matching the
benchmark suite's reports.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .analysis import all_ftl_ram, all_ftl_recovery
from .api import FTLSpec, SimulationSession, ftl_names
from .bench.perf import (bench_names, compare_records, load_records,
                         run_benchmarks)
from .bench.reporting import format_bytes, format_seconds, print_report
from .engine import (DEFAULT_METRICS, LATENCY_FIELDS, CrashPlan,
                     ExecutionBackend, SqliteResultStore, SweepExecutor,
                     SweepPlan, SweepTask, aggregate, backend_names,
                     copy_rows, device_dict, execute_task, latency_table,
                     open_store)
from .engine.executor import SweepTaskError
from .flash.config import paper_configuration, simulation_configuration
from .obs import ObsSpec, SweepProgress, event_names
from .timing import DEVICE_PRESETS, TimingSpec
from .workloads import (StreamingTraceWorkload, UniformRandomWrites,
                        WorkloadSpec, workload_names)
from .workloads.ingest.formats import (TRACE_FORMATS, TraceFormatError,
                                       _open_trace, get_trace_format,
                                       iter_trace_records)


def _ftl_spec(text: str) -> FTLSpec:
    """argparse type: validate an FTL name/spec against the registry."""
    try:
        return FTLSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _crash_plan(text: str) -> CrashPlan:
    """argparse type: parse a crash-schedule shorthand."""
    try:
        return CrashPlan.of(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _timing_spec(text: str) -> TimingSpec:
    """argparse type: parse a timing preset/shorthand."""
    try:
        return TimingSpec.of(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _obs_spec(text: str) -> ObsSpec:
    """argparse type: parse an observability preset/shorthand."""
    try:
        return ObsSpec.of(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _shard_ref(text: str) -> Tuple[int, int]:
    """argparse type: parse ``I/N`` into a (index, hosts) pair."""
    index_text, slash, hosts_text = text.partition("/")
    try:
        index, hosts = int(index_text), int(hosts_text)
    except ValueError:
        slash = ""
        index = hosts = 0
    if not slash or hosts < 1 or not 0 <= index < hosts:
        raise argparse.ArgumentTypeError(
            f"expected I/N with 0 <= I < N, e.g. '0/4'; got {text!r}")
    return index, hosts


def _where_item(text: str) -> Tuple[str, Any]:
    """argparse type: parse ``field=value`` (value as a literal, else str)."""
    field, equals, raw = text.partition("=")
    if not equals or not field:
        raise argparse.ArgumentTypeError(
            f"expected field=value, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return field, value


def _device_from_args(arguments) -> "simulation_configuration":
    return simulation_configuration(num_blocks=arguments.blocks,
                                    pages_per_block=arguments.pages_per_block,
                                    page_size=arguments.page_size,
                                    logical_ratio=arguments.logical_ratio)


def _paper_config_scaled(capacity_gb: float):
    base = paper_configuration()
    blocks = int(capacity_gb * 2**30 /
                 (base.pages_per_block * base.page_size))
    return base.scaled(num_blocks=max(1, blocks))


def cmd_compare(arguments) -> int:
    device = _device_from_args(arguments)
    rows = []
    for spec in arguments.ftls:
        with SimulationSession(
                spec, device=device,
                ftl_kwargs={"cache_capacity": arguments.cache_entries}
        ) as session:
            session.warmup()
            session.run(UniformRandomWrites(device.logical_pages,
                                            seed=arguments.seed),
                        arguments.writes)
            rows.append({**session.snapshot().row(), "ftl": str(spec)})
    print_report(
        f"Write-amplification after {arguments.writes} random updates", rows)
    return 0


def cmd_ram(arguments) -> int:
    config = _paper_config_scaled(arguments.capacity_gb)
    print_report(
        f"Integrated-RAM breakdown at {arguments.capacity_gb} GB (analytical)",
        [{"ftl": breakdown.ftl, "total": format_bytes(breakdown.total),
          **{name: format_bytes(size)
             for name, size in sorted(breakdown.components.items())}}
         for breakdown in all_ftl_ram(config)])
    return 0


def cmd_recovery(arguments) -> int:
    config = _paper_config_scaled(arguments.capacity_gb)
    print_report(
        f"Recovery-time breakdown at {arguments.capacity_gb} GB (analytical)",
        [{"ftl": breakdown.ftl,
          "battery": "yes" if breakdown.requires_battery else "no",
          "total": format_seconds(breakdown.total_seconds(config)),
          **{name: format_seconds(seconds) for name, seconds
             in sorted(breakdown.phase_seconds(config).items())}}
         for breakdown in all_ftl_recovery(config)])
    return 0


def cmd_replay(arguments) -> int:
    device_config = _device_from_args(arguments)
    spec = FTLSpec.of(arguments.ftl)
    with SimulationSession(
            spec, device=device_config,
            interval_writes=max(1, arguments.writes // 10),
            ftl_kwargs={"cache_capacity": arguments.cache_entries}) as session:
        session.warmup()
        workload = StreamingTraceWorkload(arguments.trace,
                                          device_config.logical_pages,
                                          format=arguments.format,
                                          lpn_scale=arguments.lpn_scale,
                                          oor=arguments.oor,
                                          wrap=arguments.wrap)
        result = session.run(workload, arguments.writes)
        print_report(f"Replay of {arguments.trace} against {spec}", [{
            "host_writes": result.host_writes,
            "host_reads": result.host_reads,
            "write_amplification": round(
                result.write_amplification(device_config.delta), 4),
            "ram_bytes": session.ftl.ram_bytes(),
        }])
    return 0


def _ingest_scan(path: str, trace_format, lpn_scale: int, sink=None):
    """Stream one trace once, returning its summary row (and converting).

    Constant-memory except for the footprint estimate, which tracks the set
    of distinct pages touched — fine for the offline tooling path.
    """
    kinds = {"WRITE": 0, "READ": 0, "TRIM": 0}
    records = operations = 0
    pages = set()
    min_offset = max_offset = None
    first_ts = last_ts = None
    for record, _line in iter_trace_records(path, trace_format):
        records += 1
        kinds[record.kind.name] += 1
        if trace_format.byte_addressed:
            first = record.offset // lpn_scale
            last = (record.offset + max(record.size, 1) - 1) // lpn_scale
        else:
            first = last = record.offset
        operations += last - first + 1
        pages.update(range(first, last + 1))
        if min_offset is None or record.offset < min_offset:
            min_offset = record.offset
        span = record.offset + record.size
        if max_offset is None or span > max_offset:
            max_offset = span
        if record.timestamp is not None:
            if first_ts is None:
                first_ts = record.timestamp
            last_ts = record.timestamp
        if sink is not None:
            letter = {"WRITE": "W", "READ": "R", "TRIM": "T"}[record.kind.name]
            for lpn in range(first, last + 1):
                sink.write(f"{letter} {lpn}\n")
    return {
        "trace": path,
        "records": records,
        "ops": operations,
        "writes": kinds["WRITE"],
        "reads": kinds["READ"],
        "trims": kinds["TRIM"],
        "footprint_pages": len(pages),
        "footprint": format_bytes(len(pages) * lpn_scale),
        "offset_range": ("-" if min_offset is None
                         else f"{min_offset}..{max_offset}"),
        "span_s": (round(last_ts - first_ts, 3)
                   if first_ts is not None and last_ts > first_ts else 0.0),
    }


def cmd_ingest(arguments) -> int:
    """Validate, summarise or convert block traces (the offline half of
    :mod:`repro.workloads.ingest` — no device or FTL involved)."""
    trace_format = get_trace_format(arguments.format)
    sink = None
    if arguments.convert:
        sink = _open_trace(arguments.convert, "wt")
    rows = []
    try:
        for path in arguments.traces:
            rows.append(_ingest_scan(path, trace_format, arguments.lpn_scale,
                                     sink=sink))
    except TraceFormatError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    if arguments.stat:
        print_report(
            f"Trace statistics ({arguments.format}, "
            f"lpn_scale={arguments.lpn_scale})", rows)
        if len(rows) > 1:
            total = sum(row["ops"] for row in rows) or 1
            print_report("Tenant split (by windowed ops)", [
                {"tenant": f"t{index}", "trace": row["trace"],
                 "ops": row["ops"],
                 "share": f"{100.0 * row['ops'] / total:.1f}%"}
                for index, row in enumerate(rows)])
    else:
        print_report(
            f"Validated {len(rows)} trace(s) ({arguments.format})",
            [{"trace": row["trace"], "records": row["records"],
              "ops": row["ops"]} for row in rows])
    if arguments.convert:
        converted = sum(row["ops"] for row in rows)
        print(f"\nwrote {converted} native op(s) to {arguments.convert}")
    return 0


def _run_observed(arguments, spec: ObsSpec):
    """Shared trace/metrics driver: one observed session, one workload run."""
    session = SimulationSession(
        arguments.ftl, device=_device_from_args(arguments),
        interval_writes=max(1, arguments.writes // 10),
        ftl_kwargs={"cache_capacity": arguments.cache_entries},
        timing=arguments.timing, obs=spec)
    with session:
        session.warmup()
        workload = WorkloadSpec.of(arguments.workload).build(
            session.config.logical_pages, seed=arguments.seed)
        session.run(workload, arguments.writes)
        return session


def cmd_trace(arguments) -> int:
    """Run one observed simulation and dump its structured event trace."""
    spec = ObsSpec.preset("trace", trace_capacity=arguments.capacity)
    try:
        session = _run_observed(arguments, spec)
    except ValueError as exc:
        print(f"invalid trace scenario: {exc}", file=sys.stderr)
        return 2
    trace = session.obs.trace
    kinds = arguments.events
    try:
        if arguments.out:
            written = trace.export_jsonl(arguments.out, kinds=kinds)
            print(f"wrote {written} event(s) to {arguments.out} "
                  f"(captured {trace.seq}, dropped {trace.dropped})")
        else:
            shown = 0
            tail = list(trace.events(kinds))[-arguments.tail:]
            for event in tail:
                print(json.dumps(event, sort_keys=True,
                                 separators=(",", ":")))
                shown += 1
            print(f"# shown {shown} of {trace.seq} captured event(s) "
                  f"(ring dropped {trace.dropped}); "
                  f"summary: {trace.summary()}", file=sys.stderr)
    except ValueError as exc:
        print(f"invalid event filter: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_metrics(arguments) -> int:
    """Run one observed simulation and dump its metrics time series."""
    spec = ObsSpec.preset("metrics", sample_every=arguments.sample_every)
    try:
        session = _run_observed(arguments, spec)
    except ValueError as exc:
        print(f"invalid metrics scenario: {exc}", file=sys.stderr)
        return 2
    recorder = session.obs.metrics
    if arguments.out:
        if arguments.format == "csv":
            written = recorder.export_csv(arguments.out)
        else:
            written = recorder.export_jsonl(arguments.out)
        print(f"wrote {written} sample row(s) to {arguments.out}")
        return 0
    if arguments.format == "csv":
        recorder.export_csv(sys.stdout)
    else:
        recorder.export_jsonl(sys.stdout)
    return 0


def cmd_sweep(arguments) -> int:
    if arguments.resume and not arguments.store:
        print("--resume needs --store to resume from", file=sys.stderr)
        return 2
    backend_spec = arguments.backend
    if arguments.shard is not None:
        if backend_spec is not None:
            print("--shard cannot be combined with --backend",
                  file=sys.stderr)
            return 2
        index, hosts = arguments.shard
        if not arguments.store:
            print("--shard needs --store (the per-shard sub-stores are "
                  "derived from it)", file=sys.stderr)
            return 2
        backend_spec = f"shard(hosts={hosts}, index={index})"
    try:
        backend = ExecutionBackend.of(backend_spec or "serial")
    except (ValueError, TypeError) as exc:
        print(f"invalid execution backend: {exc}", file=sys.stderr)
        return 2
    base_device = device_dict(num_blocks=arguments.blocks,
                              pages_per_block=arguments.pages_per_block,
                              page_size=arguments.page_size,
                              logical_ratio=arguments.logical_ratio)
    overrides = {"devices": [base_device],
                 "cache_capacities": [arguments.cache_entries],
                 "write_operations": arguments.writes,
                 "interval_writes": arguments.interval_writes,
                 "seeds": [arguments.seed]}
    if arguments.crash is not None:
        overrides["crash"] = arguments.crash
    if arguments.timing is not None:
        overrides["timing"] = arguments.timing
    try:
        if arguments.plan is not None:
            with open(arguments.plan, "r", encoding="utf-8") as handle:
                plan_dict = json.load(handle)
            if arguments.crash is not None:
                # The plan file is authoritative for the grid, but an
                # explicit --crash flag (no ambient default) still applies.
                plan_dict["crash"] = arguments.crash.to_dict()
            if arguments.timing is not None:
                # Same rule as --crash: explicit flags compose with a plan.
                plan_dict["timing"] = arguments.timing.to_dict()
            plan = SweepPlan.from_dict(plan_dict)
        elif arguments.grid is not None:
            plan = SweepPlan.from_grid(arguments.grid, **overrides)
        else:
            print("sweep needs --grid or --plan", file=sys.stderr)
            return 2
    except (ValueError, OSError) as exc:
        print(f"invalid sweep plan: {exc}", file=sys.stderr)
        return 2

    def on_task(task, row, completed, total):
        extra = ""
        if row.get("recovery") is not None:
            extra = (f" recovery_spare={row['recovery']['total_spare_reads']}"
                     f" recovery_ms="
                     f"{row['recovery']['total_duration_us'] / 1000:.1f}")
        if row.get("p99_us") is not None:
            extra += (f" p99_us={row['p99_us']:.0f}"
                      f" p999_us={row['p999_us']:.0f}")
        print(f"[{completed}/{total}] {task.ftl} "
              f"workload={task.workload} cache={task.cache_capacity} "
              f"seed={task.seed} wa={row['wa_total']:.4f}{extra} "
              f"({row['elapsed_s']:.2f}s, {row['ops_per_sec']:.0f} ops/s)")

    progress = SweepProgress() if arguments.progress else None
    executor = SweepExecutor(backend,
                             on_task=progress if progress is not None
                             else on_task)
    store = open_store(arguments.store) if arguments.store else None
    try:
        report = executor.run(plan, store=store, resume=arguments.resume)
    except SweepTaskError as exc:
        if progress is not None:
            progress.note_failure(exc)
            progress.finish()
            return 1
        raise
    finally:
        if store is not None:
            store.close()
    if progress is not None:
        progress.finish()
    metrics = ["wa_total", "ops_per_sec", "ram_bytes"]
    if any(row.get("recovery") is not None for row in report.rows):
        metrics += ["recovery.total_spare_reads", "recovery.total_page_reads",
                    "recovery.total_page_writes", "recovery.total_duration_us",
                    "wa_delta"]
    if any(row.get("p99_us") is not None for row in report.rows):
        metrics += list(LATENCY_FIELDS)
    print_report(f"Sweep of {len(plan)} tasks ({backend})",
                 aggregate(report.rows, by=tuple(arguments.group_by),
                           metrics=tuple(metrics)))
    print(f"\n{report.summary()}")
    return 0


def _row_field(row: Dict[str, Any], field: str) -> Any:
    """Resolve a (possibly dotted) field path in a row dict."""
    value: Any = row
    for part in field.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def _match_where(row: Dict[str, Any], where: Dict[str, Any]) -> bool:
    return all(_row_field(row, field) == value
               for field, value in where.items())


def _python_group_quantile(rows, by, metric: str, q: float):
    """Nearest-rank per-group quantile (JSONL fallback for ``--quantile``)."""
    grouped: Dict[tuple, List[float]] = {}
    for row in rows:
        value = _row_field(row, metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            key = tuple(_row_field(row, field) for field in by)
            grouped.setdefault(key, []).append(value)
    label = f"{metric}_p" + f"{q * 100:g}".replace(".", "")
    table = []
    for key, values in grouped.items():
        values.sort()
        rank = max(1, math.ceil(q * len(values)))
        entry = dict(zip(by, key))
        entry["n"] = len(values)
        entry[label] = values[rank - 1]
        table.append(entry)
    return table


def cmd_query(arguments) -> int:
    """Query a result store: grouped aggregates, row listings, export.

    Against a SQLite store every mode except ``--export`` runs inside the
    database (``GROUP BY`` / window functions); rows are never materialized
    in Python. JSONL sinks fall back to the Python aggregation helpers.
    """
    path = Path(arguments.store)
    if not path.exists():
        print(f"no such result store: {path}", file=sys.stderr)
        return 2
    store = open_store(path)
    where = dict(arguments.where or [])
    sqlite = isinstance(store, SqliteResultStore)
    try:
        if arguments.export is not None:
            destination = open_store(arguments.export)
            try:
                copied = copy_rows(store, destination)
            finally:
                destination.close()
            print(f"exported {copied} row(s): {path} -> {arguments.export}")
            return 0

        if arguments.quantile is not None:
            if sqlite:
                table = store.group_quantile(
                    arguments.metric, by=tuple(arguments.by),
                    q=arguments.quantile, where=where or None)
            else:
                rows = (row for row in store.rows()
                        if _match_where(row, where))
                table = _python_group_quantile(
                    rows, tuple(arguments.by), arguments.metric,
                    arguments.quantile)
            print_report(
                f"p{arguments.quantile * 100:g} of {arguments.metric} "
                f"by {', '.join(arguments.by)} ({path})", table)
            return 0

        if arguments.select:
            if sqlite:
                rows = store.query(select=list(arguments.select),
                                   where=where or None,
                                   order_by=arguments.order_by,
                                   limit=arguments.limit)
            else:
                rows = [
                    {field: _row_field(row, field)
                     for field in arguments.select}
                    for row in store.rows() if _match_where(row, where)]
                if arguments.order_by:
                    descending = arguments.order_by.startswith("-")
                    field = arguments.order_by.lstrip("-")
                    rows.sort(key=lambda row: (row.get(field) is None,
                                               row.get(field)),
                              reverse=descending)
                if arguments.limit is not None:
                    rows = rows[:arguments.limit]
            for row in rows:
                print(json.dumps(row, sort_keys=True, separators=(",", ":")))
            return 0

        if sqlite:
            table = store.aggregate_table(by=tuple(arguments.by),
                                          metrics=tuple(arguments.metrics),
                                          where=where or None)
        else:
            rows = (row for row in store.rows() if _match_where(row, where))
            table = aggregate(rows, by=tuple(arguments.by),
                              metrics=tuple(arguments.metrics))
        print_report(f"Aggregate by {', '.join(arguments.by)} ({path})",
                     table)
        return 0
    except (ValueError, OSError) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()


def cmd_latency(arguments) -> int:
    """Compare FTL tail latencies under one timing spec and workload."""
    device = device_dict(num_blocks=arguments.blocks,
                         pages_per_block=arguments.pages_per_block,
                         page_size=arguments.page_size,
                         logical_ratio=arguments.logical_ratio)
    rows = []
    try:
        tasks = [SweepTask(ftl=str(spec), workload=arguments.workload,
                           device=device,
                           cache_capacity=arguments.cache_entries,
                           seed=arguments.seed,
                           write_operations=arguments.writes,
                           interval_writes=max(1, arguments.writes // 10),
                           timing=arguments.timing.to_dict())
                 for spec in arguments.ftls]
    except ValueError as exc:
        print(f"invalid latency scenario: {exc}", file=sys.stderr)
        return 2
    for task in tasks:
        row = execute_task(task)
        rows.append(row)
        print(f"{task.ftl}: wa={row['wa_total']:.4f} "
              f"throughput={row['throughput_ops_s']:.0f} ops/s "
              f"p50={row['p50_us']:.0f}us p99={row['p99_us']:.0f}us "
              f"p999={row['p999_us']:.0f}us")
    print()
    print_report(
        f"Virtual-time QoS under {arguments.workload} "
        f"({arguments.timing} timing, {arguments.writes} ops)",
        latency_table(rows))
    return 0


def cmd_crash(arguments) -> int:
    """Run one crash–recovery scenario and print the recovery breakdown."""
    try:
        task = SweepTask(
            ftl=str(arguments.ftl), workload=arguments.workload,
            device=device_dict(num_blocks=arguments.blocks,
                               pages_per_block=arguments.pages_per_block,
                               page_size=arguments.page_size,
                               logical_ratio=arguments.logical_ratio),
            cache_capacity=arguments.cache_entries, seed=arguments.seed,
            write_operations=arguments.writes,
            interval_writes=max(1, arguments.writes // 10),
            crash=CrashPlan(after_ops=arguments.crash_after,
                            phase=arguments.phase,
                            recover=not arguments.no_recover).to_dict())
    except ValueError as exc:
        print(f"invalid crash scenario: {exc}", file=sys.stderr)
        return 2
    row = execute_task(task)
    crash = row["crash"]
    header = (f"Crash of {row['ftl']} after {crash['ops_completed']} ops "
              f"(phase={crash['phase']}, "
              f"fired={'yes' if crash['phase_fired'] else 'no'})")
    if row["recovery"] is None:
        print(header)
        print("recovery skipped (--no-recover)")
        return 0
    recovery = row["recovery"]
    print_report(header, [
        {"step": step["name"], "page_reads": step["page_reads"],
         "page_writes": step["page_writes"],
         "spare_reads": step["spare_reads"],
         "duration": format_seconds(step["duration_us"] / 1e6)}
        for step in recovery["steps"]])
    print_report("Recovery totals and post-recovery impact", [{
        "page_reads": recovery["total_page_reads"],
        "page_writes": recovery["total_page_writes"],
        "spare_reads": recovery["total_spare_reads"],
        "duration": format_seconds(recovery["total_duration_us"] / 1e6),
        "wa_pre_crash": row["wa_pre_crash"],
        "wa_post_recovery": row["wa_post_recovery"],
        "wa_delta": row["wa_delta"],
    }])
    return 0


def cmd_bench(arguments) -> int:
    if arguments.compare is not None:
        baseline_path, current_path = arguments.compare
        try:
            baseline = load_records(baseline_path)
            current = load_records(current_path)
            rows, regressions = compare_records(baseline, current,
                                                tolerance=arguments.tolerance)
        except (OSError, ValueError) as exc:
            print(f"bench compare failed: {exc}", file=sys.stderr)
            return 2
        shared = [row for row in rows if row["ratio"] is not None]
        if not shared:
            print("bench compare failed: the two record sets share no "
                  "benchmark names", file=sys.stderr)
            return 2
        print_report(
            f"Benchmark comparison ({baseline_path} -> {current_path}, "
            f"tolerance {arguments.tolerance:.0%})", rows)
        if regressions:
            print(f"\nREGRESSION beyond {arguments.tolerance:.0%} in: "
                  f"{', '.join(regressions)}", file=sys.stderr)
            return 1
        print("\nno regressions beyond tolerance")
        return 0

    try:
        records = run_benchmarks(names=arguments.only, quick=arguments.quick,
                                 repeats=arguments.repeats,
                                 out_dir=arguments.out, log=print)
    except KeyError as exc:
        print(f"bench failed: {exc.args[0]}", file=sys.stderr)
        return 2
    print_report(
        f"Microbenchmarks ({'quick' if arguments.quick else 'full'}, "
        f"best of {arguments.repeats})",
        [{"benchmark": record["name"], "ops": record["ops"],
          "wall_seconds": record["wall_seconds"],
          "ops_per_sec": record["ops_per_sec"]} for record in records])
    if arguments.out:
        print(f"\nwrote {len(records)} BENCH_<name>.json record(s) "
              f"to {arguments.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="GeckoFTL reproduction CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)
    known = ", ".join(ftl_names())

    def add_device_arguments(sub):
        sub.add_argument("--blocks", type=int, default=128)
        sub.add_argument("--pages-per-block", type=int, default=16)
        sub.add_argument("--page-size", type=int, default=256)
        sub.add_argument("--logical-ratio", type=float, default=0.7)
        sub.add_argument("--cache-entries", type=int, default=128)

    compare = subparsers.add_parser(
        "compare", help="simulate several FTLs under random updates")
    add_device_arguments(compare)
    compare.add_argument("--ftls", nargs="+", default=["GeckoFTL", "uFTL"],
                         type=_ftl_spec, metavar="FTL",
                         help="FTL names or specs like "
                              "'GeckoFTL(cache_capacity=4096)' "
                              f"(known: {known})")
    compare.add_argument("--writes", type=int, default=4000)
    compare.add_argument("--seed", type=int, default=42)
    compare.set_defaults(handler=cmd_compare)

    ram = subparsers.add_parser(
        "ram", help="analytical integrated-RAM breakdown per FTL")
    ram.add_argument("--capacity-gb", type=float, default=2048.0)
    ram.set_defaults(handler=cmd_ram)

    recovery = subparsers.add_parser(
        "recovery", help="analytical recovery-time breakdown per FTL")
    recovery.add_argument("--capacity-gb", type=float, default=2048.0)
    recovery.set_defaults(handler=cmd_recovery)

    replay = subparsers.add_parser(
        "replay", help="replay a trace file against one FTL")
    add_device_arguments(replay)
    replay.add_argument("trace", help="trace file (W/R/T <logical> per line)")
    replay.add_argument("--ftl", default="GeckoFTL", type=_ftl_spec,
                        metavar="FTL",
                        help=f"FTL name or spec (known: {known})")
    replay.add_argument("--writes", type=int, default=4000)
    replay.add_argument("--wrap", action="store_true",
                        help="wrap around when the trace is exhausted")
    replay.add_argument("--format", default="native",
                        choices=sorted(TRACE_FORMATS),
                        help="trace format (default: native W/R/T <lpn>)")
    replay.add_argument("--lpn-scale", type=int, default=4096,
                        help="bytes per logical page when the format is "
                             "byte-addressed (default: 4096)")
    replay.add_argument("--oor", default="clip",
                        choices=("clip", "wrap", "error"),
                        help="policy for trace pages beyond the device's "
                             "logical space (default: clip)")
    replay.set_defaults(handler=cmd_replay)

    ingest = subparsers.add_parser(
        "ingest", help="validate, summarise or convert block traces")
    ingest.add_argument("traces", nargs="+", metavar="TRACE",
                        help="trace file(s); .gz is read transparently")
    ingest.add_argument("--format", default="native",
                        choices=sorted(TRACE_FORMATS),
                        help="trace format of every input file")
    ingest.add_argument("--lpn-scale", type=int, default=4096,
                        help="bytes per logical page when the format is "
                             "byte-addressed (default: 4096)")
    ingest.add_argument("--stat", action="store_true",
                        help="print the op histogram, footprint and offset "
                             "range per file (plus the tenant split when "
                             "several files are given)")
    ingest.add_argument("--convert", metavar="OUT",
                        help="write the windowed ops of all inputs, in "
                             "order, as one native-format trace (.gz "
                             "compresses)")
    ingest.set_defaults(handler=cmd_ingest)

    sweep = subparsers.add_parser(
        "sweep", help="run a grid of experiments, optionally in parallel")
    add_device_arguments(sweep)
    sweep.add_argument("--grid", metavar="SPEC",
                       help="grid shorthand, e.g. "
                            "'ftl=GeckoFTL,DFTL cache=1024,4096 seed=1,2' "
                            f"(workloads: {', '.join(workload_names())})")
    sweep.add_argument("--plan", metavar="FILE",
                       help="JSON sweep-plan file; the file is authoritative "
                            "(overrides --grid and the device/--writes/"
                            "--seed/--cache-entries flags)")
    sweep.add_argument("--writes", type=int, default=4000,
                       help="measured application writes per task")
    sweep.add_argument("--interval-writes", type=int, default=1000)
    sweep.add_argument("--seed", type=int, default=42,
                       help="base seed when the grid has no seed axis")
    sweep.add_argument("--backend", metavar="SPEC", default=None,
                       help="execution backend spec, e.g. 'serial', "
                            "'pool(workers=4)', 'shard(hosts=4, workers=2)' "
                            f"(known: {', '.join(backend_names())})")
    sweep.add_argument("--shard", type=_shard_ref, metavar="I/N",
                       default=None,
                       help="run only shard I of an N-way key-ranged "
                            "partition into its own sub-store (shorthand "
                            "for --backend 'shard(hosts=N, index=I)'; "
                            "requires --store; merge afterwards with "
                            "--backend 'shard(hosts=N)')")
    sweep.add_argument("--store", metavar="FILE",
                       help="result store (append; enables --resume): "
                            ".sqlite/.db opens the queryable SQLite store, "
                            "anything else a JSONL sink")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks whose key is already in the store")
    sweep.add_argument("--group-by", nargs="+", default=["ftl"],
                       help="row fields for the aggregate table "
                            "(dotted paths reach into device)")
    sweep.add_argument("--crash", type=_crash_plan, metavar="SPEC",
                       default=None,
                       help="run every cell as a crash-recovery scenario, "
                            "e.g. 'after_ops=2000,phase=gc' (phases: ops, "
                            "gc, merge; add recover=false to stop at the "
                            "failure)")
    sweep.add_argument("--timing", type=_timing_spec, metavar="PRESET",
                       default=None,
                       help="run every cell on a timed device and add "
                            "throughput/p50/p99/p999 columns; presets: "
                            f"{', '.join(sorted(DEVICE_PRESETS))}, with "
                            "overrides like 'slc(channels=8)'")
    sweep.add_argument("--progress", action="store_true",
                       help="live progress telemetry on stderr (rows/sec, "
                            "ETA, per-task wall time, failures); display "
                            "only — result rows are unchanged")
    sweep.set_defaults(handler=cmd_sweep)

    query = subparsers.add_parser(
        "query", help="query a sweep result store (grouped aggregates, "
                      "quantiles, row listings, JSONL<->SQLite export)")
    query.add_argument("store", metavar="STORE",
                       help="result store path (.jsonl sink or "
                            ".sqlite/.db store)")
    query.add_argument("--by", nargs="+", default=["ftl"], metavar="FIELD",
                       help="group-by fields (dotted paths reach nested "
                            "dicts, e.g. device.num_blocks)")
    query.add_argument("--metrics", nargs="+", metavar="FIELD",
                       default=list(DEFAULT_METRICS),
                       help="metrics to summarize as mean/min/max "
                            f"(default: {' '.join(DEFAULT_METRICS)})")
    query.add_argument("--where", nargs="+", type=_where_item,
                       metavar="FIELD=VALUE", default=None,
                       help="equality filters; values parse as Python "
                            "literals, else strings (e.g. ftl=GeckoFTL "
                            "seed=1)")
    query.add_argument("--select", nargs="+", metavar="FIELD", default=None,
                       help="list matching rows as JSONL with these fields "
                            "instead of aggregating")
    query.add_argument("--order-by", metavar="FIELD", default=None,
                       help="sort --select output by FIELD "
                            "(-FIELD for descending)")
    query.add_argument("--limit", type=int, default=None,
                       help="cap --select output rows")
    query.add_argument("--quantile", type=float, metavar="Q", default=None,
                       help="per-group nearest-rank quantile of --metric "
                            "(0.5 = median; SQL window functions on SQLite "
                            "stores)")
    query.add_argument("--metric", metavar="FIELD", default="wa_total",
                       help="metric for --quantile (default: wa_total)")
    query.add_argument("--export", metavar="FILE", default=None,
                       help="copy every row into FILE (format by "
                            "extension) — migrates JSONL<->SQLite")
    query.set_defaults(handler=cmd_query)

    def add_observed_arguments(sub):
        add_device_arguments(sub)
        sub.add_argument("--ftl", default="GeckoFTL", type=_ftl_spec,
                         metavar="FTL",
                         help=f"FTL name or spec (known: {known})")
        sub.add_argument("--workload", default="UniformRandomWrites",
                         help="workload name or spec "
                              f"(known: {', '.join(workload_names())})")
        sub.add_argument("--writes", type=int, default=4000)
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--timing", type=_timing_spec, metavar="PRESET",
                         default=None,
                         help="also run the virtual clock (adds windowed "
                              "latency percentiles to metrics rows); "
                              f"presets: {', '.join(sorted(DEVICE_PRESETS))}")
        sub.add_argument("--out", metavar="FILE", default=None,
                         help="write to FILE instead of stdout")

    trace = subparsers.add_parser(
        "trace", help="run one observed simulation and dump its structured "
                      "event trace as JSONL")
    add_observed_arguments(trace)
    trace.add_argument("--events", nargs="+", metavar="EVENT", default=None,
                       help="only these event kinds "
                            f"(known: {', '.join(event_names())})")
    trace.add_argument("--capacity", type=int, default=65_536,
                       help="trace ring-buffer capacity (older events are "
                            "dropped beyond it)")
    trace.add_argument("--tail", type=int, default=40,
                       help="events to print when no --out is given")
    trace.set_defaults(handler=cmd_trace)

    metrics = subparsers.add_parser(
        "metrics", help="run one observed simulation and dump its sampled "
                        "metrics time series")
    add_observed_arguments(metrics)
    metrics.add_argument("--sample-every", type=int, default=1000,
                         help="host operations per sample window")
    metrics.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                         help="export format (default: csv)")
    metrics.set_defaults(handler=cmd_metrics)

    latency = subparsers.add_parser(
        "latency", help="compare FTL tail latencies (p50/p99/p999) under a "
                        "device timing model")
    add_device_arguments(latency)
    latency.add_argument("--ftls", nargs="+",
                         default=["GeckoFTL", "DFTL", "LazyFTL"],
                         type=_ftl_spec, metavar="FTL",
                         help=f"FTL names or specs (known: {known})")
    latency.add_argument("--workload", default="UniformRandomWrites",
                         help="workload name or spec "
                              f"(known: {', '.join(workload_names())})")
    latency.add_argument("--writes", type=int, default=4000)
    latency.add_argument("--seed", type=int, default=42)
    latency.add_argument("--timing", type=_timing_spec, metavar="PRESET",
                         default=TimingSpec.preset("slc"),
                         help="timing preset/shorthand (presets: "
                              f"{', '.join(sorted(DEVICE_PRESETS))}; "
                              "default: slc)")
    latency.set_defaults(handler=cmd_latency)

    crash = subparsers.add_parser(
        "crash", help="simulate one power failure + recovery and print the "
                      "recovery IO breakdown")
    add_device_arguments(crash)
    crash.add_argument("--ftl", default="GeckoFTL", type=_ftl_spec,
                       metavar="FTL",
                       help=f"FTL name or spec (known: {known})")
    crash.add_argument("--workload", default="UniformRandomWrites",
                       help="workload name or spec "
                            f"(known: {', '.join(workload_names())})")
    crash.add_argument("--writes", type=int, default=4000,
                       help="workload operations (the crash interrupts them)")
    crash.add_argument("--crash-after", type=int, default=2000,
                       help="operations to complete before the failure")
    crash.add_argument("--phase", choices=["ops", "gc", "merge"],
                       default="ops",
                       help="failure point: between ops, mid-GC "
                            "(before the victim erase), or mid-merge")
    crash.add_argument("--no-recover", action="store_true",
                       help="stop at the power failure without recovering")
    crash.add_argument("--seed", type=int, default=42)
    crash.set_defaults(handler=cmd_crash)

    bench = subparsers.add_parser(
        "bench", help="run the named performance microbenchmarks, or "
                      "compare two sets of BENCH_*.json records")
    bench.add_argument("--quick", action="store_true",
                       help="scaled-down variants (what CI runs)")
    bench.add_argument("--only", nargs="+", metavar="NAME",
                       help="subset of benchmarks "
                            f"(known: {', '.join(bench_names())})")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed runs per benchmark; the best is kept")
    bench.add_argument("--out", metavar="DIR", default=None,
                       help="directory to write BENCH_<name>.json records to")
    bench.add_argument("--compare", nargs=2,
                       metavar=("BASELINE", "CURRENT"),
                       help="compare two records/directories instead of "
                            "running; exits 1 on regression beyond "
                            "--tolerance")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional ops/s drop for --compare "
                            "(default 0.30)")
    bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
