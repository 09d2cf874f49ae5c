"""One (workload, repeat) of the stack benchmark, in a fresh process.

``run.py`` starts this file once per repeat with ``PYTHONPATH`` pointing at
the library, so every repeat pays interpreter start, ``import repro``,
session build and ``warmup()`` — that is ``setup_s`` — and nothing is shared
between repeats. The process runs one workload through the library's public
API exactly as a user would, then, outside every timed interval, computes
the output checks. The last line of stdout is one JSON object.

With ``--traced 1`` span wrappers are installed on the live objects before
the measured region (see README.md, "Traced run"); the library's source is
not touched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from spec import GEOMETRY, READBACK_PROBES, WORKLOADS, scaled
from tracer import Tracer

clock = time.perf_counter

#: Spans that enclose a whole measured region. Their self time is what no
#: layer wrapper saw, so it counts as unattributed.
OUTER_SPANS = ("session", "engine.run_sweep")

#: ``FlashDevice``'s public charged operations. They are patched on the
#: class: the device is slotted, and a class-level patch keeps the FTLs'
#: ``type(device).write_page_tagged is FlashDevice.write_page_tagged``
#: fast-path test true, so tracing does not push a plain device onto the
#: per-op path.
FLASH_METHODS = ("read_page", "read_page_data", "read_page_record",
                 "write_page", "write_page_tagged", "write_pages_tagged",
                 "read_spare", "read_spare_logical", "erase_block")


def digest_of(payload: Any) -> str:
    """SHA-256 over canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_digest(rows) -> str:
    """``sweep_grid``'s digest: the rows' canonical bytes, in plan order."""
    from repro.engine import canonical_row_bytes
    return hashlib.sha256(b"\n".join(
        canonical_row_bytes(row) for row in rows)).hexdigest()


def _untraced(name: str, function: Callable) -> Callable:
    return function


# ----------------------------------------------------------------------
# Workloads that drive one SimulationSession in this process
# ----------------------------------------------------------------------
def _layer_counters(ftl) -> Dict[str, int]:
    gecko = ftl.gecko
    return {"cache_hits": ftl.cache.hits,
            "cache_misses": ftl.cache.misses,
            "gecko_updates": gecko.updates,
            "gecko_merge_operations": gecko.merge_operations,
            "gecko_entries_rewritten": gecko.entries_rewritten,
            "gecko_gc_queries": gecko.gc_queries,
            "gecko_erase_records": gecko.erase_records,
            "gc_collections": ftl.garbage_collector.collections}


def _trace_session(tracer: Tracer, session, stream) -> None:
    """Install span wrappers on the live objects of one session."""
    wrap = tracer.wrap
    ftl = session.ftl
    ftl.submit = wrap("ftl.submit", ftl.submit)
    ftl._synchronize_translation_page = wrap(
        "mapping.sync", ftl._synchronize_translation_page)
    collector = ftl.garbage_collector
    collector.collect_until_safe = wrap("gc", collector.collect_until_safe)
    gecko = ftl.gecko
    gecko.flush_buffer = wrap("validity.flush", gecko.flush_buffer)
    gecko.gc_query_bitmap = wrap("validity.gc_query", gecko.gc_query_bitmap)
    gecko.record_erase = wrap("validity.record_erase", gecko.record_erase)
    stream.batches = tracer.wrap_iterator("workloads", stream.batches)


def _trace_classes(tracer: Tracer) -> None:
    """Class- and module-level wrappers (before any session exists)."""
    from repro.flash.device import FlashDevice
    from repro.workloads.ingest import streaming
    for method in FLASH_METHODS:
        setattr(FlashDevice, method,
                tracer.wrap("flash", getattr(FlashDevice, method)))
    streaming.iter_trace_records = tracer.wrap_iterator(
        "ingest", streaming.iter_trace_records)


def _stream_spec(arguments) -> str:
    if arguments.workload == "timed_replay":
        return (f"Trace(path={arguments.trace_file!r}, format='msr', "
                f"oor='error')")
    return WORKLOADS[arguments.workload]["stream"]


def _read_back(session, stream_spec: str, seed: int,
               operations: int) -> Tuple[int, int]:
    """Regenerate the op stream, read sampled LPNs back, count mismatches."""
    from repro.ftl.operations import Operation, OpKind
    from repro.workloads.registry import WorkloadSpec
    replay = WorkloadSpec.of(stream_spec).build(session.config.logical_pages,
                                                seed=seed)
    last_payload: Dict[int, Any] = {}
    write_kind = OpKind.WRITE
    for operation in replay.operations(operations):
        if operation.kind is write_kind:
            last_payload[operation.logical] = operation.payload
    written = sorted(last_payload)
    sample = random.Random(seed).sample(
        written, min(READBACK_PROBES, len(written)))
    result = session.submit([Operation(OpKind.READ, logical)
                             for logical in sample], collect_payloads=True)
    mismatches = sum(1 for logical, stored in zip(sample, result.payloads)
                     if stored != last_payload[logical])
    return len(sample), mismatches


def run_session_workload(arguments, tracer: Optional[Tracer]
                         ) -> Dict[str, Any]:
    """gecko_update, read_mostly, timed_replay and crash_recover."""
    from repro import SimulationSession
    from repro.flash.config import DeviceConfig
    from repro.flash.stats import IOKind, IOPurpose
    from repro.workloads.registry import WorkloadSpec

    page_read, page_write = IOKind.PAGE_READ, IOKind.PAGE_WRITE
    name = arguments.workload
    parameters = WORKLOADS[name]
    scale = arguments.scale
    wrap = tracer.wrap if tracer is not None else _untraced
    if tracer is not None:
        _trace_classes(tracer)

    overlays: Dict[str, Any] = {}
    if name == "timed_replay":
        if arguments.variant in ("timing", "full"):
            overlays["timing"] = parameters["timing"]
        if arguments.variant == "full":
            overlays["obs"] = parameters["obs"]
    session = SimulationSession(
        "GeckoFTL", DeviceConfig(**GEOMETRY),
        ftl_kwargs={"cache_capacity": parameters["cache"]}, **overlays)
    session.warmup()
    stream_spec = _stream_spec(arguments)
    stream = WorkloadSpec.of(stream_spec).build(session.config.logical_pages,
                                                seed=arguments.seed)
    if name == "crash_recover":
        session.run(stream, scaled(parameters["warm_updates"], scale))
    if tracer is not None:
        _trace_session(tracer, session, stream)
        tracer.reset()
    run = wrap("session", session.run)
    stats_before = session.stats.snapshot()
    counters_before = _layer_counters(session.ftl)
    ready = clock()
    setup_s = ready - arguments.spawned_at

    # ---- measured region ---------------------------------------------
    cycle_ms: List[float] = []
    reports = []
    if name == "crash_recover":
        crash = wrap("recovery.crash", session.crash)
        recover = wrap("recovery.recover", session.recover)
        cycle_writes = parameters["cycle_writes"]
        requested = executed = 0
        for _ in range(scaled(parameters["cycles"], scale)):
            requested += cycle_writes
            executed += run(stream, cycle_writes).operations_executed
            cycle_start = clock()
            crash()
            reports.append(recover())
            cycle_ms.append((clock() - cycle_start) * 1000.0)
    else:
        requested = scaled(parameters["ops"], scale)
        executed = run(stream, requested).operations_executed
    region_end = clock()
    # ------------------------------------------------------------------

    region_s = region_end - ready
    trace = None
    if tracer is not None:
        trace = tracer.export(origin=ready)
        trace["region_s"] = region_s
        trace["attributed_s"] = tracer.layer_seconds(OUTER_SPANS)
    ftl = session.ftl
    delta = session.stats.diff(stats_before)
    counters_after = _layer_counters(ftl)
    counters = {key: counters_after[key] - counters_before[key]
                for key in counters_after}
    ram_breakdown = ftl.ram_breakdown()
    latency = session.latency_summary()
    levels = ftl.gecko.num_levels
    obs_events = (session.obs.trace.seq if session.obs is not None
                  and session.obs.trace is not None else 0)
    session.close()
    wall_s = clock() - arguments.spawned_at
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- untimed: output checks --------------------------------------
    write_amplification = delta.write_amplification(session.config.delta)
    recovery = {
        "cycles": len(reports),
        "spare_reads": sum(r.total_spare_reads for r in reports),
        "page_reads": sum(r.total_page_reads for r in reports),
        "page_writes": sum(r.total_page_writes for r in reports),
        "duration_us": round(sum(r.total_duration_us for r in reports), 3)}
    digest_payload = {
        "io": delta.breakdown(),
        "host_writes": delta.host_writes,
        "host_reads": delta.host_reads,
        "wa_total": round(write_amplification, 9),
        "ram_breakdown": ram_breakdown,
        "counters": counters,
        "recovery": recovery,
        "latency": latency}
    probes = mismatches = 0
    if arguments.readback and name in ("gecko_update", "read_mostly"):
        probes, mismatches = _read_back(session, stream_spec, arguments.seed,
                                        requested)
    return {
        "setup_s": setup_s, "region_s": region_s, "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_requested": requested, "ops_executed": executed,
        "readback_probes": probes, "readback_mismatches": mismatches,
        "sim_digest": digest_of(digest_payload),
        "sim_wa": write_amplification,
        "sim_ram_bytes": sum(ram_breakdown.values()),
        "sim_p99_us": latency["p99_us"] if latency else 0.0,
        "sim_recover_ms": (recovery["duration_us"] / 1000.0
                           / max(1, len(reports))),
        "cycle_ms": cycle_ms,
        "counts": {
            "host_writes": delta.host_writes,
            "host_reads": delta.host_reads,
            "page_reads": delta.page_reads,
            "page_writes": delta.page_writes,
            "erases": delta.block_erases,
            "spare_reads": delta.spare_reads,
            "translation_reads": delta.total(page_read, IOPurpose.TRANSLATION),
            "translation_writes":
                delta.total(page_write, IOPurpose.TRANSLATION),
            "validity_reads": delta.total(page_read, IOPurpose.VALIDITY),
            "validity_writes": delta.total(page_write, IOPurpose.VALIDITY),
            "gc_page_writes": delta.total(page_write, IOPurpose.GC),
            "gc_erases": delta.total(IOKind.BLOCK_ERASE, IOPurpose.GC),
            "gecko_levels": levels,
            "obs_events": obs_events,
            "timing_requests": latency["requests"] if latency else 0,
            "timing_p50_us": latency["p50_us"] if latency else 0.0,
            "timing_p999_us": latency["p999_us"] if latency else 0.0,
            "recovery_spare_reads": recovery["spare_reads"],
            "recovery_page_reads": recovery["page_reads"],
            **counters},
        "trace": trace}


# ----------------------------------------------------------------------
# sweep_grid's traced pass: the same grid, in-process, under spans
# ----------------------------------------------------------------------
def run_sweep_traced(arguments, tracer: Tracer) -> Dict[str, Any]:
    """Serial ``run_sweep`` under spans, one pool run, store read timings.

    The untraced ``sweep_grid`` runs are the CLI, started by ``run.py``;
    this pass exists to attribute time to plan expansion, ``execute_task``
    and ``store.append``, and to measure the pool backend once.
    """
    import repro.engine.executor as executor_module
    from repro.engine import (SweepExecutor, SweepPlan, device_dict,
                              open_store, run_sweep)

    parameters = WORKLOADS["sweep_grid"]
    writes = scaled(parameters["writes"], arguments.scale)
    work_dir = os.path.dirname(arguments.cli_store)
    wrap = tracer.wrap
    ready = clock()
    setup_s = ready - arguments.spawned_at

    def expand():
        # Mirrors ``repro sweep``'s own overrides, so the rows (task keys
        # included) are byte-identical to the CLI's.
        plan = SweepPlan.from_grid(
            parameters["grid"],
            devices=[device_dict(num_blocks=parameters["blocks"],
                                 pages_per_block=parameters["pages_per_block"],
                                 page_size=parameters["page_size"],
                                 logical_ratio=0.7)],
            cache_capacities=[128], write_operations=writes,
            interval_writes=parameters["interval_writes"],
            seeds=[arguments.seed])
        return plan.tasks()

    original_execute = executor_module.execute_task
    executor_module.execute_task = wrap("engine.execute_task",
                                        original_execute)
    store = open_store(os.path.join(work_dir, "traced.sqlite"))
    store.append = wrap("store.append", store.append)

    def sweep(tasks):
        try:
            return SweepExecutor("serial").run(tasks, store=store)
        finally:
            store.close()

    tasks = wrap("engine.plan", expand)()
    report = wrap("engine.run_sweep", sweep)(tasks)
    region_s = clock() - ready
    trace = tracer.export(origin=ready)
    trace["region_s"] = region_s
    trace["attributed_s"] = tracer.layer_seconds(OUTER_SPANS)
    # The pool pickles ``execute_task`` by name, so the wrapper comes off.
    executor_module.execute_task = original_execute

    pool_start = clock()
    pool_report = run_sweep(tasks, backend="pool(workers=2)",
                            store=os.path.join(work_dir, "pool.sqlite"))
    pool_s = clock() - pool_start

    load_start = clock()
    cli_handle = open_store(arguments.cli_store)
    cli_rows = cli_handle.rows()
    load_ms = (clock() - load_start) * 1000.0
    query_start = clock()
    cli_handle.aggregate_table(by=("ftl",), metrics=("wa_total",))
    query_ms = (clock() - query_start) * 1000.0
    cli_handle.close()

    digest = rows_digest(report.rows)
    return {
        "setup_s": setup_s, "region_s": region_s,
        "wall_s": clock() - arguments.spawned_at,
        "ops_requested": writes * len(tasks),
        "ops_executed": sum(row["operations_executed"]
                            for row in report.rows),
        "readback_probes": 0, "readback_mismatches": 0,
        "sim_digest": digest,
        "rows_match": (digest == rows_digest(pool_report.rows)
                       == rows_digest(cli_rows)),
        "pool_s": pool_s, "load_ms": load_ms, "query_ms": query_ms,
        "trace": trace}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() when it started us")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--readback", type=int, default=1,
                        help="0 skips the read-back check (repeat runs)")
    parser.add_argument("--variant", default="full",
                        choices=["plain", "timing", "full"],
                        help="timed_replay overlays (full = timing + obs)")
    parser.add_argument("--trace-file", help="timed_replay input")
    parser.add_argument("--cli-store", help="sweep_grid: the CLI run's store")
    arguments = parser.parse_args(argv)
    tracer = Tracer() if arguments.traced else None
    if arguments.workload == "sweep_grid":
        result = run_sweep_traced(arguments, tracer or Tracer())
    else:
        result = run_session_workload(arguments, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
