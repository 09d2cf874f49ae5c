"""Sweep execution: dispatch tasks through a backend, gather rows.

:class:`SweepExecutor` runs the tasks of a :class:`~repro.engine.plan.SweepPlan`
and returns one result row per task. Task dispatch is delegated to a
pluggable :class:`~repro.engine.backends.ExecutionBackend` — ``"serial"``
(the default) runs everything in-process, ``"pool(workers=N)"`` fans out
over a ``concurrent.futures.ProcessPoolExecutor``, and
``"shard(hosts=N, ...)"`` partitions the plan across resumable per-shard
stores (see :mod:`repro.engine.backends`). Whatever the backend, workers
receive only the serializable :class:`~repro.engine.plan.SweepTask` and
rebuild the whole simulation from its specs — no live device, FTL, or
workload object ever crosses a process boundary.

Rows come back in *plan order* regardless of completion order (the backend
contract), so a store's contents are reproducible and the engine's
determinism guarantee can be stated over whole files. The flip side is that
a row finishing ahead of an earlier, slower task is persisted only once its
turn comes — killing a parallel sweep can therefore re-run up to
``workers - 1`` already-completed tasks on resume (see
:mod:`repro.engine.results`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .backends import ExecutionBackend, SweepTaskError  # noqa: F401 - re-export
from .plan import SweepPlan, SweepTask
from .results import SCHEMA_VERSION
from .store import ResultStore, open_store

#: Progress callback: (task, row, completed_count, total_count).
ProgressCallback = Callable[[SweepTask, Dict[str, Any], int, int], None]


def _base_row(task: SweepTask, session, snapshot) -> Dict[str, Any]:
    """Row fields shared by plain and crash tasks (identity + state)."""
    row = {
        "schema": SCHEMA_VERSION,
        "key": task.key(),
        "index": task.index,
        "ftl": task.ftl,
        "workload": task.workload,
        "device": dict(task.device),
        "cache_capacity": task.cache_capacity,
        # The grid coordinate above can be overridden by a cache_capacity
        # kwarg pinned inside the FTL spec string; record what actually ran.
        "effective_cache_entries": session.ftl.cache.capacity,
        "seed": task.seed,
        "derived_seed": task.derived_seed,
        "write_operations": task.write_operations,
        "interval_writes": task.interval_writes,
        "fill_fraction": task.fill_fraction,
        "wa_breakdown": {purpose: round(value, 6) for purpose, value
                         in sorted(snapshot.wa_breakdown.items())},
        "ram_breakdown": dict(sorted(snapshot.ram_breakdown.items())),
        "ram_bytes": snapshot.ram_bytes,
    }
    if task.timing is not None:
        # Virtual-clock QoS results. All of these derive from the timing
        # model's deterministic virtual time, so — unlike the wall-clock
        # ``ops_per_sec`` — they are part of the canonical row and must stay
        # byte-identical across worker counts. Only timed tasks carry them,
        # so untimed sinks keep their pre-existing schema byte for byte.
        latency = snapshot.latency or {}
        row["timing"] = dict(task.timing)
        row["throughput_ops_s"] = latency.get("throughput_ops_s")
        row["p50_us"] = latency.get("p50_us")
        row["p99_us"] = latency.get("p99_us")
        row["p999_us"] = latency.get("p999_us")
        row["latency"] = latency
    shards = getattr(snapshot, "shards", None)
    if shards is not None:
        # Multi-device cells: per-shard counters are deterministic for a
        # given task (LPN-range routing is static), so — like the timing
        # columns — they are canonical and must stay byte-identical across
        # worker counts. Single-device rows keep their historical shape.
        row["array_shards"] = len(shards)
        row["shard_wa_max"] = max(
            (shard["wa_total"] for shard in shards), default=0.0)
        row["shards"] = [dict(shard) for shard in shards]
    tenants = getattr(snapshot, "tenants", None)
    if tenants is not None:
        # Multi-tenant cells: per-tenant attribution is deterministic for a
        # given task (the mix schedule derives from the task seed), so these
        # are canonical columns too; untagged rows keep their historical
        # shape byte for byte.
        row["tenants"] = ",".join(sorted(tenants))
        for tenant in sorted(tenants):
            counters = tenants[tenant]
            row[f"tenant_wa_{tenant}"] = counters["wa"]
            row[f"tenant_writes_{tenant}"] = counters["host_writes"]
            row[f"tenant_reads_{tenant}"] = counters["host_reads"]
        row["tenant_breakdown"] = {tenant: dict(counters) for tenant, counters
                                   in sorted(tenants.items())}
    return row


def _timing_fields(executed: int, elapsed: float,
                   wall_seconds: float) -> Dict[str, Any]:
    """Timing/worker fields (excluded from the determinism guarantee)."""
    return {
        "elapsed_s": round(elapsed, 6),
        "wall_seconds": round(wall_seconds, 6),
        "ops_per_sec": round(executed / elapsed, 3) if elapsed > 0 else 0.0,
        "worker_pid": os.getpid(),
    }


def execute_task(task: SweepTask) -> Dict[str, Any]:
    """Run one task to completion and return its result row.

    This is the worker entry point: module-level (picklable), takes only the
    serializable task, and rebuilds session + workload from specs. It is also
    called directly by the ``serial`` backend, so both paths are literally
    the same code. Tasks carrying a crash plan are routed to
    :func:`execute_crash_task` (same contract, richer row).
    """
    from ..api.session import SimulationSession
    from ..workloads.registry import WorkloadSpec

    if task.crash is not None:
        return execute_crash_task(task)

    started = time.perf_counter()
    with SimulationSession.from_task(task) as session:
        session.warmup(task.fill_fraction)
        workload = WorkloadSpec.of(task.workload).build(
            session.config.logical_pages, seed=task.derived_seed)
        run = session.run(workload, task.write_operations)
        snapshot = session.snapshot()
        elapsed = time.perf_counter() - started
    # Unlike ``elapsed``, the wall clock also covers the session's clean
    # shutdown (the final flush) — the full cost of the task.
    wall_seconds = time.perf_counter() - started

    delta = session.config.delta
    return {
        **_base_row(task, session, snapshot),
        "operations_executed": run.operations_executed,
        "host_writes": run.host_writes,
        "host_reads": run.host_reads,
        "wa_total": round(run.write_amplification(delta), 6),
        "wa_steady": round(
            run.steady_state_write_amplification(delta), 6),
        **_timing_fields(run.operations_executed, elapsed, wall_seconds),
    }


def execute_crash_task(task: SweepTask) -> Dict[str, Any]:
    """Run one crash–recovery scenario task and return its result row.

    The row keeps the plain-task columns (so crash and non-crash rows mix in
    one sink; ``wa_steady`` is present but ``None`` — the crash path has no
    interval series to average) and adds:

    ``crash``
        The plan plus what actually happened: ``ops_completed`` before the
        failure, whether the armed gc/merge point fired, ``post_ops`` after
        recovery.
    ``recovery``
        The :class:`~repro.ftl.recovery.RecoveryReport` as a dict — per-step
        IO breakdown plus all four totals (page reads, page writes, spare
        reads, simulated duration) — or ``None`` when the plan skipped
        recovery.
    ``wa_pre_crash`` / ``wa_post_recovery`` / ``wa_delta``
        Write amplification over the pre-crash window, over the
        post-recovery window, and their difference (the post-recovery WA
        delta: how much the recovered state costs until it re-converges).
    """
    from ..api.session import SimulationSession
    from ..workloads.registry import WorkloadSpec
    from .crash import CrashPlan, run_crash_scenario

    plan = CrashPlan.from_dict(task.crash)
    started = time.perf_counter()
    with SimulationSession.from_task(task) as session:
        session.warmup(task.fill_fraction)
        before = session.stats.snapshot()
        workload = WorkloadSpec.of(task.workload).build(
            session.config.logical_pages, seed=task.derived_seed)
        outcome = run_crash_scenario(session, workload, plan,
                                     task.write_operations)
        total = session.stats.diff(before)
        snapshot = session.snapshot()
        elapsed = time.perf_counter() - started
    wall_seconds = time.perf_counter() - started

    delta = session.config.delta
    executed = outcome.ops_completed + outcome.post_ops
    wa_delta = (round(outcome.wa_post_recovery - outcome.wa_pre_crash, 6)
                if outcome.wa_post_recovery is not None
                and outcome.wa_pre_crash is not None else None)
    return {
        **_base_row(task, session, snapshot),
        "operations_executed": executed,
        "host_writes": total.host_writes,
        "host_reads": total.host_reads,
        "wa_total": round(total.write_amplification(delta), 6),
        # No interval series exists on the crash path; the column is kept
        # (as null) so mixed sinks stay rectangular.
        "wa_steady": None,
        "crash": {**plan.to_dict(),
                  "ops_completed": outcome.ops_completed,
                  "phase_fired": outcome.phase_fired,
                  "post_ops": outcome.post_ops,
                  # IO spent during the power-failure event itself (the
                  # battery-paid flush for DFTL/µ-FTL, zero for RAM-loss
                  # FTLs) — attributable even when recovery is skipped.
                  "crash_io": dict(outcome.crash_io)},
        "recovery": (outcome.report.as_dict()
                     if outcome.report is not None else None),
        "wa_pre_crash": (round(outcome.wa_pre_crash, 6)
                         if outcome.wa_pre_crash is not None else None),
        "wa_post_recovery": (round(outcome.wa_post_recovery, 6)
                             if outcome.wa_post_recovery is not None
                             else None),
        "wa_delta": wa_delta,
        # Virtual time the recovery algorithm itself took under the timing
        # spec (None for untimed tasks or when recovery was skipped).
        **({"recovery_virtual_us": session.recovery_virtual_us}
           if task.timing is not None else {}),
        **_timing_fields(executed, elapsed, wall_seconds),
    }


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepExecutor.run` call."""

    #: One row per plan task, in plan order. Tasks skipped by resume
    #: contribute their previously-persisted row.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Number of tasks actually executed in this call.
    executed: int = 0
    #: Number of tasks skipped because their key was already in the sink.
    skipped: int = 0
    #: Wall-clock seconds for the whole call.
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (f"executed={self.executed} skipped={self.skipped} "
                f"rows={len(self.rows)} elapsed_s={self.elapsed_s:.2f}")


class SweepExecutor:
    """Runs sweep tasks through an execution backend, with resume support.

    Parameters
    ----------
    backend:
        An :class:`~repro.engine.backends.ExecutionBackend` instance, a
        backend spec / spec string (``"serial"``, ``"pool(workers=4)"``,
        ``"shard(hosts=4, index=1)"``). The default runs every task
        in-process.
    on_task:
        Optional progress callback invoked in the parent process, in plan
        order, after each task's row is available (and persisted, when a
        store is in use). Rows reused by ``resume`` replay through the
        callback before execution starts, so ``completed/total`` covers the
        full grid.
    """

    def __init__(self,
                 backend: Union[ExecutionBackend, str, None] = None,
                 *,
                 on_task: Optional[ProgressCallback] = None) -> None:
        self.backend = ExecutionBackend.of(
            backend if backend is not None else "serial")
        self.on_task = on_task

    def run(self,
            plan: Union[SweepPlan, Sequence[SweepTask]],
            store: Optional[ResultStore] = None,
            resume: bool = False) -> SweepReport:
        """Execute ``plan``; returns a :class:`SweepReport`.

        ``store`` is any :class:`~repro.engine.store.ResultStore` (JSONL
        sink or SQLite store). With
        ``resume=True`` (requires ``store``), tasks whose key is already
        present in the store are not executed; their persisted row is
        reused in the report so callers always see the full grid.
        """
        tasks = plan.tasks() if isinstance(plan, SweepPlan) else list(plan)
        if resume and store is None:
            raise ValueError("resume=True needs a store to resume from")

        started = time.perf_counter()
        # One pass over the store covers both resume needs: which keys are
        # done, and the persisted row to reuse for each of them.
        previous_rows: Dict[str, Dict[str, Any]] = {}
        if resume and store is not None:
            for row in store.rows():
                key = row.get("key")
                if key:
                    previous_rows[key] = row
        completed_keys = set(previous_rows)

        pending: List[tuple] = []
        report = SweepReport()
        slots: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        for position, task in enumerate(tasks):
            if task.key() in completed_keys:
                slots[position] = previous_rows.get(task.key())
                report.skipped += 1
                # Resumed rows replay through the progress callback up
                # front, so a reporter's completed/total accounting covers
                # the whole grid rather than only the freshly executed part.
                if self.on_task is not None:
                    self.on_task(task, slots[position], report.skipped,
                                 len(tasks))
            else:
                pending.append((position, task))

        for position, task, row in self.backend.execute(pending, store=store):
            report.executed += 1
            # A shard-worker backend persists rows to its own sub-store;
            # appending them to the main store as well would leave it in
            # shard order rather than plan order.
            if store is not None and not self.backend.persists_rows:
                store.append(row)
            slots[position] = row
            if self.on_task is not None:
                self.on_task(task, row,
                             report.executed + report.skipped, len(tasks))

        report.rows = [row for row in slots if row is not None]
        report.elapsed_s = time.perf_counter() - started
        return report


def run_sweep(plan: Union[SweepPlan, Sequence[SweepTask]],
              backend: Union[ExecutionBackend, str, None] = None,
              store: Optional[Union[str, ResultStore]] = None,
              resume: bool = False,
              on_task: Optional[ProgressCallback] = None) -> SweepReport:
    """One-call convenience wrapper around :class:`SweepExecutor`.

    ``store`` may be a :class:`~repro.engine.store.ResultStore` or a path
    (opened — and closed — by this call; the format is chosen by extension,
    see :func:`~repro.engine.store.open_store`).
    """
    own_store = isinstance(store, (str, os.PathLike))
    store_obj = open_store(store) if own_store else store
    try:
        executor = SweepExecutor(backend, on_task=on_task)
        return executor.run(plan, store=store_obj, resume=resume)
    finally:
        if own_store and store_obj is not None:
            store_obj.close()
