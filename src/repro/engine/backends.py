"""Pluggable sweep execution backends.

:class:`~repro.engine.executor.SweepExecutor` no longer dispatches tasks
itself: it hands the pending ``(position, task)`` pairs to an
:class:`ExecutionBackend` and consumes plan-ordered ``(position, task, row)``
triples back. Backends are named and parameterized through the same
:class:`~repro.api.registry.SpecRegistry` / :class:`~repro.api.registry.CallSpec`
machinery as FTLs and workloads, so ``repro sweep --backend
"pool(workers=4)"`` reads exactly like ``--grid "ftl=GeckoFTL(...)"`` and a
future distributed backend is one :func:`register_backend` call away.

Three backends ship:

``serial``
    Every task in-process, in plan order.
``pool(workers=N)``
    A ``ProcessPoolExecutor`` fan-out with fail-fast error handling. Rows
    still come back in plan order.
``shard(hosts=N, chunk=C, index=I, workers=W)``
    Deterministic key-ranged partitioning for fleet runs. The 64-bit task-key
    space is cut into ``hosts * chunk`` contiguous stripes and stripe ``r``
    belongs to shard ``r % hosts`` — a pure function of the task key, so every
    host computes the same partition without coordination. Each shard owns a
    resumable sub-store next to the main store
    (``out.shard0of4.jsonl`` / ``.sqlite``) plus a plan JSON listing its
    tasks. With ``index=I`` only shard ``I`` runs (the worker mode behind
    ``repro sweep --shard I/N``, one process per host); with ``index=None``
    the backend runs/collects *all* shards and merges their rows back into
    plan order — the coordinator mode that also turns N finished worker
    sub-stores into one merged store. Because rows are deterministic modulo
    :data:`~repro.engine.results.TIMING_FIELDS`, the merged store is
    byte-identical (canonically) to a serial run.

No live simulation object crosses any of these seams — backends move only
serializable :class:`~repro.engine.plan.SweepTask` objects and plain row
dicts, the same contract the process-pool path always had.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (Any, ClassVar, Dict, Iterator, List, Optional, Tuple,
                    Union)

from ..api.registry import CallSpec, SpecRegistry
from .plan import SweepTask
from .store import ResultStore, open_store

#: ``(position, task)`` pairs in, ``(position, task, row)`` triples out.
PendingTask = Tuple[int, SweepTask]
TaskResult = Tuple[int, SweepTask, Dict[str, Any]]

#: The process-wide execution-backend registry.
BACKEND_REGISTRY = SpecRegistry("execution backend")


def register_backend(name: str, *aliases: str):
    """Class decorator registering an execution backend under ``name``."""
    return BACKEND_REGISTRY.register(name, *aliases)


def backend_names() -> List[str]:
    """Sorted primary names of every registered execution backend."""
    return BACKEND_REGISTRY.names()


class BackendSpec(CallSpec):
    # No @dataclass decorator: the subclass adds no fields, and re-applying
    # it would clobber CallSpec's kwargs-aware __hash__ (see FTLSpec).
    """A named execution backend plus constructor keyword arguments."""

    registry: ClassVar[SpecRegistry] = BACKEND_REGISTRY
    a_what: ClassVar[str] = "an execution backend"
    spec_example: ClassVar[str] = "'pool(workers=4)'"

    def build(self) -> "ExecutionBackend":
        """Instantiate the backend this spec names."""
        return self.registry.factory(self.name)(**self.kwargs)


class SweepTaskError(RuntimeError):
    """A task failed inside a backend; carries the task for diagnosis."""

    def __init__(self, task: SweepTask, cause: BaseException) -> None:
        super().__init__(
            f"sweep task #{task.index} (ftl={task.ftl!r}, "
            f"workload={task.workload!r}, seed={task.seed}) failed: {cause}")
        self.task = task


class ExecutionBackend(ABC):
    """Strategy object the executor delegates task dispatch to.

    :meth:`execute` consumes ``(position, task)`` pairs and yields
    ``(position, task, row)`` triples **in ascending position (plan)
    order** — that ordering is what makes store files reproducible, so
    every backend must preserve it no matter how it schedules the work.
    """

    #: True when the backend persists the rows it yields itself (shard
    #: worker mode writes to its own sub-store); the executor then skips
    #: appending yielded rows to the main store.
    persists_rows: bool = False

    @abstractmethod
    def execute(self, pending: List[PendingTask],
                store: Optional[ResultStore] = None) -> Iterator[TaskResult]:
        """Run ``pending`` and yield plan-ordered result triples.

        ``store`` is the executor's main result store; most backends ignore
        it (the executor itself appends yielded rows), but the shard backend
        derives its sub-store paths from it.
        """

    @classmethod
    def of(cls, value: Union["ExecutionBackend", BackendSpec, str]
           ) -> "ExecutionBackend":
        """Coerce a backend, spec, or spec string to a backend."""
        if isinstance(value, ExecutionBackend):
            return value
        return BackendSpec.of(value).build()

    @staticmethod
    def _guarded(task: SweepTask) -> Dict[str, Any]:
        from .executor import execute_task
        try:
            return execute_task(task)
        except Exception as exc:
            raise SweepTaskError(task, exc) from exc


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Run every task in-process, in plan order (debuggable, no pickling)."""

    def execute(self, pending: List[PendingTask],
                store: Optional[ResultStore] = None) -> Iterator[TaskResult]:
        for position, task in pending:
            yield position, task, self._guarded(task)

    def __str__(self) -> str:
        return "serial"


@register_backend("pool")
class PoolBackend(ExecutionBackend):
    """Fan tasks out over a ``ProcessPoolExecutor``.

    ``workers=None`` sizes the pool to the machine. Futures are consumed in
    submission order, so rows still come back in plan order regardless of
    completion order.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        import os
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def execute(self, pending: List[PendingTask],
                store: Optional[ResultStore] = None) -> Iterator[TaskResult]:
        from .executor import execute_task
        if not pending:
            return
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [(position, task, pool.submit(execute_task, task))
                       for position, task in pending]
            for position, task, future in futures:
                try:
                    row = future.result()
                except Exception as exc:
                    # Fail fast: drop tasks that haven't started yet so the
                    # error doesn't wait for the whole queue to drain. Tasks
                    # already running in workers still finish (their rows are
                    # discarded), so at most ~`workers` tasks of completed
                    # work is lost on failure.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise SweepTaskError(task, exc) from exc
                yield position, task, row

    def __str__(self) -> str:
        return f"pool(workers={self.workers})"


@register_backend("shard")
class ShardBackend(ExecutionBackend):
    """Deterministic key-ranged sharding with resumable per-shard stores.

    Parameters
    ----------
    hosts:
        Number of shards the key space is partitioned into.
    chunk:
        Stripes per shard: the 64-bit key space is cut into
        ``hosts * chunk`` contiguous stripes dealt round-robin to shards.
        ``chunk=1`` gives each shard one contiguous key range; larger values
        interleave for balance. Part of the partition function, so every
        participant must agree on it.
    index:
        ``None`` (coordinator) runs and merges *all* shards; ``0 <= I <
        hosts`` (worker, ``repro sweep --shard I/N``) runs only shard ``I``
        into its sub-store and nothing else.
    workers:
        Worker processes *within* each shard (the inner serial/pool
        backend).

    When the main store has a path, each shard persists to a sibling
    sub-store (``<stem>.shard<I>of<N><suffix>``, same format as the main
    store) and documents itself in ``<stem>.shard<I>of<N>.plan.json``. Shard
    execution always resumes against its sub-store, so a worker can be
    re-run after a crash and the coordinator reuses every finished worker's
    rows instead of recomputing them.
    """

    def __init__(self, hosts: int = 2, chunk: int = 16,
                 index: Optional[int] = None, workers: int = 1) -> None:
        if hosts < 1:
            raise ValueError("hosts must be >= 1")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if index is not None and not 0 <= index < hosts:
            raise ValueError(f"shard index must be in [0, {hosts}); "
                             f"got {index}")
        self.hosts = hosts
        self.chunk = chunk
        self.index = index
        self.inner = SerialBackend() if workers == 1 else PoolBackend(workers)
        # Worker mode persists to its own sub-store; the executor must not
        # also append those rows to the main store (the coordinator merge
        # is what fills the main store, in plan order).
        self.persists_rows = index is not None

    def shard_of(self, key: str) -> int:
        """Shard owning task ``key`` (a pure function of the key)."""
        stripes = self.hosts * self.chunk
        stripe = (int(key, 16) * stripes) >> 64
        return stripe % self.hosts

    # ------------------------------------------------------------------
    def _sub_path(self, base: Path, shard: int) -> Path:
        return base.with_name(
            f"{base.stem}.shard{shard}of{self.hosts}{base.suffix}")

    def _plan_path(self, base: Path, shard: int) -> Path:
        return base.with_name(
            f"{base.stem}.shard{shard}of{self.hosts}.plan.json")

    def _emit_plan(self, base: Path, shard: int,
                   members: List[PendingTask]) -> None:
        document = {
            "hosts": self.hosts,
            "chunk": self.chunk,
            "shard": shard,
            "store": self._sub_path(base, shard).name,
            "tasks": [task.to_dict() for _, task in members],
        }
        self._plan_path(base, shard).write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")

    def _run_shard(self, shard: int, members: List[PendingTask],
                   base: Optional[Path]) -> List[TaskResult]:
        """Run one shard (resuming against its sub-store) and collect rows."""
        sub: Optional[ResultStore] = None
        if base is not None:
            self._emit_plan(base, shard, members)
            sub = open_store(self._sub_path(base, shard))
        try:
            previous: Dict[str, Dict[str, Any]] = {}
            if sub is not None:
                for row in sub.rows():
                    key = row.get("key")
                    if key:
                        previous[key] = row
            results: List[TaskResult] = []
            fresh: List[PendingTask] = []
            for position, task in members:
                done = previous.get(task.key())
                if done is not None:
                    results.append((position, task, done))
                else:
                    fresh.append((position, task))
            for position, task, row in self.inner.execute(fresh):
                if sub is not None:
                    sub.append(row)
                results.append((position, task, row))
            return results
        finally:
            if sub is not None:
                sub.close()

    def execute(self, pending: List[PendingTask],
                store: Optional[ResultStore] = None) -> Iterator[TaskResult]:
        shards: Dict[int, List[PendingTask]] = {
            shard: [] for shard in range(self.hosts)}
        for position, task in pending:
            shards[self.shard_of(task.key())].append((position, task))
        base = getattr(store, "path", None)
        base = Path(base) if base is not None else None
        in_scope = ([self.index] if self.index is not None
                    else list(range(self.hosts)))
        results: List[TaskResult] = []
        for shard in in_scope:
            results.extend(self._run_shard(shard, shards[shard], base))
        # Merge back into plan order: this is the barrier that makes the
        # main store byte-identical (canonically) to an unsharded run.
        results.sort(key=lambda triple: triple[0])
        yield from results

    def __str__(self) -> str:
        index = "" if self.index is None else f", index={self.index}"
        return f"shard(hosts={self.hosts}, chunk={self.chunk}{index})"
