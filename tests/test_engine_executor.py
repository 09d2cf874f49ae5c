"""Tests for the sweep executor: execution, backends, resume, determinism."""

import pytest

from repro.api import SimulationSession
from repro.engine import (ResultSink, SweepExecutor, SweepPlan, SweepTask,
                          SweepTaskError, canonical_row_bytes, execute_task,
                          run_sweep)

TINY = dict(num_blocks=64, pages_per_block=8, page_size=256)


def tiny_plan(**overrides):
    defaults = dict(ftls=["GeckoFTL", "DFTL"], devices=[dict(TINY)],
                    cache_capacities=[48], seeds=[1, 2],
                    write_operations=600, interval_writes=300)
    defaults.update(overrides)
    return SweepPlan(**defaults)


class TestSessionFromTask:
    def test_builds_device_and_ftl_from_specs(self):
        task = tiny_plan().tasks()[0]
        with SimulationSession.from_task(task) as session:
            assert session.config.num_blocks == TINY["num_blocks"]
            assert session.ftl.name == "GeckoFTL"
            assert session.interval_writes == task.interval_writes
            assert session.ftl.cache.capacity == task.cache_capacity

    def test_spec_kwargs_override_task_cache(self):
        task = SweepTask(ftl="GeckoFTL(cache_capacity=24)",
                         workload="UniformRandomWrites", device=dict(TINY),
                         cache_capacity=48, seed=1, write_operations=100,
                         interval_writes=50)
        with SimulationSession.from_task(task) as session:
            assert session.ftl.cache.capacity == 24


class TestExecuteTask:
    def test_row_shape(self):
        task = tiny_plan().tasks()[0]
        row = execute_task(task)
        assert row["key"] == task.key()
        assert row["ftl"] == "GeckoFTL"
        assert row["derived_seed"] == task.derived_seed
        assert row["host_writes"] == task.write_operations
        assert row["wa_total"] >= 1.0
        assert row["wa_breakdown"]["user"] == pytest.approx(1.0, rel=1e-3)
        assert row["ram_bytes"] == sum(row["ram_breakdown"].values())
        assert row["elapsed_s"] > 0
        assert row["ops_per_sec"] > 0

    def test_rows_are_reproducible(self):
        task = tiny_plan().tasks()[0]
        assert (canonical_row_bytes(execute_task(task))
                == canonical_row_bytes(execute_task(task)))


class TestSweepExecutor:
    def test_runs_plan_in_order(self):
        plan = tiny_plan()
        report = SweepExecutor().run(plan)
        assert report.executed == len(plan) == 4
        assert report.skipped == 0
        assert [row["index"] for row in report.rows] == [0, 1, 2, 3]
        assert [row["ftl"] for row in report.rows] == \
               ["GeckoFTL", "GeckoFTL", "DFTL", "DFTL"]

    def test_progress_callback_sees_every_task(self):
        plan = tiny_plan()
        seen = []
        executor = SweepExecutor(
            on_task=lambda task, row, done, total: seen.append(
                (task.index, row["key"], done, total)))
        executor.run(plan)
        assert [entry[0] for entry in seen] == [0, 1, 2, 3]
        assert [entry[2] for entry in seen] == [1, 2, 3, 4]
        assert all(entry[3] == 4 for entry in seen)

    def test_failures_carry_task_context(self):
        # An impossible fill (trace referencing out-of-range pages) isn't
        # constructible here, so provoke a failure with a bad FTL kwarg that
        # only explodes at build time inside the worker path.
        task = SweepTask(ftl="GeckoFTL(cache_capacity=-5)",
                         workload="UniformRandomWrites", device=dict(TINY),
                         cache_capacity=48, seed=1, write_operations=100,
                         interval_writes=50)
        with pytest.raises(SweepTaskError, match="GeckoFTL"):
            SweepExecutor().run([task])

    def test_accepts_explicit_task_lists(self):
        tasks = tiny_plan().tasks()[:2]
        report = SweepExecutor().run(tasks)
        assert report.executed == 2


class TestResume:
    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="needs a store"):
            SweepExecutor().run(tiny_plan(), resume=True)

    def test_resume_skips_completed_tasks(self, tmp_path):
        plan = tiny_plan()
        store_path = tmp_path / "results.jsonl"
        first = run_sweep(plan, store=str(store_path))
        assert first.executed == 4 and first.skipped == 0

        second = run_sweep(plan, store=str(store_path), resume=True)
        assert second.executed == 0 and second.skipped == 4
        # The report still exposes the full grid, from persisted rows.
        assert [row["key"] for row in second.rows] == \
               [row["key"] for row in first.rows]
        # And the store did not grow.
        assert len(store_path.read_text().splitlines()) == 4

    def test_killed_sweep_reruns_only_missing_tasks(self, tmp_path):
        plan = tiny_plan()
        tasks = plan.tasks()
        store_path = tmp_path / "results.jsonl"
        # Simulate a sweep killed after two tasks.
        with ResultSink(store_path) as store:
            partial = SweepExecutor().run(tasks[:2], store=store)
        assert partial.executed == 2

        resumed = run_sweep(plan, store=str(store_path), resume=True)
        assert resumed.executed == 2
        assert resumed.skipped == 2
        executed_keys = {row["key"] for row in resumed.rows[2:]}
        assert executed_keys == {task.key() for task in tasks[2:]}


class TestDeterminismAcrossBackends:
    """Engine regression: the backend must never change results."""

    def test_serial_and_pool_produce_identical_canonical_rows(self):
        plan = tiny_plan()
        serial = SweepExecutor().run(plan)
        parallel = SweepExecutor("pool(workers=4)").run(plan)
        assert [canonical_row_bytes(row) for row in serial.rows] == \
               [canonical_row_bytes(row) for row in parallel.rows]

    def test_parallel_store_files_are_byte_identical_modulo_timing(
            self, tmp_path):
        plan = tiny_plan(seeds=[5])
        path_serial = tmp_path / "serial.jsonl"
        path_parallel = tmp_path / "parallel.jsonl"
        run_sweep(plan, store=str(path_serial))
        run_sweep(plan, backend="pool(workers=2)", store=str(path_parallel))
        from repro.engine import load_results
        serial = [canonical_row_bytes(r) for r in load_results(path_serial)]
        parallel = [canonical_row_bytes(r)
                    for r in load_results(path_parallel)]
        assert serial == parallel
