"""Tests for execution backends: specs, coercion, sharding, determinism."""

import json

import pytest

from repro.engine import (BackendSpec, ExecutionBackend, PoolBackend,
                          SerialBackend, ShardBackend, SweepPlan,
                          backend_names, canonical_row_bytes, load_results,
                          open_store, run_sweep)

TINY = dict(num_blocks=64, pages_per_block=8, page_size=256)


def tiny_plan(**overrides):
    defaults = dict(ftls=["GeckoFTL", "DFTL"], devices=[dict(TINY)],
                    cache_capacities=[48], seeds=[1, 2],
                    write_operations=600, interval_writes=300)
    defaults.update(overrides)
    return SweepPlan(**defaults)


class TestBackendSpecs:
    def test_registry_lists_shipped_backends(self):
        assert {"serial", "pool", "shard"} <= set(backend_names())

    def test_spec_string_parses_like_ftl_specs(self):
        backend = BackendSpec.of("pool(workers=3)").build()
        assert isinstance(backend, PoolBackend)
        assert backend.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="execution backend"):
            ExecutionBackend.of("teleport")

    def test_bad_kwargs_rejected(self):
        with pytest.raises(TypeError):
            ExecutionBackend.of("serial(workers=2)")


class TestCoercion:
    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert ExecutionBackend.of(backend) is backend

    def test_int_is_not_a_backend(self):
        # A worker count is spelled pool(workers=N); there is no int shorthand.
        with pytest.raises(TypeError):
            ExecutionBackend.of(5)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExecutionBackend.of("pool(workers=0)")

    def test_bool_is_not_a_worker_count(self):
        with pytest.raises(TypeError):
            ExecutionBackend.of(True)

    def test_str_forms(self):
        assert str(SerialBackend()) == "serial"
        assert str(PoolBackend(4)) == "pool(workers=4)"
        assert str(ShardBackend(hosts=4, chunk=8)) == \
               "shard(hosts=4, chunk=8)"
        assert str(ShardBackend(hosts=4, index=2)) == \
               "shard(hosts=4, chunk=16, index=2)"


class TestShardPartition:
    def test_shard_of_is_pure_and_in_range(self):
        backend = ShardBackend(hosts=4)
        keys = [task.key() for task in tiny_plan(seeds=[1, 2, 3, 4]).tasks()]
        owners = [backend.shard_of(key) for key in keys]
        assert owners == [backend.shard_of(key) for key in keys]
        assert all(0 <= owner < 4 for owner in owners)

    def test_partition_is_independent_of_worker_settings(self):
        keys = [task.key() for task in tiny_plan().tasks()]
        a = ShardBackend(hosts=4, index=0)
        b = ShardBackend(hosts=4, workers=2)
        assert [a.shard_of(key) for key in keys] == \
               [b.shard_of(key) for key in keys]

    def test_single_host_owns_everything(self):
        backend = ShardBackend(hosts=1)
        assert {backend.shard_of(task.key())
                for task in tiny_plan().tasks()} == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardBackend(hosts=0)
        with pytest.raises(ValueError):
            ShardBackend(chunk=0)
        with pytest.raises(ValueError, match="shard index"):
            ShardBackend(hosts=2, index=2)
        with pytest.raises(ValueError, match="shard index"):
            ShardBackend(hosts=2, index=-1)


class TestShardExecution:
    def test_worker_mode_writes_sub_store_not_main(self, tmp_path):
        plan = tiny_plan()
        main = tmp_path / "out.jsonl"
        for index in range(2):
            run_sweep(plan, store=str(main),
                      backend=f"shard(hosts=2, index={index})")
        # The workers only populate their sub-stores...
        assert not main.exists() or load_results(main) == []
        sub_rows = []
        for index in range(2):
            sub = tmp_path / f"out.shard{index}of2.jsonl"
            assert sub.exists()
            sub_rows.extend(load_results(sub))
        assert {row["key"] for row in sub_rows} == \
               {task.key() for task in plan.tasks()}

    def test_worker_emits_its_plan_json(self, tmp_path):
        plan = tiny_plan()
        run_sweep(plan, store=str(tmp_path / "out.sqlite"),
                  backend="shard(hosts=2, index=1)")
        document = json.loads(
            (tmp_path / "out.shard1of2.plan.json").read_text())
        assert document["hosts"] == 2 and document["shard"] == 1
        assert document["store"] == "out.shard1of2.sqlite"
        backend = ShardBackend(hosts=2)
        keys = {task.key() for task in plan.tasks()
                if backend.shard_of(task.key()) == 1}
        from repro.engine import SweepTask
        assert {SweepTask.from_dict(entry).key()
                for entry in document["tasks"]} == keys

    def test_coordinator_merges_worker_sub_stores(self, tmp_path):
        plan = tiny_plan()
        main = tmp_path / "out.jsonl"
        for index in range(2):
            run_sweep(plan, store=str(main),
                      backend=f"shard(hosts=2, index={index})")
        report = run_sweep(plan, store=str(main),
                           backend="shard(hosts=2)")
        assert report.executed == len(plan)
        merged = load_results(main)
        assert [row["index"] for row in merged] == [0, 1, 2, 3]
        # The merge reused the workers' rows verbatim (timing included).
        sub_rows = {row["key"]: row for index in range(2) for row in
                    load_results(tmp_path / f"out.shard{index}of2.jsonl")}
        assert merged == [sub_rows[row["key"]] for row in merged]

    def test_interrupted_worker_resumes_from_sub_store(self, tmp_path):
        plan = tiny_plan()
        backend = ShardBackend(hosts=1, index=0)
        mine = [task for task in plan.tasks()]
        main = tmp_path / "out.jsonl"
        # First worker run dies after two tasks (simulated with a slice).
        run_sweep(mine[:2], store=str(main), backend=backend)
        sub = tmp_path / "out.shard0of1.jsonl"
        first = load_results(sub)
        assert len(first) == 2
        # Re-running the full shard only executes the missing tasks.
        run_sweep(plan, store=str(main),
                  backend="shard(hosts=1, index=0)")
        second = load_results(sub)
        assert second[:2] == first  # earlier rows reused byte-for-byte
        assert len(second) == len(plan)


class TestShardDeterminism:
    """ISSUE acceptance: 1/2/4 shards merge byte-identically."""

    @pytest.mark.parametrize("store_name", ["out.jsonl", "out.sqlite"])
    def test_shard_counts_merge_identically(self, tmp_path, store_name):
        plan = tiny_plan()
        reference = [canonical_row_bytes(row)
                     for row in run_sweep(plan).rows]
        for hosts in (1, 2, 4):
            directory = tmp_path / f"hosts{hosts}"
            directory.mkdir()
            main = directory / store_name
            for index in range(hosts):
                run_sweep(plan, store=str(main),
                          backend=f"shard(hosts={hosts}, index={index})")
            run_sweep(plan, store=str(main),
                      backend=f"shard(hosts={hosts})")
            merged = [canonical_row_bytes(row)
                      for row in load_results(main)]
            assert merged == reference, hosts

    def test_coordinator_without_workers_matches_serial(self, tmp_path):
        plan = tiny_plan()
        main = tmp_path / "out.sqlite"
        run_sweep(plan, store=str(main), backend="shard(hosts=2)")
        serial = [canonical_row_bytes(row) for row in run_sweep(plan).rows]
        assert [canonical_row_bytes(row)
                for row in load_results(main)] == serial

    def test_shard_backend_without_store_still_plan_ordered(self):
        plan = tiny_plan()
        report = run_sweep(plan, backend="shard(hosts=2)")
        assert [row["index"] for row in report.rows] == [0, 1, 2, 3]


class TestPoolBackend:
    def test_failure_raises_sweep_task_error(self):
        from repro.engine import SweepTask, SweepTaskError
        bad = SweepTask(ftl="GeckoFTL(cache_capacity=-5)",
                        workload="UniformRandomWrites", device=dict(TINY),
                        cache_capacity=48, seed=1, write_operations=100,
                        interval_writes=50)
        with pytest.raises(SweepTaskError, match="GeckoFTL"):
            run_sweep([bad], backend="pool(workers=2)")

    def test_empty_pending_yields_nothing(self):
        assert list(PoolBackend(2).execute([])) == []

    def test_executor_skips_append_for_persisting_backends(self, tmp_path):
        # persists_rows=True means the backend owns persistence; the
        # executor must not double-append yielded rows to the main store.
        plan = tiny_plan(ftls=["GeckoFTL"], seeds=[1])

        class Recorder(SerialBackend):
            persists_rows = True

        with open_store(tmp_path / "main.jsonl") as store:
            report = run_sweep(plan, backend=Recorder(), store=store)
            assert report.executed == 1
            assert store.rows() == []
