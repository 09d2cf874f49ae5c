"""The stack benchmark: five workloads, end to end and layer by layer.

Two ways to run it (see README.md for the metric and workload tables):

``python3 benchmarks/stack/run.py --seed 42``
    the whole benchmark: every workload, 3 untraced repeats each (in
    alternating workload order), the last one followed at once by its traced
    run; prints every metric by name with unit, median, quartiles and sample
    count, verifies outputs and writes ``result.json`` and ``trace.json``
    under ``--out``.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload, as the benchmark driver calls it: the same 3 untraced
    repeats (``--trace 0``) or one untraced run and its traced run
    (``--trace 1``); the last line of stdout is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
    metrics for ``--trace 0``, per-layer metrics for ``--trace 1``).

Other modes: ``--smoke`` (op counts / 50, one repeat), ``--compare A B``,
``--write-expected``. This is a closed loop with one client: each (workload,
repeat) is a fresh child process, one at a time, single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
sys.path.insert(0, str(HERE))

from child import rows_digest  # noqa: E402
from compare import compare_results, quartiles  # noqa: E402
from gen_trace import write_trace  # noqa: E402
from spec import (GEOMETRY, NOMINAL_SECONDS, REPEATS,  # noqa: E402
                  RESULT_END_TO_END, SMOKE_SCALE, SWEEP_FTLS, WORKLOADS,
                  scaled)

EXPECTED_PATH = HERE / "expected.json"
EXPECTED_SEED = 42
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """A child failed, timed out, or printed something unexpected."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Finished(NamedTuple):
    """A child that has exited: output, wall time and peak memory."""

    stdout: str
    wall_s: float
    peak_rss_mb: float


def spawn(arguments: Sequence[str], work: Path) -> Finished:
    """Run ``python <arguments>`` to completion with the library importable.

    Output goes to files (nothing to drain while waiting), and the child is
    reaped with ``wait4`` so its own ``ru_maxrss`` is known.
    """
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([environment["PYTHONPATH"]]
                         if environment.get("PYTHONPATH") else []))
    stem = work / f"child-{uuid.uuid4().hex[:8]}"
    with open(f"{stem}.out", "w+") as out, open(f"{stem}.err", "w+") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *arguments], stdout=out, stderr=err,
            cwd=str(work), env=environment)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM/SIGINT raise in main): leave no orphan.
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if process.returncode != 0:
        raise BenchmarkError(
            f"child {' '.join(arguments)} exited with "
            f"{process.returncode}:\n{stderr[-4000:]}")
    return Finished(stdout, wall_s, usage.ru_maxrss / 1024.0)


def run_child(workload: str, seed: int, scale: float, work: Path,
              **options: Any) -> Dict[str, Any]:
    """One ``child.py`` process; returns its JSON result."""
    arguments = [str(HERE / "child.py"), "--workload", workload,
                 "--seed", str(seed), "--scale", repr(scale)]
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            arguments.append(flag)
        elif value is not None and value is not False:
            arguments += [flag, str(value)]
    # Last, so the stamp is as close to the fork as it can be.
    arguments += ["--spawned-at", repr(time.perf_counter())]
    return json.loads(spawn(arguments, work).stdout.strip().splitlines()[-1])


def run_cli(arguments: Sequence[str], work: Path) -> Finished:
    """``python -m repro.cli ...``, as a user types it."""
    return spawn(["-m", "repro.cli", *arguments], work)


# ----------------------------------------------------------------------
# One untraced run of one workload -> end-to-end sample
# ----------------------------------------------------------------------
def prepare_inputs(workload: str, seed: int, scale: float,
                   work: Path) -> Dict[str, Any]:
    """Make the run's inputs from the seed, before any child starts."""
    if workload != "timed_replay":
        return {}
    path = work / f"trace-{seed}.csv"
    logical_pages = int(GEOMETRY["num_blocks"] * GEOMETRY["pages_per_block"]
                        * GEOMETRY["logical_ratio"])
    sha256 = write_trace(
        path, seed, scaled(WORKLOADS[workload]["records"], scale),
        logical_pages, GEOMETRY["page_size"])
    return {"trace_file": str(path), "trace_sha256": sha256}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def sweep_arguments(seed: int, scale: float, store: Path) -> List[str]:
    parameters = WORKLOADS["sweep_grid"]
    return ["sweep", "--grid", parameters["grid"],
            "--blocks", str(parameters["blocks"]),
            "--pages-per-block", str(parameters["pages_per_block"]),
            "--page-size", str(parameters["page_size"]),
            "--writes", str(scaled(parameters["writes"], scale)),
            "--interval-writes", str(parameters["interval_writes"]),
            "--backend", "serial", "--store", str(store),
            "--seed", str(seed)]


def measure_sweep_grid(seed: int, scale: float, work: Path
                       ) -> Dict[str, Any]:
    """The CLI, as a user types it: sweep into SQLite, then query it.

    ``setup_s`` is the wall of the same ``sweep`` command with ``--resume``
    against the completed store: interpreter, imports, argument parsing,
    plan expansion, store open and key scan, zero cells.
    """
    from repro.engine import open_store

    parameters = WORKLOADS["sweep_grid"]
    cells = parameters["cells"]
    store = work / f"cli-{uuid.uuid4().hex[:8]}.sqlite"
    arguments = sweep_arguments(seed, scale, store)
    sweep = run_cli(arguments, work)
    if f"executed={cells} skipped=0" not in sweep.stdout:
        raise BenchmarkError(f"sweep did not run {cells} cells:\n"
                             f"{sweep.stdout[-2000:]}")
    query = run_cli(["query", str(store), "--by", "ftl",
                     "--metrics", "wa_total"], work)
    missing = [ftl for ftl in SWEEP_FTLS if ftl not in query.stdout]
    if missing:
        raise BenchmarkError(f"query output lacks {missing}:\n{query.stdout}")
    resumed = run_cli(arguments + ["--resume"], work)
    if f"executed=0 skipped={cells}" not in resumed.stdout:
        raise BenchmarkError("--resume against the completed store "
                             f"executed cells:\n{resumed.stdout[-2000:]}")
    handle = open_store(store)
    try:
        rows = handle.rows()
    finally:
        handle.close()
    executed = sum(row["operations_executed"] for row in rows)
    cell_seconds = {ftl: 0.0 for ftl in SWEEP_FTLS}
    for row in rows:
        cell_seconds[row["ftl"]] += row["wall_seconds"]
    return {
        "setup_s": resumed.wall_s,
        "region_s": sweep.wall_s,
        "wall_s": sweep.wall_s + query.wall_s,
        "peak_rss_mb": sweep.peak_rss_mb,
        "ops_requested": cells * scaled(parameters["writes"], scale),
        "ops_executed": executed,
        "readback_probes": 0, "readback_mismatches": 0,
        "sim_digest": rows_digest(rows),
        "sim_wa": statistics.fmean(row["wa_total"] for row in rows),
        "sim_ram_bytes": statistics.fmean(row["ram_bytes"] for row in rows),
        "sim_p99_us": 0.0, "sim_recover_ms": 0.0, "cycle_ms": [],
        "cli_store": str(store),
        "store_rows": len(rows), "store_bytes": store.stat().st_size,
        "cell_seconds": cell_seconds}


def measure(workload: str, seed: int, scale: float, work: Path,
            inputs: Dict[str, Any], readback: bool) -> Dict[str, Any]:
    """One untraced run: the source of every end-to-end metric."""
    if workload == "sweep_grid":
        raw = measure_sweep_grid(seed, scale, work)
    else:
        raw = run_child(workload, seed, scale, work,
                        trace_file=inputs.get("trace_file"),
                        readback=int(readback))
    raw["host_ops_per_s"] = raw["ops_executed"] / raw["region_s"]
    if raw["cycle_ms"]:
        raw["recover_ms_p50"] = statistics.median(raw["cycle_ms"])
        raw["cycle_ms_p90"] = percentile(raw["cycle_ms"], 0.9)
    else:
        raw["recover_ms_p50"] = raw["cycle_ms_p90"] = 0.0
    return raw


# ----------------------------------------------------------------------
# The traced pass of one workload -> per-layer metrics
# ----------------------------------------------------------------------
def measure_traced(workload: str, seed: int, scale: float, work: Path,
                   inputs: Dict[str, Any], untraced: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """The traced run of ``workload``, started right after ``untraced``.

    Every ratio of the traced pass divides two runs made back to back, so
    the machine's drift over minutes is not in it. For ``timed_replay``
    the order is full (``untraced``), timing only, overlays off, traced:
    ``obs.overhead_ratio`` and ``timing.overhead_ratio`` each divide two
    neighbouring untraced runs.
    """
    variants = {}
    if workload == "timed_replay":
        for variant in ("timing", "plain"):
            variants[f"{variant}_region_s"] = run_child(
                workload, seed, scale, work, variant=variant,
                trace_file=inputs["trace_file"], readback=0)["region_s"]
    traced = run_child(workload, seed, scale, work, traced=1, readback=0,
                       trace_file=inputs.get("trace_file"),
                       cli_store=untraced.get("cli_store"))
    return {**traced, **variants}


def layer_metrics(workload: str, untraced: Dict[str, Any],
                  traced: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 where a layer is
    absent from the workload."""
    spans = traced["trace"]["spans"]
    counts = traced.get("counts", {})

    def self_s(name: str) -> float:
        return sum(span["self_s"] for span in spans if span["name"] == name)

    def calls(name: str) -> int:
        return sum(span["calls"] for span in spans if span["name"] == name)

    def count(name: str) -> float:
        return counts.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    region_s = traced["region_s"]
    in_session = workload != "sweep_grid"
    lookups = count("cache_hits") + count("cache_misses")
    cell_seconds = untraced.get("cell_seconds", {})
    return {
        "workloads.self_s": self_s("workloads"),
        "workloads.ops": traced["ops_executed"] if in_session else 0,
        "ingest.self_s": self_s("ingest"),
        "ingest.records": calls("ingest"),
        "session.self_s": self_s("session"),
        "ftl.submit_self_s": self_s("ftl.submit"),
        "ftl.submit_calls": calls("ftl.submit"),
        "ftl.host_writes": count("host_writes"),
        "ftl.host_reads": count("host_reads"),
        "mapping.sync_self_s": self_s("mapping.sync"),
        "mapping.sync_calls": calls("mapping.sync"),
        "mapping.cache_hits": count("cache_hits"),
        "mapping.cache_misses": count("cache_misses"),
        "mapping.hit_ratio": ratio(count("cache_hits"), lookups),
        "mapping.translation_reads": count("translation_reads"),
        "mapping.translation_writes": count("translation_writes"),
        "gc.self_s": self_s("gc"),
        "gc.calls": calls("gc"),
        "gc.collections": count("gc_collections"),
        "gc.pages_migrated": count("gc_page_writes"),
        "gc.erases": count("gc_erases"),
        "validity.flush_self_s": self_s("validity.flush"),
        "validity.flush_calls": calls("validity.flush"),
        "validity.gc_query_self_s": self_s("validity.gc_query"),
        "validity.gc_query_calls": calls("validity.gc_query"),
        "validity.merges": count("gecko_merge_operations"),
        "validity.entries_rewritten": count("gecko_entries_rewritten"),
        "validity.page_reads": count("validity_reads"),
        "validity.page_writes": count("validity_writes"),
        "validity.levels": count("gecko_levels"),
        "flash.self_s": self_s("flash"),
        "flash.calls": calls("flash"),
        "flash.page_reads": count("page_reads"),
        "flash.page_writes": count("page_writes"),
        "flash.erases": count("erases"),
        "flash.spare_reads": count("spare_reads"),
        "timing.overhead_ratio": ratio(traced.get("timing_region_s", 0.0),
                                       traced.get("plain_region_s", 0.0)),
        "timing.requests": count("timing_requests"),
        "timing.sim_p50_us": count("timing_p50_us"),
        "timing.sim_p999_us": count("timing_p999_us"),
        "sim_p99_us": untraced["sim_p99_us"],
        "sim_wa": untraced["sim_wa"],
        "sim_ram_bytes": untraced["sim_ram_bytes"],
        "obs.overhead_ratio": ratio(untraced["region_s"],
                                    traced.get("timing_region_s", 0.0))
        if workload == "timed_replay" else 0.0,
        "obs.events": count("obs_events"),
        "engine.sweep_s": 0.0 if in_session else region_s,
        "engine.cells": untraced.get("store_rows", 0),
        "engine.cell_s_sum": sum(cell_seconds.values()),
        "engine.pool_speedup": ratio(region_s, traced.get("pool_s", 0.0))
        if not in_session else 0.0,
        **{f"engine.cell_s.{ftl}": cell_seconds.get(ftl, 0.0)
           for ftl in SWEEP_FTLS},
        "store.append_self_s": self_s("store.append"),
        "store.rows": untraced.get("store_rows", 0),
        "store.bytes": untraced.get("store_bytes", 0),
        "store.query_ms": traced.get("query_ms", 0.0),
        "store.load_ms": traced.get("load_ms", 0.0),
        "recovery.crash_self_s": self_s("recovery.crash"),
        "recovery.recover_self_s": self_s("recovery.recover"),
        "recovery.cycles": len(untraced["cycle_ms"]),
        "recovery.cycle_ms_p90": untraced["cycle_ms_p90"],
        "recovery.spare_reads": count("recovery_spare_reads"),
        "recovery.page_reads": count("recovery_page_reads"),
        "recover_ms_p50": untraced["recover_ms_p50"],
        "sim_recover_ms": untraced["sim_recover_ms"],
        "trace.overhead_ratio": ratio(region_s, untraced["region_s"]),
        "trace.unattributed_share": ratio(
            region_s - traced["trace"]["attributed_s"], region_s),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def scale_key(scale: float) -> str:
    return f"{scale:g}"


def expected_digest(workload: str, seed: int, scale: float) -> Optional[str]:
    """The pinned digest, if this (seed, scale) is one that is pinned."""
    if seed != EXPECTED_SEED or not EXPECTED_PATH.exists():
        return None
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected["digests"].get(scale_key(scale), {}).get(workload)


def verdict(workload: str, seed: int, scale: float,
            runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """``attempted`` / ``failed`` / ``correct`` over the runs of a workload.

    Attempted = host ops requested + read-back probes + digest checks. A
    read-back mismatch fails that probe; a digest mismatch, a traced run
    whose sweep rows differ, or an executed count other than the requested
    one fails every op of the run.
    """
    digests = [run["sim_digest"] for run in runs]
    digest_checks = len(runs) - 1
    digests_equal = len(set(digests)) == 1
    pinned = expected_digest(workload, seed, scale)
    if pinned is not None:
        digest_checks += 1
        digests_equal = digests_equal and digests[0] == pinned
    attempted = digest_checks + sum(
        run["ops_requested"] + run["readback_probes"] for run in runs)
    executed_all = all(run["ops_executed"] == run["ops_requested"]
                       and run.get("rows_match", True) for run in runs)
    if digests_equal and executed_all:
        failed = sum(run["readback_mismatches"] for run in runs)
    else:
        failed = attempted
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "sim_digest": digests[0],
            "digests_equal": digests_equal,
            "digest_pinned": pinned is not None}


# ----------------------------------------------------------------------
# The protocol: REPEATS untraced runs per workload, traced run after the last
# ----------------------------------------------------------------------
def collect(names: Sequence[str], seed: int, scale: float, repeats: int,
            layers: bool, work: Path) -> Dict[str, Dict[str, Any]]:
    """Run ``names`` ``repeats`` times each; one entry per workload.

    Workload order alternates (A...E, then E...A), so drift is not charged
    to one workload. With ``layers`` the traced run of a workload starts
    right after its last untraced repeat. The full run, ``--smoke`` and both
    driver forms are this one routine with different arguments.
    """
    contract = load_contract()
    inputs = {name: prepare_inputs(name, seed, scale, work) for name in names}
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    for repeat in range(repeats):
        for name in (names if repeat % 2 == 0 else reversed(names)):
            print(f"[repeat {repeat + 1}/{repeats}] {name}", file=sys.stderr)
            # The read-back check regenerates the whole op stream; once per
            # workload is enough, every repeat runs the same ops.
            run = measure(name, seed, scale, work, inputs[name],
                          readback=repeat == 0)
            runs[name].append(run)
            if layers and repeat == repeats - 1:
                print(f"[traced] {name}", file=sys.stderr)
                traced[name] = measure_traced(name, seed, scale, work,
                                              inputs[name], run)
    return {name: workload_entry(contract, name, seed, scale, runs[name],
                                 traced.get(name), inputs[name])
            for name in names}


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    first, median, third = quartiles(values)
    return {"median": median, "q1": first, "q3": third, "n": len(values),
            "values": list(values)}


def workload_entry(contract: Dict[str, Any], name: str, seed: int,
                   scale: float, runs: Sequence[Dict[str, Any]],
                   traced: Optional[Dict[str, Any]],
                   inputs: Dict[str, Any]) -> Dict[str, Any]:
    """What ``result.json`` holds for one workload."""
    outcome = verdict(name, seed, scale,
                      list(runs) + ([traced] if traced else []))
    entry: Dict[str, Any] = {
        "end_to_end": {
            metric["name"]: {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                **summarize([run[metric["name"]] for run in runs])}
            for metric in (contract["end_to_end"]
                           + RESULT_END_TO_END["every workload"]
                           + RESULT_END_TO_END.get(name, []))},
        "ops_attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failed_share": outcome["failed"] / outcome["attempted"],
        **{key: outcome[key] for key in
           ("correct", "sim_digest", "digests_equal", "digest_pinned")}}
    if traced:
        layers = layer_metrics(name, runs[-1], traced)
        entry["per_layer"] = {
            metric["name"]: {"value": layers[metric["name"]],
                             "unit": metric["unit"]}
            for metric in contract["per_layer"]}
        entry["trace"] = traced["trace"]
    if "trace_sha256" in inputs:
        entry["trace_sha256"] = inputs["trace_sha256"]
    return entry


def run_driver(arguments, work: Path) -> int:
    """One workload; the contract's JSON object as the last line."""
    scale = arguments.seconds / NOMINAL_SECONDS
    entry = collect([arguments.workload], arguments.seed, scale,
                    repeats=1 if arguments.trace else REPEATS,
                    layers=bool(arguments.trace), work=work
                    )[arguments.workload]
    if arguments.trace:
        metrics = entry["per_layer"]
    else:
        names = [metric["name"] for metric in load_contract()["end_to_end"]]
        metrics = {name: {"value": entry["end_to_end"][name]["median"],
                          "unit": entry["end_to_end"][name]["unit"]}
                   for name in names}
    print(json.dumps({"correct": entry["correct"],
                      "attempted": entry["ops_attempted"],
                      "failed": entry["failed"], "metrics": metrics}))
    return 0


def fingerprint() -> Dict[str, Any]:
    """Where and on what this result was measured."""
    def git(*arguments: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *arguments], cwd=str(ROOT), capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(status) if status is not None else None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model,
            "loadavg_at_start": list(os.getloadavg())}


def run_full(arguments, work: Path) -> int:
    """Every workload; prints the tables, writes the two result files."""
    scale = SMOKE_SCALE if arguments.smoke else 1.0
    repeats = 1 if arguments.smoke else REPEATS
    names = [entry["name"] for entry in load_contract()["workloads"]]
    result: Dict[str, Any] = {
        "schema": 1, "benchmark": "stack", "seed": arguments.seed,
        "scale": scale, "repeats": repeats, "fingerprint": fingerprint()}
    result["workloads"] = collect(names, arguments.seed, scale, repeats,
                                  layers=True, work=work)
    traces = {name: entry.pop("trace")
              for name, entry in result["workloads"].items()}
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    with open(out / "trace.json", "w", encoding="utf-8") as handle:
        json.dump({"seed": arguments.seed, "scale": scale,
                   "workloads": traces}, handle, indent=1)
        handle.write("\n")
    print_result(result)
    print(f"\nwrote {out / 'result.json'} and {out / 'trace.json'}")
    return 0 if all(entry["correct"]
                    for entry in result["workloads"].values()) else 1


def print_result(result: Dict[str, Any]) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  correct={entry['correct']} "
              f"ops_attempted={entry['ops_attempted']} "
              f"failed_share={entry['failed_share']:g} "
              f"sim_digest={entry['sim_digest'][:16]}")
        print(f"  {'end-to-end metric':<28}{'unit':<8}{'median':>14}"
              f"{'q1':>14}{'q3':>14}{'n':>4}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<28}{row['unit']:<8}{row['median']:>14.6g}"
                  f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}")
        print(f"  {'per-layer metric (traced pass, n=1)':<44}{'unit':<8}"
              f"{'value':>14}")
        for metric, row in entry["per_layer"].items():
            if row["value"]:
                print(f"  {metric:<44}{row['unit']:<8}{row['value']:>14.6g}")


# ----------------------------------------------------------------------
# --write-expected, --compare
# ----------------------------------------------------------------------
def write_expected(work: Path) -> int:
    """Re-pin the seed-42 digests, at full and at smoke scale. This is the
    only way ``expected.json`` changes, and doing so is a benchmark
    change."""
    digests: Dict[str, Dict[str, str]] = {}
    for scale in (1.0, SMOKE_SCALE):
        for name in WORKLOADS:
            inputs = prepare_inputs(name, EXPECTED_SEED, scale, work)
            run = measure(name, EXPECTED_SEED, scale, work, inputs,
                          readback=False)
            digests.setdefault(scale_key(scale), {})[name] = \
                run["sim_digest"]
            print(f"{scale_key(scale):>5} {name:<14} {run['sim_digest']}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": EXPECTED_SEED, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def run_compare(first: str, second: str) -> int:
    with open(first, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(second, "r", encoding="utf-8") as handle:
        change = json.load(handle)
    try:
        rows = compare_results(base, change)
    except ValueError as error:
        print(f"cannot compare: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(row["text"])
    verdicts = {row["verdict"] for row in rows}
    return 1 if verdicts & {"regressed", "unresolved"} else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver mode: run this one workload")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="driver mode: run length; op counts scale by "
                             f"seconds / {NOMINAL_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="driver mode: 1 = traced pass, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every op count / 50, one repeat")
    parser.add_argument("--out", default=str(ROOT / "bench-out" / "stack"),
                        help="directory for result.json and trace.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true")
    arguments = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if arguments.compare:
        return run_compare(*arguments.compare)
    if not (SOURCE / "repro" / "__init__.py").exists():
        print(f"the library is not at {SOURCE}; the benchmark runs from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    work = ROOT / ".bench_work" / uuid.uuid4().hex
    work.mkdir(parents=True)
    try:
        if arguments.write_expected:
            return write_expected(work)
        if arguments.workload:
            return run_driver(arguments, work)
        return run_full(arguments, work)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
