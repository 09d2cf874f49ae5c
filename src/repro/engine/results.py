"""Result sinks: schema-versioned JSONL persistence, loading, aggregation.

Every executed :class:`~repro.engine.plan.SweepTask` produces one flat result
row (a JSON-serializable dict). A :class:`ResultSink` — the JSONL
implementation of the :class:`~repro.engine.store.ResultStore` interface —
appends rows to a JSONL file, one row per line, flushed and fsync'd per row,
and on re-open reports which task keys are already present so the executor
can resume a partially-completed sweep by running only the missing tasks.
(The SQLite implementation lives in :mod:`repro.engine.store`.) Rows are
persisted in *plan order* (that is what makes sink files reproducible across
worker counts), so with the ``serial`` backend a kill loses at most the task
in flight, while with ``pool(workers=N)`` up to ``N-1`` tasks that completed
ahead of a still-running earlier task may not have been persisted yet and will
be re-run on resume — resume correctness is unaffected either way.

Rows are schema-versioned (``"schema": SCHEMA_VERSION``); :func:`load_results`
rejects rows from a future schema instead of silently misreading them.

Determinism: every field of a row is a pure function of its task, except the
fields named in :data:`TIMING_FIELDS` (wall-clock timing and worker
identity). :func:`canonical_row` strips those, which is what the engine's
determinism guarantee — identical rows for ``serial`` and
``pool(workers=N)`` — is stated over.

The aggregation helpers (:func:`aggregate`, :func:`wa_breakdown_table`,
:func:`latency_table`, :func:`ram_breakdown_table`) accept row iterables,
any :class:`~repro.engine.store.ResultStore`, or a store path (format chosen
by extension), so analysis code never cares where rows are persisted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from statistics import mean
from typing import (Any, Dict, Iterable, KeysView, List, Optional, Sequence,
                    Set, Tuple, Union)

from .store import SQLITE_SUFFIXES, ResultStore, open_store

#: Bump when the row layout changes incompatibly.
SCHEMA_VERSION = 1

#: Row fields that legitimately differ between runs of the same task.
#: ``elapsed_s`` covers warm-up + measured run; ``wall_seconds`` is the whole
#: task (session construction through snapshot), the same clock the BENCH
#: perf records report.
TIMING_FIELDS = ("elapsed_s", "wall_seconds", "ops_per_sec", "worker_pid")


def canonical_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic portion of a row (timing/worker fields removed)."""
    return {key: value for key, value in row.items()
            if key not in TIMING_FIELDS}


def canonical_row_bytes(row: Dict[str, Any]) -> bytes:
    """Canonical JSON encoding of a row's deterministic portion.

    Used by the determinism regression tests: two rows are "byte-identical
    modulo timing" iff these encodings are equal.
    """
    return json.dumps(canonical_row(row), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class ResultSink(ResultStore):
    """Append-only JSONL store for sweep result rows, with resume support."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        #: ``None`` until the existing file has been scanned; scanning is
        #: lazy (and shared with :meth:`rows`) so opening a large sink and
        #: resuming against it parses the JSONL exactly once. A dict rather
        #: than a set so :meth:`completed_keys` can hand out a live
        #: read-only view instead of copying.
        self._keys: Optional[Dict[str, None]] = None
        #: Parsed rows, kept in sync with appends once the file has been
        #: scanned; :meth:`rows` never re-parses within one sink lifetime.
        self._rows: Optional[List[Dict[str, Any]]] = None
        #: JSONL parse count, asserted on by the one-parse regression test.
        self.parse_count = 0

    def _ingest_keys(self, rows: Iterable[Dict[str, Any]]) -> None:
        assert self._keys is not None
        for row in rows:
            key = row.get("key")
            if key:
                self._keys[key] = None

    def _scan(self) -> List[Dict[str, Any]]:
        """Parse the file once, priming both the row cache and key set."""
        if self._rows is None:
            self.close()  # make sure buffered rows are visible
            if self.path.exists():
                self._rows = load_results(self.path)
                self.parse_count += 1
            else:
                self._rows = []
            if self._keys is None:
                self._keys = {}
            self._ingest_keys(self._rows)
        return self._rows

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, row: Dict[str, Any]) -> None:
        """Append one row; flushed (and fsync'd) immediately."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(row, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        key = row.get("key")
        if key and self._keys is not None:
            # If the file hasn't been scanned yet, the row is on disk and a
            # later lazy scan will pick its key up from there.
            self._keys[key] = None
        if self._rows is not None:
            # Same rule for the row cache: extend it only once primed.
            self._rows.append(row)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def completed_keys(self) -> KeysView[str]:
        """Task keys already present in the sink (including this session's).

        Returns a live, read-only view — it reflects later appends and
        compares equal to plain sets, but costs nothing per call.
        """
        if self._keys is None:
            self._scan()
        return self._keys.keys()

    def rows(self) -> List[Dict[str, Any]]:
        """All rows currently in the sink (also primes the resume-key set).

        The JSONL is parsed at most once per sink lifetime; later calls and
        appends are served from the cache.
        """
        return list(self._scan())


def load_results(source: Union[str, Path, ResultStore]
                 ) -> List[Dict[str, Any]]:
    """Load all rows of a result store.

    Accepts a :class:`~repro.engine.store.ResultStore`, a SQLite store path
    (by extension), or a JSONL sink path, whose rows are schema-validated
    line by line.
    """
    if isinstance(source, ResultStore):
        return source.rows()
    path = Path(source)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        with open_store(path) as store:
            return store.rows()
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON "
                                 f"({exc.msg})") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{line_number}: expected a JSON "
                                 f"object, got {type(row).__name__}")
            schema = row.get("schema", SCHEMA_VERSION)
            if schema > SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{line_number}: row has schema version {schema} "
                    f"but this build reads at most {SCHEMA_VERSION}")
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: What the aggregation helpers accept as their row source.
RowSource = Union[Iterable[Dict[str, Any]], ResultStore, str, Path]


def _coerce_rows(source: RowSource) -> Iterable[Dict[str, Any]]:
    """Turn a row iterable, store, or store path into an iterable of rows."""
    if isinstance(source, (ResultStore, str, Path)):
        return load_results(source)
    return source


#: Virtual-time QoS columns timed rows carry (see ``repro.timing``). These
#: are deterministic — unlike the wall-clock ``ops_per_sec`` they are part
#: of the canonical row, not of :data:`TIMING_FIELDS`.
LATENCY_FIELDS = ("throughput_ops_s", "p50_us", "p99_us", "p999_us")

#: Metrics :func:`aggregate` summarizes by default. The latency columns
#: only exist on rows from timed tasks; untimed rows simply don't
#: contribute to them (see :func:`aggregate`).
DEFAULT_METRICS = ("wa_total", "ops_per_sec", "ram_bytes") + LATENCY_FIELDS


def _group_value(row: Dict[str, Any], field: str) -> Any:
    """Resolve a (possibly dotted) field path like ``device.logical_ratio``."""
    value: Any = row
    for part in field.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def aggregate(rows: RowSource,
              by: Sequence[str] = ("ftl",),
              metrics: Sequence[str] = DEFAULT_METRICS
              ) -> List[Dict[str, Any]]:
    """Group rows and summarize metrics as count/mean/min/max.

    ``rows`` may be an iterable of row dicts, any
    :class:`~repro.engine.store.ResultStore`, or a store path (format
    picked by extension). ``by`` names group-by fields (dotted paths reach into nested dicts, e.g.
    ``"device.logical_ratio"``); ``metrics`` names numeric row fields. The
    result is one dict per group, ordered by first appearance, with
    ``<metric>_mean`` / ``_min`` / ``_max`` columns plus ``n`` (the group
    size). Rows missing a metric simply don't contribute to it.
    """
    groups: Dict[Tuple, Dict[str, Any]] = {}
    sizes: Dict[Tuple, int] = {}
    samples: Dict[Tuple, Dict[str, List[float]]] = {}
    for row in _coerce_rows(rows):
        key = tuple(_group_value(row, field) for field in by)
        if key not in groups:
            groups[key] = {field: value for field, value in zip(by, key)}
            sizes[key] = 0
            samples[key] = {metric: [] for metric in metrics}
        sizes[key] += 1
        for metric in metrics:
            value = _group_value(row, metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples[key][metric].append(float(value))
    result = []
    for key, header in groups.items():
        summary = dict(header)
        summary["n"] = sizes[key]
        for metric in metrics:
            values = samples[key][metric]
            if values:
                summary[f"{metric}_mean"] = mean(values)
                summary[f"{metric}_min"] = min(values)
                summary[f"{metric}_max"] = max(values)
        result.append(summary)
    return result


def wa_breakdown_table(rows: RowSource,
                       by: Sequence[str] = ("ftl",)) -> List[Dict[str, Any]]:
    """Mean write-amplification per IO purpose, grouped (Figure 13 bottom).

    Returns one dict per group with ``wa_total`` plus one ``wa_<purpose>``
    column per purpose observed in *any* group (0.0 where a group has none),
    so the tables keep a rectangular column set.
    """
    grouped: Dict[Tuple, List[Dict[str, Any]]] = {}
    all_purposes: Set[str] = set()
    for row in _coerce_rows(rows):
        key = tuple(_group_value(row, field) for field in by)
        grouped.setdefault(key, []).append(row)
        all_purposes.update((row.get("wa_breakdown") or {}).keys())
    result = []
    for key, members in grouped.items():
        summary: Dict[str, Any] = {field: value
                                   for field, value in zip(by, key)}
        totals = [member.get("wa_total") for member in members
                  if isinstance(member.get("wa_total"), (int, float))]
        if totals:
            summary["wa_total"] = mean(totals)
        purposes: Dict[str, List[float]] = {}
        for member in members:
            for purpose, value in (member.get("wa_breakdown") or {}).items():
                purposes.setdefault(purpose, []).append(float(value))
        for purpose in sorted(all_purposes):
            values = purposes.get(purpose)
            summary[f"wa_{purpose}"] = mean(values) if values else 0.0
        result.append(summary)
    return result


def latency_table(rows: RowSource,
                  by: Sequence[str] = ("ftl",)) -> List[Dict[str, Any]]:
    """Mean virtual-time QoS figures per group (tail-latency reporting).

    The sibling of :func:`wa_breakdown_table` for the timing subsystem:
    one dict per group with the mean of each :data:`LATENCY_FIELDS` column
    plus ``mean_us`` and ``max_us`` drawn from the rows' nested ``latency``
    summaries. Rows without latency columns (untimed tasks) are skipped;
    groups containing no timed rows are omitted entirely, so the table
    stays rectangular without inventing zero latencies.
    """
    grouped: Dict[Tuple, List[Dict[str, Any]]] = {}
    for row in _coerce_rows(rows):
        if not isinstance(row.get("p99_us"), (int, float)):
            continue
        key = tuple(_group_value(row, field) for field in by)
        grouped.setdefault(key, []).append(row)
    result = []
    for key, members in grouped.items():
        summary: Dict[str, Any] = {field: value
                                   for field, value in zip(by, key)}
        summary["n"] = len(members)
        for metric in LATENCY_FIELDS + ("latency.mean_us", "latency.max_us"):
            values = [
                value for value in
                (_group_value(member, metric) for member in members)
                if isinstance(value, (int, float))
                and not isinstance(value, bool)]
            if values:
                name = metric.rpartition(".")[2]
                summary[name] = mean(values)
        result.append(summary)
    return result


def ram_breakdown_table(rows: RowSource,
                        by: Sequence[str] = ("ftl",)) -> List[Dict[str, Any]]:
    """Mean RAM-footprint component bytes, grouped (Figure 13/14 style).

    Component columns cover every component seen in *any* group (0.0 where a
    group lacks one), keeping the tables rectangular.
    """
    grouped: Dict[Tuple, List[Dict[str, Any]]] = {}
    all_components: Set[str] = set()
    for row in _coerce_rows(rows):
        key = tuple(_group_value(row, field) for field in by)
        grouped.setdefault(key, []).append(row)
        all_components.update((row.get("ram_breakdown") or {}).keys())
    result = []
    for key, members in grouped.items():
        summary: Dict[str, Any] = {field: value
                                   for field, value in zip(by, key)}
        components: Dict[str, List[float]] = {}
        for member in members:
            for name, size in (member.get("ram_breakdown") or {}).items():
                components.setdefault(name, []).append(float(size))
        total = 0.0
        for name in sorted(all_components):
            values = components.get(name)
            value = mean(values) if values else 0.0
            summary[f"ram_{name}"] = value
            total += value
        summary["ram_bytes"] = total
        result.append(summary)
    return result
