"""Performance microbenchmarks and report formatting."""

from .perf import (
    BENCH_SCHEMA_VERSION,
    bench_names,
    compare_records,
    load_records,
    run_benchmark,
    run_benchmarks,
    speedup_summary,
    write_record,
)
from .reporting import format_bytes, format_seconds, format_table, print_report

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_names",
    "compare_records",
    "format_bytes",
    "format_seconds",
    "format_table",
    "load_records",
    "print_report",
    "run_benchmark",
    "run_benchmarks",
    "speedup_summary",
    "write_record",
]
