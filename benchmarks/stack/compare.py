"""Compare two ``result.json`` files of the stack benchmark.

For every workload x end-to-end metric: both medians and quartiles, the
ratio with its base, the metric's bound, and a verdict:

``unchanged``   the change's median is no worse than the base's by more
                than the bound (and no better by more than it);
``regressed``   worse by more than the bound;
``improved``    better by more than the bound and by more than the base's
                own quartile spread;
``unresolved``  the quartile spread of either side is wider than the bound
                and the two sets of runs overlap, so the data cannot tell.

Metrics with bound 0 (the simulated ``sim_`` ones), ``sim_digest`` and
``failed_share`` are exact: any difference is a verdict. That only means
something when both sides ran the same inputs under the same protocol, so
two results with different seed, scale or repeat count are refused.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def _worse_by(base: float, change: float, better: str) -> float:
    """Share of the base median by which the change is worse (signed)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def _every_run_better(winner: Sequence[float], loser: Sequence[float],
                      better: str) -> bool:
    if better == "lower":
        return max(winner) < min(loser)
    return min(winner) > max(loser)


def judge(base: Dict[str, Any], change: Dict[str, Any], better: str,
          bound: float) -> str:
    worse_by = _worse_by(base["median"], change["median"], better)
    if bound == 0:
        if sorted(base["values"]) == sorted(change["values"]) \
                or worse_by == 0:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"

    def spread(side: Dict[str, Any]) -> float:
        return ((side["q3"] - side["q1"]) / abs(side["median"])
                if side["median"] else 0.0)

    separated = (_every_run_better(change["values"], base["values"], better)
                 or _every_run_better(base["values"], change["values"],
                                      better))
    if max(spread(base), spread(change)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > max(bound, spread(base)):
        return "improved"
    return "unchanged"


def _cell(side: Dict[str, Any]) -> str:
    return (f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}] "
            f"n={side['n']}")


def compare_results(base: Dict[str, Any], change: Dict[str, Any]
                    ) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric (plus digest and failures)."""
    for key in ("seed", "scale", "repeats"):
        if base[key] != change[key]:
            raise ValueError(f"{key} differs: {base[key]} and {change[key]}")
    rows: List[Dict[str, Any]] = []
    for workload, base_entry in base["workloads"].items():
        change_entry = change["workloads"].get(workload)
        if change_entry is None:
            continue
        for metric, base_side in base_entry["end_to_end"].items():
            change_side = change_entry["end_to_end"][metric]
            bound = base_side["bound"]
            verdict = judge(base_side, change_side, base_side["better"],
                            bound)
            ratio = (change_side["median"] / base_side["median"]
                     if base_side["median"] else float("nan"))
            rows.append({
                "workload": workload, "metric": metric, "verdict": verdict,
                "text": (f"{workload:<14}{metric:<16}"
                         f"{base_side['unit']:<6}{base_side['better']:<7}"
                         f"A {_cell(base_side)} | B {_cell(change_side)} | "
                         f"B/A {ratio:.4f} (base {base_side['median']:.6g})"
                         f" | bound {bound:g} | {verdict}")})
        for key in ("failed_share", "sim_digest"):
            first, second = base_entry[key], change_entry[key]
            if first == second:
                verdict = "unchanged"
            elif key == "failed_share" and second < first:
                verdict = "improved"
            else:
                verdict = "regressed"
            shown = (f"A {first:g} | B {second:g}" if key == "failed_share"
                     else f"A {first[:16]} | B {second[:16]}")
            rows.append({"workload": workload, "metric": key,
                         "verdict": verdict,
                         "text": f"{workload:<14}{key:<16}{'exact':<13}"
                                 f"{shown} | bound 0 | {verdict}"})
    return rows
