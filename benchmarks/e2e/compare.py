"""Sample statistics and the regression rule shared by ``compare`` and ``spread``.

A metric regresses when the second set's median is worse than the
first's by more than the metric's bound.  Where either set's own spread
(the distance between its quartiles, as a share of its median) is wider
than the bound the pair cannot resolve a change of that size,
and the row reads ``unresolved`` rather than ``ok`` — unless every run of
the second set is better than every run of the first.
"""

from __future__ import annotations

import statistics

from metrics import END_TO_END, REPORT_ONLY, Metric


def sample_stats(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),  # every run made
    }


def iqr_share(values: list[float]) -> float:
    """Interquartile range as a share of the median (needs >= 2 values)."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _spread(stats: dict) -> float:
    values = stats["values"]
    return iqr_share(values) if len(values) >= 2 and stats["median"] else 0.0


def verdict(metric: Metric, first: dict, second: dict) -> tuple[str, float, float]:
    """``(ok | worse | unresolved | report, worsening, spread)`` for one row.

    ``first`` and ``second`` are :func:`sample_stats` dicts.  Worsening is
    the share of the first median by which the second is worse (negative
    = better); spread is the wider of the two sets' IQR / median.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    base = first["median"]
    worsening = sign * (second["median"] - base) / base if base else 0.0
    spread = max(_spread(first), _spread(second))
    if metric.bound is None:
        return "report", worsening, spread
    if metric.bound == 0.0:  # absolute: failed_share may not rise at all
        return ("worse" if sign * (second["median"] - base) > 0 else "ok"), worsening, spread
    if spread > metric.bound:
        if metric.better == "lower":
            all_better = second["max"] < first["min"]
        else:
            all_better = second["min"] > first["max"]
        return ("ok" if all_better else "unresolved"), worsening, spread
    return ("worse" if worsening > metric.bound else "ok"), worsening, spread


def compare_results(first: dict, second: dict) -> list[dict]:
    """One row per workload x end-to-end metric present in both result files."""
    rows = []
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            continue
        for metric in (*END_TO_END, *REPORT_ONLY):
            if metric.name not in a["end_to_end"] or metric.name not in b["end_to_end"]:
                continue
            a_stats, b_stats = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            status, worsening, spread = verdict(metric, a_stats, b_stats)
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "bound": metric.bound,
                    "first": a_stats["median"],
                    "second": b_stats["median"],
                    "worsening": worsening,
                    "spread": spread,
                    "verdict": status,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<11} {'metric':<21} {'first':>12} {'second':>12} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:<11} {row['metric']:<21} {row['first']:>12.4f} "
            f"{row['second']:>12.4f} {row['worsening']:>+9.3f} {row['spread']:>7.3f} "
            f"{bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)
