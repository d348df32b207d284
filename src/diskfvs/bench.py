"""Benchmark sweep over planted instances: width and degree scaling evidence.

Each row is reproducible from (k, seed, generator params). The CSV output
contains only deterministic columns so reruns are byte-identical; wall
times live in the JSON report alongside the fitted aggregates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

from .geometry import build_intersection_graph, classify_grid, planted_yes_instance
from .solver import SolveConfig, component_pipelines, solve

CSV_COLUMNS = [
    "k",
    "seed",
    "n",
    "m",
    "k_planted",
    "weighted_width",
    "high_degree_count",
    "heavy_cells",
    "class_count",
    "verdict",
    "mode",
    "status",
]

SCHEMA_VERSION = 1


@dataclass
class BenchRow:
    k: int
    seed: int
    n: int = 0
    m: int = 0
    k_planted: int = 0
    weighted_width: int = 0
    high_degree_count: int = 0
    heavy_cells: int = 0
    class_count: int = 0
    verdict: str = ""
    mode: str = ""
    status: str = "ok"
    wall_time: float = 0.0


@dataclass
class BenchReport:
    rows: list[BenchRow]
    slope: float | None = None
    coeff_c: float | None = None
    params: dict = field(default_factory=dict)


def fit_loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) against log(x); None when degenerate."""
    pts = [(math.log(x), math.log(y)) for (x, y) in points if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def run_sweep(
    k_values: list[int],
    seeds: int,
    path_len_base: int = 40,
    mode: str = "dp-rank",
) -> BenchReport:
    """Generate, solve, and measure one planted instance per (k, seed)."""
    rows: list[BenchRow] = []
    for k in sorted(k_values):
        for seed in range(seeds):
            row = BenchRow(k=k, seed=seed, mode=mode)
            t0 = time.perf_counter()
            try:
                objs, k_planted = planted_yes_instance(k, path_len_base, seed)
                g = build_intersection_graph(objs)
                grid = classify_grid(objs)
                cfg = SolveConfig(k=k_planted, mode=mode)
                sol = solve(g, cfg)
                row.n = g.n
                row.m = g.m
                row.k_planted = k_planted
                row.weighted_width = max(
                    (pipe.weighted_width for _, pipe in component_pipelines(g)), default=0
                )
                row.high_degree_count = sol.stats.get("high_degree_count", 0)
                row.heavy_cells = len(grid.heavy_cells)
                row.class_count = sol.stats.get("class_count", 0)
                row.verdict = sol.verdict
            except Exception as exc:  # noqa: BLE001 - error rows, never abort
                row.status = f"error: {type(exc).__name__}"
            row.wall_time = time.perf_counter() - t0
            rows.append(row)
    rows.sort(key=lambda r: (r.k, r.seed))
    ok_rows = [r for r in rows if r.status == "ok" and r.k > 0]
    slope = fit_loglog_slope([(r.k, max(r.weighted_width, 1)) for r in ok_rows])
    coeff = max(
        (r.weighted_width / math.sqrt(r.k) for r in ok_rows), default=None
    )
    return BenchReport(
        rows=rows,
        slope=slope,
        coeff_c=coeff,
        params={
            "k_values": sorted(k_values),
            "seeds": seeds,
            "path_len_base": path_len_base,
            "mode": mode,
        },
    )


def report_to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([getattr(r, col) for col in CSV_COLUMNS])
    return buf.getvalue()


def report_to_json(report: BenchReport) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "params": report.params,
        "aggregate": {"loglog_slope": report.slope, "coeff_c": report.coeff_c},
        "rows": [
            {**{col: getattr(r, col) for col in CSV_COLUMNS}, "wall_time": r.wall_time}
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
