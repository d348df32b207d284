"""Benchmark sweep over random unit disk graphs: what solve reports.

Each row solves build_intersection_graph(random_udg(n, density, seed))
with SolveConfig(k=n), so every answer is "yes" and carries the exact
minimum. The CSV holds only deterministic columns so reruns are
byte-identical: the instance, every int-valued key of Solution.stats and
the answer. The JSON report adds each row's wall time and
stats["timings"].
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

from .errors import InputError
from .geometry import build_intersection_graph, random_udg
from .solver import SolveConfig, solve

STATS_COLUMNS = [
    "class_count",
    "lower_bound",
    "min_fvs",
    "weighted_width",
    "bound_solved",
    "greedy_optimal",
    "pruned_rows",
    "high_degree_count",
]
CSV_COLUMNS = ["n", "density", "seed", "m", *STATS_COLUMNS, "verdict", "certificate", "status"]

SCHEMA_VERSION = 2


@dataclass
class BenchReport:
    rows: list[dict]
    params: dict


def run_sweep(n_values: list[int], densities: list[float], seeds: int) -> BenchReport:
    """Generate and solve one UDG per (n, density, seed).

    A bad seed count, n or density raises InputError before the first solve.
    """
    if seeds < 1:
        raise InputError(f"need seeds >= 1, got {seeds}")
    for n in n_values:
        for density in densities:
            random_udg(n, density, 0)  # random_udg alone says which values are valid
    rows: list[dict] = []
    for n in sorted(n_values):
        for density in sorted(densities):
            for seed in range(seeds):
                row: dict = {"n": n, "density": density, "seed": seed, "status": "ok"}
                t0 = time.perf_counter()
                try:
                    g = build_intersection_graph(random_udg(n, density, seed))
                    sol = solve(g, SolveConfig(k=n))
                    row["m"] = g.m
                    row.update((col, sol.stats[col]) for col in STATS_COLUMNS)
                    row["verdict"] = sol.verdict
                    row["certificate"] = sol.certificate
                    row["timings"] = sol.stats["timings"]
                except Exception as exc:  # noqa: BLE001 - error rows, never abort
                    row["status"] = f"error: {type(exc).__name__}"
                row["wall_time"] = time.perf_counter() - t0
                rows.append(row)
    return BenchReport(
        rows=rows,
        params={"n_values": sorted(n_values), "densities": sorted(densities), "seeds": seeds},
    )


def report_to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([r.get(col, "") for col in CSV_COLUMNS])
    return buf.getvalue()


def report_to_json(report: BenchReport) -> str:
    payload = {"schema": SCHEMA_VERSION, "params": report.params, "rows": report.rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
