"""diskfvs benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload udg-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Set-up (a fresh-interpreter `import diskfvs` plus generating every graph)
is repeated SETUP_REPEATS times and its median reported. Then one client
calls `diskfvs.solver.solve(g, SolveConfig(k=...))` on each graph in turn,
in complete passes over the list while another pass fits in `--seconds`,
and checks every answer.

Times are normalized to a reference machine speed. The speed of a shared
machine drifts by a quarter or more over tens of seconds, which swamps
what one run can resolve. So a fixed calibration kernel is timed just
before and just after every solve and every set-up, and each wall time
is scaled by CALIBRATION_REF_S over the mean of those two kernel times:
a reported second is a second on a machine where the kernel takes
CALIBRATION_REF_S. Wall-clock figures are printed alongside.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
first half of the list is solved once with span wrappers installed and once
without, and the per-layer metrics are printed (spans go to
`perfbench/out/`). The last line of stdout is one JSON object. Exit codes:
0 all answers right, 1 a wrong answer, 2 no package to measure, 3 an
expected span never fired.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diskfvs; "
    "print(time.perf_counter() - t)"
)

# the calibration kernel's time at the reference speed: about its median on
# the 2-vCPU Xeon VM where the benchmark was defined
CALIBRATION_REF_S = 0.002

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def calibration_seconds() -> float:
    """Median of three timings of a fixed kernel shaped like the DP's loops.

    It groups values under tuple keys in a dict and runs a list-based
    union-find, as `dp_run` does. A pure lookup loop was tried first: it
    slowed down about twice as much as the solver when the machine did,
    so it over-corrected.
    """
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i in range(3000):
            key = (i & 127, i >> 7, i % 3)
            members = groups.get(key)
            if members is None:
                groups[key] = [i]
            else:
                members.append(i)
        parent = list(range(512))
        for i in range(3600):
            a, b = (i * 7) & 511, (i * 13) & 511
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[b] = a
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def normalize(wall: float, before: float, after: float) -> float:
    """Wall seconds scaled to the reference speed, given the kernel times
    measured just before and just after."""
    return wall * CALIBRATION_REF_S * 2 / (before + after)


def use_checkout_src() -> None:
    if not (SRC / "diskfvs" / "__init__.py").is_file():
        print(f"error: no diskfvs package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    """Time of `import diskfvs` measured inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def build_graphs(specs) -> tuple[list, float, float]:
    """Graphs for the specs, with seconds spent in each generator step."""
    from diskfvs.geometry import build_intersection_graph, random_udg

    graphs = []
    t_udg = t_build = 0.0
    for s in specs:
        t0 = time.perf_counter()
        objs = random_udg(s.n, s.density, seed=s.geometry_seed)
        t1 = time.perf_counter()
        graphs.append(build_intersection_graph(objs))
        t_udg += t1 - t0
        t_build += time.perf_counter() - t1
    return graphs, t_udg, t_build


def set_up(specs) -> tuple[list, dict[str, float]]:
    """Median set-up over SETUP_REPEATS; keeps the last generated graphs.

    The reported figures are normalized; `wall_setup_s` is the raw median.
    """
    rows = []
    for _ in range(SETUP_REPEATS):
        before = calibration_seconds()
        t_import = import_seconds()
        graphs, t_udg, t_build = build_graphs(specs)
        scale = normalize(1.0, before, calibration_seconds())
        parts = (t_import, t_udg, t_build)
        rows.append((scale * sum(parts), *(scale * t for t in parts), sum(parts)))
    med = [statistics.median(col) for col in zip(*rows)]
    names = ("setup_s", "import_s", "random_udg_s", "build_s", "wall_setup_s")
    return graphs, dict(zip(names, med))


class Solve(NamedTuple):
    seconds: float  # normalized to the reference speed
    wall_s: float
    failure: str | None
    checked: bool  # whether a reference minimum FVS checked the answer


def solve_pass(specs, graphs, reference) -> list[Solve]:
    """Solve every graph once, timing and checking each answer."""
    import diskfvs.solver as solver
    from checker import check

    out = []
    for spec, g in zip(specs, graphs):
        cfg = solver.SolveConfig(k=spec.k)
        before = calibration_seconds()
        t0 = time.perf_counter()
        try:
            sol = solver.solve(g, cfg)
            why = None
        except Exception as exc:  # noqa: BLE001 - a raising solve is a failed solve
            why = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        norm = normalize(wall, before, calibration_seconds())
        checked = False
        if why is None:
            why, checked = check(g, spec.k, sol, reference.get(spec.key))
        out.append(Solve(norm, wall, why, checked))
    return out


def run_passes(specs, graphs, reference, seconds: float) -> tuple[list, int]:
    """Complete passes over the list while another one fits in `seconds`.

    The first pass always runs, so every instance is solved at least once.
    """
    records = []
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
        records += solve_pass(specs, graphs, reference)
        passes += 1
    return records, passes


def harrell_davis(values, pct: int) -> float:
    """Harrell-Davis estimate of the pct-th percentile of the values.

    It is a Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.
    It estimates the same percentile as a single order statistic, but the
    noise of the one or two solves that land there no longer decides it:
    on simulated udg-dense runs its seed-to-seed spread at p87 was about a
    third lower.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * pct / 100, (n + 1) * (1 - pct / 100)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 20  # midpoint rule for the Beta mass of each (i/n, (i+1)/n)
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def rate(records) -> float:
    return len(records) / sum(r.seconds for r in records)


def end_to_end(records, tail_pct: int, setup: dict[str, float]) -> dict[str, float]:
    times = [r.seconds for r in records]
    return {
        "solves_per_s": rate(records),
        "solve_s.p50": harrell_davis(times, 50),
        "solve_s.tail": harrell_davis(times, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup["setup_s"],
    }


def emit(records, metrics: dict[str, float], units: dict[str, str]) -> int:
    """Print the failures and the result line; return the exit code."""
    failed = [r for r in records if r.failure is not None]
    for r in failed[:10]:
        print(f"FAIL: {r.failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if failed else 0


def run_end_to_end(args, workload, specs, graphs, reference, setup) -> int:
    records, passes = run_passes(specs, graphs, reference, args.seconds)
    metrics = end_to_end(records, workload.tail_pct, setup)
    beyond = sum(1 for r in records if r.seconds > metrics["solve_s.tail"])
    failed = sum(1 for r in records if r.failure is not None)
    unchecked = sum(1 for r in records if r.failure is None and not r.checked)
    wall_rate = len(records) / sum(r.wall_s for r in records)
    print(f"{workload.name} seed {args.seed}: {len(specs)} instances x {passes} passes = "
          f"{len(records)} solves, {unchecked} not checked against a reference")
    print(f"fail_frac {failed / len(records):.4f} ratio")
    for name, unit in END_TO_END_UNITS.items():
        note = f" (p{workload.tail_pct}, {beyond} solves beyond)" if name == "solve_s.tail" else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    print(f"wall clock: solves_per_s {wall_rate:.6g} 1/s, setup_s {setup['wall_setup_s']:.6g} s")
    print(f"setup parts: import {setup['import_s']:.4f} s, random_udg {setup['random_udg_s']:.4f}"
          f" s, build_intersection_graph {setup['build_s']:.4f} s")
    return emit(records, metrics, END_TO_END_UNITS)


def run_traced(args, workload, specs, graphs, reference, setup) -> int:
    from tracer import PER_LAYER_UNITS, MissingSpanError, Tracer

    half = math.ceil(len(specs) / 2)
    specs, graphs = specs[:half], graphs[:half]
    tracer = Tracer()
    tracer.install()
    try:
        traced = solve_pass(specs, graphs, reference)
    finally:
        tracer.uninstall()
    untraced = solve_pass(specs, graphs, reference)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(span_file)
    try:
        tracer.check_expected()
    except MissingSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    metrics = tracer.layer_metrics([r.seconds / r.wall_s for r in traced])
    metrics["geometry.random_udg.s"] = setup["random_udg_s"]
    metrics["geometry.build_intersection_graph.s"] = setup["build_s"]
    metrics["trace.traced_solves_per_s"] = rate(traced)
    metrics["trace.untraced_solves_per_s"] = rate(untraced)
    solve_total = sum(r.seconds for r in traced)
    print(f"{workload.name} seed {args.seed}: {half} instances traced, then re-solved untraced;"
          f" {len(tracer.spans)} spans in {span_file.relative_to(ROOT)}")
    for name, unit in PER_LAYER_UNITS.items():
        in_solve = unit == "s" and not name.startswith("geometry.")
        share = f" ({metrics[name] / solve_total:.1%} of traced solve time)" if in_solve else ""
        print(f"{name} {metrics[name]:.6g} {unit}{share}")
    return emit(traced + untraced, metrics, PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="solve only the first LIMIT instances (self-test, quick looks)")
    args = parser.parse_args(argv)

    use_checkout_src()
    from workloads import WORKLOADS, instance_specs, load_reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = instance_specs(workload.name, args.seed)[:args.limit]
    reference = load_reference()
    graphs, setup = set_up(specs)
    run = run_traced if args.trace else run_end_to_end
    return run(args, workload, specs, graphs, reference, setup)


if __name__ == "__main__":
    sys.exit(main())
