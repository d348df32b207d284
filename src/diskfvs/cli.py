"""Command-line surface: gen, solve, oracle, validate, bench, compare.

Exit codes for solve/oracle/compare follow a stable contract:
0 = yes (or agreement), 1 = no (or disagreement), 2 = error. validate
exits 0 when every component's pipeline builds, which checks its
kappa-partition and its decomposition, and 2 on an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .errors import DiskFvsError, InputError
from .fileio import parse_instance, serialize_graph, serialize_objects
from .geometry import build_intersection_graph, planted_yes_instance, random_udg
from .graph import Graph
from .oracle import MAX_N, min_fvs_bruteforce
from .solver import MODES, STATE_BUDGET, SolveConfig, component_pipelines, solve

SCHEMA_VERSION = 1


def _load_instance(path: str) -> Graph:
    """Read a graph file, or a points file as its intersection graph."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_instance(text)


def _list_arg(text: str, kind) -> list:
    """A comma-separated list of kind (int or float) values."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad list {text!r}: {exc}") from exc
    if not values:
        raise InputError(f"bad list {text!r}: no values")
    return values


def _cmd_gen(args) -> int:
    if args.udg == args.planted:
        raise InputError("choose exactly one of --udg / --planted")
    if args.udg:
        objs = random_udg(args.n, args.density, args.seed)
    else:
        objs, _ = planted_yes_instance(args.k, args.path_len, args.seed)
    g = build_intersection_graph(objs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    points_path = out.with_suffix(".points")
    graph_path = out.with_suffix(".graph")
    points_path.write_text(serialize_objects(objs))
    graph_path.write_text(serialize_graph(g))
    print(points_path)
    print(graph_path)
    return 0


def _solution_payload(sol, cfg) -> dict:
    """All of sol.stats, plus the answer itself."""
    return {
        **sol.stats,
        "schema": SCHEMA_VERSION,
        "verdict": sol.verdict,
        "fvs": list(sol.fvs or ()),
        "certificate": sol.certificate,
        "k": cfg.k,
    }


def _cmd_solve(args) -> int:
    g = _load_instance(args.input)
    cfg = SolveConfig(k=args.k, mode=args.mode, state_budget=args.state_budget)
    sol = solve(g, cfg)
    if args.json:
        print(json.dumps(_solution_payload(sol, cfg), sort_keys=True))
    else:
        size = len(sol.fvs) if sol.fvs is not None else "-"
        print(f"verdict={sol.verdict} certificate={sol.certificate} fvs_size={size}")
        if sol.fvs:
            print("fvs=" + " ".join(str(v) for v in sol.fvs))
    return 0 if sol.verdict == "yes" else 1


def _cmd_oracle(args) -> int:
    g = _load_instance(args.input)
    size, witness = min_fvs_bruteforce(g, args.max_n)
    verdict = "yes" if size <= args.k else "no"
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "verdict": verdict,
            "min_fvs": size,
            "fvs": sorted(witness) if verdict == "yes" else [],
            "k": args.k,
            "certificate": "oracle",
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"verdict={verdict} min_fvs={size}")
    return 0 if verdict == "yes" else 1


def _cmd_validate(args) -> int:
    """Report from the pipelines: building them checked every artifact."""
    comps = component_pipelines(_load_instance(args.input))
    pipes = [pipe for _, pipe in comps]
    payload = {
        "schema": SCHEMA_VERSION,
        "kappa_observed": max((p.partition.kappa_observed for p in pipes), default=0),
        "max_contraction_degree": max(
            (len(a) for p in pipes for a in p.contracted.base.adj), default=0
        ),
        "class_count": sum(len(p.partition.classes) for p in pipes),
        "components": [
            {
                "component_size": sub.n,
                "weighted_width": pipe.weighted_width,
                "nice_nodes": pipe.nice.node_count(),
            }
            for sub, pipe in comps
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    report = bench_mod.run_sweep(
        n_values=_list_arg(args.n_list, int),
        densities=_list_arg(args.density_list, float),
        seeds=args.seeds,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".csv").write_text(bench_mod.report_to_csv(report))
    out.with_suffix(".json").write_text(bench_mod.report_to_json(report))
    print(f"rows={len(report.rows)}")
    print(out.with_suffix(".csv"))
    print(out.with_suffix(".json"))
    return 0


def _cmd_compare(args) -> int:
    g = _load_instance(args.input)
    size, _ = min_fvs_bruteforce(g)  # first: it refuses graphs of over 20 vertices
    results = {mode: solve(g, SolveConfig(k=args.k, mode=mode)).verdict
               for mode in MODES}
    results["oracle"] = "yes" if size <= args.k else "no"
    agree = len(set(results.values())) == 1
    payload = {"schema": SCHEMA_VERSION, "k": args.k, "verdicts": results, "agree": agree}
    print(json.dumps(payload, sort_keys=True))
    return 0 if agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskfvs",
        description="Feedback vertex set solving on fat-object intersection graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate instances (points + graph files)")
    p_gen.add_argument("--udg", action="store_true", help="random unit disk instance")
    p_gen.add_argument("--planted", action="store_true", help="planted yes-instance")
    p_gen.add_argument("-n", type=int, default=50, help="number of disks (udg)")
    p_gen.add_argument("--density", type=float, default=0.2, help="disks per unit area (udg)")
    p_gen.add_argument("-k", type=int, default=4, help="planted hub count")
    p_gen.add_argument("--path-len", type=int, default=40, help="planted path length")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="instance", help="output path prefix")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="decide FVS <= k via the DP pipeline")
    p_solve.add_argument("input", help="graph or points file")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--mode", choices=MODES, default=SolveConfig.mode)
    p_solve.add_argument("--state-budget", type=int, default=STATE_BUDGET,
                         help=f"cap on DP states examined (default {STATE_BUDGET:,})")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive reference solver")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--max-n", type=int, default=MAX_N, help="size budget")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="audit partition and decomposition")
    p_val.add_argument("input")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="random UDG sweep recording solve's stats")
    p_bench.add_argument("--n-list", default="60,100")
    p_bench.add_argument("--density-list", default="1.0,2.0")
    p_bench.add_argument("--seeds", type=int, default=3)
    p_bench.add_argument("--out", default="bench", help="output path prefix")
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="cross-check solver modes and oracle")
    p_cmp.add_argument("input")
    p_cmp.add_argument("--k", type=int, required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiskFvsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
