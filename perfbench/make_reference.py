"""Build the committed reference tables under perfbench/reference/.

    python3 perfbench/make_reference.py pool            # udg-dense / udg-decide pool
    python3 perfbench/make_reference.py sparse 0 19     # udg-sparse, seeds 0..19

Each instance's minimum FVS is computed with mode="dp-naive" and
cross-checked against mode="dp-rank"; a disagreement aborts the build. The
pool entry also records the DP work units of the dp-rank solve, which
`workloads.dense_pick` stratifies on. Run from the root of a checkout.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def min_fvs_both_modes(g, tracer=None) -> int:
    import diskfvs.solver as solver
    from checker import check

    sizes = []
    for mode in ("dp-naive", "dp-rank"):
        traced = tracer is not None and mode == "dp-rank"
        if traced:
            tracer.install()
        try:
            sol = solver.solve(g, solver.SolveConfig(k=g.n, mode=mode))
        finally:
            if traced:
                tracer.uninstall()
        why, _ = check(g, g.n, sol, None)
        if why is not None:
            raise SystemExit(f"{mode}: {why}")
        sizes.append(len(sol.fvs))
    if sizes[0] != sizes[1]:
        raise SystemExit(f"dp-naive min FVS {sizes[0]} != dp-rank {sizes[1]}")
    return sizes[0]


def build_pool() -> None:
    from tracer import Tracer

    entries = []
    for gs in range(workloads.POOL_SIZE):
        spec = workloads.pool_spec(gs, workloads.DENSE_N)
        (g,), _, _ = run.build_graphs([spec])
        tracer = Tracer()
        t0 = time.perf_counter()
        size = min_fvs_both_modes(g, tracer)
        work = int(tracer.counts["solver.work_units"])
        entries.append({"geometry_seed": gs, "min_fvs": size, "work_units": work})
        print(f"pool {gs}: min_fvs {size} work {work} ({time.perf_counter() - t0:.2f} s)",
              file=sys.stderr, flush=True)
    payload = {
        "n": workloads.DENSE_N,
        "density": workloads.DENSE_DENSITY,
        "instances": entries,
    }
    write(workloads.POOL_FILE, payload)


def build_sparse(first: int, last: int) -> None:
    seeds = {}
    for seed in range(first, last + 1):
        specs = workloads.sparse_specs(seed)
        graphs, _, _ = run.build_graphs(specs)
        seeds[str(seed)] = [min_fvs_both_modes(g) for g in graphs]
        print(f"sparse seed {seed}: {seeds[str(seed)]}", file=sys.stderr, flush=True)
    write(workloads.SPARSE_FILE, {"n": workloads.SPARSE_N, "seeds": seeds})


def write(path, payload) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv) -> None:
    run.use_checkout_src()
    if argv[:1] == ["pool"]:
        build_pool()
    elif argv[:1] == ["sparse"] and len(argv) == 3:
        build_sparse(int(argv[1]), int(argv[2]))
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
