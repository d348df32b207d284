"""The instance list each workload solves for one seed.

Every instance is `random_udg(n, density, geometry_seed)` passed through
`build_intersection_graph`; the solver only ever sees the graph.

`udg-dense` and `udg-decide` draw from a committed pool of dense UDGs whose
solve cost is heavy-tailed (one instance in a hundred costs ten times the
median). Independent draws would make a 30-second run's throughput swing
by a quarter from seed to seed, so the pool is ranked by the DP work units
each instance needed at the commit that defined the benchmark:

- the `POOL_DROP_TOP` costliest instances (2% of the pool, 4-25 s each)
  are left out, since the one a seed happened to draw would decide its run;
- the next `POOL_FIXED_TOP` are in every list, so the peak memory comes
  from the same instances at every seed;
- from the rest a seed picks one instance per stratum of `POOL_STRATUM`
  neighbours in the ranking.

`udg-sparse` instances are large (n=20000) and made of over a thousand
small components, so their cost barely varies; each seed draws fresh
geometry for all of them. They share one density so that the median of a
run's dozen solves does not hinge on which density sits in the middle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
POOL_FILE = REFERENCE_DIR / "pool.json"
SPARSE_FILE = REFERENCE_DIR / "sparse.json"

DENSE_N = 100
DENSE_DENSITY = 1.0
POOL_SIZE = 400
POOL_DROP_TOP = 8
POOL_FIXED_TOP = 2
POOL_STRATUM = 5
# k for udg-decide: about half of the pool's minimum FVS sizes exceed it
DECIDE_FRACTION = 0.24

SPARSE_N = 20000
SPARSE_DENSITY = 0.375
SPARSE_COUNT = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # percentile reported as solve_s.tail: the highest one with at least ten
    # solves beyond it in a run of the committed length (never below p50)
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "udg-dense",
            "dense UDGs with k = n: the exact minimum FVS, DP-bound",
            87,
        ),
        Workload(
            "udg-decide",
            "the udg-dense instances with k = 0.24 n, about half 'no': the decision path",
            87,
        ),
        Workload(
            "udg-sparse",
            "n = 20000, density 0.375: over 1000 components, per-component overhead",
            50,
        ),
    )
}


@dataclass(frozen=True)
class Spec:
    """One instance: reference key, generator parameters and the k to ask."""

    key: str
    n: int
    density: float
    geometry_seed: int
    k: int


def load_pool() -> list[dict]:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def load_reference() -> dict[str, int]:
    """Minimum FVS size by instance key, for the pool and committed seeds."""
    ref = {f"pool/{e['geometry_seed']}": e["min_fvs"] for e in load_pool()}
    with open(SPARSE_FILE, encoding="utf-8") as fh:
        for seed, sizes in json.load(fh)["seeds"].items():
            for i, size in enumerate(sizes):
                ref[f"udg-sparse/{seed}/{i}"] = size
    return ref


def pool_spec(geometry_seed: int, k: int) -> Spec:
    return Spec(f"pool/{geometry_seed}", DENSE_N, DENSE_DENSITY, geometry_seed, k)


def sparse_specs(seed: int) -> list[Spec]:
    rng = random.Random(f"udg-sparse/{seed}")
    return [
        Spec(f"udg-sparse/{seed}/{i}", SPARSE_N, SPARSE_DENSITY, rng.randrange(2**31), SPARSE_N)
        for i in range(SPARSE_COUNT)
    ]


def dense_pick(seed: int, pool: list[dict]) -> list[int]:
    """Geometry seeds of one stratified draw from the pool, in solve order."""
    ranked = sorted(pool, key=lambda e: (e["work_units"], e["geometry_seed"]))
    ranked = [e["geometry_seed"] for e in ranked][:-POOL_DROP_TOP]
    cut = len(ranked) - POOL_FIXED_TOP
    rng = random.Random(f"udg-dense/{seed}")
    picks = [rng.choice(ranked[i:i + POOL_STRATUM]) for i in range(0, cut, POOL_STRATUM)]
    picks += ranked[cut:]
    rng.shuffle(picks)
    return picks


def instance_specs(workload: str, seed: int) -> list[Spec]:
    if workload == "udg-sparse":
        return sparse_specs(seed)
    k = DENSE_N if workload == "udg-dense" else int(DECIDE_FRACTION * DENSE_N)
    return [pool_spec(g, k) for g in dense_pick(seed, load_pool())]
