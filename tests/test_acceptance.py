"""Acceptance suite: one pass/fail line per criterion (run with -s to watch).

The instance corpus is fixed by seeds, so every number asserted here is
reproducible. Criterion 1 compares exact minima rather than looping the
decision procedure over every k separately: both the solver and the
reference compute a minimum and answer k-queries by thresholding, so
equal minima imply equal verdicts for every k in {0..n}; a sampled subset
of instances additionally exercises the public solve() surface at each k.
"""

from __future__ import annotations

import functools
import math
import random

from diskfvs import (
    SolveConfig,
    blowup,
    build_intersection_graph,
    component_pipelines,
    connected_components,
    contract,
    decompose_unweighted,
    from_edge_list,
    greedy_partition,
    induced_subgraph,
    is_forest,
    make_nice,
    min_fvs_bruteforce,
    peel_degree_one,
    planted_yes_instance,
    project,
    random_udg,
    solve,
    validate_decomposition,
)
from diskfvs.cli import main as cli_main
from diskfvs.fileio import parse_graph, parse_objects, serialize_graph, serialize_objects
from diskfvs.reduction import reduce_rows

from conftest import (
    all_partitions,
    block_masks,
    blocks_of,
    complete_graph,
    cycle_graph,
    exact_treewidth,
    heavy_cells,
    merge_blocks_acyclic,
    path_graph,
)

UDG_DENSITIES = (0.05, 0.2, 0.5)
UDG_SEEDS = 168  # 168 * 3 = 504 instances
RANDOM_GRAPHS = 200
# largest c with weighted width <= c * sqrt(k) over the planted sweep
CRITERION_4_WIDTH_COEFF = 5.0
# largest c1 with high-degree survivors <= c1 * k over the planted sweep
CRITERION_5_HIGHDEG_COEFF = 10.0


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")
        return wrapper
    return deco


_cache: dict = {}


def udg_corpus():
    if "udg" not in _cache:
        out = []
        for seed in range(UDG_SEEDS):
            for offset, dens in enumerate(UDG_DENSITIES):
                n = 6 + (seed * 3 + offset) % 13  # 6..18
                objs = random_udg(n, dens, seed * 31 + offset)
                out.append((objs, build_intersection_graph(objs)))
        _cache["udg"] = out
    return _cache["udg"]


def random_corpus():
    if "random" not in _cache:
        rng = random.Random(2024)
        out = []
        for i in range(RANDOM_GRAPHS):
            if i % 10 == 9:
                n, p = rng.randint(6, 10), 0.6  # a few dense small ones
            else:
                n = 8 + i % 9  # 8..16
                p = (0.12, 0.2, 0.3)[i % 3]
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            out.append(from_edge_list(n, edges))
        _cache["random"] = out
    return _cache["random"]


def solved_corpus():
    """(graph, oracle_min, naive_min, rank_min) for the whole corpus."""
    if "solved" not in _cache:
        rows = []
        graphs = [g for _, g in udg_corpus()] + list(random_corpus())
        for g in graphs:
            oracle_min, oracle_wit = min_fvs_bruteforce(g)
            naive_wit = solve(g, SolveConfig(k=g.n, mode="dp-naive")).fvs
            rank_wit = solve(g, SolveConfig(k=g.n, mode="dp-rank")).fvs
            rows.append((g, oracle_min, (len(naive_wit), naive_wit), (len(rank_wit), rank_wit)))
        _cache["solved"] = rows
    return _cache["solved"]


def planted_sweep():
    """(k, verdict, weighted width, high-degree count) per planted instance.

    The width is the largest over every peeled component's pipeline, also
    those solve settles without one.
    """
    if "sweep" not in _cache:
        rows = []
        for k in (4, 9, 16, 25, 36):
            for seed in range(20):
                g = build_intersection_graph(planted_yes_instance(k, 40, seed))
                sol = solve(g, SolveConfig(k=k))
                width = max((pipe.weighted_width for _, pipe in component_pipelines(g)), default=0)
                rows.append((k, sol.verdict, width, sol.stats["high_degree_count"]))
        _cache["sweep"] = rows
    return _cache["sweep"]


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


@criterion(1, "oracle equivalence, dp-naive and dp-rank, all k")
def test_criterion_1_oracle_equivalence():
    rows = solved_corpus()
    assert len([r for r in rows[: len(udg_corpus())]]) >= 500
    assert len(rows) - len(udg_corpus()) >= 200
    for idx, (g, oracle_min, (naive_min, naive_wit), (rank_min, rank_wit)) in enumerate(rows):
        assert oracle_min == naive_min == rank_min, (idx, oracle_min, naive_min, rank_min)
        for wit in (naive_wit, rank_wit):
            assert len(wit) == oracle_min
            keep = [v for v in range(g.n) if v not in set(wit)]
            sub, _, _ = induced_subgraph(g, keep)
            assert is_forest(sub)
        if idx % 25 == 0:  # public decision surface, every k
            for k in range(g.n + 1):
                expected = "yes" if oracle_min <= k else "no"
                for mode in ("dp-naive", "dp-rank"):
                    sol = solve(g, SolveConfig(k=k, mode=mode))
                    assert sol.verdict == expected
                    if expected == "yes":
                        assert sol.fvs is not None and len(sol.fvs) <= k


@criterion(2, "mode agreement on optimal sizes")
def test_criterion_2_mode_agreement():
    for g, _, (naive_min, _), (rank_min, _) in solved_corpus():
        assert naive_min == rank_min


@criterion(3, "structural validity of partitions and decompositions")
def test_criterion_3_structural_validity():
    for _, g in udg_corpus():
        gp = peel_degree_one(g).reduced
        if gp.n == 0:
            continue
        for comp in connected_components(gp):
            sub, _, _ = induced_subgraph(gp, comp)
            part = greedy_partition(sub)
            cg = contract(sub, part)
            for i, cls in enumerate(part.classes):
                size = len(cls)
                expected = 1 if size == 1 else math.ceil(math.log2(size)) + 1
                assert cg.weight[i] == expected
            bg = blowup(cg)
            td_b = decompose_unweighted(bg.graph)
            validate_decomposition(td_b, bg.graph)
            td = project(td_b, bg)
            validate_decomposition(td, cg.base)
            nd = make_nice(td)
            validate_decomposition(nd, cg.base)


@criterion(4, "weighted width scales at most like sqrt(k)")
def test_criterion_4_width_scaling():
    rows = planted_sweep()
    assert all(verdict == "yes" for _, verdict, _, _ in rows)
    # every planted instance keeps a cycle after peeling, so a zero width
    # would mean the sweep measured nothing
    assert all(width > 0 for _, _, width, _ in rows)
    slope = fit_loglog_slope([(k, width) for k, _, width, _ in rows])
    assert slope is not None and slope <= 0.7, slope
    c = max(width / math.sqrt(k) for k, _, width, _ in rows)
    assert c <= CRITERION_4_WIDTH_COEFF, c
    for k, _, width, _ in rows:
        assert width <= c * math.sqrt(k) + 1e-9


@criterion(5, "high-degree survivors bounded by c1 * k; heavy cells reject")
def test_criterion_5_high_degree_bound():
    rows = planted_sweep()
    c1 = max(high / k for k, _, _, high in rows)
    assert c1 <= CRITERION_5_HIGHDEG_COEFF, c1
    for k, _, _, high in rows:
        assert high <= c1 * k + 1e-9
    # dense desk-scale instances: more heavy cells than budget k forces "no"
    checked = 0
    for seed in range(40):
        n = 8 + seed % 11  # 8..18
        objs = random_udg(n, (1.5, 3.0)[seed % 2], seed + 9000)
        g = build_intersection_graph(objs)
        heavy = len(heavy_cells(objs))
        if heavy == 0:
            continue
        size, _ = min_fvs_bruteforce(g)
        for k in range(min(heavy, 4)):
            assert size > k
            checked += 1
    assert checked > 0


@criterion(6, "rank reduction is representative and small")
def test_criterion_6_rank_reduction():
    rng = random.Random(777)
    for trial in range(1000):
        s = rng.randint(1, 6)
        ground = tuple(range(s))
        parts = [block_masks(p) for p in all_partitions(ground)]
        chosen = rng.sample(parts, rng.randint(1, min(len(parts), 30)))
        # a row of value v is the forest of vertices 0..v-1
        rows = {p: (1 << rng.randint(0, 50)) - 1 for p in chosen}
        kept = reduce_rows(dict(rows), (1 << s) - 1)
        assert len(kept) <= 1 << max(s - 1, 0), (trial, s, len(kept))
        for q in all_partitions(ground):
            best_full = max(
                (f.bit_count() for p, f in rows.items()
                 if merge_blocks_acyclic(blocks_of(p), q, ground)),
                default=None,
            )
            best_kept = max(
                (f.bit_count() for p, f in kept.items()
                 if merge_blocks_acyclic(blocks_of(p), q, ground)),
                default=None,
            )
            assert best_full == best_kept, (trial, s, q)


@criterion(7, "heuristic width dominates exact treewidth")
def test_criterion_7_treewidth_sanity():
    for g in [g for _, g in udg_corpus()] + list(random_corpus()):
        if g.n == 0 or g.n > 12:
            continue
        assert decompose_unweighted(g).width >= exact_treewidth(g)
    for n in range(2, 13):
        assert decompose_unweighted(path_graph(n)).width == 1
    for n in range(3, 13):
        assert decompose_unweighted(cycle_graph(n)).width == 2
    for n in range(2, 10):
        assert decompose_unweighted(complete_graph(n)).width == n - 1


@criterion(8, "determinism and byte-identical round-trips")
def test_criterion_8_determinism(tmp_path):
    # generated files: same seed, same bytes
    for args in (
        ["gen", "--udg", "-n", "40", "--density", "0.2", "--seed", "5"],
        ["gen", "--planted", "-k", "4", "--path-len", "30", "--seed", "5"],
    ):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for suffix in (".points", ".graph"):
            assert (
                out_a.with_suffix(suffix).read_bytes()
                == out_b.with_suffix(suffix).read_bytes()
            )
    # bench CSV: byte-identical reruns
    bench_args = ["bench", "--n-list", "20,40", "--density-list", "1.0,2.0", "--seeds", "2"]
    assert cli_main(bench_args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(bench_args + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    # parse -> serialize round-trips
    objs = random_udg(30, 0.2, 17)
    g = build_intersection_graph(objs)
    gtext = serialize_graph(g)
    assert serialize_graph(parse_graph(gtext)) == gtext
    otext = serialize_objects(objs)
    assert serialize_objects(parse_objects(otext)) == otext
