"""End-to-end feedback vertex set decision and search.

Pipeline: peel degree <= 1 vertices, split into components, partition the
peeled graph into cliques, contract each component to its weighted class
graph, decompose via blowup and projection, then run the clique-constrained
connectivity DP over the nice decomposition. One greedy_partition of the
whole peeled graph gives the bounds and the completion, and a component
that reaches the search or the DP is partitioned on its own subgraph.
Right after partitioning, the classes q, disjoint cliques, give a proven
lower bound, sum(max(0, |q| - 2)) (partition.packing_bound),
split by component. When that exceeds k the answer is "no" with the
cliques as a certificate anyone can check.
partition.packing_completion, also run once, gives every component a
feedback vertex set from above. solve's docstring gives the rules by which
the two bounds and the clique-choice search settle a component before the
DP; dp_run's gives how they prune the DP.

DP state at a nice-decomposition node: the vertices kept in the bag's
classes (at most two per class: local_selections) as a bitmask over
the component's vertex ids, and the partition of those vertices into
connected pieces of the partial forest as the sorted tuple of its block
masks. Each state's row is its forest: the bitmask of every vertex the
partial forest keeps in the node's subtree, whose popcount, the row's
value, is maximized. The root row is the witness. Edges are committed
when the later of their two classes is introduced: the class's kept
subset, a vertex or an edge, is kept in one step by the cycle rule
(reduction.attach), which refuses it exactly when two edges join it to
one block. At join nodes both branches have committed
the edges induced inside the kept set, so the union of the two partitions
stays acyclic exactly when it merges |kept| - shared_edges pairs of blocks.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from .decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceDecomposition,
    blowup,
    decompose_unweighted,
    make_nice,
    project,
    validate_decomposition,
    weighted_width,
)
from .errors import InternalError, ResourceError, ValidationError
from .graph import (
    Graph,
    connected_components,
    count_high_degree,
    induced_subgraph,
    is_forest,
    peel_degree_one,
)
# perfbench/tracer.py wraps solver.min_fvs_bruteforce, so the name stays
from .oracle import min_fvs_bruteforce  # noqa: F401
from .partition import (
    KEEP_PER_CLIQUE,
    ContractedGraph,
    KappaPartition,
    conflict_pairs,
    contract,
    greedy_partition,
    local_selections,
    packing_bound,
    packing_cliques,
    packing_completion,
    packing_search,
)
from .reduction import Kept, Partition, RepresentativeTable, attach, bits_of, rank_reduce

MODES = ("dp-naive", "dp-rank")

# solve raises ResourceError before the DP on a component whose weighted
# width exceeds the cap: the state count grows exponentially in the width,
# so such a DP would only spend its state budget before raising anyway
WIDTH_SAFETY_CAP = 64
STATE_BUDGET = 50_000_000


@dataclass(frozen=True)
class SolveConfig:
    """Decide FVS <= k in the given mode.

    state_budget caps the candidate DP states examined per component.
    """

    k: int
    mode: str = "dp-rank"
    state_budget: int = STATE_BUDGET

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.state_budget <= 0:
            raise ValidationError(f"state_budget must be > 0, got {self.state_budget}")


@dataclass(frozen=True)
class Solution:
    verdict: str
    fvs: tuple[int, ...] | None
    certificate: str
    stats: dict[str, Any] = field(default_factory=dict, compare=False)


# kept mask -> partition (sorted block masks) -> forest, the mask of the
# vertices kept in the node's subtree
_Table = dict[Kept, dict[Partition, int]]


def dp_run(
    nd: NiceDecomposition,
    g: Graph,
    p: KappaPartition,
    mode: str,
    max_deletions: int,
    state_budget: int = STATE_BUDGET,
    stats: dict[str, Any] | None = None,
) -> tuple[int | None, list[_Table]]:
    """A maximum induced forest over the nice decomposition.

    Returns the root row and the per-node tables. Tables are keyed by kept
    mask, the bits of the kept vertices' ids, then by partition, the sorted
    tuple of its block masks. A row is its forest, the mask of the vertices
    kept in the node's subtree, and its value is the forest's popcount. A
    join's branches share only the bag's kept vertices (the subtree property
    keeps every other class on one side), so the union of its two forests
    has their values' sum less the kept count. The root row is a maximum
    induced forest.
    The state count is exponential in the weighted width; state_budget
    caps the number of candidate states examined and raises ResourceError
    beyond it rather than grinding on an infeasible instance.

    max_deletions is the most vertices the caller can still accept deleting
    in this component: solve passes the smaller of the component's share of
    k and one less than a known feedback vertex set. With slack =
    max_deletions - packing_bound(p), a row at node t is dropped before its
    block work when its value is below floor(t) = cap(t) - slack + owed(t),
    a function of the set of classes in t's subtree alone. cap(t) sums
    min(2, |q|) over those classes q, and owed(t) counts the
    conflict_pairs with neither class among them. The proof: the subtree's
    classes hold cap(t) vertices plus their share of the bound,
    so a row of value v has deleted cap(t) - v vertices beyond that share.
    Every class outside the subtree still deletes its own
    max(0, |q| - 2). A forest that kept min(2, |q|) vertices of both
    classes of a pair would contain a cycle, so every forest falls at
    least one vertex short on each pair, and the pairs are disjoint, so
    the classes outside delete at least owed(t) vertices beyond their
    share. Every set the row leads to thus has at least cap(t) - v +
    packing_bound(p) + owed(t) vertices, more than max_deletions exactly
    when v < floor(t). The rows of an optimal set never break the floor,
    and a stored row is never worse than the one it stands for (rank
    reduction included), so the root row is a maximum whenever the
    minimum is at most max_deletions; otherwise the root table is empty
    and the root row is returned as None (a root row of 0 keeps no vertex
    but is a result). owed(t) is at most the cap of the classes outside
    t's subtree, and cap(t) plus that cap is g.n - packing_bound(p), so
    max_deletions = g.n drops no row.
    If stats is given, stats["pruned_rows"] grows by the candidate rows
    the floor dropped.
    """
    if mode not in MODES:
        raise ValidationError(f"dp_run mode must be dp-naive or dp-rank, got {mode!r}")
    selections = [local_selections(cls, (cls,)) for cls in p.classes]
    keep_cap = [max(map(len, sels)) for sels in selections]  # the most a class keeps
    slack = max_deletions - packing_bound(p)
    pair_masks = [1 << i | 1 << j for i, j in conflict_pairs(g, p)]
    pruned = 0
    work = 0  # candidate states examined, charged before each batch's work

    # masks made once: each vertex's neighbours and each class's vertices
    # (sums of distinct bits are their unions), and per local selection its
    # size, its mask and its vertices' neighbours, as attach takes them
    nbr_mask = [sum(1 << u for u in a) for a in g.adj]
    class_mask = [sum(1 << v for v in cls) for cls in p.classes]
    moves = [
        [
            (len(sel), sum(1 << v for v in sel), *([nbr_mask[v] for v in sel] + [0, 0])[:2])
            for sel in sels
        ]
        for sels in selections
    ]
    n_nodes = nd.node_count()
    tables: list[_Table] = [{} for _ in range(n_nodes)]
    subtree = [0] * n_nodes  # the classes introduced below each node, as a mask

    def floor_of(inside: int) -> int:
        """floor(t) at a node t whose subtree holds the classes inside."""
        outside_pairs = sum(1 for m in pair_masks if not m & inside)
        return sum(keep_cap[c] for c in bits_of(inside)) - slack + outside_pairs

    # A candidate row replaces a stored one only with a larger popcount, so
    # the first of equal rows stays. Each loop looks its output group up once
    # and adds it to the table with its first row, keeping the table's
    # groups in the order their first rows were found.
    for node in range(n_nodes - 1, -1, -1):
        kind = nd.kind[node]
        table: _Table = {}
        if kind == LEAF:
            table[0] = {(): 0}
        elif kind == INTRODUCE:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            subtree[node] = subtree[child] | 1 << v_cl
            floor = floor_of(subtree[node])
            for kept_c, group in tables[child].items():
                size = len(group)
                best_c = max(map(int.bit_count, group.values()))
                for gain, sel_mask, nbrs_a, nbrs_b in moves[v_cl]:
                    work += size
                    if work > state_budget:
                        raise _budget_error(work, state_budget)
                    need = floor - gain  # the least child value that survives
                    if best_c < need:
                        pruned += size
                        continue
                    kept_n = kept_c | sel_mask
                    out = table.get(kept_n)
                    for part_c, forest in group.items():
                        if forest.bit_count() < need:
                            pruned += 1
                            continue
                        # attach commits the edges the new class is
                        # responsible for: those to kept_c, which the blocks
                        # cover, and a kept pair's own edge
                        part_n = part_c
                        if sel_mask:
                            blocks = attach(part_c, sel_mask, nbrs_a, nbrs_b)
                            if blocks is None:
                                continue
                            part_n = tuple(sorted(blocks))
                        if out is None:
                            out = table[kept_n] = {}
                        forest_n = forest | sel_mask
                        old = out.get(part_n)
                        if old is None or forest_n.bit_count() > old.bit_count():
                            out[part_n] = forest_n
        elif kind == FORGET:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            subtree[node] = subtree[child]
            keep = ~class_mask[v_cl]
            for kept_c, group in tables[child].items():
                work += len(group)
                if work > state_budget:
                    raise _budget_error(work, state_budget)
                kept_n = kept_c & keep
                out = table.get(kept_n)
                if out is None:
                    out = table[kept_n] = {}
                for part_c, forest in group.items():
                    masked = {b & keep for b in part_c}  # disjoint: only 0 repeats
                    masked.discard(0)
                    part_n = tuple(sorted(masked))
                    old = out.get(part_n)
                    if old is None or forest.bit_count() > old.bit_count():
                        out[part_n] = forest
        elif kind == JOIN:
            left, right = nd.children[node]
            subtree[node] = subtree[left] | subtree[right]
            floor = floor_of(subtree[node])
            rt = tables[right]
            for kept, lgroup in tables[left].items():
                rgroup = rt.get(kept)
                if rgroup is None:
                    continue
                s = kept.bit_count()
                # both branches committed the edges among the kept vertices,
                # so an acyclic union merges s - shared pairs of blocks
                merges = s - sum((nbr_mask[v] & kept).bit_count() for v in bits_of(kept)) // 2
                work += len(lgroup) * len(rgroup)
                if work > state_budget:
                    raise _budget_error(work, state_budget)
                best_r = max(map(int.bit_count, rgroup.values()))
                out = None
                for part_l, forest_l in lgroup.items():
                    need = floor + s - forest_l.bit_count()  # the least right value that survives
                    if best_r < need:
                        pruned += len(rgroup)
                        continue
                    for part_r, forest_r in rgroup.items():
                        if forest_r.bit_count() < need:
                            pruned += 1
                            continue
                        # each right block merges the blocks it meets
                        blocks = list(part_l)
                        done = 0
                        for rb in part_r:
                            touched = [b for b in blocks if b & rb]
                            done += len(touched)
                            if len(touched) > 1:
                                blocks = [b for b in blocks if not b & rb]
                                blocks.append(sum(touched))
                        if done != merges:
                            continue
                        blocks.sort()
                        part_n = tuple(blocks)
                        if out is None:
                            out = table[kept] = {}
                        forest = forest_l | forest_r
                        old = out.get(part_n)
                        if old is None or forest.bit_count() > old.bit_count():
                            out[part_n] = forest
        else:
            raise InternalError(f"unknown nice node kind {kind!r}")

        if mode == "dp-rank":
            reduced = rank_reduce(RepresentativeTable(rows=table))
            table = reduced.rows
        tables[node] = table
        if not table:  # only the floor empties a table; every ancestor's is empty too
            break

    if stats is not None:
        stats["pruned_rows"] = stats.get("pruned_rows", 0) + pruned
    return tables[0].get(0, {}).get(()), tables


def _budget_error(work: int, state_budget: int) -> ResourceError:
    """The error dp_run raises once the work charged exceeds state_budget."""
    return ResourceError(
        f"DP state budget exceeded ({work} > {state_budget}); "
        "the instance's weighted width makes the table infeasible"
    )


def reconstruct(forest: int, g: Graph) -> frozenset[int]:
    """The vertices outside forest, the root row dp_run returns or the
    kept mask of a set packing_search found at the packing bound: a minimum
    deletion set. The set is checked to leave a forest in g."""
    deleted = frozenset(range(g.n)).difference(bits_of(forest))
    if not is_forest(g, deleted):
        raise InternalError("reconstructed kept set does not induce a forest")
    return deleted


@dataclass(frozen=True)
class Pipeline:
    """One component's stage artifacts, ready for the DP: the checked
    partition, its contraction and the contraction's nice decomposition."""

    partition: KappaPartition
    contracted: ContractedGraph
    nice: NiceDecomposition
    weighted_width: int


def build_pipeline(gc: Graph, part: KappaPartition) -> Pipeline:
    """Contract and decompose one component, partitioned by part, for the DP.

    contract() raises ValidationError on a breach of the kappa-partition
    contract. The weighted decomposition of the contraction comes from
    blowing each class up into a clique, decomposing the blown graph and
    projecting the bags back. Only the nice form, which the DP consumes, is
    validated: its bags are the projected bags and subsets of them, so it
    is valid exactly when the projection is. A violation is a bug;
    validate_decomposition raises ValidationError on it.
    """
    cg = contract(gc, part)
    bg = blowup(cg)
    td = project(decompose_unweighted(bg.graph), bg)
    w = weighted_width(td, cg)
    nd = make_nice(td)
    validate_decomposition(nd, cg.base)
    return Pipeline(partition=part, contracted=cg, nice=nd, weighted_width=w)


def component_pipelines(g: Graph) -> list[tuple[Graph, Pipeline]]:
    """Peel g and build the pipeline of each component left.

    Returns (subgraph, pipeline) pairs in connected_components order, for
    validate, which reports from them and checks nothing again: building a
    pipeline checked its partition and its decomposition. Each component is
    partitioned on its own subgraph, as in solve. Every component is
    decomposed, also those whose packing completion or search lets solve
    skip the decomposition, so validate covers every decomposition the DP
    could face on the instance.
    """
    peeled = peel_degree_one(g).reduced
    pipes = []
    for comp in connected_components(peeled):
        sub = induced_subgraph(peeled, comp)[0]
        pipes.append((sub, build_pipeline(sub, greedy_partition(sub))))
    return pipes


def solve(g: Graph, cfg: SolveConfig) -> Solution:
    """Decide whether g has a feedback vertex set of size <= cfg.k.

    Exact for every input graph. Every mode runs the same pipeline and
    fills the same stats keys. A "no" comes from an exact per-component
    computation, the DP or the clique-choice search, or from the
    clique-packing bound, whose cliques (original vertex ids) are checked
    against g and returned in stats["cliques"] (empty otherwise). A
    returned "yes" always carries a witness re-verified against the
    original graph by one is_forest pass, timed as
    stats["timings"]["verify"]. Its certificate is "dp", also when
    packing_completion or the search solved every component. A component
    whose weighted width exceeds WIDTH_SAFETY_CAP, or whose DP exceeds
    cfg.state_budget, raises ResourceError, whatever its size.

    The whole peeled graph's partition gives the bounds and, unless they
    already exceed k, one packing_completion, both split by component; a
    component that reaches the search or the DP is partitioned on its own
    subgraph.

    Components are solved smallest first, each with a budget: the
    deletions left once the solved components' minima and the other
    components' bounds are taken from k. The component's share of the
    greedy set, ub vertices, is taken without a decomposition or a DP when
    ub <= max(bound, 1) and ub <= budget (stats["bound_solved"] counts
    these components). Otherwise the component looks for a set of at most
    limit = min(budget, ub - 1) vertices: smaller than the greedy set and
    within the budget. When limit - bound <= 1, partition.packing_search
    looks first. If it proves that no such set exists, the greedy set is a
    minimum when ub <= budget, and the component is refuted otherwise. If
    it finds a set of exactly the component's packing bound, that set is a
    minimum. Either way no decomposition is built (stats["search_proven"]
    counts these components, and stats["timings"]["search"] sums the
    search's seconds). The search is exhaustive below SEARCH_NODE_CAP
    nodes; when it finds a larger set or gives up, the DP runs with
    max_deletions = limit and drops the rows that cannot stay within it
    (see dp_run). When its root comes back empty, the greedy set is a
    minimum if ub <= budget, and the component is refuted otherwise.
    stats["greedy_optimal"] counts the components whose greedy set the
    search or the DP proved minimal. The solve stops with "no" as soon as
    the solved minima plus the bounds still to come exceed k, so
    stats["min_fvs"] is set only when every component's minimum was
    computed, and stats["weighted_width"] covers only the components whose
    pipeline was built (0 when none was). stats["pruned_rows"] counts the
    candidate DP rows the floor dropped.
    """
    t0 = time.perf_counter()
    timings: dict[str, float] = {"search": 0.0}
    stats: dict[str, Any] = {"cliques": []}

    peel = peel_degree_one(g)
    gp = peel.reduced
    stats["high_degree_count"] = count_high_degree(gp)
    timings["peel"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    comps = connected_components(gp)
    comp_of = [0] * gp.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    part = greedy_partition(gp) if comps else KappaPartition(classes=())
    cliques = packing_cliques(part)
    bounds = [0] * len(comps)
    for q in cliques:
        bounds[comp_of[q[0]]] += len(q) - KEEP_PER_CLIQUE
    stats["class_count"] = len(part.classes)
    stats["weighted_width"] = 0
    stats["pruned_rows"] = 0
    stats["bound_solved"] = 0
    stats["greedy_optimal"] = 0
    stats["search_proven"] = 0

    rest = stats["lower_bound"] = sum(bounds)
    greedy_of: list[list[int]] = [[] for _ in comps]
    if rest > cfg.k:  # the loop below then never runs
        # in component order, each component's in class order
        cliques.sort(key=lambda q: comp_of[q[0]])
        cliques = [tuple(peel.kept[v] for v in q) for q in cliques]
        for c in cliques:
            if not all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2)):
                raise InternalError(f"clique-packing certificate: {c} is not a clique")
        stats["cliques"] = cliques
    else:
        for v in packing_completion(gp, part):
            greedy_of[comp_of[v]].append(v)

    # popped from the end, smallest first: their exact minima tighten the
    # budget of the larger, costlier DPs that follow
    order = sorted(range(len(comps)), key=lambda i: len(comps[i]), reverse=True)
    deleted_reduced: set[int] = set()
    refuted = False
    # stop once the minima so far plus the bounds still to come exceed k
    while order and len(deleted_reduced) + rest <= cfg.k:
        i = order.pop()
        bound = bounds[i]
        rest -= bound
        budget = cfg.k - len(deleted_reduced) - rest
        greedy = greedy_of[i]
        ub = len(greedy)
        if ub <= budget and ub <= max(bound, 1):  # a peeled component holds a cycle
            deleted_reduced.update(greedy)
            stats["bound_solved"] += 1
            continue
        sub, old_of_new, _ = induced_subgraph(gp, comps[i])
        # the same degree order as in gp, so part's classes here: bound is its bound
        sub_part = greedy_partition(sub)
        # the loop condition gives budget >= bound, and ub - 1 >= bound here
        # unless bound = budget = 0, so limit >= 0
        limit = min(budget, ub - 1)
        # a slack of at most 1 is settled more cheaply by a clique-choice
        # search than by a DP
        kept = -1  # as when the search gives up: the DP decides
        if limit - bound <= 1:
            t_search = time.perf_counter()
            kept = packing_search(sub, sub_part, limit - bound)
            timings["search"] += time.perf_counter() - t_search
        if kept is None or kept >= 0 and sub.n - kept.bit_count() == bound:
            root = kept  # refuted, or a set at the bound: a minimum
            stats["search_proven"] += 1
        else:
            pipe = build_pipeline(sub, sub_part)
            stats["weighted_width"] = max(stats["weighted_width"], pipe.weighted_width)
            if pipe.weighted_width > WIDTH_SAFETY_CAP:
                raise ResourceError(
                    f"weighted width {pipe.weighted_width} exceeds safety cap "
                    f"{WIDTH_SAFETY_CAP} on a component of {sub.n} vertices"
                )
            root, _ = dp_run(pipe.nice, sub, sub_part, cfg.mode, limit, cfg.state_budget, stats)
        if root is not None:
            deleted_reduced.update(old_of_new[v] for v in reconstruct(root, sub))
        elif ub > budget:
            refuted = True
            break
        else:
            deleted_reduced.update(greedy)  # no smaller set exists
            stats["greedy_optimal"] += 1
    timings["pipeline"] = time.perf_counter() - t1

    fvs = None
    if not (refuted or order):
        deleted_original = sorted(peel.kept[v] for v in deleted_reduced)
        stats["min_fvs"] = len(deleted_original)
        if len(deleted_original) <= cfg.k:
            fvs = tuple(deleted_original)
            t2 = time.perf_counter()
            if not is_forest(g, fvs):
                raise InternalError("final verification failed: deletion leaves a cycle")
            timings["verify"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0
    stats["timings"] = timings
    certificate = "clique-packing" if stats["cliques"] else "dp"
    return Solution(
        verdict="no" if fvs is None else "yes", fvs=fvs, certificate=certificate, stats=stats
    )

