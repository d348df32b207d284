"""End-to-end feedback vertex set decision and search.

Pipeline: peel degree <= 1 vertices, split into components, partition each
component into cliques, contract to the weighted class graph, decompose via
blowup and projection, then run the clique-constrained connectivity DP over
the nice decomposition. Right after partitioning, the disjoint cover
cliques q of the classes give a proven lower bound, sum(max(0, |q| - 2))
(partition.packing_bound). When that exceeds k the answer is "no" with the
cliques as a certificate anyone can check. partition.packing_completion
gives every component a feedback vertex set from above: it deletes all but
the two lowest-degree vertices of each clique of more than two vertices,
then breaks the cycles left greedily, then puts back every deleted vertex
that closes no cycle, so no vertex of the set is redundant. When that set
has ub <= max(LB, 1) vertices, LB the component's bound, it is a minimum
(a peeled component holds a cycle), and when it also fits the component's
share of k the component needs no decomposition and no DP.

The two bounds prune every DP. A component C has budget = k - done - rest,
where done sums the exact minima of the components already solved and rest
the bounds of those still to come, and is solved with max_deletions =
min(budget, ub - 1): the DP looks only for a set smaller than the greedy
one, with slack = max_deletions - LB_C. A row at node t has deleted
proc(t) - value of the proc(t) vertices in its subtree's classes, and
lbsub(t) of the bound belongs to those classes' cover cliques, so a row
with value < proc(t) - lbsub(t) - slack cannot lead to a set of at most
max_deletions vertices and is dropped (see dp_run). An optimal set never
breaks that floor at any node, so a surviving root row is exact. An empty
root proves C's minimum exceeds max_deletions: the greedy set is then a
minimum when ub <= budget, and otherwise C's minimum exceeds its share of
k.

DP state at a nice-decomposition node: the vertices kept in the bag's
classes (at most two per cover clique: local_selections) as a bitmask over
the component's vertex ids, the partition of those vertices into connected
pieces of the partial forest as the sorted tuple of its block masks, and
the total number of vertices kept so far (maximized). Edges are committed
when the later of their two classes is introduced: each new vertex closes
a cycle when two of its kept neighbours share a block, and otherwise
merges the blocks it touches. At join nodes both branches have committed
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
    ContractedGraph,
    KappaPartition,
    contract,
    greedy_partition,
    local_selections,
    packing_bound,
    packing_cliques,
    packing_completion,
)
from .reduction import Kept, Partition, RepresentativeTable, bits_of, rank_reduce

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


# (value, backref); the backref is the child row's (kept, partition) at
# introduce and forget nodes, (left, right) partitions at joins, None at leaves
_Row = tuple[int, Any]
# kept mask -> partition (sorted block masks) -> row
_Table = dict[Kept, dict[Partition, _Row]]


def dp_run(
    nd: NiceDecomposition,
    g: Graph,
    p: KappaPartition,
    mode: str,
    max_deletions: int,
    state_budget: int = STATE_BUDGET,
    stats: dict[str, Any] | None = None,
) -> tuple[int | None, list[_Table]]:
    """Maximum induced forest size over the nice decomposition.

    Returns the optimum and the per-node tables (with backrefs) for
    reconstruction. Tables are keyed by kept mask, the bits of the kept
    vertices' ids, then by partition, the sorted tuple of its block masks.
    The state count is exponential in the weighted width; state_budget
    caps the number of candidate states examined and raises ResourceError
    beyond it rather than grinding on an infeasible instance.

    max_deletions is the most vertices the caller can still accept deleting
    in this component: solve passes the smaller of the component's share of
    k and one less than a known feedback vertex set. With slack =
    max_deletions - packing_bound(p), a row at node t with value < cap(t) -
    slack is dropped before its block work. cap(t) sums min(2, |q|) over
    the cover cliques q of the classes in t's subtree: the most a row at t
    can keep, and their size less their share of the bound. Such a row
    has deleted cap(t) - value vertices beyond that share, and every cover
    clique still to come needs its own max(0, |q| - 2), so it cannot end
    within max_deletions. The rows of an optimal set never break the
    floor, and a stored row is never worse than the one it stands for
    (rank reduction included), so the root value is exact whenever the
    minimum is at most max_deletions; otherwise the root table is empty
    and the optimum is returned as None. cap(t) <= g.n - packing_bound(p),
    so max_deletions = g.n drops no row.
    If stats is given, stats["pruned_rows"] grows by the candidate rows
    the floor dropped.
    """
    if mode not in MODES:
        raise ValidationError(f"dp_run mode must be dp-naive or dp-rank, got {mode!r}")
    selections = [local_selections(cls, cov) for cls, cov in zip(p.classes, p.clique_cover)]
    keep_cap = [max(map(len, sels)) for sels in selections]  # the most a class keeps
    slack = max_deletions - packing_bound(p)
    pruned = 0
    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > state_budget:
            raise ResourceError(
                f"DP state budget exceeded ({work} > {state_budget}); "
                "the instance's weighted width makes the table infeasible"
            )

    # masks made once: each vertex's neighbours, each class's vertices and
    # each local selection's (sums of distinct bits are their unions)
    nbr_mask = [sum(1 << u for u in a) for a in g.adj]
    class_mask = [sum(1 << v for v in cls) for cls in p.classes]
    sel_masks = [[sum(1 << v for v in sel) for sel in sels] for sels in selections]
    n_nodes = nd.node_count()
    tables: list[_Table] = [{} for _ in range(n_nodes)]
    cap = [0] * n_nodes

    # A candidate row replaces a stored one only with a larger value, so the
    # first of equal rows stays. Each loop looks its output group up once
    # and adds it to the table with its first row, keeping the table's
    # groups in the order their first rows were found.
    for node in range(n_nodes - 1, -1, -1):
        kind = nd.kind[node]
        table: _Table = {}
        if kind == LEAF:
            table[0] = {(): (0, None)}
        elif kind == INTRODUCE:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            cap[node] = cap[child] + keep_cap[v_cl]
            floor = cap[node] - slack
            for kept_c, group in tables[child].items():
                # no row is dropped while floor <= 0, so skip the scan then
                best_c = max(row[0] for row in group.values()) if floor > 0 else 0
                for sel, sel_mask in zip(selections[v_cl], sel_masks[v_cl]):
                    charge(len(group))
                    gain = len(sel)
                    need = floor - gain  # the least child value that survives
                    if best_c < need:
                        pruned += len(group)
                        continue
                    kept_n = kept_c | sel_mask
                    out = table.get(kept_n)
                    # each new vertex with its neighbours kept before it (the
                    # edges the new class is responsible for) and their number
                    steps = []
                    seen = kept_c
                    for x in sel:
                        nbrs = nbr_mask[x] & seen
                        steps.append((1 << x, nbrs, nbrs.bit_count()))
                        seen |= 1 << x
                    for part_c, (value, _) in group.items():
                        if value < need:
                            pruned += 1
                            continue
                        blocks = list(part_c)
                        for bit, nbrs, count in steps:
                            if not count:
                                blocks.append(bit)
                                continue
                            # the neighbours lie in distinct blocks, or the
                            # vertex closes a cycle
                            touched = [b for b in blocks if b & nbrs]
                            if len(touched) != count:
                                break
                            blocks = [b for b in blocks if not b & nbrs]
                            blocks.append(bit + sum(touched))  # disjoint: sum is union
                        else:
                            blocks.sort()
                            part_n = tuple(blocks)
                            if out is None:
                                out = table[kept_n] = {}
                            old = out.get(part_n)
                            if old is None or value + gain > old[0]:
                                out[part_n] = (value + gain, (kept_c, part_c))
        elif kind == FORGET:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            cap[node] = cap[child]  # the row values do not change either
            keep = ~class_mask[v_cl]
            for kept_c, group in tables[child].items():
                charge(len(group))
                kept_n = kept_c & keep
                out = table.get(kept_n)
                if out is None:
                    out = table[kept_n] = {}
                for part_c, (value, _) in group.items():
                    if kept_n == kept_c:  # the class kept nothing
                        part_n = part_c
                    else:
                        masked = {b & keep for b in part_c}  # disjoint: only 0 repeats
                        masked.discard(0)
                        part_n = tuple(sorted(masked))
                    old = out.get(part_n)
                    if old is None or value > old[0]:
                        out[part_n] = (value, (kept_c, part_c))
        elif kind == JOIN:
            left, right = nd.children[node]
            # the bag's classes are in both subtrees
            cap[node] = cap[left] + cap[right] - sum(keep_cap[c] for c in nd.bags[node])
            floor = cap[node] - slack
            rt = tables[right]
            for kept, lgroup in tables[left].items():
                rgroup = rt.get(kept)
                if rgroup is None:
                    continue
                s = kept.bit_count()
                # both branches committed the edges among the kept vertices,
                # so an acyclic union merges s - shared pairs of blocks
                merges = s - sum((nbr_mask[v] & kept).bit_count() for v in bits_of(kept)) // 2
                charge(len(lgroup) * len(rgroup))
                best_r = max(row[0] for row in rgroup.values()) if floor > 0 else 0
                out = None
                for part_l, (val_l, _) in lgroup.items():
                    # val_l >= s, so need <= 0 while floor <= 0
                    need = floor + s - val_l  # the least right value that survives
                    if best_r < need:
                        pruned += len(rgroup)
                        continue
                    for part_r, (val_r, _) in rgroup.items():
                        if val_r < need:
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
                        old = out.get(part_n)
                        value = val_l + val_r - s
                        if old is None or value > old[0]:
                            out[part_n] = (value, (part_l, part_r))
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
    root = tables[nd.root].get(0, {}).get(())
    return (None if root is None else root[0]), tables


def reconstruct(
    tables: list[_Table], nd: NiceDecomposition, g: Graph, p: KappaPartition
) -> frozenset[int]:
    """Trace backrefs from the root optimum to a verified deletion set."""
    chosen: dict[int, int] = {}  # class -> mask of its kept vertices
    stack: list[tuple[int, Kept, Partition]] = [(nd.root, 0, ())]
    while stack:
        node, kept, part = stack.pop()
        back = tables[node][kept][part][1]
        kind = nd.kind[node]
        if kind == INTRODUCE:
            v_cl = nd.vtx[node]
            sel = kept & sum(1 << v for v in p.classes[v_cl])
            if chosen.setdefault(v_cl, sel) != sel:
                raise InternalError(f"inconsistent selection for class {v_cl}")
            stack.append((nd.children[node][0], *back))
        elif kind == FORGET:
            stack.append((nd.children[node][0], *back))
        elif kind == JOIN:
            part_l, part_r = back
            left, right = nd.children[node]
            stack.append((left, kept, part_l))
            stack.append((right, kept, part_r))
    survivors = set(bits_of(sum(chosen.values())))  # the classes are disjoint
    deleted = frozenset(range(g.n)) - survivors
    if not is_forest(g, deleted):
        raise InternalError("reconstructed kept set does not induce a forest")
    best_value = tables[nd.root][0][()][0]
    if len(deleted) != g.n - best_value:
        raise InternalError(
            f"reconstructed deletion size {len(deleted)} != {g.n - best_value}"
        )
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
    validate_decomposition(nd.to_tree_decomposition(), cg.base)
    return Pipeline(partition=part, contracted=cg, nice=nd, weighted_width=w)


def component_pipelines(g: Graph) -> list[tuple[Graph, Pipeline]]:
    """Peel g and build the pipeline of each component left.

    Returns (subgraph, pipeline) pairs in connected_components order, for
    validate, which reports from them and checks nothing again: building a
    pipeline checked its partition and its decomposition. Every component
    is decomposed, also those whose packing completion lets solve skip the
    decomposition, so validate covers every decomposition the DP could
    face on the instance.
    """
    peeled = peel_degree_one(g).reduced
    subs = (induced_subgraph(peeled, comp)[0] for comp in connected_components(peeled))
    return [(sub, build_pipeline(sub, greedy_partition(sub))) for sub in subs]


def solve(g: Graph, cfg: SolveConfig) -> Solution:
    """Decide whether g has a feedback vertex set of size <= cfg.k.

    Exact for every input graph. Every mode runs the same pipeline and
    fills the same stats keys. A "no" comes from the DP or the
    clique-packing bound, whose cliques (original vertex ids) are checked
    against g and returned in stats["cliques"] (empty otherwise). A
    returned "yes" always carries a witness re-verified against the
    original graph by one is_forest pass, timed as
    stats["timings"]["verify"]. Its certificate is "dp", also when
    packing_completion solved every component. A component whose weighted
    width exceeds WIDTH_SAFETY_CAP, or whose DP exceeds cfg.state_budget,
    raises ResourceError, whatever its size.

    Components are solved smallest first, each with a budget: the
    deletions left once the solved components' minima and the other
    components' bounds are taken from k. packing_completion's greedy set
    of ub vertices is taken without a decomposition or a DP when ub <=
    max(bound, 1) and ub <= budget (stats["bound_solved"] counts these
    components). Otherwise the DP runs with max_deletions = min(budget,
    ub - 1) and drops the rows that cannot stay within it (see dp_run).
    When its root comes back empty, the greedy set is a minimum if ub <=
    budget (stats["greedy_optimal"] counts these components), and the
    component is refuted otherwise. The solve stops with "no" as soon as
    the solved minima plus the bounds still to come exceed k, so
    stats["min_fvs"] is set only when every component's minimum was
    computed, and stats["weighted_width"] covers only the components
    whose pipeline was built (0 when none was). stats["pruned_rows"]
    counts the candidate DP rows the floor dropped.
    """
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    stats: dict[str, Any] = {"cliques": []}

    peel = peel_degree_one(g)
    gp = peel.reduced
    stats["high_degree_count"] = count_high_degree(gp)
    timings["peel"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    components = []
    for comp in connected_components(gp):
        sub, old_of_new, _ = induced_subgraph(gp, comp)
        part = greedy_partition(sub)
        components.append((sub, old_of_new, part, packing_bound(part)))
    stats["class_count"] = sum(len(c[2].classes) for c in components)
    stats["weighted_width"] = 0
    stats["pruned_rows"] = 0
    stats["bound_solved"] = 0
    stats["greedy_optimal"] = 0

    rest = stats["lower_bound"] = sum(c[3] for c in components)
    if rest > cfg.k:  # the loop below then never runs
        cliques = [
            tuple(peel.kept[old_of_new[v]] for v in q)
            for _, old_of_new, part, _ in components
            for q in packing_cliques(part)
        ]
        for c in cliques:
            if not all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2)):
                raise InternalError(f"clique-packing certificate: {c} is not a clique")
        stats["cliques"] = cliques

    # popped from the end, smallest first: their exact minima tighten the
    # budget of the larger, costlier DPs that follow
    components.sort(key=lambda c: c[0].n, reverse=True)
    deleted_reduced: set[int] = set()
    refuted = False
    # stop once the minima so far plus the bounds still to come exceed k
    while components and len(deleted_reduced) + rest <= cfg.k:
        sub, old_of_new, part, bound = components.pop()
        rest -= bound
        budget = cfg.k - len(deleted_reduced) - rest
        greedy = packing_completion(sub, part)
        ub = len(greedy)
        if ub <= budget and ub <= max(bound, 1):  # a peeled component holds a cycle
            deleted = greedy
            stats["bound_solved"] += 1
        else:
            pipe = build_pipeline(sub, part)
            stats["weighted_width"] = max(stats["weighted_width"], pipe.weighted_width)
            if pipe.weighted_width > WIDTH_SAFETY_CAP:
                raise ResourceError(
                    f"weighted width {pipe.weighted_width} exceeds safety cap "
                    f"{WIDTH_SAFETY_CAP} on a component of {sub.n} vertices"
                )
            # the loop condition gives budget >= bound, and ub - 1 >= bound here
            # unless bound = budget = 0, so max_deletions >= 0
            best, tables = dp_run(
                pipe.nice, sub, part, cfg.mode, min(budget, ub - 1), cfg.state_budget, stats
            )
            if best is not None:
                deleted = reconstruct(tables, pipe.nice, sub, part)
            elif ub > budget:
                refuted = True
                break
            else:
                deleted = greedy  # the DP proved no smaller set exists
                stats["greedy_optimal"] += 1
        deleted_reduced.update(old_of_new[v] for v in deleted)
    timings["pipeline"] = time.perf_counter() - t1

    fvs = None
    if not (refuted or components):
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

