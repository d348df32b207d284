"""Kappa-partitions: the contract, the greedy clique partition, contraction.

A kappa-partition (de Berg, Bodlaender, Kisfaludi-Bak, Marx and van der
Zanden, SICOMP 2020) puts each vertex in exactly one connected class and
covers each class with at most kappa cliques. Here kappa = 1: every class
is one clique, so it is connected and is its own cover. contract() is the
one checker of this contract: it raises ValidationError on the first
breach. A forest keeps at most two vertices of a clique
(local_selections), so every feedback vertex set deletes at least
sum(max(0, |q| - 2)) over the classes q (packing_bound), certified by
those of more than two vertices.
packing_completion deletes the rest of each such class, greedily breaks
the cycles left, and then puts back every deleted vertex that closes no
cycle, lowest degree first: an inclusion-minimal feedback vertex set, so
an upper bound on the minimum, and a minimum whenever it has at most
max(bound, 1) vertices.
packing_search closes a small gap between the two: choosing a kept subset
per class, it either finds a feedback vertex set of at most the bound
plus a few vertices or proves that none exists, exhaustively below
SEARCH_NODE_CAP nodes. Its forest is a list of tree masks, and each
class's kept subset, a vertex or an edge, is tested by the DP's cycle rule
(reduction.attach): it closes a cycle exactly when two edges join it to
one tree.
conflict_pairs finds disjoint pairs of classes that no forest keeps in
full, each worth one deletion beyond the bound; the DP's floor counts
those its subtree has not reached.

greedy_partition processes vertices in non-increasing degree order (ties by
smaller id). An uncovered vertex seeds a new class; its uncovered neighbors
are then scanned in the same order, and each joins if it is adjacent to
every member already in the class. Every class is therefore a clique around
its seed. The greedy rule does not bound the contraction degree: the
friendship graph of t triangles on one shared vertex contracts to a star
of degree t - 1.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Graph, uf_find
from .reduction import attach

# a forest keeps at most two vertices of any clique
KEEP_PER_CLIQUE = 2
# packing_search gives up, settling nothing, past this many search nodes
# (one per clique choice tried)
SEARCH_NODE_CAP = 200


@dataclass(frozen=True)
class KappaPartition:
    """Partition of V into classes, each a clique (kappa = 1).

    contract() checks this and builds the vertex-to-class lookup.
    """

    classes: tuple[tuple[int, ...], ...]

    # perfbench/tracer.py's dp_counters reads the cover of each class and
    # passes it to local_selections(cls, cover); each class covers itself
    @property
    def clique_cover(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple((cls,) for cls in self.classes)


@dataclass(frozen=True)
class ContractedGraph:
    """Class-level graph; class i weighs ceil(log2 |P_i|) + 1."""

    base: Graph
    weight: tuple[int, ...]


def class_weight(size: int) -> int:
    """ceil(log2(size)) + 1; weight 1 exactly for singleton classes."""
    if size < 1:
        raise ValueError(f"class size must be >= 1, got {size}")
    return (size - 1).bit_length() + 1 if size > 1 else 1


def greedy_partition(g: Graph) -> KappaPartition:
    """Greedy clique partition seeded in non-increasing degree order."""
    if g.n == 0:
        raise ValidationError("cannot partition the empty graph")
    # a stable sort keeps equal degrees in id order, reverse=True included
    order = sorted(range(g.n), key=[len(a) for a in g.adj].__getitem__, reverse=True)
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    covered = [False] * g.n
    classes: list[tuple[int, ...]] = []
    has_edge = g.has_edge
    for v in order:
        if covered[v]:
            continue
        covered[v] = True
        candidates = [w for w in g.adj[v] if not covered[w]]
        if len(candidates) > 1:
            candidates.sort(key=position.__getitem__)
        # every candidate is the seed's neighbour: test only the others
        joined: list[int] = []
        for w in candidates:
            if all(has_edge(w, u) for u in joined):
                joined.append(w)
                covered[w] = True
        joined.append(v)
        classes.append(tuple(sorted(joined)))
    return KappaPartition(classes=tuple(classes))


def local_selections(cls, cover) -> list[tuple[int, ...]]:
    """All ways to keep at most two vertices from each cover clique of a class.

    These are the only kept sets worth considering for one class. The
    enumeration is deterministic: per clique the empty set, then singletons
    and pairs in id order, combined in cover order. Every class is one
    clique, so the solver passes (cls,) as the cover.
    """
    options_per_clique = [
        [sel for r in range(KEEP_PER_CLIQUE + 1) for sel in itertools.combinations(clique, r)]
        for clique in cover
    ]
    return [
        tuple(sorted(v for part in combo for v in part))
        for combo in itertools.product(*options_per_clique)
    ]


def packing_cliques(p: KappaPartition) -> list[tuple[int, ...]]:
    """The classes a feedback vertex set must cut into: the certificate."""
    return [q for q in p.classes if len(q) > KEEP_PER_CLIQUE]


def packing_bound(p: KappaPartition) -> int:
    """Clique-packing lower bound on every feedback vertex set."""
    return sum(len(q) - KEEP_PER_CLIQUE for q in packing_cliques(p))


def conflict_pairs(g: Graph, p: KappaPartition) -> list[tuple[int, int]]:
    """Disjoint pairs (i, j), i < j, of classes of p such that every way of
    keeping min(2, |q|) vertices of both classes q closes a cycle.

    A forest then falls at least one vertex short of min(2, |q|) on one
    class of each pair, and the pairs are disjoint, so every feedback
    vertex set has at least packing_bound(p) + len(pairs) vertices.
    The pairs are greedy: each class in order is paired with the first
    later unpaired class it conflicts with.
    """
    nbr = [sum(1 << u for u in a) for a in g.adj]
    owner = [0] * g.n
    for i, cls in enumerate(p.classes):
        for v in cls:
            owner[v] = i
    paired = [False] * len(p.classes)
    pairs = []
    for i, cls in enumerate(p.classes):
        if paired[i]:
            continue
        for j in sorted({owner[w] for v in cls for w in g.adj[v] if owner[w] > i}):
            if not paired[j] and _pair_closes_cycles(cls, p.classes[j], nbr):
                pairs.append((i, j))
                paired[i] = paired[j] = True
                break
    return pairs


def _pair_closes_cycles(qa, qb, nbr) -> bool:
    """True when every way of keeping min(2, |q|) vertices of both cliques
    qa and qb keeps two edges between them, nbr being the neighbour masks.

    Each kept subset is an edge or a vertex, and two of them close a cycle
    exactly when two edges join them."""
    kept_b = [
        sum(1 << v for v in sel)
        for sel in itertools.combinations(qb, min(KEEP_PER_CLIQUE, len(qb)))
    ]
    return all(
        sum((nbr[a] & mask).bit_count() for a in sel) >= 2
        for sel in itertools.combinations(qa, min(KEEP_PER_CLIQUE, len(qa)))
        for mask in kept_b
    )


def packing_completion(g: Graph, p: KappaPartition) -> frozenset[int]:
    """An inclusion-minimal feedback vertex set of g that starts from the
    clique-packing bound.

    Deletes all but the two vertices of lowest degree (ties to the smaller
    id) of every class of more than two vertices. Then, until no
    vertex is kept, it peels the kept vertices of degree at most 1 and
    deletes the kept vertex of highest degree among the kept ones (ties to
    the smaller id). Then each deleted vertex, lowest degree first (ties to
    the smaller id), is put back when its neighbours outside the set lie in
    distinct trees of the forest they leave, one union-find over that
    forest's edges. A vertex left deleted closes a cycle, and later
    put-backs only join trees, so no single vertex of the result can be put
    back. The set is deterministic and leaves a forest, so the minimum is
    at most its size. It is a minimum when it has at most
    max(packing_bound(p), 1) vertices: a nonempty set means g has a cycle.
    Each step acts inside one component of g, so the set's share of a
    component is itself inclusion-minimal there.
    """
    adj = g.adj
    kept = [True] * g.n
    degree = [len(nbrs) for nbrs in adj]  # counts kept neighbors only
    leaves = [v for v in range(g.n) if degree[v] <= 1]

    def drop(v: int) -> None:
        kept[v] = False
        for w in adj[v]:
            if kept[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)

    def peel() -> None:
        while leaves:
            v = leaves.pop()
            if kept[v]:
                drop(v)

    def by_degree(v: int) -> tuple[int, int]:
        return len(adj[v]), v

    deleted: list[int] = []
    for q in packing_cliques(p):
        for v in sorted(q, key=by_degree)[KEEP_PER_CLIQUE:]:
            deleted.append(v)
            drop(v)
    peel()
    # a lazy max-heap on (degree, -id) over the kept vertices: degrees only
    # fall, so an entry's degree is at least its vertex's, and a stale entry
    # popped is pushed back corrected
    heap = [(-degree[v], v) for v in range(g.n) if kept[v]]
    heapq.heapify(heap)
    while heap:
        neg, v = heapq.heappop(heap)
        if not kept[v]:
            continue
        if -neg != degree[v]:
            heapq.heappush(heap, (-degree[v], v))
            continue
        # every kept vertex has degree >= 2, so they hold a cycle
        deleted.append(v)
        drop(v)
        peel()
    out = [False] * g.n
    for v in deleted:
        out[v] = True
    parent = list(range(g.n))
    for u, v in g.edges():
        if not (out[u] or out[v]):
            parent[uf_find(parent, u)] = uf_find(parent, v)
    for v in sorted(deleted, key=by_degree):
        nbrs = [w for w in adj[v] if not out[w]]
        roots = {uf_find(parent, w) for w in nbrs}
        if len(roots) == len(nbrs):
            out[v] = False
            for r in roots:
                parent[r] = v
    return frozenset(v for v in deleted if out[v])


def packing_search(g: Graph, p: KappaPartition, extra: int) -> int | None:
    """The kept mask of a forest of g whose complement, a feedback vertex
    set, has at most packing_bound(p) + extra vertices; None when g has no
    such set; -1 when the search gave up after SEARCH_NODE_CAP nodes.

    p's classes are cliques that partition g's vertices, and a forest keeps
    at most min(2, |q|) vertices of a clique q, so a set of at most bound +
    extra vertices is exactly one kept subset per class, with the kept
    vertices inducing a forest, whose total shortfall below min(2, |q|) is
    at most extra. The search assigns the cliques one at a time, each time
    branching on the unassigned clique with the fewest feasible subsets
    (the first such clique; subsets of least shortfall first). A subset,
    empty, a vertex or an edge, is feasible when its shortfall fits what is
    left of extra and no tree of the forest kept so far has two edges to
    it; a chosen one is merged with the trees it meets into one new tree
    (reduction.attach). A subset infeasible at a node stays infeasible
    below it, since the kept set only grows and the shortfall left only
    falls. One feasible before a choice met each old tree at most once, so
    only its edges to the new tree and its shortfall need a new test, and
    only where the clique borders the new tree or its shortfall no longer
    fits. A node where some clique has no feasible subset has no set below
    it. A node with every clique assigned has found a set: its trees hold
    every kept vertex. A search that ends without one has tried every
    choice, so no set exists; a give-up proves nothing. The set found is
    the first in the search's order, not necessarily a smallest one.
    """
    nbr = [sum(1 << u for u in a) for a in g.adj]
    cliques = p.classes
    # what each clique's vertices border: only a tree meeting it can change
    # the clique's feasible subsets
    reach = [0] * len(cliques)
    for i, q in enumerate(cliques):
        for v in q:
            reach[i] |= nbr[v]
    # each clique's subsets the shortfall allows, least shortfall first, as
    # (shortfall, mask, its vertices' neighbours as attach takes them); with
    # nothing kept yet, every one is feasible
    start = {}
    for i, q in enumerate(cliques):
        keep = min(KEEP_PER_CLIQUE, len(q))
        start[i] = [
            (keep - r, sum(1 << v for v in sel), *([nbr[v] for v in sel] + [0, 0])[:2])
            for r in range(keep, max(keep - extra, 0) - 1, -1)
            for sel in itertools.combinations(q, r)
        ]
    nodes = 0

    def search(trees: list[int], options: dict, left: int) -> int | None:
        """The kept mask of a set within the bound that extends the choices
        so far, None when there is none, or -1 on a give-up.

        trees are the masks of the disjoint trees of the forest kept so
        far, options each unassigned clique's feasible subsets and left
        what is left of extra."""
        nonlocal nodes
        if not options:
            return sum(trees)  # disjoint masks: their union
        nodes += 1
        if nodes > SEARCH_NODE_CAP:
            return -1
        i = min(options, key=lambda j: len(options[j]))
        for short, mask, nbrs_a, nbrs_b in options[i]:
            trees_n, tree = trees, 0
            if mask:  # feasible: it merges the trees it meets into one
                trees_n = attach(trees, mask, nbrs_a, nbrs_b)
                tree = trees_n[-1]
            left_n = left - short
            options_n = {}
            for j, opts in options.items():
                if j == i:
                    continue
                if reach[j] & tree or opts[-1][0] > left_n:
                    opts = [
                        opt for opt in opts
                        if opt[0] <= left_n
                        and (tree & opt[2]).bit_count() + (tree & opt[3]).bit_count() <= 1
                    ]
                    if not opts:
                        break
                options_n[j] = opts
            else:
                found = search(trees_n, options_n, left_n)
                if found is not None:
                    return found
        return None

    return search([], start, extra)


def contract(g: Graph, p: KappaPartition) -> ContractedGraph:
    """Contract every class to one vertex, dropping loops and parallels.

    Checks the contract first: every vertex id in range and in exactly one
    class, no class empty and every class a clique. Raises ValidationError
    on the first breach.
    """
    owner = [-1] * g.n
    outside, doubled = [], []
    for i, cls in enumerate(p.classes):
        if not cls:
            raise ValidationError(f"class {i} is empty")
        for v in cls:
            if not 0 <= v < g.n:
                outside.append(v)
            elif owner[v] != -1:
                doubled.append(v)
            else:
                owner[v] = i
    if outside:
        raise ValidationError(f"vertices outside graph: {outside[:5]}")
    missing = [v for v in range(g.n) if owner[v] == -1]
    if missing:
        raise ValidationError(f"uncovered vertices: {missing[:5]}")
    if doubled:
        raise ValidationError(f"overlapping vertices: {doubled[:5]}")
    for i, cls in enumerate(p.classes):
        for a, b in itertools.combinations(cls, 2):
            if not g.has_edge(a, b):
                raise ValidationError(f"non-adjacent pair {a},{b} in class {i}")
    # each class's neighbour classes, read off its vertices' lists; g is
    # symmetric, so the class lists are too
    adj = tuple([
        tuple(sorted({owner[w] for v in cls for w in g.adj[v]} - {i}))
        for i, cls in enumerate(p.classes)
    ])
    return ContractedGraph(
        base=Graph(n=len(adj), adj=adj, m=sum(map(len, adj)) // 2),
        weight=tuple(class_weight(len(c)) for c in p.classes),
    )
