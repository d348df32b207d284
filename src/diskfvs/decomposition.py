"""Tree decompositions: construction, validation, blowup projection, nice form.

Unweighted decompositions come from one greedy min-fill elimination pass.
Weighted decompositions of a contracted graph are obtained by blowing each
class vertex up into a clique of its weight, decomposing the blown graph,
and projecting bags back: a class joins a projected bag iff the bag holds
its entire clique.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Graph, from_edge_list
from .partition import ContractedGraph


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree of bags; rooted at node 0 by convention."""

    tree: tuple[tuple[int, ...], ...]
    bags: tuple[frozenset[int], ...]
    root: int = 0

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def node_count(self) -> int:
        return len(self.bags)


def validate_decomposition(td: TreeDecomposition, g: Graph) -> None:
    """Check vertex coverage, edge coverage, and the subtree property.

    Raises ValidationError at the first breach.
    """
    nodes = len(td.bags)
    if nodes == 0:
        raise ValidationError("decomposition has no nodes")
    if len(td.tree) != nodes:
        raise ValidationError("tree/bag size mismatch")
    # the tree must actually be a tree
    deg_sum = sum(len(a) for a in td.tree)
    if len(_reach(td.tree, td.root, range(nodes))) != nodes or deg_sum != 2 * (nodes - 1):
        raise ValidationError("decomposition tree is not a tree")

    holder: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                raise ValidationError(f"bag {i} holds unknown vertex {v}")
            holder[v].append(i)
    for v in range(g.n):
        if not holder[v]:
            raise ValidationError(f"vertex {v} in no bag")
    for (u, v) in g.edges():
        if not any(v in td.bags[i] for i in holder[u]):
            raise ValidationError(f"edge ({u}, {v}) covered by no bag")
    for v in range(g.n):
        if len(_reach(td.tree, holder[v][0], set(holder[v]))) != len(holder[v]):
            raise ValidationError(f"bags of vertex {v} do not form a subtree")


def _reach(tree, start: int, allowed) -> set[int]:
    """The tree nodes reachable from start through nodes in allowed."""
    reach = {start}
    queue = deque([start])
    while queue:
        for w in tree[queue.popleft()]:
            if w in allowed and w not in reach:
                reach.add(w)
                queue.append(w)
    return reach


def _fill(adj: list[set[int]], u: int) -> int:
    """Pairs of u's alive neighbours that are not adjacent."""
    nbrs = adj[u]
    d = len(nbrs)
    return d * (d - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2


def decompose_unweighted(h: Graph) -> TreeDecomposition:
    """Tree decomposition of an unweighted graph by greedy min-fill elimination.

    Each step eliminates the alive vertex whose alive neighbours need the
    fewest fill edges to become a clique (ties to the smaller id) and
    records its bag: the vertex and those neighbours. Bags are numbered in
    elimination order; each is linked to the bag of its earliest-eliminated
    later neighbour, or to the next bag when it has none.

    The scores live in a heap with lazy invalidation. Eliminating v changes
    only the scores of v's neighbours, which are recomputed, and of the
    other common neighbours of each fill edge's ends, which lose one
    missing pair per such edge. The order is that of rescoring every alive
    vertex at every step.
    """
    if h.n == 0:
        return TreeDecomposition(tree=((),), bags=(frozenset(),), root=0)
    adj = [set(a) for a in h.adj]  # alive neighbours only
    score = [_fill(adj, u) for u in range(h.n)]
    heap = [(s, u) for u, s in enumerate(score)]
    heapq.heapify(heap)
    alive = [True] * h.n
    pos = [0] * h.n
    bags: list[frozenset[int]] = []
    while heap:
        s, v = heapq.heappop(heap)
        if not alive[v] or s != score[v]:
            continue
        alive[v] = False
        pos[v] = len(bags)
        nbrs = adj[v]
        bags.append(frozenset(nbrs | {v}))
        lowered: dict[int, int] = {}
        for a in nbrs:
            adj[a].discard(v)
        for a in nbrs:
            for b in nbrs - adj[a]:
                if a < b:
                    for c in adj[a] & adj[b]:
                        lowered[c] = lowered.get(c, 0) + 1
                    adj[a].add(b)
                    adj[b].add(a)
        for c, drop in lowered.items():
            if c not in nbrs:
                score[c] -= drop
                heapq.heappush(heap, (score[c], c))
        for a in nbrs:
            score[a] = _fill(adj, a)
            heapq.heappush(heap, (score[a], a))
    edges: list[list[int]] = [[] for _ in range(h.n)]
    for i in range(h.n - 1):
        later = [pos[w] for w in bags[i] if pos[w] > i]
        parent = min(later, default=i + 1)
        edges[i].append(parent)
        edges[parent].append(i)
    return TreeDecomposition(
        tree=tuple(tuple(sorted(e)) for e in edges), bags=tuple(bags), root=0
    )


@dataclass(frozen=True)
class BlowupGraph:
    """Unweighted expansion of a weighted contracted graph.

    Class v becomes clique B(v) of size weight(v); blown cliques of
    adjacent classes are fully connected.
    """

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]


def blowup(cg: ContractedGraph) -> BlowupGraph:
    offsets = []
    total = 0
    for w in cg.weight:
        offsets.append(total)
        total += w
    cliques = tuple(
        tuple(range(offsets[i], offsets[i] + cg.weight[i])) for i in range(len(cg.weight))
    )
    edges = []
    for clique in cliques:
        for a_idx in range(len(clique)):
            for b_idx in range(a_idx + 1, len(clique)):
                edges.append((clique[a_idx], clique[b_idx]))
    for (u, v) in cg.base.edges():
        for a in cliques[u]:
            for b in cliques[v]:
                edges.append((a, b))
    return BlowupGraph(graph=from_edge_list(total, edges), cliques=cliques)


def project(td_b: TreeDecomposition, bg: BlowupGraph) -> TreeDecomposition:
    """Projected decomposition: class in a bag iff its whole clique is.

    Each bag counts its blown vertices per class; a class joins when the
    count reaches its clique size. Validity follows because every blown
    clique (and every union of two adjacent blown cliques) sits inside some
    bag of a valid decomposition, and intersections of subtrees are
    subtrees. The result is not checked here: the solver's pipeline runs
    validate_decomposition once, on its nice form.
    """
    class_of = [0] * bg.graph.n
    for c, clique in enumerate(bg.cliques):
        for b in clique:
            class_of[b] = c
    bags = []
    for bag in td_b.bags:
        count: dict[int, int] = {}
        full = []
        for b in bag:
            c = class_of[b]
            count[c] = count.get(c, 0) + 1
            if count[c] == len(bg.cliques[c]):
                full.append(c)
        bags.append(frozenset(full))
    return TreeDecomposition(tree=td_b.tree, bags=tuple(bags), root=td_b.root)


def weighted_width(td: TreeDecomposition, cg: ContractedGraph) -> int:
    """Maximum over bags of the total class weight inside the bag."""
    return max((sum(cg.weight[v] for v in bag) for bag in td.bags), default=0)


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class NiceDecomposition:
    """Rooted binary-shaped decomposition with unit-change bags.

    Node 0 is the root and has an empty bag; children carry larger ids
    than their parent, so descending id order is a valid bottom-up
    processing order.
    """

    kind: tuple[str, ...]
    vtx: tuple[int | None, ...]
    bags: tuple[frozenset[int], ...]
    children: tuple[tuple[int, ...], ...]
    root: int = 0

    def node_count(self) -> int:
        return len(self.kind)

    def to_tree_decomposition(self) -> TreeDecomposition:
        edges: list[list[int]] = [[] for _ in range(len(self.kind))]
        for u, chs in enumerate(self.children):
            for c in chs:
                edges[u].append(c)
                edges[c].append(u)
        return TreeDecomposition(
            tree=tuple(tuple(sorted(e)) for e in edges), bags=self.bags, root=self.root
        )


class _NiceBuilder:
    def __init__(self):
        self.kind: list[str] = []
        self.vtx: list[int | None] = []
        self.bags: list[frozenset[int]] = []
        self.children: list[list[int]] = []

    def add(self, kind: str, vtx: int | None, bag: frozenset[int], children: list[int]) -> int:
        self.kind.append(kind)
        self.vtx.append(vtx)
        self.bags.append(bag)
        self.children.append(children)
        return len(self.kind) - 1

    def chain_to(self, node: int, target: frozenset[int]) -> int:
        """Forget/introduce chain lifting node's bag to the target bag."""
        bag = self.bags[node]
        for v in sorted(bag - target):
            bag = bag - {v}
            node = self.add(FORGET, v, bag, [node])
        for v in sorted(target - bag):
            bag = bag | {v}
            node = self.add(INTRODUCE, v, bag, [node])
        return node

    def leaf_chain(self, target: frozenset[int]) -> int:
        node = self.add(LEAF, None, frozenset(), [])
        return self.chain_to(node, target)


def make_nice(td: TreeDecomposition) -> NiceDecomposition:
    """Normalize to leaf/introduce/forget/join nodes with an empty root bag."""
    n = len(td.bags)
    parent = [-1] * n
    order = [td.root]
    seen = {td.root}
    for u in order:
        for w in td.tree[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        kids[parent[v]].append(v)

    b = _NiceBuilder()
    # children before parents: reversed BFS order
    built: dict[int, int] = {}
    for u in reversed(order):
        bag = td.bags[u]
        if not kids[u]:
            built[u] = b.leaf_chain(bag)
            continue
        lifted = [b.chain_to(built[c], bag) for c in kids[u]]
        node = lifted[0]
        for other in lifted[1:]:
            node = b.add(JOIN, None, bag, [node, other])
        built[u] = node
    top = b.chain_to(built[td.root], frozenset())

    # renumber so the root is 0 and every child id exceeds its parent's
    new_ids = {top: 0}
    bfs = [top]
    for u in bfs:
        for c in b.children[u]:
            new_ids[c] = len(new_ids)
            bfs.append(c)
    count = len(bfs)
    kind: list[str] = [""] * count
    vtx: list[int | None] = [None] * count
    bags: list[frozenset[int]] = [frozenset()] * count
    children: list[tuple[int, ...]] = [()] * count
    for old, new in new_ids.items():
        kind[new] = b.kind[old]
        vtx[new] = b.vtx[old]
        bags[new] = b.bags[old]
        children[new] = tuple(new_ids[c] for c in b.children[old])
    return NiceDecomposition(
        kind=tuple(kind),
        vtx=tuple(vtx),
        bags=tuple(bags),
        children=tuple(children),
        root=0,
    )
