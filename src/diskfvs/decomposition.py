"""Tree decompositions: construction, validation, blowup projection, nice form.

Every decomposition is a tree of bags rooted at node 0 and stored as each
node's children, in ascending id. Unweighted decompositions come from one
greedy min-fill elimination pass over int masks of the alive
neighbourhoods. Weighted decompositions of a contracted graph are obtained
by blowing each class vertex up into a clique of its weight, decomposing
the blown graph, and projecting bags back: a class joins a projected bag
iff the bag holds its entire clique. The blown graph's adjacency tuples are
built directly from the class graph's, with no edge list.
validate_decomposition takes any children/bags tree, the nice form
included, and checks the subtree property in one search from node 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Graph
from .partition import ContractedGraph
from .reduction import bits_of


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree of bags rooted at node 0; children[i] lists node i's children."""

    children: tuple[tuple[int, ...], ...]
    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def node_count(self) -> int:
        return len(self.bags)


def validate_decomposition(td: TreeDecomposition | NiceDecomposition, g: Graph) -> None:
    """Check the tree, vertex coverage, edge coverage and the subtree property.

    td is any tree of bags rooted at node 0 with a children list per node:
    a TreeDecomposition or a NiceDecomposition. Raises ValidationError at
    the first breach. The tree is searched once from node 0; it is a tree
    when every id named is in 1..nodes-1, no node is named twice, and every
    node is reached. The bags holding a vertex form a subtree exactly when
    one of them, and only one, has no parent bag that holds it too.
    """
    nodes = len(td.bags)
    if nodes == 0:
        raise ValidationError("decomposition has no nodes")
    if len(td.children) != nodes:
        raise ValidationError("tree/bag size mismatch")
    up: list[frozenset[int] | None] = [None] * nodes  # parent bag, once reached
    up[0] = frozenset()
    order = [0]
    for u in order:
        for w in td.children[u]:
            if not 0 < w < nodes or up[w] is not None:
                raise ValidationError("decomposition tree is not a tree")
            up[w] = td.bags[u]
            order.append(w)
    if len(order) != nodes:
        raise ValidationError("decomposition tree is not a tree")

    holder: list[list[int]] = [[] for _ in range(g.n)]
    tops = [0] * g.n  # the bags holding v whose parent bag does not
    for i, bag in enumerate(td.bags):
        above = up[i]
        for v in bag:
            if not 0 <= v < g.n:
                raise ValidationError(f"bag {i} holds unknown vertex {v}")
            holder[v].append(i)
            if v not in above:
                tops[v] += 1
    for v in range(g.n):
        if not tops[v]:
            raise ValidationError(f"vertex {v} in no bag")
    for (u, v) in g.edges():
        if not any(v in td.bags[i] for i in holder[u]):
            raise ValidationError(f"edge ({u}, {v}) covered by no bag")
    for v in range(g.n):
        if tops[v] > 1:
            raise ValidationError(f"bags of vertex {v} do not form a subtree")


def _fill(adj: list[int], u: int) -> int:
    """Pairs of u's alive neighbours that are not adjacent."""
    nbrs = rest = adj[u]
    d = nbrs.bit_count()
    linked = 0  # twice the edges among the neighbours
    while rest:
        low = rest & -rest
        linked += (adj[low.bit_length() - 1] & nbrs).bit_count()
        rest ^= low
    return d * (d - 1) // 2 - linked // 2


def decompose_unweighted(h: Graph) -> TreeDecomposition:
    """Tree decomposition of an unweighted graph by greedy min-fill elimination.

    Each step eliminates the alive vertex whose alive neighbours need the
    fewest fill edges to become a clique (ties to the smaller id) and
    records its bag: the vertex and those neighbours. Bags are numbered in
    elimination order; each bag's parent is the bag of its earliest-eliminated
    later neighbour, or the next bag when it has none. That tree is rooted
    at the last bag; reversing the path from bag 0 up to it roots it at 0.

    Alive neighbourhoods are int masks. The scores live in a heap with lazy
    invalidation. Eliminating v changes only the scores of v's neighbours,
    which are recomputed, and of the other common neighbours of each fill
    edge's ends, which lose one missing pair per such edge. The order is
    that of rescoring every alive vertex at every step.
    """
    if h.n == 0:
        return TreeDecomposition(children=((),), bags=(frozenset(),))
    adj = [sum(1 << w for w in a) for a in h.adj]  # alive neighbours only
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
        members = list(bits_of(nbrs))
        bags.append(frozenset(members + [v]))
        gone = ~(1 << v)
        outside = ~nbrs
        lowered: dict[int, int] = {}
        for a in members:
            adj_a = adj[a] & gone
            # the fill edges (a, b) with b > a, and each one's common
            # neighbours outside nbrs: nbrs becomes a clique, so only
            # theirs drop without a rescore
            for b in bits_of(nbrs & ~adj_a & -(2 << a)):
                for c in bits_of(adj_a & adj[b] & outside):
                    lowered[c] = lowered.get(c, 0) + 1
            adj[a] = adj_a
        for a in members:
            adj[a] |= nbrs ^ (1 << a)
        for c, drop in lowered.items():
            score[c] -= drop
            heapq.heappush(heap, (score[c], c))
        for a in members:
            score[a] = _fill(adj, a)
            heapq.heappush(heap, (score[a], a))
    parent = [
        min([pos[w] for w in bags[i] if pos[w] > i], default=i + 1) for i in range(h.n - 1)
    ]
    # every parent id exceeds its child's, so the path from bag 0 ends at
    # the last bag; its edges turn over, and ascending i lists each node's
    # children in ascending id
    on_path = [False] * h.n
    i = 0
    while i < h.n - 1:
        on_path[i] = True
        i = parent[i]
    children: list[list[int]] = [[] for _ in range(h.n)]
    for i, p in enumerate(parent):
        if on_path[i]:
            children[i].append(p)
        else:
            children[p].append(i)
    return TreeDecomposition(children=tuple(map(tuple, children)), bags=tuple(bags))


@dataclass(frozen=True)
class BlowupGraph:
    """Unweighted expansion of a weighted contracted graph.

    Class v becomes clique B(v) of size weight(v); blown cliques of
    adjacent classes are fully connected.
    """

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]


def blowup(cg: ContractedGraph) -> BlowupGraph:
    """Blow each class up into a clique of its weight, ids in class order.

    Cliques are consecutive id ranges in class order, so a blown vertex's
    sorted neighbours are the ranges of its class and of the class's
    neighbours in id order, less the vertex itself.
    """
    offsets = []
    total = 0
    for w in cg.weight:
        offsets.append(total)
        total += w
    cliques = tuple(
        tuple(range(offsets[i], offsets[i] + cg.weight[i])) for i in range(len(cg.weight))
    )
    adj: list[tuple[int, ...]] = []
    for c, clique in enumerate(cliques):
        around = sorted(cg.base.adj[c] + (c,))
        ball = tuple([x for d in around for x in cliques[d]])
        at = ball.index(clique[0]) if clique else 0
        adj.extend(ball[:at + i] + ball[at + i + 1:] for i in range(len(clique)))
    graph = Graph(n=total, adj=tuple(adj), m=sum(map(len, adj)) // 2)
    return BlowupGraph(graph=graph, cliques=cliques)


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
    return TreeDecomposition(children=td_b.children, bags=tuple(bags))


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

    def node_count(self) -> int:
        return len(self.kind)


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
    """Normalize to leaf/introduce/forget/join nodes with an empty root bag.

    td must be a tree rooted at node 0, as validate_decomposition defines
    one; a node's children are joined in the order td lists them.
    """
    order = [0]  # breadth-first from the root
    for u in order:
        order.extend(td.children[u])

    b = _NiceBuilder()
    # children before parents: reversed BFS order
    built = [0] * len(td.bags)
    for u in reversed(order):
        bag = td.bags[u]
        if not td.children[u]:
            built[u] = b.leaf_chain(bag)
            continue
        lifted = [b.chain_to(built[c], bag) for c in td.children[u]]
        node = lifted[0]
        for other in lifted[1:]:
            node = b.add(JOIN, None, bag, [node, other])
        built[u] = node
    top = b.chain_to(built[0], frozenset())

    # renumber so the root is 0 and every child id exceeds its parent's:
    # new id i is bfs[i], the i-th node in breadth-first order from top
    new_id = [0] * len(b.kind)
    bfs = [top]
    for u in bfs:
        for c in b.children[u]:
            new_id[c] = len(bfs)
            bfs.append(c)
    return NiceDecomposition(
        kind=tuple([b.kind[old] for old in bfs]),
        vtx=tuple([b.vtx[old] for old in bfs]),
        bags=tuple([b.bags[old] for old in bfs]),
        children=tuple([tuple([new_id[c] for c in b.children[old]]) for old in bfs]),
    )
