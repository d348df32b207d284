"""Shared builders and independent reference implementations.

The reference code here is deliberately written from scratch (plain DFS,
all-pairs loops, recursive partition enumeration) so package bugs cannot
hide behind shared helpers.
"""

from __future__ import annotations

import itertools
import math

import pytest

from diskfvs import Graph, from_edge_list
from diskfvs.errors import ResourceError

# grid of axis-parallel square cells of side 1/2 (diameter 1/sqrt(2) < 1),
# anchored at the origin: the unit-diameter disks centered in one cell
# pairwise intersect
CELL_SIDE = 0.5


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def naive_has_cycle(g: Graph) -> bool:
    """Reference cycle detection: DFS with parent tracking."""
    color = [0] * g.n
    for start in range(g.n):
        if color[start]:
            continue
        stack = [(start, -1)]
        color[start] = 1
        while stack:
            u, parent = stack.pop()
            skipped_parent = False
            for w in g.adj[u]:
                if w == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if color[w]:
                    return True
                color[w] = 1
                stack.append((w, u))
    return False


def naive_min_fvs(g: Graph) -> int:
    """Reference minimum FVS: subset enumeration with the naive cycle check."""
    from diskfvs import induced_subgraph

    if not naive_has_cycle(g):
        return 0
    for size in range(1, g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in comb]
            sub, _, _ = induced_subgraph(g, keep)
            if not naive_has_cycle(sub):
                return size
    raise AssertionError("unreachable")


def exact_treewidth(g: Graph) -> int:
    """Reference treewidth via DP over elimination-order prefixes (n <= 12).

    State: the set S of already eliminated vertices. Eliminating v next
    costs |Q(S, v)|, the number of vertices outside S u {v} reachable from
    v through S. The treewidth is the min over orders of the max cost.
    """
    if g.n > 12:
        raise ResourceError(f"n={g.n} exceeds the exact treewidth budget 12")
    n = g.n
    if n == 0:
        return 0
    adj_mask = [0] * n
    for v in range(n):
        for w in g.adj[v]:
            adj_mask[v] |= 1 << w

    def q_size(s_mask: int, v: int) -> int:
        # vertices outside s u {v} reachable from v via internal vertices in s
        reach = adj_mask[v]
        frontier = reach & s_mask
        seen = frontier
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj_mask[u] & ~seen & ~(1 << v)
            reach |= new
            frontier |= new & s_mask
            seen |= new
        return bin(reach & ~s_mask & ~(1 << v)).count("1")

    size = 1 << n
    dp = [n] * size
    dp[0] = -1
    for s_mask in range(size):
        cur = dp[s_mask]
        if cur >= n:
            continue
        rest = ~s_mask & (size - 1)
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cost = max(cur, q_size(s_mask, v))
            t = s_mask | (1 << v)
            if cost < dp[t]:
                dp[t] = cost
    return dp[size - 1]


def cell_of(objs) -> tuple[tuple[int, int], ...]:
    """The CELL_SIDE grid cell of each object's center."""
    return tuple(
        (math.floor(o.x / CELL_SIDE), math.floor(o.y / CELL_SIDE)) for o in objs.objects
    )


def heavy_cells(objs) -> frozenset[tuple[int, int]]:
    """Cells holding at least three centers. Each holds a triangle of unit
    disks, and the cells are disjoint, so every feedback vertex set of the
    intersection graph deletes at least one disk per heavy cell."""
    counts: dict[tuple[int, int], int] = {}
    for c in cell_of(objs):
        counts[c] = counts.get(c, 0) + 1
    return frozenset(c for c, k in counts.items() if k >= 3)


def all_partitions(items: tuple[int, ...]):
    """Every partition of items, as tuples of tuples."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]
        yield ((first,),) + sub


def merge_blocks_acyclic(p_blocks, q_blocks, ground: tuple[int, ...]) -> bool:
    """Reference acyclicity of merging two partitions over the same ground.

    Uses the bipartite block-graph criterion: the merge is acyclic exactly
    when the joined partition has |p| + |q| - |ground| blocks.
    """
    index = {x: i for i, x in enumerate(ground)}
    parent = list(range(len(ground)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = len(ground)
    for part in (p_blocks, q_blocks):
        for blk in part:
            ids = [index[x] for x in blk]
            for other in ids[1:]:
                ra, rb = find(ids[0]), find(other)
                if ra != rb:
                    parent[rb] = ra
                    blocks -= 1
    return blocks == len(p_blocks) + len(q_blocks) - len(ground)


def block_masks(blocks) -> tuple[int, ...]:
    """Blocks over positions -> sorted block masks, position i as bit i."""
    return tuple(sorted(sum(1 << x for x in blk) for blk in blocks))


def blocks_of(part: tuple[int, ...]):
    """Block masks -> tuple of position blocks."""
    return tuple(tuple(x for x in range(b.bit_length()) if b >> x & 1) for b in part)


def graft_leaf_bags(td, rng):
    """td with 0-2 extra leaves under every node, each bag a random subset
    of its parent's bag. The result stays a valid decomposition but its
    nice form joins far more often than an elimination order's does."""
    from diskfvs.decomposition import TreeDecomposition

    bags = list(td.bags)
    children = [list(a) for a in td.children]
    for i in range(len(td.bags)):
        for _ in range(rng.randint(0, 2)):
            extra = frozenset(rng.sample(sorted(td.bags[i]), rng.randint(0, len(td.bags[i]))))
            bags.append(extra)
            children.append([])
            children[i].append(len(bags) - 1)
    return TreeDecomposition(children=tuple(map(tuple, children)), bags=tuple(bags))


def class_of(p) -> list[int]:
    """Each vertex's class index in the partition p, read off p.classes."""
    owner = [0] * sum(map(len, p.classes))
    for i, cls in enumerate(p.classes):
        for v in cls:
            owner[v] = i
    return owner


def subtree_classes(nd) -> list[set[int]]:
    """The classes introduced in each nice node's subtree."""
    from diskfvs.decomposition import INTRODUCE

    below = [set() for _ in nd.kind]
    for node in range(nd.node_count() - 1, -1, -1):
        below[node] = set().union(*(below[c] for c in nd.children[node]))
        if nd.kind[node] == INTRODUCE:
            below[node].add(nd.vtx[node])
    return below


def euclid(a, b) -> float:
    return math.dist((a.x, a.y), (b.x, b.y))


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)
