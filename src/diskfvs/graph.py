"""Immutable undirected simple graphs and cycle-free preprocessing.

Vertex ids are dense 0-based integers. Adjacency lists are sorted tuples,
kept symmetric, with no loops or parallel edges. has_edge bisects them, and
induced_subgraph relies on these invariants: it renumbers g's lists in place
of rebuilding them from an edge list, so its result is sorted, symmetric and
simple because g is.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with contiguous 0-based vertex ids."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self.adj[v])

    def edges(self):
        """Yield each edge once as (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


@dataclass(frozen=True)
class PeelResult:
    """Outcome of iterated removal of degree <= 1 vertices.

    kept[i] is the original id of reduced vertex i. Vertices of degree 0
    are removed as well: they lie on no cycle, so deletions preserve all
    feedback-vertex-set answers.
    """

    reduced: Graph
    kept: tuple[int, ...]


def from_edge_list(n: int, edges) -> Graph:
    """Build a Graph from (u, v) pairs.

    Duplicate pairs and reversed orientations collapse to a single edge.
    Self-loops and out-of-range ids are rejected.
    """
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    seen: set[tuple[int, int]] = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in seen:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, adj=tuple(tuple(sorted(a)) for a in adj), m=len(seen))


def induced_subgraph(g: Graph, s) -> tuple[Graph, tuple[int, ...], dict[int, int]]:
    """Subgraph induced by vertex set s.

    Returns (subgraph, old_of_new, new_of_old): old_of_new[i] is the
    original id of new vertex i; new_of_old maps the other way. Renumbering
    by the sorted old_of_new keeps each of g's sorted lists sorted.
    """
    old_of_new = tuple(sorted(s))
    if old_of_new and not (0 <= old_of_new[0] and old_of_new[-1] < g.n):
        # the smallest out-of-range id, as a scan in sorted order would find
        bad = old_of_new[0] if old_of_new[0] < 0 else old_of_new[bisect_left(old_of_new, g.n)]
        raise InputError(f"vertex {bad} not in graph of size {g.n}")
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    if len(new_of_old) != len(old_of_new):
        dup = next(v for v, w in zip(old_of_new, old_of_new[1:]) if v == w)
        raise InputError(f"vertex {dup} selected more than once")
    get = new_of_old.get
    adj = tuple([
        tuple([j for w in g.adj[v] if (j := get(w)) is not None]) for v in old_of_new
    ])
    sub = Graph(n=len(old_of_new), adj=adj, m=sum(map(len, adj)) // 2)
    return sub, old_of_new, new_of_old


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_forest(g: Graph, deleted=()) -> bool:
    """True iff g minus the deleted vertices is acyclic.

    One union-find pass over g's edges that skips the deleted vertices; no
    subgraph is built.
    """
    alive = [True] * g.n
    for v in deleted:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} not in graph of size {g.n}")
        alive[v] = False
    parent = list(range(g.n))
    for u, nbrs in enumerate(g.adj):
        if not alive[u]:
            continue
        for v in nbrs:
            if v > u and alive[v]:
                ru, rv = uf_find(parent, u), uf_find(parent, v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def uf_find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def count_high_degree(g: Graph) -> int:
    """Number of vertices of degree at least three."""
    return sum(1 for v in range(g.n) if len(g.adj[v]) >= 3)


def peel_degree_one(g: Graph) -> PeelResult:
    """Delete degree <= 1 vertices until none remain.

    The reduced graph has minimum degree >= 2 or is empty; every deleted
    vertex had degree <= 1 at its deletion moment, so optimal feedback
    vertex sets are unchanged.
    """
    deg = [len(g.adj[v]) for v in range(g.n)]
    removed = [False] * g.n
    queue = deque(v for v in range(g.n) if deg[v] <= 1)
    while queue:
        v = queue.popleft()
        if removed[v]:
            continue
        removed[v] = True
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    queue.append(w)
    survivors = [v for v in range(g.n) if not removed[v]]
    sub, old_of_new, _ = induced_subgraph(g, survivors)
    return PeelResult(reduced=sub, kept=old_of_new)
