"""Immutable undirected simple graphs and cycle-free preprocessing.

Vertex ids are dense 0-based integers. Adjacency lists are sorted tuples,
kept symmetric, with no loops or parallel edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with contiguous 0-based vertex ids."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int
    _nbr: tuple[frozenset[int], ...] = field(repr=False, compare=False, default=())

    def __post_init__(self):
        if not self._nbr:
            object.__setattr__(self, "_nbr", tuple(frozenset(a) for a in self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbr[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._nbr[v]

    def edges(self):
        """Yield each edge once as (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


@dataclass(frozen=True)
class PeelResult:
    """Outcome of iterated removal of degree <= 1 vertices.

    kept[i] is the original id of reduced vertex i; removed holds the
    original ids deleted. Vertices of degree 0 are removed as well: they
    lie on no cycle, so deletions preserve all feedback-vertex-set answers.
    """

    reduced: Graph
    kept: tuple[int, ...]
    removed: frozenset[int]


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
    original id of new vertex i; new_of_old maps the other way.
    """
    old_of_new = tuple(sorted(s))
    for v in old_of_new:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} not in graph of size {g.n}")
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    edges = []
    for i, v in enumerate(old_of_new):
        for w in g.adj[v]:
            j = new_of_old.get(w)
            if j is not None and i < j:
                edges.append((i, j))
    return from_edge_list(len(old_of_new), edges), old_of_new, new_of_old


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


def is_forest(g: Graph) -> bool:
    """True iff g is acyclic: m == n - (number of components)."""
    return g.m == g.n - len(connected_components(g))


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
    return PeelResult(
        reduced=sub,
        kept=old_of_new,
        removed=frozenset(v for v in range(g.n) if removed[v]),
    )
