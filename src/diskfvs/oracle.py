"""Exhaustive ground-truth feedback vertex set solver for desk-scale graphs.

It is deliberately naive: subset enumeration with union-find forest
checks. The acceptance tests, `diskfvs oracle` and `diskfvs compare`
cross-validate the DP against it, and solve falls back on it when the DP
exceeds its state budget on a component of at most MAX_N vertices.
min_fvs_bruteforce refuses a graph of more than max_n vertices (default
MAX_N). Clarity wins over speed here.
"""

from __future__ import annotations

import itertools

from .errors import ResourceError
from .graph import Graph

MAX_N = 20


def _forest_after_deletion(edge_list, kept_mask: int, parent: list[int]) -> bool:
    """Union-find acyclicity test on the kept vertices, early cycle exit."""
    for i in range(len(parent)):
        parent[i] = i

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edge_list:
        if (kept_mask >> u) & 1 and (kept_mask >> v) & 1:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[rv] = ru
    return True


def min_fvs_bruteforce(g: Graph, max_n: int = MAX_N) -> tuple[int, frozenset[int]]:
    """Exact minimum feedback vertex set by increasing-size enumeration.

    Deletion sets of each size are tried in lexicographic order, so the
    returned witness is the lexicographically first optimal set.
    """
    if g.n > max_n:
        raise ResourceError(f"n={g.n} exceeds oracle subset budget {max_n}")
    edge_list = list(g.edges())
    full = (1 << g.n) - 1
    parent = list(range(g.n))
    if _forest_after_deletion(edge_list, full, parent):
        return 0, frozenset()
    for size in range(1, g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            mask = full
            for v in comb:
                mask &= ~(1 << v)
            if _forest_after_deletion(edge_list, mask, parent):
                return size, frozenset(comb)
    raise AssertionError("unreachable: deleting all vertices always leaves a forest")
