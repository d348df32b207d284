"""Exhaustive ground-truth solvers for desk-scale graphs.

These are deliberately naive: subset enumeration with union-find forest
checks, and a Held-Karp style subset DP for treewidth. Every acceptance
test in the repository cross-validates against this module, so clarity
wins over speed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ResourceError
from .graph import Graph


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps keeping the exhaustive solvers at desk scale."""

    max_n_subsets: int = 20
    max_n_treewidth: int = 12


DEFAULT_BUDGET = OracleBudget()


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


def min_fvs_bruteforce(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum feedback vertex set by increasing-size enumeration.

    Deletion sets of each size are tried in lexicographic order, so the
    returned witness is the lexicographically first optimal set.
    """
    if g.n > budget.max_n_subsets:
        raise ResourceError(f"n={g.n} exceeds oracle subset budget {budget.max_n_subsets}")
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


def exact_treewidth(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact treewidth via DP over elimination-order prefixes.

    State: the set S of already eliminated vertices. Eliminating v next
    costs |Q(S, v)|, the number of vertices outside S u {v} reachable from
    v through S. The treewidth is the min over orders of the max cost.
    """
    if g.n > budget.max_n_treewidth:
        raise ResourceError(f"n={g.n} exceeds oracle treewidth budget {budget.max_n_treewidth}")
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
