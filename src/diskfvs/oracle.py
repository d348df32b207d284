"""Exhaustive ground-truth feedback vertex set solver for desk-scale graphs.

It is deliberately naive: subset enumeration with union-find forest
checks. The acceptance tests, `diskfvs oracle` and `diskfvs compare`
cross-validate the DP against it, and solve falls back on it when the DP
exceeds its state budget on a component of at most max_n_subsets
vertices. Clarity wins over speed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ResourceError
from .graph import Graph


@dataclass(frozen=True)
class OracleBudget:
    """Hard cap keeping the exhaustive solver at desk scale."""

    max_n_subsets: int = 20


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
