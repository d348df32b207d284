import itertools

import pytest

from diskfvs import (
    ResourceError,
    from_edge_list,
    induced_subgraph,
    is_forest,
    min_fvs_bruteforce,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    exact_treewidth,
    naive_has_cycle,
    path_graph,
)


class TestMinFvs:
    def test_path(self):
        assert min_fvs_bruteforce(path_graph(6))[0] == 0

    def test_c5(self):
        assert min_fvs_bruteforce(cycle_graph(5))[0] == 1

    def test_k4(self):
        assert min_fvs_bruteforce(complete_graph(4))[0] == 2

    def test_k5(self):
        assert min_fvs_bruteforce(complete_graph(5))[0] == 3

    def test_k33(self):
        g = complete_bipartite(3, 3)
        # no single deletion works, some pair does
        for v in range(6):
            keep = [u for u in range(6) if u != v]
            sub, _, _ = induced_subgraph(g, keep)
            assert naive_has_cycle(sub)
        size, witness = min_fvs_bruteforce(g)
        assert size == 2
        keep = [u for u in range(6) if u not in witness]
        sub, _, _ = induced_subgraph(g, keep)
        assert not naive_has_cycle(sub)

    def test_witness_is_lexicographically_first(self):
        g = cycle_graph(4)
        _, witness = min_fvs_bruteforce(g)
        assert sorted(witness) == [0]

    def test_witness_valid_and_minimal(self):
        import random

        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 10)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            g = from_edge_list(n, edges)
            size, witness = min_fvs_bruteforce(g)
            keep = [v for v in range(n) if v not in witness]
            sub, _, _ = induced_subgraph(g, keep)
            assert is_forest(sub)
            for smaller in itertools.combinations(range(n), max(size - 1, 0)):
                keep = [v for v in range(n) if v not in smaller]
                sub, _, _ = induced_subgraph(g, keep)
                assert size == 0 or not is_forest(sub)

    def test_budget_enforced(self):
        g = from_edge_list(25, [(i, i + 1) for i in range(24)])
        with pytest.raises(ResourceError):
            min_fvs_bruteforce(g, max_n=20)


class TestExactTreewidth:
    def test_tree(self):
        assert exact_treewidth(path_graph(6)) == 1

    def test_c6(self):
        assert exact_treewidth(cycle_graph(6)) == 2

    def test_k5(self):
        assert exact_treewidth(complete_graph(5)) == 4

    def test_single_vertex(self):
        assert exact_treewidth(from_edge_list(1, [])) == 0

    def test_k33(self):
        assert exact_treewidth(complete_bipartite(3, 3)) == 3

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            exact_treewidth(path_graph(13))
