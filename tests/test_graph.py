import random

import pytest

from diskfvs import (
    InputError,
    count_high_degree,
    from_edge_list,
    induced_subgraph,
    is_forest,
    min_fvs_bruteforce,
    peel_degree_one,
)

from conftest import (
    complete_graph,
    cycle_graph,
    naive_has_cycle,
    path_graph,
    star_graph,
)


def random_graph(n, p, rng):
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestFromEdgeList:
    def test_duplicates_and_orientations_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))

    def test_cycle(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert all(len(a) == 2 for a in g.adj)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(2, [(0, 2)])

    def test_neighbour_sets_built_on_first_query(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert g.neighbors(1) == frozenset({0, 2})
        assert g == from_edge_list(3, [(1, 2), (0, 1)])

    def test_adjacency_sorted_and_symmetric(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng.randint(0, 10), 0.4, rng)
            for u in range(g.n):
                assert list(g.adj[u]) == sorted(set(g.adj[u]))
                for v in g.adj[u]:
                    assert u in g.adj[v]
            assert 2 * g.m == sum(len(a) for a in g.adj)


class TestPeel:
    def test_path_vanishes(self):
        res = peel_degree_one(path_graph(3))
        assert res.reduced.n == 0
        assert res.kept == ()

    def test_cycle_untouched(self):
        res = peel_degree_one(cycle_graph(4))
        assert res.reduced.n == 4
        assert res.kept == (0, 1, 2, 3)

    def test_star_vanishes(self):
        res = peel_degree_one(star_graph(3))
        assert res.reduced.n == 0
        assert res.kept == ()

    def test_min_degree_two_or_empty(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng.randint(1, 14), rng.choice([0.1, 0.25, 0.4]), rng)
            red = peel_degree_one(g).reduced
            assert red.n == 0 or min(len(a) for a in red.adj) >= 2

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), 0.3, rng)
            once = peel_degree_one(g).reduced
            again = peel_degree_one(once)
            assert again.kept == tuple(range(once.n))

    def test_preserves_min_fvs(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), rng.choice([0.15, 0.3]), rng)
            red = peel_degree_one(g).reduced
            assert min_fvs_bruteforce(g)[0] == min_fvs_bruteforce(red)[0]


class TestIsForest:
    def test_tree(self):
        assert is_forest(path_graph(5))

    def test_triangle(self):
        assert not is_forest(cycle_graph(3))

    def test_empty(self):
        assert is_forest(from_edge_list(0, []))

    def test_matches_naive_cycle_search(self):
        rng = random.Random(10)
        for _ in range(80):
            g = random_graph(rng.randint(0, 14), rng.choice([0.1, 0.2, 0.4]), rng)
            assert is_forest(g) == (not naive_has_cycle(g))

    def test_deleted_matches_induced_rest(self):
        rng = random.Random(12)
        for _ in range(200):
            g = random_graph(rng.randint(0, 14), rng.choice([0.1, 0.2, 0.4]), rng)
            deleted = [v for v in range(g.n) if rng.random() < 0.3]
            rest, _, _ = induced_subgraph(g, [v for v in range(g.n) if v not in deleted])
            assert is_forest(g, deleted) == is_forest(rest) == (not naive_has_cycle(rest))

    @pytest.mark.parametrize("v", [-1, 4])
    def test_deleted_out_of_range_rejected(self, v):
        with pytest.raises(InputError, match=f"vertex {v} not in graph of size 4"):
            is_forest(cycle_graph(4), [v])


class TestCountHighDegree:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle_graph(6), 0),
            (complete_graph(4), 4),
            (star_graph(3), 1),
        ],
    )
    def test_examples(self, g, expected):
        assert count_high_degree(g) == expected


class TestInducedSubgraph:
    def test_k4_minus_vertex(self):
        sub, old, new = induced_subgraph(complete_graph(4), [0, 1, 3])
        assert sub.n == 3 and sub.m == 3
        assert old == (0, 1, 3)
        assert new == {0: 0, 1: 1, 3: 2}

    def test_adjacent_pair_of_c4(self):
        sub, _, _ = induced_subgraph(cycle_graph(4), [0, 1])
        assert sub.m == 1

    def test_empty_selection(self):
        sub, old, new = induced_subgraph(cycle_graph(4), [])
        assert sub.n == 0 and sub.m == 0 and old == () and new == {}

    def test_matches_edge_list_reference(self):
        rng = random.Random(13)
        for trial in range(240):
            g = random_graph(rng.randint(0, 16), rng.choice([0.1, 0.3, 0.6]), rng)
            if trial % 8 == 0:
                s = []
            elif trial % 8 == 1:
                s = list(range(g.n))
            else:
                s = [v for v in range(g.n) if rng.random() < 0.5]
            rng.shuffle(s)
            old = tuple(sorted(s))
            new = {v: i for i, v in enumerate(old)}
            ref = from_edge_list(
                len(old), [(new[u], new[v]) for u, v in g.edges() if u in new and v in new]
            )
            sub, old_of_new, new_of_old = induced_subgraph(g, s)
            assert sub == ref
            assert old_of_new == old and new_of_old == new

    @pytest.mark.parametrize(
        "s,bad", [([0, 4], 4), ([5, 1, 4], 4), ([-2, 0, 9], -2), ([-1], -1)]
    )
    def test_out_of_range_names_first_bad_vertex(self, s, bad):
        with pytest.raises(InputError, match=f"vertex {bad} not in graph of size 4"):
            induced_subgraph(cycle_graph(4), s)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InputError, match="vertex 1 selected more than once"):
            induced_subgraph(complete_graph(3), [1, 1, 2])

    def test_full_selection_identity(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng.randint(0, 12), 0.3, rng)
            sub, old, _ = induced_subgraph(g, range(g.n))
            assert old == tuple(range(g.n))
            assert sub.adj == g.adj
