import random

import pytest

from diskfvs import (
    KappaPartition,
    ValidationError,
    build_intersection_graph,
    build_pipeline,
    connected_components,
    contract,
    from_edge_list,
    greedy_partition,
    induced_subgraph,
    is_forest,
    min_fvs_bruteforce,
    peel_degree_one,
    random_udg,
)
from diskfvs.partition import (
    class_weight,
    packing_bound,
    packing_cliques,
    packing_completion,
)

from conftest import complete_graph, cycle_graph, path_graph


def reference_greedy_partition(g):
    """Independent restatement of the clique rule for cross-checking.

    The next seed is the uncovered vertex of largest degree (smallest id on
    ties); the whole vertex order is then scanned, and an uncovered vertex
    joins when it is adjacent to every member so far, the seed included.
    """
    def rank(v):
        return (-len(g.adj[v]), v)

    order = sorted(range(g.n), key=rank)
    uncovered = set(range(g.n))
    classes = []
    while uncovered:
        seed = min(uncovered, key=rank)
        members = [seed]
        uncovered.discard(seed)
        for v in order:
            if v in uncovered and all(v in frozenset(g.adj[u]) for u in members):
                members.append(v)
                uncovered.discard(v)
        classes.append(tuple(sorted(members)))
    return sorted(classes)


def random_graph(n, p, rng):
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestGreedyPartition:
    def test_clique_single_class(self):
        p = greedy_partition(complete_graph(5))
        assert p.classes == ((0, 1, 2, 3, 4),)

    def test_c6_hand_simulation(self):
        # degrees all tie, so processing order is 0..5. Seed 0 scans its
        # uncovered neighbours 1, 5: 1 joins, 5 is not adjacent to 1. Seed 2
        # takes 3 (1 is covered); seed 4 takes 5 (3 is covered).
        p = greedy_partition(cycle_graph(6))
        assert p.classes == ((0, 1), (2, 3), (4, 5))
        cg = contract(cycle_graph(6), p)
        assert sorted(cg.base.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert cg.weight == (2, 2, 2)

    def test_edgeless_graph_singletons(self):
        g = from_edge_list(4, [])
        p = greedy_partition(g)
        assert p.classes == ((0,), (1,), (2,), (3,))

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(n, 0.3, rng)
            p = greedy_partition(g)
            assert sorted(p.classes) == reference_greedy_partition(g)

    def test_every_class_induces_a_clique(self):
        rng = random.Random(6)
        graphs = [random_graph(rng.randint(1, 14), 0.5, rng) for _ in range(40)]
        graphs += [
            build_intersection_graph(random_udg(40, 1.0, seed)) for seed in range(5)
        ]
        for g in graphs:
            p = greedy_partition(g)
            for cls in p.classes:
                for i in range(len(cls)):
                    for j in range(i + 1, len(cls)):
                        assert g.has_edge(cls[i], cls[j])
            # the classes partition the vertices
            assert sorted(v for cls in p.classes for v in cls) == list(range(g.n))


class TestContract:
    def test_singleton_partition_is_identity(self):
        g = cycle_graph(5)
        p = KappaPartition(classes=tuple((v,) for v in range(5)))
        cg = contract(g, p)
        assert cg.base.adj == g.adj
        assert cg.weight == (1, 1, 1, 1, 1)

    def test_c6_pairs_to_triangle_weight_two(self):
        g = cycle_graph(6)
        p = KappaPartition(classes=((0, 1), (2, 3), (4, 5)))
        cg = contract(g, p)
        assert sorted(cg.base.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert cg.weight == (2, 2, 2)

    def test_weight_formula(self):
        assert class_weight(1) == 1
        assert class_weight(2) == 2
        assert class_weight(5) == 4  # ceil(log2 5) + 1
        assert class_weight(8) == 4
        assert class_weight(9) == 5

    def test_invalid_partition_rejected(self):
        g = cycle_graph(4)
        p = KappaPartition(classes=((0, 2), (1, 3)))  # disconnected classes
        with pytest.raises(ValidationError):
            contract(g, p)

    def test_non_clique_cover_rejected(self):
        # the path 0-1-2 is connected, but (0, 1, 2) is not a clique of it
        g = path_graph(3)
        p = KappaPartition(classes=((0, 1, 2),))
        with pytest.raises(ValidationError, match="non-adjacent pair 0,2"):
            contract(g, p)
        with pytest.raises(ValidationError, match="non-adjacent pair 0,2"):
            build_pipeline(g, p)

    @pytest.mark.parametrize(
        "classes, match",
        [
            (((0, 1, 5), (2, 3)), "outside graph"),
            (((0, 1), (2,)), "uncovered vertices: \\[3\\]"),
            (((0, 1), (1, 2, 3)), "overlapping"),
            (((0, 1, 2, 3), ()), "class 1 is empty"),
        ],
    )
    def test_each_breach_rejected(self, classes, match):
        g = cycle_graph(4)
        p = KappaPartition(classes=classes)
        with pytest.raises(ValidationError, match=match):
            contract(g, p)


class TestPackingCompletion:
    """Keeping two vertices of each class and then breaking the cycles
    left greedily gives a feedback vertex set; it is a minimum when it has
    at most max(bound, 1) vertices, and inclusion-minimal otherwise."""

    def test_soundness_desk_scale(self):
        # the 40 desk-scale UDGs of test_solver.py::TestCliquePacking
        proven = above = 0
        for seed in range(40):
            objs = random_udg(6 + seed % 13, [0.2, 0.5, 1.0][seed % 3], seed)
            peeled = peel_degree_one(build_intersection_graph(objs)).reduced
            for comp in connected_components(peeled):
                g, _, _ = induced_subgraph(peeled, comp)
                p = greedy_partition(g)
                deleted = packing_completion(g, p)
                keep = [v for v in range(g.n) if v not in deleted]
                assert is_forest(induced_subgraph(g, keep)[0]), seed
                minimum = min_fvs_bruteforce(g)[0]
                assert len(deleted) >= minimum, seed
                # putting back any one deleted vertex closes a cycle
                for v in deleted:
                    assert not is_forest(g, deleted - {v}), (seed, v)
                if len(deleted) <= max(packing_bound(p), 1):
                    proven += 1
                    assert len(deleted) == minimum, seed
                else:
                    above += 1
        assert proven > 0 and above > 0

    def test_c4_declines(self):
        # the bound is 0; one vertex, the smallest id of equal degree, is
        # above it and still a minimum, since the cycle needs one deletion
        g = cycle_graph(4)
        p = greedy_partition(g)
        assert packing_bound(p) == 0
        assert packing_completion(g, p) == {0}

    def test_diamond_keeps_the_lowest_degrees(self):
        # triangle 0, 1, 2 plus vertex 3 adjacent to 0 and 1; keeping the
        # two smallest ids, 0 and 1, would leave the triangle 0, 1, 3
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        p = greedy_partition(g)
        assert packing_cliques(p) == [(0, 1, 2)]
        assert packing_completion(g, p) == {1}

    def test_prism_puts_back_a_vertex(self):
        # triangles 0, 1, 5 and 2, 3, 4 joined by 0-3, 1-2 and 4-5: the
        # completion deletes 5 and 4, then 0 from the 4-cycle 0, 1, 2, 3;
        # 5's one neighbour left is then 1, so 5 is put back, while 0 and 4
        # each have two neighbours on the path 1, 2, 3
        g = from_edge_list(6, [
            (0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5),
        ])
        p = greedy_partition(g)
        assert packing_cliques(p) == [(0, 1, 5), (2, 3, 4)]
        assert packing_completion(g, p) == {0, 4}


def shuffled_union(graphs, rng):
    """The disjoint union of graphs, its vertex ids shuffled so that the
    components interleave."""
    n = sum(g.n for g in graphs)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for g in graphs:
        edges += [(label[u + offset], label[v + offset]) for u, v in g.edges()]
        offset += g.n
    return from_edge_list(n, edges)


def per_component(g, p):
    """Yield (component, old_of_new, class ids inside it) for each component
    of g, the class ids in p's order."""
    for comp in connected_components(g):
        sub, old_of_new, _ = induced_subgraph(g, comp)
        inside = set(comp)
        ids = [i for i, cls in enumerate(p.classes) if cls[0] in inside]
        yield sub, old_of_new, ids


# the prism of test_prism_puts_back_a_vertex: its completion needs a put-back
PRISM_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)]


class TestWholeGraphFrontEnd:
    """One greedy_partition and one packing_completion of a disjoint union,
    restricted to each component, are the calls on each component alone:
    solve splits the whole peeled graph's bounds and completion by
    component."""

    def unions(self):
        rng = random.Random(21)
        for _ in range(30):
            pieces = [random_graph(rng.randint(1, 10), 0.4, rng) for _ in range(rng.randint(2, 5))]
            yield shuffled_union(pieces, rng)
        for seed in range(6):
            pieces = [
                peel_degree_one(build_intersection_graph(random_udg(30, d, seed + i))).reduced
                for i, d in enumerate((1.0, 1.5, 0.5))
            ]
            yield shuffled_union([g for g in pieces if g.n], rng)
        yield shuffled_union(
            [from_edge_list(6, PRISM_EDGES), complete_graph(4), cycle_graph(5)], rng
        )

    def test_partition_restricts_to_each_component(self):
        for g in self.unions():
            p = greedy_partition(g)
            seen = 0
            for sub, old_of_new, ids in per_component(g, p):
                own = greedy_partition(sub)
                assert [p.classes[i] for i in ids] == [
                    tuple(old_of_new[v] for v in cls) for cls in own.classes
                ]
                seen += len(ids)
            assert seen == len(p.classes)  # no class spans two components

    def test_completion_restricts_to_each_component(self):
        put_back = 0
        for g in self.unions():
            p = greedy_partition(g)
            whole = packing_completion(g, p)
            for sub, old_of_new, _ in per_component(g, p):
                own_p = greedy_partition(sub)
                own = packing_completion(sub, own_p)
                assert whole & set(old_of_new) == {old_of_new[v] for v in own}
            put_back += len(whole) > max(packing_bound(p), 1)
        assert put_back > 0

    def test_minimum_beside_a_put_back(self):
        # the prism needs its put-back ({5, 4, 0} becomes {0, 4}); K4's
        # set of two meets its bound, so the pass must leave it alone
        g = shuffled_union(
            [from_edge_list(6, PRISM_EDGES), complete_graph(4)], random.Random(5)
        )
        p = greedy_partition(g)
        assert packing_bound(p) == 4
        whole = packing_completion(g, p)
        sizes = {}
        for sub, old_of_new, _ in per_component(g, p):
            own_p = greedy_partition(sub)
            own = packing_completion(sub, own_p)
            assert whole & set(old_of_new) == {old_of_new[v] for v in own}
            sizes[sub.n] = (len(own), packing_bound(own_p))
        assert sizes == {6: (2, 2), 4: (2, 2)}
        assert len(whole) == 4


class TestValidatePartition:
    """contract() is the one check of the kappa-partition contract."""

    def test_greedy_output_clean_on_random_udgs(self):
        for seed in range(60):
            objs = random_udg(8 + seed % 12, [0.05, 0.2, 0.5][seed % 3], seed)
            g = build_intersection_graph(objs)
            if g.n == 0:
                continue
            contract(g, greedy_partition(g))

    def test_disconnected_class_reported(self):
        # a disconnected class is no clique
        g = cycle_graph(4)
        p = KappaPartition(classes=((0, 2), (1, 3)))
        with pytest.raises(ValidationError, match="non-adjacent pair 0,2 in class 0"):
            contract(g, p)

    def test_singleton_partition_always_valid(self):
        g = cycle_graph(5)
        contract(g, KappaPartition(classes=tuple((v,) for v in range(5))))

    def test_bad_cover_reported(self):
        g = from_edge_list(3, [(0, 1)])
        p = KappaPartition(classes=((0, 1, 2),))  # 0-2 and 1-2 are not edges
        with pytest.raises(ValidationError, match="non-adjacent pair 0,2 in class 0"):
            contract(g, p)
