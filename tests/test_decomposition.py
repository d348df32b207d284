import hashlib
import itertools
import random

import pytest

from diskfvs import (
    TreeDecomposition,
    ValidationError,
    blowup,
    build_intersection_graph,
    connected_components,
    contract,
    decompose_unweighted,
    from_edge_list,
    greedy_partition,
    induced_subgraph,
    make_nice,
    peel_degree_one,
    project,
    random_udg,
    validate_decomposition,
    weighted_width,
)
from diskfvs.decomposition import FORGET, INTRODUCE, JOIN, LEAF, BlowupGraph
from diskfvs.partition import ContractedGraph, class_weight
from diskfvs.solver import component_pipelines

from conftest import class_of, complete_graph, cycle_graph, exact_treewidth, path_graph


def random_graph(n, p, rng):
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def greedy_order(g, score):
    """Greedy elimination order by `score`; returns (order, width)."""
    adj = [set(a) for a in g.adj]
    alive = set(range(g.n))
    order, width = [], 0
    while alive:
        v = min(alive, key=lambda u: (score(adj, alive, u), u))
        nbrs = adj[v] & alive
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a] |= nbrs - {a}
        alive.discard(v)
        order.append(v)
    return order, width


def degree_score(adj, alive, u):
    return len(adj[u] & alive)


def fill_score(adj, alive, u):
    nbrs = adj[u] & alive
    return sum(1 for a in nbrs for b in nbrs if a < b and b not in adj[a])


def reference_decompose(h):
    """decompose_unweighted as it was, rescoring every alive vertex at each
    step: the reference for the incremental scores. Returns (tree, bags),
    tree[i] being node i's sorted neighbours; rooted() roots it at node 0."""
    if h.n == 0:
        return ((),), (frozenset(),)
    adj = [set(a) for a in h.adj]
    alive = set(range(h.n))
    pos, bags = {}, []
    while alive:
        v = min(alive, key=lambda u: (fill_score(adj, alive, u), u))
        pos[v] = len(bags)
        nbrs = adj[v] & alive
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        alive.discard(v)
    edges = [[] for _ in range(h.n)]
    for i in range(h.n - 1):
        parent = min((pos[w] for w in bags[i] if pos[w] > i), default=i + 1)
        edges[i].append(parent)
        edges[parent].append(i)
    return tuple(tuple(sorted(e)) for e in edges), tuple(bags)


def rooted(tree, bags):
    """The undirected tree of bags rooted at node 0: each node's children
    are its neighbours but its parent, in ascending id."""
    children = [()] * len(tree)
    seen = {0}
    order = [0]
    for u in order:
        children[u] = tuple(w for w in tree[u] if w not in seen)
        seen.update(children[u])
        order.extend(children[u])
    return TreeDecomposition(children=tuple(children), bags=bags)


def undirected(children):
    """Each node's neighbours in a children-list tree."""
    tree = [set(chs) for chs in children]
    for u, chs in enumerate(children):
        for c in chs:
            tree[c].add(u)
    return tree


def reference_project(td_b, bg):
    """project as it was: each class tested against each bag."""
    bags = tuple(
        frozenset(c for c, clique in enumerate(bg.cliques) if all(b in bag for b in clique))
        for bag in td_b.bags
    )
    return TreeDecomposition(children=td_b.children, bags=bags)


def reference_blowup(cg):
    """blowup as it was: every clique and cross pair through an edge list."""
    offsets = []
    total = 0
    for w in cg.weight:
        offsets.append(total)
        total += w
    cliques = tuple(
        tuple(range(offsets[i], offsets[i] + cg.weight[i])) for i in range(len(cg.weight))
    )
    edges = [(a, b) for clique in cliques for a, b in itertools.combinations(clique, 2)]
    for (u, v) in cg.base.edges():
        edges.extend((a, b) for a in cliques[u] for b in cliques[v])
    return BlowupGraph(graph=from_edge_list(total, edges), cliques=cliques)


def reference_contract(g, p):
    """contract as it was, for a valid partition: the class pairs of g's
    edges through an edge list."""
    owner = class_of(p)
    class_edges = {(owner[u], owner[v]) for (u, v) in g.edges() if owner[u] != owner[v]}
    return ContractedGraph(
        base=from_edge_list(len(p.classes), class_edges),
        weight=tuple(class_weight(len(c)) for c in p.classes),
    )


def reference_is_subtree(td, v):
    """Whether the bags holding v are connected in td's tree: one search."""
    tree = undirected(td.children)
    holders = {i for i, bag in enumerate(td.bags) if v in bag}
    start = min(holders)
    reach, stack = {start}, [start]
    while stack:
        for w in tree[stack.pop()]:
            if w in holders and w not in reach:
                reach.add(w)
                stack.append(w)
    return reach == holders


def pool_components(seeds):
    """(component, greedy partition) of each peeled component of pool-sized UDGs."""
    for seed in seeds:
        peeled = peel_degree_one(build_intersection_graph(random_udg(100, 1.0, seed))).reduced
        for comp in connected_components(peeled):
            g = induced_subgraph(peeled, comp)[0]
            yield g, greedy_partition(g)


def pool_blowups(seeds):
    """(contraction, blowup) of each peeled component of pool-sized UDGs."""
    for g, p in pool_components(seeds):
        cg = contract(g, p)
        yield cg, blowup(cg)


def friendship_graph(t):
    """t triangles on vertex 0; its greedy contraction is a star of degree t - 1."""
    return from_edge_list(
        2 * t + 1, [e for i in range(1, 2 * t, 2) for e in ((0, i), (0, i + 1), (i, i + 1))]
    )


def relabel_by_greedy_order(g, labelling):
    """Renumber g so vertex i is the i-th vertex of the named greedy order."""
    by_degree = greedy_order(g, degree_score)
    by_fill = greedy_order(g, fill_score)
    order = {
        "min-degree": by_degree,
        "min-fill": by_fill,
        "best": min(by_degree, by_fill, key=lambda ow: ow[1]),
    }[labelling][0]
    new_id = {v: i for i, v in enumerate(order)}
    return from_edge_list(g.n, [(new_id[u], new_id[v]) for u, v in g.edges()])


class TestDecompose:
    def test_tree_width_one(self):
        td = decompose_unweighted(path_graph(7))
        validate_decomposition(td, path_graph(7))
        assert td.width == 1

    def test_clique_width(self):
        td = decompose_unweighted(complete_graph(5))
        assert td.width == 4

    def test_cycle_width_two(self):
        td = decompose_unweighted(cycle_graph(6))
        validate_decomposition(td, cycle_graph(6))
        assert td.width == 2

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        td = decompose_unweighted(g)
        assert td.bags == (frozenset(),)
        validate_decomposition(td, g)

    # decompose_unweighted breaks ties toward the smaller id, so the vertex
    # labelling decides which decomposition it builds. Each case renumbers
    # the graphs along a greedy elimination order (min-degree, min-fill, or
    # whichever of the two is narrower) before decomposing.
    @pytest.mark.parametrize("labelling", ["min-degree", "min-fill", "best"])
    def test_always_valid(self, labelling):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), rng.choice([0.15, 0.3, 0.5]), rng)
            g = relabel_by_greedy_order(g, labelling)
            td = decompose_unweighted(g)
            validate_decomposition(td, g)

    def test_heuristic_at_least_exact(self):
        rng = random.Random(18)
        for _ in range(30):
            g = random_graph(rng.randint(1, 10), rng.choice([0.2, 0.4]), rng)
            td = decompose_unweighted(g)
            assert td.width >= exact_treewidth(g)

    def test_min_fill_exact_on_small_graphs(self):
        rng = random.Random(19)
        graphs = [random_graph(rng.randint(1, 9), rng.choice([0.25, 0.5, 0.7]), rng)
                  for _ in range(40)]
        # treewidth 3; min-degree elimination starts at vertex 1 and leaves
        # a K5, width 4
        graphs.append(from_edge_list(6, [
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 2),
            (1, 3), (1, 5), (2, 4), (3, 4), (4, 5),
        ]))
        for g in graphs:
            assert decompose_unweighted(g).width == exact_treewidth(g)

    def test_disconnected_graph(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        td = decompose_unweighted(g)
        validate_decomposition(td, g)

    def test_same_as_full_rescan(self):
        # the incremental scores give the same order, ties included, so the
        # same decomposition, bag for bag
        rng = random.Random(21)
        for _ in range(300):
            g = random_graph(rng.randint(1, 45), rng.uniform(0.02, 0.6), rng)
            assert decompose_unweighted(g) == rooted(*reference_decompose(g))

    def test_same_as_full_rescan_on_blown_components(self):
        for _, bg in pool_blowups(range(5)):
            assert decompose_unweighted(bg.graph) == rooted(*reference_decompose(bg.graph))

    @pytest.mark.parametrize("n, density, components, digest", [
        (60, 2.0, 1, "94c594af228c66c0019004b945035bcf3223ef37fa08fd7a6dd329eb05c49cd6"),
        (100, 3.0, 1, "8d930e5629dbfc85dfdf4bedb29c39e9194c8eb229f2fe606407950ab0643ec1"),
        (2000, 0.375, 122, "05bc5333b0633e157dd098acc03be7a9b52a333974e5883783a026136f32dc3f"),
    ], ids=["60-2.0-1", "100-3.0-1", "2000-0.375-1"])
    def test_nice_decompositions_pinned(self, n, density, components, digest):
        # every component's nice decomposition and weighted width: a change
        # to any decomposition stage changes the digest
        pipes = component_pipelines(build_intersection_graph(random_udg(n, density, 1)))
        h = hashlib.sha256()
        for _, pipe in pipes:
            nd = pipe.nice
            bags = tuple(tuple(sorted(b)) for b in nd.bags)
            h.update(repr((nd.kind, nd.vtx, bags, nd.children, pipe.weighted_width)).encode())
        assert (len(pipes), h.hexdigest()) == (components, digest)


class TestValidator:
    def test_single_full_bag_valid(self):
        g = cycle_graph(4)
        td = TreeDecomposition(children=((),), bags=(frozenset({0, 1, 2, 3}),))
        validate_decomposition(td, g)

    def test_edge_coverage_violation(self):
        g = cycle_graph(4)
        td = TreeDecomposition(
            children=((1,), ()), bags=(frozenset({0, 1}), frozenset({2, 3}))
        )
        # the first uncovered edge in g.edges() order: (0, 1), (0, 3), ...
        with pytest.raises(ValidationError, match=r"^edge \(0, 3\) covered by no bag$"):
            validate_decomposition(td, g)

    def test_subtree_violation(self):
        g = path_graph(3)
        td = TreeDecomposition(
            children=((1,), (2,), ()),
            bags=(frozenset({0, 1}), frozenset({1, 2}), frozenset({0})),
        )
        with pytest.raises(ValidationError, match="^bags of vertex 0 do not form a subtree$"):
            validate_decomposition(td, g)

    def test_uncovered_vertex(self):
        g = from_edge_list(3, [(0, 1)])
        td = TreeDecomposition(children=((),), bags=(frozenset({0, 1}),))
        with pytest.raises(ValidationError, match="^vertex 2 in no bag$"):
            validate_decomposition(td, g)

    def test_size_mismatch(self):
        td = TreeDecomposition(children=((1,), (), ()), bags=(frozenset({0}),) * 2)
        with pytest.raises(ValidationError, match="^tree/bag size mismatch$"):
            validate_decomposition(td, from_edge_list(1, []))

    @pytest.mark.parametrize("tree", [
        ((1,), (0,)),  # node 0 named as a child
        ((1, 2), (3,), (3,), ()),  # a node named by two parents
        ((1, 1), ()),  # a node named twice by one parent
        ((1,), (), ()),  # a node no list names
        ((1, 5), ()),  # an id >= nodes
        ((2,), ()),  # an id equal to nodes
        ((-1, 1), ()),  # a negative id
        ((1,), (1,)),  # a node naming itself
        ((0,),),  # the root naming itself
        ((), (2,), (1,)),  # a cycle that node 0 does not reach
        ((1,), (2,), (1,)),  # a cycle below node 0
    ])
    def test_not_a_tree(self, tree):
        td = TreeDecomposition(children=tree, bags=(frozenset({0}),) * len(tree))
        with pytest.raises(ValidationError, match="^decomposition tree is not a tree$"):
            validate_decomposition(td, from_edge_list(1, []))

    def test_subtree_check_matches_a_search_per_vertex(self):
        # random bags on random trees over an edgeless graph whose every
        # vertex is covered: only the subtree property can fail, and the
        # first vertex it names is the smallest breach. The nodes are
        # relabelled, so node 0, the root, lands anywhere in the shape.
        rng = random.Random(23)
        for _ in range(400):
            nodes = rng.randint(1, 9)
            label = list(range(nodes))
            rng.shuffle(label)
            tree = [[] for _ in range(nodes)]
            for i in range(1, nodes):
                j = rng.randrange(i)
                tree[label[i]].append(label[j])
                tree[label[j]].append(label[i])
            n = rng.randint(1, 6)
            bags = [frozenset(v for v in range(n) if rng.random() < 0.4) for _ in range(nodes)]
            bags[rng.randrange(nodes)] |= frozenset(range(n))
            td = rooted(tuple(tuple(sorted(a)) for a in tree), tuple(bags))
            broken = [v for v in range(n) if not reference_is_subtree(td, v)]
            if broken:
                with pytest.raises(
                    ValidationError, match=f"^bags of vertex {broken[0]} do not form a subtree$"
                ):
                    validate_decomposition(td, from_edge_list(n, []))
            else:
                validate_decomposition(td, from_edge_list(n, []))


class TestBlowup:
    def test_single_weight_one(self):
        g = from_edge_list(1, [])
        p = greedy_partition(g)
        bg = blowup(contract(g, p))
        assert bg.graph.n == 1 and bg.graph.m == 0

    def test_edge_weights_2_3_gives_k5(self):
        cg = ContractedGraph(
            base=from_edge_list(2, [(0, 1)]),
            weight=(2, 3),
        )
        bg = blowup(cg)
        assert bg.graph.n == 5
        assert bg.graph.m == 10  # complete graph on the two blown cliques
        assert bg.cliques == ((0, 1), (2, 3, 4))

    def test_blown_structure_from_pipeline(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        cg = contract(g, greedy_partition(g))
        bg = blowup(cg)
        assert bg.graph.n == sum(cg.weight)
        # blown cliques are cliques; adjacent classes fully connected
        for clique in bg.cliques:
            for i in range(len(clique)):
                for j in range(i + 1, len(clique)):
                    assert bg.graph.has_edge(clique[i], clique[j])
        for (u, v) in cg.base.edges():
            for a in bg.cliques[u]:
                for b in bg.cliques[v]:
                    assert bg.graph.has_edge(a, b)

    def test_same_as_edge_list_reference(self):
        for cg, bg in pool_blowups(range(5)):
            assert bg == reference_blowup(cg)
        rng = random.Random(24)
        for _ in range(200):
            base = random_graph(rng.randint(0, 12), rng.uniform(0.05, 0.6), rng)
            cg = ContractedGraph(base=base, weight=tuple(rng.randint(1, 4) for _ in range(base.n)))
            assert blowup(cg) == reference_blowup(cg)

    def test_triangle_weights_one_unchanged(self):
        g = cycle_graph(3)
        p = greedy_partition(g)
        cg = contract(g, p)
        if all(w == 1 for w in cg.weight):
            bg = blowup(cg)
            assert bg.graph.adj == cg.base.adj


class TestContract:
    def test_same_as_edge_list_reference(self):
        for g, p in pool_components(range(5)):
            assert contract(g, p) == reference_contract(g, p)
        rng = random.Random(25)
        for _ in range(200):
            g = random_graph(rng.randint(1, 25), rng.uniform(0.05, 0.6), rng)
            p = greedy_partition(g)
            assert contract(g, p) == reference_contract(g, p)

    def test_friendship_star(self):
        g = friendship_graph(42)
        p = greedy_partition(g)
        cg = contract(g, p)
        assert cg == reference_contract(g, p)
        assert max(len(a) for a in cg.base.adj) == 41
        assert blowup(cg) == reference_blowup(cg)


class TestProject:
    def _pipeline(self, g):
        p = greedy_partition(g)
        cg = contract(g, p)
        bg = blowup(cg)
        td_b = decompose_unweighted(bg.graph)
        return cg, bg, td_b

    def test_identity_when_all_weights_one(self):
        g = cycle_graph(3)
        cg, bg, td_b = self._pipeline(g)
        if all(w == 1 for w in cg.weight):
            td = project(td_b, bg)
            # blown ids coincide with class ids here
            assert td.bags == td_b.bags

    def test_single_class_weight_collapses(self):
        g = complete_graph(4)  # one class, weight 3
        cg, bg, td_b = self._pipeline(g)
        td = project(td_b, bg)
        validate_decomposition(td, cg.base)
        assert weighted_width(td, cg) == cg.weight[0]

    def test_projected_width_bound(self):
        rng = random.Random(20)
        for _ in range(25):
            g = random_graph(rng.randint(2, 12), rng.choice([0.2, 0.4]), rng)
            if g.n == 0:
                continue
            cg, bg, td_b = self._pipeline(g)
            td = project(td_b, bg)
            validate_decomposition(td, cg.base)
            assert weighted_width(td, cg) <= td_b.width + 1

    def test_c6_pipeline_weighted_width(self):
        g = cycle_graph(6)
        cg, bg, td_b = self._pipeline(g)
        td = project(td_b, bg)
        validate_decomposition(td, cg.base)
        assert weighted_width(td, cg) <= 6

    def test_counting_matches_the_whole_clique_rule(self):
        rng = random.Random(22)
        for _ in range(100):
            g = random_graph(rng.randint(1, 30), rng.uniform(0.05, 0.5), rng)
            cg, bg, td_b = self._pipeline(g)
            assert project(td_b, bg) == reference_project(td_b, bg)
        for cg, bg in pool_blowups(range(5)):
            td_b = decompose_unweighted(bg.graph)
            assert project(td_b, bg) == reference_project(td_b, bg)

    def test_c6_paired_contraction_weight_two(self):
        # triangle of weight-2 classes: blowup is a 6-vertex graph whose
        # projected decomposition must stay within weighted width 6
        from diskfvs import KappaPartition

        g = cycle_graph(6)
        cg = contract(g, KappaPartition(classes=((0, 1), (2, 3), (4, 5))))
        assert cg.weight == (2, 2, 2)
        bg = blowup(cg)
        td = project(decompose_unweighted(bg.graph), bg)
        validate_decomposition(td, cg.base)
        assert weighted_width(td, cg) <= 6


class TestWeightedWidth:
    def test_examples(self):
        from diskfvs import KappaPartition

        g = complete_graph(5)
        cg = contract(g, KappaPartition(classes=((0, 1, 2, 3, 4),)))  # weight 4
        td = TreeDecomposition(children=((),), bags=(frozenset({0}),))
        assert weighted_width(td, cg) == 4

    def test_two_bags(self):
        cg = ContractedGraph(
            base=from_edge_list(2, [(0, 1)]),
            weight=(1, 2),
        )
        td = TreeDecomposition(
            children=((1,), ()), bags=(frozenset({0}), frozenset({0, 1}))
        )
        assert weighted_width(td, cg) == 3

    def test_empty(self):
        g = from_edge_list(0, [])
        cg = ContractedGraph(base=g, weight=())
        td = TreeDecomposition(children=((),), bags=(frozenset(),))
        assert weighted_width(td, cg) == 0


class TestMakeNice:
    def test_single_bag_chain(self):
        td = TreeDecomposition(children=((),), bags=(frozenset({0, 1}),))
        nd = make_nice(td)
        kinds = [nd.kind[i] for i in range(nd.node_count())]
        assert kinds.count(LEAF) == 1
        assert kinds.count(INTRODUCE) == 2
        assert kinds.count(FORGET) == 2
        assert nd.bags[0] == frozenset()

    def test_join_children_identical_bags(self):
        g = cycle_graph(6)
        td = decompose_unweighted(g)
        nd = make_nice(td)
        for i in range(nd.node_count()):
            if nd.kind[i] == JOIN:
                a, b = nd.children[i]
                assert nd.bags[a] == nd.bags[b] == nd.bags[i]

    def test_unit_changes_and_validity(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.4]), rng)
            td = decompose_unweighted(g)
            nd = make_nice(td)
            validate_decomposition(nd, g)
            for i in range(nd.node_count()):
                kind = nd.kind[i]
                if kind == LEAF:
                    assert nd.bags[i] == frozenset()
                    assert nd.children[i] == ()
                elif kind == INTRODUCE:
                    (c,) = nd.children[i]
                    assert nd.bags[i] == nd.bags[c] | {nd.vtx[i]}
                    assert nd.vtx[i] not in nd.bags[c]
                elif kind == FORGET:
                    (c,) = nd.children[i]
                    assert nd.bags[i] == nd.bags[c] - {nd.vtx[i]}
                    assert nd.vtx[i] in nd.bags[c]
                else:
                    assert kind == JOIN and len(nd.children[i]) == 2

    def test_every_vertex_forgotten_once(self):
        g = cycle_graph(8)
        nd = make_nice(decompose_unweighted(g))
        forgets = {}
        for i in range(nd.node_count()):
            if nd.kind[i] == FORGET:
                forgets[nd.vtx[i]] = forgets.get(nd.vtx[i], 0) + 1
        assert forgets == {v: 1 for v in range(8)}

    def test_node_count_bound(self):
        rng = random.Random(22)
        for _ in range(25):
            g = random_graph(rng.randint(1, 14), rng.choice([0.15, 0.35]), rng)
            td = decompose_unweighted(g)
            nd = make_nice(td)
            assert nd.node_count() <= 8 * (td.width + 2) * (td.node_count() + 1)

    def test_path_decomposition_of_p4(self):
        g = path_graph(4)
        nd = make_nice(decompose_unweighted(g))
        validate_decomposition(nd, g)


class TestPipelineOnGeometry:
    def test_full_pipeline_validates_on_udgs(self):
        for seed in range(20):
            objs = random_udg(16, [0.2, 0.5][seed % 2], seed)
            g = peel_degree_one(build_intersection_graph(objs)).reduced
            if g.n == 0:
                continue
            p = greedy_partition(g)
            cg = contract(g, p)
            bg = blowup(cg)
            td_b = decompose_unweighted(bg.graph)
            td = project(td_b, bg)
            validate_decomposition(td, cg.base)
            nd = make_nice(td)
            validate_decomposition(nd, cg.base)
