import hashlib
import itertools
import random

import pytest

from diskfvs import (
    InternalError,
    KappaPartition,
    ResourceError,
    SolveConfig,
    ValidationError,
    build_intersection_graph,
    from_edge_list,
    induced_subgraph,
    is_forest,
    local_selections,
    min_fvs_bruteforce,
    peel_degree_one,
    random_udg,
    solve,
    validate_decomposition,
)

from conftest import (
    class_of,
    complete_graph,
    cycle_graph,
    graft_leaf_bags,
    path_graph,
    subtree_classes,
)


def random_graph(n, p, rng):
    return from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestLocalSelections:
    def test_single_triangle_clique(self):
        g = complete_graph(3)
        sels = local_selections((0, 1, 2), ((0, 1, 2),))
        assert sels == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_two_cliques_count(self):
        sels = local_selections((0, 1, 2), ((0,), (1, 2)))
        assert len(sels) == 2 * 4

    def test_singleton(self):
        assert local_selections((5,), ((5,),)) == [(), (5,)]

    def test_count_formula(self):
        rng = random.Random(2)
        for _ in range(20):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            start = 0
            cover = []
            for s in sizes:
                cover.append(tuple(range(start, start + s)))
                start += s
            cls = tuple(range(start))
            expected = 1
            for s in sizes:
                expected *= 1 + s + s * (s - 1) // 2
            assert len(local_selections(cls, tuple(cover))) == expected

    def test_greedy_classes_keep_at_most_two_all_acyclic(self):
        from diskfvs import greedy_partition

        for seed in range(5):
            g = build_intersection_graph(random_udg(60, 1.5, seed))
            p = greedy_partition(g)
            for cls in p.classes:
                s = len(cls)
                sels = local_selections(cls, (cls,))
                assert len(sels) == 1 + s + s * (s - 1) // 2
                for sel in sels:
                    assert len(sel) <= 2
                    assert is_forest(induced_subgraph(g, sel)[0])

    @pytest.mark.parametrize("size", range(1, 7))
    def test_dp_moves_follow_local_selections(self, monkeypatch, size):
        # the tracer counts selections and work units with local_selections,
        # so dp_run's kept subsets must be those, in that order
        from diskfvs import build_pipeline, dp_run, greedy_partition, solver
        from diskfvs.partition import kept_subsets
        from diskfvs.reduction import bits_of

        built = []

        def recording(q, r, nbr):
            out = kept_subsets(q, r, nbr)
            built.extend(out)
            return out

        monkeypatch.setattr(solver, "kept_subsets", recording)
        g = complete_graph(size)
        p = greedy_partition(g)
        assert p.classes == (tuple(range(size)),)
        dp_run(build_pipeline(g, p).nice, g, p, "dp-naive", g.n)
        q = p.classes[0]
        assert [tuple(bits_of(mask)) for mask, _, _ in built] == local_selections(q, (q,))
        nbr = [sum(1 << u for u in a) for a in g.adj]
        for mask, nbrs_a, nbrs_b in built:
            assert [nbrs_a, nbrs_b] == ([nbr[v] for v in bits_of(mask)] + [0, 0])[:2]


class TestDpRun:
    def test_single_bag_triangle(self):
        from diskfvs import dp_run, greedy_partition, make_nice
        from diskfvs.decomposition import TreeDecomposition

        g = complete_graph(3)
        p = greedy_partition(g)  # one class covering the whole clique
        assert p.classes == ((0, 1, 2),)
        nd = make_nice(TreeDecomposition(children=((),), bags=(frozenset({0}),)))
        root, _ = dp_run(nd, g, p, mode="dp-naive", max_deletions=g.n)
        assert root.bit_count() == 2  # max induced forest, so min deletion is 1

    def test_forest_keeps_everything(self):
        from diskfvs import dp_run, greedy_partition, make_nice
        from diskfvs.decomposition import decompose_unweighted
        from diskfvs import blowup, contract, project

        g = from_edge_list(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        p = greedy_partition(g)
        cg = contract(g, p)
        bg = blowup(cg)
        td = project(decompose_unweighted(bg.graph), bg)
        nd = make_nice(td)
        for mode in ("dp-naive", "dp-rank"):
            root, _ = dp_run(nd, g, p, mode=mode, max_deletions=g.n)
            assert root.bit_count() == 5

    def test_tables_keyed_by_kept_vertices(self):
        from collections import Counter

        from diskfvs import (
            build_pipeline, connected_components, dp_run, greedy_partition, reconstruct,
        )
        from diskfvs.reduction import bits_of

        for seed in range(3):
            peeled = peel_degree_one(build_intersection_graph(random_udg(60, 1.5, seed)))
            for comp in connected_components(peeled.reduced):
                g, _, _ = induced_subgraph(peeled.reduced, comp)
                pipe = build_pipeline(g, greedy_partition(g))
                nd, p = pipe.nice, pipe.partition
                owner = class_of(p)
                for mode in ("dp-naive", "dp-rank"):
                    root, tables = dp_run(nd, g, p, mode=mode, max_deletions=g.n)
                    assert root == tables[0][0][()]
                    for node, table in enumerate(tables):
                        for kept, group in table.items():
                            per_class = Counter(owner[v] for v in bits_of(kept))
                            assert set(per_class) <= nd.bags[node]
                            assert max(per_class.values(), default=0) <= 2
                            for part, forest in group.items():
                                # nonempty disjoint blocks, sorted, covering kept
                                assert all(part) and list(part) == sorted(part)
                                assert sum(part) == kept
                                assert sum(b.bit_count() for b in part) == kept.bit_count()
                                # the row's forest holds the kept vertices
                                assert forest & kept == kept
                    assert len(reconstruct(root, g)) == g.n - root.bit_count()

    def test_reconstruct_checks_the_root_row(self):
        from diskfvs import build_pipeline, dp_run, greedy_partition, reconstruct

        # two triangles sharing vertex 2
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        pipe = build_pipeline(g, greedy_partition(g))
        root, _ = dp_run(pipe.nice, g, pipe.partition, mode="dp-naive", max_deletions=g.n)
        assert root == 0b11011  # all but vertex 2
        assert reconstruct(root, g) == {2}
        # keep vertex 2 as well, which closes both triangles
        with pytest.raises(InternalError, match="does not induce a forest"):
            reconstruct(root | 0b100, g)

    def test_introduce_keeps_the_first_of_equal_rows(self):
        from diskfvs import dp_run
        from diskfvs.decomposition import FORGET, INTRODUCE, LEAF, NiceDecomposition

        # the 6-cycle a-u-b-w-c-x (a, b, c, u, w, x = 0..5), one class per
        # vertex, on a path that keeps a, b, c in every bag and introduces
        # and forgets u, then w, then introduces x
        g = from_edge_list(6, [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])
        p = KappaPartition(classes=tuple((v,) for v in range(6)))
        F, I = FORGET, INTRODUCE
        nd = NiceDecomposition(
            kind=(F, F, F, F, I, F, I, F, I, I, I, I, LEAF),
            vtx=(0, 1, 2, 5, 5, 4, 4, 3, 3, 2, 1, 0, None),
            bags=tuple(map(frozenset, (
                (), (0,), (0, 1), (0, 1, 2), (0, 1, 2, 5), (0, 1, 2), (0, 1, 2, 4),
                (0, 1, 2), (0, 1, 2, 3), (0, 1, 2), (0, 1), (0,), (),
            ))),
            children=tuple((i + 1,) for i in range(12)) + ((),),
        )
        _, tables = dp_run(nd, g, p, mode="dp-naive", max_deletions=g.n)
        # below x, keeping a, b, c: the row {a, b}{c} keeps u and comes first,
        # the row {a}{b, c} keeps w; both have four vertices
        assert list(tables[5][0b111].items())[1:3] == [
            ((0b11, 0b100), 0b1111), ((0b1, 0b110), 0b10111),
        ]
        # x joins both into the one block a, b, c, x with five vertices: the
        # first candidate, keeping u, stays
        assert tables[4][0b100111][(0b100111,)] == 0b101111

    @pytest.mark.parametrize("n, density, components, digest", [
        (60, 2.0, 1, "696ee0ba8c36f63a134880a4dffcd05fdcadcaf29eb381f066735d715a74a800"),
        (150, 1.5, 7, "c8bccd2b6a191676190559914f5530c0645071f6f216fd8eeda63522ba662287"),
    ], ids=["60-2.0-1", "150-1.5-1"])
    def test_tables_pinned(self, n, density, components, digest):
        # every component's DP tables (kept masks, partitions, forests and
        # their order) in both modes, with no floor and with the floor one
        # below the minimum: a change to any row changes the digest
        from diskfvs import component_pipelines, dp_run
        from diskfvs.solver import MODES

        pipes = component_pipelines(build_intersection_graph(random_udg(n, density, 1)))
        h = hashlib.sha256()
        for sub, pipe in pipes:
            for mode in MODES:
                root, tables = dp_run(pipe.nice, sub, pipe.partition, mode, sub.n)
                h.update(repr(tables).encode())
                minimum = sub.n - root.bit_count()
                tables = dp_run(pipe.nice, sub, pipe.partition, mode, minimum - 1)[1]
                h.update(repr(tables).encode())
        assert (len(pipes), h.hexdigest()) == (components, digest)

    def test_rank_reduction_keeps_row_order(self):
        # where rank reduction drops no row, dp-rank's tables are dp-naive's
        # in the same order: survivors keep their group's order, and a group
        # within its bound is left as it is
        from diskfvs import component_pipelines, dp_run

        def rows(tables):
            return [[(kept, list(group.items())) for kept, group in t.items()] for t in tables]

        compared = 0
        for seed in range(20):
            pipes = component_pipelines(build_intersection_graph(random_udg(100, 1.0, seed)))
            for sub, pipe in pipes:
                rank, naive = (
                    rows(dp_run(pipe.nice, sub, pipe.partition, mode, sub.n)[1])
                    for mode in ("dp-rank", "dp-naive")
                )
                if sum(len(g) for t in rank for _, g in t) == sum(len(g) for t in naive for _, g in t):
                    compared += 1
                    assert rank == naive, (seed, sub.n)
        # it drops no row on any of these 155 components
        assert compared == 155

    def test_rank_reduction_caps_every_kept_set(self):
        # on this instance dp-naive has kept sets over the 2^(s-1) bound, so
        # dp-rank drops rows; every kept set of at most REDUCE_MAX_GROUND
        # vertices is then within its bound, and the minimum is dp-naive's
        from diskfvs import component_pipelines, dp_run
        from diskfvs.reduction import REDUCE_MAX_GROUND

        def over_bound(tables):
            return [
                (kept, len(group)) for t in tables for kept, group in t.items()
                if kept.bit_count() <= REDUCE_MAX_GROUND
                and len(group) > 1 << max(kept.bit_count() - 1, 0)
            ]

        def row_total(tables):
            return sum(len(group) for t in tables for group in t.values())

        [(sub, pipe)] = component_pipelines(build_intersection_graph(random_udg(60, 2.0, 1)))
        (rank_root, rank), (naive_root, naive) = (
            dp_run(pipe.nice, sub, pipe.partition, mode, sub.n) for mode in ("dp-rank", "dp-naive")
        )
        assert over_bound(naive)
        assert over_bound(rank) == []
        assert row_total(rank) < row_total(naive)
        assert rank_root.bit_count() == naive_root.bit_count()


class TestSolveBasics:
    def test_c4_k1_yes_with_witness(self):
        sol = solve(cycle_graph(4), SolveConfig(k=1, mode="dp-rank"))
        assert sol.verdict == "yes"
        assert sol.fvs is not None and len(sol.fvs) == 1

    def test_two_triangles_k1_no(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        sol = solve(g, SolveConfig(k=1, mode="dp-rank"))
        assert sol.verdict == "no"
        sol2 = solve(g, SolveConfig(k=2, mode="dp-naive"))
        assert sol2.verdict == "yes" and len(sol2.fvs) == 2

    def test_forest_k0(self):
        sol = solve(path_graph(8), SolveConfig(k=0, mode="dp-naive"))
        assert sol.verdict == "yes" and sol.fvs == ()

    def test_empty_graph(self):
        sol = solve(from_edge_list(0, []), SolveConfig(k=0, mode="dp-rank"))
        assert sol.verdict == "yes" and sol.fvs == ()

    def test_single_bag_k3(self):
        sol = solve(complete_graph(3), SolveConfig(k=1, mode="dp-naive"))
        assert sol.verdict == "yes" and len(sol.fvs) == 1

    def test_oracle_mode_rejected(self):
        # the exhaustive solver is min_fvs_bruteforce, not a solve mode
        with pytest.raises(ValidationError):
            SolveConfig(k=1, mode="oracle")

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            SolveConfig(k=-1)
        with pytest.raises(ValidationError):
            SolveConfig(k=0, mode="nonsense")
        with pytest.raises(ValidationError):
            SolveConfig(k=0, state_budget=0)
        with pytest.raises(ValidationError):
            SolveConfig(k=0, mode="auto")


class TestSolveAgainstOracle:
    def test_random_graphs(self):
        rng = random.Random(51)
        for _ in range(120):
            g = random_graph(rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5]), rng)
            size, _ = min_fvs_bruteforce(g)
            w_naive = solve(g, SolveConfig(k=g.n, mode="dp-naive")).fvs
            w_rank = solve(g, SolveConfig(k=g.n, mode="dp-rank")).fvs
            assert size == len(w_naive) == len(w_rank)
            for witness in (w_naive, w_rank):
                keep = [v for v in range(g.n) if v not in set(witness)]
                sub, _, _ = induced_subgraph(g, keep)
                assert is_forest(sub)

    def test_unit_disk_graphs(self):
        for seed in range(60):
            objs = random_udg(6 + seed % 12, [0.05, 0.2, 0.5][seed % 3], seed)
            g = build_intersection_graph(objs)
            size, _ = min_fvs_bruteforce(g)
            assert len(solve(g, SolveConfig(k=g.n, mode="dp-naive")).fvs) == size
            assert len(solve(g, SolveConfig(k=g.n, mode="dp-rank")).fvs) == size

    def test_dp_run_on_random_graphs(self):
        from diskfvs import build_pipeline, dp_run, greedy_partition

        rng = random.Random(52)
        for _ in range(25):
            g = random_graph(rng.randint(2, 10), 0.35, rng)
            pipe = build_pipeline(g, greedy_partition(g))
            root, _ = dp_run(pipe.nice, g, pipe.partition, mode="dp-naive", max_deletions=g.n)
            assert g.n - root.bit_count() == min_fvs_bruteforce(g)[0]

    def test_join_heavy_decompositions(self):
        # natural elimination-order decompositions branch rarely, so force
        # joins by grafting redundant leaf bags onto every node
        from diskfvs import blowup, contract, decompose_unweighted, dp_run, \
            greedy_partition, make_nice, project, reconstruct, \
            validate_decomposition
        from diskfvs.decomposition import JOIN

        rng = random.Random(123)
        joins_seen = 0
        for trial in range(120):
            g = random_graph(rng.randint(2, 12), rng.choice([0.2, 0.35, 0.5]), rng)
            part = greedy_partition(g)
            cg = contract(g, part)
            bg = blowup(cg)
            td2 = graft_leaf_bags(project(decompose_unweighted(bg.graph), bg), rng)
            validate_decomposition(td2, cg.base)
            nd = make_nice(td2)
            joins_seen += sum(1 for k in nd.kind if k == JOIN)
            oracle_min, _ = min_fvs_bruteforce(g)
            for mode in ("dp-naive", "dp-rank"):
                root, _ = dp_run(nd, g, part, mode=mode, max_deletions=g.n)
                assert g.n - root.bit_count() == oracle_min
                assert len(reconstruct(root, g)) == oracle_min
        assert joins_seen > 100


class TestPipeline:
    def test_one_decomposition_check_per_component(self, monkeypatch):
        import diskfvs.decomposition as decomposition
        import diskfvs.solver as solver
        from diskfvs import connected_components

        calls = []
        for module in (solver, decomposition):
            real = module.validate_decomposition

            def counting(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "validate_decomposition", counting)
        # five components: the completion solves three, the search settles
        # the fourth and the DP solves the fifth
        g = build_intersection_graph(random_udg(60, 0.8, seed=55))
        components = len(connected_components(peel_degree_one(g).reduced))
        assert components >= 3
        sol = solve(g, SolveConfig(k=g.n))
        # the components the packing completion solved, or the search
        # proved, are never decomposed
        assert sol.stats["search_proven"] > 0
        left_to_dp = components - sol.stats["bound_solved"] - sol.stats["search_proven"]
        assert left_to_dp > 0
        assert len(calls) == left_to_dp

    def test_class_introduced_twice_on_one_branch_is_invalid(self):
        # dp_run commits the edge of classes 0 and 1 at nodes 4 and 2, both on
        # one root-to-leaf path: class 0 is introduced, forgotten and
        # introduced again. The subtree check build_pipeline runs refuses it.
        from diskfvs.decomposition import FORGET, INTRODUCE, LEAF, NiceDecomposition

        nd = NiceDecomposition(
            kind=(FORGET, FORGET, INTRODUCE, FORGET, INTRODUCE, INTRODUCE, LEAF),
            vtx=(0, 1, 0, 0, 1, 0, None),
            bags=tuple(map(frozenset, ((), (0,), (0, 1), (1,), (0, 1), (0,), ()))),
            children=((1,), (2,), (3,), (4,), (5,), (6,), ()),
        )
        with pytest.raises(ValidationError, match="subtree"):
            validate_decomposition(nd, path_graph(2))


class TestOnePartition:
    """solve partitions the peeled graph once; the search and the DP get each
    component's slice of it, relabelled to the component's subgraph."""

    def test_slices_equal_each_components_own_partition(self, monkeypatch):
        from diskfvs import greedy_partition, solver

        calls = 0
        searched, built = [], []  # (subgraph, partition) as solve passed them

        def counting(g):
            nonlocal calls
            calls += 1
            return greedy_partition(g)

        def recording(fn, into):
            def wrapper(g, p, *rest):
                into.append((g, p))
                return fn(g, p, *rest)

            return wrapper

        monkeypatch.setattr(solver, "greedy_partition", counting)
        monkeypatch.setattr(solver, "packing_search", recording(solver.packing_search, searched))
        monkeypatch.setattr(solver, "build_pipeline", recording(solver.build_pipeline, built))
        # the pool at k = n, and dense UDGs one below their minimum, where
        # the floor prunes the DP to a refutation (at k = n, seed 0's DP
        # runs about 25 times longer)
        cases = [(random_udg(100, 1.0, s), 100) for s in range(100)]
        cases += [(random_udg(100, 3.0, s), k) for s, k in ((0, 55), (1, 50), (2, 52))]
        for objs, k in cases:
            calls = 0
            solve(build_intersection_graph(objs), SolveConfig(k=k))
            assert calls == 1
        monkeypatch.undo()
        for g, p in searched + built:
            assert p == greedy_partition(g)
        assert len(searched) > 150 and len(built) > 40, (len(searched), len(built))


class TestDenseUdg:
    def test_naive_and_rank_agree_at_density_two(self):
        # 38 is also what the DP over the former star partition found
        g = build_intersection_graph(random_udg(100, 2.0, seed=1))
        for mode in ("dp-naive", "dp-rank"):
            sol = solve(g, SolveConfig(k=g.n, mode=mode))
            assert sol.certificate == "dp"
            assert len(sol.fvs) == 38


class TestSolveInvariants:
    def test_monotonicity(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_graph(rng.randint(1, 10), 0.35, rng)
            verdicts = [
                solve(g, SolveConfig(k=k, mode="dp-rank")).verdict
                for k in range(g.n + 1)
            ]
            if "yes" in verdicts:
                first = verdicts.index("yes")
                assert all(v == "yes" for v in verdicts[first:])

    def test_peeling_neutrality(self):
        rng = random.Random(54)
        for _ in range(20):
            g = random_graph(rng.randint(1, 12), 0.25, rng)
            red = peel_degree_one(g).reduced
            for k in (0, 1, 2):
                a = solve(g, SolveConfig(k=k, mode="dp-rank")).verdict
                b = solve(red, SolveConfig(k=k, mode="dp-rank")).verdict
                assert a == b

    def test_determinism(self):
        g = build_intersection_graph(random_udg(16, 0.5, 13))
        a = solve(g, SolveConfig(k=3, mode="dp-rank"))
        b = solve(g, SolveConfig(k=3, mode="dp-rank"))
        assert a.verdict == b.verdict and a.fvs == b.fvs

    def test_yes_witness_verified_on_original_graph(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_graph(rng.randint(1, 12), 0.3, rng)
            size, _ = min_fvs_bruteforce(g)
            sol = solve(g, SolveConfig(k=size, mode="dp-rank"))
            assert sol.verdict == "yes"
            assert len(sol.fvs) <= size
            keep = [v for v in range(g.n) if v not in set(sol.fvs)]
            sub, _, _ = induced_subgraph(g, keep)
            assert is_forest(sub)


class TestCliquePacking:
    """Every class is a clique and a forest keeps at most two vertices of a
    clique, so sum(|class| - 2) bounds the minimum from below."""

    def test_soundness_desk_scale(self):
        fired = 0
        for seed in range(40):
            objs = random_udg(6 + seed % 13, [0.2, 0.5, 1.0][seed % 3], seed)
            g = build_intersection_graph(objs)
            size, _ = min_fvs_bruteforce(g)
            for k in range(0, min(g.n, 6)):
                sol = solve(g, SolveConfig(k=k, mode="dp-rank"))
                if sol.certificate == "clique-packing":
                    fired += 1
                    assert sol.verdict == "no" and size > k, (seed, k)
                else:
                    assert sol.verdict == ("yes" if size <= k else "no")
        assert fired > 0  # the sweep must actually exercise the certificate

    def test_certificate_cliques_in_original_graph(self):
        # peeling and the component split both renumber vertices
        g = build_intersection_graph(random_udg(60, 1.5, seed=2))
        assert peel_degree_one(g).reduced.n < g.n
        sol = solve(g, SolveConfig(k=0))
        assert sol.verdict == "no" and sol.certificate == "clique-packing"
        cliques = sol.stats["cliques"]
        seen = set()
        for c in cliques:
            assert len(c) >= 3
            assert all(g.has_edge(u, v) for i, u in enumerate(c) for v in c[i + 1:])
            assert seen.isdisjoint(c)
            seen.update(c)
        assert sum(len(c) - 2 for c in cliques) == sol.stats["lower_bound"] > 0

    def test_k9_refuted_by_the_certificate(self):
        sol = solve(complete_graph(9), SolveConfig(k=0))
        assert sol.verdict == "no" and sol.certificate == "clique-packing"


class TestPruning:
    """Decision solves drop the DP rows whose deletions so far plus the
    clique-packing bound of everything still to come exceed k."""

    def test_every_k_desk_scale(self, monkeypatch):
        from diskfvs import build_pipeline, connected_components, dp_run, greedy_partition, solver

        outcomes = []  # what each clique-choice search of the sweep returned
        search = solver.packing_search

        def recording(*args):
            outcomes.append(search(*args))
            return outcomes[-1]

        monkeypatch.setattr(solver, "packing_search", recording)
        pruned = 0
        for seed in range(40):
            objs = random_udg(6 + seed % 13, [0.2, 0.5, 1.0][seed % 3], seed)
            g = build_intersection_graph(objs)
            size, _ = min_fvs_bruteforce(g)
            for mode in ("dp-naive", "dp-rank"):
                for k in range(g.n + 1):
                    sol = solve(g, SolveConfig(k=k, mode=mode))
                    assert sol.verdict == ("yes" if size <= k else "no"), (seed, mode, k)
                    assert sol.stats.get("min_fvs", size) == size
                    if sol.verdict == "yes":
                        assert len(sol.fvs) <= k
                        keep = [v for v in range(g.n) if v not in set(sol.fvs)]
                        assert is_forest(induced_subgraph(g, keep)[0])
            # the search settles the components whose DP the floor pruned
            # in these solves, so the floor is checked against the oracle on
            # each component's own DP: allowed the minimum it finds a set of
            # that size, allowed one vertex fewer none
            peeled = peel_degree_one(g).reduced
            for comp in connected_components(peeled):
                sub = induced_subgraph(peeled, comp)[0]
                p = greedy_partition(sub)
                nd = build_pipeline(sub, p).nice
                minimum = min_fvs_bruteforce(sub)[0]  # >= 1: a peeled component has a cycle
                for mode in ("dp-naive", "dp-rank"):
                    root, _ = dp_run(nd, sub, p, mode, minimum)
                    assert sub.n - root.bit_count() == minimum, (seed, mode)
                    stats = {}
                    assert dp_run(nd, sub, p, mode, minimum - 1, stats=stats)[0] is None
                    pruned += stats["pruned_rows"]
        assert pruned > 0
        assert outcomes.count(None) > 10, outcomes  # the sweep hit search refutations

    def test_dp_run_floor(self):
        from diskfvs import (
            build_pipeline, connected_components, dp_run, greedy_partition, reconstruct,
        )

        refuted = 0
        for seed in range(4):
            peeled = peel_degree_one(build_intersection_graph(random_udg(60, 1.0, seed)))
            for comp in connected_components(peeled.reduced):
                g, _, _ = induced_subgraph(peeled.reduced, comp)
                pipe = build_pipeline(g, greedy_partition(g))
                nd, p = pipe.nice, pipe.partition
                best, _ = dp_run(nd, g, p, mode="dp-naive", max_deletions=g.n)
                minimum = g.n - best.bit_count()
                for mode in ("dp-naive", "dp-rank"):
                    got, _ = dp_run(nd, g, p, mode=mode, max_deletions=minimum)
                    assert got.bit_count() == best.bit_count()
                    assert len(reconstruct(got, g)) == minimum
                    if minimum == 0:
                        continue
                    stats = {}
                    got, tables = dp_run(
                        nd, g, p, mode=mode, max_deletions=minimum - 1, stats=stats
                    )
                    assert got is None and not tables[0]
                    assert stats["pruned_rows"] > 0
                    refuted += 1
        assert refuted > 10

    def test_min_fvs_only_when_every_component_is_exact(self):
        # two cubes: every class has at most two vertices, so the bound is 0,
        # and each cube's minimum is 3, a slack the search does not take on.
        # At k = 5 the DP proves the first cube's greedy set minimal and
        # refutes the second within the 2 deletions left.
        cube = [(a, b) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1]
        g = from_edge_list(16, cube + [(8 + a, 8 + b) for a, b in cube])
        sol = solve(g, SolveConfig(k=5))
        assert (sol.verdict, sol.certificate) == ("no", "dp")
        assert "min_fvs" not in sol.stats and sol.stats["pruned_rows"] > 0
        sol = solve(g, SolveConfig(k=6))
        assert sol.verdict == "yes" and sol.stats["min_fvs"] == 6


class TestGreedyUpperBound:
    """packing_completion's feedback vertex set bounds every component from
    above: it is taken when it meets max(bound, 1), and otherwise the DP
    searches only for a strictly smaller set."""

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_chordless_cycle_skips_the_pipeline(self, monkeypatch, n):
        def no_pipeline(*args, **kwargs):
            raise AssertionError("build_pipeline called")

        monkeypatch.setattr("diskfvs.solver.build_pipeline", no_pipeline)
        sol = solve(cycle_graph(n), SolveConfig(k=n))
        assert sol.verdict == "yes" and len(sol.fvs) == 1
        assert sol.stats["bound_solved"] == 1 and sol.stats["min_fvs"] == 1

    def test_one_stats_record(self):
        # a clique-packing "no", a DP "no" and a "yes" fill the same keys;
        # only min_fvs and the verify timing depend on the answer
        udg = build_intersection_graph(random_udg(60, 1.0, 3))
        sols = [
            solve(complete_graph(9), SolveConfig(k=0)),
            solve(cycle_graph(4), SolveConfig(k=0)),
            solve(udg, SolveConfig(k=udg.n)),
        ]
        assert [(s.verdict, s.certificate) for s in sols] == [
            ("no", "clique-packing"), ("no", "dp"), ("yes", "dp"),
        ]
        assert "min_fvs" not in sols[0].stats and "min_fvs" in sols[2].stats
        keys = {
            (frozenset(s.stats) - {"min_fvs"}, frozenset(s.stats["timings"]) - {"verify"})
            for s in sols
        }
        assert len(keys) == 1
        assert sols[0].stats["cliques"] and sols[1].stats["cliques"] == []

    def test_final_verification_is_timed(self):
        g = build_intersection_graph(random_udg(60, 1.0, 3))
        sol = solve(g, SolveConfig(k=g.n))
        timings = sol.stats["timings"]
        assert sol.verdict == "yes"
        assert set(timings) == {"peel", "search", "pipeline", "verify", "total"}
        assert 0 <= timings["search"] <= timings["pipeline"]
        assert 0 <= timings["verify"] <= timings["total"] - timings["pipeline"]
        # no witness, nothing to verify
        assert "verify" not in solve(cycle_graph(4), SolveConfig(k=0)).stats["timings"]

    def test_bad_witness_fails_final_verification(self, monkeypatch):
        # an empty "feedback vertex set" of K4 passes every check before the
        # final one, which re-checks the witness against the input graph
        monkeypatch.setattr("diskfvs.solver.packing_completion", lambda g, p: frozenset())
        with pytest.raises(InternalError, match="final verification failed"):
            solve(complete_graph(4), SolveConfig(k=4))

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_chordless_cycle_k0_refuted_by_the_dp(self, n):
        # the one-vertex set does not fit k = 0, so the DP must refute
        sol = solve(cycle_graph(n), SolveConfig(k=0))
        assert (sol.verdict, sol.certificate) == ("no", "dp")
        assert sol.stats["bound_solved"] == 0

    def test_minimum_desk_scale(self):
        from diskfvs import connected_components

        # the greedy set is inclusion-minimal, and the DP first beats it at
        # seeds 53 and 55, so the range reaches past them
        smaller = proven = 0
        for seed in range(60):
            objs = random_udg(8 + seed % 11, (1.0, 2.0)[seed % 2], seed)
            g = build_intersection_graph(objs)
            size, _ = min_fvs_bruteforce(g)
            components = len(connected_components(peel_degree_one(g).reduced))
            for mode in ("dp-naive", "dp-rank"):
                sol = solve(g, SolveConfig(k=g.n, mode=mode))
                assert sol.stats["min_fvs"] == len(sol.fvs) == size, (seed, mode)
                assert sol.certificate == "dp"
                keep = [v for v in range(g.n) if v not in set(sol.fvs)]
                assert is_forest(induced_subgraph(g, keep)[0])
                # at k = n the search or the DP either beats the greedy set or
                # proves it minimal
                proven += sol.stats["greedy_optimal"]
                smaller += components - sol.stats["bound_solved"] - sol.stats["greedy_optimal"]
        assert smaller > 0 and proven > 0


def keeps_close_cycles(g, qa, qb):
    """Every way of keeping min(2, |q|) vertices of both cliques closes a
    cycle, by trying each."""
    return not any(
        is_forest(induced_subgraph(g, a + b)[0])
        for a in itertools.combinations(qa, min(2, len(qa)))
        for b in itertools.combinations(qb, min(2, len(qb)))
    )


class TestConflictPairs:
    """conflict_pairs finds disjoint pairs of classes that no forest keeps
    in full, and dp_run's floor counts the pairs with neither class in a
    node's subtree as deletions still owed."""

    @staticmethod
    def cases():
        """Peeled components of UDGs of at most 16 disks at densities 1 to
        3 and random graphs, each with its greedy partition."""
        from diskfvs import connected_components, greedy_partition

        cases = []
        for seed in range(150):
            objs = random_udg(6 + seed % 11, (1.0, 2.0, 3.0)[seed % 3], seed)
            peeled = peel_degree_one(build_intersection_graph(objs)).reduced
            for comp in connected_components(peeled):
                sub = induced_subgraph(peeled, comp)[0]
                cases.append((sub, greedy_partition(sub)))
        rng = random.Random(27)
        for _ in range(100):
            g = random_graph(rng.randint(1, 14), rng.choice([0.2, 0.4, 0.6]), rng)
            cases.append((g, greedy_partition(g)))
        return cases

    def test_pairs_desk_scale(self):
        # each pair conflicts, no two classes left unpaired do, the pairs
        # are disjoint, and each adds one to the packing bound
        from diskfvs.partition import conflict_pairs, packing_bound

        found = 0
        for g, p in self.cases():
            pairs = conflict_pairs(g, p)
            paired = [c for pair in pairs for c in pair]
            assert len(paired) == len(set(paired)), pairs
            for i, j in itertools.combinations(range(len(p.classes)), 2):
                if (i, j) in pairs or not (i in paired or j in paired):
                    conflict = keeps_close_cycles(g, p.classes[i], p.classes[j])
                    assert conflict == ((i, j) in pairs), (g, p, i, j)
            assert len(pairs) <= min_fvs_bruteforce(g)[0] - packing_bound(p), (g, p)
            found += len(pairs)
        assert found > 50, found

    def test_owed_within_the_outside_shortfall(self):
        # at every nice node, the pairs with neither class in the subtree
        # number at most what the classes outside must fall short by: their
        # induced subgraph's minimum less their packing bound
        from diskfvs import build_pipeline
        from diskfvs.partition import conflict_pairs

        checked = 0
        for g, p in self.cases():
            pairs = conflict_pairs(g, p)
            if not pairs:
                continue
            exact = {}
            for below in subtree_classes(build_pipeline(g, p).nice):
                owed = sum(1 for a, b in pairs if a not in below and b not in below)
                if not owed:
                    continue
                outside = frozenset(range(len(p.classes))) - below
                if outside not in exact:
                    sub = induced_subgraph(g, [v for c in outside for v in p.classes[c]])[0]
                    bound = sum(max(0, len(p.classes[c]) - 2) for c in outside)
                    exact[outside] = min_fvs_bruteforce(sub)[0] - bound
                assert owed <= exact[outside], (g, p, below)
                checked += 1
        assert checked > 150, checked

    def test_floor_on_the_pool(self, monkeypatch):
        # every component of pool graphs 0-139 that reaches the DP at k = n:
        # the DP allowed its minimum finds a set of that size, and allowed
        # one vertex fewer finds none
        from diskfvs import dp_run, solver

        reached = []

        def capture(nd, g, p, mode, max_deletions, *rest):
            reached.append((nd, g, p))
            return dp_run(nd, g, p, mode, max_deletions, *rest)

        monkeypatch.setattr(solver, "dp_run", capture)
        for seed in range(140):
            solve(build_intersection_graph(random_udg(100, 1.0, seed)), SolveConfig(k=100))
        monkeypatch.undo()
        for nd, g, p in reached:
            stats = {}
            minimum = g.n - dp_run(nd, g, p, "dp-naive", g.n, stats=stats)[0].bit_count()
            assert stats["pruned_rows"] == 0  # max_deletions = g.n drops no row
            for mode in ("dp-naive", "dp-rank"):
                assert dp_run(nd, g, p, mode, minimum)[0].bit_count() == g.n - minimum
                assert dp_run(nd, g, p, mode, minimum - 1)[0] is None
        assert len(reached) > 70, len(reached)


class TestPackingSearch:
    """packing_search looks for a feedback vertex set of at most bound +
    extra vertices by choosing a kept subset per class. It returns the
    kept mask of a set it finds, None when no set exists and -1 when it
    gives up at SEARCH_NODE_CAP."""

    def test_exact_desk_scale(self):
        from diskfvs import connected_components, greedy_partition
        from diskfvs.partition import packing_bound, packing_search

        # peeled components of desk-scale UDGs and unpeeled random graphs,
        # with their greedy partitions
        cases = []
        for seed in range(90):
            objs = random_udg(6 + seed % 13, (0.5, 1.0, 2.0)[seed % 3], seed)
            peeled = peel_degree_one(build_intersection_graph(objs)).reduced
            for comp in connected_components(peeled):
                sub = induced_subgraph(peeled, comp)[0]
                cases.append((sub, greedy_partition(sub)))
        rng = random.Random(62)
        for _ in range(150):
            g = random_graph(rng.randint(1, 14), rng.choice([0.2, 0.4, 0.6]), rng)
            cases.append((g, greedy_partition(g)))
        refuted, found = [0, 0, 0], [0, 0, 0]
        for g, p in cases:
            minimum = min_fvs_bruteforce(g)[0]
            bound = packing_bound(p)
            for extra in (0, 1, 2):
                kept = packing_search(g, p, extra)
                assert kept != -1  # no search here reaches SEARCH_NODE_CAP
                # a refutation exactly when the oracle's minimum is too large
                assert (kept is None) == (minimum > bound + extra), (g, p, extra)
                if kept is None:
                    refuted[extra] += 1
                    continue
                # a forest whose complement has bound + shortfall vertices
                keep = [v for v in range(g.n) if kept >> v & 1]
                assert kept >> g.n == 0 and is_forest(induced_subgraph(g, keep)[0])
                assert minimum <= g.n - len(keep) <= bound + extra, (g, p, extra)
                found[extra] += 1
        assert min(refuted) > 10 and min(found) > 10, (refuted, found)

    def test_refutation_matches_the_dp_on_the_pool(self):
        # every peeled component of pool graphs 0-119 whose greedy set leaves
        # the DP a slack of at most 1, as solve asks at k = n: a refutation
        # and a set at the bound are what the DP finds there
        from diskfvs import build_pipeline, connected_components, dp_run, greedy_partition
        from diskfvs.partition import packing_bound, packing_completion, packing_search

        asked = refuted = at_bound = 0
        for seed in range(120):
            g = build_intersection_graph(random_udg(100, 1.0, seed))
            peeled = peel_degree_one(g).reduced
            for comp in connected_components(peeled):
                sub = induced_subgraph(peeled, comp)[0]
                p = greedy_partition(sub)
                ub, bound = len(packing_completion(sub, p)), packing_bound(p)
                if ub <= max(bound, 1) or ub - 1 - bound > 1:
                    continue
                asked += 1
                kept = packing_search(sub, p, ub - 1 - bound)
                if kept is None:
                    refuted += 1
                    nd = build_pipeline(sub, p).nice
                    assert dp_run(nd, sub, p, "dp-naive", ub - 1)[0] is None, seed
                elif kept >= 0 and sub.n - kept.bit_count() == bound:
                    at_bound += 1
                    nd = build_pipeline(sub, p).nice
                    root, _ = dp_run(nd, sub, p, "dp-naive", sub.n)
                    assert sub.n - root.bit_count() == bound, seed
        assert refuted > 200 and at_bound > 5 and asked > refuted + at_bound, (
            asked, refuted, at_bound
        )

    def test_gives_up_past_the_node_cap(self, monkeypatch):
        # pool graph 106 peels to a 39-vertex component of 15 classes whose
        # greedy set of 15 is one above the bound: at extra 0 the search
        # needs 479 nodes to refute a set of 14, so at the default cap it
        # gives up, and the DP refutes that set instead
        from diskfvs import build_pipeline, connected_components, dp_run, greedy_partition
        from diskfvs.partition import (
            SEARCH_NODE_CAP,
            packing_bound,
            packing_completion,
            packing_search,
        )

        peeled = peel_degree_one(build_intersection_graph(random_udg(100, 1.0, 106))).reduced
        comp = next(c for c in connected_components(peeled) if len(c) == 39)
        sub = induced_subgraph(peeled, comp)[0]
        p = greedy_partition(sub)
        assert (len(p.classes), packing_bound(p), len(packing_completion(sub, p))) == (15, 14, 15)
        assert SEARCH_NODE_CAP == 200
        assert packing_search(sub, p, 0) == -1
        nd = build_pipeline(sub, p).nice
        for mode in ("dp-naive", "dp-rank"):
            assert dp_run(nd, sub, p, mode, 14)[0] is None
        monkeypatch.setattr("diskfvs.partition.SEARCH_NODE_CAP", 478)
        assert packing_search(sub, p, 0) == -1
        monkeypatch.setattr("diskfvs.partition.SEARCH_NODE_CAP", 479)
        assert packing_search(sub, p, 0) is None

    def test_a_set_above_the_bound_goes_to_the_dp(self):
        # pool graph 113 peels to a 17-vertex component of bound 6 whose
        # greedy set has 8 vertices: at extra 1 the search first finds a set
        # of 7, which proves nothing, and the DP finds the minimum, 6
        from diskfvs import connected_components, greedy_partition
        from diskfvs.partition import packing_bound, packing_completion, packing_search

        peeled = peel_degree_one(build_intersection_graph(random_udg(100, 1.0, 113))).reduced
        comp = next(c for c in connected_components(peeled) if len(c) == 17)
        sub = induced_subgraph(peeled, comp)[0]
        p = greedy_partition(sub)
        assert (packing_bound(p), len(packing_completion(sub, p))) == (6, 8)
        assert sub.n - packing_search(sub, p, 1).bit_count() == 7
        sol = solve(sub, SolveConfig(k=sub.n))
        assert sol.stats["min_fvs"] == len(sol.fvs) == 6
        assert sol.stats["search_proven"] == 0 and sol.stats["weighted_width"] > 0

    def test_solve_falls_back_to_the_dp_past_the_cap(self, monkeypatch):
        # with the cap at 1 the search gives up on all but the smallest
        # cases, and the DP settles the components it settled before: the
        # same verdicts, minima and certificates, on "yes" and "no" alike
        graphs = [build_intersection_graph(random_udg(100, 1.0, seed)) for seed in range(20)]
        graphs += [build_intersection_graph(random_udg(20, 1.5, seed)) for seed in range(20)]
        cases = []
        for g in graphs:
            size = solve(g, SolveConfig(k=g.n)).stats["min_fvs"]
            cases += [(g, k) for k in (size - 1, size, round(0.24 * g.n), g.n)]
        answers, settled = [], {}
        for cap in (200, 1):
            monkeypatch.setattr("diskfvs.partition.SEARCH_NODE_CAP", cap)
            settled[cap] = 0
            for i, (g, k) in enumerate(cases):
                sol = solve(g, SolveConfig(k=k))
                settled[cap] += sol.stats["search_proven"]
                answer = (sol.verdict, sol.stats.get("min_fvs"), sol.certificate)
                if cap == 200:
                    answers.append(answer)
                assert answer == answers[i], (i, k)
        assert settled[1] < settled[200] // 4, settled


class TestThresholds:
    """Paths behind the bound: the DP, the width safety cap and the state
    budget, each reached at a k the clique-packing bound cannot reject."""

    def test_disabled_by_default(self):
        # one 16-vertex component that the packing completion leaves to the DP
        g = build_intersection_graph(random_udg(16, 1.0, 0))
        size, _ = min_fvs_bruteforce(g)
        sol = solve(g, SolveConfig(k=size, mode="dp-rank"))
        assert sol.stats["bound_solved"] == 0
        assert sol.certificate == "dp"

    def test_width_safety_cap_resource_error(self, monkeypatch):
        monkeypatch.setattr("diskfvs.solver.WIDTH_SAFETY_CAP", 1)
        # the first has one 17-vertex component that the packing completion
        # leaves to the DP: the cap raises however small the component. It
        # is asked one below its minimum, 8, where the greedy set does not
        # fit and the slack over the bound of 5 is beyond the search
        udg = build_intersection_graph(random_udg(20, 1.5, 6))
        for g, k in ((udg, min_fvs_bruteforce(udg)[0] - 1),
                     (random_graph(24, 0.5, random.Random(60)), 24)):
            with pytest.raises(ResourceError, match="safety cap"):
                solve(g, SolveConfig(k=k, mode="dp-rank"))

    def test_state_budget_raises_on_a_small_component(self):
        # one 9-vertex component whose DP, pruned against the greedy set,
        # still examines more than 10 states: the trip raises, however
        # small the component
        g = build_intersection_graph(random_udg(20, 1.5, 14))
        size, _ = min_fvs_bruteforce(g)
        with pytest.raises(ResourceError, match="state budget"):
            solve(g, SolveConfig(k=size, mode="dp-rank", state_budget=10))

    @pytest.mark.parametrize("n,density,seed,budget,work", [
        (20, 1.5, 14, 10, 11),
        (60, 2.0, 1, 2_000, 2_001),
        (60, 2.0, 1, 15_142, 15_144),
    ], ids=["20-1.5-14-budget-10", "60-2.0-1-budget-2000", "60-2.0-1-budget-15142"])
    def test_state_budget_trips_at_a_fixed_point(self, n, density, seed, budget, work):
        # the budget is charged per selection of an introduced class, per
        # child group at a forget and per pair of groups at a join, so the
        # work counted when it trips is fixed by the instance
        g = build_intersection_graph(random_udg(n, density, seed))
        message = (
            f"DP state budget exceeded ({work} > {budget}); "
            "the instance's weighted width makes the table infeasible"
        )
        with pytest.raises(ResourceError) as info:
            solve(g, SolveConfig(k=g.n, state_budget=budget))
        assert str(info.value) == message

    def test_state_budget_resource_error(self):
        rng = random.Random(61)
        g = random_graph(30, 0.4, rng)
        with pytest.raises(ResourceError):
            solve(g, SolveConfig(k=g.n, mode="dp-rank", state_budget=50))


class TestSparseSolvePinned:
    """solve's full answer on three 2000-disk sparse UDGs of a hundred or so
    components: at k = n, at one below the minimum and at one below the
    clique-packing bound. The figures were read off the per-component front
    end (one partition and one packing completion per component); the
    whole-graph pass must repeat them. weighted_width and pruned_rows cover
    only the components that reach the DP, so they move with the packing
    search that settles components before it, and pruned_rows also with
    the DP's floor; on these three the search settles every component the
    completion leaves, both at k = n and at k = min - 1, so both are 0. A
    list too long to spell out is pinned by its length and a sha256 prefix
    of its repr."""

    # seed -> (fvs at k = n, stats at k = n less timings, the stats that
    # differ at k = min - 1, cliques at k = lower_bound - 1)
    PINNED = {
        1: ((172, "d97aa97cd2086511"),
            {"cliques": [], "high_degree_count": 214, "class_count": 208,
             "weighted_width": 0, "pruned_rows": 0, "bound_solved": 110,
             "greedy_optimal": 12, "search_proven": 12, "lower_bound": 156,
             "min_fvs": 172},
            {"greedy_optimal": 11},
            (126, "b611823585aaa9c0")),
        2: ((145, "3081ffa185ed8369"),
            {"cliques": [], "high_degree_count": 139, "class_count": 175,
             "weighted_width": 0, "pruned_rows": 0, "bound_solved": 116,
             "greedy_optimal": 6, "search_proven": 6, "lower_bound": 137,
             "min_fvs": 145},
            {"greedy_optimal": 5},
            (122, "b364ffbfb3f4d603")),
        3: ((151, "cbfd60515050c263"),
            {"cliques": [], "high_degree_count": 150, "class_count": 181,
             "weighted_width": 0, "pruned_rows": 0, "bound_solved": 117,
             "greedy_optimal": 4, "search_proven": 5, "lower_bound": 143,
             "min_fvs": 151},
            {"bound_solved": 113, "greedy_optimal": 3, "search_proven": 4},
            (124, "c1f240f9531cbbc6")),
    }

    @staticmethod
    def pin(items):
        import hashlib

        return len(items), hashlib.sha256(repr(items).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_answer_and_stats(self, seed):
        fvs, stats, below, cliques = self.PINNED[seed]
        g = build_intersection_graph(random_udg(2000, 0.375, seed))
        sol = solve(g, SolveConfig(k=g.n))
        assert (sol.verdict, sol.certificate) == ("yes", "dp")
        assert self.pin(list(sol.fvs)) == fvs
        assert {k: v for k, v in sol.stats.items() if k != "timings"} == stats

        sol = solve(g, SolveConfig(k=fvs[0] - 1))
        assert (sol.verdict, sol.certificate, sol.fvs) == ("no", "dp", None)
        expected = {k: v for k, v in stats.items() if k != "min_fvs"}
        assert {k: v for k, v in sol.stats.items() if k != "timings"} == {**expected, **below}

        sol = solve(g, SolveConfig(k=stats["lower_bound"] - 1))
        assert (sol.verdict, sol.certificate, sol.fvs) == ("no", "clique-packing", None)
        assert self.pin(sol.stats["cliques"]) == cliques
        untouched = {
            "weighted_width": 0, "pruned_rows": 0, "bound_solved": 0, "greedy_optimal": 0,
            "search_proven": 0,
        }
        assert {k: v for k, v in sol.stats.items() if k not in ("timings", "cliques")} == {
            **{k: v for k, v in expected.items() if k != "cliques"}, **untouched
        }
