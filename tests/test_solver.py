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

from conftest import complete_graph, cycle_graph, graft_leaf_bags, path_graph


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
            for cls, cover in zip(p.classes, p.clique_cover):
                s = len(cls)
                sels = local_selections(cls, cover)
                assert len(sels) == 1 + s + s * (s - 1) // 2
                for sel in sels:
                    assert len(sel) <= 2
                    assert is_forest(induced_subgraph(g, sel)[0])


class TestDpRun:
    def test_single_bag_triangle(self):
        from diskfvs import dp_run, greedy_partition, make_nice
        from diskfvs.decomposition import TreeDecomposition

        g = complete_graph(3)
        p = greedy_partition(g)  # one class covering the whole clique
        assert p.classes == ((0, 1, 2),)
        nd = make_nice(TreeDecomposition(tree=((),), bags=(frozenset({0}),)))
        best, _ = dp_run(nd, g, p, mode="dp-naive", max_deletions=g.n)
        assert best == 2  # max induced forest, so min deletion is 1

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
            best, _ = dp_run(nd, g, p, mode=mode, max_deletions=g.n)
            assert best == 5

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
                for mode in ("dp-naive", "dp-rank"):
                    best, tables = dp_run(nd, g, p, mode=mode, max_deletions=g.n)
                    for node, table in enumerate(tables):
                        for kept, group in table.items():
                            per_class = Counter(p.class_of[v] for v in bits_of(kept))
                            assert set(per_class) <= nd.bags[node]
                            assert max(per_class.values(), default=0) <= 2
                            for part in group:
                                # nonempty disjoint blocks, sorted, covering kept
                                assert all(part) and list(part) == sorted(part)
                                assert sum(part) == kept
                                assert sum(b.bit_count() for b in part) == kept.bit_count()
                    assert len(reconstruct(tables, nd, g, p)) == g.n - best


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
            best, _ = dp_run(pipe.nice, g, pipe.partition, mode="dp-naive", max_deletions=g.n)
            assert g.n - best == min_fvs_bruteforce(g)[0]

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
                best, tables = dp_run(nd, g, part, mode=mode, max_deletions=g.n)
                assert g.n - best == oracle_min
                assert len(reconstruct(tables, nd, g, part)) == oracle_min
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
        g = build_intersection_graph(random_udg(60, 0.8, seed=3))
        components = len(connected_components(peel_degree_one(g).reduced))
        assert components >= 3
        sol = solve(g, SolveConfig(k=g.n))
        # the components the packing completion solved are never decomposed
        left_to_dp = components - sol.stats["bound_solved"]
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
            validate_decomposition(nd.to_tree_decomposition(), path_graph(2))


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

    def test_every_k_desk_scale(self):
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
                    pruned += sol.stats["pruned_rows"]
                    if sol.verdict == "yes":
                        assert len(sol.fvs) <= k
                        keep = [v for v in range(g.n) if v not in set(sol.fvs)]
                        assert is_forest(induced_subgraph(g, keep)[0])
        assert pruned > 0

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
                minimum = g.n - best
                for mode in ("dp-naive", "dp-rank"):
                    got, tables = dp_run(nd, g, p, mode=mode, max_deletions=minimum)
                    assert got == best
                    assert len(reconstruct(tables, nd, g, p)) == minimum
                    if minimum == 0:
                        continue
                    stats = {}
                    got, tables = dp_run(
                        nd, g, p, mode=mode, max_deletions=minimum - 1, stats=stats
                    )
                    assert got is None and not tables[nd.root]
                    assert stats["pruned_rows"] > 0
                    refuted += 1
        assert refuted > 10

    def test_min_fvs_only_when_every_component_is_exact(self):
        # two 5-cycles: every class has at most two vertices, so the bound is 0
        g = from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
        sol = solve(g, SolveConfig(k=1))
        assert (sol.verdict, sol.certificate) == ("no", "dp")
        assert "min_fvs" not in sol.stats and sol.stats["pruned_rows"] > 0
        sol = solve(g, SolveConfig(k=2))
        assert sol.verdict == "yes" and sol.stats["min_fvs"] == 2


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
        assert set(timings) == {"peel", "pipeline", "verify", "total"}
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
                # at k = n the DP either beats the greedy set or proves it minimal
                proven += sol.stats["greedy_optimal"]
                smaller += components - sol.stats["bound_solved"] - sol.stats["greedy_optimal"]
        assert smaller > 0 and proven > 0


def merged_partition(g):
    """greedy_partition with each class merged into one adjacent class.

    Classes are taken in order; each untaken class joins the smallest
    untaken class next to it, if any. Each result class is covered by its
    (at most two) greedy cliques, so the partition has kappa <= 2.
    """
    from diskfvs import greedy_partition

    p = greedy_partition(g)
    groups = []
    taken = set()
    for i, cls in enumerate(p.classes):
        if i in taken:
            continue
        nbrs = sorted({p.class_of[w] for v in cls for w in g.adj[v]} - taken - {i})
        groups.append([i] + nbrs[:1])
        taken.update(groups[-1])
    class_of = [0] * g.n
    for c, group in enumerate(groups):
        for v in (v for j in group for v in p.classes[j]):
            class_of[v] = c
    return KappaPartition(
        classes=tuple(tuple(sorted(v for j in grp for v in p.classes[j])) for grp in groups),
        class_of=tuple(class_of),
        clique_cover=tuple(tuple(p.classes[j] for j in grp) for grp in groups),
    )


class TestCoverCliques:
    """A class covered by several cliques keeps up to two vertices of each
    clique, and only cliques of more than two vertices add to the bound."""

    def test_merged_classes_every_k(self):
        from diskfvs import build_pipeline, connected_components, contract, dp_run, \
            reconstruct

        merged = 0
        for seed in range(40):
            g = build_intersection_graph(
                random_udg(8 + seed % 11, (1.0, 2.0)[seed % 2], seed)
            )
            peeled = peel_degree_one(g).reduced
            for comp in connected_components(peeled):
                sub, _, _ = induced_subgraph(peeled, comp)
                p = merged_partition(sub)
                contract(sub, p)
                merged += sum(len(cover) > 1 for cover in p.clique_cover)
                minimum, _ = min_fvs_bruteforce(sub)
                nd = build_pipeline(sub, p).nice
                for mode in ("dp-naive", "dp-rank"):
                    for k in range(sub.n + 1):
                        best, tables = dp_run(nd, sub, p, mode=mode, max_deletions=k)
                        if minimum > k:
                            assert best is None, (seed, mode, k)
                            continue
                        assert best == sub.n - minimum, (seed, mode, k)
                        assert len(reconstruct(tables, nd, sub, p)) == minimum
        assert merged >= 40

    def test_path_of_two_cliques_beside_a_triangle(self):
        from diskfvs import build_pipeline, dp_run, reconstruct

        # the path 0-1-2-3 as cliques (0, 1) and (2, 3), edge 3-4, triangle 4, 5, 6
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
        p = KappaPartition(
            classes=((0, 1, 2, 3), (4, 5, 6)),
            class_of=(0, 0, 0, 0, 1, 1, 1),
            clique_cover=(((0, 1), (2, 3)), ((4, 5, 6),)),
        )
        assert min_fvs_bruteforce(g)[0] == 1
        nd = build_pipeline(g, p).nice
        for mode in ("dp-naive", "dp-rank"):
            for k in (g.n, 1, 2):
                best, tables = dp_run(nd, g, p, mode=mode, max_deletions=k)
                assert best == 6, (mode, k)
                assert len(reconstruct(tables, nd, g, p)) == 1
            assert dp_run(nd, g, p, mode=mode, max_deletions=0)[0] is None


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
        # the first has one 16-vertex component that the packing completion
        # leaves to the DP: the cap raises however small the component
        for g in (build_intersection_graph(random_udg(16, 1.0, 0)),
                  random_graph(24, 0.5, random.Random(60))):
            with pytest.raises(ResourceError, match="safety cap"):
                solve(g, SolveConfig(k=g.n, mode="dp-rank"))

    def test_state_budget_raises_on_a_small_component(self):
        # one 10-vertex component whose DP, pruned against the greedy set,
        # still examines more than 10 states: the trip raises, however
        # small the component
        g = build_intersection_graph(random_udg(16, 1.0, 10))
        size, _ = min_fvs_bruteforce(g)
        with pytest.raises(ResourceError, match="state budget"):
            solve(g, SolveConfig(k=size, mode="dp-rank", state_budget=10))

    def test_state_budget_resource_error(self):
        rng = random.Random(61)
        g = random_graph(30, 0.4, rng)
        with pytest.raises(ResourceError):
            solve(g, SolveConfig(k=g.n, mode="dp-rank", state_budget=50))
