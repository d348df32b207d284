import math

import pytest

from diskfvs import (
    FatObject,
    InputError,
    ObjectSet,
    SolveConfig,
    build_intersection_graph,
    induced_subgraph,
    is_forest,
    min_fvs_bruteforce,
    planted_yes_instance,
    random_udg,
    solve,
)
from diskfvs.geometry import objects_intersect, validate_object_set

from conftest import cell_of, euclid, heavy_cells


def disk(x, y, r=0.5):
    return FatObject(x=x, y=y, inner_radius=r, outer_radius=r, shape_tag="disk")


def square(x, y, half_side):
    return FatObject(
        x=x, y=y,
        inner_radius=half_side,
        outer_radius=half_side * math.sqrt(2.0),
        shape_tag="square",
    )


def naive_graph(objs: ObjectSet):
    """All-pairs reference construction."""
    n = len(objs.objects)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if objects_intersect(objs.objects[i], objs.objects[j])
    }


class TestIntersection:
    def test_three_disks_path(self):
        objs = ObjectSet(objects=(disk(0, 0), disk(0.9, 0), disk(1.8, 0)))
        g = build_intersection_graph(objs)
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_tangency_counts(self):
        objs = ObjectSet(objects=(disk(0, 0), disk(1.0, 0)))
        g = build_intersection_graph(objs)
        assert g.m == 1

    def test_five_disks_in_one_cell(self):
        pts = [(0.05, 0.05), (0.1, 0.4), (0.3, 0.2), (0.45, 0.45), (0.2, 0.35)]
        objs = ObjectSet(objects=tuple(disk(x, y) for x, y in pts))
        g = build_intersection_graph(objs)
        assert g.m == 10

    def test_square_square_touching(self):
        objs = ObjectSet(
            objects=(square(0, 0, 0.5), square(1.0, 0, 0.5)),
            alpha=1 / math.sqrt(2),
            gamma=1.0,
        )
        assert build_intersection_graph(objs).m == 1

    def test_disk_square_corner(self):
        # disk center diagonal from square corner; touches iff within radius
        s = square(0, 0, 0.5)
        near = disk(1.0, 1.0, 0.5 * math.sqrt(2.0))
        far = disk(1.0, 1.0, 0.5)
        assert objects_intersect(s, near)
        assert not objects_intersect(s, far)

    def test_unknown_shape_rejected(self):
        with pytest.raises(InputError):
            FatObject(x=0, y=0, inner_radius=1, outer_radius=1, shape_tag="blob")

    @pytest.mark.parametrize(
        "bad, match",
        [
            (disk(math.nan, 0.0), "object 1: center"),
            (disk(0.0, -math.inf), "object 1: center"),
            (disk(0.0, 0.0, math.inf), "largest diameter must be finite"),
        ],
    )
    def test_non_finite_input_is_input_error(self, bad, match):
        # library-built sets skip parse_objects' finiteness check
        objs = ObjectSet(objects=(disk(5.0, 5.0), bad))
        with pytest.raises(InputError, match=match):
            build_intersection_graph(objs)

    def test_matches_all_pairs_on_generated_instances(self):
        for seed in range(12):
            n = [60, 120, 200][seed % 3]
            objs = random_udg(n, [0.05, 0.2, 0.5][seed % 3], seed)
            g = build_intersection_graph(objs)
            assert set(g.edges()) == naive_graph(objs)
        objs, _ = planted_yes_instance(5, 40, 0)
        g = build_intersection_graph(objs)
        assert set(g.edges()) == naive_graph(objs)


class TestGridClassification:
    """The heavy-cell count that acceptance criterion 5 checks the oracle
    against (tests/conftest.py)."""

    def test_three_centers_one_cell(self):
        objs = ObjectSet(objects=(disk(0.1, 0.1), disk(0.2, 0.2), disk(0.3, 0.3), disk(5, 5)))
        assert heavy_cells(objs) == frozenset({(0, 0)})
        assert cell_of(objs)[3] == (10, 10)

    def test_far_apart_all_light(self):
        objs = ObjectSet(objects=tuple(disk(2.0 * i, 0) for i in range(5)))
        assert heavy_cells(objs) == frozenset()
        assert len(set(cell_of(objs))) == 5

    def test_cell_mates_form_cliques(self):
        for seed in range(10):
            objs = random_udg(50, 0.5, seed)
            g = build_intersection_graph(objs)
            by_cell = {}
            for v, c in enumerate(cell_of(objs)):
                by_cell.setdefault(c, []).append(v)
            for members in by_cell.values():
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        assert g.has_edge(members[i], members[j])

    def test_heavy_cells_bounded_on_yes_instances(self):
        # yes at k implies at most k heavy cells and at most 3k vertices in them
        for seed in range(8):
            for k in (0, 1, 2, 3):
                objs, _ = planted_yes_instance(k, 14, seed)
                heavy = heavy_cells(objs)
                assert len(heavy) <= k
                in_heavy = sum(1 for c in cell_of(objs) if c in heavy)
                assert in_heavy <= 3 * k
        for seed in range(25):
            objs = random_udg(14, 0.5, seed)
            g = build_intersection_graph(objs)
            size, _ = min_fvs_bruteforce(g)
            heavy = heavy_cells(objs)
            assert len(heavy) <= size  # contrapositive of the yes-instance bound


class TestGenerators:
    def test_single_disk(self):
        objs = random_udg(1, 0.3, 0)
        assert build_intersection_graph(objs).m == 0

    def test_deterministic(self):
        a = random_udg(100, 0.1, 42)
        b = random_udg(100, 0.1, 42)
        assert a == b
        pa, _ = planted_yes_instance(3, 25, 9)
        pb, _ = planted_yes_instance(3, 25, 9)
        assert pa == pb

    def test_different_seeds_differ(self):
        assert random_udg(30, 0.2, 1) != random_udg(30, 0.2, 2)

    def test_generated_sets_validate(self):
        validate_object_set(random_udg(40, 0.2, 3))
        objs, _ = planted_yes_instance(4, 30, 3)
        validate_object_set(objs)

    def test_udg_regression_fixture(self):
        # frozen via the exhaustive oracle; the DP must keep agreeing
        objs = random_udg(12, 1.0, 7)
        g = build_intersection_graph(objs)
        assert (g.n, g.m) == (12, 8)
        size, witness = min_fvs_bruteforce(g)
        assert size == 1
        assert sorted(witness) == [0]
        assert len(solve(g, SolveConfig(k=g.n)).fvs) == 1

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            random_udg(0, 0.3, 0)
        with pytest.raises(InputError):
            random_udg(5, 0.0, 0)
        # an infinite density would put every disk at one point
        for density in (math.inf, math.nan):
            with pytest.raises(InputError, match="finite density"):
                random_udg(20, density, 0)
        with pytest.raises(InputError):
            planted_yes_instance(-1, 10, 0)
        with pytest.raises(InputError):
            planted_yes_instance(2, 1, 0)


class TestPlanted:
    def test_k0_is_forest(self):
        objs, _ = planted_yes_instance(0, 18, 3)
        assert is_forest(build_intersection_graph(objs))

    def test_hub_deletion_leaves_forest(self):
        for seed in range(6):
            for k in (1, 2, 5, 9):
                objs, _ = planted_yes_instance(k, 20, seed)
                g = build_intersection_graph(objs)
                n_path = len(objs.objects) - k
                sub, _, _ = induced_subgraph(g, range(n_path))
                assert is_forest(sub)

    def test_path_spacing(self):
        objs, _ = planted_yes_instance(2, 24, 1)
        path = objs.objects[: len(objs.objects) - 2]
        for i in range(len(path) - 1):
            assert euclid(path[i], path[i + 1]) == pytest.approx(0.9)
        for i in range(len(path)):
            for j in range(i + 2, len(path)):
                assert euclid(path[i], path[j]) > 1.0

    def test_oracle_confirms_k1(self):
        objs, _ = planted_yes_instance(1, 10, 2)
        g = build_intersection_graph(objs)
        size, _ = min_fvs_bruteforce(g, max_n=30)
        assert size == 1

    def test_oracle_confirms_k2_disjoint_hubs(self):
        objs, _ = planted_yes_instance(2, 10, 4)
        g = build_intersection_graph(objs)
        size, _ = min_fvs_bruteforce(g, max_n=30)
        assert size == 2
