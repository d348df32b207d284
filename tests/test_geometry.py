import dataclasses
import hashlib
import math
import pickle
import random

import pytest

from diskfvs import (
    FatObject,
    InputError,
    ObjectSet,
    SolveConfig,
    build_intersection_graph,
    from_edge_list,
    induced_subgraph,
    is_forest,
    min_fvs_bruteforce,
    planted_yes_instance,
    random_udg,
    solve,
)
from diskfvs.fileio import serialize_objects
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
        # the whole Graph, so adjacency order and m must match the reference
        rng = random.Random(5)
        mixture = []
        for _ in range(150):
            # diameter d in [1, 2]: a disk of radius d/2 or a square of diagonal d
            d = 1.0 + rng.random()
            x, y = rng.uniform(-12.0, -0.01), rng.uniform(-12.0, -0.01)
            shape = disk(x, y, d / 2) if rng.random() < 0.5 else square(x, y, d / 2 ** 1.5)
            mixture.append(shape)
        cases = [random_udg([60, 120, 200][s % 3], [0.05, 0.2, 0.5][s % 3], s) for s in range(12)]
        cases += [random_udg(300, 3.0, s) for s in range(3)]
        lattices = [
            # unit disks at spacing 1: every tangency exact, every center a cell corner
            [disk(float(i), float(j)) for i in range(-4, 5) for j in range(-4, 5)],
            # unit-side squares at spacing 1 x 0.5
            [square(float(i), 0.5 * j, 0.5) for i in range(-3, 4) for j in range(-6, 7)],
            # all centers on one vertical line, then on one horizontal line
            [disk(2.5, 0.7 * i - 9.0) for i in range(30)],
            [disk(0.7 * i - 9.0, -2.5) for i in range(30)],
            [disk(-0.2, 0.3), disk(0.7, -0.1)],
        ]
        cases += [ObjectSet(objects=tuple(objects)) for objects in lattices]
        cases += [
            planted_yes_instance(5, 40, 0),
            ObjectSet(objects=tuple(mixture), alpha=1 / math.sqrt(2), gamma=2.0),
            random_udg(1, 0.3, 0),
        ]
        for objs in cases:
            n = len(objs.objects)
            assert build_intersection_graph(objs) == from_edge_list(n, naive_graph(objs))


class TestFatObject:
    def test_frozen_value_object(self):
        a = disk(1.5, -2.0)
        assert not hasattr(a, "__dict__")  # slotted
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.x = 0.0
        b = disk(1.5, -2.0)
        assert a == b and hash(a) == hash(b)
        assert a != disk(1.5, -2.0, 0.75)
        moved = dataclasses.replace(a, y=3.0)
        assert (moved.x, moved.y, moved.shape_tag) == (1.5, 3.0, "disk")
        with pytest.raises(InputError):  # replace runs __post_init__'s checks
            dataclasses.replace(a, outer_radius=0.6)
        s = square(0.0, 1.0, 0.5)
        for o in (a, s):
            back = pickle.loads(pickle.dumps(o))
            assert back == o and hash(back) == hash(o)

    def test_generator_output_pinned(self):
        text = serialize_objects(random_udg(20000, 0.375, 1))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "27dbee5eddfa50c1014f100f7cf903ae9b5ca02dd1203b91de99a008632cadd0"


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
                objs = planted_yes_instance(k, 14, seed)
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
        pa = planted_yes_instance(3, 25, 9)
        pb = planted_yes_instance(3, 25, 9)
        assert pa == pb

    def test_different_seeds_differ(self):
        assert random_udg(30, 0.2, 1) != random_udg(30, 0.2, 2)

    def test_generated_sets_validate(self):
        validate_object_set(random_udg(40, 0.2, 3))
        objs = planted_yes_instance(4, 30, 3)
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
        objs = planted_yes_instance(0, 18, 3)
        assert is_forest(build_intersection_graph(objs))

    def test_hub_deletion_leaves_forest(self):
        for seed in range(6):
            for k in (1, 2, 5, 9):
                objs = planted_yes_instance(k, 20, seed)
                g = build_intersection_graph(objs)
                n_path = len(objs.objects) - k
                sub, _, _ = induced_subgraph(g, range(n_path))
                assert is_forest(sub)

    def test_path_spacing(self):
        objs = planted_yes_instance(2, 24, 1)
        path = objs.objects[: len(objs.objects) - 2]
        for i in range(len(path) - 1):
            assert euclid(path[i], path[i + 1]) == pytest.approx(0.9)
        for i in range(len(path)):
            for j in range(i + 2, len(path)):
                assert euclid(path[i], path[j]) > 1.0

    def test_oracle_confirms_k1(self):
        objs = planted_yes_instance(1, 10, 2)
        g = build_intersection_graph(objs)
        size, _ = min_fvs_bruteforce(g, max_n=30)
        assert size == 1

    def test_oracle_confirms_k2_disjoint_hubs(self):
        objs = planted_yes_instance(2, 10, 4)
        g = build_intersection_graph(objs)
        size, _ = min_fvs_bruteforce(g, max_n=30)
        assert size == 2

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 9, 16, 25, 36])
    def test_family_graph(self, k):
        """A path plus k disjoint hubs, each on three consecutive path disks."""
        for path_len in (2, 10, 40, 300):
            for seed in range(3):
                objs = planted_yes_instance(k, path_len, seed)
                g = build_intersection_graph(objs)
                n_path = g.n - k
                assert n_path >= path_len
                assert all(g.has_edge(i, i + 1) for i in range(n_path - 1))
                for hub in range(n_path, g.n):
                    a = g.adj[hub][1]
                    assert g.adj[hub] == (a - 1, a, a + 1) and a + 1 < n_path
                assert g.m == n_path - 1 + 3 * k
                sol = solve(g, SolveConfig(k=k))
                assert sol.verdict == "yes" and sol.stats["min_fvs"] == k
