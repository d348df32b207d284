import itertools
import random

from diskfvs import RepresentativeTable, from_edge_list, rank_reduce
from diskfvs.graph import connected_components, induced_subgraph, is_forest
from diskfvs.reduction import REDUCE_MAX_GROUND, attach, reduce_rows, transversal_vector

from conftest import all_partitions, block_masks, blocks_of, merge_blocks_acyclic


def optimum(rows, q_blocks, ground):
    """Best value among rows whose merge with q stays acyclic (maximizing)."""
    best = None
    for part, forest in rows.items():
        if merge_blocks_acyclic(blocks_of(part), q_blocks, ground):
            if best is None or forest.bit_count() > best:
                best = forest.bit_count()
    return best


def component_masks(g, kept):
    """The components of the subgraph kept induces, as vertex masks."""
    sub, old_of_new, _ = induced_subgraph(g, kept)
    return {sum(1 << old_of_new[i] for i in comp) for comp in connected_components(sub)}


class TestAttach:
    def test_against_is_forest(self):
        """On random graphs and kept forests, attach refuses exactly the
        vertices whose keeping closes a cycle, and otherwise returns the
        new forest's components with the vertex's own last."""
        rng = random.Random(34)
        seen = {"empty blocks": 0, "no kept neighbour": 0, "cycle": 0, "merge": 0}
        for _ in range(2000):
            n = rng.randint(1, 9)
            p = rng.random()
            g = from_edge_list(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            v = rng.randrange(n)
            kept = set()
            for u in rng.sample([u for u in range(n) if u != v], rng.randint(0, n - 1)):
                if is_forest(g, set(range(n)) - kept - {u}):
                    kept.add(u)
            blocks = sorted(component_masks(g, kept)) if kept else []
            rng.shuffle(blocks)
            nbrs = sum(1 << w for w in g.adj[v])  # unkept neighbours lie in no block
            out = attach(blocks, 1 << v, nbrs)
            acyclic = is_forest(g, set(range(n)) - kept - {v})
            seen["empty blocks"] += not blocks
            seen["no kept neighbour"] += not any(w in kept for w in g.adj[v])
            seen["cycle"] += not acyclic
            seen["merge"] += sum(1 for b in blocks if b & nbrs) > 1
            assert (out is None) == (not acyclic), (g.adj, kept, v)
            if out is not None:
                assert out[-1] >> v & 1
                assert len(out) == len(set(out))
                assert set(out) == component_masks(g, kept | {v}), (g.adj, kept, v)
        assert min(seen.values()) > 50, seen

    def test_empty_blocks_and_no_kept_neighbour(self):
        assert attach([], 0b1, 0b110) == [0b1]
        assert attach((0b10, 0b100), 0b1, 0b1000) == [0b10, 0b100, 0b1]
        # merged blocks go last, the others keep their order
        assert attach((0b10, 0b1000, 0b100), 0b1, 0b110) == [0b1000, 0b111]
        assert attach((0b110,), 0b1, 0b110) is None


class TestTransversalVector:
    def test_singletons_accept_everything(self):
        part = (0b1, 0b10, 0b100)
        vec = transversal_vector(part, 0b111)
        assert vec == (1 << 8) - 1  # all 2^3 subsets are transversals

    def test_one_block_rejects_pairs_inside(self):
        part = (0b11,)
        vec = transversal_vector(part, 0b11)
        # subsets {}, {0}, {1} ok; {0,1} hits the block twice
        assert vec == 0b0111

    def test_positions_follow_kept_ids(self):
        # kept {1, 4, 6}: blocks {4} and {1, 6} put positions 0 and 2 in one
        # block, as blocks {1} and {0, 2} do over kept {0, 1, 2}
        assert transversal_vector((0b0010000, 0b1000010), 0b1010010) == transversal_vector(
            (0b010, 0b101), 0b111
        )


class TestReduceRows:
    def test_single_row_unchanged(self):
        rows = {(0b11,): 0b11111}
        assert reduce_rows(rows, 0b11) == rows

    def test_duplicate_partition_keeps_better(self):
        # dedup happens upstream at insertion; at reduce level two distinct
        # partitions with one dominating value: the better one survives
        rows = {(0b11,): 0b111, (0b1, 0b10): 0b11111}
        kept = reduce_rows(rows, 0b11)
        assert (0b1, 0b10) in kept

    def test_representative_on_random_tables(self):
        rng = random.Random(99)
        for trial in range(300):
            s = rng.randint(1, 6)
            ground = tuple(range(s))
            parts = [block_masks(p) for p in all_partitions(ground)]
            chosen = rng.sample(parts, rng.randint(1, min(len(parts), 25)))
            # a row of value v is the forest of vertices 0..v-1
            rows = {p: (1 << rng.randint(0, 40)) - 1 for p in chosen}
            kept = reduce_rows(dict(rows), (1 << s) - 1)
            assert len(kept) <= 1 << max(s - 1, 0)
            for q in all_partitions(ground):
                assert optimum(rows, q, ground) == optimum(kept, q, ground), (
                    trial,
                    s,
                    rows,
                    q,
                )


class TestRowOrder:
    """The five partitions of {0, 1, 2}; the four that are not all
    singletons have vectors summing to zero, and any other four are
    independent."""

    ONE, SINGLETONS = (0b111,), (0b1, 0b10, 0b100)
    PAIRS = ((0b1, 0b110), (0b11, 0b100), (0b10, 0b101))

    def test_unshrinkable_group_is_returned_as_is(self):
        vecs = [transversal_vector(part, 0b111) for part in (self.ONE, *self.PAIRS)]
        assert vecs[0] ^ vecs[1] ^ vecs[2] ^ vecs[3] == 0
        group = {part: (1 << i) - 1 for i, part in enumerate((*self.PAIRS, self.SINGLETONS))}
        assert list(reduce_rows(group, 0b111).items()) == list(group.items())

    def test_survivors_keep_group_order(self):
        # worst first: the scan starts at the singletons, so the four best
        # are independent and the worst row, {0, 1, 2}, is dropped
        parts = [self.ONE, *self.PAIRS, self.SINGLETONS]
        group = {part: (1 << i) - 1 for i, part in enumerate(parts)}
        assert list(reduce_rows(group, 0b111).items()) == list(group.items())[1:]
        # equal values are scanned in group order and the first found wins:
        # the fourth row closes the relation and is dropped
        group = {part: 0b111 for part in parts}
        assert list(reduce_rows(group, 0b111)) == parts[:3] + parts[4:]


class TestRankReduce:
    def test_table_groups_independent(self):
        table = RepresentativeTable(
            rows={
                0b011: {(0b011,): (1 << 4) - 1, (0b001, 0b010): (1 << 6) - 1},
                0b100: {(0b100,): (1 << 1) - 1},
            }
        )
        out = rank_reduce(table)
        assert set(out.rows) == set(table.rows)
        assert len(out.rows[0b100]) == 1

    def test_row_bound(self):
        rng = random.Random(7)
        for s in range(1, 7):
            ground = tuple(range(s))
            parts = [block_masks(p) for p in all_partitions(ground)]
            # a row of value v is the forest of vertices 0..v-1
            rows = {p: (1 << rng.randint(0, 9)) - 1 for p in parts}
            kept = (1 << s) - 1
            out = rank_reduce(RepresentativeTable(rows={kept: rows}))
            assert len(out.rows[kept]) <= 1 << (s - 1)
            for q in all_partitions(ground):
                best = [
                    max((f.bit_count() for p, f in group.items()
                         if merge_blocks_acyclic(blocks_of(p), q, ground)), default=None)
                    for group in (rows, out.rows[kept])
                ]
                assert best[0] == best[1], (s, q)


class TestSmallGroups:
    """rank_reduce leaves a group of at most 2^(s-1) rows over s kept
    vertices as it is, and cuts a larger one to at most 2^(s-1) rows."""

    def test_up_to_three_partitions_are_kept(self):
        for s in range(1, 7):
            parts = [block_masks(p) for p in all_partitions(tuple(range(s)))]
            # every set of up to three (of up to two at s = 6, where the
            # triples number 1.4 million)
            for r in range(1, 3 if s == 6 else 4):
                for combo in itertools.combinations(parts, r):
                    rows = {part: (1 << i) - 1 for i, part in enumerate(combo)}
                    assert reduce_rows(rows, (1 << s) - 1).keys() == rows.keys(), combo
            # three vectors are dependent only when one is the sum of the
            # other two, which a transversal vector never is: each has bit
            # A = {} set, so a sum of two has it clear
            vecs = {transversal_vector(part, (1 << s) - 1) for part in parts}
            assert len(vecs) == len(parts)
            assert all(a ^ b not in vecs for a, b in itertools.combinations(vecs, 2))

    def test_dependent_group_within_bound_is_kept(self):
        # the four partitions of {0, 1, 2} other than all singletons are
        # dependent, and stay so with vertex 3 added as a singleton; a group
        # of exactly 2^(s - 1) rows holding them is left as it is
        four = [TestRowOrder.ONE, *TestRowOrder.PAIRS]
        eight = [part + (0b1000,) for part in four]
        eight += [p for p in map(block_masks, all_partitions(range(4))) if p not in eight][:4]
        for s, parts in ((3, four), (4, eight)):
            kept = (1 << s) - 1
            group = {part: (1 << i) - 1 for i, part in enumerate(parts)}
            assert len(group) == 1 << (s - 1) and len(reduce_rows(group, kept)) < len(group)
            table = RepresentativeTable(rows={kept: dict(group)})
            out = rank_reduce(table)
            assert out is table
            assert list(out.rows[kept].items()) == list(group.items())

    def test_only_kept_sets_up_to_max_ground_are_reduced(self):
        # a group one row over its bound is cut to the bound at
        # s = REDUCE_MAX_GROUND and left as it is at one more kept vertex
        def one_over(s):
            kept = (1 << s) - 1
            parts = itertools.islice(map(block_masks, all_partitions(range(s))), (1 << (s - 1)) + 1)
            group = {part: (1 << i) - 1 for i, part in enumerate(parts)}
            return group, rank_reduce(RepresentativeTable(rows={kept: dict(group)})).rows[kept]

        _, out = one_over(REDUCE_MAX_GROUND)
        assert len(out) <= 1 << (REDUCE_MAX_GROUND - 1)
        group, out = one_over(REDUCE_MAX_GROUND + 1)
        assert out == group

    def test_one_row_over_bound_is_cut_to_bound(self):
        rng = random.Random(5)
        for s in range(3, 7):
            ground = tuple(range(s))
            parts = [block_masks(p) for p in all_partitions(ground)]
            for _ in range(5):
                chosen = rng.sample(parts, (1 << (s - 1)) + 1)
                rows = {p: (1 << rng.randint(0, 9)) - 1 for p in chosen}
                kept = (1 << s) - 1
                out = rank_reduce(RepresentativeTable(rows={kept: rows})).rows[kept]
                assert len(out) <= 1 << (s - 1)
                for q in all_partitions(ground):
                    assert optimum(rows, q, ground) == optimum(out, q, ground), (s, q)

    def test_small_groups_keep_their_order(self):
        # kept {0, 1, 2}: three rows, worst first; kept {3, 4, 5}: all five
        # partitions, one more than the rank bound 2^(3 - 1)
        three = {(0b1, 0b10, 0b100): 0b1, (0b11, 0b100): 0b111, (0b111,): 0b1111}
        five = {
            block_masks(tuple(tuple(x + 3 for x in blk) for blk in blocks)): (1 << 9) - 1
            for blocks in all_partitions((0, 1, 2))
        }
        assert len(three) <= 1 << (3 - 1) < len(five)
        table = RepresentativeTable(rows={0b111: dict(three), 0b111000: dict(five)})
        out = rank_reduce(table)
        assert list(out.rows[0b111].items()) == list(three.items())
        assert len(out.rows[0b111000]) < len(five)
        # with no group over its bound the table comes back as it is
        table = RepresentativeTable(rows={0b111: dict(three)})
        assert rank_reduce(table) is table
