"""dp_run and reconstruct against a frozen copy of the tuple-coded DP.

The reference below is the DP as it was before rows became bitmasks: a kept
set was the sorted tuple of its vertices, a partition a tuple of block
labels by position, and introduce and join ran a list-based union-find.
The state budget is left out. The reference takes the same floor, the
conflict pairs outside each subtree included, and reduces only the groups
of more than 2^(s-1) rows over s <= REDUCE_MAX_GROUND kept vertices, with
its own label-coded copy of the rank reduction (reference_reduce). Both versions must agree on the root value,
the pruned rows, every table's rows (forests and order) and the
reconstructed witness. A reference row keeps its (value, backref) form:
its forest is read off its backrefs, bottom-up (reference_forests), and
its value must equal that forest's popcount.
"""

import random

import pytest

from diskfvs import (
    blowup,
    build_intersection_graph,
    build_pipeline,
    connected_components,
    contract,
    decompose_unweighted,
    dp_run,
    from_edge_list,
    greedy_partition,
    induced_subgraph,
    local_selections,
    make_nice,
    min_fvs_bruteforce,
    peel_degree_one,
    project,
    random_udg,
    reconstruct,
)
from diskfvs.decomposition import FORGET, INTRODUCE, JOIN, LEAF
from diskfvs.graph import uf_find
from diskfvs.partition import conflict_pairs, packing_bound
from diskfvs.reduction import REDUCE_MAX_GROUND

from conftest import class_of, graft_leaf_bags, subtree_classes


def canonicalize(labels):
    remap = {}
    return tuple(remap.setdefault(x, len(remap)) for x in labels)


def block_count(part):
    return max(part) + 1 if part else 0


def reference_vector(part):
    """Bit A set iff the positions A take at most one from every block."""
    blocks = {}
    for pos, label in enumerate(part):
        blocks.setdefault(label, []).append(pos)
    acc = 1
    for members in blocks.values():
        cur = acc
        for pos in members:
            acc |= cur << (1 << pos)
    return acc


def reference_reduce(group):
    """The rows of one kept set that rank reduction keeps. They are scanned
    best value first, equal values in group order, and a row stays when its
    vector is independent of those kept before it. Survivors keep the
    group's order."""
    pivots = {}  # leading bit -> basis vector
    dropped = set()
    for part in sorted(group, key=lambda part: -group[part][0]):
        vec = reference_vector(part)
        while vec and vec.bit_length() in pivots:
            vec ^= pivots[vec.bit_length()]
        if vec:
            pivots[vec.bit_length()] = vec
        else:
            dropped.add(part)
    return {part: row for part, row in group.items() if part not in dropped}


def reference_dp_run(nd, g, p, mode, max_deletions=None):
    """(optimum or None, tables, pruned rows) of the tuple-coded DP."""
    selections = [local_selections(cls, (cls,)) for cls in p.classes]
    keep_cap = [max(map(len, sels)) for sels in selections]
    slack = g.n if max_deletions is None else max_deletions - packing_bound(p)
    pruned = 0
    nbrs = [frozenset(g.adj[v]) for v in range(g.n)]
    owner = class_of(p)
    pairs = conflict_pairs(g, p)
    below = subtree_classes(nd)
    tables = [{} for _ in range(nd.node_count())]
    cap = [0] * nd.node_count()

    def owed(node):
        return sum(1 for a, b in pairs if a not in below[node] and b not in below[node])

    def put(table, kept, part, value, back):
        group = table.setdefault(kept, {})
        old = group.get(part)
        if old is None or value > old[0]:
            group[part] = (value, back)

    for node in range(nd.node_count() - 1, -1, -1):
        kind = nd.kind[node]
        table = {}
        if kind == LEAF:
            table[()] = {(): (0, None)}
        elif kind == INTRODUCE:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            cap[node] = cap[child] + keep_cap[v_cl]
            floor = cap[node] - slack + owed(node)
            for kept_c, group in tables[child].items():
                s_c = len(kept_c)
                best_c = max(row[0] for row in group.values()) if floor > 0 else 0
                for sel in selections[v_cl]:
                    need = floor - len(sel)
                    if best_c < need:
                        pruned += len(group)
                        continue
                    joined = kept_c + sel
                    order = sorted(range(len(joined)), key=joined.__getitem__)
                    kept_n = tuple(joined[i] for i in order)
                    new_edges = []
                    for i, x in enumerate(sel):
                        for j in range(i + 1, len(sel)):
                            if sel[j] in nbrs[x]:
                                new_edges.append((s_c + i, s_c + j))
                        for j, y in enumerate(kept_c):
                            if y in nbrs[x]:
                                new_edges.append((s_c + i, j))
                    for part_c, (value, _) in group.items():
                        if value < need:
                            pruned += 1
                            continue
                        nc = block_count(part_c)
                        labels = part_c + tuple(range(nc, nc + len(sel)))
                        parent = list(range(nc + len(sel)))
                        for a, b in new_edges:
                            ra = uf_find(parent, labels[a])
                            rb = uf_find(parent, labels[b])
                            if ra == rb:
                                break
                            parent[rb] = ra
                        else:
                            roots = [uf_find(parent, labels[i]) for i in order]
                            put(table, kept_n, canonicalize(roots), value + len(sel),
                                (kept_c, part_c))
        elif kind == FORGET:
            v_cl = nd.vtx[node]
            child = nd.children[node][0]
            cap[node] = cap[child]
            for kept_c, group in tables[child].items():
                keep_pos = [i for i, v in enumerate(kept_c) if owner[v] != v_cl]
                kept_n = tuple(kept_c[i] for i in keep_pos)
                for part_c, (value, _) in group.items():
                    part_n = canonicalize([part_c[i] for i in keep_pos])
                    put(table, kept_n, part_n, value, (kept_c, part_c))
        elif kind == JOIN:
            left, right = nd.children[node]
            cap[node] = cap[left] + cap[right] - sum(keep_cap[c] for c in nd.bags[node])
            floor = cap[node] - slack + owed(node)
            rt = tables[right]
            for kept, lgroup in tables[left].items():
                rgroup = rt.get(kept)
                if rgroup is None:
                    continue
                s = len(kept)
                shared = sum(
                    1 for i in range(s) for j in range(i + 1, s)
                    if g.has_edge(kept[i], kept[j])
                )
                best_r = max(row[0] for row in rgroup.values()) if floor > 0 else 0
                for part_l, (val_l, _) in lgroup.items():
                    need = floor + s - val_l
                    if best_r < need:
                        pruned += len(rgroup)
                        continue
                    nl = block_count(part_l)
                    for part_r, (val_r, _) in rgroup.items():
                        if val_r < need:
                            pruned += 1
                            continue
                        parent = list(range(nl + block_count(part_r)))
                        merges = 0
                        for a, b in zip(part_l, part_r):
                            ra, rb = uf_find(parent, a), uf_find(parent, nl + b)
                            if ra != rb:
                                parent[rb] = ra
                                merges += 1
                        if merges != s - shared:
                            continue
                        part_n = canonicalize([uf_find(parent, a) for a in part_l])
                        put(table, kept, part_n, val_l + val_r - s, (part_l, part_r))
        if mode == "dp-rank":
            table = {
                kept: reference_reduce(group)
                if len(kept) <= REDUCE_MAX_GROUND and len(group) > 1 << max(len(kept) - 1, 0)
                else group
                for kept, group in table.items()
            }
        tables[node] = table
        if not table:
            break
    root_group = tables[0].get((), {})
    best = root_group[()][0] if () in root_group else None
    return best, tables, pruned


def reference_reconstruct(tables, nd, g, p):
    chosen = {}
    owner = class_of(p)
    stack = [(0, (), ())]
    while stack:
        node, kept, part = stack.pop()
        back = tables[node][kept][part][1]
        kind = nd.kind[node]
        if kind == INTRODUCE:
            v_cl = nd.vtx[node]
            chosen.setdefault(v_cl, tuple(v for v in kept if owner[v] == v_cl))
            stack.append((nd.children[node][0], *back))
        elif kind == FORGET:
            stack.append((nd.children[node][0], *back))
        elif kind == JOIN:
            left, right = nd.children[node]
            stack.append((left, kept, back[0]))
            stack.append((right, kept, back[1]))
    return frozenset(range(g.n)) - {v for sel in chosen.values() for v in sel}


def blocks_mask(kept, part):
    """A reference (kept tuple, label tuple) as sorted block masks."""
    blocks = {}
    for v, label in zip(kept, part):
        blocks[label] = blocks.get(label, 0) | 1 << v
    return tuple(sorted(blocks.values()))


def reference_forests(tables, nd):
    """Per node, each reference row's forest mask, (kept, part) -> mask,
    built bottom-up from its backrefs: a leaf keeps nothing, introduce adds
    the kept vertices to its child row's forest, forget passes it up and a
    join unites its two rows' forests."""
    forests = [{} for _ in tables]
    for node in range(len(tables) - 1, -1, -1):
        kind = nd.kind[node]
        for kept, group in tables[node].items():
            for part, (_, back) in group.items():
                if kind == LEAF:
                    forest = 0
                elif kind == JOIN:
                    left, right = nd.children[node]
                    forest = forests[left][kept, back[0]] | forests[right][kept, back[1]]
                else:
                    forest = forests[nd.children[node][0]][back]
                    if kind == INTRODUCE:
                        forest |= sum(1 << v for v in kept)
                forests[node][kept, part] = forest
    return forests


def as_masks(table, forests):
    """A reference table in mask coding, its rows' forests and its order
    included, as (kept, [(partition, forest)]) pairs. Each reference row's
    value must be its forest's popcount."""
    out = []
    for kept, group in table.items():
        rows = []
        for part, (value, _) in group.items():
            forest = forests[kept, part]
            assert value == forest.bit_count(), (kept, part)
            rows.append((blocks_mask(kept, part), forest))
        out.append((sum(1 << v for v in kept), rows))
    return out


def assert_same_dp(nd, g, p):
    """Both DPs in both modes, with no floor and with the floor set at the
    minimum and one below it. The tables must match row for row, in the
    same order and with the same forests. The reference spells "no floor"
    as max_deletions None, dp_run as g.n."""
    minimum = g.n - reference_dp_run(nd, g, p, "dp-naive")[0]
    for mode in ("dp-naive", "dp-rank"):
        for max_deletions in (None, minimum, minimum - 1):
            if max_deletions is not None and max_deletions < 0:
                continue
            want, ref_tables, ref_pruned = reference_dp_run(nd, g, p, mode, max_deletions)
            stats = {}
            bound = g.n if max_deletions is None else max_deletions
            got, tables = dp_run(nd, g, p, mode=mode, max_deletions=bound, stats=stats)
            assert (None if got is None else got.bit_count()) == want
            assert stats.get("pruned_rows", 0) == ref_pruned
            assert len(tables) == len(ref_tables)
            ref_forests = reference_forests(ref_tables, nd)
            for node, (table, ref) in enumerate(zip(tables, ref_tables)):
                assert sum(map(len, table.values())) == sum(map(len, ref.values())), node
                got_rows = [(kept, list(group.items())) for kept, group in table.items()]
                assert got_rows == as_masks(ref, ref_forests[node]), node
            if got is not None:
                assert got == tables[0][0][()]
                assert reconstruct(got, g) == reference_reconstruct(ref_tables, nd, g, p)


@pytest.mark.parametrize("density", [1.0, 1.5, 2.0])
def test_udg_components(density):
    for seed in range(3):
        peeled = peel_degree_one(build_intersection_graph(random_udg(40, density, seed)))
        for comp in connected_components(peeled.reduced):
            g = induced_subgraph(peeled.reduced, comp)[0]
            pipe = build_pipeline(g, greedy_partition(g))
            assert_same_dp(pipe.nice, g, pipe.partition)


def test_join_heavy_decompositions():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(3, 12)
        p_edge = rng.choice([0.2, 0.35, 0.5])
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge]
        )
        part = greedy_partition(g)
        bg = blowup(contract(g, part))
        nd = make_nice(graft_leaf_bags(project(decompose_unweighted(bg.graph), bg), rng))
        assert_same_dp(nd, g, part)
        root = dp_run(nd, g, part, mode="dp-naive", max_deletions=g.n)[0]
        assert g.n - root.bit_count() == min_fvs_bruteforce(g)[0]
