"""Forest-connectivity states: the cycle rule and representative reduction.

A DP row is (kept, partition, forest): kept is the bitmask of the vertex
ids the partial forest keeps in the current bag, the partition, a sorted
tuple of disjoint block masks covering kept, records which of them are
already connected, and the forest mask's popcount is the row's value.

The cycle rule (attach): keeping one vertex, or two adjacent ones, next
to a forest whose trees are disjoint block masks closes a cycle exactly
when two edges join one block to them (two neighbours of one vertex, a
neighbour of each, or one neighbour of both); otherwise the blocks they
meet and the kept vertices become one block. A clique's kept
subset is at most two of its vertices, so one call keeps it: the DP's
introduce step and the clique-choice search (partition.packing_search)
both keep their forests this way and test every subset they keep with
attach alone.

Rows with the same kept mask compete: row p can be dropped when, for every
way q the future could connect the kept vertices, some retained row
matches p's acyclic-compatibility with q at equal or better value.

The reduction works over GF(2), with the kept vertices as ground set: the
position of a kept vertex v is the number of kept vertices below it. Each
partition p maps to a bit vector indexed by subsets A of the positions:

    vec(p)[A] = 1  iff  A picks at most one element from every block of p.

Such an A-column equals the acyclic-compatibility column of the partition
{A} + singletons, so the vector space of these columns sits inside the
compatibility matrix's column space; their span covers it (the matrix has
GF(2) rank exactly 2^(s-1)). Only a group of more than 2^(s-1) rows over
at most REDUCE_MAX_GROUND kept vertices is reduced: its rows are scanned
best value first, equal values in the group's order, and kept exactly
when their vector is linearly independent of the vectors kept so far,
which leaves at most 2^(s-1) rows, in the group's order. Every other
group is left as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

# ground-set sizes for which the factorization has been verified; larger
# tables are left unreduced (correct, merely unpruned)
REDUCE_MAX_GROUND = 8

Kept = int  # bitmask over the component's vertex ids
Partition = tuple[int, ...]  # sorted disjoint block masks whose union is kept


def bits_of(mask: int):
    """The ids of the bits set in mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def attach(blocks, kept: int, nbrs_a: int, nbrs_b: int = 0) -> list[int] | None:
    """blocks, disjoint masks of a forest's trees, with kept, one vertex or
    two adjacent ones, kept next to their neighbours nbrs_a and nbrs_b (0
    for one vertex): every block that meets them merged with kept into one,
    placed last. None when a block meets them twice, so that keeping them
    closes a cycle."""
    out = []
    nbrs = nbrs_a | nbrs_b
    for b in blocks:
        if not b & nbrs:
            out.append(b)
        elif (b & nbrs_a).bit_count() + (b & nbrs_b).bit_count() > 1:
            return None
        else:
            kept |= b
    out.append(kept)
    return out


def transversal_vector(part: Partition, kept: Kept) -> int:
    """Bit A set iff A takes at most one position from every block."""
    acc = 1
    for block in part:
        cur = acc
        for v in bits_of(block):
            acc |= cur << (1 << (kept & ((1 << v) - 1)).bit_count())
    return acc


@dataclass
class RepresentativeTable:
    """Rows keyed by kept mask: kept -> partition -> forest, the mask of
    the vertices a DP row keeps, whose popcount is the row's value."""

    rows: dict[Kept, dict[Partition, int]]

    def row_count(self) -> int:
        return sum(len(group) for group in self.rows.values())


def reduce_rows(group: dict[Partition, int], kept: Kept) -> dict[Partition, int]:
    """Keep a representative, value-optimal subset of one kept mask's rows,
    at most 2^(s-1) of them for s kept vertices, in the group's order."""
    basis: list[int] = []
    dropped = set()
    # sorted is stable: equal values stay in group order, the first found wins
    for part in sorted(group, key=lambda part: -group[part].bit_count()):
        vec = transversal_vector(part, kept)
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
        else:
            dropped.add(part)
    return {part: forest for part, forest in group.items() if part not in dropped}


def rank_reduce(table: RepresentativeTable) -> RepresentativeTable:
    """Reduce every group of more than 2^(s-1) rows over s kept vertices,
    s at most REDUCE_MAX_GROUND; when there is none, table itself is
    returned."""
    # Bell(s) <= 2^(s-1) for s <= 2 and the bound is at least 4 for s >= 3,
    # so a group over it has more than 4 rows: testing that first keeps the
    # many small groups, the one-row empty kept set among them, cheap
    over = {
        kept: reduce_rows(group, kept) for kept, group in table.rows.items()
        if len(group) > 4
        and (s := kept.bit_count()) <= REDUCE_MAX_GROUND
        and 2 * len(group) > 1 << s
    }
    if not over:
        return table
    return RepresentativeTable(rows={**table.rows, **over})
