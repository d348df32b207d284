"""Representative reduction of forest-connectivity state tables.

A DP row is (kept, partition, forest): kept is the bitmask of the vertex
ids the partial forest keeps in the current bag, the partition, a sorted
tuple of disjoint block masks covering kept, records which of them are
already connected, and the forest mask's popcount is the row's value.
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
GF(2) rank exactly 2^(s-1)). Rows are scanned best value first, equal
values in the group's order, and kept exactly when their vector is
linearly independent of the vectors kept so far, which bounds the
surviving rows of each kept mask by 2^(s-1). Survivors keep the group's
order.
"""

from __future__ import annotations

from dataclasses import dataclass

# ground-set sizes for which the factorization has been verified; larger
# tables are left unreduced (correct, merely unpruned)
REDUCE_MAX_GROUND = 8
# three or fewer distinct partitions are always independent, so rank_reduce
# leaves a group of fewer rows as it is: every vector has bit A = {} set,
# so a dependent subset has even size, and two distinct partitions differ
# at some pair A = {i, j}
REDUCE_MIN_ROWS = 4

Kept = int  # bitmask over the component's vertex ids
Partition = tuple[int, ...]  # sorted disjoint block masks whose union is kept


def bits_of(mask: int):
    """The ids of the bits set in mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    in the group's order; a group that cannot shrink comes back as itself."""
    if kept.bit_count() > REDUCE_MAX_GROUND:
        return group
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
    if not dropped:
        return group
    return {part: forest for part, forest in group.items() if part not in dropped}


def rank_reduce(table: RepresentativeTable) -> RepresentativeTable:
    """Reduce the rows of every kept mask of at least REDUCE_MIN_ROWS rows,
    with its vertices as ground set. When no group can shrink (none has
    REDUCE_MIN_ROWS rows within REDUCE_MAX_GROUND kept vertices), table
    itself is returned."""
    if not any(
        len(group) >= REDUCE_MIN_ROWS and kept.bit_count() <= REDUCE_MAX_GROUND
        for kept, group in table.rows.items()
    ):
        return table
    return RepresentativeTable(rows={
        kept: reduce_rows(group, kept) if len(group) >= REDUCE_MIN_ROWS else group
        for kept, group in table.rows.items()
    })
