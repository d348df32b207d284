"""Representative reduction of forest-connectivity state tables.

A DP row is (kept, partition, value): kept is the bitmask of the vertex
ids the partial forest keeps in the current bag, and the partition, a
sorted tuple of disjoint block masks covering kept, records which of them
are already connected. Rows with the same kept mask compete: row p can be
dropped when, for every way q the future could connect the kept vertices,
some retained row matches p's acyclic-compatibility with q at equal or
better value.

The reduction works over GF(2) on positional labels: position i is the
i-th kept vertex by id, and block labels are numbered by first appearance
(block_labels). Each labelled partition p maps to a bit vector indexed by
subsets A of the kept positions:

    vec(p)[A] = 1  iff  A picks at most one element from every block of p.

Such an A-column equals the acyclic-compatibility column of the partition
{A} + singletons, so the vector space of these columns sits inside the
compatibility matrix's column space; their span covers it (the matrix has
GF(2) rank exactly 2^(s-1)). Rows are scanned best-value first and kept
exactly when their vector is linearly independent of the vectors kept so
far, which bounds the surviving rows of each kept mask by 2^(s-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
Labels = tuple[int, ...]  # block label per kept position, by first appearance


def bits_of(mask: int):
    """The ids of the bits set in mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def block_labels(part: Partition, kept: Kept) -> Labels:
    """part as positional labels: the block of each kept vertex in id
    order, blocks numbered by first appearance."""
    label: dict[int, int] = {}
    out = []
    while kept:
        low = kept & -kept
        kept ^= low
        for block in part:
            if block & low:
                out.append(label.setdefault(block, len(label)))
                break
    return tuple(out)


def transversal_vector(part: Labels) -> int:
    """Bit A set iff A takes at most one position from every block."""
    blocks: dict[int, list[int]] = {}
    for pos, b in enumerate(part):
        blocks.setdefault(b, []).append(pos)
    acc = 1
    for members in blocks.values():
        cur = acc
        for pos in members:
            acc |= cur << (1 << pos)
    return acc


@dataclass
class RepresentativeTable:
    """Rows keyed by kept mask: kept -> partition -> forest, the mask of
    the vertices a DP row keeps, whose popcount is the row's value."""

    rows: dict[Kept, dict[Partition, int]]

    def row_count(self) -> int:
        return sum(len(group) for group in self.rows.values())


def reduce_rows(
    group: dict[Labels, tuple[int, Any]], ground_size: int
) -> dict[Labels, tuple[int, Any]]:
    """Keep a representative, value-optimal subset of one kept set's rows."""
    if len(group) <= 1 or ground_size > REDUCE_MAX_GROUND:
        return group
    order = sorted(group.items(), key=lambda item: (-item[1][0], item[0]))
    basis: list[int] = []
    kept: dict[Labels, tuple[int, Any]] = {}
    for part, payload in order:
        vec = transversal_vector(part)
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
            kept[part] = payload
    return kept


def rank_reduce(table: RepresentativeTable) -> RepresentativeTable:
    """Reduce the rows of every kept mask, with its vertices as ground set.

    Only a group reduce_rows can shrink (at least REDUCE_MIN_ROWS rows, at
    most REDUCE_MAX_GROUND kept vertices) is relabelled; it is scanned in
    reduce_rows' order, best value first and ties by labels. Every other
    group keeps its rows in their order, and when no group can shrink,
    table itself is returned.
    """
    if not any(
        len(group) >= REDUCE_MIN_ROWS and kept.bit_count() <= REDUCE_MAX_GROUND
        for kept, group in table.rows.items()
    ):
        return table
    out: dict[Kept, dict[Partition, int]] = {}
    for kept, group in table.rows.items():
        if len(group) >= REDUCE_MIN_ROWS and kept.bit_count() <= REDUCE_MAX_GROUND:
            labelled = {
                block_labels(part, kept): (row.bit_count(), part) for part, row in group.items()
            }
            reduced = reduce_rows(labelled, kept.bit_count())
            group = {part: group[part] for _, part in reduced.values()}
        out[kept] = group
    return RepresentativeTable(rows=out)
