"""Representative reduction of forest-connectivity state tables.

A DP row is (kept, partition, value): kept is the sorted tuple of vertices
the partial forest keeps in the current bag, and the partition records
which of them are already connected. Rows with the same kept tuple
compete: row p can be dropped when, for every way q the future could
connect the kept vertices, some retained row matches p's
acyclic-compatibility with q at equal or better value.

The reduction works over GF(2). Each partition p maps to a bit vector
indexed by subsets A of the kept positions:

    vec(p)[A] = 1  iff  A picks at most one element from every block of p.

Such an A-column equals the acyclic-compatibility column of the partition
{A} + singletons, so the vector space of these columns sits inside the
compatibility matrix's column space; their span covers it (the matrix has
GF(2) rank exactly 2^(s-1)). Rows are scanned best-value first and kept
exactly when their vector is linearly independent of the vectors kept so
far, which bounds the surviving rows of each kept tuple by 2^(s-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# ground-set sizes for which the factorization has been verified; larger
# tables are left unreduced (correct, merely unpruned)
REDUCE_MAX_GROUND = 8

Partition = tuple[int, ...]
Kept = tuple[int, ...]


def block_count(part: Partition) -> int:
    return max(part) + 1 if part else 0


def canonicalize(labels: list[int]) -> Partition:
    """Renumber block labels by first appearance."""
    remap: dict[int, int] = {}
    out = []
    for x in labels:
        if x not in remap:
            remap[x] = len(remap)
        out.append(remap[x])
    return tuple(out)


def transversal_vector(part: Partition) -> int:
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
    """Rows keyed by kept tuple: kept -> partition -> (value, payload)."""

    rows: dict[Kept, dict[Partition, tuple[int, Any]]]

    def row_count(self) -> int:
        return sum(len(group) for group in self.rows.values())


def reduce_rows(
    group: dict[Partition, tuple[int, Any]], ground_size: int
) -> dict[Partition, tuple[int, Any]]:
    """Keep a representative, value-optimal subset of one kept tuple's rows."""
    if len(group) <= 1 or ground_size > REDUCE_MAX_GROUND:
        return group
    order = sorted(group.items(), key=lambda item: (-item[1][0], item[0]))
    basis: list[int] = []
    kept: dict[Partition, tuple[int, Any]] = {}
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
    """Reduce the rows of every kept tuple, with the tuple as ground set."""
    out: dict[Kept, dict[Partition, tuple[int, Any]]] = {}
    for kept, group in table.rows.items():
        out[kept] = reduce_rows(group, len(kept))
    return RepresentativeTable(rows=out)
