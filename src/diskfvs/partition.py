"""Greedy clique partition and weighted contraction.

Vertices are processed in non-increasing degree order (ties by smaller id).
An uncovered vertex seeds a new class; its uncovered neighbors are then
scanned in the same order, and each joins if it is adjacent to every
member already in the class. Every class is therefore a clique around its
seed: a kappa-partition with kappa = 1 in the sense of de Berg, Bodlaender,
Kisfaludi-Bak, Marx and van der Zanden (SICOMP 2020). The greedy rule does
not bound the contraction degree by construction; validate_partition audits
it against DEFAULT_DELTA.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .graph import Graph, from_edge_list, induced_subgraph, connected_components

DEFAULT_KAPPA = 6
DEFAULT_DELTA = 40


@dataclass(frozen=True)
class KappaPartition:
    """Partition of V into connected classes with per-class clique covers.

    greedy_partition makes every class a clique, so its cover is the class
    itself; hand-built partitions may cover a class with several cliques.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    clique_cover: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def kappa_observed(self) -> int:
        return max((len(c) for c in self.clique_cover), default=0)


@dataclass(frozen=True)
class ContractedGraph:
    """Class-level graph; class i weighs ceil(log2 |P_i|) + 1."""

    base: Graph
    weight: tuple[int, ...]


def class_weight(size: int) -> int:
    """ceil(log2(size)) + 1; weight 1 exactly for singleton classes."""
    if size < 1:
        raise ValueError(f"class size must be >= 1, got {size}")
    return (size - 1).bit_length() + 1 if size > 1 else 1


def greedy_partition(g: Graph) -> KappaPartition:
    """Greedy clique partition seeded in non-increasing degree order."""
    if g.n == 0:
        raise ValidationError("cannot partition the empty graph")
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    class_of = [-1] * g.n
    classes: list[tuple[int, ...]] = []
    for v in order:
        if class_of[v] != -1:
            continue
        idx = len(classes)
        members = [v]
        class_of[v] = idx
        candidates = [w for w in g.adj[v] if class_of[w] == -1]
        for w in sorted(candidates, key=position.__getitem__):
            if all(g.has_edge(w, u) for u in members):
                members.append(w)
                class_of[w] = idx
        classes.append(tuple(sorted(members)))
    return KappaPartition(
        classes=tuple(classes),
        class_of=tuple(class_of),
        clique_cover=tuple((cls,) for cls in classes),
    )


def contract(g: Graph, p: KappaPartition) -> ContractedGraph:
    """Contract every class to one vertex, dropping loops and parallels."""
    _check_partition_shape(g, p)
    class_edges = {
        (p.class_of[u], p.class_of[v])
        for (u, v) in g.edges()
        if p.class_of[u] != p.class_of[v]
    }
    return ContractedGraph(
        base=from_edge_list(len(p.classes), class_edges),
        weight=tuple(class_weight(len(c)) for c in p.classes),
    )


def _check_partition_shape(g: Graph, p: KappaPartition) -> None:
    seen = [0] * g.n
    for cls in p.classes:
        for v in cls:
            if not (0 <= v < g.n):
                raise ValidationError(f"class member {v} outside graph")
            seen[v] += 1
    if any(c != 1 for c in seen):
        raise ValidationError("classes do not partition the vertex set")
    for i, cls in enumerate(p.classes):
        sub, _, _ = induced_subgraph(g, cls)
        if len(connected_components(sub)) > 1:
            raise ValidationError(f"class {i} induces a disconnected subgraph")


@dataclass(frozen=True)
class PartitionReport:
    violations: tuple[str, ...]
    kappa_observed: int
    max_contraction_degree: int
    class_count: int

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_partition(
    g: Graph,
    p: KappaPartition,
    delta_bound: int = DEFAULT_DELTA,
    kappa_bound: int = DEFAULT_KAPPA,
) -> PartitionReport:
    """Structural audit: covering, connectivity, clique covers, degree caps."""
    violations: list[str] = []
    seen = [0] * g.n
    for cls in p.classes:
        for v in cls:
            if 0 <= v < g.n:
                seen[v] += 1
            else:
                violations.append(f"vertex {v} outside graph")
    missing = [v for v in range(g.n) if seen[v] == 0]
    doubled = [v for v in range(g.n) if seen[v] > 1]
    if missing:
        violations.append(f"uncovered vertices: {missing[:5]}")
    if doubled:
        violations.append(f"overlapping vertices: {doubled[:5]}")

    for i, cls in enumerate(p.classes):
        ok_members = [v for v in cls if 0 <= v < g.n]
        if ok_members:
            sub, _, _ = induced_subgraph(g, ok_members)
            if len(connected_components(sub)) > 1:
                violations.append(f"class {i} disconnected")
        covered = sorted(v for clique in p.clique_cover[i] for v in clique)
        if covered != sorted(cls):
            violations.append(f"clique cover of class {i} does not partition it")
        for clique in p.clique_cover[i]:
            for a_idx in range(len(clique)):
                for b_idx in range(a_idx + 1, len(clique)):
                    if not g.has_edge(clique[a_idx], clique[b_idx]):
                        violations.append(
                            f"non-adjacent pair {clique[a_idx]},{clique[b_idx]} "
                            f"in a cover clique of class {i}"
                        )

    kappa_obs = p.kappa_observed
    if kappa_obs > kappa_bound:
        violations.append(f"kappa_observed {kappa_obs} exceeds bound {kappa_bound}")

    max_deg = 0
    if not missing and not doubled:
        try:
            cg = contract(g, p)
            max_deg = max((len(a) for a in cg.base.adj), default=0)
            if max_deg > delta_bound:
                violations.append(
                    f"contraction degree {max_deg} exceeds bound {delta_bound}"
                )
        except ValidationError as exc:
            violations.append(str(exc))

    return PartitionReport(
        violations=tuple(violations),
        kappa_observed=kappa_obs,
        max_contraction_degree=max_deg,
        class_count=len(p.classes),
    )
