"""Canonical text formats for graphs, object sets, and decompositions.

Serializers emit a canonical ordering with single spaces and LF endings,
so parse -> serialize round-trips byte-identically on canonical files.

Graph:          p fvs <n> <m>          then m lines  e <u> <v>   (0-based)
Objects:        p objects <n> <alpha> <gamma>
                then n lines           o <shape> <x> <y> <inner_r> <outer_r>
                (the set must pass geometry.validate_object_set)
Decomposition:  s td <num_bags> <max_bag_size> <n>
                then bag lines         b <bag_id> <v...>          (bags 1-based)
                then tree edges        <i> <j>                    (1-based)
Lines starting with "c " (or "c" alone) are comments everywhere.
"""

from __future__ import annotations

import math

from .decomposition import TreeDecomposition
from .errors import InputError
from .geometry import FatObject, ObjectSet, validate_object_set
from .graph import Graph, connected_components, from_edge_list


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield lineno, line


def serialize_graph(g: Graph) -> str:
    lines = [f"p fvs {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for (u, v) in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = m = None
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "fvs":
                raise InputError(f"line {lineno}: expected 'p fvs <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad counts") from exc
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad edge") from exc
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"line {lineno}: repeated edge {u} {v}")
            seen.add(key)
            edges.append((u, v))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing problem line 'p fvs <n> <m>'")
    if m != len(edges):
        raise InputError(f"problem line declares {m} edges, found {len(edges)}")
    return from_edge_list(n, edges)


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_objects(objs: ObjectSet) -> str:
    lines = [f"p objects {len(objs.objects)} {_fmt(objs.alpha)} {_fmt(objs.gamma)}"]
    for o in objs.objects:
        lines.append(
            f"o {o.shape_tag} {_fmt(o.x)} {_fmt(o.y)} "
            f"{_fmt(o.inner_radius)} {_fmt(o.outer_radius)}"
        )
    return "\n".join(lines) + "\n"


def parse_objects(text: str) -> ObjectSet:
    n = alpha = gamma = None
    objects = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(parts) != 5 or parts[1] != "objects":
                raise InputError(f"line {lineno}: expected 'p objects <n> <alpha> <gamma>'")
            try:
                n, alpha, gamma = int(parts[2]), float(parts[3]), float(parts[4])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad header values") from exc
        elif parts[0] == "o":
            if n is None:
                raise InputError(f"line {lineno}: object before problem line")
            if len(parts) != 6:
                raise InputError(
                    f"line {lineno}: expected 'o <shape> <x> <y> <inner_r> <outer_r>'"
                )
            try:
                values = [float(f) for f in parts[2:]]
                if not all(map(math.isfinite, values)):
                    raise InputError(f"non-finite value in {values}")
                objects.append(FatObject(*values, shape_tag=parts[1]))
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad object values") from exc
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing problem line 'p objects <n> <alpha> <gamma>'")
    if len(objects) != n:
        raise InputError(f"header declares {n} objects, found {len(objects)}")
    objs = ObjectSet(objects=tuple(objects), alpha=alpha, gamma=gamma)
    validate_object_set(objs)
    return objs


def serialize_decomposition(td: TreeDecomposition, n_vertices: int) -> str:
    max_bag = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n_vertices}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1), *[str(v) for v in sorted(bag)]]))
    for i, nbrs in enumerate(td.tree):
        for j in nbrs:
            if i < j:
                lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def _ints(lineno: int, fields: list[str], what: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise InputError(f"line {lineno}: bad {what}") from exc


def parse_decomposition(text: str) -> tuple[TreeDecomposition, int]:
    header = None
    bags: dict[int, frozenset[int]] = {}
    tree_edges: dict[tuple[int, int], int] = {}  # (smaller, larger) -> line
    for lineno, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise InputError(f"line {lineno}: expected 's td <bags> <max_bag> <n>'")
            header = tuple(_ints(lineno, parts[2:], "header counts"))
        elif parts[0] == "b":
            if header is None:
                raise InputError(f"line {lineno}: bag before header")
            if len(parts) < 2:
                raise InputError(f"line {lineno}: expected 'b <bag_id> <v...>'")
            bag_id, *bag = _ints(lineno, parts[1:], "bag")
            if bag_id in bags:
                raise InputError(f"line {lineno}: duplicate bag {bag_id}")
            outside = [v for v in bag if not 0 <= v < header[2]]
            if outside:
                raise InputError(
                    f"line {lineno}: bag vertex {outside[0]} outside 0..{header[2] - 1}"
                )
            bags[bag_id] = frozenset(bag)
        else:
            if header is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected '<i> <j>' tree edge")
            i, j = _ints(lineno, parts, "tree edge")
            if i == j:
                raise InputError(f"line {lineno}: self-loop tree edge {i} {j}")
            key = (i, j) if i < j else (j, i)
            if key in tree_edges:
                raise InputError(f"line {lineno}: duplicate tree edge {i} {j}")
            tree_edges[key] = lineno
    if header is None:
        raise InputError("missing header 's td <bags> <max_bag> <n>'")
    num_bags, max_bag, n_vertices = header
    if sorted(bags) != list(range(1, num_bags + 1)):
        raise InputError("bag ids must be 1..num_bags")
    edges = []
    for (i, j), lineno in tree_edges.items():
        if not (1 <= i <= num_bags and 1 <= j <= num_bags):
            raise InputError(f"line {lineno}: tree edge ({i}, {j}) out of range")
        edges.append((i - 1, j - 1))
    if len(edges) != max(num_bags - 1, 0):
        raise InputError(
            f"a tree on {num_bags} bags has {max(num_bags - 1, 0)} edges, found {len(edges)}"
        )
    tree = from_edge_list(num_bags, edges)
    if len(connected_components(tree)) > 1:
        raise InputError("tree edges do not connect every bag")
    td = TreeDecomposition(
        tree=tree.adj,
        bags=tuple(bags[i + 1] for i in range(num_bags)),
        root=0,
    )
    declared = max((len(b) for b in td.bags), default=0)
    if declared != max_bag:
        raise InputError(f"header max bag size {max_bag} != actual {declared}")
    return td, n_vertices
