"""Canonical text formats for graphs and object sets.

Serializers emit a canonical ordering with single spaces and LF endings,
so parse -> serialize round-trips byte-identically on canonical files.

Graph:          p fvs <n> <m>          then m lines  e <u> <v>   (0-based)
Objects:        p objects <n> <alpha> <gamma>
                then n lines           o <shape> <x> <y> <inner_r> <outer_r>
                (the set must pass geometry.validate_object_set)
A line whose first whitespace-separated field is "c" is a comment in both,
whatever whitespace follows it; every line is split on any whitespace.
parse_instance tells the two apart by the problem line.
"""

from __future__ import annotations

import math

from .errors import InputError
from .geometry import FatObject, ObjectSet, build_intersection_graph, validate_object_set
from .graph import Graph, from_edge_list


def _data_lines(text: str):
    """(line number, fields) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0] != "c":
            yield lineno, parts


def serialize_graph(g: Graph) -> str:
    lines = [f"p fvs {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for (u, v) in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = m = None
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in _data_lines(text):
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "fvs":
                raise InputError(f"line {lineno}: expected 'p fvs <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad counts") from exc
            if n < 0:
                raise InputError(f"line {lineno}: vertex count must be >= 0, got {n}")
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad edge") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
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


def parse_instance(text: str) -> Graph:
    """A graph file's graph, or a points file's intersection graph."""
    _, header = next(_data_lines(text), (0, []))
    if header[:2] == ["p", "fvs"]:
        return parse_graph(text)
    if header[:2] == ["p", "objects"]:
        return build_intersection_graph(parse_objects(text))
    raise InputError("unrecognized file header: expected 'p fvs' or 'p objects'")


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
    for lineno, parts in _data_lines(text):
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
