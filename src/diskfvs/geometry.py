"""Fat objects, their intersection graphs, and instance generators.

Objects are disks or axis-aligned squares described by a center and an
inner/outer radius pair. Object sets are normalized so the smallest
diameter is one; all intersection predicates use closed (tangency counts)
comparisons on squared forms, so no square roots enter any decision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InputError
from .graph import Graph

DISK = "disk"
SQUARE = "square"


@dataclass(frozen=True, slots=True)
class FatObject:
    """One object: a disk (inner == outer) or an axis-aligned square.

    For squares the inner radius is half the side and the outer radius is
    half the diagonal. The object's diameter is 2 * outer_radius for both
    shapes.
    """

    x: float
    y: float
    inner_radius: float
    outer_radius: float
    shape_tag: str = DISK

    def __post_init__(self):
        if self.shape_tag not in (DISK, SQUARE):
            raise InputError(f"unsupported shape tag {self.shape_tag!r}")
        if not (0.0 < self.inner_radius <= self.outer_radius):
            raise InputError(
                f"need 0 < inner <= outer, got ({self.inner_radius}, {self.outer_radius})"
            )
        if self.shape_tag == DISK and self.inner_radius != self.outer_radius:
            raise InputError("disk requires inner_radius == outer_radius")
        if self.shape_tag == SQUARE and not math.isclose(
            self.outer_radius, self.inner_radius * math.sqrt(2.0), rel_tol=1e-9
        ):
            raise InputError(
                f"square requires outer_radius == inner_radius * sqrt(2), got "
                f"({self.inner_radius}, {self.outer_radius})"
            )

    @property
    def diameter(self) -> float:
        return 2.0 * self.outer_radius


@dataclass(frozen=True)
class ObjectSet:
    """A similarly sized set of fat objects.

    alpha is the fatness lower bound (inner/outer >= alpha for every
    object), gamma bounds the largest/smallest diameter ratio. The
    smallest diameter is normalized to one.
    """

    objects: tuple[FatObject, ...]
    alpha: float = 1.0
    gamma: float = 1.0


# absolute slack in validate_object_set's diameter, ratio and fatness checks
TOLERANCE = 1e-9


def validate_object_set(objs: ObjectSet) -> None:
    """Raise InputError when the set-level invariants fail."""
    if not (0.0 < objs.alpha <= 1.0):
        raise InputError(f"alpha must be in (0, 1], got {objs.alpha}")
    if not 1.0 <= objs.gamma < math.inf:
        raise InputError(f"gamma must be finite and >= 1, got {objs.gamma}")
    if not objs.objects:
        return
    diams = [o.diameter for o in objs.objects]
    if abs(min(diams) - 1.0) > TOLERANCE:
        raise InputError(f"smallest diameter must be 1, got {min(diams)}")
    if max(diams) / min(diams) > objs.gamma + TOLERANCE:
        raise InputError(
            f"diameter ratio {max(diams) / min(diams)} exceeds gamma={objs.gamma}"
        )
    for o in objs.objects:
        if o.inner_radius / o.outer_radius < objs.alpha - TOLERANCE:
            raise InputError(f"object fatness below alpha={objs.alpha}: {o}")


def objects_intersect(a: FatObject, b: FatObject) -> bool:
    """Closed intersection test; tangent objects count as intersecting."""
    dx = a.x - b.x
    dy = a.y - b.y
    if a.shape_tag == DISK and b.shape_tag == DISK:
        r = a.outer_radius + b.outer_radius
        return dx * dx + dy * dy <= r * r
    if a.shape_tag == SQUARE and b.shape_tag == SQUARE:
        h = a.inner_radius + b.inner_radius
        return abs(dx) <= h and abs(dy) <= h
    # disk vs axis-aligned square: clamp the disk center to the box
    if a.shape_tag == SQUARE:
        a, b = b, a
        dx, dy = -dx, -dy
    ox = max(abs(dx) - b.inner_radius, 0.0)
    oy = max(abs(dy) - b.inner_radius, 0.0)
    r = a.outer_radius
    return ox * ox + oy * oy <= r * r


def build_intersection_graph(objs: ObjectSet) -> Graph:
    """Graph on the objects; edge iff the two objects intersect.

    Near-linear construction. Centers are bucketed on a grid whose cell
    side equals the largest diameter, cell (floor(x/side), floor(y/side)),
    so only objects in 3x3-adjacent cells can intersect. Each column of
    cells is sorted by row; an object is paired with the objects after it
    in its own column and with those of the next column, in both cases
    only within one row of its own. That visits every candidate pair
    exactly once, with one objects_intersect call each, and the sorted
    adjacency lists go straight into the Graph.
    """
    objects = objs.objects
    n = len(objects)
    if n == 0:
        return Graph(n=0, adj=(), m=0)
    cell = max(o.diameter for o in objects)
    if not math.isfinite(cell):
        raise InputError(f"largest diameter must be finite, got {cell}")
    floor = math.floor
    # column -> its (row, id) pairs, sorted by row below
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, o in enumerate(objects):
        try:
            cx, cy = floor(o.x / cell), floor(o.y / cell)
        except (ValueError, OverflowError) as exc:
            raise InputError(
                f"object {i}: center ({o.x}, {o.y}) over cell side {cell} is not finite"
            ) from exc
        columns.setdefault(cx, []).append((cy, i))
    for col in columns.values():
        col.sort()
    intersect = objects_intersect
    adj: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for cx, col in columns.items():
        nxt = columns.get(cx + 1, ())
        size, nsize = len(col), len(nxt)
        lo = 0
        for p, (cy, i) in enumerate(col):
            a = objects[i]
            top = cy + 1
            q = p + 1
            while q < size:
                row, j = col[q]
                if row > top:
                    break
                if intersect(a, objects[j]):
                    adj[i].append(j)
                    adj[j].append(i)
                    m += 1
                q += 1
            # the next column's window starts at row cy - 1, and cy only grows
            while lo < nsize and nxt[lo][0] < cy - 1:
                lo += 1
            q = lo
            while q < nsize:
                row, j = nxt[q]
                if row > top:
                    break
                if intersect(a, objects[j]):
                    adj[i].append(j)
                    adj[j].append(i)
                    m += 1
                q += 1
    for nbrs in adj:
        nbrs.sort()
    return Graph(n=n, adj=tuple(map(tuple, adj)), m=m)


def _unit_disk(x: float, y: float) -> FatObject:
    return FatObject(x, y, 0.5, 0.5, DISK)


def random_udg(n: int, density: float, seed: int) -> ObjectSet:
    """n unit-diameter disks uniform in a square of side sqrt(n/density)."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not 0 < density < math.inf:  # nan fails both comparisons
        raise InputError(f"need finite density > 0, got {density}")
    rng = random.Random(seed)
    side = math.sqrt(n / density)
    disks = tuple(_unit_disk(rng.random() * side, rng.random() * side) for _ in range(n))
    return ObjectSet(objects=disks, alpha=1.0, gamma=1.0)


# straight-path layout: path centers sit 0.9 apart on the x axis, so only
# consecutive unit disks meet; a hub 0.4 above its anchor meets the anchor
# and its two path neighbors (0.985 away) and nothing else; anchors 5 apart
# keep the hub gadgets vertex-disjoint
_STEP = 0.9
_HUB_OFF = 0.4
_ANCHOR_GAP = 5


def planted_yes_instance(k: int, path_len: int, seed: int) -> ObjectSet:
    """A straight path of unit disks plus k hub disks, each closing local cycles.

    Path disk i sits at (0.9 i, 0). Every hub sits 0.4 above its anchor and
    overlaps exactly the anchor and the anchor's two path neighbors;
    deleting the k hubs leaves the bare path, so the minimum feedback
    vertex set has size at most k. The path has max(path_len, 6k + 12)
    disks (path_len when k = 0), and the anchors are k distinct slots of
    range(2, n_path - 2, 5) drawn with `seed`: five path positions apart,
    which makes the k hub gadgets vertex-disjoint.
    """
    if k < 0:
        raise InputError(f"need k >= 0, got {k}")
    if path_len < 2:
        raise InputError(f"need path_len >= 2, got {path_len}")
    n_path = max(path_len, 6 * k + 12) if k > 0 else path_len
    anchors = random.Random(seed).sample(range(2, n_path - 2, _ANCHOR_GAP), k)
    disks = [_unit_disk(_STEP * i, 0.0) for i in range(n_path)]
    disks += [_unit_disk(_STEP * a, _HUB_OFF) for a in sorted(anchors)]
    return ObjectSet(objects=tuple(disks), alpha=1.0, gamma=1.0)
