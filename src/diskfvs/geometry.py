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
from .graph import Graph, from_edge_list

DISK = "disk"
SQUARE = "square"


@dataclass(frozen=True)
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

    def __len__(self) -> int:
        return len(self.objects)


def validate_object_set(objs: ObjectSet, tol: float = 1e-9) -> None:
    """Raise InputError when the set-level invariants fail."""
    if not (0.0 < objs.alpha <= 1.0):
        raise InputError(f"alpha must be in (0, 1], got {objs.alpha}")
    if not 1.0 <= objs.gamma < math.inf:
        raise InputError(f"gamma must be finite and >= 1, got {objs.gamma}")
    if not objs.objects:
        return
    diams = [o.diameter for o in objs.objects]
    if abs(min(diams) - 1.0) > tol:
        raise InputError(f"smallest diameter must be 1, got {min(diams)}")
    if max(diams) / min(diams) > objs.gamma + tol:
        raise InputError(
            f"diameter ratio {max(diams) / min(diams)} exceeds gamma={objs.gamma}"
        )
    for o in objs.objects:
        if o.inner_radius / o.outer_radius < objs.alpha - tol:
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

    Near-linear construction: centers are bucketed on a grid whose cell
    side equals the largest diameter, so only the 3x3 neighborhood of a
    bucket can contain intersecting partners.
    """
    n = len(objs.objects)
    if n == 0:
        return from_edge_list(0, [])
    cell = max(o.diameter for o in objs.objects)
    if not math.isfinite(cell):
        raise InputError(f"largest diameter must be finite, got {cell}")
    buckets: dict[tuple[int, int], list[int]] = {}
    coords = []
    for i, o in enumerate(objs.objects):
        try:
            key = (math.floor(o.x / cell), math.floor(o.y / cell))
        except (ValueError, OverflowError) as exc:
            raise InputError(
                f"object {i}: center ({o.x}, {o.y}) over cell side {cell} is not finite"
            ) from exc
        buckets.setdefault(key, []).append(i)
        coords.append(key)
    edges = []
    for i, o in enumerate(objs.objects):
        cx, cy = coords[i]
        for px in (cx - 1, cx, cx + 1):
            for py in (cy - 1, cy, cy + 1):
                for j in buckets.get((px, py), ()):
                    if j > i and objects_intersect(o, objs.objects[j]):
                        edges.append((i, j))
    return from_edge_list(n, edges)


def _unit_disk(x: float, y: float) -> FatObject:
    return FatObject(x=x, y=y, inner_radius=0.5, outer_radius=0.5, shape_tag=DISK)


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


# snake layout constants: consecutive path centers sit 0.9 apart, rows are
# 1.8 apart (one intermediate turn disk), hubs float 0.4 off their anchor
_STEP = 0.9
_ROW_GAP = 1.8
_HUB_OFF = 0.4
_ANCHOR_GAP = 5


def _snake_path(path_len: int) -> tuple[list[tuple[float, float]], list[int]]:
    """Centers of a serpentine path plus the indices eligible as anchors.

    Eligible indices lie in a row interior: the two previous and two next
    path disks exist and share the row, keeping the hub clear of turns.
    """
    row_len = max(5, math.ceil(math.sqrt(path_len)))
    centers: list[tuple[float, float]] = []
    rows: list[int] = []
    row = 0
    pos = 0
    while len(centers) < path_len:
        xs = range(row_len) if row % 2 == 0 else range(row_len - 1, -1, -1)
        for j in xs:
            if len(centers) >= path_len:
                break
            centers.append((_STEP * j, _ROW_GAP * row))
            rows.append(row)
            pos += 1
        if len(centers) < path_len:
            # one intermediate disk climbing to the next row
            x_end = centers[-1][0]
            centers.append((x_end, _ROW_GAP * row + _STEP))
            rows.append(-1)  # turn disk, never an anchor
            row += 1
    eligible = [
        i
        for i in range(2, len(centers) - 2)
        if rows[i] >= 0 and all(rows[i + d] == rows[i] for d in (-2, -1, 1, 2))
    ]
    return centers, eligible


def planted_yes_instance(k: int, path_len: int, seed: int) -> tuple[ObjectSet, int]:
    """A snake of unit disks plus k hub disks, each closing local cycles.

    Every hub overlaps exactly its anchor and the anchor's two path
    neighbors; deleting the k hubs leaves the bare path, so the minimum
    feedback vertex set has size at most k. Anchors are kept at least
    five path positions apart, which makes the k hub gadgets
    vertex-disjoint.
    """
    if k < 0:
        raise InputError(f"need k >= 0, got {k}")
    if path_len < 2:
        raise InputError(f"need path_len >= 2, got {path_len}")

    def pick(candidates) -> list[int]:
        out: list[int] = []
        for cand in candidates:
            if len(out) == k:
                break
            if all(abs(cand - a) >= _ANCHOR_GAP for a in out):
                out.append(cand)
        return out

    # grow the path until the evenly spaced pick can host all k hubs
    effective_len = max(path_len, 6 * k + 12) if k > 0 else path_len
    while True:
        centers, eligible = _snake_path(effective_len)
        if len(pick(sorted(eligible))) >= k:
            break
        effective_len = max(effective_len + 5, int(effective_len * 13 // 10))

    rng = random.Random(seed)
    shuffled = list(eligible)
    rng.shuffle(shuffled)
    anchors = pick(shuffled)
    if len(anchors) < k:
        anchors = pick(sorted(eligible))
    disks = [_unit_disk(x, y) for (x, y) in centers]
    for a in sorted(anchors):
        x, y = centers[a]
        disks.append(_unit_disk(x, y + _HUB_OFF))
    return ObjectSet(objects=tuple(disks), alpha=1.0, gamma=1.0), k
