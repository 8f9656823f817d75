"""Raster explicitation pipeline: pixels to referenced structural properties.

A two-level raster becomes a base structure (one part per pixel, intensity
types, 4-neighborhood relations).  Regions split at value ruptures, strokes
are traced into chains broken at junctions and corners, straight chains are
classified into quantized bins, and the segment quotient carries the explicit
properties forward with their structural references.  Recognition happens by
converging the per-feature checks of a signature into one score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .config import DEFAULT, Config
from .derivation import MorphismMask, Partition, Portion
from .structure import (Relation, Structure, StructureError, TypeCatalog,
                        _is_connected)


class RasterError(StructureError):
    pass


Pixel = tuple[int, int]


# ---------------------------------------------------------------------------
# raster and base structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RasterStructure:
    width: int
    height: int
    values: tuple[tuple[int, ...], ...]   # values[y][x]
    ink: int                              # intensity treated as stroke

    def value(self, x: int, y: int) -> int:
        return self.values[y][x]

    def is_binary(self) -> bool:
        return len({v for row in self.values for v in row}) <= 2

    def ink_pixels(self) -> set[Pixel]:
        return {(x, y) for y in range(self.height) for x in range(self.width)
                if self.values[y][x] == self.ink}

    def to_structure(self) -> Structure:
        parts = []
        types = []
        rels = []
        for y in range(self.height):
            for x in range(self.width):
                parts.append(_pid(x, y))
                types.append(f"v{self.values[y][x]}")
        for y in range(self.height):
            for x in range(self.width):
                if x + 1 < self.width:
                    rels.append(Relation(_pid(x, y), _pid(x + 1, y), "adj"))
                if y + 1 < self.height:
                    rels.append(Relation(_pid(x, y), _pid(x, y + 1), "adj"))
        return Structure(tuple(parts), tuple(types), tuple(rels))


def _pid(x: int, y: int) -> str:
    return f"p{x}_{y}"


def load_raster(data: bytes | str) -> RasterStructure:
    """Parse ASCII PBM (P1) or PGM (P2); lossless."""
    text = data.decode("ascii") if isinstance(data, bytes) else data
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens:
        raise RasterError("empty raster file")
    magic = tokens.pop(0)
    if magic not in ("P1", "P2"):
        raise RasterError(f"unsupported raster format {magic!r}")
    try:
        if len(tokens) < 2:
            raise RasterError("missing dimensions")
        width, height = int(tokens.pop(0)), int(tokens.pop(0))
    except ValueError:
        raise RasterError("malformed dimensions")
    if width <= 0 or height <= 0:
        raise RasterError("dimensions must be positive")
    if magic == "P1":
        digits = "".join(tokens)
        if len(digits) < width * height:
            raise RasterError("truncated pixel data")
        if any(c not in "01" for c in digits[:width * height]):
            raise RasterError("P1 pixels must be 0 or 1")
        flat = [int(c) for c in digits[:width * height]]
        ink = 1
    else:
        if not tokens:
            raise RasterError("missing maxval")
        try:
            maxval = int(tokens.pop(0))
        except ValueError:
            raise RasterError("maxval must be an integer")
        if maxval <= 0:
            raise RasterError("maxval must be positive")
        if len(tokens) < width * height:
            raise RasterError("truncated pixel data")
        try:
            flat = [int(t) for t in tokens[:width * height]]
        except ValueError:
            raise RasterError("P2 pixels must be integers")
        if any(v < 0 or v > maxval for v in flat):
            raise RasterError("pixel out of range")
        ink = min(flat)   # darkest value is the stroke
    rows = tuple(tuple(flat[y * width:(y + 1) * width]) for y in range(height))
    return RasterStructure(width, height, rows, ink)


def serialize_raster(r: RasterStructure) -> str:
    lines = ["P1", f"{r.width} {r.height}"]
    for row in r.values:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# region segmentation
# ---------------------------------------------------------------------------

def segment_regions(r: RasterStructure) -> Partition:
    """Blocks are the 4-connected components of equal intensity."""
    base = r.to_structure()
    seen: set[Pixel] = set()
    blocks: list[list[Pixel]] = []
    for y in range(r.height):
        for x in range(r.width):
            if (x, y) in seen:
                continue
            v = r.values[y][x]
            comp = []
            stack = [(x, y)]
            seen.add((x, y))
            while stack:
                cx, cy = stack.pop()
                comp.append((cx, cy))
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if 0 <= nx < r.width and 0 <= ny < r.height \
                            and (nx, ny) not in seen and r.values[ny][nx] == v:
                        seen.add((nx, ny))
                        stack.append((nx, ny))
            blocks.append(sorted(comp, key=lambda p: (p[1], p[0])))
    # build portions directly; flood fill already guarantees validity
    by_block: dict[Pixel, int] = {}
    for i, comp in enumerate(blocks):
        for p in comp:
            by_block[p] = i
    rels_of: dict[int, list[Relation]] = {i: [] for i in range(len(blocks))}
    for rel in base.relations:
        pa, pb = _coords(rel.a), _coords(rel.b)
        if by_block[pa] == by_block[pb]:
            rels_of[by_block[pa]].append(rel)
    portions = []
    for i, comp in enumerate(blocks):
        ids = tuple(_pid(x, y) for x, y in comp)
        tys = tuple(f"v{r.values[y][x]}" for x, y in comp)
        sub = Structure(ids, tys, tuple(rels_of[i]))
        portions.append(Portion(base, frozenset(ids), sub))
    return Partition(base, tuple(portions))


def _coords(pid: str) -> Pixel:
    x, y = pid[1:].split("_")
    return int(x), int(y)


# ---------------------------------------------------------------------------
# stroke extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Ordered pixel path of one stroke piece.

    joints are the vertex coordinates this chain touches (junction pixels or
    corner break points); closed marks a full cycle with no break at all.
    """
    pixels: tuple[Pixel, ...]
    joints: tuple[Pixel, ...] = ()
    closed: bool = False

    @property
    def a(self) -> Pixel:
        return self.pixels[0]

    @property
    def b(self) -> Pixel:
        return self.pixels[-1]


def extract_strokes(r: RasterStructure, cfg: Config = DEFAULT) -> list[Chain]:
    """Chains of stroke pixels, split at junctions and at direction breaks."""
    if not r.is_binary():
        raise RasterError("stroke extraction requires a binary raster")
    ink = _thin(r.ink_pixels())
    if not ink:
        return []
    ink = _prune_spurs(ink, cfg)
    adj = _stroke_adjacency(ink)
    raw = _trace_chains(ink, adj)
    out: list[Chain] = []
    for path, junction_joints, closed in raw:
        out.extend(_split_at_corners(path, junction_joints, closed, cfg))
    return out


def _prune_spurs(ink: set[Pixel], cfg: Config, spur_len: int = 3) -> set[Pixel]:
    """Drop tiny dead-end stubs hanging off junctions.

    Rasterized corners often grow a one or two pixel whisker whose root then
    looks like a junction and breaks cycle tracing.
    """
    ink = set(ink)
    while True:
        adj = _stroke_adjacency(ink)
        degree = {p: len(adj[p]) for p in ink}
        junctions = {p for p in ink if degree[p] >= 3}
        if not junctions:
            return ink
        removed = set()
        for start in sorted(p for p in ink if degree[p] == 1):
            trail = [start]
            cur, prev = start, None
            while degree[cur] <= 2 and len(trail) <= spur_len:
                nxt = [q for q in adj[cur] if q != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                if cur in junctions:
                    removed.update(trail)
                    break
                trail.append(cur)
        if not removed:
            return ink
        ink -= removed


def _thin(ink: set[Pixel]) -> set[Pixel]:
    """Zhang-Suen thinning; no-op unless some 2x2 block is fully inked."""
    if not any((x + 1, y) in ink and (x, y + 1) in ink and (x + 1, y + 1) in ink
               for x, y in ink):
        return set(ink)
    img = set(ink)

    def neighbors(p):
        x, y = p
        return [(x, y - 1), (x + 1, y - 1), (x + 1, y), (x + 1, y + 1),
                (x, y + 1), (x - 1, y + 1), (x - 1, y), (x - 1, y - 1)]

    changed = True
    while changed:
        changed = False
        for phase in (0, 1):
            to_delete = []
            for p in img:
                nb = [1 if q in img else 0 for q in neighbors(p)]
                b = sum(nb)
                if not (2 <= b <= 6):
                    continue
                a = sum(1 for i in range(8) if nb[i] == 0 and nb[(i + 1) % 8] == 1)
                if a != 1:
                    continue
                p2, p4, p6, p8 = nb[0], nb[2], nb[4], nb[6]
                if phase == 0:
                    if p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0:
                        to_delete.append(p)
                else:
                    if p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0:
                        to_delete.append(p)
            if to_delete:
                img -= set(to_delete)
                changed = True
    return img


def _stroke_adjacency(ink: set[Pixel]) -> dict[Pixel, list[Pixel]]:
    """8-adjacency, dropping diagonal links that shortcut an orthogonal path."""
    adj: dict[Pixel, list[Pixel]] = {p: [] for p in ink}
    for x, y in sorted(ink):
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            q = (x + dx, y + dy)
            if q not in ink:
                continue
            if dx and dy:
                if ((x + dx, y) in ink) or ((x, y + dy) in ink):
                    continue
            adj[(x, y)].append(q)
            adj[q].append((x, y))
    for p in adj:
        adj[p].sort()
    return adj


def _trace_chains(ink: set[Pixel], adj: dict[Pixel, list[Pixel]]
                  ) -> list[tuple[list[Pixel], bool]]:
    degree = {p: len(adj[p]) for p in ink}
    nodes = sorted(p for p in ink if degree[p] != 2)
    used_edges: set[tuple[Pixel, Pixel]] = set()
    claimed: set[Pixel] = set()
    chains: list[tuple[list[Pixel], bool]] = []

    def edge(a, b):
        return (a, b) if a <= b else (b, a)

    def walk(start, first):
        path = [start, first]
        used_edges.add(edge(start, first))
        while degree[path[-1]] == 2:
            nxts = [q for q in adj[path[-1]] if edge(path[-1], q) not in used_edges]
            if not nxts:
                break
            used_edges.add(edge(path[-1], nxts[0]))
            path.append(nxts[0])
        return path

    for node in nodes:
        for first in adj[node]:
            if edge(node, first) in used_edges:
                continue
            path = walk(node, first)
            chains.append((path, False))
    # leftover pure cycles
    for p in sorted(ink):
        if degree[p] == 2 and not any(edge(p, q) in used_edges for q in adj[p]):
            path = walk(p, adj[p][0])
            if len(path) > 1 and path[-1] == p:
                path = path[:-1]
            chains.append((path, True))
    # isolated dots
    for p in sorted(ink):
        if degree[p] == 0:
            chains.append(([p], False))
    # junction pixels belong to exactly one chain: drop them from later paths
    final = []
    for path, closed in chains:
        trimmed = list(path)
        joints = []
        if not closed:
            if degree.get(trimmed[0], 0) >= 3:
                joints.append(trimmed[0])
                if trimmed[0] in claimed:
                    trimmed = trimmed[1:]
            if trimmed and degree.get(trimmed[-1], 0) >= 3:
                joints.append(trimmed[-1])
                if trimmed[-1] in claimed:
                    trimmed = trimmed[:-1]
        if not trimmed:
            continue
        claimed.update(trimmed)
        final.append((trimmed, tuple(joints), closed))
    return final


def _d2(a: Pixel, b: Pixel) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _turn_angle(path: Sequence[Pixel], i: int, w: int, closed: bool) -> float:
    n = len(path)
    if closed:
        a = path[(i - w) % n]
        b = path[i]
        c = path[(i + w) % n]
    else:
        if i - w < 0 or i + w >= n:
            return 0.0
        a, b, c = path[i - w], path[i], path[i + w]
    v1 = (b[0] - a[0], b[1] - a[1])
    v2 = (c[0] - b[0], c[1] - b[1])
    n1 = math.hypot(*v1)
    n2 = math.hypot(*v2)
    if n1 == 0 or n2 == 0:
        return 0.0
    dot = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def _corner_indices(path: Sequence[Pixel], closed: bool, cfg: Config) -> list[int]:
    n = len(path)
    w = cfg.corner_window
    if n < 2 * w + 1:
        return []
    turns = {i: _turn_angle(path, i, w, closed) for i in range(n)}
    candidates = [i for i in range(n) if turns[i] > cfg.corner_angle_deg]
    corners = []
    for i in candidates:
        window = range(i - w, i + w + 1)
        vals = []
        for j in window:
            jj = j % n if closed else j
            if 0 <= jj < n:
                vals.append((turns.get(jj, 0.0), -abs(j - i)))
        if (turns[i], 0) >= max(vals):
            corners.append(i)
    # collapse adjacent picks
    out = []
    for i in corners:
        if out and (i - out[-1]) <= w:
            continue
        out.append(i)
    if closed and out and (out[0] + n - out[-1]) <= w:
        out.pop()
    return out


def _split_at_corners(path: list[Pixel], junction_joints: tuple[Pixel, ...],
                      closed: bool, cfg: Config) -> list[Chain]:
    corners = _corner_indices(path, closed, cfg)
    if not corners:
        return [Chain(tuple(path), tuple(junction_joints), closed)]
    pieces = []
    if closed:
        k = len(corners)
        for idx in range(k):
            i, j = corners[idx], corners[(idx + 1) % k]
            if j > i:
                seg = path[i:j + 1]
            else:
                seg = path[i:] + path[:j + 1]
            joints = (path[i], path[j])
            pieces.append(Chain(tuple(seg), joints, False))
    else:
        # a junction joint sits at one of the two original ends; hand it to
        # the piece that still owns that end
        start_j = [j for j in junction_joints
                   if _d2(j, path[0]) <= _d2(j, path[-1])]
        end_j = [j for j in junction_joints if j not in start_j]
        bounds = [0] + corners + [len(path) - 1]
        for a, b in zip(bounds, bounds[1:]):
            seg = path[a:b + 1]
            joints = [path[i] for i in (a, b) if i in corners]
            if a == 0:
                joints.extend(start_j)
            if b == len(path) - 1:
                joints.extend(end_j)
            if len(seg) >= 2:
                pieces.append(Chain(tuple(seg), tuple(joints), False))
    # corner pixels sit in two pieces geometrically; ownership goes to the
    # earlier piece, later pieces keep the coordinate only as a joint
    owned: set[Pixel] = set()
    final = []
    for ch in pieces:
        px = tuple(p for p in ch.pixels if p not in owned)
        owned.update(px)
        if px:
            final.append(Chain(px, ch.joints, False))
    return final


# ---------------------------------------------------------------------------
# property assertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyAssertion:
    target: tuple            # ("part", id) | ("pair", id, id) | ("structure",)
    feature: str
    value: object            # bool, bin index, or score in [0, 1]

    def as_json(self) -> dict:
        return {"target": list(self.target), "feature": self.feature,
                "value": self.value}


def _chord_angle_deg(a: Pixel, b: Pixel) -> float:
    ang = math.degrees(math.atan2(b[1] - a[1], b[0] - a[0]))
    return ang % 360.0


def orientation_bin(a: Pixel, b: Pixel, cfg: Config = DEFAULT) -> int:
    """Undirected orientation folded onto half a turn, 22.5 degree bins."""
    ang = _chord_angle_deg(a, b) % 180.0
    half = cfg.orientation_bins // 2
    return round(ang / (360.0 / cfg.orientation_bins)) % half


def length_bin(length: float) -> int:
    return max(0, int(math.floor(math.log2(max(1.0, length)))))


def max_chord_deviation(path: Sequence[Pixel]) -> float:
    (x0, y0), (x1, y1) = path[0], path[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = math.hypot(dx, dy)
    if norm == 0:
        return max(math.hypot(px - x0, py - y0) for px, py in path)
    return max(abs(dy * (px - x0) - dx * (py - y0)) / norm for px, py in path)


def effective_endpoints(chain: Chain, cfg: Config = DEFAULT) -> tuple[Pixel, Pixel]:
    """Chain span including the vertex pixels owned by neighboring chains."""
    ends = [chain.a, chain.b]
    for i, end in enumerate(ends):
        candidates = [j for j in chain.joints
                      if _d2(j, end) <= cfg.joint_radius_px ** 2]
        if candidates:
            other = ends[1 - i]
            ends[i] = max(candidates, key=lambda j: _d2(j, other))
    return ends[0], ends[1]


def _geometry_pixels(chain: Chain, cfg: Config) -> tuple[Pixel, ...]:
    """Pixels used for deviation scoring; the ambiguous zone right at a
    vertex belongs to the vertex, not to either side."""
    if not chain.joints:
        return chain.pixels
    slack2 = cfg.tip_slack_px ** 2
    kept = tuple(p for p in chain.pixels
                 if all(_d2(p, j) >= slack2 for j in chain.joints))
    return kept if len(kept) >= 2 else chain.pixels


def classify_segment(chain: Chain, part: str = "chain",
                     cfg: Config = DEFAULT) -> list[PropertyAssertion]:
    """Straightness, length bin, orientation bin and curvature bin."""
    if len(chain.pixels) < 2:
        raise RasterError("cannot classify a single-pixel chain")
    dev = max_chord_deviation(_geometry_pixels(chain, cfg))
    straight = max(0.0, min(1.0, 1.0 - dev / cfg.straightness_dev_px))
    a, b = effective_endpoints(chain, cfg)
    chord = math.hypot(b[0] - a[0], b[1] - a[1])
    target = ("part", part)
    return [
        PropertyAssertion(target, "is-straight", round(straight, 6)),
        PropertyAssertion(target, "length-bin", length_bin(chord)),
        PropertyAssertion(target, "orientation-bin",
                          orientation_bin(a, b, cfg)),
        PropertyAssertion(target, "curvature-bin",
                          min(7, int(16.0 * dev / max(chord, 1.0)))),
    ]


# ---------------------------------------------------------------------------
# polygon quotient
# ---------------------------------------------------------------------------

SUPPRESS_LENGTH = MorphismMask.make(drop_part_attrs={"length-bin"})
SUPPRESS_ANGLES = MorphismMask.make(drop_part_attrs={"orientation-bin"},
                                    drop_rel_attrs={"angle-bin"})


@dataclass
class PolygonAnalysis:
    quotient: Optional[Structure]
    assertions: list[PropertyAssertion]
    chains: list[Chain]
    problems: list[str]


def polygon_quotient(r: RasterStructure, catalog: Optional[TypeCatalog] = None,
                     cfg: Config = DEFAULT) -> PolygonAnalysis:
    """Segment-level structure plus the explicit referenced properties.

    Every chain must be a straight segment; otherwise the problems list says
    which are not and the polygon-level assertions are omitted.
    """
    catalog = catalog if catalog is not None else TypeCatalog()
    all_chains = [c for c in extract_strokes(r, cfg) if len(c.pixels) >= 2]
    assertions: list[PropertyAssertion] = []
    problems: list[str] = []
    if not all_chains:
        return PolygonAnalysis(None, [], [], ["no strokes found"])

    # chains too short to be sides are vertex connectors left by the skeleton
    def chord_len(ch):
        a, b = effective_endpoints(ch, cfg)
        return math.hypot(b[0] - a[0], b[1] - a[1])

    chains = [c for c in all_chains if chord_len(c) >= cfg.min_segment_px]
    connectors = [c for c in all_chains if chord_len(c) < cfg.min_segment_px]
    if not chains:
        return PolygonAnalysis(None, [], all_chains, ["no segment-size strokes"])
    per_part = {}
    for i, ch in enumerate(chains):
        part = f"s{i}"
        found = classify_segment(ch, part, cfg)
        per_part[part] = {a.feature: a.value for a in found}
        if per_part[part]["is-straight"] < cfg.straight_min_score:
            problems.append(f"chain {part} is not straight")
    if problems:
        for i in range(len(chains)):
            for feat, val in sorted(per_part[f"s{i}"].items()):
                assertions.append(PropertyAssertion(("part", f"s{i}"), feat, val))
        return PolygonAnalysis(None, assertions, chains, problems)

    # joints: chain terminals meeting within the joint radius, directly or
    # bridged by a connector blob
    def terminals(i):
        ch = chains[i]
        t = list(effective_endpoints(ch, cfg))
        t.extend(ch.joints)
        return t

    def near(p, q, slack=0.0):
        return math.hypot(p[0] - q[0], p[1] - q[1]) <= cfg.joint_radius_px + slack

    def line_intersection(i, j, fallback):
        # skeleton corners erode a pixel or two; the line crossing recovers
        # the true vertex
        (a1, b1) = effective_endpoints(chains[i], cfg)
        (a2, b2) = effective_endpoints(chains[j], cfg)
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        d2 = (b2[0] - a2[0], b2[1] - a2[1])
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(cross) < 1e-9:
            return fallback
        t = ((a2[0] - a1[0]) * d2[1] - (a2[1] - a1[1]) * d2[0]) / cross
        vx = (a1[0] + t * d1[0], a1[1] + t * d1[1])
        if math.hypot(vx[0] - fallback[0], vx[1] - fallback[1]) > 4.0:
            return fallback
        return vx

    joints: dict[tuple[int, int], Pixel] = {}
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            best = None
            for p in terminals(i):
                for q in terminals(j):
                    d = math.hypot(p[0] - q[0], p[1] - q[1])
                    if d <= cfg.joint_radius_px and (best is None or d < best[0]):
                        best = (d, p, q)
            if best:
                vx = ((best[1][0] + best[2][0]) / 2.0,
                      (best[1][1] + best[2][1]) / 2.0)
                joints[(i, j)] = line_intersection(i, j, vx)
                continue
            for conn in connectors:
                probe = list(conn.pixels) + list(conn.joints)
                if any(near(p, c) for p in terminals(i) for c in probe) and \
                        any(near(q, c) for q in terminals(j) for c in probe):
                    cx = sum(p[0] for p in conn.pixels) / len(conn.pixels)
                    cy = sum(p[1] for p in conn.pixels) / len(conn.pixels)
                    joints[(i, j)] = line_intersection(i, j, (cx, cy))
                    break

    # a side with both vertices known is measured vertex to vertex, which is
    # immune to skeleton erosion at the corners
    vertex_of: dict[int, list] = {i: [] for i in range(len(chains))}
    for (i, j), vx in joints.items():
        vertex_of[i].append(vx)
        vertex_of[j].append(vx)
    for i in range(len(chains)):
        if len(vertex_of[i]) == 2:
            v1, v2 = vertex_of[i]
            span = math.hypot(v2[0] - v1[0], v2[1] - v1[1])
            per_part[f"s{i}"]["length-bin"] = length_bin(span)
            per_part[f"s{i}"]["orientation-bin"] = orientation_bin(v1, v2, cfg)
    for i in range(len(chains)):
        for feat, val in sorted(per_part[f"s{i}"].items()):
            assertions.append(PropertyAssertion(("part", f"s{i}"), feat, val))

    def away_vector(i, vertex):
        cands = [v for v in vertex_of[i]
                 if math.hypot(v[0] - vertex[0], v[1] - vertex[1]) > 1.0]
        if cands:
            far = max(cands, key=lambda v: _d2(v, vertex))
        else:
            ea, eb = effective_endpoints(chains[i], cfg)
            far = eb if _d2(ea, vertex) <= _d2(eb, vertex) else ea
        return (far[0] - vertex[0], far[1] - vertex[1])

    parts = []
    types = []
    for i in range(len(chains)):
        parts.append(f"s{i}")
        attrs = {"length-bin": per_part[f"s{i}"]["length-bin"],
                 "orientation-bin": per_part[f"s{i}"]["orientation-bin"]}
        types.append(catalog.intern_attr("segment", attrs))
    rels = []
    angle_bins = []
    for (i, j), vertex in sorted(joints.items()):
        v1 = away_vector(i, vertex)
        v2 = away_vector(j, vertex)
        n1, n2 = math.hypot(*v1), math.hypot(*v2)
        if n1 == 0 or n2 == 0:
            angle = 0.0
        else:
            dot = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
            angle = math.degrees(math.acos(max(-1.0, min(1.0, dot))))
        bin_width = 360.0 / cfg.joint_angle_bins
        abin = round(angle / bin_width) % cfg.joint_angle_bins
        angle_bins.append(abin)
        rels.append(Relation(f"s{i}", f"s{j}", "joint", {"angle-bin": abin}))
        assertions.append(PropertyAssertion(("pair", f"s{i}", f"s{j}"),
                                            "joint-angle-bin", abin))
    quotient = Structure(tuple(parts), tuple(types), tuple(rels))

    # parallelism between distinct segments
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            if per_part[f"s{i}"]["orientation-bin"] == per_part[f"s{j}"]["orientation-bin"]:
                assertions.append(PropertyAssertion(
                    ("pair", f"s{i}", f"s{j}"), "parallel-to", True))

    # whole-structure assertions
    closed = (len(parts) >= 3 and len(rels) == len(parts)
              and all(len(ends) == 2 for ends in quotient.incidence.values())
              and _is_connected(quotient))
    assertions.append(PropertyAssertion(("structure",), "is-closed-cycle", closed))
    assertions.append(PropertyAssertion(("structure",), "side-count", len(parts)))
    lbins = [per_part[p]["length-bin"] for p in parts]
    assertions.append(PropertyAssertion(("structure",), "all-lengths-equal",
                                        len(set(lbins)) == 1))
    assertions.append(PropertyAssertion(("structure",), "all-angles-equal",
                                        len(set(angle_bins)) <= 1 and bool(angle_bins)))
    return PolygonAnalysis(quotient, assertions, chains, problems)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignatureAtom:
    feature: str
    value: object = None       # None accepts any value, scored by match
    target: tuple = ("*",)     # ("*",) or an exact assertion target

    def match_score(self, a: PropertyAssertion) -> float:
        if a.feature != self.feature:
            return 0.0
        if self.target != ("*",) and tuple(self.target) != tuple(a.target):
            return 0.0
        if self.value is not None:
            return 1.0 if a.value == self.value else 0.0
        if isinstance(a.value, bool):
            return 1.0 if a.value else 0.0
        if isinstance(a.value, float):
            return float(a.value)
        return 1.0


@dataclass(frozen=True)
class Signature:
    subject: str
    required: tuple[SignatureAtom, ...]
    forbidden: tuple[SignatureAtom, ...] = ()
    threshold: float = 0.5

    def __post_init__(self):
        if not self.required:
            raise StructureError("signature needs at least one required atom")


def evaluate_signature(sig: Signature,
                       assertions: Iterable[PropertyAssertion]
                       ) -> tuple[float, bool]:
    """Converge all member checks into one score; fired at the threshold."""
    assertions = list(assertions)
    score = 1.0
    for atom in sig.required:
        best = max((atom.match_score(a) for a in assertions), default=0.0)
        score = min(score, best)
    for atom in sig.forbidden:
        best = max((atom.match_score(a) for a in assertions), default=0.0)
        score = min(score, 1.0 - best)
    return score, score >= sig.threshold


def build_signature_candidates(examples: Sequence[Iterable[PropertyAssertion]],
                               subject: str = "candidate",
                               cfg: Config = DEFAULT) -> list[Signature]:
    """Maximal feature sets shared by every example, ranked by specificity."""
    if not examples:
        return []
    atom_sets = []
    for ex in examples:
        atoms = set()
        for a in ex:
            if isinstance(a.value, bool) or isinstance(a.value, int):
                atoms.add((a.feature, a.value))
            elif isinstance(a.value, float) and a.value >= cfg.signature_threshold:
                atoms.add((a.feature, None))
        atom_sets.append(atoms)
    common = set.intersection(*atom_sets)
    if not common:
        return []
    atoms = tuple(SignatureAtom(f, v)
                  for f, v in sorted(common, key=lambda t: (t[0], str(t[1]))))
    candidates = [Signature(subject, atoms, threshold=cfg.signature_threshold)]
    whole = tuple(a for a in atoms if a.feature in
                  ("is-closed-cycle", "side-count", "all-lengths-equal",
                   "all-angles-equal"))
    if whole and len(whole) < len(atoms):
        candidates.append(Signature(subject + "-whole", whole,
                                    threshold=cfg.signature_threshold))
    candidates.sort(key=lambda s: -len(s.required))
    return candidates
