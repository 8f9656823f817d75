"""Raster explicitation pipeline: pixels to referenced structural properties.

A two-level raster becomes a base structure (one part per pixel, intensity
types, 4-neighborhood relations).  Regions split at value ruptures; they are
labelled over row runs, and the per-pixel base structure is built only when a
caller asks for the regions as a partition.  Strokes are traced into chains
broken at junctions and corners, straight chains are classified into
quantized bins, and the segment quotient carries the explicit properties
forward with their structural references.  Recognition happens by
converging the per-feature checks of a signature into one score.

The per-pixel work runs in C where it can: P1 digits decode with one
`bytes.translate`, and the ink pixels are found with `tuple.count` and
`tuple.index` on each row.  Stroke tracing works on integer pixel ids, not
(x, y) tuples (see `extract_strokes`); a path turns back into (x, y)
pixels only where its chains are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Iterable, Optional, Sequence

from .config import DEFAULT, Config
from .derivation import Partition, Portion
from .io_struct import _tokens
from .structure import (Relation, Structure, StructureError, TypeCatalog,
                        _find, _is_connected)


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

    def is_binary(self) -> bool:
        return len(set().union(*self.values)) <= 2

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


# P1 digit byte to pixel value; every other byte to 2, which no P1 pixel is
_P1_VALUES = bytes({ord("0"): 0, ord("1"): 1}.get(b, 2) for b in range(256))


def load_raster(data: bytes | str) -> RasterStructure:
    """Parse ASCII PBM (P1) or PGM (P2); lossless."""
    text = data.decode("ascii") if isinstance(data, bytes) else data
    tokens = []
    for _, line in _tokens(text):
        tokens += line
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
        digits = "".join(tokens)[:width * height]
        if len(digits) < width * height:
            raise RasterError("truncated pixel data")
        # a character outside ASCII encodes as "?", which maps to 2 as
        # every byte but a 0 or 1 digit does
        flat = digits.encode("ascii", "replace").translate(_P1_VALUES)
        if 2 in flat:
            raise RasterError("P1 pixels must be 0 or 1")
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
    """P1 when the values are 0/1 and ink is 1; otherwise P2, which
    `load_raster` reads back with the darkest value as ink."""
    levels = {v for row in r.values for v in row}
    if levels <= {0, 1} and r.ink == 1:
        lines = ["P1", f"{r.width} {r.height}"]
    else:
        lines = ["P2", f"{r.width} {r.height}", str(max(1, *levels))]
    for row in r.values:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# region segmentation
# ---------------------------------------------------------------------------

Run = tuple[int, int, int]   # (y, x0, x1): pixels x0 <= x < x1 of row y


def _regions(r: RasterStructure) -> list[tuple[int, list[Run]]]:
    """The 4-connected regions of equal value, as (value, runs).

    Two-pass labelling over the equal-value runs of each row (Wu, Otoo &
    Suzuki, PAA 2009).  Runs are labelled in row-major order; a run is
    united with every same-value run of the previous row whose x-range
    overlaps its own.  Union keeps the smaller label as root, so a region's
    root is its first run: regions come out in row-major order of their
    first pixel, each with its runs in row-major order.
    """
    runs: list[Run] = []
    values: list[int] = []
    parent: list[int] = []
    prev: list[int] = []
    for y, row in enumerate(r.values):
        cur = []
        x0 = 0
        for v, group in groupby(row):
            x1 = x0 + len(list(group))
            label = len(runs)
            cur.append(label)
            parent.append(label)
            runs.append((y, x0, x1))
            values.append(v)
            x0 = x1
        # both rows tile [0, width), so one merge walk meets every
        # overlapping pair of runs exactly once
        i = j = 0
        while i < len(prev) and j < len(cur):
            a, b = prev[i], cur[j]
            if values[a] == values[b]:
                ra, rb = _find(parent, a), _find(parent, b)
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
            end_a, end_b = runs[a][2], runs[b][2]
            if end_a <= end_b:
                i += 1
            if end_b <= end_a:
                j += 1
        prev = cur
    regions: list[tuple[int, list[Run]]] = []
    slot = [0] * len(runs)
    for label, run in enumerate(runs):
        root = _find(parent, label)
        if root == label:
            slot[label] = len(regions)
            regions.append((values[label], []))
        regions[slot[root]][1].append(run)
    return regions


def region_sizes(r: RasterStructure) -> list[tuple[int, int]]:
    """Sorted (value, pixel count) of every 4-connected equal-value region."""
    return sorted((v, sum(x1 - x0 for _, x0, x1 in runs))
                  for v, runs in _regions(r))


def segment_regions(r: RasterStructure) -> Partition:
    """Blocks are the 4-connected components of equal intensity.

    Blocks follow the row-major order of their first pixel.  This builds the
    per-pixel base structure; callers that need only each region's value and
    size use `region_sizes`.
    """
    base = r.to_structure()
    pid = base.parts   # row-major: pixel (x, y) is pid[y * width + x]
    w = r.width
    blocks = []
    for v, runs in _regions(r):
        ids: list[str] = []
        rels: list[Relation] = []
        # parts and relations in the parent's order, as `induced` keeps them
        for y, x0, x1 in runs:
            below = r.values[y + 1] if y + 1 < r.height else None
            for x in range(x0, x1):
                p = pid[y * w + x]
                ids.append(p)
                if x + 1 < x1:
                    rels.append(Relation(p, pid[y * w + x + 1], "adj"))
                if below is not None and below[x] == v:
                    rels.append(Relation(p, pid[(y + 1) * w + x], "adj"))
        sub = Structure(tuple(ids), (f"v{v}",) * len(ids), tuple(rels))
        blocks.append(Portion(base, frozenset(ids), sub))
    return Partition(base, tuple(blocks))


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
    """Chains of stroke pixels, split at junctions and at direction breaks.

    Tracing runs on pixel ids (x + 1) * S + (y + 1) with S = height + 2:
    ids sort as their (x, y) pixels do, the eight neighbours of an id are
    fixed offsets, and the one-pixel pad around the raster keeps a probe
    past an edge from wrapping into the next column.
    """
    if not r.is_binary():
        raise RasterError("stroke extraction requires a binary raster")
    s = r.height + 2
    ink = _thin(_ink_ids(r, s), s)
    if not ink:
        return []
    ink, adj = _prune_spurs(ink, s)
    out: list[Chain] = []
    for path, junction_joints, closed in _trace_chains(ink, adj):
        out.extend(_split_at_corners(_pixels(path, s),
                                     _pixels(junction_joints, s), closed, cfg))
    return out


def _ink_ids(r: RasterStructure, s: int) -> set[int]:
    """The ids of the ink pixels; each row is searched by C loops."""
    ink = r.ink
    ids = set()
    for y, row in enumerate(r.values, 1):
        x = -1
        for _ in range(row.count(ink)):
            x = row.index(ink, x + 1)
            ids.add((x + 1) * s + y)
    return ids


def _pixels(ids: Iterable[int], s: int) -> tuple[Pixel, ...]:
    """The (x, y) pixels of ids."""
    return tuple([divmod(p - s - 1, s) for p in ids])


_SPUR_LEN = 3   # longest dead-end stub that is pruned, in pixels


def _prune_spurs(ink: set[int], s: int
                 ) -> tuple[set[int], dict[int, list[int]]]:
    """Drop tiny dead-end stubs hanging off junctions.

    Rasterized corners often grow a one or two pixel whisker whose root then
    looks like a junction and breaks cycle tracing.  Returns the kept ink
    and its stroke adjacency.
    """
    adj = _stroke_adjacency(ink, ink, s)
    while True:
        degree = {p: len(adj[p]) for p in ink}
        removed = set()
        for start in sorted(p for p in ink if degree[p] == 1):
            trail = [start]
            cur, prev = start, None
            while degree[cur] <= 2 and len(trail) <= _SPUR_LEN:
                nxt = [q for q in adj[cur] if q != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                if degree[cur] >= 3:
                    removed.update(trail)
                    break
                trail.append(cur)
        if not removed:
            return ink, adj
        ink = ink - removed
        # a pixel's links depend only on its 8 neighbours
        for p in removed:
            del adj[p]
        adj.update(_stroke_adjacency(
            {p + d for p in removed for d in (-s - 1, -s, -s + 1, -1, 1,
                                              s - 1, s, s + 1)} & ink,
            ink, s))


def _zhang_suen_table(*triples: int) -> bytes:
    """Whether a pixel goes in one phase of a Zhang-Suen pass (CACM 1984),
    by the bits P2..P9 of its neighbours, clockwise from north: 2 to 6 of
    them are ink, the circular sequence P2..P9, P2 steps from 0 to 1 once,
    and no triple of the phase is wholly ink."""
    return bytes(2 <= bits.bit_count() <= 6
                 and (~bits & (bits >> 1 | bits << 7) & 255).bit_count() == 1
                 and all(bits & t != t for t in triples)
                 for bits in range(256))


_P2, _P4, _P6, _P8 = 1, 4, 16, 64
_ZHANG_SUEN = (_zhang_suen_table(_P2 | _P4 | _P6, _P4 | _P6 | _P8),
               _zhang_suen_table(_P2 | _P4 | _P8, _P2 | _P6 | _P8))


def _thin(ink: set[int], s: int) -> set[int]:
    """Zhang-Suen thinning; no-op unless some 2x2 block is fully inked."""
    if not any(p + s in ink and p + 1 in ink and p + s + 1 in ink
               for p in ink):
        return ink
    img = set(ink)
    changed = True
    while changed:
        changed = False
        for deletable in _ZHANG_SUEN:
            # bit k of the index is P(k + 2): north (p - 1) first, clockwise
            to_delete = [p for p in img if deletable[
                (p - 1 in img) | (p + s - 1 in img) << 1
                | (p + s in img) << 2 | (p + s + 1 in img) << 3
                | (p + 1 in img) << 4 | (p - s + 1 in img) << 5
                | (p - s in img) << 6 | (p - s - 1 in img) << 7]]
            if to_delete:
                img.difference_update(to_delete)
                changed = True
    return img


def _stroke_adjacency(pixels: Iterable[int], ink: set[int], s: int
                      ) -> dict[int, list[int]]:
    """Links of the pixels to their 8 neighbours in ink, in id order,
    dropping diagonal links that shortcut an orthogonal path."""
    adj = {}
    for p in pixels:
        west, north, south, east = (p - s in ink, p - 1 in ink,
                                    p + 1 in ink, p + s in ink)
        nb = []
        if not (west or north) and p - s - 1 in ink:
            nb.append(p - s - 1)
        if west:
            nb.append(p - s)
        if not (west or south) and p - s + 1 in ink:
            nb.append(p - s + 1)
        if north:
            nb.append(p - 1)
        if south:
            nb.append(p + 1)
        if not (east or north) and p + s - 1 in ink:
            nb.append(p + s - 1)
        if east:
            nb.append(p + s)
        if not (east or south) and p + s + 1 in ink:
            nb.append(p + s + 1)
        adj[p] = nb
    return adj


def _trace_chains(ink: set[int], adj: dict[int, list[int]]
                  ) -> list[tuple[list[int], tuple[int, ...], bool]]:
    degree = {p: len(adj[p]) for p in ink}
    order = sorted(ink)
    used: set[tuple[int, int]] = set()   # walked links (a, b), a < b
    walked: set[int] = set()             # the pixels of every walked path
    chains: list[tuple[list[int], bool]] = []

    def walk(start, first):
        """Follow links from start through first and on through pixels of
        degree 2, up to another pixel or back at the start of a cycle."""
        path = [start, first]
        used.add((start, first) if start < first else (first, start))
        prev, cur = start, first
        while degree[cur] == 2:
            a, b = adj[cur]
            nxt = b if a == prev else a
            link = (cur, nxt) if cur < nxt else (nxt, cur)
            if link in used:
                break
            used.add(link)
            path.append(nxt)
            prev, cur = cur, nxt
        walked.update(path)
        return path

    for node in order:
        if degree[node] != 2:
            for first in adj[node]:
                link = (node, first) if node < first else (first, node)
                if link not in used:
                    chains.append((walk(node, first), False))
    # leftover pure cycles
    for p in order:
        if degree[p] == 2 and p not in walked:
            path = walk(p, adj[p][0])
            if len(path) > 1 and path[-1] == p:
                path = path[:-1]
            chains.append((path, True))
    # isolated dots
    for p in order:
        if degree[p] == 0:
            chains.append(([p], False))
    # junction pixels belong to exactly one chain: drop them from later paths
    claimed: set[int] = set()
    final = []
    for trimmed, closed in chains:
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


def _angle_deg(v1: tuple[float, float], v2: tuple[float, float]) -> float:
    """Angle between two vectors in degrees; 0 when either is zero."""
    n1, n2 = math.hypot(*v1), math.hypot(*v2)
    if n1 == 0 or n2 == 0:
        return 0.0
    dot = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def _corner_indices(path: Sequence[Pixel], closed: bool, cfg: Config) -> list[int]:
    n = len(path)
    w = cfg.corner_window
    if n < 2 * w + 1:
        return []
    # step i runs from path[i - w] to path[i], wrapping; the turn at i is
    # the angle between steps i and i + w, 0 within w of an open path's
    # ends.  A path repeats few pairs of steps: each pair's angle is
    # computed once.
    back = path[n - w:] + path[:n - w]
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(back, path)]
    angle: dict[tuple[Pixel, Pixel], float] = {}
    turns = []
    for pair in zip(steps, steps[w:] + steps[:w]):
        if pair not in angle:
            angle[pair] = _angle_deg(*pair)
        turns.append(angle[pair])
    if not closed:
        turns[:w] = turns[n - w:] = [0.0] * w
    # a corner turns past the threshold and no less than any turn within w
    # places of it, around a closed path; an open path's window is padded
    # with turns of 0, which no turn is below
    ring = (turns[n - w:] + turns + turns[:w] if closed
            else [0.0] * w + turns + [0.0] * w)
    corners = [i for i in range(n) if turns[i] > cfg.corner_angle_deg
               and turns[i] >= max(ring[i:i + 2 * w + 1])]
    # collapse adjacent picks
    out = []
    for i in corners:
        if out and (i - out[-1]) <= w:
            continue
        out.append(i)
    if closed and out and (out[0] + n - out[-1]) <= w:
        out.pop()
    return out


def _split_at_corners(path: tuple[Pixel, ...],
                      junction_joints: tuple[Pixel, ...],
                      closed: bool, cfg: Config) -> list[Chain]:
    corners = _corner_indices(path, closed, cfg)
    if not corners:
        return [Chain(path, junction_joints, closed)]
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
            pieces.append(Chain(seg, joints, False))
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
                pieces.append(Chain(seg, tuple(joints), False))
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
    if not all_chains:
        return PolygonAnalysis(None, [], [], ["no strokes found"])

    # chains too short to be sides are vertex connectors left by the
    # skeleton; each side keeps its span for the steps below
    chains: list[Chain] = []
    spans: list[tuple[Pixel, Pixel]] = []
    connectors: list[Chain] = []
    for ch in all_chains:
        a, b = effective_endpoints(ch, cfg)
        if math.dist(a, b) >= cfg.min_segment_px:
            chains.append(ch)
            spans.append((a, b))
        else:
            connectors.append(ch)
    if not chains:
        return PolygonAnalysis(None, [], all_chains, ["no segment-size strokes"])
    parts = [f"s{i}" for i in range(len(chains))]
    per_part = {}
    problems: list[str] = []
    for part, ch in zip(parts, chains):
        per_part[part] = {a.feature: a.value
                          for a in classify_segment(ch, part, cfg)}
        if per_part[part]["is-straight"] < cfg.straight_min_score:
            problems.append(f"chain {part} is not straight")
    joints = {} if problems else _joints(chains, spans, connectors, cfg)

    # a side with both vertices known is measured vertex to vertex, which is
    # immune to skeleton erosion at the corners
    vertex_of: list[list] = [[] for _ in chains]
    for (i, j), vx in joints.items():
        vertex_of[i].append(vx)
        vertex_of[j].append(vx)
    for part, vs in zip(parts, vertex_of):
        if len(vs) == 2:
            v1, v2 = vs
            per_part[part]["length-bin"] = length_bin(math.dist(v1, v2))
            per_part[part]["orientation-bin"] = orientation_bin(v1, v2, cfg)
    assertions = [PropertyAssertion(("part", p), feat, val)
                  for p in parts for feat, val in sorted(per_part[p].items())]
    if problems:
        return PolygonAnalysis(None, assertions, chains, problems)

    def away_vector(i, vertex):
        cands = [v for v in vertex_of[i] if math.dist(v, vertex) > 1.0]
        if cands:
            far = max(cands, key=lambda v: _d2(v, vertex))
        else:
            ea, eb = spans[i]
            far = eb if _d2(ea, vertex) <= _d2(eb, vertex) else ea
        return (far[0] - vertex[0], far[1] - vertex[1])

    types = [catalog.intern_attr("segment", {
        "length-bin": per_part[p]["length-bin"],
        "orientation-bin": per_part[p]["orientation-bin"]}) for p in parts]
    rels = []
    angle_bins = []
    for (i, j), vertex in sorted(joints.items()):
        angle = _angle_deg(away_vector(i, vertex), away_vector(j, vertex))
        bin_width = 360.0 / cfg.joint_angle_bins
        abin = round(angle / bin_width) % cfg.joint_angle_bins
        angle_bins.append(abin)
        rels.append(Relation(parts[i], parts[j], "joint", {"angle-bin": abin}))
        assertions.append(PropertyAssertion(("pair", parts[i], parts[j]),
                                            "joint-angle-bin", abin))
    quotient = Structure(tuple(parts), tuple(types), tuple(rels))

    # parallelism between distinct segments
    for p, q in combinations(parts, 2):
        if per_part[p]["orientation-bin"] == per_part[q]["orientation-bin"]:
            assertions.append(PropertyAssertion(("pair", p, q), "parallel-to", True))

    # whole-structure assertions
    closed = (len(parts) >= 3 and len(rels) == len(parts)
              and all(sum(map(len, around.values())) == 2
                      for around in quotient.pairs.values())
              and _is_connected(quotient))
    assertions.append(PropertyAssertion(("structure",), "is-closed-cycle", closed))
    assertions.append(PropertyAssertion(("structure",), "side-count", len(parts)))
    lbins = [per_part[p]["length-bin"] for p in parts]
    assertions.append(PropertyAssertion(("structure",), "all-lengths-equal",
                                        len(set(lbins)) == 1))
    assertions.append(PropertyAssertion(("structure",), "all-angles-equal",
                                        len(set(angle_bins)) <= 1 and bool(angle_bins)))
    return PolygonAnalysis(quotient, assertions, chains, problems)


def _joints(chains: list[Chain], spans: list[tuple[Pixel, Pixel]],
            connectors: list[Chain], cfg: Config
            ) -> dict[tuple[int, int], tuple[float, float]]:
    """The vertex of each pair of sides whose terminals (span ends and
    joints) meet within the joint radius, directly or bridged by a
    connector chain."""
    radius = cfg.joint_radius_px
    terms = [[*span, *ch.joints] for ch, span in zip(chains, spans)]
    probes = [conn.pixels + conn.joints for conn in connectors]
    # the connectors each side reaches, in connector order
    reach = [[k for k, probe in enumerate(probes)
              if any(math.dist(p, c) <= radius for p in t for c in probe)]
             for t in terms]
    joints = {}
    for i, j in combinations(range(len(chains)), 2):
        best = None
        for p in terms[i]:
            for q in terms[j]:
                d = math.dist(p, q)
                if d <= radius and (best is None or d < best[0]):
                    best = (d, p, q)
        if best:
            vx = ((best[1][0] + best[2][0]) / 2.0,
                  (best[1][1] + best[2][1]) / 2.0)
        else:
            k = next((k for k in reach[i] if k in reach[j]), None)
            if k is None:
                continue
            px = connectors[k].pixels
            vx = (sum(p[0] for p in px) / len(px),
                  sum(p[1] for p in px) / len(px))
        joints[(i, j)] = _line_crossing(spans[i], spans[j], vx)
    return joints


def _line_crossing(s1: tuple[Pixel, Pixel], s2: tuple[Pixel, Pixel],
                   fallback: tuple[float, float]) -> tuple[float, float]:
    """Where the lines through two spans cross, unless they are parallel or
    cross more than 4 px from the fallback: skeleton corners erode a pixel
    or two, and the line crossing recovers the true vertex."""
    (a1, b1), (a2, b2) = s1, s2
    d1 = (b1[0] - a1[0], b1[1] - a1[1])
    d2 = (b2[0] - a2[0], b2[1] - a2[1])
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(cross) < 1e-9:
        return fallback
    t = ((a2[0] - a1[0]) * d2[1] - (a2[1] - a1[1]) * d2[0]) / cross
    vx = (a1[0] + t * d1[0], a1[1] + t * d1[1])
    return vx if math.dist(vx, fallback) <= 4.0 else fallback


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignatureAtom:
    feature: str
    value: object = None       # None accepts any value, scored by match

    def match_score(self, a: PropertyAssertion) -> float:
        if a.feature != self.feature:
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


def build_signature_candidates(examples: Sequence[Iterable[PropertyAssertion]]
                               ) -> list[Signature]:
    """Maximal feature sets shared by every example, ranked by specificity."""
    if not examples:
        return []
    threshold = DEFAULT.signature_threshold
    atom_sets = []
    for ex in examples:
        atoms = set()
        for a in ex:
            if isinstance(a.value, bool) or isinstance(a.value, int):
                atoms.add((a.feature, a.value))
            elif isinstance(a.value, float) and a.value >= threshold:
                atoms.add((a.feature, None))
        atom_sets.append(atoms)
    common = set.intersection(*atom_sets)
    if not common:
        return []
    atoms = tuple(SignatureAtom(f, v)
                  for f, v in sorted(common, key=lambda t: (t[0], str(t[1]))))
    candidates = [Signature("candidate", atoms, threshold=threshold)]
    whole = tuple(a for a in atoms if a.feature in
                  ("is-closed-cycle", "side-count", "all-lengths-equal",
                   "all-angles-equal"))
    if whole and len(whole) < len(atoms):
        candidates.append(Signature("candidate-whole", whole,
                                    threshold=threshold))
    candidates.sort(key=lambda s: -len(s.required))
    return candidates
