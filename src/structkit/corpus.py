"""Synthetic polygon rasters and the class signatures defined over them.

Shapes are drawn as 1-pixel Bresenham outlines.  Vertex angles and side
lengths are chosen to sit well inside their quantization bins so the corpus
stays clean at every scale and rotation the generator emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT, Config
from .pixels import RasterStructure, Signature, SignatureAtom

MARGIN = 4

# base shapes: vertex rings whose side lengths and vertex angles sit well
# inside their bins at scales 1..3
_BASE_SHAPES = {
    # equilateral triangle, side 10.4 (x3 = 31.2 stays under 32)
    ("triangle", "regular"): [
        (math.cos(math.radians(90 + 120 * k)) * 10.4 / math.sqrt(3),
         math.sin(math.radians(90 + 120 * k)) * 10.4 / math.sqrt(3))
        for k in range(3)],
    # 30-60-90 triangle: angle bins 3/2/1, each 15 degrees from a boundary
    ("triangle", "irregular"): [(0.0, 0.0), (13.0, 0.0), (0.0, 7.5)],
    # square, side 10
    ("quadrilateral", "regular"): [(0.0, 0.0), (10.0, 0.0),
                                   (10.0, 10.0), (0.0, 10.0)],
    # parallelogram: angle bins 2/4, side bins equal
    ("quadrilateral", "irregular"): [(0.0, 0.0), (13.0, 0.0),
                                     (18.0, 9.0), (5.0, 9.0)],
    # regular hexagon, side 10
    ("hexagon", "regular"): [
        (math.cos(math.radians(60 * k)) * 10.0,
         math.sin(math.radians(60 * k)) * 10.0) for k in range(6)],
    # hexagon stretched along x: angles split into two bins
    ("hexagon", "irregular"): [
        (math.cos(math.radians(60 * k)) * 14.0,
         math.sin(math.radians(60 * k)) * 9.0) for k in range(6)],
}

SIDE_COUNT = {"triangle": 3, "quadrilateral": 4, "hexagon": 6}

# rotations snapped to orientation-bin multiples; symmetric shapes repeat
# sooner, so they get fewer
ROTATIONS = {
    "triangle": (0.0, 22.5, 45.0, 67.5),
    "quadrilateral": (0.0, 22.5, 45.0),
    "hexagon": (0.0, 22.5, 45.0),
}

SCALES = (1, 2, 3)


@dataclass(frozen=True)
class CorpusItem:
    name: str
    kind: str
    variant: str
    rotation: float
    scale: int
    raster: RasterStructure


def _bresenham(a, b):
    x0, y0 = a
    x1, y1 = b
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    out = []
    while True:
        out.append((x0, y0))
        if (x0, y0) == (x1, y1):
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x0 += sx
        if e2 < dx:
            err += dx
            y0 += sy
    return out


def rasterize_polygon(vertices: list[tuple[float, float]],
                      rotation_deg: float = 0.0,
                      scale: float = 1.0) -> RasterStructure:
    """Outline raster of the scaled, rotated polygon on a fitted canvas."""
    th = math.radians(rotation_deg)
    pts = []
    for x, y in vertices:
        x, y = x * scale, y * scale
        pts.append((x * math.cos(th) - y * math.sin(th),
                    x * math.sin(th) + y * math.cos(th)))
    minx = min(p[0] for p in pts)
    miny = min(p[1] for p in pts)
    ints = [(round(p[0] - minx) + MARGIN, round(p[1] - miny) + MARGIN)
            for p in pts]
    width = max(p[0] for p in ints) + MARGIN + 1
    height = max(p[1] for p in ints) + MARGIN + 1
    ink = set()
    for i in range(len(ints)):
        ink.update(_bresenham(ints[i], ints[(i + 1) % len(ints)]))
    rows = tuple(tuple(1 if (x, y) in ink else 0 for x in range(width))
                 for y in range(height))
    return RasterStructure(width, height, rows, ink=1)


def generate_corpus() -> list[CorpusItem]:
    """The 60-raster demonstration corpus: 20 figure families x 3 scales."""
    items = []
    for (kind, variant), verts in sorted(_BASE_SHAPES.items()):
        for rot in ROTATIONS[kind]:
            for scale in SCALES:
                raster = rasterize_polygon(verts, rot, scale)
                name = f"{kind}-{variant}-r{rot:g}-s{scale}"
                items.append(CorpusItem(name, kind, variant, rot, scale, raster))
    assert len(items) == 60
    return items


def class_signatures(cfg: Config = DEFAULT) -> list[Signature]:
    """Per-class recognizers: side count + closure, plus regularity checks."""
    sigs = []
    for kind, n in sorted(SIDE_COUNT.items()):
        sigs.append(Signature(kind, (
            SignatureAtom("side-count", n),
            SignatureAtom("is-closed-cycle", True),
        ), threshold=cfg.signature_threshold))
        sigs.append(Signature(f"regular-{kind}", (
            SignatureAtom("side-count", n),
            SignatureAtom("is-closed-cycle", True),
            SignatureAtom("all-lengths-equal", True),
            SignatureAtom("all-angles-equal", True),
        ), threshold=cfg.signature_threshold))
    return sigs


def expected_subjects(item: CorpusItem) -> set[str]:
    out = {item.kind}
    if item.variant == "regular":
        out.add(f"regular-{item.kind}")
    return out
