import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structkit.config import DEFAULT
from structkit.corpus import _BASE_SHAPES, rasterize_polygon
from structkit.derivation import MorphismMask, apply_morphism
from structkit.io_struct import serialize_structure
from structkit.pixels import (
    Chain,
    PropertyAssertion,
    RasterError,
    RasterStructure,
    Signature,
    SignatureAtom,
    build_signature_candidates,
    classify_segment,
    evaluate_signature,
    extract_strokes,
    load_raster,
    orientation_bin,
    polygon_quotient,
    region_sizes,
    segment_regions,
    serialize_raster,
)
from structkit.structure import TypeCatalog, induced, isomorphic, validate

from oracles import (
    connected_components_oracle,
    extract_strokes_oracle,
    ink_pixels,
)

# forgets each side's length
SUPPRESS_LENGTH = MorphismMask.make(drop_part_attrs={"length-bin"})


def raster_from_ink(ink, width, height):
    rows = tuple(tuple(1 if (x, y) in ink else 0 for x in range(width))
                 for y in range(height))
    return RasterStructure(width, height, rows, 1)


def line_ink(a, b):
    # integer Bresenham, endpoints included
    (x0, y0), (x1, y1) = a, b
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx, sy = (1 if x0 < x1 else -1), (1 if y0 < y1 else -1)
    err = dx - dy
    out = set()
    while True:
        out.add((x0, y0))
        if (x0, y0) == (x1, y1):
            return out
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x0 += sx
        if e2 < dx:
            err += dx
            y0 += sy


# --- load_raster --------------------------------------------------------------

def test_load_p1_all_white():
    r = load_raster("P1\n3 3\n000\n000\n000\n")
    s = r.to_structure()
    assert s.n == 9
    assert len(s.relations) == 12
    assert validate(s) == []


def test_load_single_pixel():
    r = load_raster("P1\n1 1\n1\n")
    s = r.to_structure()
    assert s.n == 1 and s.relations == ()


def test_load_p2_and_roundtrip():
    r = load_raster("P2\n2 2\n255\n0 255\n128 0\n")
    assert r.values == ((0, 255), (128, 0))
    assert r.ink == 0
    r1 = load_raster("P1\n2 2\n10\n01\n")
    assert serialize_raster(r1) == "P1\n2 2\n1 0\n0 1\n"
    assert load_raster(serialize_raster(r1)) == r1


@pytest.mark.parametrize("text", [
    "P2\n2 2\n255\n0 255\n128 0\n",   # values above 1
    "P2\n2 1\n1\n1 0\n",              # 0/1 values, but ink is 0
    "P2\n2 1\n7\n0 0\n",              # one level
    "P2\n1 2\n3\n3\n2\n",              # no 0: the ink is 2
])
def test_serialize_p2_roundtrip(text):
    r = load_raster(text)
    assert serialize_raster(r).startswith("P2\n")
    assert load_raster(serialize_raster(r)) == r


def test_load_errors():
    with pytest.raises(RasterError):
        load_raster("P1\n3 3\n0000\n")          # truncated
    with pytest.raises(RasterError, match="P1 pixels must be 0 or 1"):
        load_raster("P1\n3 2\n1012 01\n")
    with pytest.raises(RasterError):
        load_raster("P5\n2 2\n0 0 0 0\n")       # binary format unsupported
    with pytest.raises(RasterError):
        load_raster("P1\n0 3\n")
    with pytest.raises(RasterError):
        load_raster("P2\n2 1\n255\n12 999\n")   # out of range


def test_load_p1_digits_and_ink():
    # digits may run together or stand apart, and only the first
    # width * height of them are pixels
    r = load_raster("P1\n3 2\n1 0 1\n011 # comment\n")
    assert load_raster("P1\n3 2\n101011\n1\n") == r
    assert r.values == ((1, 0, 1), (0, 1, 1)) and r.ink == 1
    assert ink_pixels(r) == {(0, 0), (2, 0), (1, 1), (2, 1)}
    # CRLF line ends and tabs separate tokens like spaces and newlines
    assert load_raster(b"P1\r\n3\t2\r\n1\t0 1\r\n0\t11\r\n") == r
    # a comment may end any line, the header's included, and may fall
    # between two groups of digits
    assert load_raster("P1 # magic\n3 # width\n2\n10 # split\n1011\n") == r
    # a digit past width * height is ignored, even one that is no 0 or 1
    assert load_raster("P1\n3 2\n101011 2\n") == r
    assert load_raster("P1\n3 2\n1010112\n") == r
    with pytest.raises(RasterError, match="truncated pixel data"):
        load_raster("P1\n3 2\n10101 # one short\n")
    with pytest.raises(RasterError, match="P1 pixels must be 0 or 1"):
        load_raster("P1\n3 2\n101021\n")
    # a text input may hold digits outside ASCII, which are no P1 pixels
    with pytest.raises(RasterError, match="P1 pixels must be 0 or 1"):
        load_raster("P1\n3 2\n10101\u0661\n")


# --- segment_regions ----------------------------------------------------------

def test_regions_uniform_single_block():
    r = load_raster("P1\n4 3\n0000\n0000\n0000\n")
    assert len(segment_regions(r).blocks) == 1


def test_regions_checkerboard():
    r = load_raster("P1\n2 2\n10\n01\n")
    assert len(segment_regions(r).blocks) == 4


def test_regions_triangle_outline_allocates_background_stroke_interior():
    ink = (line_ink((2, 2), (12, 2)) | line_ink((12, 2), (7, 9))
           | line_ink((7, 9), (2, 2)))
    r = raster_from_ink(ink, 16, 12)
    blocks = segment_regions(r).blocks
    assert len(blocks) >= 2   # stroke + outside, plus enclosed interior
    values = set()
    for b in blocks:
        first = sorted(b.members)[0]
        values.add(b.induced.types[first])
    assert values == {"v0", "v1"}


def test_regions_match_union_find_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        w, h = rng.randint(1, 32), rng.randint(1, 32)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(w))
                     for _ in range(h))
        r = RasterStructure(w, h, rows, 1)
        got = sorted(frozenset(
            tuple(map(int, p[1:].split("_"))) for p in b.members)
            for b in segment_regions(r).blocks)
        assert got == connected_components_oracle(w, h, rows)


def pixel_of(pid):
    x, y = pid[1:].split("_")
    return int(x), int(y)


def assert_labelling_matches_oracle(r):
    oracle = connected_components_oracle(r.width, r.height, r.values)
    got = sorted(frozenset(map(pixel_of, b.members))
                 for b in segment_regions(r).blocks)
    assert got == oracle
    assert region_sizes(r) == sorted(
        (r.values[y][x], len(c)) for c in oracle for x, y in [next(iter(c))])


def test_regions_grey_levels_match_oracle():
    rng = random.Random(77)
    for _ in range(60):
        w, h = rng.randint(1, 24), rng.randint(1, 24)
        levels = rng.sample(range(256), rng.randint(3, 5))
        pixels = " ".join(str(rng.choice(levels)) for _ in range(w * h))
        r = load_raster(f"P2\n{w} {h}\n255\n{pixels}\n")
        assert_labelling_matches_oracle(r)


@pytest.mark.parametrize("w,h", [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1)])
def test_regions_degenerate_shapes_match_oracle(w, h):
    rng = random.Random(w * 100 + h)
    for levels in (1, 2, 3):
        rows = tuple(tuple(rng.randrange(levels) for _ in range(w))
                     for _ in range(h))
        assert_labelling_matches_oracle(RasterStructure(w, h, rows, 0))


def comb_ink(teeth, length):
    # teeth hang from a spine on the last row, so they join only there
    spine = {(x, length) for x in range(2 * teeth - 1)}
    return spine | {(2 * t, y) for t in range(teeth) for y in range(length)}


def u_ink(width, height):
    return ({(0, y) for y in range(height)}
            | {(width - 1, y) for y in range(height)}
            | {(x, height - 1) for x in range(width)})


def spiral_ink(n):
    # clockwise square spiral whose turns stay one pixel apart
    x = y = 0
    dx, dy = 1, 0
    ink = {(x, y)}
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in range(2)]
    for length in lengths:
        for _ in range(length):
            x, y = x + dx, y + dy
            ink.add((x, y))
        dx, dy = -dy, dx
    return ink


@pytest.mark.parametrize("ink,w,h", [
    (comb_ink(6, 5), 11, 6),
    (comb_ink(6, 5), 13, 8),
    (u_ink(9, 7), 9, 7),
    (u_ink(9, 7), 11, 9),
    (spiral_ink(11), 11, 11),
    (spiral_ink(12), 14, 14),
])
def test_regions_joined_on_a_later_row_match_oracle(ink, w, h):
    r = raster_from_ink(ink, w, h)
    assert_labelling_matches_oracle(r)
    assert (1, len(ink)) in region_sizes(r)   # the ink is one region


def test_segment_regions_blocks_are_induced_in_first_pixel_order():
    rng = random.Random(11)
    for _ in range(40):
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        rows = tuple(tuple(rng.randrange(3) for _ in range(w))
                     for _ in range(h))
        r = RasterStructure(w, h, rows, 0)
        regions = segment_regions(r)
        base = r.to_structure()
        assert regions.parent == base
        firsts = []
        for b in regions.blocks:
            assert b.parent is regions.parent
            assert b.induced == induced(base, b.members)
            firsts.append(min((y, x) for x, y in map(pixel_of, b.members)))
        assert firsts == sorted(firsts)


# --- extract_strokes ----------------------------------------------------------

def test_single_horizontal_line_one_chain():
    r = raster_from_ink(line_ink((2, 3), (12, 3)), 16, 7)
    chains = extract_strokes(r)
    assert len(chains) == 1
    assert chains[0].a == (2, 3) and chains[0].b == (12, 3)
    assert not chains[0].closed


def test_crossing_lines_four_chains_one_junction():
    ink = line_ink((2, 8), (14, 8)) | line_ink((8, 2), (8, 14))
    r = raster_from_ink(ink, 18, 18)
    chains = extract_strokes(r)
    assert len(chains) == 4
    junctions = {j for ch in chains for j in ch.joints}
    assert junctions == {(8, 8)}
    owned = [p for ch in chains for p in ch.pixels]
    assert len(owned) == len(set(owned))     # every pixel owned once
    assert set(owned) == ink                  # and nothing dropped


def test_triangle_outline_three_chains_three_corners():
    ink = (line_ink((2, 2), (14, 2)) | line_ink((14, 2), (8, 11))
           | line_ink((8, 11), (2, 2)))
    r = raster_from_ink(ink, 18, 15)
    chains = extract_strokes(r)
    assert len(chains) == 3
    joints = {j for ch in chains for j in ch.joints}
    assert len(joints) == 3


def test_strokes_need_binary():
    r = RasterStructure(2, 2, ((0, 3), (5, 9)), 0)
    with pytest.raises(RasterError):
        extract_strokes(r)


def outline_ink(vertices):
    return set().union(*(line_ink(a, b)
                         for a, b in zip(vertices, vertices[1:] + vertices)))


@st.composite
def stroke_rasters(draw):
    """A binary raster of outlines alone, or of outlines, lines, stubs,
    blocks and dots, with one-pixel-wide and one-pixel-high rasters drawn
    often."""
    # polygon and circle outlines, which are often loops with no junction
    # when they stand alone
    alone = draw(st.booleans())
    side = (st.integers(6, 20) if alone
            else st.integers(1, 3) | st.integers(1, 20))
    w, h = draw(side), draw(side)
    cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    ink = set()
    radius = min(w, h) // 2 - 1
    if radius >= 2 and draw(st.booleans()):
        ink = outline_ink([
            (w // 2 + round(radius * math.cos(k * math.pi / 12)),
             h // 2 + round(radius * math.sin(k * math.pi / 12)))
            for k in range(24)])
    elif alone or draw(st.booleans()):
        ink = outline_ink(draw(st.lists(cell, min_size=3, max_size=5)))
    if alone:
        return raster_from_ink(ink, w, h)
    ink |= draw(st.sets(cell, max_size=4))   # isolated dots, mostly
    # lines: two of them may cross, and a short one ending on another
    # line is a 1-4 px spur on a junction
    for a, b in draw(st.lists(st.tuples(cell, cell), max_size=4)):
        ink |= line_ink(a, b)
    for (x, y), (dx, dy), n in draw(st.lists(st.tuples(
            st.sampled_from(sorted(ink)) if ink else cell,
            st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1),
                             (-1, 0), (0, -1), (-1, -1), (-1, 1)]),
            st.integers(1, 4)), max_size=2)):
        ink |= line_ink((x, y), (min(max(x + n * dx, 0), w - 1),
                                 min(max(y + n * dy, 0), h - 1)))
    # 2x2 blocks, which send the raster through thinning
    for x, y in draw(st.lists(cell, max_size=2)):
        ink |= {(x + i, y + j) for i in (0, 1) for j in (0, 1)
                if x + i < w and y + j < h}
    # whole border rows and columns
    for edge in draw(st.sets(st.sampled_from("tblr"))):
        ink |= {"t": line_ink((0, 0), (w - 1, 0)),
                "b": line_ink((0, h - 1), (w - 1, h - 1)),
                "l": line_ink((0, 0), (0, h - 1)),
                "r": line_ink((w - 1, 0), (w - 1, h - 1))}[edge]
    return raster_from_ink(ink, w, h)


@settings(max_examples=400, deadline=None)
@given(stroke_rasters(), st.integers(0, 4),
       st.sampled_from([0.0, 20.0, 35.0, 44.9, 90.0, 179.0]))
@example(raster_from_ink(line_ink((0, 0), (0, 11)), 1, 12), 3, 35.0)
@example(raster_from_ink(line_ink((0, 0), (11, 0)), 12, 1), 3, 35.0)
@example(raster_from_ink(outline_ink([(0, 0), (9, 0), (9, 7), (0, 7)]), 10, 8),
         3, 35.0)
@example(raster_from_ink(line_ink((0, 5), (10, 5)) | line_ink((5, 0), (5, 10))
                         | line_ink((5, 5), (7, 3)), 11, 11), 3, 35.0)
def test_extract_strokes_matches_tuple_oracle(r, window, angle):
    cfg = DEFAULT.replace(corner_window=window, corner_angle_deg=angle)
    assert extract_strokes(r, cfg) == extract_strokes_oracle(r, cfg)


# --- classify_segment ---------------------------------------------------------

def test_axis_aligned_run_perfectly_straight():
    ch = Chain(tuple((x, 5) for x in range(2, 12)))
    found = {a.feature: a.value for a in classify_segment(ch)}
    assert found["is-straight"] == 1.0
    assert found["orientation-bin"] == 0
    assert found["length-bin"] == 3    # chord 9


def test_diagonal_run_orientation_bin_two():
    ch = Chain(tuple((i, i) for i in range(10)))
    found = {a.feature: a.value for a in classify_segment(ch)}
    assert found["orientation-bin"] == 2
    assert found["is-straight"] == 1.0


def test_quarter_arc_not_straight():
    # radius 20 quarter circle; the analytic max chord deviation is
    # r (1 - cos 45) = 5.86, far beyond the 1.5 px zero-score threshold
    pts = []
    for k in range(0, 91, 3):
        p = (round(20 * math.cos(math.radians(k))),
             round(20 * math.sin(math.radians(k))))
        if not pts or pts[-1] != p:
            pts.append(p)
    found = {a.feature: a.value for a in classify_segment(Chain(tuple(pts)))}
    assert found["is-straight"] < 0.5


def test_single_pixel_chain_rejected():
    with pytest.raises(RasterError):
        classify_segment(Chain(((3, 3),)))


def test_orientation_bin_wraps_at_half_turn():
    assert orientation_bin((0, 0), (10, 0)) == orientation_bin((10, 0), (0, 0))
    assert orientation_bin((0, 0), (100, -1)) == 0   # ~179.4 degrees folds to 0


# --- polygon_quotient ---------------------------------------------------------

def tri_raster(scale=1.5):
    return rasterize_polygon(_BASE_SHAPES[("triangle", "regular")], 0, scale)


def hex_raster(scale=2):
    return rasterize_polygon(_BASE_SHAPES[("hexagon", "regular")], 0, scale)


def test_triangle_quotient_closed_three_sides():
    pa = polygon_quotient(tri_raster())
    assert pa.problems == []
    assert pa.quotient.n == 3
    assert len(pa.quotient.relations) == 3
    whole = {a.feature: a.value for a in pa.assertions
             if a.target == ("structure",)}
    assert whole["is-closed-cycle"] is True
    assert whole["side-count"] == 3


def test_open_v_two_parts_one_joint_not_closed():
    ink = line_ink((2, 10), (10, 2)) | line_ink((10, 2), (18, 10))
    r = raster_from_ink(ink, 22, 14)
    pa = polygon_quotient(r)
    assert pa.problems == []
    assert pa.quotient.n == 2
    assert len(pa.quotient.relations) == 1
    whole = {a.feature: a.value for a in pa.assertions
             if a.target == ("structure",)}
    assert whole["is-closed-cycle"] is False


def test_regular_hexagon_uniform_bins():
    pa = polygon_quotient(hex_raster())
    assert pa.problems == []
    assert pa.quotient.n == 6
    lbins = {a.value for a in pa.assertions if a.feature == "length-bin"}
    abins = {a.value for a in pa.assertions if a.feature == "joint-angle-bin"}
    assert len(lbins) == 1 and len(abins) == 1


def test_assertions_recomputable():
    r = tri_raster()
    first = polygon_quotient(r, TypeCatalog()).assertions
    second = polygon_quotient(r, TypeCatalog()).assertions
    assert first == second


def arc_raster():
    # radius 20 half circle
    pts = []
    for k in range(0, 181, 3):
        p = (30 + round(20 * math.cos(math.radians(k))),
             25 - round(20 * math.sin(math.radians(k))))
        if not pts or pts[-1] != p:
            pts.append(p)
    ink = set()
    for a, b in zip(pts, pts[1:]):
        ink |= line_ink(a, b)
    return raster_from_ink(ink, 60, 30)


def test_nonstraight_chain_reported_polygon_omitted():
    pa = polygon_quotient(arc_raster())
    assert pa.problems
    assert pa.quotient is None


# Full polygon_quotient outputs on rasters that reach its rarer branches,
# fixed in tests/golden/polygon-quotient-pins.json.  Regenerate that file
# with `PYTHONPATH=src python tests/test_pixels.py` only when a change means
# to alter these outputs.
PIN_RASTERS = {
    # the crossbar (3 px) is shorter than min_segment_px, so it is a
    # connector and the joints across it are bridged, not direct
    "h-short-crossbar": lambda: raster_from_ink(
        line_ink((2, 1), (2, 15)) | line_ink((5, 1), (5, 15))
        | line_ink((2, 8), (5, 8)), 8, 18),
    # the two halves of the bar are collinear, so their line crossing is
    # undefined and the joint falls back to the terminal midpoint
    "t-collinear-halves": lambda: raster_from_ink(
        line_ink((2, 2), (20, 2)) | line_ink((11, 2), (11, 16)), 23, 19),
    "three-pixel-stroke": lambda: raster_from_ink(
        line_ink((1, 1), (3, 1)), 5, 3),
    "half-circle-arc": arc_raster,
}
PINS = Path(__file__).parent / "golden" / "polygon-quotient-pins.json"


def quotient_record(r):
    pa = polygon_quotient(r)
    return {
        "problems": pa.problems,
        "assertions": [a.as_json() for a in pa.assertions],
        "quotient": serialize_structure(pa.quotient)
        if pa.quotient is not None else None,
        "chains": [{"pixels": [list(p) for p in ch.pixels],
                    "joints": [list(j) for j in ch.joints],
                    "closed": ch.closed} for ch in pa.chains],
    }


@pytest.mark.parametrize("name", sorted(PIN_RASTERS))
def test_polygon_quotient_pinned_outputs(name):
    expected = json.loads(PINS.read_text())[name]
    got = json.loads(json.dumps(quotient_record(PIN_RASTERS[name]())))
    assert got == expected


def test_pinned_rasters_reach_their_branches():
    h = polygon_quotient(PIN_RASTERS["h-short-crossbar"]())
    assert h.problems == [] and h.quotient.n == 4   # crossbar is no side
    # each upright's two halves meet directly; across the crossbar every
    # left half meets every right half through the connector
    pairs = {(r.a, r.b) for r in h.quotient.relations}
    assert pairs == {("s0", "s1"), ("s2", "s3"), ("s0", "s2"), ("s0", "s3"),
                     ("s1", "s2"), ("s1", "s3")}
    t = polygon_quotient(PIN_RASTERS["t-collinear-halves"]())
    assert t.problems == [] and t.quotient.n == 3
    dot = polygon_quotient(PIN_RASTERS["three-pixel-stroke"]())
    assert dot.problems == ["no segment-size strokes"]
    assert dot.quotient is None and len(dot.chains) == 1
    arc = polygon_quotient(PIN_RASTERS["half-circle-arc"]())
    assert arc.quotient is None
    assert arc.problems and all(p.endswith("is not straight")
                                for p in arc.problems)
    # the problems exit still asserts every part's features
    assert {a.target[0] for a in arc.assertions} == {"part"}


# --- signatures ---------------------------------------------------------------

TRIANGLE_SIG = Signature("triangle", (
    SignatureAtom("side-count", 3), SignatureAtom("is-closed-cycle", True)))


def test_triangle_signature_fires_on_triangle_not_hexagon():
    tri = polygon_quotient(tri_raster()).assertions
    hexa = polygon_quotient(hex_raster()).assertions
    assert evaluate_signature(TRIANGLE_SIG, tri)[1]
    assert not evaluate_signature(TRIANGLE_SIG, hexa)[1]


def test_signature_score_in_unit_interval_and_single_output():
    score, fired = evaluate_signature(TRIANGLE_SIG, [])
    assert score == 0.0 and fired is False


def test_regular_polygon_signature_scale_free_after_suppression():
    sig = Signature("regular-hexagon", (
        SignatureAtom("side-count", 6), SignatureAtom("is-closed-cycle", True),
        SignatureAtom("all-lengths-equal", True),
        SignatureAtom("all-angles-equal", True)))
    cat = TypeCatalog()
    suppressed = []
    for scale in (1, 2, 3):
        pa = polygon_quotient(hex_raster(scale), cat)
        assert evaluate_signature(sig, pa.assertions)[1]
        suppressed.append(apply_morphism(pa.quotient, SUPPRESS_LENGTH, cat))
    assert isomorphic(suppressed[0], suppressed[1], cat) is not None
    assert isomorphic(suppressed[1], suppressed[2], cat) is not None


def test_translation_invariance_of_polygon_quotient():
    cat = TypeCatalog()
    base = hex_raster()
    W, H, dx, dy = base.width + 9, base.height + 7, 5, 3
    rows = [[0] * W for _ in range(H)]
    for y in range(base.height):
        for x in range(base.width):
            if base.values[y][x]:
                rows[y + dy][x + dx] = 1
    shifted = RasterStructure(W, H, tuple(tuple(r) for r in rows), 1)
    qa = polygon_quotient(base, cat).quotient
    qb = polygon_quotient(shifted, cat).quotient
    assert isomorphic(qa, qb, cat) is not None


def test_identical_rasters_directly_isomorphic():
    r = tri_raster()
    again = load_raster(serialize_raster(r))
    assert isomorphic(r.to_structure(), again.to_structure()) is not None


def square_outline(n=12):
    ink = set()
    for i in range(n):
        ink |= {(i, 0), (i, n - 1), (0, i), (n - 1, i)}
    return raster_from_ink(ink, n + 4, n + 4)


def test_square_stroke_quotient_two_classes_four_cycle():
    # quotient of the ink portion; corners ride with the horizontal strokes,
    # so opposite strokes stay isomorphic while adjacent ones differ
    from structkit.derivation import partition, portion, quotient
    from structkit.pixels import _pid
    from structkit.structure import internal_classes
    r = square_outline(12)
    stroke = portion(r.to_structure(),
                     [_pid(x, y) for (x, y) in ink_pixels(r)]).induced
    top = [(x, 0) for x in range(12)]
    bottom = [(x, 11) for x in range(12)]
    left = [(0, y) for y in range(1, 11)]
    right = [(11, y) for y in range(1, 11)]
    blocks = [[_pid(x, y) for x, y in blk]
              for blk in (top, bottom, left, right)]
    cat = TypeCatalog()
    q = quotient(stroke, partition(stroke, blocks), cat)
    assert q.n == 4
    classes = internal_classes(q, cat)
    assert len(classes) == 2
    assert sorted(map(sorted, classes)) == [["b0", "b1"], ["b2", "b3"]]
    deg = {p: 0 for p in q.parts}
    for rel in q.relations:
        deg[rel.a] += 1
        deg[rel.b] += 1
    assert all(d == 2 for d in deg.values())


def test_rectilinear_hexagon_stroke_quotient_is_six_cycle():
    # an L-shaped ring is a hexagon with axis-aligned sides, so strokes stay
    # 4-connected and consecutive sides share base adjacencies
    from structkit.derivation import partition, portion, quotient
    from structkit.pixels import _pid
    sides = [
        [(x, 0) for x in range(0, 12)],           # top
        [(12, y) for y in range(0, 6)],           # right upper
        [(x, 6) for x in range(6, 13)],           # middle horizontal
        [(6, y) for y in range(7, 12)],           # middle vertical
        [(x, 12) for x in range(0, 7)],           # bottom
        [(0, y) for y in range(1, 12)],           # left
    ]
    ink = {p for side in sides for p in side}
    r = raster_from_ink(ink, 17, 17)
    stroke = portion(r.to_structure(),
                     [_pid(x, y) for (x, y) in ink]).induced
    blocks = [[_pid(x, y) for x, y in side] for side in sides]
    cat = TypeCatalog()
    q = quotient(stroke, partition(stroke, blocks), cat)
    assert q.n == 6
    deg = {p: 0 for p in q.parts}
    for rel in q.relations:
        deg[rel.a] += 1
        deg[rel.b] += 1
    assert all(d == 2 for d in deg.values())


def test_polygon_side_is_valid_portion():
    from structkit.derivation import portion
    from structkit.pixels import _pid
    r = square_outline(12)
    base = r.to_structure()
    side = portion(base, [_pid(x, 0) for x in range(12)])
    assert side.induced.n == 12
    assert len(side.induced.relations) == 11


def test_square_integer_scales_change_only_length_bins():
    # scaling a regular polygon by integer factors only shifts length bins;
    # suppressing lengths makes every scale isomorphic
    cat = TypeCatalog()
    raw, suppressed = [], []
    for factor in (1, 2, 3, 4):
        r = rasterize_polygon(_BASE_SHAPES[("quadrilateral", "regular")],
                              0, factor)
        pa = polygon_quotient(r, cat)
        assert pa.problems == []
        raw.append(pa)
        suppressed.append(apply_morphism(pa.quotient, SUPPRESS_LENGTH, cat))
    for pa in raw[1:]:
        base = {a for a in raw[0].assertions if a.feature != "length-bin"}
        scaled = {a for a in pa.assertions if a.feature != "length-bin"}
        assert base == scaled
    for sup in suppressed[1:]:
        assert isomorphic(suppressed[0], sup, cat) is not None


def test_signature_monotone_in_added_assertions():
    tri = polygon_quotient(tri_raster()).assertions
    base_score, fired = evaluate_signature(TRIANGLE_SIG, tri)
    assert fired
    more = list(tri) + [PropertyAssertion(("structure",), "extra-feature", True)]
    again, still = evaluate_signature(TRIANGLE_SIG, more)
    assert still and again >= base_score


def test_forbidden_feature_lowers_score():
    sig = Signature("open-shape", (SignatureAtom("side-count", 3),),
                    forbidden=(SignatureAtom("is-closed-cycle", True),))
    tri = polygon_quotient(tri_raster()).assertions
    score, fired = evaluate_signature(sig, tri)
    assert score == 0.0 and not fired


# --- build_signature_candidates -----------------------------------------------

def test_candidates_from_three_triangle_sizes():
    examples = [polygon_quotient(tri_raster(s)).assertions for s in (1, 2, 3)]
    cands = build_signature_candidates(examples)
    assert cands
    feats = {(a.feature, a.value) for a in cands[0].required}
    assert ("side-count", 3) in feats
    assert ("is-closed-cycle", True) in feats
    assert not any(f == "length-bin" for f, _ in feats)


def test_candidates_single_example_full_set():
    ex = polygon_quotient(tri_raster()).assertions
    cands = build_signature_candidates([ex])
    atoms = {(a.feature, a.value) for a in cands[0].required}
    expected = {(a.feature, a.value) for a in ex
                if isinstance(a.value, (bool, int))}
    expected |= {(a.feature, None) for a in ex
                 if isinstance(a.value, float) and a.value >= 0.5}
    assert atoms == expected


def test_candidates_disjoint_examples_only_generic_features():
    tri = polygon_quotient(tri_raster()).assertions
    hexa = polygon_quotient(hex_raster()).assertions
    cands = build_signature_candidates([tri, hexa])
    feats = {(a.feature, a.value) for c in cands for a in c.required}
    assert ("is-closed-cycle", True) in feats
    assert not any(f == "side-count" for f, _ in feats)


if __name__ == "__main__":
    # one assertion or chain per line, so a changed output diffs line by line
    cases = []
    for name, make in sorted(PIN_RASTERS.items()):
        fields = []
        for key, val in sorted(quotient_record(make()).items()):
            if isinstance(val, list) and val:
                val = "[\n   " + ",\n   ".join(
                    json.dumps(v, sort_keys=True) for v in val) + "]"
            else:
                val = json.dumps(val)
            fields.append(f"  {json.dumps(key)}: {val}")
        cases.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "}")
    PINS.write_text("{\n" + ",\n".join(cases) + "\n}\n")
