"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive: permutation enumeration, union-find,
exhaustive subset scans.  None of it shares code with the library paths it
verifies, except `canonical_order_oracle`, which reuses the library's
encoding (its refinement is `refine_oracle`, full rounds over a plain
relation scan), and `occurrences_oracle`, which compares canonical forms
to check the embedding matcher.  `extract_strokes_oracle` is the stroke
tracer the library used before it moved to integer pixel ids.
"""

import itertools
import math
import random
from typing import Sequence

from structkit.config import DEFAULT, Config
from structkit.pixels import Chain, Pixel, RasterError, RasterStructure
from structkit.rules import Recognition
from structkit.structure import (
    Relation,
    Structure,
    TypeCatalog,
    _connected_subsets,
    _encode,
    _key_map,
    canonical_form,
    induced,
)


def neighbors(s: Structure, part: str) -> list[str]:
    """The other end of each relation at part, by a plain relation scan."""
    out = []
    for r in s.relations:
        if r.a == part:
            out.append(r.b)
        elif r.b == part:
            out.append(r.a)
    return out


def ink_pixels(r: RasterStructure) -> set[Pixel]:
    """The (x, y) pixels holding r's ink value."""
    return {(x, y) for y, row in enumerate(r.values)
            for x, v in enumerate(row) if v == r.ink}


def iso_oracle(a: Structure, b: Structure) -> bool:
    """All-permutations isomorphism test on opaque type ids."""
    if a.n != b.n or a.oriented != b.oriented:
        return False
    if sorted(a.part_types) != sorted(b.part_types):
        return False
    deg_a = sorted(len(neighbors(a, p)) for p in a.parts)
    deg_b = sorted(len(neighbors(b, p)) for p in b.parts)
    if deg_a != deg_b:
        return False
    rels_b = {}
    for r in b.relations:
        k = (r.ends(b.oriented), r.label, r.attrs)
        rels_b[k] = rels_b.get(k, 0) + 1
    # enumerate bijections respecting the type classes; a permutation sending
    # a part onto a differently typed one can never satisfy the definition
    by_type_a = {}
    by_type_b = {}
    for p, t in zip(a.parts, a.part_types):
        by_type_a.setdefault(t, []).append(p)
    for p, t in zip(b.parts, b.part_types):
        by_type_b.setdefault(t, []).append(p)
    type_ids = sorted(by_type_a)
    pools = [itertools.permutations(by_type_b[t]) for t in type_ids]
    for combo in itertools.product(*pools):
        mapping = {}
        for t, perm in zip(type_ids, combo):
            mapping.update(zip(by_type_a[t], perm))
        if _respects(a, mapping, rels_b):
            return True
    return False


def _respects(a: Structure, mapping: dict, rels_b: dict) -> bool:
    remaining = dict(rels_b)
    for r in a.relations:
        u, v = mapping[r.a], mapping[r.b]
        if not a.oriented:
            ends = (u, v) if u <= v else (v, u)
        else:
            ends = (u, v)
        k = (ends, r.label, r.attrs)
        n = remaining.get(k, 0)
        if n <= 0:
            return False
        remaining[k] = n - 1
    return all(v == 0 for v in remaining.values())


def refine_oracle(s: Structure, colors: dict) -> dict:
    """Colour refinement in full rounds: every round renames every part to
    the rank of its (colour, sorted incident ends) signature among the
    distinct signatures, until the class count stops growing."""
    out_dir, in_dir = (">", "<") if s.oriented else ("-", "-")
    inc = {p: [] for p in s.parts}
    for r in s.relations:
        inc[r.a].append((out_dir, r.label, r.attrs, r.b))
        inc[r.b].append((in_dir, r.label, r.attrs, r.a))
    count = len(set(colors.values()))
    while True:
        sigs = {p: (colors[p], tuple(sorted((d, lab, at, colors[q])
                                            for d, lab, at, q in inc[p])))
                for p in s.parts}
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        colors = {p: rank[sig] for p, sig in sigs.items()}
        if len(rank) == count:
            return colors
        count = len(rank)


def canonical_order_oracle(s: Structure, keys: dict | None = None) -> list:
    """The individualisation-refinement search without automorphism pruning.

    Every part of every node's first non-singleton colour class is tried, by
    name; the first leaf with the least encoding wins.
    """
    if keys is None:
        keys = _key_map(s, None)
    if not s.parts:
        return []
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    best: list[tuple[str, list]] = []

    def rec(colors: dict):
        groups: dict = {}
        for p, c in colors.items():
            groups.setdefault(c, []).append(p)
        multi = sorted(c for c, g in groups.items() if len(g) > 1)
        if not multi:
            order = sorted(s.parts, key=colors.__getitem__)
            enc = _encode(s, order, keys)
            if not best or enc < best[0][0]:
                best[:] = [(enc, order)]
            return
        for p in sorted(groups[multi[0]]):
            forked = dict(colors)
            forked[p] = -1
            rec(refine_oracle(s, forked))

    rec(refine_oracle(s, {p: rank[keys[p]] for p in s.parts}))
    return best[0][1]


def occurrences_oracle(a: Structure, b: Structure,
                       catalog: TypeCatalog | None = None) -> list[frozenset]:
    """Part subsets of a whose induced structure has b's canonical form.

    Scans every connected subset of b's size when b is connected, else every
    subset of that size; sorted as `occurrences` sorts.
    """
    if b.n == 0 or b.n > a.n:
        return []
    target = canonical_form(b, catalog)
    seen = {b.parts[0]}
    stack = [b.parts[0]]
    while stack:
        for q in neighbors(b, stack.pop()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    subsets = _connected_subsets(a, b.n) if len(seen) == b.n else \
        map(frozenset, itertools.combinations(a.parts, b.n))
    found = [m for m in subsets
             if canonical_form(induced(a, m), catalog) == target]
    found.sort(key=lambda m: tuple(sorted(m)))
    return found


def random_structure(rng: random.Random, max_n: int = 8, n_types: int = 3,
                     n_labels: int = 2, oriented: bool = False) -> Structure:
    """Random valid structure: connected-enough so no part is isolated."""
    n = rng.randint(1, max_n)
    parts = [f"p{i}" for i in range(n)]
    types = [rng.choice([f"T{k}" for k in range(n_types)]) for _ in range(n)]
    rels = []
    if n > 1:
        used = set()
        order = parts[:]
        rng.shuffle(order)
        for i in range(1, n):  # random spanning tree keeps everyone related
            j = rng.randrange(i)
            a, b = order[i], order[j]
            lab = f"L{rng.randrange(n_labels)}"
            key = (tuple(sorted((a, b))), lab)
            used.add(key)
            rels.append(Relation(a, b, lab))
        extra = rng.randint(0, n)
        for _ in range(extra):
            a, b = rng.sample(parts, 2)
            lab = f"L{rng.randrange(n_labels)}"
            key = (tuple(sorted((a, b))), lab)
            if key in used:
                continue
            used.add(key)
            rels.append(Relation(a, b, lab))
    return Structure(tuple(parts), tuple(types), tuple(rels), oriented)


def relabeled_copy(rng: random.Random, s: Structure) -> Structure:
    names = [f"q{i}" for i in range(s.n)]
    rng.shuffle(names)
    ren = dict(zip(s.parts, names))
    order = list(range(s.n))
    rng.shuffle(order)
    parts = tuple(ren[s.parts[i]] for i in order)
    types = tuple(s.part_types[i] for i in order)
    rels = list(s.relations)
    rng.shuffle(rels)
    rels = tuple(Relation(ren[r.a], ren[r.b], r.label, r.attrs) for r in rels)
    return Structure(parts, types, rels, s.oriented)


def connected_components_oracle(width, height, values):
    """Union-find connected components of equal values, 4-neighborhood."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for y in range(height):
        for x in range(width):
            parent[(x, y)] = (x, y)
    for y in range(height):
        for x in range(width):
            if x + 1 < width and values[y][x] == values[y][x + 1]:
                union((x, y), (x + 1, y))
            if y + 1 < height and values[y][x] == values[y + 1][x]:
                union((x, y), (x, y + 1))
    groups = {}
    for y in range(height):
        for x in range(width):
            groups.setdefault(find((x, y)), set()).add((x, y))
    return sorted(frozenset(g) for g in groups.values())


def mining_oracle(log: list[Recognition], window: int = 5,
                  min_support: int = 10, min_p: float = 0.7,
                  cfg: Config = DEFAULT) -> list[tuple]:
    """Exhaustive set-based rule miner: every one of the C(2S, k) literal
    combinations, tick sets as Python sets filled one tick at a time.

    Returns (((subject, positive), ...), target, n_cond, n_hit) per rule in
    the order `rules.mine_rules` must emit them: by Laplace-smoothed p
    descending, then support descending, then members, then target.
    """
    t0 = min(r.t for r in log)
    t1 = max(r.t for r in log)
    ticks = range(t0, t1 + 1)
    subjects = sorted({r.subject for r in log})
    strong = [r for r in log if r.score >= cfg.recognition_min_score]

    at: dict[str, set[int]] = {s: set() for s in subjects}
    in_window: dict[str, set[int]] = {s: set() for s in subjects}
    future: dict[str, set[int]] = {s: set() for s in subjects}
    for r in strong:
        at[r.subject].add(r.t)
        for t in range(r.t, min(r.t + window, t1 + 1)):
            in_window[r.subject].add(t)
        for t in range(max(r.t - window, t0), r.t):
            future[r.subject].add(t)

    all_ticks = set(ticks)
    literals = [(s, True) for s in subjects] + [(s, False) for s in subjects]
    found: list[tuple] = []
    max_k = min(cfg.mining_max_condition, len(subjects))
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(literals, k):
            named = [s for s, _ in combo]
            if len(set(named)) != k:
                continue
            pos = [s for s, sign in combo if sign]
            neg = [s for s, sign in combo if not sign]
            occur = set(all_ticks)
            for s in pos:
                occur &= in_window[s]
            if pos:
                anchors = set()
                for s in pos:
                    anchors |= at[s]
                occur &= anchors
            for s in neg:
                occur -= in_window[s]
            n_cond = len(occur)
            if n_cond < min_support:
                continue
            for target in subjects:
                if target in named:
                    continue
                n_hit = len(occur & future[target])
                p = (n_hit + 1) / (n_cond + 2)
                if p < min_p:
                    continue
                members = tuple(sorted(combo, key=lambda x: (x[0], not x[1])))
                found.append(((-p, -n_cond, members, target),
                              (members, target, n_cond, n_hit)))
    found.sort(key=lambda kv: kv[0])
    return [rule for _, rule in found]


def extract_strokes_oracle(r: RasterStructure,
                           cfg: Config = DEFAULT) -> list[Chain]:
    """Chains of stroke pixels, split at junctions and at direction breaks.

    The coordinate-tuple tracer `pixels.extract_strokes` replaced: every
    pixel and neighbour probe is an (x, y) tuple, and each turn angle
    recomputes both of its vectors.
    """
    if not r.is_binary():
        raise RasterError("stroke extraction requires a binary raster")
    ink = _thin_oracle(ink_pixels(r))
    if not ink:
        return []
    ink, adj = _prune_spurs_oracle(ink)
    raw = _trace_chains_oracle(ink, adj)
    out: list[Chain] = []
    for path, junction_joints, closed in raw:
        out.extend(_split_at_corners_oracle(path, junction_joints, closed,
                                            cfg))
    return out


_SPUR_LEN_ORACLE = 3   # longest dead-end stub that is pruned, in pixels


def _prune_spurs_oracle(ink: set[Pixel]
                        ) -> tuple[set[Pixel], dict[Pixel, list[Pixel]]]:
    """Drop tiny dead-end stubs hanging off junctions.

    Rasterized corners often grow a one or two pixel whisker whose root then
    looks like a junction and breaks cycle tracing.  Returns the kept ink
    and its stroke adjacency.
    """
    while True:
        adj = _stroke_adjacency_oracle(ink)
        degree = {p: len(adj[p]) for p in ink}
        junctions = {p for p in ink if degree[p] >= 3}
        removed = set()
        for start in sorted(p for p in ink if degree[p] == 1):
            trail = [start]
            cur, prev = start, None
            while degree[cur] <= 2 and len(trail) <= _SPUR_LEN_ORACLE:
                nxt = [q for q in adj[cur] if q != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                if cur in junctions:
                    removed.update(trail)
                    break
                trail.append(cur)
        if not removed:
            return ink, adj
        ink = ink - removed


def _thin_oracle(ink: set[Pixel]) -> set[Pixel]:
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


def _stroke_adjacency_oracle(ink: set[Pixel]
                             ) -> dict[Pixel, list[Pixel]]:
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


def _trace_chains_oracle(ink: set[Pixel], adj: dict[Pixel, list[Pixel]]
                         ) -> list[tuple[list[Pixel], tuple[Pixel, ...], bool]]:
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


def _d2_oracle(a: Pixel, b: Pixel) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _turn_angle_oracle(path: Sequence[Pixel], i: int, w: int,
                       closed: bool) -> float:
    n = len(path)
    if closed:
        a = path[(i - w) % n]
        b = path[i]
        c = path[(i + w) % n]
    else:
        if i - w < 0 or i + w >= n:
            return 0.0
        a, b, c = path[i - w], path[i], path[i + w]
    return _angle_deg_oracle((b[0] - a[0], b[1] - a[1]),
                             (c[0] - b[0], c[1] - b[1]))


def _angle_deg_oracle(v1: tuple[float, float],
                      v2: tuple[float, float]) -> float:
    """Angle between two vectors in degrees; 0 when either is zero."""
    n1, n2 = math.hypot(*v1), math.hypot(*v2)
    if n1 == 0 or n2 == 0:
        return 0.0
    dot = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def _corner_indices_oracle(path: Sequence[Pixel], closed: bool,
                           cfg: Config) -> list[int]:
    n = len(path)
    w = cfg.corner_window
    if n < 2 * w + 1:
        return []
    turns = {i: _turn_angle_oracle(path, i, w, closed) for i in range(n)}
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


def _split_at_corners_oracle(path: list[Pixel],
                             junction_joints: tuple[Pixel, ...],
                             closed: bool, cfg: Config) -> list[Chain]:
    corners = _corner_indices_oracle(path, closed, cfg)
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
                   if _d2_oracle(j, path[0]) <= _d2_oracle(j, path[-1])]
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
