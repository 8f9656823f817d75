"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive: permutation enumeration, union-find,
exhaustive subset scans.  None of it shares code with the library paths it
verifies, except `canonical_order_oracle`, which reuses the library's
encoding (its refinement is `refine_oracle`, full rounds over a plain
relation scan), and `occurrences_oracle`, which compares canonical forms
to check the embedding matcher.
"""

import itertools
import random

from structkit.config import DEFAULT, Config
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


def iso_oracle(a: Structure, b: Structure) -> bool:
    """All-permutations isomorphism test on opaque type ids."""
    if a.n != b.n or a.oriented != b.oriented:
        return False
    if sorted(a.part_types) != sorted(b.part_types):
        return False
    deg_a = sorted(len(a.neighbors(p)) for p in a.parts)
    deg_b = sorted(len(b.neighbors(p)) for p in b.parts)
    if deg_a != deg_b:
        return False
    rels_b = {}
    for r in b.relations:
        rels_b[r.key(b.oriented)] = rels_b.get(r.key(b.oriented), 0) + 1
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
        for q in b.neighbors(stack.pop()):
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
