"""Seeded input generation: every file the program reads comes from here.

`make_inputs(workload, seed, workdir)` writes the workload's input files
under `workdir` and returns a manifest: the ordered request list of one
round, each request with what its correctness check needs.  The seed picks
relabellings, block renamings, sizes, log noise and request order; the families
and sizes of the inputs are fixed, so every seed gives a workload of the same
shape and cost.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from structkit import corpus

import blocks

# the test suite's log generators and components oracle
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from loggen import absence_rule_log, independent_noise  # noqa: E402
from oracles import connected_components_oracle  # noqa: E402

# --- polygons -----------------------------------------------------------------

_LARGE_SCALES = (4, 5, 6, 7, 8)   # family i is drawn at _LARGE_SCALES[i % 5]


def component_sizes(raster) -> list[list[int]]:
    """Sorted [value, size] of each 4-connected equal-value component."""
    sizes = []
    for group in connected_components_oracle(raster.width, raster.height,
                                             raster.values):
        x, y = next(iter(group))
        sizes.append([raster.values[y][x], len(group)])
    return sorted(sizes)


def _write_pbm(path: Path, rows) -> None:
    lines = ["P1", f"{len(rows[0])} {len(rows)}"]
    lines += [" ".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _polygons(rng, workdir: Path) -> list[dict]:
    """The 60 demo rasters, then the 20 figure families at scales 4-8."""
    figures = [(item.name, item.kind, item.variant, item.raster)
               for item in corpus.generate_corpus()]
    families = [(kind, variant, verts, rot)
                for (kind, variant), verts in sorted(corpus._BASE_SHAPES.items())
                for rot in corpus.ROTATIONS[kind]]
    for i, (kind, variant, verts, rot) in enumerate(families):
        scale = _LARGE_SCALES[i % len(_LARGE_SCALES)]
        figures.append((f"{kind}-{variant}-r{rot:g}-s{scale}", kind, variant,
                        corpus.rasterize_polygon(verts, rot, scale)))
    requests = []
    for name, kind, variant, raster in figures:
        image = workdir / f"{name}.pbm"
        _write_pbm(image, raster.values)
        expected = [kind] + ([f"regular-{kind}"] if variant == "regular" else [])
        requests.append({
            "name": name,
            "argv": ["analyze", str(image), "--out", str(workdir / f"{name}.json")],
            "exit": 0,
            "expected": sorted(expected),
            "blocks": component_sizes(raster),
        })
    rng.shuffle(requests)
    return requests


# --- symmetric ------------------------------------------------------------------

def _cycle(n, prefix="v"):
    parts = [f"{prefix}{i}" for i in range(n)]
    return parts, [(parts[i], parts[(i + 1) % n]) for i in range(n)]


def _complete(n):
    parts = [f"v{i}" for i in range(n)]
    return parts, [(parts[i], parts[j]) for i in range(n) for j in range(i + 1, n)]


def _grid(w):
    parts = [f"v{x}_{y}" for y in range(w) for x in range(w)]
    edges = [(f"v{x}_{y}", f"v{x + 1}_{y}") for y in range(w) for x in range(w - 1)]
    edges += [(f"v{x}_{y}", f"v{x}_{y + 1}") for y in range(w - 1) for x in range(w)]
    return parts, edges


def _convolution(a, b):
    """Every part of b replaced by a copy of a, copies joined part-wise."""
    (pa, ea), (pb, eb) = a, b
    parts = [f"{q}.{p}" for q in pb for p in pa]
    edges = [(f"{q}.{u}", f"{q}.{v}") for q in pb for u, v in ea]
    edges += [(f"{u}.{p}", f"{v}.{p}") for u, v in eb for p in pa]
    return parts, edges


def _two_cycles(n):
    pa, ea = _cycle(n, "a")
    pb, eb = _cycle(n, "b")
    return pa + pb, ea + eb


def _relabel(rng, graph):
    """Same graph under fresh part names, part order and relation order."""
    parts, edges = graph
    names = [f"n{k}" for k in rng.sample(range(100 * len(parts)), len(parts))]
    ren = dict(zip(parts, names))
    order = [ren[p] for p in parts]
    rng.shuffle(order)
    rels = [(ren[u], ren[v]) if rng.random() < 0.5 else (ren[v], ren[u])
            for u, v in edges]
    rng.shuffle(rels)
    return {"parts": order, "edges": rels}


def _write_struct(path: Path, g: dict) -> None:
    lines = [f"part {p} T" for p in g["parts"]]
    lines += [f"rel {u} {v} L" for u, v in g["edges"]]
    path.write_text("\n".join(lines) + "\n")


# (name, graph a, graph b, isomorphic?).  C15, C20 and C25 come under 2, 3
# and 2 relabellings, so that the 21 pairs are ordered by cost as nine
# cheaper than C20, the three C20s, and nine dearer: the median request is
# the middle C20, and the tail (fifth most expensive) is C40 or C4*C4, which
# cost about the same.  These are yes-pairs, whose cost varies less from call
# to call than that of the 2-regular no-pairs.
def _symmetric_pairs():
    same = [("K4", _complete(4)), ("K5", _complete(5))]
    same += [(f"C{n}-{i}", _cycle(n)) for n, copies in
             ((10, 1), (15, 2), (20, 3), (25, 2), (30, 1), (40, 1))
             for i in range(copies)]
    same += [(f"grid{w}x{w}", _grid(w)) for w in (4, 5, 6)]
    same += [(f"C{k}convC{k}", _convolution(_cycle(k), _cycle(k))) for k in (3, 4)]
    pairs = [(name, g, g, True) for name, g in same]
    pairs += [(f"C{2 * n}-vs-2C{n}", _cycle(2 * n), _two_cycles(n), False)
              for n in (5, 10, 12, 15)]
    return pairs


def _symmetric(rng, workdir: Path) -> list[dict]:
    requests = []
    for name, ga, gb, iso in _symmetric_pairs():
        a, b = _relabel(rng, ga), _relabel(rng, gb)
        pa, pb = workdir / f"{name}.a.struct", workdir / f"{name}.b.struct"
        _write_struct(pa, a)
        _write_struct(pb, b)
        requests.append({
            "name": name,
            "argv": ["iso", str(pa), str(pb), "--out", str(workdir / f"{name}.json")],
            "exit": 0 if iso else 1,
            "a": a, "b": b,
        })
    rng.shuffle(requests)
    return requests


# --- planning -------------------------------------------------------------------

# Problem templates over role names A, B, C, D: (start supports, goal).
# The two 4-block templates each appear twice, under two renamings, so the
# four most expensive requests of a round are the 4-block misses and the tail
# (fifth most expensive) is the dearest 3-block miss.
_TEMPLATES = [
    ({"A": "T", "B": "T", "C": "T"}, [("A", "B"), ("B", "C")]),
    ({"A": "B", "B": "C", "C": "T"}, [("C", "B"), ("B", "A")]),
    ({"A": "B", "B": "T", "C": "T"}, [("B", "C")]),
    ({"A": "B", "B": "C", "C": "T"}, [("C", "A")]),
    ({"A": "T", "B": "A", "C": "T"}, [("A", "C"), ("B", "A")]),
] + 2 * [
    ({"A": "T", "B": "T", "C": "T", "D": "T"}, [("A", "B"), ("C", "D")]),
    ({"A": "B", "B": "C", "C": "T", "D": "T"}, [("C", "D")]),
]


def _planning(rng, workdir: Path) -> list[dict]:
    """Each problem as drawn, repeated, and as twins scaled by 2 and 3.

    The seed renames the blocks (and so the start and goal) and draws the
    sizes; blocks are listed in role order, so the search tree, and with it
    the work, is the same for every seed.  Renamings are redrawn until every
    problem is distinct, so each one misses the plan cache exactly once.
    """
    requests = []
    seen = set()
    for k, (supports, goal) in enumerate(_TEMPLATES):
        roles = blocks.block_names(len(supports))
        while True:
            names = list(roles)
            rng.shuffle(names)
            ren = dict(zip(roles, names), T="T")
            problem = {
                "blocks": [ren[r] for r in roles],
                "supports": {ren[b]: ren[u] for b, u in supports.items()},
                "goal": [[ren[x], ren[y]] for x, y in goal],
            }
            key = (frozenset(problem["supports"].items()),
                   frozenset(map(tuple, problem["goal"])))
            if key not in seen:
                seen.add(key)
                break
        problem["distance"] = blocks.bfs_distance(
            problem["supports"], [tuple(g) for g in problem["goal"]])
        sizes = {b: rng.randint(1, 3) for b in names}
        for role, factor in (("first", 1), ("repeat", 1), ("twin2", 2),
                             ("twin3", 3)):
            requests.append(dict(problem, name=f"p{k}-{role}",
                                 sizes={b: factor * s for b, s in sizes.items()}))
    rng.shuffle(requests)
    return requests


# --- mining ---------------------------------------------------------------------

MINE_ARGS = ["--window", "5", "--min-support", "30", "--min-p", "0.7"]
PLANTED_P = 0.8
_PADDING = (8, 12, 16, 20, 24)


def _score(rng, lo=0.8):
    return round(rng.uniform(lo, 1.0), 3)


def _planted(rng, n_triggers=40, window=5, gap=(11, 18)):
    """A at spaced ticks; X follows within the window after exactly
    round(PLANTED_P * n_triggers) of them, which ones drawn by the seed.
    """
    hits = set(rng.sample(range(n_triggers), round(PLANTED_P * n_triggers)))
    log = []
    t = rng.randint(0, 4)
    for i in range(n_triggers):
        log.append(("A", _score(rng), t))
        if i in hits:
            log.append(("X", _score(rng), t + rng.randint(1, window)))
        for s in ("B", "C"):
            if rng.random() < 0.25:
                log.append((s, _score(rng, 0.6), t + rng.randint(0, window)))
        t += rng.randint(*gap)
    return log


def _absence(rng):
    """W on 4 ticks of every 30, D through the dry spell.

    With these proportions a D follows within the window of every tick and a
    W of few, so no condition's probability sits near --min-p and the number
    of rules mined does not depend on the seed.
    """
    return [(r.subject, r.score, r.t) for r in
            absence_rule_log(rng.randrange(2**32), cycles=20, wet=4, dry=26)]


def _noise(rng):
    return [(r.subject, r.score, r.t) for r in
            independent_noise(rng.randrange(2**32), length=600)]


def _pad(rng, log, k, rate=0.04):
    """Add k independent distractor subjects over the log's tick span.

    Each fires on the same number of ticks, drawn by the seed.
    """
    t0 = min(t for _, _, t in log)
    t1 = max(t for _, _, t in log)
    n = round(rate * (t1 - t0 + 1))
    return log + [(f"Z{i:02d}", _score(rng, 0.6), t) for i in range(k)
                  for t in sorted(rng.sample(range(t0, t1 + 1), n))]


def _mining(rng, workdir: Path) -> list[dict]:
    requests = []
    for kind, make in (("planted", _planted), ("absence", _absence),
                       ("noise", _noise)):
        for k in _PADDING:
            name = f"{kind}-pad{k}"
            log = sorted(_pad(rng, make(rng), k), key=lambda r: (r[2], r[0]))
            path = workdir / f"{name}.log"
            path.write_text("".join(f"subj={s} score={v} t={t}\n"
                                    for s, v, t in log))
            requests.append({
                "name": name, "kind": kind, "planted_p": PLANTED_P,
                "argv": ["mine", str(path), *MINE_ARGS,
                         "--out", str(workdir / f"{name}.json")],
                "exit": 0,
            })
    rng.shuffle(requests)
    return requests


_MAKERS = {"polygons": _polygons, "symmetric": _symmetric,
           "planning": _planning, "mining": _mining}
WORKLOADS = tuple(_MAKERS)


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    requests = _MAKERS[workload](rng, workdir)
    return {"workload": workload, "seed": seed, "requests": requests}
