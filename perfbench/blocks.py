"""N-block worlds on structure states, and a plain breadth-first oracle.

A state is an oriented structure with one part per block plus the table
part `t`; an `on` relation runs from each block to what it stands on.  Each
`on(x,y)` subject is recognised by a two-part pattern, and each move is a
production guarded by the negative micro-situation "x is clear, the
destination is clear, x is not already there".  Block types carry a `size`
attribute interned in a shared catalog, so a scaled twin (same supports,
other sizes) reaches the same plan-cache entry under a drop-`size` mask.
"""

from __future__ import annotations

from collections import deque

from structkit.rules import MicroSituation, MsMember
from structkit.solver import Production, ProblemSpec, StructRecognizer
from structkit.structure import Relation, Structure, structure

TABLE = "T"


def block_names(n: int) -> tuple[str, ...]:
    return tuple("ABCDEFGH"[:n])


def on_subject(x: str, y: str) -> str:
    return f"on({x},{y})"


def _ms(*members: str) -> MicroSituation:
    return MicroSituation(tuple(
        MsMember(m.lstrip("!"), not m.startswith("!")) for m in members))


def _type(catalog, block: str, sizes: dict) -> str:
    return "TBL" if block == TABLE else \
        catalog.intern_attr(f"blk{block}", {"size": sizes[block]})


def block_state(blocks, supports: dict, catalog, sizes: dict) -> Structure:
    """supports maps block -> what it stands on (T is the table)."""
    types = {"t": "TBL"}
    for b in blocks:
        types[b.lower()] = _type(catalog, b, sizes)
    rels = [(b.lower(), "t" if supports[b] == TABLE else supports[b].lower(),
             "on") for b in blocks]
    return structure(types, rels, oriented=True)


def _recognizers(blocks, catalog, sizes) -> tuple[StructRecognizer, ...]:
    recs = []
    for x in blocks:
        for y in blocks + (TABLE,):
            if x == y:
                continue
            pattern = structure({"u": _type(catalog, x, sizes),
                                 "v": _type(catalog, y, sizes)},
                                [("u", "v", "on")], oriented=True)
            recs.append(StructRecognizer(on_subject(x, y), pattern))
    return tuple(recs)


def _move(blocks, x: str, dest: str) -> Production:
    guards = []
    for z in blocks:
        if z != x:
            guards.append(f"!{on_subject(z, x)}")
        if dest != TABLE and z not in (x, dest):
            guards.append(f"!{on_subject(z, dest)}")
    if dest != TABLE:
        guards.append(f"!{on_subject(x, dest)}")
    target = "t" if dest == TABLE else dest.lower()
    mover = x.lower()

    def effect(state: Structure) -> Structure:
        rels = [r for r in state.relations if r.a != mover]
        rels.append(Relation(mover, target, "on"))
        return Structure(state.parts, state.part_types, tuple(rels), True)

    return Production(f"move-{x}-to-{dest}", _ms(*guards), effect)


def block_spec(blocks, supports: dict, goal_on, catalog,
               sizes: dict) -> ProblemSpec:
    """goal_on lists the (x, y) pairs that must hold in a goal state.

    `blocks` fixes the order of parts, recognizers and productions, and so
    the solver's tie-breaking: two problems that differ only by a renaming
    of blocks, given in corresponding orders, search identical trees.
    """
    productions = tuple(_move(blocks, x, d) for x in blocks
                        for d in blocks + (TABLE,) if x != d)
    goal = _ms(*[on_subject(x, y) for x, y in goal_on])
    return ProblemSpec(block_state(blocks, supports, catalog, sizes), goal,
                       productions,
                       recognizers=_recognizers(blocks, catalog, sizes),
                       catalog=catalog)


def _moves(supports: dict):
    covered = set(supports.values())
    for x in sorted(supports):
        if x in covered:
            continue
        for dest in sorted(supports) + [TABLE]:
            if dest == x or supports[x] == dest:
                continue
            if dest != TABLE and dest in covered:
                continue
            nxt = dict(supports)
            nxt[x] = dest
            yield nxt


def bfs_distance(supports: dict, goal_on) -> int | None:
    """Length of a shortest plan, or None when no plan exists."""
    def frozen(s):
        return tuple(sorted(s.items()))

    start = frozen(supports)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        state = dict(cur)
        if all(state[x] == y for x, y in goal_on):
            return seen[cur]
        for nxt in _moves(state):
            key = frozen(nxt)
            if key not in seen:
                seen[key] = seen[cur] + 1
                queue.append(key)
    return None
