import dataclasses
import random
import sys
from collections import deque

import pytest

from structkit.config import Config
from structkit.derivation import MorphismMask, apply_morphism
from structkit.rules import MicroSituation, MsMember, Recognition
from structkit.solver import (
    CacheEntry,
    Production,
    ProblemSpec,
    RecognitionState,
    SearchResult,
    SetEffect,
    SolutionCache,
    StructRecognizer,
    expand,
    goal_satisfied,
    replay,
    solve,
    solve_with_cache,
    state_recognitions,
)
from structkit.structure import (
    CanonicalBudgetError,
    EmbeddingBudgetError,
    Relation,
    Structure,
    StructureError,
    TypeCatalog,
    _plan_trie,
    embeds,
    structure,
)

from oracles import occurrences_oracle

# the package re-exports the function `structure` under the module's name
STRUCTURE_MODULE = sys.modules["structkit.structure"]
SOLVER_MODULE = sys.modules["structkit.solver"]


def ms(*members):
    return MicroSituation(tuple(
        MsMember(subject.lstrip("!"), not subject.startswith("!"))
        for subject in members))


# --- int-machine production systems ------------------------------------------

def machine_spec(n_states, edges, start=0, goal=None):
    """States are single recognitions s<i>; edges are the productions."""
    productions = []
    for k, (i, j) in enumerate(edges):
        productions.append(Production(
            f"e{k}:{i}->{j}",
            ms(f"s{i}"),
            SetEffect(add=((f"s{j}", 1.0),), remove=(f"s{i}",))))
    goal = goal if goal is not None else n_states - 1
    return ProblemSpec(RecognitionState.of({f"s{start}": 1.0}),
                       ms(f"s{goal}"), tuple(productions))


def bfs_oracle(n_states, edges, start, goal):
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
    dist = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == goal:
            return dist[cur]
        for nxt in adj.get(cur, []):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                q.append(nxt)
    return None


def test_start_satisfies_goal_empty_plan():
    spec = machine_spec(3, [(0, 1)], start=0, goal=0)
    result = solve(spec)
    assert result.status == "solved" and result.plan == ()


def test_rule_threshold_decides_when_the_goal_fires():
    # the goal subject is recognized at 0.9: enough under the default
    # threshold, short of a 0.95 one, where a production must confirm it
    confirm = Production("confirm", ms("s0"), SetEffect(add=(("g", 1.0),)))
    spec = ProblemSpec(RecognitionState.of({"s0": 1.0, "g": 0.9}), ms("g"),
                       (confirm,))
    assert solve(spec).plan == ()
    strict = Config(rule_threshold=0.95)
    result = solve(spec, cfg=strict)
    assert result.status == "solved" and result.plan == ("confirm",)
    assert not goal_satisfied(spec.start, spec.goal, spec, strict)
    assert replay(spec, result.plan, strict).scores()["g"] == 1.0


def test_unreachable_goal_unsolvable():
    spec = machine_spec(4, [(0, 1), (1, 0)], goal=3)
    assert solve(spec).status == "unsolvable"


def test_dead_end_expands_to_nothing():
    spec = machine_spec(3, [(1, 2)], start=0, goal=2)
    succ, errors = expand(spec.start, spec)
    assert succ == [] and errors == []
    assert solve(spec).status == "unsolvable"


def test_all_guards_hold_three_successors():
    state = RecognitionState.of({"s0": 1.0})
    spec = machine_spec(4, [(0, 1), (0, 2), (0, 3)])
    succ, _ = expand(state, spec)
    assert len(succ) == 3


def test_zero_heuristic_matches_bfs_on_random_systems():
    rng = random.Random(1717)
    for _ in range(12):
        n = rng.randint(5, 60)
        edges = []
        for i in range(n):
            for _ in range(rng.randint(1, 3)):
                edges.append((i, rng.randrange(n)))
        start, goal = 0, rng.randrange(n)
        spec = machine_spec(n, edges, start, goal)
        result = solve(spec)
        opt = bfs_oracle(n, edges, start, goal)
        if opt is None:
            assert result.status == "unsolvable"
        else:
            assert result.status == "solved"
            assert len(result.plan) == opt
            replay(spec, result.plan)


def test_budget_exhaustion_reported():
    edges = [(i, i + 1) for i in range(50)]
    spec = machine_spec(51, edges, goal=50)
    result = solve(spec, budget=5)
    assert result.status == "budget-exhausted"


def test_determinism():
    rng = random.Random(5)
    edges = [(rng.randrange(20), rng.randrange(20)) for _ in range(40)]
    spec = machine_spec(20, edges, goal=13)
    assert solve(spec) == solve(spec)


def long_path(n):
    return structure({f"p{i}": "T" for i in range(n)},
                     [(f"p{i}", f"p{i+1}", "L") for i in range(n - 1)])


# a mask that drops part attributes needs a catalog to re-intern them
NEEDS_CATALOG = MorphismMask.make(drop_part_attrs={"size"})


def test_guard_failure_poisons_only_its_production():
    # a guard of no supported kind fails; that production drops out, the
    # others still fire
    state = RecognitionState.of({"s0": 1.0})
    sick = Production("sick", "no guard", SetEffect())
    fine = Production("fine", ms("s0"), SetEffect(add=(("s1", 1.0),)))
    spec = ProblemSpec(state, ms("s1"), (sick, fine))
    succ, errors = expand(state, spec)
    assert [name for name, _ in succ] == ["fine"]
    assert errors == [("sick", "unsupported guard on production sick")]


def test_guard_failures_under_shared_recognitions_poison_each_production():
    # the recognitions shared by the micro-situation guards fail on their
    # masked recognizer, and each of those productions reports its own
    # error; the pattern guard embeds in the 70-part state and fires
    big = long_path(70)
    pattern = structure({"a": "T"})
    prods = (Production("first", ms("hasT"), SetEffect()),
             Production("pattern", pattern, lambda state: state),
             Production("second", ms("!hasT"), SetEffect()))
    spec = ProblemSpec(big, ms("done"), prods, recognizers=(
        StructRecognizer("hasT", pattern, NEEDS_CATALOG),))
    succ, errors = expand(big, spec)
    assert succ == [("pattern", big)]
    assert [name for name, _ in errors] == ["first", "second"]
    assert all("needs a catalog" in msg for _, msg in errors)


def test_recognizer_error_reaches_solve():
    three = structure({"a": "T", "b": "T", "c": "T"},
                      [("a", "b", "L"), ("b", "c", "L")])
    pair = structure({"u": "T", "v": "T"}, [("u", "v", "L")])
    spec = ProblemSpec(three, ms("linked"),
                       (Production("noop", ms("linked"), SetEffect()),),
                       recognizers=(StructRecognizer("linked", pair),))
    assert solve(spec, 10).status == "solved"
    masked = dataclasses.replace(spec, recognizers=(
        StructRecognizer("linked", pair, NEEDS_CATALOG),))
    with pytest.raises(StructureError, match="needs a catalog"):
        solve(masked, 10)


def test_a_state_over_64_parts_solves():
    # one recognizer of one part fires on a 70-part path at the start
    spec = ProblemSpec(long_path(70), ms("hasT"),
                       (Production("noop", ms("hasT"), SetEffect()),),
                       recognizers=(StructRecognizer(
                           "hasT", structure({"a": "T"})),))
    assert solve(spec, 10) == SearchResult((), 0, 0, "solved")


def test_canonical_budget_reaches_state_keys(monkeypatch):
    # the path's two ends share a colour: its canonical search takes 3 nodes
    three = structure({"a": "T", "b": "T", "c": "T"},
                      [("a", "b", "L"), ("b", "c", "L")])
    spec = ProblemSpec(three, ms("done"),
                       (Production("noop", ms("done"), SetEffect()),))
    assert solve(spec, 10).status != "solved"
    monkeypatch.setattr(STRUCTURE_MODULE, "_CANON_NODE_CAP", 2)
    with pytest.raises(CanonicalBudgetError, match="node cap of 2"):
        solve(spec, 10)


def test_embedding_budget_in_a_guard_is_not_a_broken_production(monkeypatch):
    # the guard holds (d-a-b), but mapping its three parts takes 4 steps
    state = structure({"a": "T", "b": "T", "c": "T", "d": "U"},
                      [("a", "b", "L"), ("b", "c", "L"), ("d", "a", "L")])
    pattern = structure({"x": "U", "y": "T", "z": "T"},
                        [("x", "y", "L"), ("y", "z", "L")])
    spec = ProblemSpec(state, ms("done"),
                       (Production("grow", pattern, SetEffect()),))
    cache = SolutionCache()
    cache.entries[cache.key_for(spec)] = CacheEntry(("grow",))
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 2)
    with pytest.raises(EmbeddingBudgetError, match="node cap of 2"):
        solve(spec, 10)
    with pytest.raises(EmbeddingBudgetError, match="node cap of 2"):
        solve_with_cache(spec, cache, 10)
    assert cache.entries[cache.key_for(spec)].misses == 0


def test_embedding_budget_of_a_recognition_pass_reaches_expand(monkeypatch):
    # each lone part maps in 2 steps, but the one pass over all three
    # recognizers takes 4: the root and a step per part
    state = structure({"a": "A", "b": "B", "c": "C"},
                      [("a", "b", "L"), ("b", "c", "L")])
    lone = [structure({"x": t}) for t in "ABC"]
    spec = ProblemSpec(state, ms("A"),
                       (Production("noop", ms("A"), SetEffect()),),
                       recognizers=tuple(StructRecognizer(t, p)
                                         for t, p in zip("ABC", lone)))
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 3)
    assert all(embeds(state, p) for p in lone)
    with pytest.raises(EmbeddingBudgetError, match="node cap of 3"):
        expand(state, spec)
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 4)
    assert [r.subject for r in state_recognitions(state, spec)] == \
        ["A", "B", "C"]


def test_effect_failure_poisons_only_its_production():
    state = RecognitionState.of({"s0": 1.0})
    good = Production("good", ms("s0"),
                      SetEffect(add=(("s1", 1.0),), remove=("s0",)))
    from structkit.schema import Binding, schema as mk_schema
    bad = Production("bad", ms("s0"),
                     mk_schema([("c", Binding("COPY", slot="t"))]))
    spec = ProblemSpec(state, ms("s1"), (good, bad))
    succ, errors = expand(state, spec)
    assert [name for name, _ in succ] == ["good"]
    assert errors and errors[0][0] == "bad"


# --- undesired states -----------------------------------------------------------

def test_undesired_state_avoided_when_detour_exists():
    # two routes 0->3: short through 1 (undesired), long through 4,5
    edges = [(0, 1), (1, 3), (0, 4), (4, 5), (5, 3)]
    spec = machine_spec(6, edges, goal=3)
    base = solve(spec)
    assert len(base.plan) == 2
    avoiding = ProblemSpec(spec.start, spec.goal, spec.productions,
                           undesired=(ms("s1"),))
    result = solve(avoiding)
    assert result.status == "solved" and len(result.plan) == 3
    replay(avoiding, result.plan)   # replay enforces avoidance too


def test_undesired_goal_unreachable_reports_unsolvable():
    edges = [(0, 1), (1, 2)]
    spec = machine_spec(3, edges, goal=2)
    blocked = ProblemSpec(spec.start, spec.goal, spec.productions,
                          undesired=(ms("s1"),))
    assert solve(blocked).status == "unsolvable"


def test_heuristic_may_mislead_but_never_invalidates():
    rng = random.Random(33)
    edges = [(rng.randrange(15), rng.randrange(15)) for _ in range(40)]
    spec = machine_spec(15, edges, goal=9)
    misleading = ProblemSpec(
        spec.start, spec.goal, spec.productions,
        heuristic=lambda s: 10.0 * len(s.recognitions))
    result = solve(misleading)
    plain = solve(spec)
    assert result.status == plain.status
    if result.status == "solved":
        replay(misleading, result.plan)


# --- goals over recognitions ------------------------------------------------------

def test_abstract_goal_matches_many_concrete_states():
    goal = ms("nourished")
    spec = ProblemSpec(RecognitionState.of({"x": 1.0}), goal,
                       (Production("noop", ms("x"), SetEffect()),))
    for extras in ({"nourished": 1.0, "at-home": 1.0},
                   {"nourished": 0.9, "restaurant": 1.0, "rain": 0.7}):
        assert goal_satisfied(RecognitionState.of(extras), goal, spec)
    assert not goal_satisfied(RecognitionState.of({"hungry": 1.0}), goal, spec)


def test_goal_with_forbidden_subject():
    goal = ms("fed", "!poisoned")
    spec = ProblemSpec(RecognitionState.of({"fed": 1.0}), goal,
                       (Production("noop", ms("fed"), SetEffect()),))
    assert goal_satisfied(RecognitionState.of({"fed": 1.0}), goal, spec)
    assert not goal_satisfied(
        RecognitionState.of({"fed": 1.0, "poisoned": 1.0}), goal, spec)


# --- block world on structure states ----------------------------------------------

def block_state(supports: dict, catalog=None, sizes=None) -> Structure:
    """supports maps block -> what it stands on ('T' = table)."""
    types = {"t": "TBL"}
    for b in sorted(supports):
        if sizes and catalog is not None:
            types[b.lower()] = catalog.intern_attr(f"blk{b}", {"size": sizes[b]})
        else:
            types[b.lower()] = f"blk{b}"
    rels = []
    for b, under in supports.items():
        target = "t" if under == "T" else under.lower()
        rels.append((b.lower(), target, "on"))
    return structure(types, rels, oriented=True)


def on_subject(x, y):
    return f"on({x},{y})"


def block_recognizers(blocks, catalog=None, sizes=None):
    recs = []
    for x in blocks:
        for y in blocks + ["T"]:
            if x == y:
                continue
            if sizes and catalog is not None:
                tx = catalog.intern_attr(f"blk{x}", {"size": sizes[x]})
            else:
                tx = f"blk{x}"
            ty = "TBL" if y == "T" else (
                catalog.intern_attr(f"blk{y}", {"size": sizes[y]})
                if sizes and catalog is not None else f"blk{y}")
            pattern = structure({"u": tx, "v": ty}, [("u", "v", "on")],
                                oriented=True)
            recs.append(StructRecognizer(on_subject(x, y), pattern))
    return tuple(recs)


def move_production(blocks, x, dest):
    guards = []
    for z in blocks:
        if z != x:
            guards.append(f"!{on_subject(z, x)}")        # x is clear
        if dest != "T" and z not in (x, dest):
            guards.append(f"!{on_subject(z, dest)}")     # dest is clear
    if dest != "T":
        guards.append(f"!{on_subject(x, dest)}")         # not already there

    def effect(state: Structure) -> Structure:
        target = "t" if dest == "T" else dest.lower()
        rels = [r for r in state.relations if r.a != x.lower()]
        rels.append(Relation(x.lower(), target, "on"))
        return Structure(state.parts, state.part_types, tuple(rels), True)

    return Production(f"move-{x}-to-{dest}", ms(*guards), effect)


def block_spec(start_supports, goal_on, catalog=None, sizes=None):
    """goal_on = iterable of (x, y) pairs required in the goal state.

    The blocks are the keys of start_supports, taken in sorted order.
    """
    blocks = sorted(start_supports)
    productions = tuple(move_production(blocks, x, d)
                        for x in blocks for d in blocks + ["T"] if x != d)
    goal = ms(*[on_subject(x, y) for x, y in goal_on])
    return ProblemSpec(block_state(start_supports, catalog, sizes), goal,
                       productions,
                       recognizers=block_recognizers(blocks, catalog, sizes),
                       catalog=catalog)


def blocks_bfs_oracle(start_supports, goal_on):
    """Plain-tuple breadth-first search over the block world."""
    blocks = sorted(start_supports)
    goal_set = set(goal_on)

    def frozen(supports):
        return tuple(sorted(supports.items()))

    def clear(supports, x):
        return all(under != x for under in supports.values())

    start = frozen(start_supports)
    seen = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        supports = dict(cur)
        if all(supports[x] == y for x, y in goal_set):
            return seen[cur]
        for x in blocks:
            if not clear(supports, x):
                continue
            for dest in blocks + ["T"]:
                if dest == x or supports[x] == dest:
                    continue
                if dest != "T" and not clear(supports, dest):
                    continue
                nxt = dict(supports)
                nxt[x] = dest
                key = frozen(nxt)
                if key not in seen:
                    seen[key] = seen[cur] + 1
                    q.append(key)
    return None


def test_block_move_guard_updates_on_relations():
    spec = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")])
    succ, _ = expand(spec.start, spec)
    names = {name for name, _ in succ}
    assert "move-A-to-C" in names
    assert "move-B-to-A" not in names           # B is covered by A
    moved = dict(succ)["move-A-to-C"]
    recs = {r.subject for r in state_recognitions(moved, spec)}
    assert on_subject("A", "C") in recs and on_subject("A", "B") not in recs


def test_three_block_relocation_optimal():
    cases = [
        ({"A": "B", "B": "C", "C": "T"}, [("C", "B"), ("B", "A")]),
        ({"A": "T", "B": "T", "C": "T"}, [("A", "B"), ("B", "C")]),
        ({"A": "B", "B": "T", "C": "T"}, [("B", "C")]),
    ]
    for start, goal in cases:
        spec = block_spec(start, goal)
        result = solve(spec)
        assert result.status == "solved"
        opt = blocks_bfs_oracle(start, goal)
        assert len(result.plan) == opt
        replay(spec, result.plan)


def random_blocks(rng, names):
    """Random supports: the blocks shuffled and cut into towers."""
    order = list(names)
    rng.shuffle(order)
    supports = {}
    for i, b in enumerate(order):
        on_previous = i > 0 and rng.random() < 0.5
        supports[b] = order[i - 1] if on_previous else "T"
    return supports


@pytest.mark.parametrize("n_blocks, seed", [(4, 1), (4, 7), (4, 8),
                                            (5, 2), (5, 4)])
def test_n_block_relocation_optimal(n_blocks, seed):
    # five blocks are the most a move guard's micro-situation can hold
    rng = random.Random(seed)
    names = "ABCDE"[:n_blocks]
    start = random_blocks(rng, names)
    goal = sorted(random_blocks(rng, names).items())
    spec = block_spec(start, goal)
    result = solve(spec)
    assert result.status == "solved"
    assert len(result.plan) == blocks_bfs_oracle(start, goal)
    replay(spec, result.plan)


# --- recognition -------------------------------------------------------------------

def recognitions_by_loop(state, spec):
    """`state_recognitions` as one mask and one `embeds` per recognizer."""
    recs = []
    for rec in spec.recognizers:
        target = state if rec.mask is None else \
            apply_morphism(state, rec.mask, spec.catalog)
        if embeds(target, rec.pattern, spec.catalog):
            recs.append(Recognition(rec.subject, 1.0, 0))
    return recs


def masked_block_spec(start_supports, goal_on):
    """block_spec over sized blocks whose on() subjects see through sizes.

    Each on() recognizer names the unsized block types behind a shared
    drop-size mask; a "sized:" twin of it, unmasked, follows it.
    """
    catalog = TypeCatalog()
    sizes = {b: i + 1 for i, b in enumerate(sorted(start_supports))}
    spec = block_spec(start_supports, goal_on, catalog, sizes)
    mask = MorphismMask.make(drop_part_attrs={"size"})
    unsized = {t: t if t == "TBL" else
               catalog.intern_attr(catalog.resolve(t).label)
               for t in spec.start.part_types}
    recs = []
    for rec in spec.recognizers:
        pattern = rec.pattern.with_types(
            {p: unsized[t] for p, t in rec.pattern.types.items()})
        recs.append(StructRecognizer(rec.subject, pattern, mask))
        recs.append(StructRecognizer("sized:" + rec.subject, rec.pattern))
    return dataclasses.replace(spec, recognizers=tuple(recs))


def test_masked_recognizers_match_the_loop():
    catalog = TypeCatalog()
    small = catalog.intern_attr("blk", {"size": 1})
    state = structure({"a": small, "b": small, "t": "TBL"},
                      [("a", "b", "on"), ("b", "t", "on")], oriented=True)
    stacked = structure({"u": "blk", "v": "blk"}, [("u", "v", "on")],
                        oriented=True)
    grounded = structure({"u": "blk", "v": "TBL"}, [("u", "v", "on")],
                         oriented=True)
    mask = MorphismMask.make(drop_part_attrs={"size"})
    spec = ProblemSpec(state, ms("stacked"),
                       (Production("noop", ms("stacked"), SetEffect()),),
                       recognizers=(StructRecognizer("stacked", stacked, mask),
                                    StructRecognizer("sized", stacked),
                                    StructRecognizer("grounded", grounded,
                                                     mask)),
                       catalog=catalog)
    recs = state_recognitions(state, spec)
    assert [r.subject for r in recs] == ["stacked", "grounded"]
    assert recs == recognitions_by_loop(state, spec)


def test_recognizers_sharing_a_mask_share_its_morphism(monkeypatch):
    # two recognizers behind one mask: the state is coarsened once
    calls = []

    def counting(state, mask, catalog):
        calls.append(mask)
        return apply_morphism(state, mask, catalog)

    monkeypatch.setattr(sys.modules["structkit.solver"], "apply_morphism",
                        counting)
    catalog = TypeCatalog()
    small = catalog.intern_attr("blk", {"size": 1})
    state = structure({"a": small, "b": small, "t": "TBL"},
                      [("a", "b", "on"), ("b", "t", "on")], oriented=True)
    stacked = structure({"u": "blk", "v": "blk"}, [("u", "v", "on")],
                        oriented=True)
    grounded = structure({"u": "blk", "v": "TBL"}, [("u", "v", "on")],
                         oriented=True)
    mask = MorphismMask.make(drop_part_attrs={"size"})
    spec = ProblemSpec(state, ms("stacked"),
                       (Production("noop", ms("stacked"), SetEffect()),),
                       recognizers=(StructRecognizer("stacked", stacked, mask),
                                    StructRecognizer("grounded", grounded,
                                                     mask)),
                       catalog=catalog)
    assert [r.subject for r in state_recognitions(state, spec)] == \
        ["stacked", "grounded"]
    assert calls == [mask]


def test_recognition_follows_a_binding_made_by_a_mask():
    # "blk" is unbound until the mask coarsens blk[size=2] to it, and the
    # recognizers after the mask must see the bound key, as `embeds` does
    def spec_and_state():
        catalog = TypeCatalog()
        big = catalog.intern_attr("blk", {"size": 2})
        state = structure({"a": big, "b": "blk", "t": "TBL"},
                          [("a", "t", "on"), ("b", "t", "on")], oriented=True)
        pattern = structure({"u": "blk", "v": "TBL"}, [("u", "v", "on")],
                            oriented=True)
        mask = MorphismMask.make(drop_part_attrs={"size"})
        recognizers = (StructRecognizer("before", pattern),
                       StructRecognizer("masked", pattern, mask),
                       StructRecognizer("after", pattern))
        return ProblemSpec(state, ms("before"),
                           (Production("noop", ms("before"), SetEffect()),),
                           recognizers=recognizers, catalog=catalog), state

    spec, state = spec_and_state()
    recs = state_recognitions(state, spec)
    assert [r.subject for r in recs] == ["before", "masked", "after"]
    fresh_spec, fresh_state = spec_and_state()
    assert recs == recognitions_by_loop(fresh_state, fresh_spec)


def test_one_host_index_per_state(monkeypatch):
    # three recognizers and a pattern guard ask one state: its host index
    # is built at the first of them and read from the state after that
    built = []
    real = STRUCTURE_MODULE._host_index

    def counting(s, catalog):
        built.append(s)
        return real(s, catalog)

    monkeypatch.setattr(STRUCTURE_MODULE, "_host_index", counting)
    catalog = TypeCatalog()
    catalog.add_atomic("N")
    state = structure({"a": "N", "b": "N", "c": "M"},
                      [("a", "b", "adj"), ("b", "c", "adj")])
    pair = structure({"x": "N", "y": "N"}, [("x", "y", "adj")])
    mixed = structure({"x": "N", "y": "M"}, [("x", "y", "adj")])
    spec = ProblemSpec(state, ms("pair"),
                       (Production("guarded", mixed, lambda s: s),),
                       recognizers=(StructRecognizer("pair", pair),
                                    StructRecognizer("mixed", mixed),
                                    StructRecognizer("lone", structure(
                                        {"x": "M"}))),
                       catalog=catalog)
    recs = state_recognitions(state, spec)
    assert [r.subject for r in recs] == ["pair", "mixed", "lone"]
    assert expand(state, spec, recs=recs) == ([("guarded", state)], [])
    assert state_recognitions(state, spec) == recs
    assert len(built) == 1 and built[0] is state


# (plan, visited, cost) of each problem, all solved, as found by the search
# that called `embeds` once per recognizer; the tie-breaking must not move
_PINNED_SEARCHES = [
    ("plain", {"A": "B", "B": "C", "C": "T"}, [("C", "B"), ("B", "A")],
     (("move-A-to-T", "move-B-to-A", "move-C-to-B"), 4, 3)),
    ("plain", {"A": "T", "B": "T", "C": "T"}, [("A", "B"), ("B", "C")],
     (("move-B-to-C", "move-A-to-B"), 10, 2)),
    ("plain", {"A": "B", "B": "T", "C": "T"}, [("B", "C")],
     (("move-A-to-T", "move-B-to-C"), 6, 2)),
    ("plain", (4, 1), None,
     (("move-B-to-T", "move-C-to-B", "move-A-to-T", "move-D-to-A"), 14, 4)),
    ("plain", (4, 7), None,
     (("move-A-to-T", "move-D-to-A", "move-C-to-D"), 52, 3)),
    ("plain", (4, 8), None,
     (("move-B-to-T", "move-C-to-B", "move-A-to-D", "move-C-to-A",
       "move-B-to-C"), 63, 5)),
    ("plain", (4, 11), None,
     (("move-B-to-T", "move-A-to-B", "move-D-to-T", "move-C-to-A",
       "move-D-to-C"), 63, 5)),
    ("plain", (5, 2), None,
     (("move-A-to-T", "move-C-to-A", "move-B-to-C", "move-E-to-B"), 347, 4)),
    ("plain", (5, 4), None,
     (("move-C-to-T", "move-A-to-C", "move-E-to-T", "move-B-to-E",
       "move-D-to-B", "move-A-to-D", "move-C-to-A"), 476, 7)),
    ("plain", (5, 9), None,
     (("move-A-to-T", "move-D-to-T", "move-C-to-T", "move-B-to-D"), 115, 4)),
    ("sized", {"A": "B", "B": "T", "C": "T"}, [("A", "C")],
     (("move-A-to-C",), 1, 1)),
    ("masked", {"A": "B", "B": "T", "C": "T"}, [("A", "C"), ("C", "B")],
     (("move-A-to-T", "move-C-to-B", "move-A-to-C"), 12, 3)),
    ("masked", {"A": "T", "B": "A", "C": "B", "D": "T"},
     [("D", "C"), ("A", "B")],
     (("move-C-to-T", "move-B-to-T", "move-A-to-B", "move-D-to-C"), 49, 4)),
]


@pytest.mark.parametrize("kind, start, goal, pinned", _PINNED_SEARCHES)
def test_search_and_recognitions_unchanged(kind, start, goal, pinned):
    if goal is None:     # a seeded random problem, as the n-block test draws
        n_blocks, seed = start
        rng = random.Random(seed)
        start = random_blocks(rng, "ABCDE"[:n_blocks])
        goal = sorted(random_blocks(rng, "ABCDE"[:n_blocks]).items())
    if kind == "masked":
        spec = masked_block_spec(start, goal)
    elif kind == "sized":
        spec = block_spec(start, goal, TypeCatalog(), {b: 2 for b in start})
    else:
        spec = block_spec(start, goal)
    plan, visited, cost = pinned
    assert solve(spec) == SearchResult(plan, visited, cost, "solved")
    by_name = {p.name: p for p in spec.productions}
    state = spec.start
    for name in (None,) + plan:
        if name is not None:
            state = by_name[name].effect(state)
        assert state_recognitions(state, spec) == \
            recognitions_by_loop(state, spec)
    assert state == replay(spec, plan)


# --- solution cache ---------------------------------------------------------------

def test_cache_replays_identical_problem():
    spec = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")])
    cache = SolutionCache()
    first = solve_with_cache(spec, cache)
    assert first.status == "solved" and first.visited > 0
    again = solve_with_cache(spec, cache)
    assert again.status == "solved"
    assert again.visited == 0
    assert again.plan == first.plan


def test_cache_scaled_twin_replays_under_size_mask():
    catalog = TypeCatalog()
    mask = MorphismMask.make(drop_part_attrs={"size"})
    cache = SolutionCache(mask=mask, catalog=catalog)
    small = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")],
                       catalog=catalog, sizes={"A": 1, "B": 1, "C": 1})
    big = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")],
                     catalog=catalog, sizes={"A": 2, "B": 2, "C": 2})
    assert cache.abstract_state(small.start) == cache.abstract_state(big.start)
    first = solve_with_cache(small, cache)
    assert first.visited > 0
    twin = solve_with_cache(big, cache)
    assert twin.status == "solved" and twin.visited == 0
    replay(big, twin.plan)


def test_cache_miss_falls_back_to_search():
    cache = SolutionCache()
    spec = block_spec({"A": "T", "B": "T", "C": "T"}, [("A", "B")])
    direct = solve(spec)
    via_cache = solve_with_cache(spec, cache)
    assert via_cache == direct


def test_cache_replay_structure_error_counts_miss_and_searches_afresh(
        monkeypatch):
    spec = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")])
    cache = SolutionCache()
    assert solve_with_cache(spec, cache).status == "solved"
    entry = cache.entries[cache.key_for(spec)]

    def failing(*args):
        raise StructureError("recognition failed")

    monkeypatch.setattr(SOLVER_MODULE, "_search", failing)
    with pytest.raises(StructureError) as alone:
        solve(spec)
    with pytest.raises(StructureError) as via_cache:
        solve_with_cache(spec, cache)
    assert entry.misses == 1 and entry.hits == 0
    assert str(via_cache.value) == str(alone.value)


def test_cache_stale_entry_falls_back():
    spec = machine_spec(3, [(0, 1), (1, 2)], goal=2)
    cache = SolutionCache()
    cache.entries[cache.key_for(spec)] = CacheEntry(("e9:none",))
    result = solve_with_cache(spec, cache)
    assert result.status == "solved" and len(result.plan) == 2


def test_a_cache_miss_abstracts_its_start_once(monkeypatch):
    # the key computed on entry is the key a solved miss is stored under
    calls = []

    def counting(state, mask, catalog):
        calls.append(state)
        return apply_morphism(state, mask, catalog)

    monkeypatch.setattr(SOLVER_MODULE, "apply_morphism", counting)
    catalog = TypeCatalog()
    cache = SolutionCache(MorphismMask.make(drop_part_attrs={"size"}), catalog)
    small = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")],
                       catalog=catalog, sizes={"A": 1, "B": 1, "C": 1})
    big = block_spec({"A": "B", "B": "T", "C": "T"}, [("A", "C")],
                     catalog=catalog, sizes={"A": 2, "B": 2, "C": 2})
    assert solve_with_cache(small, cache).visited > 0
    assert len(calls) == 1 and calls[0] is small.start
    assert list(cache.entries) == [cache.key_for(small)]
    calls.clear()
    assert solve_with_cache(big, cache).visited == 0
    assert len(calls) == 1 and calls[0] is big.start


# --- recognizer tries shared across specs and catalogs -----------------------

def trie_shape(node):
    """A plan trie node and everything below it as plain nested data."""
    return (node.index, tuple(node.ends),
            {group: {step: trie_shape(child) for step, child in table.items()}
             for group, table in node.groups.items()})


def same_trie(trie, fresh):
    root, under, paths, shapes = trie
    return (trie_shape(root) == trie_shape(fresh[0])
            and (under, paths, shapes) == fresh[1:])


def only_trie(spec):
    [(mask, trie, _)] = SOLVER_MODULE._recognizer_tries(spec, spec.catalog)
    assert mask is None
    return trie


def test_equal_recognizers_in_two_catalogs_share_one_trie():
    supports = ({"A": "B", "B": "T", "C": "T"}, {"A": "T", "B": "T", "C": "T"},
                {"A": "T", "B": "C", "C": "A"})
    sizes = {"A": 1, "B": 2, "C": 1}
    one, two = (block_spec(supports[0], [("A", "C")], TypeCatalog(), sizes)
                for _ in range(2))
    assert one.catalog is not two.catalog
    shared = only_trie(one)
    assert only_trie(two) is shared
    assert same_trie(shared, _plan_trie([r.pattern for r in two.recognizers],
                                        two.catalog))
    # states of both specs, interleaved, answer as one embeds per recognizer
    for start in supports:
        for spec in (one, two):
            state = block_state(start, spec.catalog, sizes)
            assert state_recognitions(state, spec) == \
                recognitions_by_loop(state, spec)


def test_a_trie_for_an_unbound_id_is_not_reused_once_it_is_bound():
    catalog = TypeCatalog()
    state = structure({"a": "blk", "t": "TBL"}, [("a", "t", "on")],
                      oriented=True)

    def spec_of():
        pattern = structure({"u": "blk", "v": "TBL"}, [("u", "v", "on")],
                            oriented=True)
        return ProblemSpec(state, ms("grounded"),
                           (Production("noop", ms("grounded"), SetEffect()),),
                           recognizers=(StructRecognizer("grounded", pattern),),
                           catalog=catalog)

    before = spec_of()
    unbound = only_trie(before)
    assert [r.subject for r in state_recognitions(state, before)] == \
        ["grounded"]
    catalog.add_atomic("blk")
    after = spec_of()
    bound = only_trie(after)
    assert bound is not unbound
    assert same_trie(bound, _plan_trie([after.recognizers[0].pattern],
                                       catalog))
    for spec in (after, before):
        assert state_recognitions(state, spec) == \
            recognitions_by_loop(state, spec) == [Recognition("grounded", 1.0, 0)]


def test_catalogs_binding_one_id_apart_get_their_own_tries():
    # "blk" keys as the state's "X" in one catalog only
    tries, answers = [], []
    for label in ("same", "other"):
        catalog = TypeCatalog()
        catalog.add_atomic("X", "same")
        catalog.add_atomic("blk", label)
        state = structure({"a": "X", "t": "TBL"}, [("a", "t", "on")],
                          oriented=True)
        pattern = structure({"u": "blk", "v": "TBL"}, [("u", "v", "on")],
                            oriented=True)
        spec = ProblemSpec(state, ms("grounded"),
                           (Production("noop", ms("grounded"), SetEffect()),),
                           recognizers=(StructRecognizer("grounded", pattern),),
                           catalog=catalog)
        tries.append(only_trie(spec))
        recs = state_recognitions(state, spec)
        assert recs == recognitions_by_loop(state, spec)
        answers.append([r.subject for r in recs])
    assert tries[0] is not tries[1]
    assert answers == [["grounded"], []]


def test_trie_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(SOLVER_MODULE, "_TRIE_CACHE_CAP", 3)
    monkeypatch.setattr(SOLVER_MODULE, "_TRIE_CACHE", {})
    catalog = TypeCatalog()
    catalog.add_atomic("N")
    state = structure({"a": "N", "b": "M", "c": "N", "d": "N"},
                      [("a", "b", "adj"), ("b", "c", "adj"), ("c", "d", "adj")])
    patterns = [structure({"x": "N"}),
                structure({"x": "N", "y": "M"}, [("x", "y", "adj")]),
                structure({"x": "M", "y": "N", "z": "N"},
                          [("x", "y", "adj"), ("y", "z", "adj")]),
                structure({"x": "N", "y": "N"}, [("x", "y", "adj")]),
                structure({"x": "M", "y": "M"}, [("x", "y", "adj")]),
                structure({"x": "N", "y": "N", "z": "N"},
                          [("x", "y", "adj"), ("y", "z", "adj"),
                           ("z", "x", "adj")])]

    def spec_of(k):
        recognizers = tuple(
            StructRecognizer(f"r{j}", patterns[j])
            for j in (k, (k + 1) % len(patterns)))
        return ProblemSpec(state, ms("r0"),
                           (Production("noop", ms("r0"), SetEffect()),),
                           recognizers=recognizers, catalog=catalog)

    tries = []
    for _ in range(2):
        for k in range(len(patterns)):
            spec = spec_of(k)
            recs = state_recognitions(state, spec)
            assert [r.subject for r in recs] == [
                rec.subject for rec in spec.recognizers
                if occurrences_oracle(state, rec.pattern, catalog)]
            tries.append(only_trie(spec))
            # every set is new to the cache: it holds the latest three
            cached = list(SOLVER_MODULE._TRIE_CACHE.values())
            assert len(cached) == min(len(tries), 3)
            assert all(c is t for c, t in zip(cached, tries[-3:]))
