"""Production-system problem solving over structure or recognition states.

A problem is a start state, a goal expressed as a micro-situation over
subject recognitions, and a set of productions (guard plus effect).  Search
is best-first on cost plus heuristic; with the zero heuristic it degenerates
to uniform-cost and returns minimum-length plans.  Undesired micro-situations
are hard constraints.  Solved problems feed a cache keyed by a
morphism-abstracted (start, goal) pair, replayed by guard re-grounding.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .config import DEFAULT, Config
from .derivation import MorphismMask, apply_morphism
from .rules import MicroSituation, Recognition, eval_micro_situation
from .schema import OutOfFuel, Schema, execute
from .structure import (
    SearchBudgetError,
    Structure,
    StructureError,
    TypeCatalog,
    _cached,
    _plan_trie,
    _search,
    canonical_form,
    embeds,
)


class SolverError(StructureError):
    pass


@dataclass(frozen=True)
class RecognitionState:
    """Atemporal state given directly by subject recognitions."""
    recognitions: tuple[tuple[str, float], ...]

    @classmethod
    def of(cls, items) -> "RecognitionState":
        if isinstance(items, dict):
            items = items.items()
        return cls(tuple(sorted((str(s), float(v)) for s, v in items)))

    def scores(self) -> dict[str, float]:
        return dict(self.recognitions)


State = Union[Structure, RecognitionState]


@dataclass(frozen=True)
class StructRecognizer:
    """Subject fires (score 1) when the pattern occurs inside the state."""
    subject: str
    pattern: Structure
    mask: Optional[MorphismMask] = None


@dataclass(frozen=True)
class SetEffect:
    add: tuple[tuple[str, float], ...] = ()
    remove: tuple[str, ...] = ()


@dataclass(frozen=True)
class Production:
    name: str
    guard: Union[MicroSituation, Structure]   # micro-situation or pattern
    effect: object                            # Schema, SetEffect or callable


@dataclass(frozen=True)
class ProblemSpec:
    start: State
    goal: MicroSituation
    productions: tuple[Production, ...]
    recognizers: tuple[StructRecognizer, ...] = ()
    heuristic: Optional[Callable[[State], float]] = None
    undesired: tuple[MicroSituation, ...] = ()
    catalog: Optional[TypeCatalog] = None

    def __post_init__(self):
        if not self.productions:
            raise SolverError("a problem needs at least one production")


@dataclass(frozen=True)
class SearchResult:
    plan: tuple[str, ...]
    visited: int
    cost: int
    status: str          # solved | unsolvable | budget-exhausted


# ---------------------------------------------------------------------------
# state inspection
# ---------------------------------------------------------------------------

# recognizer plan tries kept for the whole process (`_recognizer_tries`);
# past this many entries the oldest is evicted
_TRIE_CACHE_CAP = 128
_TRIE_CACHE: dict[tuple, tuple] = {}


def _recognizer_tries(spec: ProblemSpec, catalog: Optional[TypeCatalog]
                      ) -> list[tuple]:
    """Per distinct mask (None for none), in order of first use: the mask,
    the plan trie of its recognizers' patterns and their positions among
    the recognizers.  `state_recognitions` caches it on the spec with
    `_cached`.

    Behind that, one process-wide cache (`_TRIE_CACHE`, at most
    `_TRIE_CACHE_CAP` tries, the oldest evicted first) serves every spec
    and catalog.  A trie's key is, per pattern, its parts, the type key of
    each part in part order, its relations and its orientation: all that
    `_plan_trie` reads.  A bound type key never changes and an unbound id
    keys as `("o", id)`, so equal keys give the trie a fresh compile would
    build, in any catalog.  `_search` never mutates a trie, so specs share
    it.
    """
    type_key = catalog.type_key if catalog is not None else \
        (lambda t: ("o", t))
    members: dict = {}
    for i, rec in enumerate(spec.recognizers):
        members.setdefault(rec.mask, []).append(i)
    tries = []
    for mask, idx in members.items():
        patterns = [spec.recognizers[i].pattern for i in idx]
        key = tuple((b.parts, tuple(map(type_key, b.part_types)),
                     b.relations, b.oriented) for b in patterns)
        trie = _TRIE_CACHE.get(key)
        if trie is None:
            trie = _plan_trie(patterns, catalog)
            if len(_TRIE_CACHE) >= _TRIE_CACHE_CAP:
                del _TRIE_CACHE[next(iter(_TRIE_CACHE))]
            _TRIE_CACHE[key] = trie
        tries.append((mask, trie, idx))
    return tries


def state_recognitions(state: State, spec: ProblemSpec) -> list[Recognition]:
    """The recognizers that fire on the state, in recognizer order.

    A masked recognizer tests its pattern on the state under its mask.
    Each distinct mask is applied once, in order of first use; then one
    search (`_search`) per distinct mask runs all of its recognizers.  A
    mask binds only types of fresh keys (`intern_attr`, `intern_struct`),
    which match no other type, so a recognizer fires as it would if tested
    before the masks after it had run.
    """
    if isinstance(state, RecognitionState):
        return [Recognition(s, v, 0) for s, v in state.recognitions]
    catalog = spec.catalog
    targets: dict = {None: state}
    for rec in spec.recognizers:
        if rec.mask not in targets:
            targets[rec.mask] = apply_morphism(state, rec.mask, catalog)
    fired = [False] * len(spec.recognizers)
    for mask, trie, idx in _cached(spec, catalog, _recognizer_tries):
        hits = _search(targets[mask], trie, catalog, lambda j, images: True)
        for i, hit in zip(idx, hits):
            fired[i] = hit
    return [Recognition(rec.subject, 1.0, 0)
            for rec, hit in zip(spec.recognizers, fired) if hit]


def _fires(ms, recs: list[Recognition], cfg: Config) -> bool:
    return eval_micro_situation(ms, recs, 0) >= cfg.rule_threshold


def goal_satisfied(state: State, goal: MicroSituation, spec: ProblemSpec,
                   cfg: Config = DEFAULT) -> bool:
    """Abstract goals match every concrete state carrying the subjects."""
    return _fires(goal, state_recognitions(state, spec), cfg)


def _guard_holds(state: State, prod: Production, spec: ProblemSpec,
                 recs: Optional[list[Recognition]], cfg: Config) -> bool:
    if isinstance(prod.guard, MicroSituation):
        return _fires(prod.guard, recs, cfg)
    if isinstance(prod.guard, Structure):
        if not isinstance(state, Structure):
            return False
        return embeds(state, prod.guard, spec.catalog)
    raise SolverError(f"unsupported guard on production {prod.name}")


def _apply_effect(state: State, prod: Production, cfg: Config) -> State:
    eff = prod.effect
    if isinstance(eff, Schema):
        if not isinstance(state, Structure):
            raise SolverError(f"schema effect of {prod.name} needs a "
                              "structure state")
        return execute(eff, state, cfg=cfg)
    if isinstance(eff, SetEffect):
        if not isinstance(state, RecognitionState):
            raise SolverError(f"set effect of {prod.name} needs a "
                              "recognition state")
        scores = state.scores()
        for s in eff.remove:
            scores.pop(s, None)
        for s, v in eff.add:
            scores[s] = v
        return RecognitionState.of(scores)
    if callable(eff):
        return eff(state)
    raise SolverError(f"unsupported effect on production {prod.name}")


def expand(state: State, spec: ProblemSpec, cfg: Config = DEFAULT,
           recs: Optional[list[Recognition]] = None
           ) -> tuple[list[tuple[str, State]], list[tuple[str, str]]]:
    """Successors for every production whose guard holds.

    Recognitions not passed in are computed once, for the first
    micro-situation guard.  A guard or effect failure (out of fuel included)
    poisons only its own production; the others go through.  A canonical or
    embedding search over its node cap is not a property of one production:
    it propagates.
    """
    successors = []
    errors = []
    for prod in spec.productions:
        try:
            if recs is None and isinstance(prod.guard, MicroSituation):
                recs = state_recognitions(state, spec)
            if not _guard_holds(state, prod, spec, recs, cfg):
                continue
            successors.append((prod.name, _apply_effect(state, prod, cfg)))
        except SearchBudgetError:
            raise
        except (StructureError, OutOfFuel) as exc:
            errors.append((prod.name, str(exc)))
    return successors, errors


def _state_key(state: State, spec: ProblemSpec) -> tuple:
    if isinstance(state, RecognitionState):
        return ("rec", state.recognitions)
    return ("struct", canonical_form(state, spec.catalog))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# states one search may expand unless the caller passes another budget
_SOLVE_BUDGET = 100_000


def solve(spec: ProblemSpec, budget: int = _SOLVE_BUDGET,
          cfg: Config = DEFAULT) -> SearchResult:
    """Best-first search; zero heuristic means uniform cost and minimal plans.

    Heuristics may cost optimality, never validity: any returned plan
    replays from the start to a goal state.  Deterministic tie-breaking by
    insertion order.
    """
    if budget <= 0:
        raise SolverError("budget must be positive")
    h = spec.heuristic or (lambda state: 0.0)
    counter = itertools.count()
    start_key = _state_key(spec.start, spec)
    heap = [(h(spec.start), next(counter), start_key, spec.start, ())]
    best_cost = {start_key: 0}
    expanded = 0
    while heap:
        _, _, key, state, plan = heapq.heappop(heap)
        if best_cost[key] < len(plan):
            continue
        recs = state_recognitions(state, spec)
        if any(_fires(ms, recs, cfg) for ms in spec.undesired):
            continue    # every path to this key is undesired too
        if _fires(spec.goal, recs, cfg):
            return SearchResult(tuple(plan), expanded, len(plan), "solved")
        if expanded >= budget:
            return SearchResult((), expanded, len(plan), "budget-exhausted")
        expanded += 1
        successors, _errors = expand(state, spec, cfg, recs)
        cost = len(plan) + 1
        for name, succ in successors:
            skey = _state_key(succ, spec)
            if best_cost.get(skey, cost + 1) <= cost:
                continue
            best_cost[skey] = cost
            heapq.heappush(heap, (cost + h(succ), next(counter), skey, succ,
                                  plan + (name,)))
    return SearchResult((), expanded, 0, "unsolvable")


def replay(spec: ProblemSpec, plan: Sequence[str],
           cfg: Config = DEFAULT) -> State:
    """Walk the plan from the start, enforcing guards; returns the end state."""
    by_name = {p.name: p for p in spec.productions}
    state = spec.start
    recs = state_recognitions(state, spec)
    for name in plan:
        prod = by_name.get(name)
        if prod is None:
            raise SolverError(f"plan names unknown production {name}")
        if not _guard_holds(state, prod, spec, recs, cfg):
            raise SolverError(f"guard of {name} does not hold during replay")
        state = _apply_effect(state, prod, cfg)
        recs = state_recognitions(state, spec)
        if any(_fires(ms, recs, cfg) for ms in spec.undesired):
            raise SolverError(f"replay entered an undesired state after {name}")
    if not _fires(spec.goal, recs, cfg):
        raise SolverError("replay did not reach a goal state")
    return state


# ---------------------------------------------------------------------------
# solution cache
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    plan: tuple[str, ...]
    hits: int = 0
    misses: int = 0


class SolutionCache:
    """Ready-made plans keyed by the abstracted (start, goal) pair.

    Abstraction reuses the derivation machinery: structure starts are pushed
    through a morphism mask before canonicalization, so any instance that
    coincides under the mask shares the entry.
    """

    def __init__(self, mask: Optional[MorphismMask] = None,
                 catalog: Optional[TypeCatalog] = None):
        self.mask = mask
        self.catalog = catalog if catalog is not None else TypeCatalog()
        self.entries: dict[tuple[tuple, tuple], CacheEntry] = {}

    def abstract_state(self, state: State) -> tuple:
        if isinstance(state, RecognitionState):
            return ("rec", tuple(s for s, _ in state.recognitions))
        target = state
        if self.mask is not None:
            target = apply_morphism(state, self.mask, self.catalog)
        return ("struct", canonical_form(target, self.catalog))

    @staticmethod
    def abstract_goal(goal: MicroSituation) -> tuple:
        return tuple(sorted((m.positive, m.subject) for m in goal.members))

    def key_for(self, spec: ProblemSpec) -> tuple[tuple, tuple]:
        return (self.abstract_state(spec.start), self.abstract_goal(spec.goal))


def solve_with_cache(spec: ProblemSpec, cache: SolutionCache,
                     budget: int = _SOLVE_BUDGET) -> SearchResult:
    """Replay a cached skeleton when the abstracted problem is known.

    Replay re-grounds each step through the production guards; zero nodes are
    expanded on success.  Any failure but a SearchBudgetError falls back to
    a fresh search, and the outcome statistics update either way.
    """
    key = cache.key_for(spec)
    entry = cache.entries.get(key)
    if entry is not None:
        try:
            replay(spec, entry.plan)
        except SearchBudgetError:
            raise
        except (StructureError, OutOfFuel):   # SolverError is a StructureError
            entry.misses += 1
        else:
            entry.hits += 1
            return SearchResult(entry.plan, 0, len(entry.plan), "solved")
    result = solve(spec, budget)
    if result.status == "solved":
        if entry is None:
            cache.entries[key] = CacheEntry(result.plan)
        else:
            entry.plan = result.plan
    return result
