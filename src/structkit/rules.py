"""Regularity detection and temporal associative rules over recognition logs.

Repetition shows up four ways: identical portions across a population, small
edit distance between two structures, coincidence after a derivation recipe,
and a common operator stepping through a sequence.  Associative rules bind a
small timed micro-situation of subject recognitions to predicted consequents
with a frequentist, Laplace-smoothed probability; mining recovers such rules
from a tick-stamped log, including purely negative conditions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .config import DEFAULT, Config
from .derivation import MorphismMask, apply_morphism, canonical_partitions, quotient
from .pixels import Signature, evaluate_signature
from .schema import Schema, execute
from .structure import (
    SearchBudgetError,
    Structure,
    StructureError,
    TypeCatalog,
    canonical_form,
    embeds,
    induced,
    isomorphic,
    _connected_subsets,
    _key_map,
    _witness,
)


class RuleError(StructureError):
    pass


# ---------------------------------------------------------------------------
# recognitions and micro-situations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recognition:
    subject: str
    score: float
    t: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise RuleError("recognition score must lie in [0, 1]")
        if self.t < 0:
            raise RuleError("ticks are non-negative")


@dataclass(frozen=True)
class MsMember:
    subject: str
    positive: bool = True
    min_score: float = 0.5
    window: tuple[int, int] = (0, 0)    # inclusive tick offsets from "now"

    def __post_init__(self):
        if self.window[0] > self.window[1]:
            raise RuleError("member window must satisfy lo <= hi")


@dataclass(frozen=True)
class MicroSituation:
    members: tuple[MsMember, ...]

    def __post_init__(self):
        if not 1 <= len(self.members) <= 8:
            raise RuleError("a micro-situation holds between 1 and 8 members")


@dataclass(frozen=True)
class Consequent:
    subject: str
    window: tuple[int, int] = (1, 1)    # strictly positive offsets if predictive

    def __post_init__(self):
        if self.window[0] > self.window[1]:
            raise RuleError("consequent window must satisfy lo <= hi")


@dataclass(frozen=True)
class AssociativeRule:
    condition: MicroSituation
    consequents: tuple[Consequent, ...]
    n_cond: int = 0
    n_hit: int = 0
    threshold: float = 0.5

    @property
    def p(self) -> float:
        return (self.n_hit + 1) / (self.n_cond + 2)


@dataclass(frozen=True)
class Prediction:
    subject: str
    window: tuple[int, int]     # absolute ticks
    confidence: float


def _member_score(m: MsMember, log: Sequence[Recognition], now: int) -> float:
    lo, hi = now + m.window[0], now + m.window[1]
    best = 0.0
    for rec in log:
        if rec.subject == m.subject and lo <= rec.t <= hi:
            best = max(best, rec.score)
    if m.positive:
        return best if best >= m.min_score else 0.0
    return 1.0 - best


def eval_micro_situation(ms: MicroSituation, log: Sequence[Recognition],
                         now: int) -> float:
    """Goedel semantics: conjunction is min, negation is 1 - best match."""
    score = 1.0
    for m in ms.members:
        score = min(score, _member_score(m, log, now))
        if score == 0.0:
            break
    return score


def eval_rule(rule: AssociativeRule, log: Sequence[Recognition],
              now: int) -> Optional[list[Prediction]]:
    """Predictions when the condition fires at `now`, else None."""
    cond = eval_micro_situation(rule.condition, log, now)
    if cond < rule.threshold:
        return None
    return [Prediction(c.subject, (now + c.window[0], now + c.window[1]),
                       cond * rule.p)
            for c in rule.consequents]


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

# one bit per tick: a log spanning more ticks is refused before any bitset of
# that width is built (each would hold span / 8 bytes)
_TICK_SPAN_CAP = 10**7


def mine_rules(log: Sequence[Recognition], window: int = 5,
               min_support: int = 10, min_p: float = 0.7,
               cfg: Config = DEFAULT) -> list[AssociativeRule]:
    """Frequent timed implications, negative literals included.

    A condition occurs at tick t when every positive literal was recognized
    inside (t-window, t] (one of them exactly at t, anchoring the match) and
    no negative literal was.  A consequent hits when it is recognized inside
    (t, t+window].  Probability is Laplace smoothed.
    """
    if not log:
        raise RuleError("cannot mine an empty log")
    if window < 1:
        raise RuleError("window must be at least one tick")
    if not 0.0 <= min_p <= 1.0:     # NaN too: it would prune nothing
        raise RuleError(f"min_p must lie in [0, 1], not {min_p}")
    if min_support < 0:
        raise RuleError(f"min_support must be at least 0, not {min_support}")
    t0 = min(r.t for r in log)
    t1 = max(r.t for r in log)
    span = t1 - t0 + 1
    if span > _TICK_SPAN_CAP:
        raise RuleError(f"log spans {span} ticks, more than the cap of "
                        f"{_TICK_SPAN_CAP}")
    subjects = sorted({r.subject for r in log})

    # vertical layout: one int bitset per subject, bit i standing for tick
    # t0+i; a window wider than the span sets no more bits than the span
    every = (1 << span) - 1
    run = (1 << min(window, span)) - 1
    at = dict.fromkeys(subjects, 0)
    in_window = dict.fromkeys(subjects, 0)
    future = dict.fromkeys(subjects, 0)
    for r in log:
        if r.score < cfg.recognition_min_score:
            continue
        i = r.t - t0
        at[r.subject] |= 1 << i
        in_window[r.subject] |= run << i & every
        future[r.subject] |= (1 << i) - (1 << max(i - window, 0))

    # two literals (member, subject bit, mask, anchor) per subject, in subject
    # order, the positive at an even index; targets (count, subject, future,
    # subject bit, consequents) by count, most first: stop at the first that
    # cannot reach min_p.  Rules share the member and consequent objects of
    # their literals and target.
    lookback = (-(window - 1), 0)
    literals = [lit for b, s in enumerate(subjects) for lit in (
        (MsMember(s, True, cfg.recognition_min_score, lookback), 1 << b,
         in_window[s], at[s]),
        (MsMember(s, False, cfg.recognition_min_score, lookback), 1 << b,
         every & ~in_window[s], 0))]
    targets = sorted([(future[s].bit_count(), s, future[s], 1 << b,
                       (Consequent(s, (1, window)),))
                      for b, s in enumerate(subjects)])[::-1]
    # the positive literals ranked by |at|, and per subject p the positive
    # literals of later subjects c ranked by co[p][c] = |in_window[p] & at[c]|:
    # each most first, as (negated counts, literal indices) for bisect
    def ranked(pairs):
        pairs = sorted(pairs, reverse=True)
        return [-n for n, _ in pairs], [i for _, i in pairs]
    by_at = ranked((at[s].bit_count(), 2 * c) for c, s in enumerate(subjects))
    co_rows = [ranked(((in_window[p] & at[s]).bit_count(), 2 * c)
                      for c, s in enumerate(subjects[b + 1:], b + 1))
               for b, p in enumerate(subjects)]
    depth = cfg.mining_max_condition
    found: list[tuple] = []

    def emit(cond, bits, occur, n_cond):
        """Keep a rule for each target outside the condition that follows
        its n_cond occurrences with p >= min_p."""
        situation = None
        for most, target, fut, tbit, consequents in targets:
            if (most + 1) / (n_cond + 2) < min_p:
                break
            if tbit & bits:         # the target is in the condition
                continue
            n_hit = (occur & fut).bit_count()
            p = (n_hit + 1) / (n_cond + 2)
            if p < min_p:
                continue
            if situation is None:
                situation = MicroSituation(cond)
                key = tuple((m.subject, m.positive) for m in cond)
            found.append(((-p, -n_cond, key, target), AssociativeRule(
                situation, consequents, n_cond=n_cond, n_hit=n_hit,
                threshold=cfg.rule_threshold)))

    def grow(first, masks, anchors, bits, prefix, n_prefix, row):
        """Extend `prefix` by each literal of a later subject, at the last
        level only by those a bound lets through.  No anchor means no
        positive literal or an empty mask, and the AND of the masks bounds
        the n_cond of every extension.  `row` is the co row of a positive
        subject p of the prefix, by_at when it has none.

        A last member has no extensions, so a bound on its own n_cond
        bounds its subtree.  With p, the masks lie inside in_window[p]: a
        positive member on c adds at most co[p][c] ticks of at[c] to
        n_prefix, a negative member none.  Without p, n_prefix is 0, a
        positive member occurs only at its own ticks, and each negative
        member is tried."""
        if len(prefix) + 1 == depth:
            ranks, order = row
            need = min_support - n_prefix
            live = [i for i in order[:bisect_right(ranks, -need)] if i >= first]
            if need <= 0 or not anchors:
                live += range(first + 1, len(literals), 2)
        else:
            live = range(first, len(literals))
        for i in live:
            member, bit, mask, anchor = literals[i]
            cond = prefix + (member,)
            masks_i, anchors_i = masks & mask, anchors | anchor
            bits_i = bits | bit
            occur = masks_i & anchors_i if anchors_i else masks_i
            n_cond = occur.bit_count()
            if n_cond >= min_support:
                emit(cond, bits_i, occur, n_cond)
            if len(cond) < depth and (n_cond >= min_support
                                      or masks_i.bit_count() >= min_support):
                grow(i + 2 - i % 2, masks_i, anchors_i, bits_i, cond,
                     n_cond if anchors_i else 0,
                     row if i % 2 else co_rows[i // 2])

    if depth:
        grow(0, every, 0, 0, (), 0, by_at)
    # grow's cell refers to grow itself, a cycle holding `found` until the
    # cyclic collector runs; emptying the cell frees the rules with the list
    del grow
    found.sort(key=lambda kv: kv[0])
    return [rule for _, rule in found]


# ---------------------------------------------------------------------------
# subjects and legitimacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subject:
    """A recognizable information unit; legitimate once rules depend on it."""
    id: str
    recognizer: object = None     # Signature, Structure or Schema
    legitimacy: int = 0

    @property
    def candidate_only(self) -> bool:
        return self.legitimacy == 0


def recognize(subject: Subject, observation) -> float:
    """Converge the subject's checks into a single score.

    Signature recognizers score an assertion list; template recognizers
    score 1.0 when the pattern occurs in the observed structure; schema
    detectors run on the structure and report 1.0 when the output carries a
    part typed "1".
    """
    rec = subject.recognizer
    if rec is None:
        raise RuleError(f"subject {subject.id} carries no recognizer")
    if isinstance(rec, Signature):
        return evaluate_signature(rec, observation)[0]
    if isinstance(rec, Schema):
        out = execute(rec, observation)
        return 1.0 if "1" in out.part_types else 0.0
    if isinstance(rec, Structure):
        return 1.0 if embeds(observation, rec) else 0.0
    raise RuleError(f"subject {subject.id} has an unsupported recognizer")


def rule_subjects(rule: AssociativeRule) -> set[str]:
    out = {m.subject for m in rule.condition.members}
    out |= {c.subject for c in rule.consequents}
    return out


def update_legitimacy(subjects: Sequence[Subject],
                      validations: Sequence[tuple[AssociativeRule, bool]],
                      threshold: float = 0.7) -> list[Subject]:
    """Count, per subject, the validated rules that reference it.

    A rule counts as validated when its Laplace-smoothed hit rate over the
    supplied outcomes reaches `threshold`.  Subjects left at zero stay
    flagged as candidates: their emergence is not established.
    """
    tallies: dict[int, list[int]] = {}
    order: dict[int, AssociativeRule] = {}
    for rule, outcome in validations:
        key = id(rule)
        order[key] = rule
        hits, n = tallies.get(key, [0, 0])
        tallies[key] = [hits + (1 if outcome else 0), n + 1]
    validated: list[AssociativeRule] = []
    for key, (hits, n) in tallies.items():
        if (hits + 1) / (n + 2) >= threshold:
            validated.append(order[key])
    out = []
    for subj in subjects:
        count = sum(1 for rule in validated if subj.id in rule_subjects(rule))
        out.append(replace(subj, legitimacy=count))
    return out


# ---------------------------------------------------------------------------
# regularity detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    case: str
    evidence: dict


# case 1 canonicalises every connected subset of up to k_max parts
_MOTIF_SIZE_CAP = 5


def detect_regularity_case1(pop: Sequence[Structure], k_max: int = 3
                            ) -> list[RegularityReport]:
    """Connected motifs of up to k_max parts occurring in >= 2 members."""
    if k_max > _MOTIF_SIZE_CAP:
        raise RuleError(f"k_max exceeds the motif cap of {_MOTIF_SIZE_CAP}")
    hits: dict[tuple, dict[int, list[tuple[str, ...]]]] = {}
    for idx, s in enumerate(pop):
        for size in range(1, min(k_max, s.n) + 1):
            for members in _connected_subsets(s, size):
                sub = induced(s, members)
                key = canonical_form(sub)
                hits.setdefault(key, {}).setdefault(idx, []).append(
                    tuple(sorted(members)))
    reports = []
    for key in sorted(hits):
        witnesses = hits[key]
        if len(witnesses) < 2:
            continue
        reports.append(RegularityReport("identical-portions", {
            "motif": key,
            "witnesses": [(idx, sorted(witnesses[idx]))
                          for idx in sorted(witnesses)],
        }))
    return reports


# edit_distance tries all n! bijections once the isomorphism shortcut fails:
# 8 parts are 40,320 of them (a few seconds), 9 parts nine times as many
_EDIT_PART_CAP = 8


def _element_count(s: Structure) -> int:
    return s.n + len(s.relations) + sum(len(r.attrs) for r in s.relations)


def edit_distance(a: Structure, b: Structure
                  ) -> Optional[tuple[int, list[str]]]:
    """Exact minimal edit script over part-type substitutions and relation
    insert/delete/relabel: empty when the matcher finds an isomorphism,
    otherwise found by search over all part bijections.

    None when the part counts differ (parts are never added or removed).
    Raises SearchBudgetError when that search would range over more than
    `_EDIT_PART_CAP` parts."""
    if a.n != b.n or a.oriented != b.oriented:
        return None
    keys_a = _key_map(a, None)
    keys_b = _key_map(b, None)
    if _witness(a, b, keys_a, keys_b) is not None:
        return (0, [])
    if a.n > _EDIT_PART_CAP:
        raise SearchBudgetError(
            f"edit distance search exceeds part cap of {_EDIT_PART_CAP}")
    pair_b: dict[tuple, Counter] = {}
    for r in b.relations:
        pair_b.setdefault(r.ends(b.oriented), Counter())[r.label, r.attrs] += 1
    best: Optional[tuple[int, list[str]]] = None
    for perm in itertools.permutations(b.parts):
        mapping = dict(zip(a.parts, perm))
        cost = 0
        script = []
        for p in a.parts:
            if keys_a[p] != keys_b[mapping[p]]:
                cost += 1
                script.append(f"retype {p} -> type of {mapping[p]}")
        pair_a: dict[tuple, Counter] = {}
        for r in a.relations:
            ends = (mapping[r.a], mapping[r.b])
            if not a.oriented:
                ends = tuple(sorted(ends))
            pair_a.setdefault(ends, Counter())[r.label, r.attrs] += 1
        for ends in sorted(pair_a.keys() | pair_b.keys()):
            tags_a = pair_a.get(ends, Counter())
            tags_b = pair_b.get(ends, Counter())
            shared = (tags_a & tags_b).total()
            unmatched_a = tags_a.total() - shared
            unmatched_b = tags_b.total() - shared
            relabels = min(unmatched_a, unmatched_b)
            cost += relabels + abs(unmatched_a - unmatched_b)
            for _ in range(relabels):
                script.append(f"relabel relation {ends}")
            for _ in range(abs(unmatched_a - unmatched_b)):
                script.append(f"adjust relation {ends}")
        if best is None or cost < best[0]:
            best = (cost, script)
            if cost == 0:
                break
    return best


def detect_regularity_case2(a: Structure, b: Structure, eps: float = 0.10
                            ) -> Optional[RegularityReport]:
    """Near-identity: the minimal edit stays under the eps fraction."""
    if not 0 < eps <= 0.5:
        raise RuleError("eps must lie in (0, 0.5]")
    found = edit_distance(a, b)
    if found is None:
        return None
    cost, script = found
    budget = eps * max(_element_count(a), _element_count(b))
    if cost > budget:
        return None
    return RegularityReport("near-identical", {
        "distance": cost, "budget": budget, "script": script})


@dataclass(frozen=True)
class Recipe:
    partition_rank: Optional[int]
    mask_indices: tuple[int, ...]

    def describe(self) -> str:
        steps = []
        if self.partition_rank is not None:
            steps.append(f"quotient by canonical partition {self.partition_rank}")
        if self.mask_indices:
            steps.append("mask " + "+".join(str(i) for i in self.mask_indices))
        return "; ".join(steps) if steps else "identity"


# case 3 tries 3 quotient ranks x 2^len(masks) recipes: 4 masks in full
_RECIPE_CAP = 64


def detect_regularity_case3(pop: Sequence[Structure],
                            masks: Sequence[MorphismMask] = (),
                            catalog: Optional[TypeCatalog] = None
                            ) -> list[RegularityReport]:
    """Derivation recipes (quotient rank x mask subset) that make members
    coincide.  The search space is capped; overflow flags partial results."""
    catalog = catalog if catalog is not None else TypeCatalog()
    # built lazily: one recipe past the cap shows the results are partial
    recipes = list(itertools.islice(
        (Recipe(rank, subset) for rank in (None, 0, 1)
         for k in range(len(masks) + 1)
         for subset in itertools.combinations(range(len(masks)), k)),
        _RECIPE_CAP + 1))
    partial = len(recipes) > _RECIPE_CAP
    del recipes[_RECIPE_CAP:]

    reports = []
    for recipe in recipes:
        mask = MorphismMask.make()
        try:
            for i in recipe.mask_indices:
                mask = mask.union(masks[i])
        except StructureError:      # the masks conflict: no member derives
            continue
        forms: dict[tuple, list[int]] = {}
        for idx, s in enumerate(pop):
            derived = s
            try:
                if recipe.partition_rank is not None:
                    parts = canonical_partitions(derived, catalog)
                    if recipe.partition_rank >= len(parts):
                        continue
                    derived = quotient(derived, parts[recipe.partition_rank],
                                       catalog)
                if not mask.is_empty():
                    derived = apply_morphism(derived, mask, catalog)
            except SearchBudgetError:
                raise
            except StructureError:
                continue
            forms.setdefault(canonical_form(derived, catalog), []).append(idx)
        for key in sorted(forms):
            members = forms[key]
            if len(members) >= 2:
                reports.append(RegularityReport("derived-coincidence", {
                    "recipe": recipe.describe(),
                    "members": members,
                    "partial": partial,
                }))
    return reports


def verify_regularity_case4(seq: Sequence[Structure], op: Schema) -> bool:
    """True when the operator maps each element onto the next, up to
    isomorphism.  Discovery is out of scope; only verification is offered."""
    if len(seq) < 2:
        raise RuleError("need at least two structures to verify an operator")
    for cur, nxt in zip(seq, seq[1:]):
        out = execute(op, cur)
        if isomorphic(out, nxt) is None:
            return False
    return True
