import gc
import itertools
import os
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from structkit.config import DEFAULT
from structkit.derivation import MorphismMask
from structkit.rules import (
    AssociativeRule,
    Consequent,
    MicroSituation,
    MsMember,
    Recipe,
    Recognition,
    RuleError,
    Subject,
    _EDIT_PART_CAP,
    _RECIPE_CAP,
    detect_regularity_case1,
    detect_regularity_case2,
    detect_regularity_case3,
    edit_distance,
    eval_micro_situation,
    eval_rule,
    mine_rules,
    update_legitimacy,
    verify_regularity_case4,
)
from structkit.schema import Binding, schema
from structkit.structure import (
    CanonicalBudgetError,
    SearchBudgetError,
    TypeCatalog,
    structure,
)

from loggen import (
    absence_rule_log,
    independent_noise,
    planted_implication,
    with_distractors,
)
from oracles import iso_oracle, mining_oracle, random_structure


def path(n, types=None, ids=None, label="L"):
    ids = ids or [f"p{i}" for i in range(n)]
    types = types or {p: "T" for p in ids}
    rels = [(ids[i], ids[i + 1], label) for i in range(n - 1)]
    return structure(types, rels)


# --- rule evaluation ----------------------------------------------------------

POT_RULE = AssociativeRule(
    MicroSituation((
        MsMember("A", True, 0.7, (-3, 0)),
        MsMember("B", True, 0.7, (-3, 0)),
        MsMember("C", False, 0.5, (-3, 0)),
    )),
    (Consequent("X", (1, 4)),),
    n_cond=80, n_hit=64,
)


def test_rule_fires_and_predicts_window():
    log = [Recognition("A", 0.9, 3), Recognition("B", 0.85, 4)]
    preds = eval_rule(POT_RULE, log, now=4)
    assert preds is not None
    (p,) = preds
    assert p.subject == "X"
    assert p.window == (5, 8)
    assert abs(p.confidence - 0.85 * (65 / 82)) < 1e-9


def test_negation_annihilates():
    log = [Recognition("A", 0.9, 3), Recognition("B", 0.85, 4),
           Recognition("C", 1.0, 4)]
    assert eval_rule(POT_RULE, log, now=4) is None
    assert eval_micro_situation(POT_RULE.condition, log, 4) == 0.0


def test_chained_windows_fire_in_order():
    heats = AssociativeRule(
        MicroSituation((MsMember("pot-on-fire", True, 0.6, (-1, 0)),)),
        (Consequent("water-heats", (1, 3)),), n_cond=50, n_hit=48)
    boils = AssociativeRule(
        MicroSituation((MsMember("water-heats", True, 0.6, (-1, 0)),)),
        (Consequent("water-boils", (1, 5)),), n_cond=50, n_hit=45)
    log = [Recognition("pot-on-fire", 0.95, 10)]
    (p1,) = eval_rule(heats, log, now=10)
    assert p1.subject == "water-heats" and p1.window[0] == 11
    log.append(Recognition("water-heats", 0.9, 12))
    (p2,) = eval_rule(boils, log, now=12)
    assert p2.subject == "water-boils"
    assert p2.window[0] > p1.window[0] - 1   # strictly later chain


def test_condition_monotone_in_member_scores():
    base = [Recognition("A", 0.75, 0), Recognition("B", 0.8, 0),
            Recognition("C", 0.3, 0)]
    cond = POT_RULE.condition
    s0 = eval_micro_situation(cond, base, 0)
    raised_pos = [Recognition("A", 0.95, 0)] + base[1:]
    assert eval_micro_situation(cond, raised_pos, 0) >= s0
    raised_neg = base[:2] + [Recognition("C", 0.9, 0)]
    assert eval_micro_situation(cond, raised_neg, 0) <= s0


def test_negation_window_explicit():
    m = MsMember("C", False, 0.5, (-4, -1))
    ms = MicroSituation((m,))
    assert eval_micro_situation(ms, [], 10) == 1.0
    inside = [Recognition("C", 0.8, 7)]
    outside = [Recognition("C", 0.8, 10)]     # at now, outside [-4,-1]
    assert eval_micro_situation(ms, inside, 10) == pytest.approx(0.2)
    assert eval_micro_situation(ms, outside, 10) == 1.0


def test_micro_situation_size_bounds():
    with pytest.raises(RuleError):
        MicroSituation(())
    with pytest.raises(RuleError):
        MicroSituation(tuple(MsMember(f"s{i}") for i in range(9)))


# --- mining --------------------------------------------------------------------

def find_rule(rules, pos=(), neg=(), target=None):
    for r in rules:
        got_pos = {m.subject for m in r.condition.members if m.positive}
        got_neg = {m.subject for m in r.condition.members if not m.positive}
        tgt = {c.subject for c in r.consequents}
        if got_pos == set(pos) and got_neg == set(neg) \
                and (target is None or tgt == {target}):
            return r
    return None


def test_planted_rule_recovered():
    log = planted_implication(seed=71, n_triggers=250, p=0.8, window=5)
    rules = mine_rules(log, window=5, min_support=30, min_p=0.6)
    rule = find_rule(rules, pos=("A",), target="X")
    assert rule is not None
    assert abs(rule.p - 0.8) <= 0.05


def test_always_rule_near_certain():
    log = planted_implication(seed=5, n_triggers=100, p=1.0, window=5)
    rules = mine_rules(log, window=5, min_support=30, min_p=0.9)
    rule = find_rule(rules, pos=("A",), target="X")
    assert rule is not None
    assert rule.n_hit == rule.n_cond
    assert rule.p == pytest.approx((rule.n_cond + 1) / (rule.n_cond + 2))


def test_mined_rules_freed_without_cycle_collector():
    # nothing mine_rules leaves behind may keep its rules alive, so they go
    # when the caller drops them, with no collection pass
    log = planted_implication(seed=71, n_triggers=80)
    gc.disable()
    try:
        rules = mine_rules(log, window=5, min_support=5, min_p=0.5)
        condition = weakref.ref(rules[0].condition)
        del rules
        assert condition() is None
    finally:
        gc.enable()


def test_independent_noise_yields_nothing():
    log = independent_noise(seed=2033)
    rules = mine_rules(log, window=5, min_support=30, min_p=0.7)
    assert rules == []


def test_absence_rule_mined_and_fires():
    log = absence_rule_log(seed=9)
    rules = mine_rules(log, window=4, min_support=30, min_p=0.8)
    rule = find_rule(rules, neg=("W",), target="D")
    assert rule is not None and rule.p > 0.9
    held_out = absence_rule_log(seed=77)
    wet_tick = 5
    dry_tick = 18 + 6     # inside the first dry spell
    assert eval_rule(rule, held_out, wet_tick) is None
    preds = eval_rule(rule, held_out, dry_tick)
    assert preds and preds[0].subject == "D"


def test_time_translation_invariance():
    log = planted_implication(seed=13, n_triggers=60, p=0.9, window=4)
    shifted = [Recognition(r.subject, r.score, r.t + 500) for r in log]
    a = mine_rules(log, window=4, min_support=20, min_p=0.6)
    b = mine_rules(shifted, window=4, min_support=20, min_p=0.6)
    assert a == b


def test_laplace_estimate_properties():
    rng = random.Random(42)
    true_p = 0.65
    n = 1000
    hits = sum(1 for _ in range(n) if rng.random() < true_p)
    rule = AssociativeRule(MicroSituation((MsMember("A"),)),
                           (Consequent("X"),), n_cond=n, n_hit=hits)
    assert 0.0 < rule.p < 1.0
    assert abs(rule.p - hits / n) < 0.01


def test_mine_rejects_thresholds_out_of_domain():
    # a NaN min_p fails every `p < min_p` test, so it would prune nothing
    log = [Recognition("A", 0.9, 0), Recognition("B", 0.9, 1),
           Recognition("A", 0.9, 4)]
    for bad in ({"min_p": float("nan")}, {"min_p": 2.0}, {"min_p": -0.1},
                {"min_support": -3}):
        with pytest.raises(RuleError, match="min_p|min_support"):
            mine_rules(log, **{"min_p": 0.5, "min_support": 0, **bad})
    for edge in ({"min_p": 0.0}, {"min_p": 1.0}, {"min_support": 0}):
        mine_rules(log, **{"min_p": 0.5, "min_support": 1, **edge})


def test_mined_condition_arity_capped():
    log = planted_implication(seed=3, n_triggers=80, p=1.0, window=4)
    rules = mine_rules(log, window=4, min_support=10, min_p=0.5)
    assert all(len(r.condition.members) <= 3 for r in rules)
    assert all(c.window[0] >= 1 for r in rules for c in r.consequents)


MINING_LOGS = {
    "planted": planted_implication(seed=71, n_triggers=80),
    "absence": absence_rule_log(seed=9, cycles=20, wet=4, dry=26),
    "noise": independent_noise(seed=2033, length=600),
}


def assert_mined_like_oracle(log, window, min_support, min_p, cfg=DEFAULT):
    rules = mine_rules(log, window=window, min_support=min_support,
                       min_p=min_p, cfg=cfg)
    got = [(tuple((m.subject, m.positive) for m in r.condition.members),
            r.consequents[0].subject, r.n_cond, r.n_hit) for r in rules]
    assert got == mining_oracle(log, window, min_support, min_p, cfg)
    for r in rules:
        assert r.consequents == (Consequent(r.consequents[0].subject,
                                            (1, window)),)
        assert all(m.window == (-(window - 1), 0) for m in r.condition.members)
    return rules


@pytest.mark.parametrize("kind", sorted(MINING_LOGS))
@pytest.mark.parametrize("n_distractors", [0, 8])
@pytest.mark.parametrize("window", [3, 5])
@pytest.mark.parametrize("min_support", [0, 5, 24, 25, 30])
def test_mined_rules_match_exhaustive_oracle(kind, n_distractors, window,
                                             min_support):
    log = with_distractors(n_distractors, MINING_LOGS[kind], n_distractors)
    # a subject recognized only below recognition_min_score has empty tick
    # sets: as a target its count is 0, as a positive literal it never occurs
    faint = [Recognition("Q", 0.3, r.t) for r in log[::7]]
    # at 0.7 and 0.9 the target-count bound stops the target loop early; at
    # min_support 0 every condition passes, and one that never occurs has
    # p = 1/2 for every target; on the 600-tick logs each distractor is
    # recognized at 24 ticks, one side or the other of min_support 24 and 25
    for min_p in (0.5, 0.7, 0.9):
        assert_mined_like_oracle(log, window, min_support, min_p)
    assert_mined_like_oracle(log + faint, window, min_support, 0.5)


def rule_counts(rules):
    """(members as (subject, positive), target) -> (n_cond, n_hit)"""
    return {(tuple((m.subject, m.positive) for m in r.condition.members),
             r.consequents[0].subject): (r.n_cond, r.n_hit) for r in rules}


def ticks_log(ticks):
    """A log recognizing each subject at each of its ticks, score 1."""
    return sorted((Recognition(s, 1.0, t) for s, ts in ticks.items()
                   for t in ts), key=lambda r: (r.t, r.subject))


def test_mined_rules_extend_a_prefix_below_support():
    # (A+, B+) occurs on 5 ticks, but its masks hold 10: adding C+ anchors
    # all 10, so a prefix is dropped only when its masks miss min_support
    log = [Recognition(s, 1.0, 10 * k + d) for k in range(5)
           for s, d in (("A", 0), ("B", 0), ("C", 0), ("C", 1), ("D", 2))]
    rules = assert_mined_like_oracle(log, 2, 10, 0.5)
    counts = rule_counts(rules)
    assert counts[(("A", True), ("B", True), ("C", True)), "D"] == (10, 10)


@pytest.mark.parametrize("max_condition", [0, 1, 2, 4])
def test_mined_rules_match_oracle_up_to_max_condition(max_condition):
    cfg = DEFAULT.replace(mining_max_condition=max_condition)
    log = with_distractors(8, MINING_LOGS["planted"], 8)
    rules = assert_mined_like_oracle(log, 5, 5, 0.5, cfg)
    sizes = {len(r.condition.members) for r in rules}
    assert sizes == set(range(1, max_condition + 1))


@pytest.mark.parametrize("kind", sorted(MINING_LOGS))
@pytest.mark.parametrize("max_condition", [4, 5, 8])
def test_mined_rules_match_oracle_past_depth_three(kind, max_condition):
    # with 2 distractors the planted and noise logs have 6 subjects, so a
    # rule's condition holds at most 5 (its target is not in it): depth 5
    # bounds a last member of 5, depth 8 never reaches its last level
    log = with_distractors(2, MINING_LOGS[kind], 2)
    cfg = DEFAULT.replace(mining_max_condition=max_condition)
    for min_support in (0, 5, 24):
        for min_p in (0.5, 0.7):
            assert_mined_like_oracle(log, 5, min_support, min_p, cfg)


@pytest.mark.parametrize("max_condition", [2, 3])
def test_last_member_reaches_support_through_co(max_condition):
    # (A+) and (A+, ¬B) occur at A's 3 ticks, one short of min_support 4; C
    # is in window there and adds tick 22, its one tick in A's window
    # (co = 1), so n_C + co = 4 is met exactly, and every negative last
    # member is cut.  B's window holds no tick of C, so after ¬B only A's
    # co row bounds C.
    log = ticks_log({"A": (1, 11, 21), "B": (50,), "C": (0, 10, 20, 22),
                     "X": (2, 12, 22, 23)})
    cfg = DEFAULT.replace(mining_max_condition=max_condition)
    counts = rule_counts(assert_mined_like_oracle(log, 2, 4, 0.5, cfg))
    assert counts[(("A", True), ("C", True)), "X"] == (4, 4)
    if max_condition == 3:
        assert counts[(("A", True), ("B", False), ("C", True)), "X"] == (4, 4)


@pytest.mark.parametrize("max_condition", [1, 2])
def test_anchorless_last_member_needs_its_own_ticks(max_condition):
    # with no positive literal before it, a positive last member occurs only
    # at its own ticks: B's 4 reach min_support 4, C's 3 do not
    log = ticks_log({"A": (30,), "B": (0, 10, 20, 40), "C": (5, 15, 25),
                     "X": (1, 11, 21, 41, 6, 16, 26)})
    cfg = DEFAULT.replace(mining_max_condition=max_condition)
    counts = rule_counts(assert_mined_like_oracle(log, 2, 4, 0.5, cfg))
    prefix = (("A", False),) * (max_condition - 1)
    assert counts[prefix + (("B", True),), "X"] == (4, 4)
    assert not any(("C", True) in members for members, _ in counts)


def test_last_member_after_two_positive_subjects():
    # (A+, B+) occurs at 11, 21, 31 and 41, one short of min_support 5; C is
    # in window at each and adds tick 42, its one tick in A's or B's window
    log = ticks_log({"A": (11, 21, 31, 41), "B": (11, 21, 31, 41),
                     "C": (10, 20, 30, 40, 42), "X": (12, 22, 32, 42, 43)})
    counts = rule_counts(assert_mined_like_oracle(log, 2, 5, 0.5))
    assert ((("A", True), ("B", True)), "X") not in counts
    assert counts[(("A", True), ("B", True), ("C", True)), "X"] == (5, 5)


def test_mine_window_wider_than_the_log():
    # the bitsets are built span-wide whatever the window; the rules keep
    # the window given, and count as under a window of the span.  S, seen
    # only at the first tick, is in window at the last
    log = planted_implication(seed=3, n_triggers=30, p=1.0, window=4)
    log.insert(0, Recognition("S", 1.0, log[0].t))
    span = log[-1].t - log[0].t + 1
    start = time.monotonic()
    wide = mine_rules(log, window=10**9, min_support=0, min_p=0.5)
    assert time.monotonic() - start < 5.0
    assert wide == assert_mined_like_oracle(log, 10**9, 0, 0.5)
    assert rule_counts(wide) == rule_counts(
        mine_rules(log, window=span, min_support=0, min_p=0.5))


def test_mine_tick_span_capped(monkeypatch):
    monkeypatch.setattr("structkit.rules._TICK_SPAN_CAP", 100)
    mine_rules([Recognition("A", 1.0, 7), Recognition("B", 1.0, 106)])
    with pytest.raises(RuleError, match="spans 101 ticks"):
        mine_rules([Recognition("A", 1.0, 7), Recognition("B", 1.0, 107)])


# --- subject recognizers ----------------------------------------------------------

def test_subject_recognizers_all_three_kinds():
    from structkit.pixels import Signature, SignatureAtom, PropertyAssertion
    from structkit.rules import recognize

    sig = Subject("closed-shape", Signature(
        "closed-shape", (SignatureAtom("is-closed-cycle", True),)))
    assertions = [PropertyAssertion(("structure",), "is-closed-cycle", True)]
    assert recognize(sig, assertions) == 1.0
    assert recognize(sig, []) == 0.0

    template = Subject("has-ab-edge",
                       structure({"u": "A", "v": "B"}, [("u", "v", "L")]))
    world = path(3, {"p0": "A", "p1": "B", "p2": "C"})
    assert recognize(template, world) == 1.0
    assert recognize(template, path(3)) == 0.0

    detector = schema([
        ("m1", Binding("MOVE", literal="first")),
        ("st", Binding("MEM_STORE", slot="m")),
        ("m2", Binding("MOVE", literal="last")),
        ("cp", Binding("COMPARE", slot="m")),
        ("b1", Binding("BIND", slot="r", literal="1")),
        ("e1", Binding("COPY", slot="r", fresh=True)),
    ], [("m1", "st", "next"), ("st", "m2", "next"), ("m2", "cp", "next"),
        ("cp", "b1", "then"), ("b1", "e1", "next")])
    same_ends = Subject("ends-match", detector)
    assert recognize(same_ends, path(3)) == 1.0
    assert recognize(same_ends, path(2, {"p0": "A", "p1": "B"})) == 0.0

    with pytest.raises(RuleError):
        recognize(Subject("bare"), path(2))


def test_catalog_reports_unresolved_type_ids():
    cat = TypeCatalog()
    cat.add_atomic("red")
    s = path(2, {"p0": "red", "p1": "mystery"})
    assert cat.unresolved(s) == ["mystery"]
    cat.add_atomic("mystery")
    assert cat.unresolved(s) == []


# --- legitimacy -----------------------------------------------------------------

def test_legitimacy_counts_validated_rules():
    rule = AssociativeRule(MicroSituation((MsMember("A"),)),
                           (Consequent("X"),), n_cond=40, n_hit=36)
    subjects = [Subject("A"), Subject("X"), Subject("Z")]
    validations = [(rule, True)] * 9 + [(rule, False)]
    out = update_legitimacy(subjects, validations)
    by_id = {s.id: s for s in out}
    assert by_id["A"].legitimacy == 1 and not by_id["A"].candidate_only
    assert by_id["X"].legitimacy == 1
    assert by_id["Z"].legitimacy == 0 and by_id["Z"].candidate_only


def test_refuted_rule_confers_nothing():
    rule = AssociativeRule(MicroSituation((MsMember("A"),)),
                           (Consequent("X"),), n_cond=40, n_hit=4)
    out = update_legitimacy([Subject("A")], [(rule, False)] * 10)
    assert out[0].legitimacy == 0 and out[0].candidate_only


def test_legitimacy_threshold_is_a_parameter():
    rule = AssociativeRule(MicroSituation((MsMember("A"),)),
                           (Consequent("X"),), n_cond=40, n_hit=36)
    validations = [(rule, True)] * 9 + [(rule, False)]   # smoothed p 10/12
    for threshold, legitimacy in [(0.83, 1), (0.84, 0)]:
        out = update_legitimacy([Subject("A")], validations, threshold)
        assert out[0].legitimacy == legitimacy, threshold


def test_candidate_follows_legitimacy():
    assert Subject("A").candidate_only is True
    assert Subject("A", legitimacy=2).candidate_only is False


def test_negative_polarity_subject_gains_legitimacy():
    dry_rule = AssociativeRule(
        MicroSituation((MsMember("water", False, 0.5, (-6, 0)),)),
        (Consequent("plants-dry", (1, 6)),), n_cond=50, n_hit=47)
    subjects = [Subject("water"), Subject("plants-dry")]
    out = update_legitimacy(subjects, [(dry_rule, True)] * 8)
    assert all(s.legitimacy == 1 for s in out)


# --- regularity case 1 -----------------------------------------------------------

def motif_oracle(pop, k_max):
    """Exhaustive subgraph scan + pairwise isomorphism grouping."""
    from structkit.structure import induced
    found = []
    for idx, s in enumerate(pop):
        for size in range(1, min(k_max, s.n) + 1):
            for combo in itertools.combinations(s.parts, size):
                sub = induced(s, combo)
                if size > 1:
                    seen = {combo[0]}
                    frontier = [combo[0]]
                    while frontier:
                        cur = frontier.pop()
                        for r in sub.relations:
                            for a, b in ((r.a, r.b), (r.b, r.a)):
                                if a == cur and b not in seen:
                                    seen.add(b)
                                    frontier.append(b)
                    if len(seen) != size:
                        continue
                found.append((idx, frozenset(combo), sub))
    groups = []
    for idx, combo, sub in found:
        for g in groups:
            if iso_oracle(g[0][2], sub):
                g.append((idx, combo, sub))
                break
        else:
            groups.append([(idx, combo, sub)])
    out = []
    for g in groups:
        members = {idx for idx, _, _ in g}
        if len(members) >= 2:
            out.append(sorted((idx, tuple(sorted(combo))) for idx, combo, _ in g))
    return sorted(out)


def reports_to_witness_patterns(reports):
    out = []
    for rep in reports:
        pattern = []
        for idx, occs in rep.evidence["witnesses"]:
            pattern.extend((idx, tuple(occ)) for occ in occs)
        out.append(sorted(pattern))
    return sorted(out)


def test_case1_shared_typed_path():
    a = path(4, {"p0": "A", "p1": "B", "p2": "A", "p3": "C"})
    b = path(3, {"p0": "C", "p1": "A", "p2": "B"}, ids=["p0", "p1", "p2"])
    reports = detect_regularity_case1([a, b], k_max=3)
    assert reports
    assert any(len(r.evidence["witnesses"]) == 2 for r in reports)


def test_case1_disjoint_alphabets_empty():
    a = path(3, {"p0": "A", "p1": "A", "p2": "A"})
    b = path(3, {"p0": "Z", "p1": "Z", "p2": "Z"})
    assert detect_regularity_case1([a, b], k_max=3) == []


def test_case1_structure_with_itself_reports_everything():
    s = path(3, {"p0": "A", "p1": "B", "p2": "A"})
    reports = detect_regularity_case1([s, s], k_max=3)
    # every connected motif of s occurs in both copies
    assert reports_to_witness_patterns(reports) == motif_oracle([s, s], 3)


def test_case1_matches_exhaustive_oracle_random():
    rng = random.Random(321)
    for _ in range(6):
        pop = [random_structure(rng, max_n=8) for _ in range(rng.randint(2, 6))]
        got = reports_to_witness_patterns(detect_regularity_case1(pop, k_max=3))
        assert got == motif_oracle(pop, 3)


def test_case1_cap():
    with pytest.raises(RuleError):
        detect_regularity_case1([path(2)], k_max=6)


# --- regularity case 2 -----------------------------------------------------------

def test_case2_identical_distance_zero():
    s = path(5)
    rep = detect_regularity_case2(s, s, eps=0.1)
    assert rep is not None and rep.evidence["distance"] == 0


def test_case2_single_substitution_on_eleven_elements():
    a = path(6)                                   # 6 parts + 5 relations = 11
    b = path(6, {f"p{i}": ("T" if i != 2 else "S") for i in range(6)})
    rep = detect_regularity_case2(a, b, eps=0.10)
    assert rep is not None
    assert rep.evidence["distance"] == 1
    assert any("retype" in step for step in rep.evidence["script"])


def test_case2_path_vs_complete_graph_rejected():
    a = path(5)
    rels = [(f"p{i}", f"p{j}", "L") for i in range(5) for j in range(i + 1, 5)]
    b = structure({f"p{i}": "T" for i in range(5)}, rels)
    assert detect_regularity_case2(a, b, eps=0.10) is None


def test_case2_distance_symmetric():
    rng = random.Random(8)
    for _ in range(20):
        a = random_structure(rng, max_n=5)
        b = random_structure(rng, max_n=5)
        da = edit_distance(a, b)
        db = edit_distance(b, a)
        assert (da is None) == (db is None)
        if da is not None:
            assert da[0] == db[0]
    # relabelled copies of a 9-part structure: the matcher answers before
    # the 9! bijection loop would
    a = random_structure(rng, max_n=9)
    while a.n < 9:
        a = random_structure(rng, max_n=9)
    ids = {p: f"q{k}" for k, p in enumerate(reversed(a.parts))}
    b = structure({ids[p]: t for p, t in zip(a.parts, a.part_types)},
                  [(ids[r.a], ids[r.b], r.label) for r in a.relations])
    assert edit_distance(a, b) == edit_distance(b, a) == (0, [])


def test_edit_distance_past_part_cap_raises_at_once():
    # a cycle and a cycle with a chord are not isomorphic, so past the cap
    # the bijection search must refuse (9! tries took about a minute)
    # rather than run; relabelled copies still answer through the matcher
    n = _EDIT_PART_CAP + 1
    ids = [f"p{i}" for i in range(n)]
    ring = [(ids[i], ids[(i + 1) % n], "L") for i in range(n)]
    a = structure({p: "T" for p in ids}, ring)
    b = structure({p: "T" for p in ids}, ring + [(ids[0], ids[n // 2], "L")])
    with pytest.raises(SearchBudgetError):
        edit_distance(a, b)
    with pytest.raises(SearchBudgetError):
        detect_regularity_case2(a, b, eps=0.5)
    names = {p: f"q{k}" for k, p in enumerate(reversed(ids))}
    copy = structure({names[p]: "T" for p in reversed(ids)},
                     [(names[x], names[y], lab) for x, y, lab in ring[::-1]])
    assert edit_distance(a, copy) == (0, [])


def test_case2_script_independent_of_hash_seed():
    # the script lists relation edits in sorted order of their ends, so two
    # interpreters with different string hashing print the same thing
    code = (
        "import random\n"
        "from oracles import random_structure\n"
        "from structkit.rules import edit_distance\n"
        "rng = random.Random(5)\n"
        "out = []\n"
        "while len(out) < 5:\n"
        "    a = random_structure(rng, max_n=6)\n"
        "    b = random_structure(rng, max_n=6)\n"
        "    if a.n == b.n:\n"
        "        out.append(edit_distance(a, b))\n"
        "print(out)\n")
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path,
                                "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert "adjust relation" in runs[0] or "relabel relation" in runs[0]
    assert runs[0] == runs[1]


def test_case2_eps_bounds():
    with pytest.raises(RuleError):
        detect_regularity_case2(path(2), path(2), eps=0.9)


# --- regularity case 3 -----------------------------------------------------------

def test_case3_already_isomorphic_empty_recipe():
    a = path(3)
    b = path(3, ids=["x", "y", "z"])
    reports = detect_regularity_case3([a, b])
    assert any(r.evidence["recipe"] == "identity"
               and r.evidence["members"] == [0, 1] for r in reports)


def test_case3_mask_recipe():
    a = path(3, {"p0": "A", "p1": "A", "p2": "B"})
    b = path(3, {"p0": "B", "p1": "B", "p2": "B"})
    merge = MorphismMask.make(merge_types={"A": "B"})
    reports = detect_regularity_case3([a, b], masks=[merge])
    assert any("mask 0" in r.evidence["recipe"]
               and r.evidence["members"] == [0, 1] for r in reports)
    assert not any(r.evidence["recipe"] == "identity" for r in reports)


def test_case3_quotient_rank_recipe():
    a = path(6, {f"p{i}": ("A" if i < 3 else "B") for i in range(6)})
    b = path(6, {f"p{i}": ("B" if i < 3 else "A") for i in range(6)})
    cat = TypeCatalog()
    reports = detect_regularity_case3([a, b], catalog=cat)
    assert any("quotient by canonical partition 0" == r.evidence["recipe"]
               and r.evidence["members"] == [0, 1] for r in reports)


def typed_path(types, label="L"):
    return path(len(types), dict(zip([f"p{i}" for i in range(len(types))],
                                     types)), label=label)


def test_case3_reports_on_up_to_four_masks():
    # mask 2 conflicts with mask 0, so no recipe holding both derives
    pop = [typed_path("AABB"), typed_path("BBBB"), typed_path("AACC", "M"),
           typed_path("BBCC")]
    masks = [MorphismMask.make(merge_types={"A": "B"}),
             MorphismMask.make(merge_types={"C": "B"}),
             MorphismMask.make(merge_types={"A": "C"}),
             MorphismMask.make(merge_labels={"M": "L"})]
    four = [("mask 0", [0, 1]), ("mask 1", [1, 3]), ("mask 2", [0, 3]),
            ("mask 0+1", [0, 1, 3]), ("mask 0+3", [0, 1]),
            ("mask 0+3", [2, 3]), ("mask 1+2", [1, 3]), ("mask 1+3", [0, 2]),
            ("mask 1+3", [1, 3]), ("mask 2+3", [0, 3]),
            ("mask 0+1+3", [0, 1, 2, 3]), ("mask 1+2+3", [1, 3]),
            ("mask 1+2+3", [0, 2])]
    for k in range(5):
        reports = detect_regularity_case3(pop, masks[:k], TypeCatalog())
        assert [(r.evidence["recipe"], r.evidence["members"])
                for r in reports] == [
            (recipe, members) for recipe, members in four
            if all(int(i) < k for i in recipe[5:].split("+"))]
        assert not any(r.evidence["partial"] for r in reports)


def test_case3_builds_one_recipe_past_the_cap(monkeypatch):
    # listing all 3 x 2^30 recipes first would take gigabytes
    built = []

    def counted(*args):
        built.append(Recipe(*args))
        return built[-1]

    monkeypatch.setattr("structkit.rules.Recipe", counted)
    masks = [MorphismMask.make(merge_types={f"T{i}": "U"}) for i in range(30)]
    reports = detect_regularity_case3(
        [typed_path(["T0", "T1"]), typed_path("UU")], masks)
    assert len(built) == _RECIPE_CAP + 1
    # the first 64: identity, the 30 single masks, then pairs from 0+1 on
    assert [r.evidence for r in reports] == [
        {"recipe": "mask 0+1", "members": [0, 1], "partial": True}]


def test_case3_canonical_budget_is_not_a_skipped_member(monkeypatch):
    def over_budget(*args, **kwargs):
        raise CanonicalBudgetError("canonical search exceeds node cap of 2")

    monkeypatch.setattr("structkit.rules.canonical_partitions", over_budget)
    with pytest.raises(CanonicalBudgetError):
        detect_regularity_case3([path(3), path(3, ids=["x", "y", "z"])])


# --- regularity case 4 -----------------------------------------------------------

APPEND = schema([
    ("b", Binding("BIND", slot="t", literal="T")),
    ("m", Binding("MOVE", literal="last")),
    ("c", Binding("COPY", slot="t")),
], [("b", "m", "next"), ("m", "c", "next")])


def test_case4_growing_paths_verified():
    seq = [path(n, label="adj") for n in range(2, 6)]
    assert verify_regularity_case4(seq, APPEND)


def test_case4_wrong_operator_refuted():
    noop = schema([("m", Binding("MOVE", literal="first"))])
    seq = [path(n, label="adj") for n in range(2, 6)]
    assert not verify_regularity_case4(seq, noop)


def test_case4_hidden_generator_recovered():
    from structkit.schema import execute
    append2 = schema([
        ("b", Binding("BIND", slot="t", literal="T")),
        ("m", Binding("MOVE", literal="last")),
        ("c1", Binding("COPY", slot="t")),
        ("m2", Binding("MOVE", literal="last")),
        ("c2", Binding("COPY", slot="t")),
    ], [("b", "m", "next"), ("m", "c1", "next"),
        ("c1", "m2", "next"), ("m2", "c2", "next")])
    seq = [path(2, label="adj")]
    for _ in range(3):
        seq.append(execute(append2, seq[-1]))
    assert verify_regularity_case4(seq, append2)
    assert not verify_regularity_case4(seq, APPEND)


def test_case4_needs_two():
    with pytest.raises(RuleError):
        verify_regularity_case4([path(2)], APPEND)
