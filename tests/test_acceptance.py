"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import random
import time
from collections import defaultdict

from structkit.cli import main as cli_main
from structkit.corpus import (
    _BASE_SHAPES,
    class_signatures,
    expected_subjects,
    generate_corpus,
    rasterize_polygon,
)
from structkit.derivation import MorphismMask, apply_morphism
from structkit.pixels import evaluate_signature, polygon_quotient
from structkit.rules import eval_rule, mine_rules
from structkit.schema import compile_to_nand
from structkit.solver import (
    SolutionCache,
    replay,
    solve,
    solve_with_cache,
)
from structkit.structure import (
    TypeCatalog,
    compose,
    convolution,
    isomorphic,
    morphism_number,
)

from loggen import absence_rule_log, independent_noise, planted_implication
from oracles import iso_oracle, random_structure, relabeled_copy
from test_solver import bfs_oracle, block_spec, machine_spec

# the masks that forget a polygon's side lengths and its angles
SUPPRESS_LENGTH = MorphismMask.make(drop_part_attrs={"length-bin"})
SUPPRESS_ANGLES = MorphismMask.make(drop_part_attrs={"orientation-bin"},
                                    drop_rel_attrs={"angle-bin"})


def verdict(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n}: {status}  {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -------------------------------------------------------------------------
# 1. isomorphism agrees with the all-permutations oracle, under 10 seconds
# -------------------------------------------------------------------------

def test_criterion_1_iso_oracle_equivalence():
    rng = random.Random(880)
    pool = [random_structure(rng, max_n=8, n_types=3, n_labels=2)
            for _ in range(500)]
    pairs = []
    for _ in range(100):
        i, j = rng.randrange(500), rng.randrange(500)
        pairs.append((pool[i], pool[j]))
    for _ in range(100):
        s = pool[rng.randrange(500)]
        pairs.append((s, relabeled_copy(rng, s)))
    t0 = time.monotonic()
    disagreements = 0
    for a, b in pairs:
        got = isomorphic(a, b) is not None
        want = iso_oracle(a, b)
        if got != want:
            disagreements += 1
    elapsed = time.monotonic() - t0
    verdict(1, disagreements == 0 and elapsed < 10.0,
            f"200 pairs, {disagreements} disagreements, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 2. two triangle kinds: distinct, distinct after quotient, equal after the
#    length+angle suppressing morphism (exact)
# -------------------------------------------------------------------------

def test_criterion_2_triangle_morphism_reproduction():
    cat = TypeCatalog()
    eq_raster = rasterize_polygon(_BASE_SHAPES[("triangle", "regular")], 0, 1.6)
    rt_raster = rasterize_polygon(_BASE_SHAPES[("triangle", "irregular")], 0, 1.3)
    base_distinct = isomorphic(eq_raster.to_structure(),
                               rt_raster.to_structure()) is None
    q_eq = polygon_quotient(eq_raster, cat)
    q_rt = polygon_quotient(rt_raster, cat)
    clean = not q_eq.problems and not q_rt.problems
    quot_distinct = isomorphic(q_eq.quotient, q_rt.quotient, cat) is None
    mask = SUPPRESS_LENGTH.union(SUPPRESS_ANGLES)
    m_eq = apply_morphism(q_eq.quotient, mask, cat)
    m_rt = apply_morphism(q_rt.quotient, mask, cat)
    coincide = isomorphic(m_eq, m_rt, cat) is not None
    verdict(2, base_distinct and clean and quot_distinct and coincide,
            f"base!={base_distinct} quotient!={quot_distinct} "
            f"suppressed=={coincide}")


# -------------------------------------------------------------------------
# 3. the 60-raster corpus: signatures fire 60/60; fired sets identical
#    across the three scales of each figure
# -------------------------------------------------------------------------

def test_criterion_3_polygon_corpus():
    items = generate_corpus()
    sigs = class_signatures()
    correct = 0
    families = defaultdict(set)
    for item in items:
        pa = polygon_quotient(item.raster, TypeCatalog())
        fired = frozenset(s.subject for s in sigs
                          if evaluate_signature(s, pa.assertions)[1])
        if fired == expected_subjects(item) and not pa.problems:
            correct += 1
        families[(item.kind, item.variant, item.rotation)].add(fired)
    scale_consistent = all(len(v) == 1 for v in families.values())
    verdict(3, correct == 60 and len(items) == 60 and scale_consistent,
            f"{correct}/60 correct, scale-consistent={scale_consistent}")


# -------------------------------------------------------------------------
# 4. part-count homomorphisms of composition and convolution
# -------------------------------------------------------------------------

def test_criterion_4_structural_arithmetic():
    rng = random.Random(4444)
    ok = 0
    for _ in range(100):
        a = random_structure(rng, max_n=6)
        b = random_structure(rng, max_n=6)
        glue = [("a." + a.parts[0], "b." + b.parts[0], "glue")]
        sum_ok = morphism_number(compose(a, b, glue)) == a.n + b.n
        prod_ok = morphism_number(convolution(a, b)) == a.n * b.n
        ok += 1 if (sum_ok and prod_ok) else 0
    verdict(4, ok == 100, f"{ok}/100 pairs")


# -------------------------------------------------------------------------
# 5. NAND nets match all 256 three-input truth tables exhaustively
# -------------------------------------------------------------------------

def test_criterion_5_nand_reduction():
    failures = 0
    for code in range(256):
        table = [(code >> row) & 1 for row in range(8)]
        net = compile_to_nand(table)
        for row in range(8):
            assignment = {f"x{j}": (row >> j) & 1 for j in range(3)}
            if net.evaluate(assignment)["f"] != table[row]:
                failures += 1
                break
    verdict(5, failures == 0, f"{256 - failures}/256 functions exact")


# -------------------------------------------------------------------------
# 6. planted rule recovered with the right probability; independent noise
#    yields no rule at all
# -------------------------------------------------------------------------

def test_criterion_6_rule_mining():
    log = planted_implication(seed=123, n_triggers=440, p=0.8, window=5)
    assert len(log) >= 1000
    rules = mine_rules(log, window=5, min_support=30, min_p=0.6)
    planted = [r for r in rules
               if len(r.condition.members) == 1
               and r.condition.members[0].subject == "A"
               and r.condition.members[0].positive
               and r.consequents[0].subject == "X"]
    recovered = bool(planted) and abs(planted[0].p - 0.8) <= 0.05
    noise = independent_noise(seed=914, length=1200, rate=0.04)
    control = mine_rules(noise, window=5, min_support=30, min_p=0.7)
    verdict(6, recovered and control == [],
            f"p-hat={planted[0].p:.4f} (|err|<=0.05), "
            f"control rules={len(control)}")


# -------------------------------------------------------------------------
# 7. negative-polarity rule: absence of W implies D, mined and firing
# -------------------------------------------------------------------------

def test_criterion_7_computing_in_negative():
    log = absence_rule_log(seed=31)
    rules = mine_rules(log, window=4, min_support=30, min_p=0.8)
    planted = [r for r in rules
               if len(r.condition.members) == 1
               and r.condition.members[0].subject == "W"
               and not r.condition.members[0].positive
               and r.consequents[0].subject == "D"]
    mined = bool(planted)
    fired_right = False
    if mined:
        rule = planted[0]
        held_out = absence_rule_log(seed=77)
        wet_tick = 5                 # W present, rule must stay silent
        dry_tick = 18 + 6            # deep inside the first dry spell
        silent = eval_rule(rule, held_out, wet_tick) is None
        preds = eval_rule(rule, held_out, dry_tick)
        fired_right = silent and bool(preds) and preds[0].subject == "D"
    verdict(7, mined and fired_right,
            f"mined={mined} p={planted[0].p:.3f} held-out fires correctly"
            if mined else "rule not mined")


# -------------------------------------------------------------------------
# 8. zero-heuristic plans are BFS-optimal on 50 random production systems
# -------------------------------------------------------------------------

def test_criterion_8_solver_optimality():
    rng = random.Random(9090)
    checked = 0
    optimal = 0
    for _ in range(50):
        n = rng.randint(8, 120)
        edges = []
        for i in range(n):
            for _ in range(rng.randint(1, 3)):
                edges.append((i, rng.randrange(n)))
        goal = rng.randrange(n)
        spec = machine_spec(n, edges, 0, goal)
        result = solve(spec)
        opt = bfs_oracle(n, edges, 0, goal)
        checked += 1
        if opt is None:
            optimal += 1 if result.status == "unsolvable" else 0
        elif result.status == "solved" and len(result.plan) == opt:
            replay(spec, result.plan)
            optimal += 1
    verdict(8, optimal == checked, f"{optimal}/{checked} systems optimal+valid")


# -------------------------------------------------------------------------
# 9. cache replay on a morphism-equivalent scaled twin, zero expansions
# -------------------------------------------------------------------------

def test_criterion_9_solution_cache():
    catalog = TypeCatalog()
    mask = MorphismMask.make(drop_part_attrs={"size"})
    cache = SolutionCache(mask=mask, catalog=catalog)
    small = block_spec({"A": "B", "B": "C", "C": "T"},
                       [("C", "B"), ("B", "A")],
                       catalog=catalog, sizes={"A": 1, "B": 1, "C": 1})
    big = block_spec({"A": "B", "B": "C", "C": "T"},
                     [("C", "B"), ("B", "A")],
                     catalog=catalog, sizes={"A": 3, "B": 3, "C": 3})
    first = solve_with_cache(small, cache)
    twin = solve_with_cache(big, cache)
    valid = False
    if twin.status == "solved":
        replay(big, twin.plan)
        valid = True
    verdict(9, first.visited > 0 and twin.visited == 0 and valid,
            f"first search expanded {first.visited}, twin expanded "
            f"{twin.visited}, plan length {len(twin.plan)}")


# -------------------------------------------------------------------------
# 10. demo-polygons with a fixed seed is byte-identical across runs
# -------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["--seed", "42", "demo-polygons", "--out", str(out1)])
    code2 = cli_main(["--seed", "42", "demo-polygons", "--out", str(out2)])
    identical = True
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    if files1 != files2:
        identical = False
    else:
        for rel in files1:
            if (out1 / rel).read_bytes() != (out2 / rel).read_bytes():
                identical = False
                break
    verdict(10, code1 == 0 and code2 == 0 and identical,
            f"{len(files1)} files byte-identical across runs")
