import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structkit.cli import _json, _rules_json, main, parse_recognition_log
from structkit.corpus import _BASE_SHAPES, ROTATIONS, rasterize_polygon
from structkit.io_struct import parse_structure, serialize_structure
from structkit.pixels import serialize_raster
from structkit.rules import (
    AssociativeRule,
    Consequent,
    MicroSituation,
    MsMember,
    mine_rules,
)
from structkit.structure import structure

from loggen import (
    absence_rule_log,
    independent_noise,
    planted_implication,
    with_distractors,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src/structkit/schemas/report.schema.json").read_text())

# the package re-exports the function `structure` under the module's name
STRUCTURE_MODULE = sys.modules["structkit.structure"]


def validate(payload, kind):
    jsonschema.validate(payload,
                        {**SCHEMA, "$ref": f"#/$defs/{kind}"})


def write_struct(tmp_path, name, s):
    p = tmp_path / name
    p.write_text(serialize_structure(s))
    return str(p)


def path3(ids, t="T"):
    return structure({i: t for i in ids},
                     [(ids[0], ids[1], "L"), (ids[1], ids[2], "L")])


def test_iso_exit_codes_and_witness(tmp_path):
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    b = write_struct(tmp_path, "b.struct", path3(["x", "y", "z"]))
    out = tmp_path / "iso.json"
    assert main(["iso", a, b, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "iso_report")
    assert payload["isomorphic"] is True
    assert sorted(payload["witness"]) == ["a", "b", "c"]

    tri = structure({i: "T" for i in "pqr"},
                    [("p", "q", "L"), ("q", "r", "L"), ("r", "p", "L")])
    c = write_struct(tmp_path, "c.struct", tri)
    assert main(["iso", a, c, "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["isomorphic"] is False and payload["witness"] is None


def test_iso_malformed_file_exit_two(tmp_path):
    bad = tmp_path / "bad.struct"
    bad.write_text("part a\n")
    good = write_struct(tmp_path, "g.struct", path3(["a", "b", "c"]))
    assert main(["iso", str(bad), good]) == 2
    # no value of w is the one the file means, so neither may be kept
    bad.write_text("part a T\npart b T\nrel a b L w=1 w=2\n")
    good = tmp_path / "w2.struct"
    good.write_text("part a T\npart b T\nrel a b L w=2\n")
    assert main(["iso", str(bad), str(good)]) == 2


def test_iso_type_ids_holding_separators(tmp_path):
    # joined into one string with `|` and `:`, the two sides' type ids and
    # relations would read alike; the structures are not isomorphic
    a = tmp_path / "a.struct"
    a.write_text("part u x|o:y\npart v z\nrel u v L\n")
    b = tmp_path / "b.struct"
    b.write_text("part u x\npart v y|o:z\nrel u v L\n")
    out = tmp_path / "iso.json"
    assert main(["iso", str(a), str(b), "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["isomorphic"] is False and payload["witness"] is None


def run_under_hash_seeds(tmp_path, args) -> list:
    """What `structkit ARGS --out OUT` writes in two interpreters that hash
    strings differently, run side by side and each given a minute: the
    report's bytes, or for a directory each path under it mapped to its
    file's bytes (None for a directory), so equal results mean `diff -r`
    finds no difference."""
    src = Path(__file__).resolve().parents[1] / "src"
    seeds = ("1", "2")
    outs = [tmp_path / f"out-h{seed}" for seed in seeds]
    runs = [subprocess.Popen([sys.executable, "-m", "structkit.cli", *args,
                              "--out", str(out)],
                             env={**os.environ, "PYTHONPATH": str(src),
                                  "PYTHONHASHSEED": seed})
            for seed, out in zip(seeds, outs)]
    try:
        for run in runs:
            assert run.wait(timeout=60) == 0
    finally:
        for run in runs:
            run.kill()
    return [{p.relative_to(out).as_posix():
             p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
            if out.is_dir() else out.read_bytes() for out in outs]


def c20_pair():
    ids = [f"v{i}" for i in range(20)]
    names = dict(zip(ids, random.Random(20).sample(ids, 20)))
    rels = [(ids[i], ids[(i + 1) % 20], "L") for i in range(20)]
    copy = [(names[x], names[y], lab) for x, y, lab in rels]
    types = dict.fromkeys(ids, "T")
    return structure(types, rels), structure(types, copy)


def k30_pair():
    # K30 takes 465 canonical search nodes; a search gone exponential
    # fails on the minute's timeout instead of hanging the suite
    ids = [f"v{i}" for i in range(30)]
    rels = [(a, b, "L") for i, a in enumerate(ids) for b in ids[i + 1:]]
    rng = random.Random(30)
    names = dict(zip(ids, rng.sample([f"w{i}" for i in range(30)], 30)))
    copy = structure({names[p]: "T" for p in reversed(ids)},
                     [(names[a], names[b], lab)
                      for a, b, lab in rng.sample(rels, len(rels))])
    return structure(dict.fromkeys(ids, "T"), rels), copy


@pytest.mark.parametrize("pair", [c20_pair, k30_pair], ids=["C20", "K30"])
def test_iso_report_independent_of_hash_seed(tmp_path, pair):
    # refinement walks sets of cells and type keys hash their strings, so
    # two interpreters with different string hashing must still pick the
    # same canonical orders and witness
    a, b = pair()
    reports = run_under_hash_seeds(tmp_path, [
        "iso", write_struct(tmp_path, "a.struct", a),
        write_struct(tmp_path, "b.struct", b)])
    assert json.loads(reports[0])["isomorphic"] is True
    assert reports[0] == reports[1]


def test_derive_quotient_and_mask(tmp_path):
    s = structure({"p0": "A", "p1": "A", "p2": "B", "p3": "B"},
                  [("p0", "p1", "L"), ("p1", "p2", "L"), ("p2", "p3", "L")])
    spath = write_struct(tmp_path, "s.struct", s)
    sidecar = tmp_path / "ops.txt"
    sidecar.write_text("block p0 p1\nblock p2 p3\n")
    out = tmp_path / "derive.json"
    out_struct = tmp_path / "derived.struct"
    code = main(["derive", spath, str(sidecar), "--out", str(out),
                 "--out-struct", str(out_struct)])
    assert code == 0
    payload = json.loads(out.read_text())
    validate(payload, "derive_report")
    assert "quotient into 2 blocks" in payload["steps"]
    assert out_struct.read_text() == payload["derived"]
    derived_lines = payload["derived"].splitlines()
    assert sum(1 for ln in derived_lines if ln.startswith("part ")) == 2


def test_derive_types_blocks_holding_separators_apart(tmp_path):
    # the blocks induce x|o:y-L-z and x-L-y|o:z, which are not isomorphic
    s = tmp_path / "s.struct"
    s.write_text("part u x|o:y\npart v z\npart w x\npart q y|o:z\n"
                 "rel u v L\nrel w q L\nrel v w M\n")
    sidecar = tmp_path / "ops.txt"
    sidecar.write_text("block u v\nblock w q\n")
    out_struct = tmp_path / "derived.struct"
    assert main(["derive", str(s), str(sidecar), "--out",
                 str(tmp_path / "derive.json"),
                 "--out-struct", str(out_struct)]) == 0
    derived = parse_structure(out_struct.read_text())
    assert derived.n == 2 and len(set(derived.part_types)) == 2


def test_derive_with_mask_sidecar(tmp_path):
    s = structure({"p0": "A", "p1": "A", "p2": "B"},
                  [("p0", "p1", "L"), ("p1", "p2", "M")])
    spath = write_struct(tmp_path, "s.struct", s)
    sidecar = tmp_path / "mask.txt"
    sidecar.write_text("mask merge-label L M -> J\n")
    out = tmp_path / "derive.json"
    assert main(["derive", spath, str(sidecar), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "derive_report")
    assert payload["steps"] == ["morphism"]
    derived = parse_structure(payload["derived"])
    assert {r.label for r in derived.relations} == {"J"}


def test_analyze_triangle(tmp_path):
    raster = rasterize_polygon(_BASE_SHAPES[("triangle", "regular")], 0, 2)
    img = tmp_path / "tri.pbm"
    img.write_text(serialize_raster(raster))
    out = tmp_path / "analyze.json"
    assert main(["analyze", str(img), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "analyze_report")
    whole = {a["feature"]: a["value"] for a in payload["assertions"]
             if a["target"] == ["structure"]}
    assert whole["side-count"] == 3
    assert whole["is-closed-cycle"] is True
    fired = {s["subject"] for s in payload["signatures"] if s["fired"]}
    assert fired == {"triangle", "regular-triangle"}


def test_analyze_blank_image(tmp_path):
    img = tmp_path / "blank.pbm"
    img.write_text("P1\n5 4\n" + "\n".join("0" * 5 for _ in range(4)) + "\n")
    out = tmp_path / "analyze.json"
    code = main(["analyze", str(img), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["regions"] == 1
    assert payload["chains"] == []
    assert code == 1   # nothing segment-like found is a negative result


def test_mine_roundtrip(tmp_path):
    log = planted_implication(seed=71, n_triggers=120, p=0.85, window=5)
    log_file = tmp_path / "events.log"
    log_file.write_text("".join(
        f"t={r.t} subj={r.subject} score={r.score}\n" for r in log))
    assert parse_recognition_log(log_file.read_text()) == log
    out = tmp_path / "rules.json"
    code = main(["mine", str(log_file), "--window", "5",
                 "--min-support", "30", "--min-p", "0.6", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    validate(payload, "rules_report")
    subjects = {(m["subject"], m["positive"])
                for r in payload["rules"]
                for m in r["condition"]["members"]}
    assert ("A", True) in subjects


# `structkit mine` reports whose SHA-256 digests are fixed in
# tests/golden/mine-reports.sha256 (`sha256sum` format).  Regenerate that file
# with `PYTHONPATH=src python tests/test_cli.py` only when a change means to
# alter these reports.
MINE_GOLDEN = {
    "planted": (lambda: planted_implication(seed=71, n_triggers=80),
                ["--window", "5", "--min-support", "5", "--min-p", "0.5"]),
    "absence-pad8": (lambda: with_distractors(8, absence_rule_log(
        seed=9, cycles=20, wet=4, dry=26), 8),
        ["--window", "5", "--min-support", "30", "--min-p", "0.7"]),
    # the largest report: about 2,900 rules over 50 subjects
    "absence-pad24": (lambda: with_distractors(24, absence_rule_log(
        seed=9, cycles=20, wet=4, dry=26), 24),
        ["--window", "5", "--min-support", "30", "--min-p", "0.7"]),
    "noise": (lambda: independent_noise(seed=2033, length=600),
              ["--window", "3", "--min-support", "5", "--min-p", "0.1"]),
}
MINE_DIGESTS = Path(__file__).parent / "golden" / "mine-reports.sha256"


def write_log(path: Path, records) -> Path:
    path.write_text("".join(f"t={r.t} subj={r.subject} score={r.score}\n"
                            for r in records))
    return path


def mine_golden_digests(workdir: Path) -> str:
    lines = []
    for name, (make, args) in sorted(MINE_GOLDEN.items()):
        log = write_log(workdir / f"{name}.log", make())
        out = workdir / f"{name}.json"
        assert main(["mine", str(log), *args, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}.json\n")
    return "".join(lines)


def test_mine_reports_match_golden_digests(tmp_path):
    assert mine_golden_digests(tmp_path) == MINE_DIGESTS.read_text()


@pytest.mark.parametrize("name", ["absence-pad8", "absence-pad24"])
def test_mine_report_independent_of_hash_seed(tmp_path, name):
    # rule order and members must not follow set or dict iteration order;
    # 24 distractors give the most rules written from one member text
    make, args = MINE_GOLDEN[name]
    log = write_log(tmp_path / f"{name}.log", make())
    reports = run_under_hash_seeds(tmp_path, ["mine", str(log), *args])
    assert json.loads(reports[0])["rules"]
    assert reports[0] == reports[1]


# `structkit analyze` reports on the 20 figure families, each drawn at the
# larger scales 4-8, whose digests are fixed in
# tests/golden/analyze-large.sha256; `PYTHONPATH=src python tests/test_cli.py`
# rewrites it along with mine-reports.sha256.
LARGE_SCALES = (4, 5, 6, 7, 8)
ANALYZE_DIGESTS = Path(__file__).parent / "golden" / "analyze-large.sha256"


def large_rasters() -> dict:
    return {f"{kind}-{variant}-r{rot:g}-s{scale}":
            rasterize_polygon(verts, rot, scale)
            for (kind, variant), verts in sorted(_BASE_SHAPES.items())
            for rot in ROTATIONS[kind] for scale in LARGE_SCALES}


def analyze_golden_digests(workdir: Path) -> str:
    lines = []
    for name, raster in sorted(large_rasters().items()):
        image = workdir / f"{name}.pbm"
        image.write_text(serialize_raster(raster))
        out = workdir / f"{name}.json"
        assert main(["analyze", str(image), "--out", str(out)]) in (0, 1)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}.json\n")
    return "".join(lines)


def test_analyze_large_reports_match_golden_digests(tmp_path):
    rasters = large_rasters()
    assert len(rasters) == 100
    # some pinned raster holds a 2x2 ink block, so thinning runs on it
    assert any(row[x:x + 2] == below[x:x + 2] == (1, 1)
               for r in rasters.values()
               for row, below in zip(r.values, r.values[1:])
               for x in range(r.width - 1))
    assert analyze_golden_digests(tmp_path) == ANALYZE_DIGESTS.read_text()


# `structkit derive` reports on structures built here, whose digests are fixed
# in tests/golden/derive-reports.sha256; `PYTHONPATH=src python
# tests/test_cli.py` rewrites it along with mine-reports.sha256.
def grid(width, height):
    """An unoriented width x height grid, typed by (x + 2y) mod 3."""
    ids = [f"p{x}_{y}" for y in range(height) for x in range(width)]
    types = {p: f"T{(i % width + 2 * (i // width)) % 3}"
             for i, p in enumerate(ids)}
    rels = [(ids[i], ids[i + 1], "L") for i in range(len(ids))
            if (i + 1) % width]
    rels += [(ids[i], ids[i + width], "M")
             for i in range(len(ids) - width)]
    return structure(types, rels), ids


def pair_blocks(width=40, height=40):
    s, ids = grid(width, height)
    return s, [(ids[i], ids[i + 1]) for i in range(0, len(ids), 2)], ""


def far_pair_blocks(width=40, height=40):
    # each block pairs a part with the one half the grid below it
    s, ids = grid(width, height)
    half = len(ids) // 2
    return s, [(ids[i], ids[i + half]) for i in range(half)], ""


def oriented_attr_blocks():
    # an oriented 6x6 grid with weighted relations, some running back
    n = 6
    ids = [f"q{i}" for i in range(n * n)]
    rels = []
    for i in range(n * n):
        if (i + 1) % n:
            rels.append((ids[i], ids[i + 1], "L", {"w": i % 3}))
        if i + n < n * n:
            rels.append((ids[i + n], ids[i], "M", {"w": i % 2, "h": i % 4})
                        if i % 5 == 0 else (ids[i], ids[i + n], "M"))
    s = structure({p: f"T{i % 2}" for i, p in enumerate(ids)}, rels,
                  oriented=True)
    blocks = [(ids[i], ids[i + 1], ids[i + n]) for i in range(0, n * n, 2 * n)]
    blocks += [(ids[i + 1 + n],) for i in range(0, n * n, 2 * n)]
    blocks += [tuple(ids[i + n + 2:i + 2 * n]) for i in range(0, n * n, 2 * n)]
    blocks += [tuple(ids[i + 2:i + n]) for i in range(0, n * n, 2 * n)]
    return s, blocks, "mask merge-label adj link -> J\n"


DERIVE_GOLDEN = {
    "grid-pairs": pair_blocks,
    "grid-far-pairs": far_pair_blocks,
    "oriented-attrs": oriented_attr_blocks,
}
DERIVE_DIGESTS = Path(__file__).parent / "golden" / "derive-reports.sha256"


def derive_golden_digests(workdir: Path) -> str:
    lines = []
    for name, make in sorted(DERIVE_GOLDEN.items()):
        s, blocks, mask = make()
        spath = write_struct(workdir, f"{name}.struct", s)
        sidecar = workdir / f"{name}.ops"
        sidecar.write_text(mask + "".join(f"block {' '.join(b)}\n"
                                          for b in blocks))
        out = workdir / f"{name}.json"
        assert main(["derive", spath, str(sidecar), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}.json\n")
    return "".join(lines)


def test_derive_reports_match_golden_digests(tmp_path):
    assert len(pair_blocks()[1]) == len(far_pair_blocks()[1]) == 800
    assert derive_golden_digests(tmp_path) == DERIVE_DIGESTS.read_text()


def test_demo_reports_match_golden_digests(tmp_path):
    # every file `demo-polygons` writes, as `sha256sum -c` checks it in CI
    assert main(["--seed", "42", "demo-polygons", "--out", str(tmp_path)]) == 0
    expected = Path(__file__).parent / "golden" / "demo-polygons.sha256"
    names = sorted(p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*") if p.is_file())
    assert "".join(
        f"{hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()}  ./{n}\n"
        for n in names) == expected.read_text()


def test_demo_reports_independent_of_hash_seed(tmp_path):
    # acceptance criterion 10 compares two runs in one interpreter; this
    # compares every file of two interpreters that hash strings differently
    trees = run_under_hash_seeds(tmp_path, ["--seed", "42", "demo-polygons"])
    assert len([p for p, data in trees[0].items() if data is not None]) == 121
    assert trees[0] == trees[1]


def per_rule_json(rule) -> dict:
    """The report's shape of one rule, built on its own."""
    return {
        "condition": {"members": [{
            "subject": m.subject, "positive": m.positive,
            "min_score": m.min_score, "window": list(m.window),
        } for m in rule.condition.members]},
        "consequents": [{"subject": c.subject, "window": list(c.window)}
                        for c in rule.consequents],
        "p": round(rule.p, 6),
        "support": rule.n_cond,
        "n_hit": rule.n_hit,
        "smoothed": True,
    }


def assert_rules_json_matches_json_dumps(rules):
    """The rule writer's list, inside a report, against json's text of the
    same report built from per-rule dicts."""
    report = {"events": 1, "rules": _rules_json(rules, "\n  ")}
    expected = dict(report, rules=[per_rule_json(r) for r in rules])
    assert _json(report) == json.dumps(expected, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", sorted(MINE_GOLDEN))
def test_rules_to_json_matches_per_rule_dicts(name):
    make, args = MINE_GOLDEN[name]
    opts = dict(zip(args[::2], args[1::2]))
    rules = mine_rules(make(), window=int(opts["--window"]),
                       min_support=int(opts["--min-support"]),
                       min_p=float(opts["--min-p"]))
    assert rules
    assert_rules_json_matches_json_dumps(rules)


# subjects json must escape, windows of either sign and a min_score whose
# int and float print differently
RULE_SUBJECTS = (st.text(st.characters(exclude_categories=()), max_size=4)
                 | st.sampled_from(['"', "\\", "\u00e9", "\x00\n", "Z01"]))
RULE_WINDOWS = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda w: tuple(sorted(w)))
RULE_MEMBERS = st.builds(
    MsMember, RULE_SUBJECTS, st.booleans(),
    st.sampled_from([1.0, 1, 0, 0.5]) | st.floats(0, 1), RULE_WINDOWS)
RULE_CONSEQUENTS = st.lists(st.builds(Consequent, RULE_SUBJECTS,
                                      RULE_WINDOWS), max_size=3).map(tuple)


@st.composite
def rule_lists(draw):
    """Rules drawn from a few members and consequents, so that rules share
    them as mined rules do."""
    members = draw(st.lists(RULE_MEMBERS, min_size=1, max_size=4))
    consequents = draw(st.lists(RULE_CONSEQUENTS, min_size=1, max_size=3))
    rules = []
    for _ in range(draw(st.integers(0, 5))):
        n_cond = draw(st.integers(0, 10 ** 6))
        rules.append(AssociativeRule(
            MicroSituation(tuple(draw(st.lists(
                st.sampled_from(members), min_size=1, max_size=8)))),
            draw(st.sampled_from(consequents)), n_cond=n_cond,
            n_hit=draw(st.integers(0, n_cond))))
    return rules


@settings(max_examples=300, deadline=None)
@given(rule_lists())
# equal members whose min_score prints as 1.0 and as 1
@example([AssociativeRule(MicroSituation((MsMember("A", True, 1.0),)),
                          (Consequent("C", (1, 3)),), n_cond=5, n_hit=4),
          AssociativeRule(MicroSituation((MsMember("A", True, 1),
                                          MsMember("B", False))),
                          (Consequent("C", (1, 3)),), n_cond=6, n_hit=5)])
@example([])
def test_rule_writer_matches_json_dumps(rules):
    assert_rules_json_matches_json_dumps(rules)


# scalars where json's text is easy to get wrong, and any str: non-ASCII,
# control characters and lone surrogates
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-2 ** 300, 2 ** 300) | st.floats()
                | st.sampled_from([-0.0, 1e16, -1e16, 1e-7, float("nan"),
                                   float("inf"), float("-inf"), True, 1,
                                   False, 0])
                | st.text(st.characters(exclude_categories=())))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(st.characters(
                      exclude_categories=())), kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)
    # one object met several times, at equal and at different depths
    shared = {"a": value, "b": [value, value, {"c": value}],
              "d": (value, [value])}
    assert _json(shared) == json.dumps(shared, sort_keys=True, indent=2)


def test_report_writer_edge_values():
    value = {"\u00e9\x00\n": [{}, [], (), [[{}]], {"": {"": []}}],
             "b": [True, 1, False, 0, None, -0.0, 1e16, 2 ** 100],
             "a": (float("nan"), float("inf"), -float("inf"), "\U0001f600")}
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)
    member = {"subject": "Z01", "window": [-4, 0]}
    members = [member, member, {}]
    value = {"rules": [{"members": members, "first": member},
                       {"members": members},
                       {"members": [member, [member, members]]}],
             "top": member}
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, object(), {"a": [b"x"]},
                                   [1, {"k": frozenset()}]])
def test_report_writer_rejects_non_json_values(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json(value)


def test_solve_trivial_problem(tmp_path):
    problem = {
        "start": {"recognitions": [{"subject": "goal", "score": 1.0}]},
        "goal": {"members": [{"subject": "goal"}]},
        "productions": [{
            "name": "noop",
            "guard": {"members": [{"subject": "goal"}]},
            "effect": {"add": [], "remove": []},
        }],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "plan_report")
    assert payload["status"] == "solved" and payload["plan"] == []


def test_solve_chain_problem_with_heuristic(tmp_path):
    problem = {
        "start": {"recognitions": [{"subject": "s0", "score": 1.0}]},
        "goal": {"members": [{"subject": "s3"}]},
        "productions": [
            {"name": f"step{i}",
             "guard": {"members": [{"subject": f"s{i}"}]},
             "effect": {"add": [[f"s{i+1}", 1.0]], "remove": [f"s{i}"]}}
            for i in range(3)
        ],
        "heuristic": "missing-goal-members",
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["plan"] == ["step0", "step1", "step2"]


def test_solve_structure_state_with_recognizers_and_schema_effect(tmp_path):
    problem = {
        "start": {"struct": "part u0 N\npart u1 E\nrel u0 u1 adj\n"},
        "goal": {"members": [{"subject": "grown"}]},
        "recognizers": [
            {"subject": "grown",
             "pattern": "part a N\npart b N\nrel a b adj\n"},
        ],
        "productions": [{
            "name": "grow",
            "guard": {"pattern": "part a N\n"},
            "effect": {"schema": (
                "oriented\npart b BIND\npart m MOVE\npart c COPY\n"
                "rel b m next\nrel m c next\nentry b\n"
                "bind b BIND t=N\nbind m MOVE first\nbind c COPY t\n")},
        }],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "plan_report")
    assert payload["status"] == "solved" and payload["plan"] == ["grow"]


def test_solve_structure_state_over_64_parts(tmp_path):
    # a 70-part path state and a one-part recognizer that fires on it
    text = "".join(f"part p{i} T\n" for i in range(70)) + \
        "".join(f"rel p{i} p{i + 1} L\n" for i in range(69))
    problem = {
        "start": {"struct": text},
        "goal": {"members": [{"subject": "hasT"}]},
        "recognizers": [{"subject": "hasT", "pattern": "part a T\n"}],
        "productions": [{"name": "noop",
                         "guard": {"members": [{"subject": "hasT"}]},
                         "effect": {"add": [], "remove": []}}],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate(payload, "plan_report")
    assert payload["status"] == "solved" and payload["plan"] == []


def grow_problem() -> dict:
    """A structure-state problem with recognizers, schema effects, an
    undesired situation and several plans of the least length; the budget
    bounds the search (34 expansions solve it)."""
    def grow(t, where):
        # attach a new part of type t to the first or last part
        return ("oriented\npart b BIND\npart m MOVE\npart c COPY\n"
                "rel b m next\nrel m c next\nentry b\n"
                f"bind b BIND t={t}\nbind m MOVE {where}\n"
                "bind c COPY t\n")

    productions = [{"name": f"grow-{t}-{w}",
                    "guard": {"pattern": "part a N\n"},
                    "effect": {"schema": grow(t, w)}}
                   for t in "NEW" for w in ("first", "last")]
    productions.append({"name": "mark",
                        "guard": {"members": [{"subject": "ne"}]},
                        "effect": {"schema": grow("M", "last")}})
    return {
        "start": {"struct": "part u0 N\npart u1 E\nrel u0 u1 adj\n"},
        "goal": {"members": [{"subject": "nn"}, {"subject": "ew"},
                             {"subject": "wm", "positive": False}]},
        "recognizers": [
            {"subject": s, "pattern": f"part a {x}\npart b {y}\n"
                                      "rel a b adj\n"}
            for s, x, y in (("nn", "N", "N"), ("ne", "N", "E"),
                            ("ew", "E", "W"), ("wm", "W", "M"))],
        "undesired": [{"members": [{"subject": "wm"}]}],
        "productions": productions,
        "budget": 50,
    }


def test_solve_report_independent_of_hash_seed(tmp_path):
    # the chosen plan must not follow set or dict iteration order, which
    # the state keys' string hashes decide
    pfile = tmp_path / "grow.json"
    pfile.write_text(json.dumps(grow_problem()))
    reports = run_under_hash_seeds(tmp_path, ["solve", str(pfile)])
    assert json.loads(reports[0])["status"] == "solved"
    assert reports[0] == reports[1]


def test_solve_unsolvable_exit_one(tmp_path):
    problem = {
        "start": {"recognitions": [{"subject": "s0", "score": 1.0}]},
        "goal": {"members": [{"subject": "nowhere"}]},
        "productions": [{
            "name": "loop",
            "guard": {"members": [{"subject": "s0"}]},
            "effect": {"add": [["s0", 1.0]], "remove": []},
        }],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 1


def test_solve_out_of_fuel_effect_poisons_its_production(tmp_path):
    # the effect loops MOVE first forever; the configured fuel stops it and
    # the search reports no plan instead of an internal error
    problem = {
        "start": {"struct": "part u0 N\n"},
        "goal": {"members": [{"subject": "grown"}]},
        "recognizers": [
            {"subject": "grown",
             "pattern": "part a N\npart b N\nrel a b adj\n"},
        ],
        "productions": [{
            "name": "spin",
            "guard": {"pattern": "part a N\n"},
            "effect": {"schema": (
                "oriented\npart a MOVE\npart b MOVE\n"
                "rel a b next\nrel b a next\nentry a\n"
                "bind a MOVE first\nbind b MOVE first\n")},
        }],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fuel_default": 100}))
    assert main(["--config", str(cfgfile), "solve", str(pfile)]) == 1


def test_demo_polygons_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--seed", "42", "demo-polygons", "--out", str(out1)]) == 0
    assert main(["--seed", "42", "demo-polygons", "--out", str(out2)]) == 0
    s1 = (out1 / "summary.json").read_bytes()
    s2 = (out2 / "summary.json").read_bytes()
    assert s1 == s2
    payload = json.loads(s1)
    validate(payload, "demo_summary")
    assert payload["total"] == 60
    assert payload["all_correct"] is True
    assert payload["scale_consistent"] is True
    names = sorted(p.name for p in (out1 / "corpus").iterdir())
    assert len(names) == 60
    for name in names[:3]:
        b1 = (out1 / "corpus" / name).read_bytes()
        b2 = (out2 / "corpus" / name).read_bytes()
        assert b1 == b2
    report_names = sorted(p.name for p in (out1 / "reports").iterdir())
    assert len(report_names) == 60
    for name in report_names[:3]:
        assert (out1 / "reports" / name).read_bytes() == \
            (out2 / "reports" / name).read_bytes()


def test_config_override_echoed(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"orientation_bins": 8}))
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    out = tmp_path / "iso.json"
    main(["--config", str(cfgfile), "iso", a, a, "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["config"]["orientation_bins"] == 8


def test_unknown_subcommand_exit_two():
    assert main(["frobnicate"]) == 2


def test_unknown_config_key_exit_two(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"no_such_knob": 1}))
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    assert main(["--config", str(cfgfile), "iso", a, a]) == 2
    cfgfile.write_text("[1]")
    assert main(["--config", str(cfgfile), "iso", a, a]) == 2


# search caps, budgets and thresholds that are module constants or parameter
# defaults, not Config fields
@pytest.mark.parametrize("key, value", [
    ("occurrence_part_cap", 64), ("motif_size_cap", 5), ("edit_eps", 0.1),
    ("partition_cap", 8), ("recipe_cap", 64),
    ("solve_budget_default", 100_000),
    # a parameter default of `update_legitimacy`, which no subcommand calls
    ("validation_threshold", 0.7),
])
def test_removed_config_key_exit_two(tmp_path, capsys, key, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    assert main(["--config", str(cfgfile), "iso", a, a]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_wrong_typed_config_value_exit_two(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    img = tmp_path / "dot.pbm"
    img.write_text("P1\n3 3\n000\n010\n000\n")
    tri = tmp_path / "tri.pbm"
    tri.write_text("P1\n24 24\n" + "".join(
        "".join("1" if 3 <= x <= y <= 20 else "0" for x in range(24)) + "\n"
        for y in range(24)))
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({   # the goal reads the rule threshold
        "start": {"struct": "part u0 N\n"},
        "goal": {"members": [{"subject": "grown"}]},
        "productions": [{"name": "noop", "guard": {"pattern": "part a N\n"},
                         "effect": {"add": [], "remove": []}}]}))
    log = tmp_path / "events.log"
    log.write_text("t=0 subj=A score=0.9\nt=1 subj=B score=0.9\n")
    for overrides, argv in [
        ({"corner_window": "3"}, ["analyze", str(img)]),
        ({"rule_threshold": None}, ["solve", str(pfile)]),
        ({"corner_window": True}, ["analyze", str(img)]),   # a bool is no int
        ({"corner_window": 3.0}, ["analyze", str(img)]),
        ({"min_segment_px": False}, ["analyze", str(img)]),
        # in type but out of range: on the triangle each would divide or
        # bin by zero
        ({"orientation_bins": 0}, ["analyze", str(tri)]),
        ({"orientation_bins": 1}, ["analyze", str(tri)]),
        ({"joint_angle_bins": 0}, ["analyze", str(tri)]),
        ({"straightness_dev_px": 0}, ["analyze", str(tri)]),
        # and a negative corner window indexes outside the stroke
        ({"corner_window": -1}, ["analyze", str(tri)]),
        # a micro-situation holds at most 8 members; -1 would mine nothing
        ({"mining_max_condition": -1}, ["mine", str(log)]),
        ({"mining_max_condition": 9}, ["mine", str(log)]),
        # angles, distances and scores outside their domains, which once
        # ran: the last two to exit 1, the others to exit 0
        ({"corner_angle_deg": -35}, ["analyze", str(tri)]),
        ({"joint_radius_px": -3}, ["analyze", str(tri)]),
        ({"min_segment_px": -1}, ["analyze", str(tri)]),
        ({"tip_slack_px": -2}, ["analyze", str(tri)]),
        ({"signature_threshold": 5}, ["analyze", str(tri)]),
        ({"signature_threshold": -1}, ["analyze", str(tri)]),
        ({"straight_min_score": -0.5}, ["analyze", str(tri)]),
        ({"corner_angle_deg": 400}, ["analyze", str(tri)]),
        ({"straight_min_score": 2}, ["analyze", str(tri)]),
        # fuel and scores outside their domains, which once ran
        ({"fuel_default": -1}, ["solve", str(pfile)]),
        ({"rule_threshold": 5}, ["solve", str(pfile)]),
        ({"rule_threshold": -3}, ["solve", str(pfile)]),
        ({"recognition_min_score": 2}, ["mine", str(log)]),
        ({"recognition_min_score": -1}, ["mine", str(log)]),
    ]:
        cfgfile.write_text(json.dumps(overrides))
        assert main(["--config", str(cfgfile)] + argv) == 2, overrides
        assert "must be" in capsys.readouterr().err
    # an int is fine for a float field
    cfgfile.write_text(json.dumps({"min_segment_px": 4}))
    out = tmp_path / "analyze.json"
    assert main(["--config", str(cfgfile), "analyze", str(img),
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["config"]["min_segment_px"] == 4


@pytest.mark.parametrize("flags", [["--min-p", "nan", "--min-support", "0"],
                                   ["--min-p", "2"], ["--min-support", "-3"]])
def test_mine_threshold_out_of_domain_exit_two(tmp_path, capsys, flags):
    log_file = tmp_path / "events.log"
    log_file.write_text("t=0 subj=A score=0.9\nt=1 subj=B score=0.9\n"
                        "t=4 subj=A score=0.9\n")
    out = tmp_path / "rules.json"
    assert main(["mine", str(log_file), *flags, "--out", str(out)]) == 2
    assert "must" in capsys.readouterr().err
    assert not out.exists()


def test_mine_tick_span_past_cap_exit_two(tmp_path, capsys):
    # one bit per tick: three billion ticks would need bitsets of 375 MB
    log_file = tmp_path / "events.log"
    log_file.write_text("t=0 subj=A score=0.9\nt=3000000000 subj=B score=0.9\n")
    out = tmp_path / "rules.json"
    assert main(["mine", str(log_file), "--out", str(out)]) == 2
    assert "more than the cap of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_value_exit_two(tmp_path, capsys, text):
    # json reads these, but they are no RFC 8259 JSON to echo into a report
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"recognition_min_score": %s}' % text)
    log_file = tmp_path / "events.log"
    log_file.write_text("t=0 subj=A score=0.9\nt=1 subj=B score=0.9\n")
    out = tmp_path / "rules.json"
    assert main(["--config", str(cfgfile), "mine", str(log_file),
                 "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_mine_log_token_without_equals_exit_two(tmp_path):
    log_file = tmp_path / "events.log"
    log_file.write_text("t=0 subj=A score=1.0\nt=1 subjA score=1.0\n")
    assert main(["mine", str(log_file)]) == 2


@pytest.mark.parametrize("line", ["t=3 subj=A subj=B score=1",
                                  "t=3 subj=A score=1 extra=9"])
def test_mine_log_repeated_or_unknown_field_exit_two(tmp_path, capsys, line):
    log_file = tmp_path / "events.log"
    log_file.write_text(f"t=0 subj=A score=1.0\n{line}\n")
    out = tmp_path / "rules.json"
    assert main(["mine", str(log_file), "--out", str(out)]) == 2
    assert "log line 2: " in capsys.readouterr().err
    assert not out.exists()


def test_pgm_non_integer_maxval_exit_two(tmp_path):
    img = tmp_path / "bad.pgm"
    img.write_text("P2\n2 2\nwhite\n0 1\n1 0\n")
    assert main(["analyze", str(img)]) == 2


def test_iso_canonical_node_cap_exit_two(tmp_path, capsys, monkeypatch):
    ids = [f"v{i}" for i in range(10)]
    c10 = structure({i: "T" for i in ids},
                    [(ids[i], ids[(i + 1) % 10], "L") for i in range(10)])
    a = write_struct(tmp_path, "a.struct", c10)
    monkeypatch.setattr(STRUCTURE_MODULE, "_CANON_NODE_CAP", 2)
    assert main(["iso", a, a]) == 2
    assert "canonical search exceeds node cap of 2" in capsys.readouterr().err


def test_solve_problem_missing_key_exit_two(tmp_path, capsys):
    problem = {
        "start": {"recognitions": [{"subject": "s0", "score": 1.0}]},
        "productions": [],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert "missing key 'goal'" in capsys.readouterr().err


def test_solve_non_numeric_budget_or_score_exit_two(tmp_path, capsys):
    def problem(budget=5, start_score=1.0, add_score=1.0):
        return {
            "start": {"recognitions": [{"subject": "s0",
                                        "score": start_score}]},
            "goal": {"members": [{"subject": "s1"}]},
            "productions": [{
                "name": "grow",
                "guard": {"members": [{"subject": "s0"}]},
                "effect": {"add": [["s1", add_score]], "remove": []},
            }],
            "budget": budget,
        }

    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem()))
    assert main(["solve", str(pfile)]) == 0
    capsys.readouterr()
    for bad in ({"budget": "ten"}, {"start_score": "hi"},
                {"add_score": "hi"}):
        pfile.write_text(json.dumps(problem(**bad)))
        assert main(["solve", str(pfile)]) == 2, bad
        assert "problem: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("goal_member, budget", [
    ({"subject": "a", "min_score": "hi"}, 5),
    ({"subject": "a", "min_score": None}, 5),
    ({"subject": "a", "window": "ab"}, 5),
    ({"subject": "a", "window": [0]}, 5),
    ({"subject": "a"}, True),
])
def test_solve_malformed_member_or_budget_exit_two(tmp_path, capsys,
                                                   goal_member, budget):
    problem = {
        "start": {"recognitions": [{"subject": "a", "score": 1.0}]},
        "goal": {"members": [goal_member]},
        "productions": [{
            "name": "noop",
            "guard": {"members": [{"subject": "a"}]},
            "effect": {"add": [], "remove": []},
        }],
        "budget": budget,
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert "problem: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, value", [
    ("recognition", "subject", 3),
    ("recognition", "score", True),
    ("effect", "add", [["b", True]]),
    ("effect", "add", [[3, 1.0]]),
    ("effect", "add", "b"),
    ("effect", "remove", "ab"),
    ("effect", "remove", [3]),
    ("recognizer", "subject", 3),
])
def test_solve_mistyped_problem_field_exit_two(tmp_path, capsys,
                                               where, key, value):
    fields = {"recognition": {"subject": "a", "score": 1.0},
              "effect": {"add": [["b", 1.0]], "remove": ["a"]},
              "recognizer": {"subject": "r", "pattern": "part u N\n"}}
    problem = {
        "start": {"recognitions": [fields["recognition"]]},
        "goal": {"members": [{"subject": "b"}]},
        "productions": [{"name": "go",
                         "guard": {"members": [{"subject": "a"}]},
                         "effect": fields["effect"]}],
        "recognizers": [fields["recognizer"]],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 0
    fields[where][key] = value
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert "problem: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("where, key", [
    ("start", "struct"), ("production", "name"), ("guard", "pattern"),
    ("effect", "schema"), ("recognizer", "pattern"),
])
def test_solve_non_string_text_exit_two(tmp_path, capsys, where, key):
    fields = {
        "start": {"struct": "part u0 N\n"},
        "guard": {"pattern": "part a N\n"},
        "effect": {"schema": ("oriented\npart b BIND\npart m MOVE\n"
                              "part c COPY\nrel b m next\nrel m c next\n"
                              "entry b\nbind b BIND t=N\n"
                              "bind m MOVE first\nbind c COPY t\n")},
        "recognizer": {"subject": "grown",
                       "pattern": "part a N\npart b N\nrel a b adj\n"},
    }
    fields["production"] = {"name": "grow", "guard": fields["guard"],
                            "effect": fields["effect"]}
    problem = {"start": fields["start"],
               "goal": {"members": [{"subject": "grown"}]},
               "productions": [fields["production"]],
               "recognizers": [fields["recognizer"]]}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["plan"] == ["grow"]
    fields[where][key] = 7
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert "problem: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# a comment\n", "oriented\n"])
def test_solve_schema_without_parts_exit_two(tmp_path, capsys, text):
    problem = {
        "start": {"struct": "part u0 N\n"},
        "goal": {"members": [{"subject": "g"}]},
        "productions": [{"name": "grow", "guard": {"pattern": "part a N\n"},
                         "effect": {"schema": text}}],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert capsys.readouterr().err == "error: schema has no part lines\n"


def test_solve_struct_naming_undeclared_part_exit_two(tmp_path):
    problem = {
        "start": {"struct": "part a T\nrel a b L\n"},
        "goal": {"members": [{"subject": "g"}]},
        "productions": [],
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2


def nbr_problem(operand: str) -> dict:
    """A problem solved by one schema effect that attaches an X part to the
    first part's neighbour `MOVE nbr:0` reaches."""
    return {
        "start": {"struct": "part u0 N\npart u1 E\nrel u0 u1 adj\n"},
        "goal": {"members": [{"subject": "ex"}]},
        "recognizers": [{"subject": "ex",
                         "pattern": "part a E\npart b X\nrel a b adj\n"}],
        "productions": [{
            "name": "grow", "guard": {"pattern": "part a N\n"},
            "effect": {"schema": (
                "oriented\npart b BIND\npart f MOVE\npart m MOVE\n"
                "part c COPY\nrel b f next\nrel f m next\nrel m c next\n"
                f"bind b BIND t=X\nbind f MOVE first\nbind m MOVE {operand}\n"
                "bind c COPY t\n")},
        }],
    }


@pytest.mark.parametrize("operand", ["nbr:x", "nbr:", "nbr:1.5", "nbr:-1"])
def test_solve_bad_move_operand_exit_two(tmp_path, capsys, operand):
    # nbr:-1 would wrap to the last neighbour; the others would fail only
    # once the MOVE ran, as an internal error
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(nbr_problem("nbr:0")))
    out = tmp_path / "plan.json"
    assert main(["solve", str(pfile), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["plan"] == ["grow"]
    pfile.write_text(json.dumps(nbr_problem(operand)))
    assert main(["solve", str(pfile)]) == 2
    assert capsys.readouterr().err == \
        f"error: part m: bad MOVE operand {operand!r}\n"


@pytest.mark.parametrize("operand, extra, error", [
    ("nbr:0", "bind zz COPY q\n", "line 13: bind for undeclared part zz"),
    ("nbr:0", "bind m MOVE last\n", "line 13: second bind for part m"),
    ("nbr:0 last", "", "line 11: too many operands for MOVE: nbr:0 last"),
], ids=["undeclared", "second", "operands"])
def test_solve_misread_bind_exit_two(tmp_path, capsys, operand, extra, error):
    # each would run an effect other than the schema text states
    problem = nbr_problem(operand)
    problem["productions"][0]["effect"]["schema"] += extra
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("heuristic", ["missing-goal-member", "", 3, None])
def test_solve_unknown_heuristic_exit_two(tmp_path, capsys, heuristic):
    # a typo must not quietly solve with no heuristic at all
    problem = {
        "start": {"recognitions": [{"subject": "a", "score": 1.0}]},
        "goal": {"members": [{"subject": "a"}]},
        "productions": [{"name": "noop",
                         "guard": {"members": [{"subject": "a"}]},
                         "effect": {"add": [], "remove": []}}],
        "heuristic": heuristic,
    }
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile)]) == 2
    assert capsys.readouterr().err == \
        f"error: problem: unknown heuristic {heuristic!r}\n"
    problem["heuristic"] = "missing-goal-members"
    pfile.write_text(json.dumps(problem))
    assert main(["solve", str(pfile), "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("argv, name, data", [
    (["analyze", "{}"], "raster.pbm", b"P1\n2 1\n1\xe9\n"),
    (["iso", "{}", "{}"], "a.struct", b"part a T\xff\n"),
    (["mine", "{}"], "events.log", b"t=0 subj=A\xff score=1.0\n"),
    (["solve", "{}"], "problem.json", b'{"start": "\xff"}'),
    (["--config", "{}", "mine", "ok.log"], "cfg.json", b'{"\xff": 1}'),
])
def test_undecodable_input_exit_two(tmp_path, monkeypatch, capsys,
                                    argv, name, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(data)
    (tmp_path / "ok.log").write_text("t=0 subj=A score=1.0\n")
    assert main([a.format(name) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte" in err


def test_internal_key_error_exit_three(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr("structkit.cli.isomorphic", broken)
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    assert main(["iso", a, a]) == 3


def test_debug_prints_internal_error_traceback(tmp_path, monkeypatch, capsys):
    a = write_struct(tmp_path, "a.struct", path3(["a", "b", "c"]))
    b = write_struct(tmp_path, "b.struct", path3(["x", "y", "z"]))
    # the flag changes neither the answer nor the report's bytes
    for flags, name in (([], "plain.json"), (["--debug"], "debug.json")):
        assert main(flags + ["iso", a, b, "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "plain.json").read_bytes()
            == (tmp_path / "debug.json").read_bytes())

    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr("structkit.cli.isomorphic", broken)
    capsys.readouterr()
    assert main(["iso", a, b]) == 3
    assert capsys.readouterr().err == "internal error: 'bug'\n"
    assert main(["--debug", "iso", a, b]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken" in err
    assert err.endswith("KeyError: 'bug'\ninternal error: 'bug'\n")


# --- seeded mutation fuzz over every input format ----------------------------

def mutate_text(text: str, rng: random.Random) -> str:
    """One edit: truncate, or duplicate, drop or swap a line or a token."""
    unit = rng.choice(("truncate", "line", "token"))
    if unit == "truncate":
        return text[:rng.randrange(len(text))]
    if unit == "line":
        pieces = text.splitlines(keepends=True)
        spots = range(len(pieces))
    else:   # tokens at the even indices, the whitespace between them odd
        pieces = re.split(r"(\s+)", text)
        spots = range(0, len(pieces), 2)
    i, j = rng.choice(spots), rng.choice(spots)
    edit = rng.choice(("duplicate", "drop", "swap"))
    if edit == "duplicate":
        pieces[i] += pieces[i] if unit == "line" else " " + pieces[i]
    elif edit == "drop":
        pieces[i] = ""
    else:
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


def mutate_json(text: str, rng: random.Random) -> str:
    """A text edit, or one edit of the parsed document: drop a key or an
    item, duplicate an item, swap two scalars, or replace a value (the
    whole document included) with one of another type."""
    if rng.random() < 0.25:
        return mutate_text(text, rng)
    root = [json.loads(text)]
    spots = []
    stack = [(root, 0)]
    while stack:
        holder, key = stack.pop()
        spots.append((holder, key))
        value = holder[key]
        if isinstance(value, (dict, list)):
            keys = sorted(value) if isinstance(value, dict) else range(len(value))
            stack.extend((value, k) for k in keys)
    holder, key = rng.choice(spots)
    scalars = [(h, k) for h, k in spots
               if not isinstance(h[k], (dict, list))]
    edit = rng.choice(("drop", "duplicate", "swap", "retype"))
    if edit == "drop" and holder is not root:
        del holder[key]
    elif edit == "duplicate" and holder is not root and isinstance(holder, list):
        holder.insert(key, holder[key])
    elif edit == "swap" and scalars:
        (h1, k1), (h2, k2) = rng.choice(scalars), rng.choice(scalars)
        h1[k1], h2[k2] = h2[k2], h1[k1]
    else:
        holder[key] = rng.choice([v for v in (None, True, 7, 0.5, "x", [], {})
                                  if type(v) is not type(holder[key])])
    return json.dumps(root[0], indent=1)


FUZZ_STRUCT = ("part u A\npart v B\npart w A\npart x C\n"
               "rel u v L k=2\nrel v w L\nrel w x M\n")
FUZZ_SIDECAR = "block u v\nblock w x\nmask merge-label L M -> J\n"
# a square outline at grey level 3
FUZZ_PGM = "P2\n7 6\n3\n" + "".join(
    " ".join("3" if 1 <= x <= 5 and 1 <= y <= 4 and (x in (1, 5) or y in (1, 4))
             else "0" for x in range(7)) + "\n" for y in range(6))
FUZZ_LOG = "".join(f"t={t} subj={s} score={v}\n" for t, s, v in (
    (0, "A", 1.0), (1, "B", 0.9), (2, "A", 0.8), (3, "B", 1.0), (3, "C", 0.4),
    (5, "A", 1.0), (6, "B", 0.7), (8, "C", 1.0), (9, "A", 0.6), (10, "B", 1)))
# recognition states keep every mutant's search finite; the schema effect
# is parsed, then poisons its production on such a state
FUZZ_PROBLEM = json.dumps({
    "start": {"recognitions": [{"subject": "s0", "score": 1.0}]},
    "goal": {"members": [{"subject": "s2"},
                         {"subject": "bad", "positive": False}]},
    "undesired": [{"members": [{"subject": "bad", "min_score": 0.9}]}],
    "heuristic": "missing-goal-members",
    "productions": [
        {"name": "up", "guard": {"members": [{"subject": "s0"}]},
         "effect": {"add": [["s1", 1.0]], "remove": ["s0"]}},
        {"name": "on", "guard": {"members": [{"subject": "s1",
                                              "window": [0, 0]}]},
         "effect": {"add": [["s2", 0.75]]}},
        {"name": "rewrite", "guard": {"pattern": "part a N\n"},
         "effect": {"schema": ("oriented\npart b BIND\npart c COPY\n"
                               "rel b c next\nentry b\nbind b BIND t=N\n"
                               "bind c COPY t\n")}}],
    "budget": 40}, indent=1)
FUZZ_CONFIG = json.dumps({"fuel_default": 500, "signature_threshold": 0.8,
                          "rule_threshold": 0.5}, indent=1)


def fuzz_cases(tmp_path):
    """Per format: its seed text, how to mutate it, and the argv that reads
    the file written at the given path."""
    struct = tmp_path / "seed.struct"
    struct.write_text(FUZZ_STRUCT)
    sidecar = tmp_path / "seed.sidecar"
    sidecar.write_text(FUZZ_SIDECAR)
    pbm = tmp_path / "seed.pbm"
    pbm.write_text(serialize_raster(
        rasterize_polygon(_BASE_SHAPES[("triangle", "regular")], 0, 1)))
    problem = json.loads(FUZZ_PROBLEM)
    schema_text = problem["productions"][2]["effect"]["schema"]

    def schema_problem(path):
        # the mutant is the schema text of the problem's effect
        text = path.read_text()
        problem["productions"][2]["effect"]["schema"] = text
        path.write_text(json.dumps(problem))
        return ["solve", str(path)]

    return {
        "iso": (FUZZ_STRUCT, mutate_text,
                lambda f: ["iso", str(f), str(struct)]),
        "derive-struct": (FUZZ_STRUCT, mutate_text,
                          lambda f: ["derive", str(f), str(sidecar)]),
        "derive-sidecar": (FUZZ_SIDECAR, mutate_text,
                           lambda f: ["derive", str(struct), str(f)]),
        "analyze-pbm": (pbm.read_text(), mutate_text,
                        lambda f: ["analyze", str(f)]),
        "analyze-pgm": (FUZZ_PGM, mutate_text, lambda f: ["analyze", str(f)]),
        "mine": (FUZZ_LOG, mutate_text,
                 lambda f: ["mine", str(f), "--window", "3",
                            "--min-support", "2", "--min-p", "0.5"]),
        "solve": (FUZZ_PROBLEM, mutate_json, lambda f: ["solve", str(f)]),
        "solve-schema": (schema_text, mutate_text, schema_problem),
        "config": (FUZZ_CONFIG, mutate_json,
                   lambda f: ["--config", str(f), "analyze", str(pbm)]),
    }


@pytest.mark.parametrize("fmt", ["iso", "derive-struct", "derive-sidecar",
                                 "analyze-pbm", "analyze-pgm", "mine",
                                 "solve", "solve-schema", "config"])
def test_mutated_inputs_never_exit_three(tmp_path, fmt):
    # 0/1 answer, 2 rejects malformed input; 3 is a bug in the program
    seed_text, mutate, argv = fuzz_cases(tmp_path)[fmt]
    rng = random.Random(fmt)
    out = tmp_path / "report.json"
    codes = {}
    for i in range(61):
        text = seed_text if i == 0 else mutate(seed_text, rng)
        path = tmp_path / f"mutant-{i}"
        path.write_text(text)
        code = main(argv(path) + ["--out", str(out)])
        if i == 0:
            assert code in (0, 1), "the seed input is valid"
        codes.setdefault(code, []).append(text)
    assert 3 not in codes, codes[3]
    assert set(codes) <= {0, 1, 2}
    assert 2 in codes   # some mutants are rejected, not all answered


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        MINE_DIGESTS.write_text(mine_golden_digests(Path(tmp)))
        ANALYZE_DIGESTS.write_text(analyze_golden_digests(Path(tmp)))
        DERIVE_DIGESTS.write_text(derive_golden_digests(Path(tmp)))
