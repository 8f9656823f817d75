import json
from pathlib import Path

import jsonschema

from structkit.cli import main, parse_recognition_log
from structkit.io_struct import serialize_structure
from structkit.structure import structure

from loggen import planted_implication

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src/structkit/schemas/report.schema.json").read_text())


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


def test_analyze_triangle(tmp_path):
    from structkit.corpus import rasterize_polygon, _BASE_SHAPES
    from structkit.pixels import serialize_raster
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


def test_mine_log_token_without_equals_exit_two(tmp_path):
    log_file = tmp_path / "events.log"
    log_file.write_text("t=0 subj=A score=1.0\nt=1 subjA score=1.0\n")
    assert main(["mine", str(log_file)]) == 2


def test_pgm_non_integer_maxval_exit_two(tmp_path):
    img = tmp_path / "bad.pgm"
    img.write_text("P2\n2 2\nwhite\n0 1\n1 0\n")
    assert main(["analyze", str(img)]) == 2
