"""Command-line surface: comparison, derivation, raster analysis, rule
mining, problem solving and the polygon demonstration corpus.

Every subcommand is deterministic given its inputs, the config and the seed,
and echoes the effective config into its JSON report.  Exit codes: 0 success
or positive answer, 1 negative answer, 2 usage/parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import DEFAULT, Config
from .corpus import class_signatures, expected_subjects, generate_corpus
from .derivation import MorphismMask, apply_morphism, partition, quotient
from .io_struct import ParseError, parse_sidecar, parse_structure, serialize_structure
from .pixels import (
    evaluate_signature,
    load_raster,
    polygon_quotient,
    segment_regions,
    serialize_raster,
)
from .rules import (
    AssociativeRule,
    MicroSituation,
    MsMember,
    Recognition,
    mine_rules,
)
from .schema import parse_schema
from .solver import (
    Production,
    ProblemSpec,
    RecognitionState,
    SetEffect,
    StructRecognizer,
    solve,
)
from .structure import StructureError, TypeCatalog, isomorphic


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None, seed: int) -> tuple[Config, dict]:
    cfg = DEFAULT
    if path:
        overrides = json.loads(Path(path).read_text())
        if not isinstance(overrides, dict):
            raise ParseError("config overrides must be a JSON object")
        unknown = sorted(set(overrides) - set(cfg.as_dict()))
        if unknown:
            raise ParseError(f"unknown config keys: {unknown}")
        cfg = cfg.replace(**overrides)
    echo = {"config": cfg.as_dict(), "seed": seed}
    return cfg, echo


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_iso(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    a = parse_structure(Path(args.a).read_text())
    b = parse_structure(Path(args.b).read_text())
    witness = isomorphic(a, b)
    report = dict(echo)
    report["isomorphic"] = witness is not None
    report["witness"] = witness if witness is not None else None
    _dump(report, args.out)
    return 0 if witness is not None else 1


def cmd_derive(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    s = parse_structure(Path(args.structure).read_text())
    sidecar = parse_sidecar(Path(args.sidecar).read_text())
    catalog = TypeCatalog()
    derived = s
    steps = []
    if sidecar["blocks"]:
        k = partition(s, sidecar["blocks"], allow_disconnected=True)
        derived = quotient(derived, k, catalog)
        steps.append(f"quotient into {len(k.blocks)} blocks")
    mask = MorphismMask.make(sidecar["merge_types"], sidecar["drop_part_attrs"],
                             sidecar["merge_labels"], sidecar["drop_rel_attrs"])
    if not mask.is_empty():
        derived = apply_morphism(derived, mask, catalog)
        steps.append("morphism")
    text = serialize_structure(derived)
    if args.out_struct:
        Path(args.out_struct).write_text(text)
    report = dict(echo)
    report["steps"] = steps
    report["derived"] = text
    _dump(report, args.out)
    return 0


def _signature_report(assertions, cfg: Config) -> list[dict]:
    out = []
    for sig in class_signatures(cfg):
        score, fired = evaluate_signature(sig, assertions)
        out.append({"subject": sig.subject, "score": round(score, 6),
                    "fired": fired})
    return out


def _analysis_payload(raster, cfg: Config) -> dict:
    catalog = TypeCatalog()
    regions = segment_regions(raster)
    pa = polygon_quotient(raster, catalog, cfg)
    block_info = sorted(
        ({"value": int(b.induced.part_types[0][1:]), "size": b.induced.n}
         for b in regions.blocks),
        key=lambda d: (d["value"], d["size"]))
    return {
        "width": raster.width,
        "height": raster.height,
        "regions": len(regions.blocks),
        "blocks": block_info,
        "chains": [{
            "pixels": len(ch.pixels),
            "a": list(ch.a), "b": list(ch.b),
            "closed": ch.closed,
        } for ch in pa.chains],
        "problems": pa.problems,
        "quotient_struct": serialize_structure(pa.quotient)
        if pa.quotient is not None else None,
        "assertions": [a.as_json() for a in pa.assertions],
        "signatures": _signature_report(pa.assertions, cfg),
    }


def cmd_analyze(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    raster = load_raster(Path(args.image).read_bytes())
    report = dict(echo)
    report.update(_analysis_payload(raster, cfg))
    _dump(report, args.out)
    return 0 if not report["problems"] else 1


def parse_recognition_log(text: str) -> list[Recognition]:
    log = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = dict(item.split("=", 1) for item in line.split())
            log.append(Recognition(fields["subj"], float(fields["score"]),
                                   int(fields["t"])))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"log line {lineno}: {exc}")
    log.sort(key=lambda r: (r.t, r.subject))
    return log


def rule_to_json(rule: AssociativeRule) -> dict:
    return {
        "condition": {"members": [{
            "subject": m.subject, "positive": m.positive,
            "min_score": m.min_score, "window": list(m.window),
        } for m in rule.condition.members]},
        "consequents": [{"subject": c.subject, "window": list(c.window)}
                        for c in rule.consequents],
        "p": round(rule.p, 6),
        "support": rule.support,
        "n_hit": rule.n_hit,
        "smoothed": rule.smoothed,
    }


def cmd_mine(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    log = parse_recognition_log(Path(args.log).read_text())
    rules = mine_rules(log, window=args.window, min_support=args.min_support,
                       min_p=args.min_p, cfg=cfg)
    report = dict(echo)
    report["events"] = len(log)
    report["rules"] = [rule_to_json(r) for r in rules]
    _dump(report, args.out)
    return 0


def _micro_from_json(obj: dict) -> MicroSituation:
    members = tuple(MsMember(
        m["subject"], m.get("positive", True), m.get("min_score", 0.5),
        tuple(m.get("window", (0, 0)))) for m in obj["members"])
    return MicroSituation(members)


def _problem_from_json(obj: dict, cfg: Config) -> tuple[ProblemSpec, int]:
    start_obj = obj["start"]
    if "recognitions" in start_obj:
        start = RecognitionState.of({r["subject"]: r.get("score", 1.0)
                                     for r in start_obj["recognitions"]})
    elif "struct" in start_obj:
        start = parse_structure(start_obj["struct"])
    else:
        raise ParseError("start needs 'recognitions' or 'struct'")
    productions = []
    for p in obj["productions"]:
        guard_obj = p["guard"]
        if "members" in guard_obj:
            guard = _micro_from_json(guard_obj)
        elif "pattern" in guard_obj:
            guard = parse_structure(guard_obj["pattern"])
        else:
            raise ParseError(f"production {p['name']} guard malformed")
        eff_obj = p["effect"]
        if "schema" in eff_obj:
            effect = parse_schema(eff_obj["schema"])
        elif "add" in eff_obj or "remove" in eff_obj:
            effect = SetEffect(
                tuple((s, float(v)) for s, v in eff_obj.get("add", [])),
                tuple(eff_obj.get("remove", [])))
        else:
            raise ParseError(f"production {p['name']} effect malformed")
        productions.append(Production(p["name"], guard, effect))
    recognizers = tuple(
        StructRecognizer(r["subject"], parse_structure(r["pattern"]))
        for r in obj.get("recognizers", []))
    goal = _micro_from_json(obj["goal"])
    undesired = tuple(_micro_from_json(u) for u in obj.get("undesired", []))
    heuristic = None
    if obj.get("heuristic") == "missing-goal-members":
        positives = [m for m in goal.members if m.positive]

        def heuristic(state, _pos=positives):
            if isinstance(state, RecognitionState):
                present = {s for s, v in state.recognitions if v >= 0.5}
            else:
                present = set()
            return sum(1 for m in _pos if m.subject not in present)
    spec = ProblemSpec(start, goal, tuple(productions),
                       recognizers=recognizers,
                       undesired=undesired, heuristic=heuristic)
    return spec, int(obj.get("budget", cfg.solve_budget_default))


def cmd_solve(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    obj = json.loads(Path(args.problem).read_text())
    spec, budget = _problem_from_json(obj, cfg)
    result = solve(spec, budget, cfg)
    report = dict(echo)
    report["status"] = result.status
    report["plan"] = list(result.plan)
    report["cost"] = result.cost
    report["visited"] = result.visited
    _dump(report, args.out)
    return 0 if result.status == "solved" else 1


def cmd_demo_polygons(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    out_dir = Path(args.out_dir)
    (out_dir / "corpus").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    items = generate_corpus(cfg)
    summary = dict(echo)
    summary["total"] = len(items)
    per_item = []
    all_ok = True
    firings_by_family: dict[str, set] = {}
    for item in items:
        raster_text = serialize_raster(item.raster)
        (out_dir / "corpus" / f"{item.name}.pbm").write_text(raster_text)
        payload = _analysis_payload(item.raster, cfg)
        fired = frozenset(s["subject"] for s in payload["signatures"]
                          if s["fired"])
        expected = expected_subjects(item)
        ok = fired == expected and not payload["problems"]
        all_ok = all_ok and ok
        family = f"{item.kind}-{item.variant}-r{item.rotation:g}"
        firings_by_family.setdefault(family, set()).add(fired)
        report = dict(echo)
        report.update(payload)
        report["name"] = item.name
        report["expected"] = sorted(expected)
        report["fired"] = sorted(fired)
        report["correct"] = ok
        _dump(report, str(out_dir / "reports" / f"{item.name}.json"))
        per_item.append({"name": item.name, "correct": ok,
                         "fired": sorted(fired)})
    summary["items"] = per_item
    summary["all_correct"] = all_ok
    summary["scale_consistent"] = all(
        len(v) == 1 for v in firings_by_family.values())
    _dump(summary, str(out_dir / "summary.json"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structkit",
        description="structure calculus toolbox")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--config", help="JSON file with config overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iso", help="compare two .struct files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("derive", help="quotient/morphism from a sidecar")
    p.add_argument("structure")
    p.add_argument("sidecar")
    p.add_argument("--out")
    p.add_argument("--out-struct", dest="out_struct")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("analyze", help="full raster pipeline report")
    p.add_argument("image")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("mine", help="mine associative rules from a log")
    p.add_argument("log")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--min-support", type=int, default=10)
    p.add_argument("--min-p", type=float, default=0.7)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("solve", help="solve a production-system problem")
    p.add_argument("problem")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("demo-polygons", help="generate corpus and reports")
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(fn=cmd_demo_polygons)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
