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
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path

from .config import DEFAULT, Config
from .corpus import class_signatures, expected_subjects, generate_corpus
from .derivation import MorphismMask, apply_morphism, partition, quotient
from .io_struct import (
    ParseError,
    _tokens,
    parse_sidecar,
    parse_structure,
    serialize_structure,
)
from .pixels import (
    evaluate_signature,
    load_raster,
    polygon_quotient,
    region_sizes,
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
    _SOLVE_BUDGET,
    solve,
)
from .structure import StructureError, TypeCatalog, isomorphic


class _Raw(str):
    """Text that is JSON already, as simplejson's `RawJSON`: `_json` writes
    it as it is."""
    __slots__ = ()


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for str keys, joined per
    container: given an indent, CPython's json uses its pure-Python encoder.
    A `_Raw` value is written as it is, so it must already be the text
    json gives at `indent`.
    """
    if isinstance(value, str):
        return value if type(value) is _Raw else _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return ("NaN" if value != value else "Infinity" if value == inf
                else "-Infinity" if value == -inf else float.__repr__(value))
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [_quote(k) + ": " + _json(value[k], inner)
                       for k in sorted(value)], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return (ends[0] + inner + ("," + inner).join(items) + indent + ends[1]
            if items else ends)


def _dump(payload: dict, out: str | None) -> None:
    text = _json(payload) + "\n"
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
    report["witness"] = witness
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
        k = partition(s, sidecar["blocks"])
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
    sizes = region_sizes(raster)
    pa = polygon_quotient(raster, catalog, cfg)
    return {
        "width": raster.width,
        "height": raster.height,
        "regions": len(sizes),
        "blocks": [{"value": v, "size": n} for v, n in sizes],
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
    for lineno, tok in _tokens(text):
        if len(tok) != 3:   # three keys found in three fields: none repeats
            raise ParseError(
                f"log line {lineno}: needs t=, subj= and score= once each")
        try:
            fields = dict(item.split("=", 1) for item in tok)
            log.append(Recognition(fields["subj"], float(fields["score"]),
                                   int(fields["t"])))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"log line {lineno}: {exc}")
    log.sort(key=lambda r: (r.t, r.subject))
    return log


def _rules_json(rules: list[AssociativeRule], indent: str) -> list[_Raw]:
    """The report's rule list for `_json` to write at `indent`: per rule,
    the text json gives for the rule's dict there.  Each distinct member
    and consequents tuple is rendered once; a member is keyed with the type
    of its `min_score`, since equal members holding 1 and 1.0 print
    differently."""
    rule_in = indent + "  "
    key_in = rule_in + "  "
    list_in = key_in + "  "
    member_in = list_in + "  "
    members: dict[tuple, str] = {}
    consequents: dict[tuple, str] = {}
    out = []
    for rule in rules:
        ms = []
        for m in rule.condition.members:
            key = (m, type(m.min_score))
            text = members.get(key)
            if text is None:
                text = members[key] = _json(
                    {"subject": m.subject, "positive": m.positive,
                     "min_score": m.min_score, "window": m.window},
                    member_in)
            ms.append(text)
        cs = consequents.get(rule.consequents)
        if cs is None:
            cs = consequents[rule.consequents] = _json(
                [{"subject": c.subject, "window": c.window}
                 for c in rule.consequents], key_in)
        # the keys in sorted order, as `_json` writes them
        out.append(_Raw(
            f'{{{key_in}"condition": {{{list_in}"members": [{member_in}'
            f'{("," + member_in).join(ms)}{list_in}]{key_in}}},'
            f'{key_in}"consequents": {cs},'
            f'{key_in}"n_hit": {rule.n_hit!r},'
            f'{key_in}"p": {round(rule.p, 6)!r},'
            f'{key_in}"smoothed": true,'
            f'{key_in}"support": {rule.n_cond!r}{rule_in}}}'))
    return out


def cmd_mine(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    log = parse_recognition_log(Path(args.log).read_text())
    rules = mine_rules(log, window=args.window, min_support=args.min_support,
                       min_p=args.min_p, cfg=cfg)
    report = dict(echo)
    report["events"] = len(log)
    # the list is the value of a top-level key, so it sits one level in
    report["rules"] = _rules_json(rules, "\n  ")
    _dump(report, args.out)
    return 0


def _scored(subject, score) -> bool:
    """A str subject and an int or float score; JSON values have exact
    types, so a bool is no int here."""
    return isinstance(subject, str) and type(score) in (int, float)


def _text(obj: dict, key: str, what: str) -> str:
    """`obj[key]`, which the problem must give as a str: names, structure
    and schema texts."""
    text = obj[key]
    if not isinstance(text, str):
        raise ParseError(f"problem: malformed {what} {obj}")
    return text


def _micro_from_json(obj: dict) -> MicroSituation:
    members = []
    for m in obj["members"]:
        subject, positive = m["subject"], m.get("positive", True)
        score, window = m.get("min_score", 0.5), m.get("window", [0, 0])
        if not (_scored(subject, score) and type(positive) is bool
                and 0 <= score <= 1
                and type(window) is list and len(window) == 2
                and all(type(w) is int for w in window)):
            raise ParseError(f"problem: malformed member {m}")
        members.append(MsMember(subject, positive, score, tuple(window)))
    return MicroSituation(tuple(members))


def _problem_from_json(obj: dict) -> tuple[ProblemSpec, int]:
    start_obj = obj["start"]
    if "recognitions" in start_obj:
        scores = {}
        for r in start_obj["recognitions"]:
            subject, score = r["subject"], r.get("score", 1.0)
            if not _scored(subject, score):
                raise ParseError(f"problem: malformed recognition {r}")
            scores[subject] = score
        start = RecognitionState.of(scores)
    elif "struct" in start_obj:
        start = parse_structure(_text(start_obj, "struct", "start"))
    else:
        raise ParseError("start needs 'recognitions' or 'struct'")
    productions = []
    for p in obj["productions"]:
        name = _text(p, "name", "production")
        guard_obj = p["guard"]
        if "members" in guard_obj:
            guard = _micro_from_json(guard_obj)
        elif "pattern" in guard_obj:
            guard = parse_structure(_text(guard_obj, "pattern", "guard"))
        else:
            raise ParseError(f"production {name} guard malformed")
        eff_obj = p["effect"]
        if "schema" in eff_obj:
            effect = parse_schema(_text(eff_obj, "schema", "effect"))
        elif "add" in eff_obj or "remove" in eff_obj:
            add, remove = eff_obj.get("add", []), eff_obj.get("remove", [])
            if not (type(add) is list and type(remove) is list
                    and all(type(e) is list and len(e) == 2 and _scored(*e)
                            for e in add)
                    and all(isinstance(s, str) for s in remove)):
                raise ParseError(f"problem: malformed effect {eff_obj}")
            effect = SetEffect(tuple((s, float(v)) for s, v in add),
                               tuple(remove))
        else:
            raise ParseError(f"production {name} effect malformed")
        productions.append(Production(name, guard, effect))
    recognizers = []
    for r in obj.get("recognizers", []):
        recognizers.append(StructRecognizer(
            _text(r, "subject", "recognizer"),
            parse_structure(_text(r, "pattern", "recognizer"))))
    goal = _micro_from_json(obj["goal"])
    undesired = tuple(_micro_from_json(u) for u in obj.get("undesired", []))
    heuristic = None
    if "heuristic" in obj:
        if obj["heuristic"] != "missing-goal-members":
            raise ParseError(f"problem: unknown heuristic {obj['heuristic']!r}")
        positives = [m for m in goal.members if m.positive]

        def heuristic(state):
            if isinstance(state, RecognitionState):
                present = {s for s, v in state.recognitions if v >= 0.5}
            else:
                present = set()
            return sum(1 for m in positives if m.subject not in present)
    spec = ProblemSpec(start, goal, tuple(productions),
                       recognizers=tuple(recognizers),
                       undesired=undesired, heuristic=heuristic)
    budget = obj.get("budget", _SOLVE_BUDGET)
    if type(budget) is not int:
        raise ParseError(f"problem: malformed budget {budget!r}")
    return spec, budget


def cmd_solve(args) -> int:
    cfg, echo = _load_config(args.config, args.seed)
    obj = json.loads(Path(args.problem).read_text())
    try:
        spec, budget = _problem_from_json(obj)
    except StructureError:
        raise   # already a ParseError or a malformed structure: exit 2
    except KeyError as exc:
        raise ParseError(f"problem: missing key {exc}")
    except (TypeError, ValueError) as exc:   # e.g. int("ten"), float("hi")
        raise ParseError(f"problem: malformed: {exc}")
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
    items = generate_corpus()
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
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error")
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


# built once per process: parsing leaves the parser unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (StructureError, json.JSONDecodeError, FileNotFoundError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # pragma: no cover - defensive
        if args.debug:
            import traceback   # only on this path: keeps start-up lean
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
