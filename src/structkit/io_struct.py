"""Line-based text formats: `.struct` structures and their sidecars.

A structure file holds `part <id> <type-id>` lines followed by
`rel <id> <id> <label> [<attr>=<int> ...]` lines, with an optional `oriented`
header and `#` comments.  Parsing then serializing a structure is the
identity; serializing a parsed file reproduces it modulo comments,
whitespace and attribute order.

Sidecar lines describe masks and partitions:

    mask drop-attr <name>
    mask drop-rel-attr <name>
    mask merge-type <t1> <t2> -> <t>
    mask merge-label <l1> <l2> -> <l>
    block <id> <id> ...
"""

from __future__ import annotations

from .structure import Relation, Structure, StructureError


class ParseError(StructureError):
    pass


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_structure(text: str) -> Structure:
    parts: list[str] = []
    types: list[str] = []
    rels: list[Relation] = []
    rel_lines: list[int] = []
    oriented = False
    seen = set()
    for lineno, tok in _tokens(text):
        kind = tok[0]
        if kind == "oriented" and len(tok) == 1:
            oriented = True
        elif kind == "part":
            if len(tok) != 3:
                raise ParseError(f"line {lineno}: part needs <id> <type-id>")
            if tok[1] in seen:
                raise ParseError(f"line {lineno}: duplicate part {tok[1]}")
            seen.add(tok[1])
            parts.append(tok[1])
            types.append(tok[2])
        elif kind == "rel":
            if len(tok) < 4:
                raise ParseError(f"line {lineno}: rel needs <id> <id> <label>")
            attrs = {}
            for item in tok[4:]:
                if "=" not in item:
                    raise ParseError(f"line {lineno}: attribute must be name=int")
                k, v = item.split("=", 1)
                if k in attrs:
                    raise ParseError(f"line {lineno}: duplicate attribute {k}")
                try:
                    attrs[k] = int(v)
                except ValueError:
                    raise ParseError(f"line {lineno}: attribute {k} is not an int")
            rels.append(Relation(tok[1], tok[2], tok[3], tuple(sorted(attrs.items()))))
            rel_lines.append(lineno)
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    for lineno, r in zip(rel_lines, rels):
        for end in (r.a, r.b):
            if end not in seen:
                raise ParseError(f"line {lineno}: unknown part {end}")
    return Structure(tuple(parts), tuple(types), tuple(rels), oriented)


def serialize_structure(s: Structure) -> str:
    lines = []
    if s.oriented:
        lines.append("oriented")
    for p, t in zip(s.parts, s.part_types):
        lines.append(f"part {p} {t}")
    for r in s.relations:
        attrs = "".join(f" {k}={v}" for k, v in r.attrs)
        lines.append(f"rel {r.a} {r.b} {r.label}{attrs}")
    return "\n".join(lines) + "\n"


def parse_sidecar(text: str) -> dict:
    """Mask directives and partition blocks from a sidecar file.

    Returns {"drop_part_attrs", "drop_rel_attrs", "merge_types",
    "merge_labels", "blocks"}; the mask pieces feed MorphismMask, the blocks
    feed Partition.
    """
    drop_part: set[str] = set()
    drop_rel: set[str] = set()
    merge_types: dict[str, str] = {}
    merge_labels: dict[str, str] = {}
    blocks: list[tuple[str, ...]] = []
    for lineno, tok in _tokens(text):
        if tok[0] == "block":
            if len(tok) < 2:
                raise ParseError(f"line {lineno}: block needs at least one id")
            blocks.append(tuple(tok[1:]))
        elif tok[0] == "mask":
            if len(tok) >= 3 and tok[1] == "drop-attr":
                drop_part.update(tok[2:])
            elif len(tok) >= 3 and tok[1] == "drop-rel-attr":
                drop_rel.update(tok[2:])
            elif len(tok) == 6 and tok[1] in ("merge-type", "merge-label") and tok[4] == "->":
                table = merge_types if tok[1] == "merge-type" else merge_labels
                for src in (tok[2], tok[3]):
                    if src in table and table[src] != tok[5]:
                        raise ParseError(f"line {lineno}: {src} merged twice")
                    table[src] = tok[5]
            else:
                raise ParseError(f"line {lineno}: bad mask directive")
        else:
            raise ParseError(f"line {lineno}: unknown directive {tok[0]!r}")
    return {
        "drop_part_attrs": frozenset(drop_part),
        "drop_rel_attrs": frozenset(drop_rel),
        "merge_types": merge_types,
        "merge_labels": merge_labels,
        "blocks": blocks,
    }

