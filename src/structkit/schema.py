"""Second-kind structures: schemas whose symbol parts drive compute operations.

A schema's body is an oriented structure; each part's internal type names one
of the primitive operations (memory store/load, compare, move, copy, symbolic
bind) or a nested schema call.  Execution walks the body along `next` edges,
with compare parts branching along `then`/`else`, transforming a working
structure.  A fuel budget bounds cyclic schemas.  The module also carries the
reduction of boolean tables to two-input NAND networks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .config import DEFAULT, Config
from .structure import (
    Relation,
    Structure,
    StructureError,
    canonical_form,
    _witness,
)

PRIMITIVE_OPS = ("MEM_STORE", "MEM_LOAD", "COMPARE", "MOVE", "COPY", "BIND")
MOVE_MODES = ("first", "last", "next", "prev")


class SchemaError(StructureError):
    pass


class OutOfFuel(Exception):
    """Execution exceeded its step budget; possible non-termination."""

    def __init__(self, steps: int):
        super().__init__(f"out of fuel after {steps} steps")
        self.steps = steps


@dataclass(frozen=True)
class Binding:
    op: str
    slot: Optional[str] = None       # memory slot operand
    literal: Optional[str] = None    # MOVE mode, BIND value, nbr index
    fresh: bool = False              # COPY onto a new support
    callee: Optional["Schema"] = None

    def operand_text(self) -> str:
        if self.op == "MOVE":
            return self.literal or ""
        if self.op == "BIND":
            return f"{self.slot}={self.literal}"
        if self.op == "COPY" and self.fresh:
            return f"fresh {self.slot}"
        return self.slot or ""


@dataclass(frozen=True)
class Schema:
    body: Structure
    bindings: tuple[tuple[str, Binding], ...]
    entry: str

    def __post_init__(self):
        bound = dict(self.bindings)
        if set(bound) != set(self.body.parts):
            raise SchemaError("every symbol part needs exactly one binding")
        if self.entry not in bound:
            raise SchemaError("entry part missing from body")
        if self.body.relations and not self.body.oriented:
            raise SchemaError("schema bodies with flow edges must be oriented")
        for part, b in self.bindings:
            t = self.body.types[part]
            if b.op != t:
                raise SchemaError(f"part {part} typed {t} but bound to {b.op}")
            if b.op not in PRIMITIVE_OPS and b.op != "CALL":
                raise SchemaError(f"unknown operation {b.op}")

    @property
    def binding_of(self) -> dict[str, Binding]:
        d = self.__dict__.get("_bmap")
        if d is None:
            d = dict(self.bindings)
            object.__setattr__(self, "_bmap", d)
        return d

    def is_base(self) -> bool:
        return all(b.op != "CALL" for _, b in self.bindings)


def schema(parts: Sequence[tuple[str, Binding]],
           flow: Iterable[tuple[str, str, str]] = (),
           entry: Optional[str] = None) -> Schema:
    """Builder: parts as (id, Binding) in execution-friendly order."""
    body = Structure(tuple(p for p, _ in parts),
                     tuple(b.op for _, b in parts),
                     tuple(Relation(a, b, lab) for a, b, lab in flow),
                     oriented=True)
    return Schema(body, tuple(parts), entry or parts[0][0])


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class _Work:
    """Mutable working structure during one execution."""

    def __init__(self, s: Structure):
        self.parts = list(s.parts)
        self.types = dict(s.types)
        self.rels = list(s.relations)
        self.oriented = s.oriented
        self.counter = 0

    def fresh_part(self) -> str:
        while True:
            pid = f"n{self.counter}"
            self.counter += 1
            if pid not in self.types:
                return pid

    def add_part(self, pid: str, type_id: str):
        self.parts.append(pid)
        self.types[pid] = type_id

    def neighbors(self, part: str) -> list[str]:
        out = set()
        for r in self.rels:
            if r.a == part:
                out.add(r.b)
            elif r.b == part:
                out.add(r.a)
        order = {p: i for i, p in enumerate(self.parts)}
        return sorted(out, key=order.__getitem__)

    def freeze(self) -> Structure:
        return Structure(tuple(self.parts),
                         tuple(self.types[p] for p in self.parts),
                         tuple(self.rels), self.oriented)


def execute(sch: Schema, input_structure: Structure,
            fuel: Optional[int] = None, cfg: Config = DEFAULT) -> Structure:
    """Run the schema as an operator on the input structure."""
    if not sch.is_base():
        sch = flatten(sch)
    fuel = fuel if fuel is not None else cfg.fuel_default
    flow_out: dict[str, list[Relation]] = {p: [] for p in sch.body.parts}
    order = {p: i for i, p in enumerate(sch.body.parts)}
    for r in sch.body.relations:
        flow_out[r.a].append(r)
    for p in flow_out:
        flow_out[p].sort(key=lambda r: (r.label, order[r.b]))

    work = _Work(input_structure)
    memory: dict[str, str] = {}
    flag = 0
    cursor = work.parts[0] if work.parts else None
    current = sch.entry
    steps = 0
    while current is not None:
        if steps >= fuel:
            raise OutOfFuel(steps)
        steps += 1
        b = sch.binding_of[current]
        if b.op in ("MEM_STORE", "MEM_LOAD", "COMPARE") and cursor is None:
            raise SchemaError(f"{b.op} with no cursor (empty structure)")
        if b.op == "MEM_STORE":
            memory[_need_slot(b)] = work.types[cursor]
        elif b.op == "MEM_LOAD":
            work.types[cursor] = _load(memory, _need_slot(b))
        elif b.op == "COMPARE":
            flag = 1 if work.types[cursor] == _load(memory, _need_slot(b)) else 0
        elif b.op == "BIND":
            if b.slot is None or b.literal is None:
                raise SchemaError("BIND needs slot=value")
            memory[b.slot] = b.literal
        elif b.op == "MOVE":
            cursor = _move(work, cursor, b)
        elif b.op == "COPY":
            payload = _load(memory, _need_slot(b))
            if b.fresh:
                work.parts = []
                work.types = {}
                work.rels = []
                pid = work.fresh_part()
                work.add_part(pid, payload)
                cursor = pid
            else:
                if cursor is None:
                    raise SchemaError("COPY with no cursor")
                pid = work.fresh_part()
                work.add_part(pid, payload)
                work.rels.append(Relation(cursor, pid, "adj"))
        else:
            raise SchemaError(f"unbound or unknown symbol {b.op}")
        current = _next_part(flow_out[current], b.op, flag)
    return work.freeze()


def _need_slot(b: Binding) -> str:
    if not b.slot:
        raise SchemaError(f"{b.op} needs a slot operand")
    return b.slot


def _load(memory: dict, slot: str) -> str:
    if slot not in memory:
        raise SchemaError(f"memory slot {slot!r} is empty")
    return memory[slot]


def _move(work: _Work, cursor: Optional[str], b: Binding) -> str:
    mode = b.literal or ""
    if not work.parts:
        raise SchemaError("MOVE on empty structure")
    if mode == "first":
        return work.parts[0]
    if mode == "last":
        return work.parts[-1]
    if mode in ("next", "prev"):
        if cursor is None:
            raise SchemaError("MOVE next/prev with no cursor")
        i = work.parts.index(cursor) + (1 if mode == "next" else -1)
        if not 0 <= i < len(work.parts):
            raise SchemaError(f"MOVE {mode} fell off the structure")
        return work.parts[i]
    if mode.startswith("nbr:"):
        if cursor is None:
            raise SchemaError("MOVE nbr with no cursor")
        k = int(mode.split(":", 1)[1])
        nbrs = work.neighbors(cursor)
        if k >= len(nbrs):
            raise SchemaError(f"cursor has no neighbor {k}")
        return nbrs[k]
    raise SchemaError(f"unknown MOVE mode {mode!r}")


def _next_part(out_edges: list[Relation], op: str, flag: int) -> Optional[str]:
    if op == "COMPARE":
        want = "then" if flag else "else"
        for r in out_edges:
            if r.label == want:
                return r.b
    for r in out_edges:
        if r.label == "next":
            return r.b
    return None


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def flatten(sch: Schema, _stack: tuple = ()) -> Schema:
    """Inline nested schema calls into one base schema.

    Memory slots are a single shared namespace, so inlining preserves
    behavior.  Cyclic nesting is an error.
    """
    if id(sch) in _stack:
        raise SchemaError("cyclic schema nesting")
    if sch.is_base():
        return sch
    _stack = _stack + (id(sch),)
    parts: list[tuple[str, Binding]] = []
    flow: list[tuple[str, str, str]] = []
    entry_alias: dict[str, str] = {}
    exit_parts: dict[str, list[str]] = {}
    for part in sch.body.parts:
        b = sch.binding_of[part]
        if b.op != "CALL":
            parts.append((part, b))
            entry_alias[part] = part
            exit_parts[part] = [part]
            continue
        if b.callee is None:
            raise SchemaError(f"CALL part {part} has no schema bound")
        nested = flatten(b.callee, _stack)
        rename = {p: f"{part}.{p}" for p in nested.body.parts}
        for p in nested.body.parts:
            parts.append((rename[p], nested.binding_of[p]))
        for r in nested.body.relations:
            flow.append((rename[r.a], rename[r.b], r.label))
        entry_alias[part] = rename[nested.entry]
        has_out = {r.a for r in nested.body.relations}
        exit_parts[part] = [rename[p] for p in nested.body.parts
                            if p not in has_out]
    for r in sch.body.relations:
        for src in exit_parts[r.a]:
            flow.append((src, entry_alias[r.b], r.label))
    return schema(parts, flow, entry=entry_alias[sch.entry])


# ---------------------------------------------------------------------------
# coincidence
# ---------------------------------------------------------------------------

def default_battery() -> list[Structure]:
    from .structure import structure
    a = structure({"u0": "A", "u1": "B", "u2": "A"},
                  [("u0", "u1", "L"), ("u1", "u2", "L")])
    b = structure({"u0": "A", "u1": "A", "u2": "A", "u3": "B"},
                  [("u0", "u1", "L"), ("u1", "u2", "L"), ("u2", "u3", "M")])
    c = structure({"u0": "B"})
    return [a, b, c]


def _relabeled_variant(s: Structure) -> Structure:
    # fresh part names, same tape order: execution legitimately follows the
    # declared part order, so only naming may vary between variants
    rename = {p: f"w{i}" for i, p in enumerate(s.parts)}
    parts = tuple(rename[p] for p in s.parts)
    rels = tuple(Relation(rename[r.a], rename[r.b], r.label, r.attrs)
                 for r in reversed(s.relations))
    return Structure(parts, s.part_types, rels, s.oriented)


def operations_coincide(op1: Schema, op2: Schema,
                        battery: Optional[list[Structure]] = None,
                        fuel: int = 50_000) -> bool:
    """Extensional test: on isomorphic inputs, all outputs stay isomorphic."""
    battery = battery if battery is not None else default_battery()
    if not battery:
        raise SchemaError("battery must be non-empty")
    for s in battery:
        variants = [s, _relabeled_variant(s)]
        outs = []
        for op in (op1, op2):
            for v in variants:
                outs.append(canonical_form(execute(op, v, fuel)))
        if len(set(outs)) != 1:
            return False
    return True


def _wiring(sch: Schema) -> tuple[Structure, dict[str, str]]:
    """A base schema's body plus one part per memory slot, and its part keys.

    Each slot use gets a `slot` relation to its slot part, so a one-to-one
    renaming of slots is an isomorphism.  Keys carry what must coincide:
    operation, freshness, the MOVE/BIND literal and being the entry.
    """
    parts = ["p" + p for p in sch.body.parts]
    keys = {}
    rels = [Relation("p" + r.a, "p" + r.b, r.label, r.attrs)
            for r in sch.body.relations]
    for part, b in sch.bindings:
        literal = b.literal if b.op in ("MOVE", "BIND") else None
        keys["p" + part] = repr((b.op, b.fresh, literal, part == sch.entry))
        if b.slot is not None and b.op != "MOVE":
            if "s" + b.slot not in keys:
                parts.append("s" + b.slot)
                keys["s" + b.slot] = "slot"
            rels.append(Relation("p" + part, "s" + b.slot, "slot"))
    return Structure(tuple(parts), tuple(keys[p] for p in parts),
                     tuple(rels), oriented=True), keys


def schemas_coincide(a: Schema, b: Schema,
                     battery: Optional[list[Structure]] = None) -> bool:
    """Bodies isomorphic with coinciding bindings, confirmed extensionally.

    Memory slot names are internal wiring, so a consistent renaming of slots
    counts as the same operation.
    """
    fa, fb = flatten(a), flatten(b)
    wa, keys_a = _wiring(fa)
    wb, keys_b = _wiring(fb)
    if _witness(wa, wb, keys_a, keys_b) is None:
        return False
    return operations_coincide(fa, fb, battery)


# ---------------------------------------------------------------------------
# NAND networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NandNet:
    inputs: tuple[str, ...]
    gates: tuple[tuple[str, str, str], ...]   # (id, in_a, in_b), acyclic order
    outputs: tuple[tuple[str, str], ...]      # (name, line ref)

    def __post_init__(self):
        known = set(self.inputs)
        for gid, ia, ib in self.gates:
            if ia not in known or ib not in known:
                raise SchemaError(f"gate {gid} wired to unknown line")
            if gid in known:
                raise SchemaError(f"duplicate line {gid}")
            known = known | {gid}
        for name, ref in self.outputs:
            if ref not in known:
                raise SchemaError(f"output {name} wired to unknown line")

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        lines = {k: int(bool(v)) for k, v in assignment.items()}
        for gid, ia, ib in self.gates:
            lines[gid] = 1 - (lines[ia] & lines[ib])
        return {name: lines[ref] for name, ref in self.outputs}


def compile_to_nand(table: Sequence[int], name: str = "f") -> NandNet:
    """Two-input NAND net computing the given truth table.

    The table lists outputs for rows 0..2^k-1 where bit j of the row index is
    input xj.  Sum-of-products, no minimization.  At most 4 inputs.
    """
    n = len(table)
    k = n.bit_length() - 1
    if n < 2 or (1 << k) != n:
        raise SchemaError("table length must be a power of two, at least 2")
    if k > 4:
        raise SchemaError("at most 4 inputs supported")
    inputs = tuple(f"x{j}" for j in range(k))
    gates: list[tuple[str, str, str]] = []
    counter = itertools.count()

    def nand(a, b):
        gid = f"g{next(counter)}"
        gates.append((gid, a, b))
        return gid

    def inv(a):
        return nand(a, a)

    def and2(a, b):
        return inv(nand(a, b))

    def or2(a, b):
        return nand(inv(a), inv(b))

    ones = [i for i in range(n) if table[i]]
    if not ones:
        ref = inv(nand(inputs[0], inv(inputs[0])))        # constant 0
    elif len(ones) == n:
        ref = nand(inputs[0], inv(inputs[0]))             # constant 1
    else:
        terms = []
        for row in ones:
            lits = [inputs[j] if (row >> j) & 1 else inv(inputs[j])
                    for j in range(k)]
            acc = lits[0]
            for lit in lits[1:]:
                acc = and2(acc, lit)
            terms.append(acc)
        acc = terms[0]
        for t in terms[1:]:
            acc = or2(acc, t)
        ref = acc
    if ref in inputs:
        ref = inv(inv(ref))   # outputs always leave through gates
    return NandNet(inputs, tuple(gates), ((name, ref),))


def serialize_nandnet(net: NandNet) -> str:
    lines = [f"input {x}" for x in net.inputs]
    lines += [f"gate {gid} = NAND({a},{b})" for gid, a, b in net.gates]
    lines += [f"output {name} = {ref}" for name, ref in net.outputs]
    return "\n".join(lines) + "\n"


def parse_nandnet(text: str) -> NandNet:
    inputs: list[str] = []
    gates: list[tuple[str, str, str]] = []
    outputs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "input" and len(tok) == 2:
            inputs.append(tok[1])
        elif tok[0] == "gate" and len(tok) == 4 and tok[2] == "=":
            expr = tok[3]
            if not (expr.startswith("NAND(") and expr.endswith(")")):
                raise SchemaError(f"line {lineno}: bad gate expression")
            a, _, b = expr[5:-1].partition(",")
            gates.append((tok[1], a.strip(), b.strip()))
        elif tok[0] == "output" and len(tok) == 4 and tok[2] == "=":
            outputs.append((tok[1], tok[3]))
        else:
            raise SchemaError(f"line {lineno}: bad netlist directive")
    return NandNet(tuple(inputs), tuple(gates), tuple(outputs))


# ---------------------------------------------------------------------------
# schema text format
# ---------------------------------------------------------------------------

def serialize_schema(sch: Schema) -> str:
    from .io_struct import serialize_structure
    lines = [serialize_structure(sch.body).rstrip("\n")]
    lines.append(f"entry {sch.entry}")
    for part, b in sch.bindings:
        op = b.op
        operand = b.operand_text()
        lines.append(f"bind {part} {op} {operand}".rstrip())
    return "\n".join(lines) + "\n"


def parse_schema(text: str, registry: Optional[Mapping[str, Schema]] = None) -> Schema:
    from .io_struct import parse_structure
    body_lines = []
    entry = None
    binds: dict[str, Binding] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "entry" and len(tok) == 2:
            entry = tok[1]
        elif tok[0] == "bind":
            if len(tok) < 3:
                raise SchemaError("bind needs <part> <OP> [operand]")
            part, op = tok[1], tok[2]
            operand = tok[3:]
            if op == "CALL":
                if not operand or registry is None or operand[0] not in registry:
                    raise SchemaError(f"CALL target {operand} not in registry")
                binds[part] = Binding("CALL", callee=registry[operand[0]])
            elif op == "MOVE":
                binds[part] = Binding("MOVE", literal=operand[0] if operand else "")
            elif op == "BIND":
                if not operand or "=" not in operand[0]:
                    raise SchemaError("BIND operand must be slot=value")
                slot, _, value = operand[0].partition("=")
                binds[part] = Binding("BIND", slot=slot, literal=value)
            elif op == "COPY" and operand and operand[0] == "fresh":
                if len(operand) < 2:
                    raise SchemaError("COPY fresh needs a slot")
                binds[part] = Binding("COPY", slot=operand[1], fresh=True)
            else:
                binds[part] = Binding(op, slot=operand[0] if operand else None)
        else:
            body_lines.append(line)
    body = parse_structure("\n".join(body_lines) + "\n")
    parts = tuple((p, binds[p]) for p in body.parts if p in binds)
    if len(parts) != body.n:
        missing = [p for p in body.parts if p not in binds]
        raise SchemaError(f"parts without bindings: {missing}")
    sch = Schema(body, parts, entry if entry else body.parts[0])
    return sch
