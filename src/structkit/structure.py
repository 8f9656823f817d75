"""First-kind structures: attributed graphs with typed parts and labeled relations.

A structure is a set of parts, a total assignment of internal types to the
parts, and a complex of external relations between them.  Comparison is by
exact isomorphism (bijection preserving type classes, relation labels and
quantized relation attributes).  The module also provides the discrete
structural arithmetic: composition (sum), difference, convolution (product)
and the part-count morphism that turns structures into natural numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .config import DEFAULT, Config


class StructureError(ValueError):
    """Raised on invalid inputs to structure operations."""


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

Attrs = tuple[tuple[str, int], ...]


def _freeze_attrs(attrs: Mapping[str, int] | Attrs | None) -> Attrs:
    if not attrs:
        return ()
    items = attrs.items() if isinstance(attrs, Mapping) else attrs
    out = tuple(sorted((str(k), int(v)) for k, v in items))
    if len({k for k, _ in out}) != len(out):
        raise StructureError("duplicate attribute name")
    return out


@dataclass(frozen=True)
class Relation:
    a: str
    b: str
    label: str
    attrs: Attrs = ()

    def __post_init__(self):
        object.__setattr__(self, "attrs", _freeze_attrs(self.attrs))

    def key(self, oriented: bool) -> tuple:
        ends = (self.a, self.b) if oriented else tuple(sorted((self.a, self.b)))
        return (ends, self.label, self.attrs)

    def ends(self, oriented: bool) -> tuple[str, str]:
        return (self.a, self.b) if oriented else tuple(sorted((self.a, self.b)))


@dataclass(frozen=True)
class Structure:
    """parts are kept in declaration order; relations keep file/build order."""

    parts: tuple[str, ...]
    part_types: tuple[str, ...]
    relations: tuple[Relation, ...] = ()
    oriented: bool = False

    def __post_init__(self):
        if len(self.parts) != len(self.part_types):
            raise StructureError("parts and part_types must align")
        if len(set(self.parts)) != len(self.parts):
            raise StructureError("duplicate part id")

    @property
    def n(self) -> int:
        return len(self.parts)

    def type_of(self, part: str) -> str:
        return self.types[part]

    @property
    def types(self) -> dict[str, str]:
        d = self.__dict__.get("_types")
        if d is None:
            d = dict(zip(self.parts, self.part_types))
            object.__setattr__(self, "_types", d)
        return d

    @property
    def incidence(self) -> dict[str, list[tuple]]:
        """part -> [(dir, label, attrs, other)], one entry per relation end.

        dir is ">"/"<" (out/in) on oriented structures and "-" otherwise.
        Built on first use and cached, like `types`.
        """
        inc = self.__dict__.get("_incidence")
        if inc is None:
            inc = {p: [] for p in self.parts}
            out_dir, in_dir = (">", "<") if self.oriented else ("-", "-")
            for r in self.relations:
                inc[r.a].append((out_dir, r.label, r.attrs, r.b))
                inc[r.b].append((in_dir, r.label, r.attrs, r.a))
            object.__setattr__(self, "_incidence", inc)
        return inc

    def neighbors(self, part: str) -> list[str]:
        # a plain relation scan, kept off the incidence index: the test
        # oracles call it and must not share code with the matcher they check
        out = []
        for r in self.relations:
            if r.a == part:
                out.append(r.b)
            elif r.b == part:
                out.append(r.a)
        return out

    def with_types(self, types: Mapping[str, str]) -> "Structure":
        return Structure(self.parts, tuple(types[p] for p in self.parts),
                         self.relations, self.oriented)


def structure(types: Mapping[str, str] | Sequence[tuple[str, str]],
              relations: Iterable[tuple | Relation] = (),
              oriented: bool = False) -> Structure:
    """Convenience builder: types as mapping/pairs, relations as tuples.

    Relation tuples are (a, b, label) or (a, b, label, attrs-dict).
    """
    pairs = list(types.items()) if isinstance(types, Mapping) else list(types)
    parts = tuple(p for p, _ in pairs)
    ptypes = tuple(t for _, t in pairs)
    rels = []
    for r in relations:
        if isinstance(r, Relation):
            rels.append(r)
        elif len(r) == 3:
            rels.append(Relation(r[0], r[1], r[2]))
        else:
            rels.append(Relation(r[0], r[1], r[2], _freeze_attrs(r[3])))
    return Structure(parts, ptypes, tuple(rels), oriented)


EMPTY = Structure((), ())


# ---------------------------------------------------------------------------
# type catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicType:
    label: str


@dataclass(frozen=True)
class AttrType:
    """A label refined by quantized attributes (e.g. a segment with bins)."""
    label: str
    attrs: Attrs = ()

    def __post_init__(self):
        object.__setattr__(self, "attrs", _freeze_attrs(self.attrs))


@dataclass(frozen=True)
class StructType:
    """A part whose internal payload is itself a structure."""
    inner: Structure
    attrs: Attrs = ()

    def __post_init__(self):
        object.__setattr__(self, "attrs", _freeze_attrs(self.attrs))


class TypeCatalog:
    """Registry resolving internal-type ids to atomic labels or payloads.

    Interning is append-only; ids handed out for structurally equal payloads
    are reused, so id equality within one catalog means payload equality.
    """

    def __init__(self):
        self._entries: dict[str, object] = {}
        self._by_key: dict[str, str] = {}
        self._counter = 0

    def __contains__(self, type_id: str) -> bool:
        return type_id in self._entries

    def resolve(self, type_id: str):
        return self._entries.get(type_id)

    def add_atomic(self, type_id: str, label: Optional[str] = None) -> str:
        self._put(type_id, AtomicType(label if label is not None else type_id))
        return type_id

    def intern_attr(self, label: str, attrs: Mapping[str, int] | Attrs = ()) -> str:
        entry = AttrType(label, _freeze_attrs(attrs))
        key = self._entry_key(entry)
        if key in self._by_key:
            return self._by_key[key]
        if entry.attrs:
            enc = ",".join(f"{k}={v}" for k, v in entry.attrs)
            type_id = f"{label}[{enc}]"
        else:
            type_id = label
        self._put(type_id, entry, key)
        return type_id

    def add_struct(self, type_id: str, inner: Structure,
                   attrs: Mapping[str, int] | Attrs = ()) -> str:
        """Bind an explicit id to a structural payload (no interning)."""
        self._put(type_id, StructType(inner, _freeze_attrs(attrs)))
        return type_id

    def intern_struct(self, inner: Structure,
                      attrs: Mapping[str, int] | Attrs = ()) -> str:
        for t in inner.part_types:
            if t in self._entries and isinstance(self.resolve(t), StructType):
                self._check_acyclic(t)
        entry = StructType(inner, _freeze_attrs(attrs))
        key = self._entry_key(entry)
        if key in self._by_key:
            return self._by_key[key]
        type_id = f"t{self._counter}"
        self._counter += 1
        self._put(type_id, entry, key)
        return type_id

    def _put(self, type_id: str, entry, key: Optional[str] = None):
        if type_id in self._entries:
            if self._entries[type_id] == entry:
                return
            raise StructureError(f"type id {type_id!r} already bound")
        self._entries[type_id] = entry
        self._by_key[key if key is not None else self._entry_key(entry)] = type_id

    def _entry_key(self, entry) -> str:
        if isinstance(entry, AtomicType):
            return "a:" + entry.label
        if isinstance(entry, AttrType):
            return "q:" + entry.label + ";" + ";".join(f"{k}={v}" for k, v in entry.attrs)
        return "s:" + canonical_form(entry.inner, self) + ";" + ";".join(
            f"{k}={v}" for k, v in entry.attrs)

    def _check_acyclic(self, type_id: str, stack: Optional[set] = None):
        stack = stack or set()
        if type_id in stack:
            raise StructureError("cyclic nested type reference")
        entry = self.resolve(type_id)
        if isinstance(entry, StructType):
            stack = stack | {type_id}
            for t in entry.inner.part_types:
                if t in self._entries:
                    self._check_acyclic(t, stack)

    def type_key(self, type_id: str) -> str:
        """Deep distinguishability key; unknown ids stay opaque."""
        entry = self.resolve(type_id)
        if entry is None:
            return "o:" + type_id
        return self._entry_key(entry)

    def unresolved(self, s: Structure) -> list[str]:
        """Type ids of s that do not resolve in this catalog."""
        return sorted({t for t in s.part_types if t not in self._entries})


def _key_map(s: Structure, catalog: Optional[TypeCatalog]) -> dict[str, str]:
    if catalog is None:
        return {p: "o:" + t for p, t in zip(s.parts, s.part_types)}
    return {p: catalog.type_key(t) for p, t in zip(s.parts, s.part_types)}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(s: Structure) -> list[str]:
    """Return every violated invariant; empty list means well-formed."""
    problems = []
    if s.n == 0:
        problems.append("empty structure (no parts)")
    known = set(s.parts)
    seen_keys = set()
    related = set()
    for r in s.relations:
        if r.a not in known or r.b not in known:
            problems.append(f"relation ({r.a},{r.b}) references unknown part")
            continue
        if r.a == r.b:
            problems.append(f"self-loop on part {r.a}")
            continue
        k = (r.ends(s.oriented), r.label)
        if k in seen_keys:
            problems.append(f"duplicate relation ({r.a},{r.b},{r.label})")
        seen_keys.add(k)
        related.add(r.a)
        related.add(r.b)
    if s.n > 1:
        for p in s.parts:
            if p not in related:
                problems.append(f"isolated part {p}")
    return problems


def require_valid(s: Structure):
    problems = validate(s)
    if problems:
        raise StructureError("invalid structure: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# canonical labeling: color refinement + backtracking individualization
# ---------------------------------------------------------------------------

def _attr_enc(attrs: Attrs) -> str:
    return ",".join(f"{k}={v}" for k, v in attrs)


def _refine(s: Structure, colors: dict[str, int]) -> dict[str, int]:
    """Iterate (color, incident-relation multiset) signatures until stable.

    Each round renames every part to the rank of its signature among the
    distinct signatures.  Signatures embed the previous color, so a round can
    only split classes; the partition is stable once the count stops growing.
    """
    inc = s.incidence
    count = len(set(colors.values()))
    while True:
        sigs = {p: (colors[p], tuple(sorted((d, lab, at, colors[q])
                                            for d, lab, at, q in inc[p])))
                for p in s.parts}
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        colors = {p: rank[sig] for p, sig in sigs.items()}
        if len(rank) == count:
            return colors
        count = len(rank)


def _encode(s: Structure, order: list[str], keys: dict[str, str]) -> str:
    pos = {p: i for i, p in enumerate(order)}
    rels = []
    for r in s.relations:
        i, j = pos[r.a], pos[r.b]
        if not s.oriented and i > j:
            i, j = j, i
        rels.append(f"{i}-{j}:{r.label}{{{_attr_enc(r.attrs)}}}")
    rels.sort()
    return (f"n={len(order)};o={int(s.oriented)};"
            + "|".join(keys[p] for p in order) + ";" + "|".join(rels))


def canonical_order(s: Structure, catalog: Optional[TypeCatalog] = None,
                    keys: Optional[dict[str, str]] = None) -> list[str]:
    """Deterministic part ordering; equal for isomorphic structures."""
    if keys is None:
        keys = _key_map(s, catalog)
    if not s.parts:
        return []
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    colors = _refine(s, {p: rank[keys[p]] for p in s.parts})
    best: list[tuple[str, list[str]]] = []

    def rec(colors: dict[str, int]):
        groups: dict[int, list[str]] = {}
        for p, c in colors.items():
            groups.setdefault(c, []).append(p)
        multi = sorted((c for c, g in groups.items() if len(g) > 1))
        if not multi:
            order = sorted(s.parts, key=colors.__getitem__)
            enc = _encode(s, order, keys)
            if not best or enc < best[0][0]:
                if best:
                    best[0] = (enc, order)
                else:
                    best.append((enc, order))
            return
        target = multi[0]
        for p in sorted(groups[target]):
            # refined colors are ranks >= 0, so -1 is fresh and sorts first
            forked = dict(colors)
            forked[p] = -1
            rec(_refine(s, forked))

    rec(colors)
    return best[0][1]


def canonical_form(s: Structure, catalog: Optional[TypeCatalog] = None,
                   keys: Optional[dict[str, str]] = None) -> str:
    if keys is None:
        keys = _key_map(s, catalog)
    order = canonical_order(s, catalog, keys)
    return _encode(s, order, keys)


# ---------------------------------------------------------------------------
# comparison operations
# ---------------------------------------------------------------------------

def _check_witness(a: Structure, b: Structure, mapping: dict[str, str],
                   keys_a: dict[str, str], keys_b: dict[str, str]) -> bool:
    if len(mapping) != a.n or a.n != b.n or a.oriented != b.oriented:
        return False
    for p, q in mapping.items():
        if keys_a[p] != keys_b[q]:
            return False
    rels_b = {}
    for r in b.relations:
        k = r.key(b.oriented)
        rels_b[k] = rels_b.get(k, 0) + 1
    for r in a.relations:
        if a.oriented:
            k = ((mapping[r.a], mapping[r.b]), r.label, r.attrs)
        else:
            k = (tuple(sorted((mapping[r.a], mapping[r.b]))), r.label, r.attrs)
        if rels_b.get(k, 0) <= 0:
            return False
        rels_b[k] -= 1
    return all(v == 0 for v in rels_b.values())


def isomorphic(a: Structure, b: Structure,
               catalog: Optional[TypeCatalog] = None,
               catalog_b: Optional[TypeCatalog] = None,
               keys_a: Optional[dict[str, str]] = None,
               keys_b: Optional[dict[str, str]] = None,
               ) -> Optional[dict[str, str]]:
    """Part bijection witness if the structures are isomorphic, else None.

    Types resolve through the catalog(s) when given; with none, type ids are
    compared as opaque labels.  Deterministic across runs.
    """
    require_valid(a)
    require_valid(b)
    if keys_a is None:
        keys_a = _key_map(a, catalog)
    if keys_b is None:
        keys_b = _key_map(b, catalog_b if catalog_b is not None else catalog)
    return _witness(a, b, keys_a, keys_b)


def _witness(a: Structure, b: Structure, keys_a: dict[str, str],
             keys_b: dict[str, str]) -> Optional[dict[str, str]]:
    """Verified part bijection a -> b preserving keys and relations, or None.

    No validity check: schema bodies may carry self-loops.
    """
    if a.n != b.n or a.oriented != b.oriented:
        return None
    order_a = canonical_order(a, keys=keys_a)
    order_b = canonical_order(b, keys=keys_b)
    if _encode(a, order_a, keys_a) != _encode(b, order_b, keys_b):
        return None
    mapping = dict(zip(order_a, order_b))
    if not _check_witness(a, b, mapping, keys_a, keys_b):
        raise AssertionError("canonical witness failed verification")
    return mapping


def same_structure(a: Structure, b: Structure) -> bool:
    """Pointwise equality: same parts carrying the same types and relations."""
    if set(a.parts) != set(b.parts) or a.oriented != b.oriented:
        return False
    if a.types != b.types:
        return False
    ra = sorted(r.key(a.oriented) for r in a.relations)
    rb = sorted(r.key(b.oriented) for r in b.relations)
    return ra == rb


def internal_classes(s: Structure,
                     catalog: Optional[TypeCatalog] = None) -> list[tuple[str, ...]]:
    """Partition of the parts into internal-indistinguishability classes.

    Two parts fall in one class when exchanging their internal payloads is
    undetectable, i.e. their resolved types coincide.  The class count is the
    structure's type count and never exceeds the part count.
    """
    require_valid(s)
    keys = _key_map(s, catalog)
    groups: dict[str, list[str]] = {}
    for p in s.parts:
        groups.setdefault(keys[p], []).append(p)
    return [tuple(groups[k]) for k in sorted(groups)]


def morphism_number(s: Structure) -> int:
    """The morphism retaining only the part set: the natural number of s."""
    require_valid(s)
    return s.n


def swap_indistinguishable(a: Structure, b: Structure,
                           catalog_a: Optional[TypeCatalog] = None,
                           catalog_b: Optional[TypeCatalog] = None,
                           witness: Optional[dict[str, str]] = None) -> bool:
    """Exchange corresponding payloads across the witness and re-check.

    The witness comes from plain (shallow) isomorphism; payloads then resolve
    deeply through each side's own catalog, so shells that look alike may
    still be distinguishable once their parts' contents travel.
    """
    require_valid(a)
    require_valid(b)
    if witness is None:
        witness = _witness(a, b, _key_map(a, None), _key_map(b, None))
        if witness is None:
            raise StructureError("swap test requires isomorphic structures")
    deep_a = _key_map(a, catalog_a)
    deep_b = _key_map(b, catalog_b)
    # a' carries b's payloads at corresponding parts, and vice versa
    keys_a_swapped = {p: deep_b[witness[p]] for p in a.parts}
    keys_b_swapped = {q: deep_a[p] for p, q in witness.items()}
    ok_a = _witness(a, a, keys_a_swapped, deep_a) is not None
    ok_b = _witness(b, b, keys_b_swapped, deep_b) is not None
    return ok_a and ok_b


# ---------------------------------------------------------------------------
# structural arithmetic
# ---------------------------------------------------------------------------

def compose(a: Structure, b: Structure,
            gluing: Iterable[tuple | Relation] = ()) -> Structure:
    """Join a and b into one structure of which both are portions.

    Parts are prefixed "a." and "b.".  Gluing relations must reference the
    prefixed ids and connect the two operands (unless one operand is empty).
    The part count of the result is the sum of the operands'.
    """
    if a.oriented != b.oriented and a.n and b.n:
        raise StructureError("cannot compose oriented with unoriented structure")
    oriented = a.oriented if a.n else b.oriented
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    parts = tuple("a." + p for p in a.parts) + tuple("b." + p for p in b.parts)
    types = {"a." + p: t for p, t in a.types.items()}
    types.update({"b." + p: t for p, t in b.types.items()})
    rels = [Relation("a." + r.a, "a." + r.b, r.label, r.attrs) for r in a.relations]
    rels += [Relation("b." + r.a, "b." + r.b, r.label, r.attrs) for r in b.relations]
    glue = []
    for g in gluing:
        r = g if isinstance(g, Relation) else Relation(*g)
        glue.append(r)
    if not glue:
        raise StructureError("gluing must connect the operands")
    known = set(parts)
    crossing = False
    for r in glue:
        if r.a not in known or r.b not in known:
            raise StructureError(f"gluing references unknown part ({r.a},{r.b})")
        sides = {r.a.split(".", 1)[0], r.b.split(".", 1)[0]}
        if sides == {"a", "b"}:
            crossing = True
    if not crossing:
        raise StructureError("gluing must connect a part of a with a part of b")
    return Structure(parts, tuple(types[p] for p in parts),
                     tuple(rels + glue), oriented)


def _connected_subsets(s: Structure, size: int) -> Iterable[frozenset]:
    """All connected part subsets of the given size (canonical enumeration)."""
    adj = {p: {q for *_, q in around} for p, around in s.incidence.items()}
    index = {p: i for i, p in enumerate(s.parts)}
    seen = set()

    def grow(current: frozenset, frontier: set[str], start_idx: int):
        if len(current) == size:
            if current not in seen:
                seen.add(current)
                yield current
            return
        for q in sorted(frontier, key=lambda x: index[x]):
            if index[q] <= start_idx and q not in current:
                continue
            nxt = current | {q}
            if nxt in seen:
                continue
            new_frontier = (frontier | adj[q]) - nxt
            yield from grow(nxt, new_frontier, start_idx)

    for p in s.parts:
        yield from grow(frozenset({p}), set(adj[p]), index[p])


def induced(s: Structure, members: Iterable[str]) -> Structure:
    keep = set(members)
    parts = tuple(p for p in s.parts if p in keep)
    rels = tuple(r for r in s.relations if r.a in keep and r.b in keep)
    return Structure(parts, tuple(s.types[p] for p in parts), rels, s.oriented)


def occurrences(a: Structure, b: Structure,
                catalog: Optional[TypeCatalog] = None,
                cfg: Config = DEFAULT) -> list[frozenset]:
    """Part subsets of a whose induced structure is isomorphic to b."""
    if a.n > cfg.occurrence_part_cap or b.n > cfg.occurrence_part_cap:
        raise StructureError(
            f"operand exceeds occurrence cap of {cfg.occurrence_part_cap} parts")
    if b.n == 0 or b.n > a.n:
        return []
    target = canonical_form(b, catalog)
    found = []
    subsets = _connected_subsets(a, b.n) if _is_connected(b) else \
        map(frozenset, itertools.combinations(a.parts, b.n))
    for members in subsets:
        sub = induced(a, members)
        if canonical_form(sub, catalog) == target:
            found.append(members)
    found.sort(key=lambda m: tuple(sorted(m)))
    return found


def _is_connected(s: Structure) -> bool:
    if s.n <= 1:
        return True
    inc = s.incidence
    seen = {s.parts[0]}
    stack = [s.parts[0]]
    while stack:
        for *_, q in inc[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == s.n


def difference(a: Structure, b: Structure,
               catalog: Optional[TypeCatalog] = None,
               cfg: Config = DEFAULT) -> list[Structure]:
    """One result per occurrence of b inside a: a minus that portion.

    Empty list when b does not embed.  Results may contain isolated parts;
    validate() will say so when it matters.
    """
    results = []
    for members in occurrences(a, b, catalog, cfg):
        rest = [p for p in a.parts if p not in members]
        results.append(induced(a, rest))
    return results


def convolution(a: Structure, b: Structure, cfg: Config = DEFAULT) -> Structure:
    """Substitute every part of b with a copy of a.

    Each relation of b is replicated across the corresponding parts of the
    two copies (k-th part with k-th part), so the result inherits one glue
    relation per relation of b per part of a.  Part count multiplies.
    """
    if a.n > cfg.occurrence_part_cap or b.n > cfg.occurrence_part_cap:
        raise StructureError(
            f"operand exceeds occurrence cap of {cfg.occurrence_part_cap} parts")
    if a.oriented != b.oriented:
        raise StructureError("convolution operands must agree on orientation")
    if a.n == 0 or b.n == 0:
        return EMPTY
    parts = []
    types = {}
    rels = []
    for bp in b.parts:
        for ap in a.parts:
            pid = f"{bp}.{ap}"
            parts.append(pid)
            types[pid] = a.types[ap]
        for r in a.relations:
            rels.append(Relation(f"{bp}.{r.a}", f"{bp}.{r.b}", r.label, r.attrs))
    for r in b.relations:
        for ap in a.parts:
            rels.append(Relation(f"{r.a}.{ap}", f"{r.b}.{ap}", r.label, r.attrs))
    return Structure(tuple(parts), tuple(types[p] for p in parts),
                     tuple(rels), a.oriented)
