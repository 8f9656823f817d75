"""Derivation operations: portions, partitions, quotients and morphisms.

Derivations move a structure to a coarser or more abstract representation
without ever adding information: a portion restricts the part set, a
quotient replaces blocks of a partition with single parts, and a morphism
suppresses part of what makes parts distinguishable.  A derivation store
keeps the lineage between inputs and outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .structure import (
    AttrType,
    Relation,
    Structure,
    StructType,
    StructureError,
    TypeCatalog,
    canonical_form,
    require_valid,
    _is_connected,
    _key_map,
)


@dataclass(frozen=True)
class Portion:
    parent: Structure
    members: frozenset
    induced: Structure


@dataclass(frozen=True)
class Partition:
    parent: Structure
    blocks: tuple[Portion, ...]


@dataclass(frozen=True)
class MorphismMask:
    """Declaration of suppressed distinctions.

    merge_types maps finer type ids onto coarser ones (a function, so it can
    only merge classes, never split them); drop_part_attrs removes quantized
    attributes from catalog payloads; the external side collapses relation
    labels and drops relation attributes.
    """

    merge_types: tuple[tuple[str, str], ...] = ()
    drop_part_attrs: frozenset = frozenset()
    merge_labels: tuple[tuple[str, str], ...] = ()
    drop_rel_attrs: frozenset = frozenset()

    def __post_init__(self):
        for table in (self.merge_types, self.merge_labels):
            srcs = [a for a, _ in table]
            if len(set(srcs)) != len(srcs):
                raise StructureError("mask maps a source twice")

    @classmethod
    def make(cls, merge_types: Mapping[str, str] | None = None,
             drop_part_attrs: Iterable[str] = (),
             merge_labels: Mapping[str, str] | None = None,
             drop_rel_attrs: Iterable[str] = ()) -> "MorphismMask":
        return cls(tuple(sorted((merge_types or {}).items())),
                   frozenset(drop_part_attrs),
                   tuple(sorted((merge_labels or {}).items())),
                   frozenset(drop_rel_attrs))

    def union(self, other: "MorphismMask") -> "MorphismMask":
        def merged(a, b):
            table = dict(a)
            for src, dst in b:
                if src in table and table[src] != dst:
                    raise StructureError("mask union maps a source twice")
                table[src] = dst
            return table
        return MorphismMask.make(
            merged(self.merge_types, other.merge_types),
            self.drop_part_attrs | other.drop_part_attrs,
            merged(self.merge_labels, other.merge_labels),
            self.drop_rel_attrs | other.drop_rel_attrs)

    def is_empty(self) -> bool:
        return not (self.merge_types or self.drop_part_attrs
                    or self.merge_labels or self.drop_rel_attrs)


# ---------------------------------------------------------------------------
# portion and partition
# ---------------------------------------------------------------------------

def portion(s: Structure, members: Iterable[str],
            allow_disconnected: bool = False) -> Portion:
    """Induced sub-structure on the given members, connected by default."""
    require_valid(s)
    [por] = _cut(s, [members])
    if not allow_disconnected and not _is_connected(por.induced):
        raise StructureError("portion members are not connected "
                             "(pass allow_disconnected to permit)")
    return por


def partition(s: Structure, member_sets: Iterable[Iterable[str]]) -> Partition:
    """Disjoint blocks covering s; a block need not be connected."""
    require_valid(s)
    blocks = _cut(s, member_sets)
    # _cut keeps blocks disjoint and known, so they cover s when sizes sum to n
    if sum(len(b.members) for b in blocks) != s.n:
        raise StructureError("partition does not cover every part")
    return Partition(s, tuple(blocks))


def _cut(s: Structure, member_sets: Iterable[Iterable[str]]) -> list[Portion]:
    """Portions of s on non-empty, known and disjoint member sets, each
    induced as `induced` does, from one pass over the parts and one over
    the relations."""
    owner: dict[str, int] = {}
    blocks: list[tuple[frozenset, list[str], list[Relation]]] = []
    for ms in member_sets:
        members = frozenset(ms)
        if not members:
            raise StructureError("portion needs at least one member")
        unknown = members.difference(s.types)
        if unknown:
            raise StructureError(
                f"portion members not in parent: {sorted(unknown)}")
        if not owner.keys().isdisjoint(members):
            raise StructureError("partition blocks overlap")
        owner.update(dict.fromkeys(members, len(blocks)))
        blocks.append((members, [], []))
    for p in s.parts:
        if p in owner:
            blocks[owner[p]][1].append(p)
    for r in s.relations:
        if r.a in owner and owner[r.a] == owner.get(r.b):
            blocks[owner[r.a]][2].append(r)
    return [Portion(s, members, Structure(
                tuple(ps), tuple(map(s.types.get, ps)), tuple(rs), s.oriented))
            for members, ps, rs in blocks]


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def quotient(s: Structure, k: Partition,
             catalog: Optional[TypeCatalog] = None) -> Structure:
    """One part per block; block types are interned by canonical form.

    Two quotient parts are internally indistinguishable exactly when their
    blocks' induced structures are isomorphic.  A relation appears between
    two quotient parts when at least one parent relation crosses the blocks;
    its attributes record the crossing count and the base-label multiset.
    """
    require_valid(s)
    if k.parent != s:
        raise StructureError("partition does not belong to this structure")
    catalog = catalog if catalog is not None else TypeCatalog()
    owner = {p: i for i, block in enumerate(k.blocks) for p in block.members}
    parts = tuple(f"b{i}" for i in range(len(k.blocks)))
    types = tuple(catalog.intern_struct(block.induced) for block in k.blocks)
    crossing: dict[tuple[int, int], list[str]] = {}
    for r in s.relations:
        i, j = owner[r.a], owner[r.b]
        if i == j:
            continue
        if not s.oriented and i > j:
            i, j = j, i
        crossing.setdefault((i, j), []).append(r.label)
    rels = []
    for (i, j), labels in sorted(crossing.items()):
        attrs = {"count": len(labels)}
        for lab in labels:
            attrs[f"label:{lab}"] = attrs.get(f"label:{lab}", 0) + 1
        rels.append(Relation(f"b{i}", f"b{j}", "adj", tuple(sorted(attrs.items()))))
    return Structure(parts, types, tuple(rels), s.oriented)


# ---------------------------------------------------------------------------
# morphism
# ---------------------------------------------------------------------------

def apply_morphism(s: Structure, m: MorphismMask,
                   catalog: Optional[TypeCatalog] = None) -> Structure:
    """Suppress the masked distinctions; part count is preserved.

    Dropping part attributes requires a catalog so the coarsened payloads can
    be re-interned.  Naming an attribute or type the catalog does not know is
    an error.
    """
    require_valid(s)
    merge_types = dict(m.merge_types)
    merge_labels = dict(m.merge_labels)
    if m.drop_part_attrs:
        if catalog is None:
            raise StructureError("dropping part attributes needs a catalog")
        known = set()
        for t in set(s.part_types):
            entry = catalog.resolve(t)
            if isinstance(entry, (AttrType, StructType)):
                known.update(k for k, _ in entry.attrs)
        missing = set(m.drop_part_attrs) - known
        if missing:
            raise StructureError(f"mask names unknown attributes: {sorted(missing)}")
    if m.drop_rel_attrs:
        known = {k for r in s.relations for k, _ in r.attrs}
        missing = set(m.drop_rel_attrs) - known
        if missing:
            raise StructureError(
                f"mask names unknown relation attributes: {sorted(missing)}")

    def coarsen_type(t: str) -> str:
        t = merge_types.get(t, t)
        if m.drop_part_attrs and catalog is not None:
            entry = catalog.resolve(t)
            if isinstance(entry, (AttrType, StructType)):
                kept = tuple((k, v) for k, v in entry.attrs
                             if k not in m.drop_part_attrs)
                if kept != entry.attrs:
                    if isinstance(entry, AttrType):
                        return catalog.intern_attr(entry.label, kept)
                    return catalog.intern_struct(entry.inner, kept)
        return t

    new_types = tuple(coarsen_type(t) for t in s.part_types)
    new_rels = []
    for r in s.relations:
        label = merge_labels.get(r.label, r.label)
        attrs = tuple((k, v) for k, v in r.attrs if k not in m.drop_rel_attrs)
        new_rels.append(Relation(r.a, r.b, label, attrs))
    return Structure(s.parts, new_types, _dedup(new_rels, s.oriented), s.oriented)


def _dedup(rels: list[Relation], oriented: bool) -> tuple[Relation, ...]:
    # label merging can make two relations coincide; keep the first
    seen = set()
    out = []
    for r in rels:
        k = (r.ends(oriented), r.label)     # as `validate` keys them
        if k not in seen:
            seen.add(k)
            out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical partitions: blocks grown until a regularity rupture
# ---------------------------------------------------------------------------

def canonical_partitions(s: Structure, catalog: Optional[TypeCatalog] = None
                         ) -> list[Partition]:
    """Partitions whose blocks are maximal runs of equal internal content.

    Three growth rules are tried (equal type and relation label, equal type,
    equal label); duplicates collapse and the result is ranked by block count
    descending.  At least one partition is always returned.
    """
    require_valid(s)
    keys = _key_map(s, catalog)
    candidates = [
        _grown_partition(s, keys, by_type=True, by_label=True),
        _grown_partition(s, keys, by_type=True, by_label=False),
        _grown_partition(s, keys, by_type=False, by_label=True),
    ]
    uniq: dict[tuple, list] = {}
    for blocks in candidates:
        uniq.setdefault(_blocks_key(blocks), blocks)
    ranked = sorted(uniq.values(), key=lambda bl: (-len(bl), _blocks_key(bl)))
    return [partition(s, blocks) for blocks in ranked]


def _blocks_key(blocks: list[list[str]]) -> tuple:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _grown_partition(s: Structure, keys: dict[str, tuple],
                     by_type: bool, by_label: bool) -> list[list[str]]:
    index = {p: i for i, p in enumerate(s.parts)}
    pairs = s.pairs
    assigned: dict[str, int] = {}
    blocks: list[list[str]] = []
    for seed in s.parts:
        if seed in assigned:
            continue
        bid = len(blocks)
        block = [seed]
        assigned[seed] = bid
        block_label: Optional[str] = None
        queue = deque([seed])
        while queue:
            p = queue.popleft()
            for _, lab, q in sorted((index[q], lab, q)
                                    for q, ends in pairs[p].items()
                                    for _, lab, _ in ends):
                if q in assigned:
                    continue
                if by_type and keys[q] != keys[seed]:
                    continue
                if by_label:
                    if block_label is None:
                        block_label = lab
                    elif lab != block_label:
                        continue
                assigned[q] = bid
                block.append(q)
                queue.append(q)
        blocks.append(sorted(block, key=index.__getitem__))
    return blocks


# ---------------------------------------------------------------------------
# lineage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationRecord:
    op: str
    inputs: tuple[tuple, ...]
    params: str
    output: tuple


class DerivationStore:
    """Append-only log of derivation records keyed by structure value."""

    def __init__(self):
        self._records: list[DerivationRecord] = []
        self._known: set[tuple] = set()

    @staticmethod
    def key(s: Structure) -> tuple:
        return (canonical_form(s), s.parts)

    def register(self, s: Structure) -> tuple:
        k = self.key(s)
        self._known.add(k)
        return k

    def add(self, op: str, inputs: Iterable[Structure], output: Structure,
            params: str = "") -> DerivationRecord:
        in_keys = tuple(self.register(i) for i in inputs)
        out_key = self.register(output)
        if out_key in in_keys:
            raise StructureError("derivation output equals an input; "
                                 "lineage must stay acyclic")
        for k in in_keys:
            if self._path(out_key, k) is not None:
                raise StructureError("derivation would create a lineage cycle")
        rec = DerivationRecord(op, in_keys, params, out_key)
        self._records.append(rec)
        return rec

    def _path(self, src: tuple, dst: tuple) -> Optional[list[DerivationRecord]]:
        # the fewest records leading from src down to dst, breadth first
        best: dict[tuple, tuple[tuple, DerivationRecord]] = {}
        queue = deque([src])
        seen = {src}
        while queue:
            cur = queue.popleft()
            if cur == dst:
                path = []
                while cur != src:
                    prev, rec = best[cur]
                    path.append(rec)
                    cur = prev
                path.reverse()
                return path
            for rec in self._records:
                if cur in rec.inputs and rec.output not in seen:
                    seen.add(rec.output)
                    best[rec.output] = (cur, rec)
                    queue.append(rec.output)
        return None

    def derives_from(self, a: Structure, b: Structure
                     ) -> Optional[list[DerivationRecord]]:
        """Records leading from b down to a, or None when unrelated."""
        ka, kb = self.key(a), self.key(b)
        if ka not in self._known or kb not in self._known:
            raise StructureError("structure not registered in this store")
        return self._path(kb, ka)
