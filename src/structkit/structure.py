"""First-kind structures: attributed graphs with typed parts and labeled relations.

A structure is a set of parts, a total assignment of internal types to the
parts, and a complex of external relations between them.  Comparison is by
exact isomorphism (bijection preserving type classes, relation labels and
quantized relation attributes).  The module also provides the discrete
structural arithmetic: composition (sum), difference, convolution (product)
and the part-count morphism that turns structures into natural numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class StructureError(ValueError):
    """Raised on invalid inputs to structure operations."""


class SearchBudgetError(StructureError):
    """Raised when one exponential search exceeds its node cap."""


class CanonicalBudgetError(SearchBudgetError):
    """Raised when one canonical search exceeds `_CANON_NODE_CAP` nodes."""


class EmbeddingBudgetError(SearchBudgetError):
    """Raised when one embedding search exceeds `_EMBED_NODE_CAP` steps."""


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

    @cached_property
    def types(self) -> dict[str, str]:
        return dict(zip(self.parts, self.part_types))

    @cached_property
    def pairs(self) -> dict[str, dict[str, tuple]]:
        """part -> {other: sorted (dir, label, attrs) between the two}.

        dir is ">"/"<" (out/in) on oriented structures and "-" otherwise.
        Others are listed in the order of their first relation with the
        part; only related parts appear, and a self-loop lists the part
        under itself.  Built on first use and cached, like `types`.
        """
        pairs = {p: {} for p in self.parts}
        out_dir, in_dir = (">", "<") if self.oriented else ("-", "-")
        for r in self.relations:
            pairs[r.a].setdefault(r.b, []).append(
                (out_dir, r.label, r.attrs))
            pairs[r.b].setdefault(r.a, []).append(
                (in_dir, r.label, r.attrs))
        for around in pairs.values():
            for q, ends in around.items():
                around[q] = tuple(sorted(ends))
        return pairs

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
    rels = tuple(r if isinstance(r, Relation) else Relation(*r)
                 for r in relations)
    return Structure(parts, ptypes, rels, oriented)


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
    A type's key is computed once, when the type is registered, and never
    changes: binding an id that a registered payload names, or registering
    a payload that names its own id, raises StructureError.  Payloads
    therefore never nest cyclically.
    """

    def __init__(self):
        self._entries: dict[str, object] = {}
        self._keys: dict[str, tuple] = {}
        self._by_key: dict[tuple, str] = {}
        self._named: set[str] = set()   # ids the registered payloads name
        self._counter = 0

    def __contains__(self, type_id: str) -> bool:
        return type_id in self._entries

    def bound_count(self) -> int:
        """The number of bound ids; it grows exactly when an id is bound."""
        return len(self._entries)

    def resolve(self, type_id: str):
        return self._entries.get(type_id)

    def add_atomic(self, type_id: str, label: Optional[str] = None) -> str:
        self._put(type_id, AtomicType(label if label is not None else type_id))
        return type_id

    def intern_attr(self, label: str, attrs: Mapping[str, int] | Attrs = ()) -> str:
        """The id of an attribute type: `label`, or `label[k=v,...]` with its
        attrs in key order.  Interning one type twice returns one id; raises
        StructureError when that id is already bound to another payload."""
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

    def add_struct(self, type_id: str, inner: Structure) -> str:
        """Bind an explicit id to a structural payload (no interning)."""
        self._put(type_id, StructType(inner))
        return type_id

    def intern_struct(self, inner: Structure,
                      attrs: Mapping[str, int] | Attrs = ()) -> str:
        entry = StructType(inner, _freeze_attrs(attrs))
        key = self._entry_key(entry)
        if key in self._by_key:
            return self._by_key[key]
        type_id = f"t{self._counter}"
        while (type_id in self._entries or type_id in self._named
               or type_id in inner.part_types):
            self._counter += 1
            type_id = f"t{self._counter}"
        self._counter += 1
        self._put(type_id, entry, key)
        return type_id

    def _put(self, type_id: str, entry, key: Optional[tuple] = None):
        if type_id in self._entries:
            if self._entries[type_id] == entry:
                return
            raise StructureError(f"type id {type_id!r} already bound")
        if type_id in self._named:
            raise StructureError(
                f"type id {type_id!r} is named by a registered payload")
        names = entry.inner.part_types if isinstance(entry, StructType) else ()
        if type_id in names:
            raise StructureError(f"payload of {type_id!r} names its own id")
        if key is None:
            key = self._entry_key(entry)
        self._named.update(names)
        self._entries[type_id] = entry
        self._keys[type_id] = key
        self._by_key[key] = type_id

    def _entry_key(self, entry) -> tuple:
        if isinstance(entry, AtomicType):
            return ("a", entry.label)
        if isinstance(entry, AttrType):
            return ("q", entry.label, entry.attrs)
        return ("s", canonical_form(entry.inner, self), entry.attrs)

    def type_key(self, type_id: str) -> tuple:
        """Deep distinguishability key, fixed at registration; unknown ids
        stay opaque."""
        key = self._keys.get(type_id)
        return key if key is not None else ("o", type_id)

    def unresolved(self, s: Structure) -> list[str]:
        """Type ids of s that do not resolve in this catalog."""
        return sorted({t for t in s.part_types if t not in self._entries})


def _key_map(s: Structure, catalog: Optional[TypeCatalog]) -> dict[str, tuple]:
    """part -> its type key."""
    if catalog is None:
        return {p: ("o", t) for p, t in zip(s.parts, s.part_types)}
    return dict(zip(s.parts, map(catalog.type_key, s.part_types)))


def _cached(s, catalog: Optional[TypeCatalog],
            build: Callable[[object, Optional[TypeCatalog]], object]):
    """`build(s, catalog)`, cached on s under `build`'s name, like `types`.

    For data derived from s (a structure, or a frozen dataclass such as
    the solver's `ProblemSpec`) and the type keys it names.  An unbound id
    keys as `("o", id)` only until the catalog binds it, and a bound key
    never changes, so the value holds while the catalog is the same and
    its `bound_count()` has not grown.  Only the last value built is kept.
    It is the fast path: the solver's recognizer tries have a process-wide
    cache behind it (`solver._recognizer_tries`), keyed by content.
    """
    count = catalog.bound_count() if catalog is not None else 0
    cached = s.__dict__.get(build.__name__)
    if cached is not None and cached[0] is catalog and cached[1] == count:
        return cached[2]
    value = build(s, catalog)
    object.__setattr__(s, build.__name__, (catalog, count, value))
    return value


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

def _ends(s: Structure) -> dict[str, list[tuple[int, str]]]:
    """part -> [(end, other)] with each incident end as one int, in
    relation order.

    An end `(dir, label, attrs)` becomes `id * 2n`, the ids ranked in
    sorted order of the ends, so `end + colour` for any colour in [-n, n)
    sorts like the pair `(end, colour)`.  Built from the relations, not
    from `pairs`, so a canonical search leaves the sorted index unbuilt.
    """
    out_dir, in_dir = (">", "<") if s.oriented else ("-", "-")
    around: dict[str, list] = {p: [] for p in s.parts}
    for r in s.relations:
        around[r.a].append(((out_dir, r.label, r.attrs), r.b))
        around[r.b].append(((in_dir, r.label, r.attrs), r.a))
    span = 2 * s.n
    ids = {e: i * span for i, e in enumerate(
        sorted({e for ends in around.values() for e, _ in ends}))}
    return {p: [(ids[e], q) for e, q in ends] for p, ends in around.items()}


def _key_cells(s: Structure, keys: dict[str, tuple]) -> dict[int, list[str]]:
    """The type-key colouring as cells: one per key, in key order, each
    keyed by its start offset."""
    by_key: dict[tuple, list[str]] = {}
    for p in s.parts:
        by_key.setdefault(keys[p], []).append(p)
    cells = {}
    start = 0
    for k in sorted(by_key):
        cells[start] = by_key[k]
        start += len(by_key[k])
    return cells


def _refine(ends: dict[str, list[tuple[int, str]]], colors: dict[str, int],
            cells: dict[int, list[str]], todo: set[int]) -> None:
    """Split cells by (colour, incident ends) signatures, in place, until
    stable.

    A colour is its cell's start offset.  A cell splits into pieces ordered
    by their sorted `(end, neighbour colour)` signatures, laid out from the
    cell's own offset, so the first piece keeps the cell's colour and no
    other cell's colour changes.  Each round computes every split from the
    colours at its start and re-signs only the cells in `todo`; the next
    round's are the cells next to a part whose colour changed, as no other
    part's signature did.  `todo` must hold every cell whose parts may
    differ in signature.  The result is the ordered partition that
    re-signing every part in every round, until the class count stops
    growing, gives (`tests/oracles.py::refine_oracle`).
    """
    while todo:
        splits = []
        for c in todo:
            cell = cells[c]
            if len(cell) == 1:
                continue
            pieces: dict[tuple, list[str]] = {}
            for p in cell:
                sig = tuple(sorted([e + colors[q] for e, q in ends[p]]))
                pieces.setdefault(sig, []).append(p)
            if len(pieces) == 1:
                continue
            start = c
            for sig in sorted(pieces):
                splits.append((start, pieces[sig]))
                start += len(pieces[sig])
        moved = []
        for c, piece in splits:
            cells[c] = piece
            if colors[piece[0]] != c:
                for p in piece:
                    colors[p] = c
                moved.extend(piece)
        todo = {colors[q] for p in moved for _, q in ends[p]}


def _individualise(ends: dict[str, list[tuple[int, str]]],
                   colors: dict[str, int], cells: dict[int, list[str]],
                   p: str, fresh: int) -> tuple[dict, dict]:
    """Refined copies of `colors` and `cells` with `p` alone in cell `fresh`.

    p's cell must hold other parts too.  They keep its colour, so only the
    cells of p's neighbours need re-signing.
    """
    colors, cells = dict(colors), dict(cells)
    c = colors[p]
    cells[c] = [q for q in cells[c] if q != p]
    colors[p] = fresh
    cells[fresh] = [p]
    _refine(ends, colors, cells, {colors[q] for _, q in ends[p]})
    return colors, cells


def _encode(s: Structure, order: list[str], keys: dict[str, tuple]) -> tuple:
    """s under the part order `order`: `(n, oriented, the keys in order,
    the sorted (i, j, label, attrs) relations)`, with i and j positions in
    `order`.  Two structures encode equal exactly when `order` maps one
    onto the other."""
    pos = {p: i for i, p in enumerate(order)}
    rels = []
    for r in s.relations:
        i, j = pos[r.a], pos[r.b]
        if not s.oriented and i > j:
            i, j = j, i
        rels.append((i, j, r.label, r.attrs))
    rels.sort()
    return (len(order), s.oriented, tuple(keys[p] for p in order),
            tuple(rels))


# search nodes each canonical_order call may visit; with jump-back K_n takes
# about n^2 / 2, and the largest search seen on the tests, the demo and the
# benchmark workloads takes 465 (K30; the benchmark's largest takes 21)
_CANON_NODE_CAP = 100_000


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_order(s: Structure, catalog: Optional[TypeCatalog] = None) -> list[str]:
    """Deterministic part ordering; equal for isomorphic structures."""
    return _canonical(s, _key_map(s, catalog))[0]


def canonical_form(s: Structure, catalog: Optional[TypeCatalog] = None) -> tuple:
    """The encoding of s under its canonical order, a hashable tuple; equal
    exactly for isomorphic structures."""
    return _canonical(s, _key_map(s, catalog))[1]


def _canonical(s: Structure, keys: dict[str, tuple]) -> tuple[list[str], tuple]:
    """The canonical order of s and its encoding.

    Individualisation-refinement: each search node branches on the parts of
    its first non-singleton colour class, by name, and the first leaf with
    the least encoding wins.  Two leaves that encode equal give an
    automorphism, and the search uses it twice:
    - Jump-back.  Let d be the depth of the deepest node that this leaf's
      path shares with the best leaf's.  When the automorphism fixes the
      parts individualised above d and maps the best path's child at d to
      this path's, the rest of this child's subtree is its image of a
      subtree already explored, so the search resumes at that node's next
      child.
    - Orbit pruning.  A child in the orbit of an explored sibling, under the
      automorphisms found so far that fix the node's individualised parts,
      roots an automorphic image of that sibling's subtree.
    Either way each skipped leaf encodes like an earlier one, so the result
    is that of the unpruned search (`tests/oracles.py`).  When the type
    keys alone give every part its own cell, refinement could split
    nothing, so it is skipped and the key order is the leaf.
    Raises CanonicalBudgetError past `_CANON_NODE_CAP` search nodes.
    """
    cells = _key_cells(s, keys)
    if len(cells) < s.n:
        # the keys leave some cell with two parts or more: refine by relations
        ends = _ends(s)
        colors = {p: c for c, cell in cells.items() for p in cell}
        _refine(ends, colors, cells, set(cells))
    if len(cells) == s.n:
        # keys or refinement individualise every part: the root is the leaf
        order = [cells[c][0] for c in sorted(cells)]
        return order, _encode(s, order, keys)
    best_enc = None
    best_order: list[str] = []
    best_fixed: tuple[str, ...] = ()
    autos: list[dict[str, str]] = []
    nodes = 0
    cap = _CANON_NODE_CAP

    def rec(colors: dict[str, int], cells: dict[int, list[str]],
            fixed: tuple[str, ...], more: bool) -> Optional[int]:
        """Search below one node; the depth to resume at, or None."""
        nonlocal best_enc, best_order, best_fixed, nodes
        nodes += 1
        if nodes > cap:
            raise CanonicalBudgetError(
                f"canonical search exceeds node cap of {cap}")
        multi = [c for c, cell in cells.items() if len(cell) > 1]
        if not multi:
            order = [cells[c][0] for c in sorted(cells)]
            enc = _encode(s, order, keys)
            if best_enc is None or enc < best_enc:
                best_enc, best_order, best_fixed = enc, order, fixed
                return None
            if not more or enc != best_enc:
                # an automorphism helps only a node with children to try
                return None
            g = dict(zip(best_order, order))
            autos.append(g)
            # two leaves never share a whole path, so the paths part below
            # depth d.  A leaf lists its fixed parts first, deepest first,
            # so g fixes fixed[:d] and maps best_fixed[d] to fixed[d]
            # exactly when the two leaves have equal depth
            if len(fixed) != len(best_fixed):
                return None
            d = 0
            while best_fixed[d] == fixed[d]:
                d += 1
            return d
        cell = sorted(cells[min(multi)])
        orbit = None     # union-find over the cell, once needed
        merged = 0
        explored: list[str] = []
        for p in cell:
            if explored and merged < len(autos):
                # an automorphism fixing `fixed` preserves this node's
                # colouring, so it maps the cell onto itself
                if orbit is None:
                    orbit = {q: q for q in cell}
                for g in autos[merged:]:
                    if all(g[v] == v for v in fixed):
                        for q in cell:
                            orbit[_find(orbit, q)] = _find(orbit, g[q])
                merged = len(autos)
            if orbit is not None and any(
                    _find(orbit, p) == _find(orbit, e) for e in explored):
                continue
            explored.append(p)
            # cell offsets are >= 0 and fixed parts count down from -1, so
            # the latest fixed part's colour is fresh and sorts first
            child = _individualise(ends, colors, cells, p, -1 - len(fixed))
            back = rec(*child, fixed + (p,), more or p != cell[-1])
            if back is not None and back < len(fixed):
                return back
        return None

    rec(colors, cells, (), False)
    return best_order, best_enc


# ---------------------------------------------------------------------------
# comparison operations
# ---------------------------------------------------------------------------

def _check_witness(a: Structure, b: Structure, mapping: dict[str, str],
                   keys_a: dict[str, tuple], keys_b: dict[str, tuple]) -> bool:
    """Whether `mapping`, a bijection a.parts -> b.parts, carries keys and
    relations onto each other.

    Reads the cached `pairs` indexes: each part's pairs must map one to one
    onto its image's.
    """
    if len(mapping) != a.n or a.n != b.n or a.oriented != b.oriented:
        return False
    pairs_a, pairs_b = a.pairs, b.pairs
    for p, q in mapping.items():
        if keys_a[p] != keys_b[q]:
            return False
        around, image = pairs_a[p], pairs_b[q]
        if len(around) != len(image):
            return False
        for x, t in around.items():
            if image.get(mapping[x]) != t:
                return False
    return True


def isomorphic(a: Structure, b: Structure,
               catalog: Optional[TypeCatalog] = None,
               ) -> Optional[dict[str, str]]:
    """Part bijection witness if the structures are isomorphic, else None.

    Types resolve through the catalog when given; with none, type ids are
    compared as opaque labels.  Deterministic across runs.
    """
    require_valid(a)
    require_valid(b)
    return _witness(a, b, _key_map(a, catalog), _key_map(b, catalog))


def _witness(a: Structure, b: Structure, keys_a: dict[str, tuple],
             keys_b: dict[str, tuple]) -> Optional[dict[str, str]]:
    """Verified part bijection a -> b preserving keys and relations, or None.

    No validity check: schema bodies may carry self-loops.
    """
    if a.n != b.n or a.oriented != b.oriented:
        return None
    order_a, enc_a = _canonical(a, keys_a)
    order_b, enc_b = _canonical(b, keys_b)
    if enc_a != enc_b:
        return None
    mapping = dict(zip(order_a, order_b))
    if not _check_witness(a, b, mapping, keys_a, keys_b):
        raise AssertionError("canonical witness failed verification")
    return mapping


def internal_classes(s: Structure,
                     catalog: Optional[TypeCatalog] = None) -> list[tuple[str, ...]]:
    """Partition of the parts into internal-indistinguishability classes.

    Two parts fall in one class when exchanging their internal payloads is
    undetectable, i.e. their resolved types coincide.  The class count is the
    structure's type count and never exceeds the part count.
    """
    require_valid(s)
    keys = _key_map(s, catalog)
    groups: dict[tuple, list[str]] = {}
    for p in s.parts:
        groups.setdefault(keys[p], []).append(p)
    return [tuple(groups[k]) for k in sorted(groups)]


def morphism_number(s: Structure) -> int:
    """The morphism retaining only the part set: the natural number of s."""
    require_valid(s)
    return s.n


def swap_indistinguishable(a: Structure, b: Structure,
                           catalog_a: Optional[TypeCatalog] = None,
                           catalog_b: Optional[TypeCatalog] = None) -> bool:
    """Exchange corresponding payloads across the witness and re-check.

    The witness comes from plain (shallow) isomorphism; payloads then resolve
    deeply through each side's own catalog, so shells that look alike may
    still be distinguishable once their parts' contents travel.
    """
    require_valid(a)
    require_valid(b)
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
    The result must be valid; its part count is the sum of the operands'.
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
    glue = [g if isinstance(g, Relation) else Relation(*g) for g in gluing]
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
    c = Structure(parts, tuple(types[p] for p in parts), tuple(rels + glue),
                  oriented)
    require_valid(c)   # a glue relation may loop a part or repeat a relation
    return c


def _connected_subsets(s: Structure, size: int) -> Iterable[frozenset]:
    """All connected part subsets of the given size (canonical enumeration)."""
    adj = {p: set(around) for p, around in s.pairs.items()}
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


# steps each embedding search may take, its one bound (a step is a trie
# node visited or a candidate turned away); the largest search seen on the
# tests, the demo and the benchmark takes 2,161 (2K2 in a 4x4 grid; the
# benchmark's largest 12), and `embeds` finds P7 in a 100x100 grid in 13
_EMBED_NODE_CAP = 100_000


def _pattern_plan(b: Structure,
                  catalog: Optional[TypeCatalog]) -> tuple[tuple, ...]:
    """b's match plan: per pattern part, in match order, the wanted
    `(key, self pair, towards, anchor)`.

    Parts go in breadth-first order over b's relations, restarting at each
    component.  A part's anchor is the position of the neighbour it was
    reached from, or -1 for a component's first part; its self pair and
    `towards`, the `(position, pair)` of each earlier part it is related
    to, come from `Structure.pairs`, so a plan is linear in b.  The plan
    depends only on b and its type keys; `_plan_trie` merges plans.
    """
    pairs = b.pairs
    order: list[str] = []
    anchor: list[int] = []
    pos: dict[str, int] = {}
    for root in b.parts:
        if root in pos:
            continue
        pos[root] = len(order)
        order.append(root)
        anchor.append(-1)
        i = pos[root]
        while i < len(order):
            for q in pairs[order[i]]:
                if q not in pos:
                    pos[q] = len(order)
                    order.append(q)
                    anchor.append(i)
            i += 1
    key_of = _key_map(b, catalog)
    return tuple(
        (key_of[p], pairs[p].get(p, ()),
         tuple(sorted([(pos[q], ends) for q, ends in pairs[p].items()
                       if pos[q] < i])), anchor[i])
        for i, p in enumerate(order))


class _TrieNode:
    """A plan trie node: the patterns whose plans end here, and the next
    steps grouped as `groups[(anchor, key)] = table`.

    An anchored group (anchor >= 0, key None) holds every next step with
    that anchor, an anchorless one (anchor -1) every anchorless next step
    with that key.  `table` maps a step's `(key, self pair, towards)`
    (`_pattern_plan`) to its child node.
    """
    __slots__ = ("index", "ends", "groups")

    def __init__(self, index: int):
        self.index = index
        self.ends: list[int] = []
        self.groups: dict[tuple[int, Optional[tuple]], dict] = {}


def _plan_trie(patterns: Sequence[Structure],
               catalog: Optional[TypeCatalog]) -> tuple:
    """The plans of `patterns` (`_pattern_plan`) merged into one trie.

    Plans that start with equal steps share those nodes.  Returns
    `(root, under, paths, shapes)`: per node index, the number of patterns
    whose path runs through it; per pattern, its path as node indexes from
    the root to the node its plan ends at, and its `(oriented, n)`.
    The trie depends only on each pattern's parts, the type key of each
    part, its relations and its orientation, so patterns equal in those
    give equal tries in any catalog; `solver._recognizer_tries` shares one
    trie across specs by that content.
    """
    root = _TrieNode(0)
    n_nodes = 1
    paths = []
    for j, b in enumerate(patterns):
        node = root
        path = [0]
        for key, self_pair, towards, anchor in _pattern_plan(b, catalog):
            table = node.groups.setdefault(
                (anchor, None if anchor >= 0 else key), {})
            step = (key, self_pair, towards)
            child = table.get(step)
            if child is None:
                child = table[step] = _TrieNode(n_nodes)
                n_nodes += 1
            node = child
            path.append(node.index)
        node.ends.append(j)
        paths.append(tuple(path))
    under = [0] * n_nodes
    for path in paths:
        for i in path:
            under[i] += 1
    return root, under, paths, [(b.oriented, b.n) for b in patterns]


def _pattern_trie(b: Structure, catalog: Optional[TypeCatalog]) -> tuple:
    """b's plan as a one-pattern trie; `embeds` and `occurrences` cache it
    on b with `_cached`."""
    return _plan_trie((b,), catalog)


def _host_index(a: Structure, catalog: Optional[TypeCatalog]
                ) -> tuple[dict[str, tuple], dict[tuple, list[str]]]:
    """a's key map, and its parts grouped by key in part order: all an
    embedding search needs of its host beyond `pairs`.  `_search` caches it
    on a with `_cached`."""
    keys = _key_map(a, catalog)
    by_key: dict[tuple, list[str]] = {}
    for p in a.parts:
        by_key.setdefault(keys[p], []).append(p)
    return keys, by_key


def _search(a: Structure, trie: tuple, catalog: Optional[TypeCatalog],
            found: Callable[[int, list[str]], object]) -> list[bool]:
    """Search the induced embeddings in a of every pattern of a plan trie
    (`_plan_trie`) at once, the one matcher; which patterns `found` ended.

    A pattern takes part when it agrees with a on orientation and has
    between 1 and a.n parts.  At each trie node the search maps the next
    part of every pattern below it.  An anchored group draws its
    candidates from its anchor's image's relations, an anchorless one from
    the parts of a with its key (`_host_index`, cached on a with
    `_cached`).  A candidate is looked up in the group's table by its key
    and its pairs towards itself and the parts mapped so far, so it must
    match a step exactly.  Each complete map of pattern j goes to `found(j,
    images)`, the images in j's plan order; j is done at the first map for
    which `found` returns a true value, and the search leaves a subtree
    once every pattern below it is done.
    Raises EmbeddingBudgetError past `_EMBED_NODE_CAP` steps, its one
    bound: the root and each candidate examined are a step, and a
    candidate costs time linear in the fewer of its relations and the parts
    mapped.  A trie takes at most the sum of its patterns' steps.  The walk
    keeps its own stack, so patterns of any depth fit.  The trie is only
    read: the counts go to `left`, a copy of `under`.
    """
    root, under, paths, shapes = trie
    oriented, size = a.oriented, a.n
    pending = [o == oriented and 0 < n <= size for o, n in shapes]
    left = list(under)
    for j, live in enumerate(pending):
        if not live:
            for i in paths[j]:
                left[i] -= 1
    done = [False] * len(paths)
    if not left[0]:
        return done
    keys_a, by_key = _cached(a, catalog, _host_index)
    pairs_a = a.pairs
    images: list[str] = []
    at: dict[str, int] = {}
    steps = 1  # the root's visit
    cap = _EMBED_NODE_CAP

    def visit(node: _TrieNode) -> Iterator[Iterator]:
        # yields each child's walk with its image pushed; pops it on resume
        nonlocal steps
        for j in node.ends:
            if pending[j] and found(j, images):
                pending[j] = False
                done[j] = True
                for i in paths[j]:
                    left[i] -= 1
        if not left[node.index]:
            return
        for (anchor, key), table in node.groups.items():
            pool = pairs_a[images[anchor]] if anchor >= 0 else \
                by_key.get(key, ())
            for c in pool:
                steps += 1
                if steps > cap:
                    raise EmbeddingBudgetError(
                        f"embedding search exceeds node cap of {cap}")
                if c in at:
                    continue
                around = pairs_a[c]
                if len(around) < len(images):
                    towards = tuple(sorted([(at[x], ends) for x, ends
                                            in around.items() if x in at]))
                else:
                    towards = tuple([(i, around[x]) for i, x
                                     in enumerate(images) if x in around])
                child = table.get((keys_a[c], around.get(c, ()), towards))
                if child is None or not left[child.index]:
                    continue
                at[c] = len(images)
                images.append(c)
                yield visit(child)
                del at[images.pop()]
                if not left[node.index]:
                    return

    stack = [visit(root)]
    while stack:
        walk = next(stack[-1], None)
        if walk is None:
            stack.pop()
        else:
            stack.append(walk)
    return done


def occurrences(a: Structure, b: Structure,
                catalog: Optional[TypeCatalog] = None) -> list[frozenset]:
    """Part subsets of a whose induced structure is isomorphic to b."""
    found: set[frozenset] = set()
    # set.add returns None, so the search visits every embedding
    _search(a, _cached(b, catalog, _pattern_trie), catalog,
            lambda j, images: found.add(frozenset(images)))
    return sorted(found, key=lambda m: tuple(sorted(m)))


def embeds(a: Structure, b: Structure,
           catalog: Optional[TypeCatalog] = None) -> bool:
    """Whether some part subset of a induces a structure isomorphic to b.

    Stops at the first embedding.  b's one-pattern trie and a's host index
    are built on first use and cached on the instances.
    """
    return _search(a, _cached(b, catalog, _pattern_trie), catalog,
                   lambda j, images: True)[0]


def _is_connected(s: Structure) -> bool:
    if s.n <= 1:
        return True
    pairs = s.pairs
    seen = {s.parts[0]}
    stack = [s.parts[0]]
    while stack:
        for q in pairs[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == s.n


def difference(a: Structure, b: Structure) -> list[Structure]:
    """One result per occurrence of b inside a: a minus that portion.

    Empty list when b does not embed.  Results may contain isolated parts;
    validate() will say so when it matters.
    """
    results = []
    for members in occurrences(a, b):
        rest = [p for p in a.parts if p not in members]
        results.append(induced(a, rest))
    return results


# parts a convolution may build (64 x 64)
_CONVOLUTION_CAP = 4096


def convolution(a: Structure, b: Structure) -> Structure:
    """Substitute every part of b with a copy of a.

    Each relation of b is replicated across the corresponding parts of the
    two copies (k-th part with k-th part), so the result inherits one glue
    relation per relation of b per part of a.  Part count multiplies.
    """
    if a.n * b.n > _CONVOLUTION_CAP:
        raise StructureError(
            f"convolution exceeds output cap of {_CONVOLUTION_CAP} parts")
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
