import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkit.structure import (
    EMPTY,
    AttrType,
    CanonicalBudgetError,
    EmbeddingBudgetError,
    Relation,
    SearchBudgetError,
    Structure,
    StructType,
    StructureError,
    TypeCatalog,
    _encode,
    _ends,
    _individualise,
    _key_cells,
    _key_map,
    _refine,
    canonical_form,
    canonical_order,
    compose,
    convolution,
    difference,
    embeds,
    induced,
    internal_classes,
    isomorphic,
    morphism_number,
    occurrences,
    structure,
    swap_indistinguishable,
    validate,
)

from oracles import (
    canonical_order_oracle,
    iso_oracle,
    occurrences_oracle,
    random_structure,
    refine_oracle,
    relabeled_copy,
)

# the package re-exports the function `structure` under the module's name
STRUCTURE_MODULE = sys.modules["structkit.structure"]


def path(n, t="T", ids=None):
    ids = ids or [f"p{i}" for i in range(n)]
    rels = [(ids[i], ids[i + 1], "L") for i in range(n - 1)]
    return structure({p: t for p in ids}, rels)


def cycle(n, types=None):
    ids = [f"p{i}" for i in range(n)]
    types = types or {p: "T" for p in ids}
    rels = [(ids[i], ids[(i + 1) % n], "L") for i in range(n)]
    return structure(types, rels)


# --- validate ---------------------------------------------------------------

def test_validate_path_ok():
    assert validate(path(3)) == []


def test_validate_isolated_part():
    s = structure({"a": "T", "b": "T"}, [])
    report = validate(s)
    assert any("isolated" in p for p in report)


def test_validate_self_loop():
    s = structure({"a": "T", "b": "T"}, [("a", "b", "L"), ("a", "a", "L")])
    assert any("self-loop" in p for p in validate(s))


def test_validate_duplicate_relation():
    s = structure({"a": "T", "b": "T"}, [("a", "b", "L"), ("b", "a", "L")])
    assert any("duplicate" in p for p in validate(s))


def test_a_relation_to_an_unknown_part_fails_at_construction():
    # the matcher and the canonical search look up every relation end
    with pytest.raises(StructureError,
                       match=r"relation \(a,z\) references unknown part"):
        Structure(("a", "b"), ("A", "A"), (Relation("a", "z", "e"),))
    with pytest.raises(StructureError, match="unknown part"):
        structure({"a": "T"}, [("z", "a", "L")], oriented=True)


def test_structure_builds_relation_tuples_like_relation():
    s = structure({"a": "T", "b": "T"}, [("a", "b", "L", {"w": 2, "h": 1})])
    assert s.relations == (Relation("a", "b", "L", {"w": 2, "h": 1}),)
    assert s.relations[0].attrs == (("h", 1), ("w", 2))
    with pytest.raises(TypeError):
        structure({"a": "T", "b": "T"}, [("a", "b", "L", {}, "extra")])


def test_single_part_is_legal():
    assert validate(structure({"a": "T"})) == []


def test_empty_structure_invalid_outside_compose():
    assert any("empty" in p for p in validate(EMPTY))
    with pytest.raises(StructureError):
        isomorphic(EMPTY, EMPTY)


# --- isomorphism ------------------------------------------------------------

def test_iso_relabeled_path():
    a = path(3)
    b = path(3, ids=["x", "y", "z"])
    w = isomorphic(a, b)
    assert w is not None
    assert sorted(w) == ["p0", "p1", "p2"]


def test_iso_cycle_vs_path():
    assert isomorphic(cycle(3), path(3)) is None


def test_iso_attribute_sensitivity():
    a = structure({"a": "T", "b": "T"}, [("a", "b", "L", {"w": 1})])
    b = structure({"a": "T", "b": "T"}, [("a", "b", "L", {"w": 2})])
    assert isomorphic(a, b) is None
    assert isomorphic(a, a) is not None


def test_iso_oriented_direction_matters():
    a = structure({"a": "T", "b": "S", "c": "T"},
                  [("a", "b", "L"), ("b", "c", "L")], oriented=True)
    b = structure({"a": "T", "b": "S", "c": "T"},
                  [("b", "a", "L"), ("b", "c", "L")], oriented=True)
    assert isomorphic(a, b) is None


def test_iso_agrees_with_oracle_on_random_pairs():
    rng = random.Random(4021)
    for _ in range(120):
        a = random_structure(rng, max_n=6)
        if rng.random() < 0.5:
            b = relabeled_copy(rng, a)
        else:
            b = random_structure(rng, max_n=6)
        got = isomorphic(a, b) is not None
        assert got == iso_oracle(a, b)


def test_iso_witness_preserves_relations():
    rng = random.Random(99)
    for _ in range(40):
        a = random_structure(rng, max_n=7)
        b = relabeled_copy(rng, a)
        w = isomorphic(a, b)
        assert w is not None
        for r in a.relations:
            ends = {w[r.a], w[r.b]}
            assert any({x.a, x.b} == ends and x.label == r.label
                       for x in b.relations)


def complete(n):
    ids = [f"p{i}" for i in range(n)]
    return structure({p: "T" for p in ids},
                     [(ids[i], ids[j], "L") for i in range(n) for j in range(i + 1, n)])


def disjoint_cycles(*sizes):
    ids = [f"c{k}_{i}" for k, n in enumerate(sizes) for i in range(n)]
    rels = [(f"c{k}_{i}", f"c{k}_{(i + 1) % n}", "L")
            for k, n in enumerate(sizes) for i in range(n)]
    return structure({p: "T" for p in ids}, rels)


def disjoint_union(*components):
    """Components side by side, as (structure, relation label) pairs;
    component k's parts get the prefix u{k}_."""
    types, rels = {}, []
    for k, (c, label) in enumerate(components):
        types.update({f"u{k}_{p}": t for p, t in zip(c.parts, c.part_types)})
        rels += [(f"u{k}_{r.a}", f"u{k}_{r.b}", label) for r in c.relations]
    return structure(types, rels)


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}", "L") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}", "L") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}", "L") for i in range(5)]
    ids = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return structure({p: "T" for p in ids}, outer + inner + spokes)


def cfi(n, twisted):
    """Cai-Fuerer-Immerman graph over K_n, one base edge twisted or none.

    Base vertex v gets an end pair a{v}_{e}_0/1 per incident edge e and a
    middle part per even subset S of those edges, joined to end 1 of the
    edges in S and end 0 of the rest; the ends of each base edge are joined
    0-0 and 1-1, or crosswise on the twisted edge.  Colour refinement cannot
    tell the two graphs apart; they are not isomorphic.
    """
    edges = list(itertools.combinations(range(n), 2))
    types, rels = {}, []
    for v in range(n):
        around = [e for e in edges if v in e]
        types.update({f"a{v}_{u}{w}_{i}": "T" for u, w in around for i in (0, 1)})
        for k in range(0, len(around) + 1, 2):
            for subset in itertools.combinations(around, k):
                mid = f"m{v}_" + "".join(f"{u}{w}" for u, w in subset)
                types[mid] = "T"
                rels += [(mid, f"a{v}_{u}{w}_{int((u, w) in subset)}", "L")
                         for u, w in around]
    for j, (u, w) in enumerate(edges):
        for i in (0, 1):
            rels.append((f"a{u}_{u}{w}_{i}",
                         f"a{w}_{u}{w}_{1 - i if twisted and j == 0 else i}", "L"))
    return structure(types, rels)


def _symmetric_pairs():
    rng = random.Random(2014)
    families = [(f"K{n}", complete(n)) for n in (*range(2, 9), 12, 20, 30)]
    families += [(f"C{n}", cycle(n)) for n in (3, 5, 7, 16, 30, 100, 200)]
    families += [(f"grid{w}x{w}", convolution(path(w), path(w))) for w in (2, 3, 4)]
    families.append(("C3*C3", convolution(cycle(3), cycle(3))))
    families.append(("Petersen", petersen()))
    # one refinement class whose parts are not all alike: the canonical
    # search must try every part of it, not just the first by name
    families.append(("C6+2C3", disjoint_cycles(6, 3, 3)))
    # equal leaves turn up before the least one: a search that prunes
    # children outside the orbits of explored siblings picks another order
    families.append(("C4+C8", disjoint_cycles(4, 8)))
    pairs = [pytest.param(s, relabeled_copy(rng, s), True, id=name)
             for name, s in families]
    # refinement leaves every part of both sides in one class; only the
    # individualisation search can tell them apart
    pairs += [pytest.param(cycle(2 * n), disjoint_cycles(n, n), False,
                           id=f"C{2 * n}-vs-2C{n}")
              for n in (3, 4, 6, 50)]
    # over K3 the pair is 2C9 vs C18; over K4 both sides are 3-regular
    pairs += [pytest.param(cfi(n, False), cfi(n, True), False,
                           id=f"CFI(K{n})-vs-twisted")
              for n in (3, 4, 5, 6)]
    # type ids holding `|` and `:`: joined into one string, both sides'
    # type keys and relations would read alike
    pairs.append(pytest.param(
        structure({"u": "x|o:y", "v": "z"}, [("u", "v", "L")]),
        structure({"u": "x", "v": "y|o:z"}, [("u", "v", "L")]),
        False, id="separators-in-type-ids"))
    return pairs


@pytest.mark.parametrize("a, b, iso", _symmetric_pairs())
def test_symmetric_families(a, b, iso):
    w = isomorphic(a, b)
    assert (w is not None) == iso
    assert (canonical_form(a) == canonical_form(b)) == iso
    if iso:
        mapped = sorted((Relation(w[r.a], w[r.b], r.label).ends(a.oriented),
                         r.label, r.attrs) for r in a.relations)
        assert mapped == sorted((r.ends(b.oriented), r.label, r.attrs)
                                for r in b.relations)
    if a.n <= 7:
        assert iso_oracle(a, b) == iso
    # the form is the winning leaf's encoding, under bound type keys too
    cat = TypeCatalog()
    for t in sorted(set(a.part_types) | set(b.part_types)):
        cat.add_atomic(t, "bound-" + t)
    for s in (a, b):
        for catalog in (None, cat):
            assert canonical_form(s, catalog) == _encode(
                s, canonical_order(s, catalog), _key_map(s, catalog))


# the unpruned search takes 2.5-5 s on K8 and C100, about 20 s on CFI over
# K5, and longer on the others
_UNPRUNED_TOO_SLOW = {"K8", "K12", "K20", "K30", "C100", "C200",
                      "C100-vs-2C50", "CFI(K5)-vs-twisted",
                      "CFI(K6)-vs-twisted"}


@pytest.mark.parametrize(
    "a, b, iso",
    [p for p in _symmetric_pairs() if p.id not in _UNPRUNED_TOO_SLOW])
def test_pruned_canonical_order_matches_unpruned_on_symmetric_families(a, b, iso):
    assert canonical_order(a) == canonical_order_oracle(a)
    assert canonical_order(b) == canonical_order_oracle(b)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3),
       st.booleans())
def test_pruned_canonical_order_matches_unpruned(seed, n_types, n_labels,
                                                 oriented):
    rng = random.Random(seed)
    s = random_structure(rng, max_n=9, n_types=n_types, n_labels=n_labels,
                         oriented=oriented)
    for x in (s, relabeled_copy(rng, s)):
        assert canonical_order(x) == canonical_order_oracle(x)


_COMPONENTS = {"K3": complete(3), "K4": complete(4), "C4": cycle(4),
               "C5": cycle(5), "C6": cycle(6), "Petersen": petersen()}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_COMPONENTS)),
                          st.sampled_from("LM")),
                min_size=2, max_size=3).filter(
           # the unpruned search takes about 10 s on 3K4
           lambda comps: sum(_COMPONENTS[c].n for c, _ in comps) <= 13
           and [c for c, _ in comps].count("K4") < 3),
       st.integers(0, 2 ** 31 - 1))
def test_pruned_canonical_order_matches_unpruned_on_disjoint_unions(comps,
                                                                   seed):
    # one refinement class spread over unlike components, where relation
    # labels make like shapes unlike: automorphisms are found long before
    # the search is over, and a jump-back may unwind several levels
    s = relabeled_copy(random.Random(seed), disjoint_union(
        *[(_COMPONENTS[c], label) for c, label in comps]))
    assert canonical_order(s) == canonical_order_oracle(s)


def test_end_ids_sort_like_end_colour_pairs():
    # refinement adds a colour in [-n, n) to an end id and sorts the sums
    rng = random.Random(2)
    for oriented in (False, True):
        s = with_random_attrs(rng, random_structure(
            rng, max_n=9, n_labels=3, oriented=oriented))
        n = s.n
        # each part's (dir, label, attrs) ends, in relation order like _ends
        dirs = (">", "<") if oriented else ("-", "-")
        around = {p: [] for p in s.parts}
        for r in s.relations:
            around[r.a].append((dirs[0], r.label, r.attrs))
            around[r.b].append((dirs[1], r.label, r.attrs))
        ends = _ends(s)
        sums = {}
        for p in s.parts:
            assert len(ends[p]) == len(around[p])
            for (e, _), end in zip(ends[p], around[p]):
                for c in range(-n, n):
                    sums[end, c] = e + c
        pairs = sorted(sums)
        assert [sums[k] for k in pairs] == sorted(set(sums.values()))


def ordered_partition(colors):
    classes = {}
    for p, c in colors.items():
        classes.setdefault(c, set()).add(p)
    return [classes[c] for c in sorted(classes)]


def assert_refine_matches_oracle(s):
    """`_refine` and `_individualise` keep the full-round ordered partition,
    from the type-key colouring, after individualising each part of a
    non-singleton cell, and down one search path to a discrete colouring."""
    keys = _key_map(s, None)
    ends = _ends(s)
    cells = _key_cells(s, keys)
    colors = {p: c for c, cell in cells.items() for p in cell}
    _refine(ends, colors, cells, set(s.parts))
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    old = refine_oracle(s, {p: rank[keys[p]] for p in s.parts})
    assert ordered_partition(colors) == ordered_partition(old)
    for p in s.parts:
        if len(cells[colors[p]]) > 1:
            got, _ = _individualise(ends, colors, cells, p, -1)
            assert ordered_partition(got) == ordered_partition(
                refine_oracle(s, {**old, p: -1}))
    for depth in itertools.count():
        assert {p: c for c, cell in cells.items() for p in cell} == colors
        multi = [c for c, cell in cells.items() if len(cell) > 1]
        if not multi:
            return
        # the last part by name, where the search starts with the first
        p = max(cells[min(multi)])
        colors, cells = _individualise(ends, colors, cells, p, -1 - depth)
        old = refine_oracle(s, {**old, p: -1})
        assert ordered_partition(colors) == ordered_partition(old)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_refine_keeps_full_round_partition(seed, n_types, n_labels, oriented,
                                           attrs):
    rng = random.Random(seed)
    s = random_structure(rng, max_n=14, n_types=n_types, n_labels=n_labels,
                         oriented=oriented)
    if attrs:
        s = with_random_attrs(rng, s)
    assert_refine_matches_oracle(s)


@pytest.mark.parametrize(
    "a, b, iso",
    [p for p in _symmetric_pairs() if p.id not in _UNPRUNED_TOO_SLOW])
def test_refine_keeps_full_round_partition_on_symmetric_families(a, b, iso):
    assert_refine_matches_oracle(a)
    assert_refine_matches_oracle(b)


def test_refine_keeps_full_round_partition_on_variants():
    # the families again, typed, labelled, attributed and oriented at random
    rng = random.Random(1987)
    families = [complete(6), cycle(12), disjoint_cycles(6, 6),
                convolution(path(4), path(4)), convolution(cycle(4), cycle(4)),
                looped_c4]
    for s in families:
        rels = tuple(Relation(r.a, r.b, rng.choice("LM"),
                              rng.choice([(), (("w", 1),)]))
                     for r in s.relations)
        types = tuple(rng.choice("AB") for _ in s.parts)
        for oriented in (False, True):
            assert_refine_matches_oracle(
                Structure(s.parts, types, rels, oriented))


@pytest.mark.parametrize("s", [
    *[pytest.param(cycle(n), id=f"C{n}") for n in (20, 25, 40)],
    *[pytest.param(convolution(path(w), path(w)), id=f"grid{w}x{w}")
      for w in (5, 6)],
    pytest.param(convolution(cycle(4), cycle(4)), id="C4*C4"),
    # a path's cells split from the ends inwards, so the largest piece of
    # a split is often not its first
    *[pytest.param(path(n), id=f"P{n}") for n in (2, 3, 8, 15, 24)],
])
def test_refine_keeps_full_round_partition_on_benchmark_sizes(s):
    assert_refine_matches_oracle(s)
    assert_refine_matches_oracle(relabeled_copy(random.Random(s.n), s))


@pytest.mark.parametrize("a, b, iso", _symmetric_pairs())
def test_witness_zips_the_canonical_orders_on_symmetric_families(a, b, iso):
    # b's search stops at the first leaf that encodes like a's canonical
    # leaf; the witness is still the one the two full searches give
    w = isomorphic(a, b)
    assert w == (dict(zip(canonical_order(a), canonical_order(b)))
                 if iso else None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3),
       st.booleans())
def test_witness_zips_the_canonical_orders(seed, n_types, n_labels, oriented):
    rng = random.Random(seed)
    a = random_structure(rng, max_n=12, n_types=n_types, n_labels=n_labels,
                         oriented=oriented)
    b = relabeled_copy(rng, a)
    assert isomorphic(a, b) == dict(zip(canonical_order(a),
                                        canonical_order(b)))


def test_witness_search_stops_at_the_first_leaf_like_a(monkeypatch):
    encoded = []
    encode = STRUCTURE_MODULE._encode
    monkeypatch.setattr(STRUCTURE_MODULE, "_encode",
                        lambda s, order, keys: encoded.append(s)
                        or encode(s, order, keys))

    def leaves(s):
        return sum(x is s for x in encoded)

    rng = random.Random(20)
    a, b = relabeled_copy(rng, cycle(20)), relabeled_copy(rng, cycle(20))
    assert isomorphic(a, b) is not None
    assert leaves(b) < leaves(a)
    # with no leaf like a's, b's search runs in full
    a, b = cycle(20), disjoint_cycles(10, 10)
    assert isomorphic(a, b) is None
    searched = leaves(b)
    encoded.clear()
    canonical_order(b)
    assert leaves(b) == searched


def test_canonical_node_cap(monkeypatch):
    monkeypatch.setattr(STRUCTURE_MODULE, "_CANON_NODE_CAP", 2)
    with pytest.raises(CanonicalBudgetError, match="node cap of 2"):
        canonical_order(cycle(10))
    with pytest.raises(StructureError):
        isomorphic(cycle(10), cycle(10))
    # refinement alone gives distinct colours: the root is the only node
    monkeypatch.setattr(STRUCTURE_MODULE, "_CANON_NODE_CAP", 1)
    typed = structure({"a": "A", "b": "B"}, [("a", "b", "L")])
    assert canonical_order(typed) == ["a", "b"]


def test_canonical_skips_refinement_when_keys_split_every_part(monkeypatch):
    # every part has a key of its own, so no relation needs reading
    typed = structure({"c": "C", "a": "A", "b": "B"},
                      [("a", "b", "L"), ("b", "c", "L"), ("c", "a", "M")],
                      oriented=True)
    expected = canonical_order_oracle(typed)

    def refuse(s):
        raise AssertionError("refinement ran")

    monkeypatch.setattr(STRUCTURE_MODULE, "_ends", refuse)
    assert canonical_order(typed) == expected == ["a", "b", "c"]
    assert isomorphic(typed, relabeled_copy(random.Random(4), typed))
    with pytest.raises(AssertionError, match="refinement ran"):
        canonical_order(path(3))


@pytest.mark.parametrize("n", [12, 20, 30])
def test_complete_graph_search_within_n_squared_nodes(monkeypatch, n):
    # an automorphism between two leaves sends the search back to the
    # deepest node their paths share, so K_n takes about n^2 / 2 nodes
    monkeypatch.setattr(STRUCTURE_MODULE, "_CANON_NODE_CAP", n * n)
    assert sorted(canonical_order(complete(n))) == sorted(complete(n).parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1))
def test_iso_equivalence_relation(seed1, seed2):
    rng1, rng2 = random.Random(seed1), random.Random(seed2)
    a = random_structure(rng1, max_n=6)
    b = relabeled_copy(rng1, a)
    c = random_structure(rng2, max_n=6)
    assert isomorphic(a, a) is not None                      # reflexive
    assert (isomorphic(a, b) is None) == (isomorphic(b, a) is None)
    if isomorphic(a, c) is not None and isomorphic(c, b) is not None:
        assert isomorphic(a, b) is not None                  # transitive


# --- internal classes -------------------------------------------------------

def test_internal_classes_symmetric_cycle():
    classes = internal_classes(cycle(5))
    assert len(classes) == 1
    assert sorted(classes[0]) == [f"p{i}" for i in range(5)]


def test_internal_classes_triangle_red_red_blue():
    s = cycle(3, {"p0": "red", "p1": "red", "p2": "blue"})
    classes = internal_classes(s)
    assert len(classes) == 2

    # oracle: swap payloads for every transposition, compare pointwise
    def swapped(s, p, q):
        t = dict(s.types)
        t[p], t[q] = t[q], t[p]
        return s.with_types(t)

    same = {(p, q) for p in s.parts for q in s.parts
            if s == swapped(s, p, q)}
    assert ("p0", "p1") in same and ("p0", "p2") not in same


def test_internal_classes_identical_payload_parts_share_class():
    cat = TypeCatalog()
    brick = path(2, t="clay")
    tid = cat.intern_struct(brick)
    s = structure({"a": tid, "b": tid}, [("a", "b", "on")])
    classes = internal_classes(s, cat)
    assert classes == [("a", "b")]


# --- type catalog -------------------------------------------------------------

def test_catalog_rejects_cyclic_payloads():
    cat = TypeCatalog()
    with pytest.raises(StructureError):
        cat.add_struct("a", structure({"u": "a"}))
    cat.add_struct("a", structure({"u": "b"}))
    with pytest.raises(StructureError):
        cat.add_struct("b", structure({"v": "a"}))
    assert "b" not in cat


def test_catalog_rejects_binding_an_id_a_payload_names():
    cat = TypeCatalog()
    cat.intern_struct(path(2, t="x"))
    with pytest.raises(StructureError):
        cat.add_atomic("x")
    with pytest.raises(StructureError):
        cat.intern_attr("x")
    with pytest.raises(StructureError):
        cat.add_struct("x", path(2, t="y"))
    assert "x" not in cat


def test_intern_attr_rejects_an_id_bound_to_another_payload():
    cat = TypeCatalog()
    assert cat.intern_attr("a", {"y": 2, "x": 1}) == "a[x=1,y=2]"
    assert cat.intern_attr("a", {"x": 1, "y": 2}) == "a[x=1,y=2]"
    with pytest.raises(StructureError, match="already bound"):
        cat.intern_attr("a[x=1,y=2]")
    fresh = cat.intern_struct(path(2, t="a"))
    assert fresh == "t0"
    with pytest.raises(StructureError, match="already bound"):
        cat.intern_attr("t0")
    assert cat.resolve("a[x=1,y=2]") == AttrType("a", (("x", 1), ("y", 2)))
    assert isinstance(cat.resolve("t0"), StructType)


def test_catalog_keys_fixed_at_registration(monkeypatch):
    cat = TypeCatalog()
    cat.add_atomic("clay")
    brick = cat.intern_struct(path(2, t="clay"))
    loose = cat.intern_struct(path(2, t="x"))
    before = {t: cat.type_key(t) for t in ("clay", brick, loose)}
    with pytest.raises(StructureError):
        cat.add_atomic("x")
    cat.add_atomic("mortar")
    cat.intern_struct(path(3, t=brick))
    assert {t: cat.type_key(t) for t in before} == before
    # lookups never rebuild a key
    monkeypatch.setattr(TypeCatalog, "_entry_key", None)
    assert cat.type_key(brick) == before[brick]
    s = structure({"a": brick, "b": loose}, [("a", "b", "L")])
    assert len(internal_classes(s, cat)) == 2


def test_interning_one_payload_twice_returns_one_id():
    cat = TypeCatalog()
    tid = cat.intern_struct(path(2, t="x"))
    with pytest.raises(StructureError):
        cat.add_atomic("x")
    assert cat.intern_struct(path(2, t="x")) == tid


def test_intern_struct_fresh_ids_skip_bound_and_named_ids():
    cat = TypeCatalog()
    cat.add_atomic("t0")
    assert cat.intern_struct(path(2, t="t0")) == "t1"
    # the payload itself names t2
    assert cat.intern_struct(path(2, t="t2")) == "t3"
    cat.add_struct("shell", path(2, t="t4"))
    assert cat.intern_struct(path(3, t="t0")) == "t5"


def test_m_degree_bounded_by_n():
    rng = random.Random(7)
    for _ in range(50):
        s = random_structure(rng)
        assert len(internal_classes(s)) <= s.n


def test_n_and_m_are_isomorphism_invariants():
    rng = random.Random(11)
    for _ in range(30):
        a = random_structure(rng)
        b = relabeled_copy(rng, a)
        assert morphism_number(a) == morphism_number(b)
        assert len(internal_classes(a)) == len(internal_classes(b))


def test_within_class_swap_identical_cross_class_distinguishable():
    rng = random.Random(23)
    for _ in range(30):
        s = random_structure(rng, max_n=6)
        classes = internal_classes(s)
        cls_of = {p: i for i, c in enumerate(classes) for p in c}
        for p in s.parts:
            for q in s.parts:
                if p >= q:
                    continue
                t = dict(s.types)
                t[p], t[q] = t[q], t[p]
                swapped = s.with_types(t)
                if cls_of[p] == cls_of[q]:
                    assert s == swapped
                else:
                    assert s != swapped


# --- swap indistinguishability ----------------------------------------------

def test_swap_identical_copies_true():
    a = path(3)
    b = path(3, ids=["x", "y", "z"])
    assert swap_indistinguishable(a, b)


def test_swap_with_itself_true():
    a = cycle(4)
    assert swap_indistinguishable(a, a)


def test_swap_different_hidden_payloads_false():
    # same shell type id resolving to different nested structures
    cat_a, cat_b = TypeCatalog(), TypeCatalog()
    cat_a.add_struct("shell", path(2, t="x"))
    cat_b.add_struct("shell", path(3, t="x"))
    a = structure({"a": "shell", "b": "shell"}, [("a", "b", "L")])
    b = structure({"u": "shell", "v": "shell"}, [("u", "v", "L")])
    assert isomorphic(a, b) is not None
    assert swap_indistinguishable(a, b, cat_a, cat_b) is False
    assert swap_indistinguishable(a, b, cat_a, cat_a) is True


def test_swap_requires_isomorphism():
    with pytest.raises(StructureError):
        swap_indistinguishable(path(2), path(3))


# --- structural arithmetic --------------------------------------------------

def test_compose_counts_add():
    a, b = path(3), path(4)
    c = compose(a, b, [("a.p2", "b.p0", "glue")])
    assert morphism_number(c) == 7
    assert validate(c) == []


def test_compose_empty_identity():
    a = path(3)
    assert compose(a, EMPTY) == a
    assert compose(EMPTY, a) == a


def test_compose_keeps_operands_as_portions():
    from structkit.structure import induced
    a, b = path(2), cycle(3)
    c = compose(a, b, [("a.p0", "b.p0", "glue")])
    sub = induced(c, ["a.p0", "a.p1"])
    assert isomorphic(sub, a) is not None


def test_compose_two_gluings_nonisomorphic_equal_n():
    a = path(3)
    b = structure({"x": "S", "y": "T"}, [("x", "y", "L")])
    c1 = compose(a, b, [("a.p0", "b.x", "glue")])
    c2 = compose(a, b, [("a.p1", "b.x", "glue")])
    assert morphism_number(c1) == morphism_number(c2) == 5
    assert isomorphic(c1, c2) is None


def test_compose_unknown_part_errors():
    with pytest.raises(StructureError, match=r"\(a.p9,b.p0\) references unknown"):
        compose(path(2), path(2), [("a.p9", "b.p0", "glue")])


def test_compose_requires_crossing_gluing():
    with pytest.raises(StructureError):
        compose(path(2), path(2), [("a.p0", "a.p1", "glue")])


@pytest.mark.parametrize("oriented", [False, True])
@pytest.mark.parametrize("extra, message", [
    (("a.x", "b.z", "G"), r"duplicate relation \(a.x,b.z,G\)"),
    (("a.x", "a.y", "L"), r"duplicate relation \(a.x,a.y,L\)"),
    (("b.z", "b.z", "G"), "self-loop on part b.z")])
def test_compose_rejects_glue_that_validate_would(oriented, extra, message):
    # each of these used to return a structure `validate` rejects
    a = structure({"x": "S", "y": "T"}, [("x", "y", "L")], oriented=oriented)
    b = structure({"z": "S"}, oriented=oriented)
    glue = [("a.x", "b.z", "G")]
    assert validate(compose(a, b, glue)) == []
    with pytest.raises(StructureError, match=message):
        compose(a, b, glue + [extra])


def test_compose_glue_repeat_follows_orientation():
    # y->x repeats x-y only when the relations are unoriented
    a = structure({"x": "S", "y": "T"}, [("x", "y", "L")])
    b = structure({"z": "S"})
    glue = [("a.x", "b.z", "G"), ("a.y", "a.x", "L")]
    with pytest.raises(StructureError, match="duplicate relation"):
        compose(a, b, glue)
    c = compose(structure(a.types, a.relations, oriented=True),
                structure(b.types, oriented=True), glue)
    assert validate(c) == []


def test_difference_counts():
    a, b = path(5), path(2)
    results = difference(a, b)
    assert results and all(r.n == 3 for r in results)


def test_difference_no_embedding_empty():
    assert difference(path(3), cycle(3)) == []


def test_difference_two_occurrences():
    # two typed 2-paths A-B inside a 5-path typed A B C A B
    s = structure({"p0": "A", "p1": "B", "p2": "C", "p3": "A", "p4": "B"},
                  [("p0", "p1", "L"), ("p1", "p2", "L"),
                   ("p2", "p3", "L"), ("p3", "p4", "L")])
    b = structure({"x": "A", "y": "B"}, [("x", "y", "L")])
    # oracle: exhaustive subset scan
    import itertools
    expected = 0
    for pair in itertools.combinations(s.parts, 2):
        sub = {p: s.types[p] for p in pair}
        rels = [r for r in s.relations if r.a in pair and r.b in pair]
        if len(rels) == 1 and sorted(sub.values()) == ["A", "B"]:
            expected += 1
    assert expected == 2
    assert len(difference(s, b)) == expected


def test_convolution_counts_multiply():
    a, b = path(2), path(3)
    c = convolution(a, b)
    assert morphism_number(c) == 6
    assert validate(c) == []


def test_convolution_single_part_identity():
    a = cycle(4)
    b = structure({"x": "S"})
    assert isomorphic(convolution(a, b), a) is not None


def test_convolution_two_path_manual_oracle():
    a = path(2)
    b = path(2, ids=["x", "y"])
    c = convolution(a, b)
    assert c.n == 4
    # copy-internal edges: one per copy; glue edges: one per part of a
    glue = [r for r in c.relations
            if r.a.split(".")[0] != r.b.split(".")[0]]
    assert len(glue) == 2
    assert len(c.relations) == 4


def test_convolution_orientation_mismatch_errors():
    a = path(2)
    b = structure({"x": "T", "y": "T"}, [("x", "y", "L")], oriented=True)
    with pytest.raises(StructureError):
        convolution(a, b)


def test_morphism_number_homomorphisms_random():
    rng = random.Random(31)
    for _ in range(100):
        a = random_structure(rng, max_n=5)
        b = random_structure(rng, max_n=5)
        glue = [("a." + a.parts[0], "b." + b.parts[0], "glue")]
        assert morphism_number(compose(a, b, glue)) == a.n + b.n
        if a.oriented == b.oriented:
            assert morphism_number(convolution(a, b)) == a.n * b.n


def test_equinumerous_nonisomorphic_equal_number():
    a, b = path(3), cycle(3)
    assert isomorphic(a, b) is None
    assert morphism_number(a) == morphism_number(b)


def test_convolution_bounds_its_output_not_its_operands():
    assert convolution(path(100), path(2)).n == 200
    assert convolution(path(64), path(64)).n == 4096
    with pytest.raises(StructureError, match="convolution"):
        convolution(path(65), path(64))


# --- large hosts: the step cap is the matcher's one bound --------------------

def grid(width, height):
    parts = {f"g{x}_{y}": "T" for x in range(width) for y in range(height)}
    rels = [(f"g{x}_{y}", f"g{x + 1}_{y}", "L")
            for x in range(width - 1) for y in range(height)]
    rels += [(f"g{x}_{y}", f"g{x}_{y + 1}", "L")
             for x in range(width) for y in range(height - 1)]
    return structure(parts, rels)


def test_occurrences_on_hosts_over_64_parts_match_oracle():
    rng = random.Random(6512)
    for k in range(20):
        oriented = k % 2 == 1
        host = random_structure(rng, max_n=120, oriented=oriented)
        while host.n < 65:
            host = random_structure(rng, max_n=120, oriented=oriented)
        for _ in range(4):
            assert_matches_oracle(host, random_structure(
                rng, max_n=4, oriented=oriented))


def test_embeds_a_path_in_a_large_grid():
    assert embeds(grid(100, 100), path(7))
    assert embeds(grid(9, 9), path(3))


def test_listing_every_path_in_a_large_grid_hits_the_step_cap():
    with pytest.raises(EmbeddingBudgetError, match="node cap"):
        occurrences(grid(40, 40), path(7))


def test_candidates_turned_away_count_as_steps(monkeypatch):
    # b needs a self-loop, so every part examined for it is turned away:
    # the first choice of a takes 1 + 1 visits and 5 candidates
    lone = structure({"a": "T", "b": "T"}, [("b", "b", "L")])
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 6)
    with pytest.raises(EmbeddingBudgetError, match="node cap of 6"):
        embeds(path(5), lone)
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 31)
    assert not embeds(path(5), lone)


def test_a_pattern_part_no_host_part_takes_hits_the_step_cap():
    # each choice of a scans all 10,000 parts for b, so the cap, not the
    # quadratic scan, ends the search
    lone = structure({"a": "T", "b": "T"}, [("b", "b", "L")])
    with pytest.raises(EmbeddingBudgetError, match="node cap"):
        embeds(grid(100, 100), lone)
    with pytest.raises(EmbeddingBudgetError, match="node cap"):
        occurrences(grid(100, 100), lone)


def test_patterns_over_64_parts_are_matched():
    # a plan lists only the relations between a part and earlier ones,
    # and the walk keeps its own stack, so neither grows past the pattern
    big = path(2000)
    plan = STRUCTURE_MODULE._pattern_plan(big, None)
    assert sum(len(towards) for _, _, towards, _ in plan) == 1999
    assert embeds(path(2100), big)
    windows = [frozenset(f"p{i}" for i in range(lo, lo + 70))
               for lo in range(31)]
    found = occurrences(path(100), path(70))
    assert len(found) == 31 and set(found) == set(windows)


# --- induced embeddings -----------------------------------------------------

def assert_matches_oracle(a, b, catalog=None):
    expected = occurrences_oracle(a, b, catalog)
    assert occurrences(a, b, catalog) == expected
    assert embeds(a, b, catalog) == bool(expected)
    return expected


def with_random_attrs(rng, s):
    rels = tuple(Relation(r.a, r.b, r.label, rng.choice([(), (("w", 0),),
                                                         (("w", 1),)]))
                 for r in s.relations)
    return Structure(s.parts, s.part_types, rels, s.oriented)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_occurrences_match_oracle(seed, n_types, n_labels, oriented, attrs):
    rng = random.Random(seed)
    host = random_structure(rng, max_n=8, n_types=n_types,
                            n_labels=n_labels, oriented=oriented)
    if attrs:
        host = with_random_attrs(rng, host)
    # a part subset of the host, often disconnected, usually embeds; a
    # fresh random pattern usually does not
    k = rng.randint(1, min(4, host.n))
    sub = relabeled_copy(rng, induced(host, rng.sample(host.parts, k)))
    fresh = random_structure(rng, max_n=4, n_types=n_types,
                             n_labels=n_labels, oriented=oriented)
    if attrs:
        fresh = with_random_attrs(rng, fresh)
    for pattern in (sub, fresh):
        assert_matches_oracle(host, pattern)
        assert_matches_oracle(pattern, host)


def with_self_loops(rng, s, n_labels):
    loops = tuple(Relation(p, p, f"L{rng.randrange(n_labels)}")
                  for p in s.parts if rng.random() < 0.3)
    return Structure(s.parts, s.part_types, s.relations + loops, s.oriented)


def recognition_patterns(rng, host, n_types, n_labels, oriented):
    """Patterns for one recognition pass over host: shared plan prefixes,
    duplicates, disconnected and single-part ones, one larger than the host
    and one of the other orientation."""
    k = rng.randint(1, min(4, host.n))
    sub = induced(host, rng.sample(host.parts, k))
    # a part added after sub's own keeps sub's plan as a prefix
    t = f"T{rng.randrange(n_types)}"
    grown = Structure(sub.parts + ("new",), sub.part_types + (t,),
                      sub.relations + (Relation(rng.choice(sub.parts), "new",
                                                "L0"),), oriented)
    lone = Structure(("x",), (t,), (), oriented)
    larger = Structure(host.parts + ("new",), host.part_types + (t,),
                       host.relations + (Relation(host.parts[0], "new",
                                                  "L0"),), oriented)
    flipped = Structure(sub.parts, sub.part_types, sub.relations,
                        not oriented)
    fresh = random_structure(rng, max_n=4, n_types=n_types,
                             n_labels=n_labels, oriented=oriented)
    copy = Structure(sub.parts, sub.part_types, sub.relations, oriented)
    return [sub, grown, relabeled_copy(rng, sub), sub, copy, lone,
            induced(host, rng.sample(host.parts, k)), larger, flipped,
            fresh, with_self_loops(rng, lone, n_labels)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_recognition_pass_matches_oracle(seed, n_types, n_labels, oriented,
                                         attrs):
    # one search over the patterns' shared plan trie fires exactly the
    # recognizers whose pattern the oracle finds in the host
    from structkit.rules import MicroSituation, MsMember
    from structkit.solver import (Production, ProblemSpec, SetEffect,
                                  StructRecognizer, state_recognitions)
    rng = random.Random(seed)
    host = random_structure(rng, max_n=7, n_types=n_types,
                            n_labels=n_labels, oriented=oriented)
    host = with_self_loops(rng, host, n_labels)
    if attrs:
        host = with_random_attrs(rng, host)
    patterns = recognition_patterns(rng, host, n_types, n_labels, oriented)
    hit = [bool(occurrences_oracle(host, p)) for p in patterns]
    any_r0 = MicroSituation((MsMember("r0", True),))
    spec = ProblemSpec(host, any_r0,
                       (Production("noop", any_r0, SetEffect()),),
                       recognizers=tuple(StructRecognizer(f"r{j}", p)
                                         for j, p in enumerate(patterns)))
    assert [r.subject for r in state_recognitions(host, spec)] == \
        [f"r{j}" for j, h in enumerate(hit) if h]
    assert hit[0] and hit[3] and not hit[7] and not hit[8]
    for p in patterns:
        assert_matches_oracle(host, p)


two_k2 = structure({"a": "T", "b": "T", "c": "T", "d": "T"},
                   [("a", "b", "L"), ("c", "d", "L")])
# schema bodies may carry self-loops; the matcher must match them too
looped_c4 = structure({f"p{i}": "T" for i in range(4)},
                      [("p0", "p1", "L"), ("p1", "p2", "L"), ("p2", "p3", "L"),
                       ("p3", "p0", "L"), ("p0", "p0", "L"), ("p2", "p2", "L")])
looped_p2 = structure({"x": "T", "y": "T"}, [("x", "y", "L"), ("x", "x", "L")])


@pytest.mark.parametrize("host, pattern, hits", [
    pytest.param(convolution(path(4), path(4)), path(3), 52, id="P3-in-4x4"),
    pytest.param(convolution(path(4), path(4)), path(4), 80, id="P4-in-4x4"),
    pytest.param(convolution(path(3), path(3)), cycle(4), 4, id="C4-in-3x3"),
    pytest.param(cycle(6), path(3), 6, id="P3-in-C6"),
    pytest.param(cycle(6), cycle(3), 0, id="C3-in-C6"),
    pytest.param(cycle(7), cycle(7), 1, id="C7-in-C7"),
    pytest.param(complete(5), complete(3), 10, id="K3-in-K5"),
    pytest.param(complete(5), path(3), 0, id="P3-in-K5"),
    pytest.param(convolution(path(4), path(4)), two_k2, 126, id="2K2-in-4x4"),
    pytest.param(looped_c4, looped_p2, 4, id="looped-P2-in-looped-C4"),
    pytest.param(looped_c4, path(2), 0, id="P2-in-looped-C4"),
])
def test_occurrences_match_oracle_on_symmetric_families(host, pattern, hits):
    assert len(assert_matches_oracle(host, pattern)) == hits


def test_occurrences_resolve_struct_payloads():
    # two type ids bound to isomorphic payloads share one key
    cat = TypeCatalog()
    cat.add_struct("tri", cycle(3))
    cat.add_struct("tri2", relabeled_copy(random.Random(3), cycle(3)))
    cat.add_struct("bar", path(3))
    host = structure({"a": "tri", "b": "bar", "c": "tri", "d": "bar"},
                     [("a", "b", "L"), ("b", "c", "L"), ("c", "d", "L")])
    pattern = structure({"x": "tri2", "y": "bar"}, [("x", "y", "L")])
    assert len(assert_matches_oracle(host, pattern, cat)) == 3
    assert assert_matches_oracle(host, pattern) == []


def test_compiled_plan_follows_a_binding():
    # the pattern's plan is compiled while "u" is unbound, so keyed ("o", "u");
    # binding u to the label of w then lets x map to a as well as to c
    cat = TypeCatalog()
    cat.add_atomic("w", "T")
    host = structure({"a": "w", "b": "S", "c": "u"},
                     [("a", "b", "L"), ("b", "c", "L")])
    pattern = structure({"x": "u", "y": "S"}, [("x", "y", "L")])
    # T-S-T embeds only once c's key, cached on the host, follows u too
    flanked = structure({"x": "w", "y": "S", "z": "w"},
                        [("x", "y", "L"), ("y", "z", "L")])
    assert embeds(host, pattern, cat)
    assert not embeds(host, flanked, cat)
    assert assert_matches_oracle(host, pattern, cat) == [frozenset("bc")]
    cat.add_atomic("u", "T")
    assert embeds(host, pattern, cat)
    assert embeds(host, flanked, cat)
    assert assert_matches_oracle(host, pattern, cat) == [frozenset("ab"),
                                                         frozenset("bc")]
    assert assert_matches_oracle(host, flanked, cat) == [frozenset("abc")]


def test_occurrences_orientation_mismatch():
    oriented = structure({"x": "T", "y": "T"}, [("x", "y", "L")],
                         oriented=True)
    assert assert_matches_oracle(path(3), oriented) == []
    assert assert_matches_oracle(oriented, path(2)) == []
    # no relation to tell them apart: only the orientation flag does
    lone = Structure(("x",), ("T",), (), oriented=True)
    assert assert_matches_oracle(path(3), lone) == []


def test_embedding_node_cap(monkeypatch):
    # embeds maps P2 into P5 on its third step; occurrences goes on
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 3)
    assert embeds(path(5), path(2))
    with pytest.raises(EmbeddingBudgetError, match="node cap of 3"):
        occurrences(path(5), path(2))
    monkeypatch.setattr(STRUCTURE_MODULE, "_EMBED_NODE_CAP", 2)
    with pytest.raises(SearchBudgetError, match="node cap of 2"):
        embeds(path(5), path(2))
    assert issubclass(CanonicalBudgetError, SearchBudgetError)
    assert issubclass(SearchBudgetError, StructureError)


def test_iso_equivalence_on_five_hundred_structures():
    rng = random.Random(500500)
    pool = [random_structure(rng) for _ in range(500)]
    forms = [canonical_form(s) for s in pool]
    for s in pool:
        assert isomorphic(s, s) is not None           # reflexive
    for _ in range(150):
        i, j = rng.randrange(500), rng.randrange(500)
        ij = isomorphic(pool[i], pool[j]) is not None
        ji = isomorphic(pool[j], pool[i]) is not None
        assert ij == ji == (forms[i] == forms[j])     # symmetric, transitive
        # (transitivity follows because comparison factors through the form)


def test_canonical_form_stable_under_relabeling():
    rng = random.Random(55)
    for _ in range(40):
        a = random_structure(rng, max_n=7)
        b = relabeled_copy(rng, a)
        assert canonical_form(a) == canonical_form(b)
