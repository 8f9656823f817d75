import random
import sys

import pytest

from structkit.derivation import (
    DerivationStore,
    MorphismMask,
    Partition,
    _cut,
    apply_morphism,
    canonical_partitions,
    partition,
    portion,
    quotient,
)
from structkit.structure import (
    StructureError,
    StructType,
    TypeCatalog,
    canonical_form,
    induced,
    internal_classes,
    isomorphic,
    require_valid,
    structure,
    validate,
)

from oracles import random_structure, relabeled_copy

# the package re-exports the function `structure` under the module's name
STRUCTURE_MODULE = sys.modules["structkit.structure"]


def path(n, types=None, label="L"):
    ids = [f"p{i}" for i in range(n)]
    types = types or {p: "T" for p in ids}
    rels = [(ids[i], ids[i + 1], label) for i in range(n - 1)]
    return structure(types, rels)


# --- portions ----------------------------------------------------------------

def test_portion_whole_is_improper():
    s = path(4)
    por = portion(s, s.parts)
    assert isomorphic(por.induced, s) is not None


def test_portion_connected_piece():
    s = path(5)
    por = portion(s, ["p1", "p2", "p3"])
    assert por.induced.n == 3
    assert len(por.induced.relations) == 2


def test_portion_disconnected_needs_flag():
    s = path(5)
    with pytest.raises(StructureError):
        portion(s, ["p0", "p4"])
    por = portion(s, ["p0", "p4"], allow_disconnected=True)
    assert por.induced.n == 2


def test_portion_empty_or_foreign_members_error():
    s = path(3)
    with pytest.raises(StructureError):
        portion(s, [])
    with pytest.raises(StructureError):
        portion(s, ["zz"])


def test_portion_strictly_smaller_information():
    s = path(4)
    por = portion(s, ["p0", "p1"])
    assert por.induced.n < s.n


# --- partitions ---------------------------------------------------------------

def test_partition_cover_and_disjoint_enforced():
    s = path(4)
    with pytest.raises(StructureError):
        partition(s, [["p0", "p1"], ["p1", "p2", "p3"]])
    with pytest.raises(StructureError):
        partition(s, [["p0", "p1"]])
    k = partition(s, [["p0", "p1"], ["p2", "p3"]])
    assert len(k.blocks) == 2


def test_partition_and_portion_error_messages():
    s = path(4)
    for blocks, message in [
            ([["p0", "p1"], [], ["p2", "p3"]], "portion needs at least one member"),
            ([["p0", "zz", "yy"]], r"portion members not in parent: \['yy', 'zz'\]"),
            ([["p0", "p1"], ["p1", "p2", "p3"]], "partition blocks overlap"),
            ([["p0", "p1"], ["p3"]], "partition does not cover every part")]:
        with pytest.raises(StructureError, match=f"^{message}$"):
            partition(s, blocks)
    with pytest.raises(StructureError, match="^portion members are not "
                       r"connected \(pass allow_disconnected to permit\)$"):
        portion(s, ["p0", "p2"])
    with pytest.raises(StructureError, match="^invalid structure: "):
        partition(structure({"a": "T", "b": "T"}), [["a"], ["b"]])


def test_partition_blocks_are_induced_random():
    # blocks in any order and of any shape, disconnected ones included
    rng = random.Random(2718)
    for trial in range(300):
        s = random_structure(rng, max_n=10, oriented=trial % 2 == 1)
        parts = list(s.parts)
        rng.shuffle(parts)
        cuts = sorted(rng.sample(range(1, s.n), rng.randint(0, s.n - 1)))
        blocks = [parts[i:j] for i, j in zip([0] + cuts, cuts + [s.n])]
        k = partition(s, blocks)
        assert k.parent is s
        assert [b.members for b in k.blocks] == list(map(frozenset, blocks))
        for block, members in zip(k.blocks, blocks):
            assert block.induced == induced(s, members)


def test_partition_validates_the_parent_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return require_valid(s)
    monkeypatch.setattr("structkit.derivation.require_valid", counting)
    s = path(60)
    k = partition(s, [s.parts[i:i + 2] for i in range(0, 60, 2)])
    assert len(k.blocks) == 30
    assert calls == [s]


# --- quotient -----------------------------------------------------------------

def test_quotient_single_block():
    s = path(4)
    k = partition(s, [s.parts])
    q = quotient(s, k)
    assert q.n == 1


def test_quotient_blocks_types_by_isomorphism():
    # A-A-B-B path: two 2-blocks; the blocks differ by internal type
    s = path(4, {"p0": "A", "p1": "A", "p2": "B", "p3": "B"})
    cat = TypeCatalog()
    k = partition(s, [["p0", "p1"], ["p2", "p3"]])
    q = quotient(s, k, cat)
    assert q.n == 2
    assert len(internal_classes(q, cat)) == 2

    s2 = path(4, {p: "A" for p in s.parts})
    k2 = partition(s2, [["p0", "p1"], ["p2", "p3"]])
    q2 = quotient(s2, k2, cat)
    assert len(internal_classes(q2, cat)) == 1


def test_quotient_alone_refuses_an_invalid_structure():
    # a Partition built by hand skips `partition`'s validation
    s = structure({"a": "T", "b": "T"})
    k = Partition(s, tuple(_cut(s, [["a"], ["b"]])))
    with pytest.raises(StructureError, match="^invalid structure: "):
        quotient(s, k)


def test_a_valid_structure_is_validated_once(monkeypatch):
    calls = []
    check = validate

    def counting(s):
        calls.append(s)
        return check(s)
    monkeypatch.setattr(STRUCTURE_MODULE, "validate", counting)
    s = path(4)
    quotient(s, partition(s, [["p0", "p1"], ["p2", "p3"]]))
    require_valid(s)
    assert calls == [s]
    # a refusal leaves nothing behind: the next call refuses again
    bad = structure({"a": "T", "b": "T"})
    for _ in range(2):
        with pytest.raises(StructureError, match="^invalid structure: "):
            require_valid(bad)
    assert calls == [s, bad, bad]


def test_quotient_rejects_another_structures_partition():
    k = partition(path(4), [["p0", "p1"], ["p2", "p3"]])
    with pytest.raises(StructureError,
                       match="partition does not belong to this structure"):
        quotient(path(4, label="M"), k)


def test_quotient_relation_summary():
    # two blocks joined by two crossing relations with different labels
    s = structure({"a": "T", "b": "T", "c": "T", "d": "T"},
                  [("a", "b", "in"), ("c", "d", "in"),
                   ("b", "c", "x"), ("a", "d", "y")])
    k = partition(s, [["a", "b"], ["c", "d"]])
    q = quotient(s, k)
    assert len(q.relations) == 1
    attrs = dict(q.relations[0].attrs)
    assert attrs["count"] == 2
    assert attrs["label:x"] == 1 and attrs["label:y"] == 1


def test_quotient_functoriality_random():
    rng = random.Random(1234)
    cat = TypeCatalog()
    checked = 0
    while checked < 200:
        a = random_structure(rng, max_n=8)
        if a.n < 2:
            continue
        b = relabeled_copy(rng, a)
        w = isomorphic(a, b)
        parts = list(a.parts)
        rng.shuffle(parts)
        cut = rng.randint(1, len(parts) - 1) if len(parts) > 1 else 1
        blocks = [parts[:cut], parts[cut:]]
        blocks = [b_ for b_ in blocks if b_]
        ka = partition(a, blocks)
        kb = partition(b, [[w[p] for p in blk] for blk in blocks])
        qa = quotient(a, ka, cat)
        qb = quotient(b, kb, cat)
        assert isomorphic(qa, qb, cat) is not None
        checked += 1


# --- morphisms ------------------------------------------------------------------

def test_empty_mask_is_identity():
    s = path(3, {"p0": "A", "p1": "B", "p2": "A"})
    out = apply_morphism(s, MorphismMask.make())
    assert isomorphic(out, s) is not None


def test_merge_types_generalizes():
    a = path(3, {"p0": "red", "p1": "red", "p2": "blue"})
    b = path(3, {"p0": "blue", "p1": "blue", "p2": "blue"})
    assert isomorphic(a, b) is None
    m = MorphismMask.make(merge_types={"red": "blue"})
    assert isomorphic(apply_morphism(a, m), apply_morphism(b, m)) is not None


def test_internal_class_count_never_grows():
    rng = random.Random(77)
    for _ in range(50):
        s = random_structure(rng)
        types = sorted(set(s.part_types))
        if len(types) < 2:
            continue
        m = MorphismMask.make(merge_types={types[0]: types[1]})
        out = apply_morphism(s, m)
        assert len(internal_classes(out)) <= len(internal_classes(s))


def test_drop_part_attr_requires_catalog_and_known_name():
    cat = TypeCatalog()
    seg = cat.intern_attr("seg", {"len": 3})
    s = structure({"a": seg, "b": seg}, [("a", "b", "L")])
    with pytest.raises(StructureError):
        apply_morphism(s, MorphismMask.make(drop_part_attrs={"len"}))
    with pytest.raises(StructureError):
        apply_morphism(s, MorphismMask.make(drop_part_attrs={"nope"}), cat)
    out = apply_morphism(s, MorphismMask.make(drop_part_attrs={"len"}), cat)
    assert set(out.part_types) == {"seg"}


def test_drop_attr_merges_previously_distinct_types():
    cat = TypeCatalog()
    s1 = cat.intern_attr("seg", {"len": 3, "ori": 0})
    s2 = cat.intern_attr("seg", {"len": 5, "ori": 0})
    a = structure({"a": s1, "b": s2}, [("a", "b", "joint")])
    assert len(internal_classes(a, cat)) == 2
    out = apply_morphism(a, MorphismMask.make(drop_part_attrs={"len"}), cat)
    assert len(internal_classes(out, cat)) == 1


def test_drop_attr_reinterns_struct_payloads():
    cat = TypeCatalog()
    inner = path(2)
    t1 = cat.intern_struct(inner, {"w": 1, "v": 0})
    t2 = cat.intern_struct(inner, {"w": 2, "v": 0})
    s = structure({"a": t1, "b": t2}, [("a", "b", "joint")])
    assert len(internal_classes(s, cat)) == 2
    out = apply_morphism(s, MorphismMask.make(drop_part_attrs={"w"}), cat)
    assert out.part_types[0] == out.part_types[1]
    assert cat.resolve(out.part_types[0]) == StructType(inner, {"v": 0})
    assert len(internal_classes(out, cat)) == 1


def test_merge_labels_and_drop_rel_attrs():
    s = structure({"a": "T", "b": "T", "c": "T"},
                  [("a", "b", "x", {"w": 1}), ("b", "c", "y", {"w": 2})])
    m = MorphismMask.make(merge_labels={"x": "y"}, drop_rel_attrs={"w"})
    out = apply_morphism(s, m)
    assert {r.label for r in out.relations} == {"y"}
    assert all(r.attrs == () for r in out.relations)


def test_merged_labels_keep_the_first_relation_between_two_parts():
    # the two relations differ in attrs, but a structure holds one relation
    # per ends and label, whatever its attrs
    s = structure({"a": "T", "b": "T"},
                  [("a", "b", "L", {"w": 1}), ("a", "b", "M", {"w": 2})])
    out = apply_morphism(s, MorphismMask.make(merge_labels={"M": "L"}))
    assert validate(out) == []
    assert [(r.label, r.attrs) for r in out.relations] == [("L", (("w", 1),))]
    assert isomorphic(out, out) == {"a": "a", "b": "b"}


def test_drop_rel_attrs_requires_known_name():
    s = structure({"a": "T", "b": "T"}, [("a", "b", "x", {"w": 1})])
    m = MorphismMask.make(drop_rel_attrs={"v", "w"})
    with pytest.raises(StructureError,
                       match=r"unknown relation attributes: \['v'\]"):
        apply_morphism(s, m)


def test_mask_maps_each_source_once():
    with pytest.raises(StructureError, match="mask maps a source twice"):
        MorphismMask(merge_labels=(("x", "y"), ("x", "z")))
    m1 = MorphismMask.make(merge_types={"A": "B"})
    m2 = MorphismMask.make(merge_types={"A": "C"})
    with pytest.raises(StructureError,
                       match="mask union maps a source twice"):
        m1.union(m2)
    assert m1.union(m1) == m1


def test_morphism_monotone_under_isomorphism():
    rng = random.Random(404)
    cat = TypeCatalog()
    for _ in range(200):
        a = random_structure(rng, max_n=7)
        b = relabeled_copy(rng, a)
        types = sorted(set(a.part_types))
        merge = {types[0]: types[-1]} if len(types) > 1 else {}
        m = MorphismMask.make(merge_types=merge)
        assert isomorphic(apply_morphism(a, m, cat),
                          apply_morphism(b, m, cat), cat) is not None


def test_mask_composition_equals_union():
    rng = random.Random(909)
    for _ in range(40):
        s = random_structure(rng, max_n=7)
        m1 = MorphismMask.make(merge_types={"T0": "T2"})
        m2 = MorphismMask.make(merge_labels={"L0": "L1"})
        seq = apply_morphism(apply_morphism(s, m1), m2)
        joint = apply_morphism(s, m1.union(m2))
        assert isomorphic(seq, joint) is not None


def test_derivation_factors_through_isomorphism_classes():
    # a fixed derivation maps isomorphic inputs to isomorphic outputs and so
    # never enlarges the set of distinguishable values
    rng = random.Random(313)
    cat = TypeCatalog()
    m = MorphismMask.make(merge_types={"T0": "T1"})
    inputs = []
    for _ in range(40):
        s = random_structure(rng, max_n=6)
        inputs.append(s)
        inputs.append(relabeled_copy(rng, s))
    in_classes = {canonical_form(s) for s in inputs}
    out_classes = {canonical_form(apply_morphism(s, m, cat), cat) for s in inputs}
    assert len(out_classes) <= len(in_classes)


# --- canonical partitions ---------------------------------------------------------

def test_canonical_partition_uniform_path_single_block():
    s = path(4)
    parts_list = canonical_partitions(s)
    assert parts_list
    assert len(parts_list[0].blocks) == 1


def test_canonical_partition_rupture_on_type_change():
    s = path(6, {"p0": "A", "p1": "A", "p2": "A",
                 "p3": "B", "p4": "B", "p5": "B"})
    # oracle: run-length split over the path order at type changes
    expected = [("p0", "p1", "p2"), ("p3", "p4", "p5")]
    got = canonical_partitions(s)[0]
    assert sorted(tuple(sorted(b.members)) for b in got.blocks) == expected


def test_canonical_partition_label_rupture():
    ids = [f"p{i}" for i in range(4)]
    s = structure({p: "T" for p in ids},
                  [("p0", "p1", "x"), ("p1", "p2", "x"), ("p2", "p3", "y")])
    got = canonical_partitions(s)[0]
    assert sorted(len(b.members) for b in got.blocks) == [1, 3]


def test_canonical_partitions_oriented_pair_with_two_labels():
    # a and b are related both ways under different labels, "y" first in
    # relation order; growth takes a's ends by (neighbour, label), so the
    # label rule's block from a takes "x" and keeps c, reached by "y", out
    s = structure({"a": "T", "b": "T", "c": "T", "d": "U"},
                  [("b", "a", "y"), ("a", "b", "x"), ("b", "c", "y"),
                   ("c", "d", "x"), ("d", "c", "y")], oriented=True)
    got = [[sorted(b.members) for b in p.blocks]
           for p in canonical_partitions(s)]
    assert got == [[["a", "b"], ["c"], ["d"]],
                   [["a", "b"], ["c", "d"]],
                   [["a", "b", "c"], ["d"]]]


def test_canonical_partitions_capped_and_ranked():
    rng = random.Random(5)
    for _ in range(20):
        s = random_structure(rng)
        ps = canonical_partitions(s)
        assert 1 <= len(ps) <= 3   # one per growth rule
        sizes = [len(p.blocks) for p in ps]
        assert sizes == sorted(sizes, reverse=True)


# --- lineage -------------------------------------------------------------------

def test_derives_from_paths():
    s = path(4, {"p0": "A", "p1": "A", "p2": "B", "p3": "B"})
    cat = TypeCatalog()
    store = DerivationStore()
    store.register(s)
    k = canonical_partitions(s)[0]
    q = quotient(s, k, cat)
    store.add("quotient", [s], q, params="rank=0")
    m = MorphismMask.make(merge_labels={"adj": "near"})
    out = apply_morphism(q, m, cat)
    store.add("morphism", [q], out, params="merge adj->near")

    assert len(store.derives_from(q, s)) == 1
    assert len(store.derives_from(out, s)) == 2
    unrelated = path(2)
    store.register(unrelated)
    assert store.derives_from(unrelated, s) is None
    with pytest.raises(StructureError):
        store.derives_from(path(9), s)


def test_lineage_rejects_self_derivation_and_cycles():
    s = path(4, {"p0": "A", "p1": "A", "p2": "B", "p3": "B"})
    store = DerivationStore()
    with pytest.raises(StructureError, match="output equals an input"):
        store.add("identity", [s], s)
    q = quotient(s, canonical_partitions(s)[0])
    store.add("quotient", [s], q)
    with pytest.raises(StructureError, match="would create a lineage cycle"):
        store.add("inverse", [q], s)
    assert len(store.derives_from(q, s)) == 1
