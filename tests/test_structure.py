import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkit.structure import (
    EMPTY,
    Relation,
    Structure,
    StructureError,
    TypeCatalog,
    canonical_form,
    compose,
    convolution,
    difference,
    internal_classes,
    isomorphic,
    morphism_number,
    occurrences,
    same_structure,
    structure,
    swap_indistinguishable,
    validate,
)

from oracles import iso_oracle, random_structure, relabeled_copy


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


def _symmetric_pairs():
    rng = random.Random(2014)
    families = [(f"K{n}", complete(n)) for n in range(2, 7)]
    families += [(f"C{n}", cycle(n)) for n in (3, 5, 7, 16, 30)]
    families += [(f"grid{w}x{w}", convolution(path(w), path(w))) for w in (2, 3, 4)]
    families.append(("C3*C3", convolution(cycle(3), cycle(3))))
    # one refinement class whose parts are not all alike: the canonical
    # search must try every part of it, not just the first by name
    families.append(("C6+2C3", disjoint_cycles(6, 3, 3)))
    pairs = [pytest.param(s, relabeled_copy(rng, s), True, id=name)
             for name, s in families]
    # refinement leaves every part of both sides in one class; only the
    # individualisation search can tell them apart
    pairs += [pytest.param(cycle(2 * n), disjoint_cycles(n, n), False,
                           id=f"C{2 * n}-vs-2C{n}")
              for n in (3, 4, 6)]
    return pairs


@pytest.mark.parametrize("a, b, iso", _symmetric_pairs())
def test_symmetric_families(a, b, iso):
    w = isomorphic(a, b)
    assert (w is not None) == iso
    assert (canonical_form(a) == canonical_form(b)) == iso
    if iso:
        mapped = sorted(Relation(w[r.a], w[r.b], r.label, r.attrs).key(a.oriented)
                        for r in a.relations)
        assert mapped == sorted(r.key(b.oriented) for r in b.relations)
    if a.n <= 7:
        assert iso_oracle(a, b) == iso


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
            if same_structure(s, swapped(s, p, q))}
    assert ("p0", "p1") in same and ("p0", "p2") not in same


def test_internal_classes_identical_payload_parts_share_class():
    cat = TypeCatalog()
    brick = path(2, t="clay")
    tid = cat.intern_struct(brick)
    s = structure({"a": tid, "b": tid}, [("a", "b", "on")])
    classes = internal_classes(s, cat)
    assert classes == [("a", "b")]


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
                    assert same_structure(s, swapped)
                else:
                    assert not same_structure(s, swapped)


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
    with pytest.raises(StructureError):
        compose(path(2), path(2), [("a.p9", "b.p0", "glue")])


def test_compose_requires_crossing_gluing():
    with pytest.raises(StructureError):
        compose(path(2), path(2), [("a.p0", "a.p1", "glue")])


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


# --- occurrences cap ---------------------------------------------------------

def test_occurrence_cap_enforced():
    big = path(70)
    with pytest.raises(StructureError):
        occurrences(big, path(2))


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
