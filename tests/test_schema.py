import itertools

import pytest

from structkit.schema import (
    Binding,
    NandNet,
    OutOfFuel,
    SchemaError,
    compile_to_nand,
    execute,
    flatten,
    operations_coincide,
    parse_schema,
    schema,
    schemas_coincide,
)
from structkit.structure import morphism_number, structure


def path(n, types=None):
    ids = [f"u{i}" for i in range(n)]
    types = types or {p: "T" for p in ids}
    rels = [(ids[i], ids[i + 1], "L") for i in range(n - 1)]
    return structure(types, rels)


APPEND_X = schema([
    ("b1", Binding("BIND", slot="t", literal="X")),
    ("c1", Binding("COPY", slot="t")),
], [("b1", "c1", "next")])


def test_copy_appends_one_typed_part():
    s = path(3)
    out = execute(APPEND_X, s)
    assert morphism_number(out) == 4
    assert out.types["n0"] == "X"


def test_execute_deterministic():
    s = path(4)
    a = execute(APPEND_X, s)
    b = execute(APPEND_X, s)
    assert a == b


def compare_emit_schema():
    # compare first and last part types; emit a single part typed "1"/"0"
    return schema([
        ("m1", Binding("MOVE", literal="first")),
        ("st", Binding("MEM_STORE", slot="m")),
        ("m2", Binding("MOVE", literal="last")),
        ("cp", Binding("COMPARE", slot="m")),
        ("b1", Binding("BIND", slot="r", literal="1")),
        ("b0", Binding("BIND", slot="r", literal="0")),
        ("e1", Binding("COPY", slot="r", fresh=True)),
        ("e0", Binding("COPY", slot="r", fresh=True)),
    ], [
        ("m1", "st", "next"), ("st", "m2", "next"), ("m2", "cp", "next"),
        ("cp", "b1", "then"), ("cp", "b0", "else"),
        ("b1", "e1", "next"), ("b0", "e0", "next"),
    ])


def test_compare_emits_flag_typed_part():
    sch = compare_emit_schema()
    eq = path(3, {"u0": "A", "u1": "B", "u2": "A"})
    ne = path(3, {"u0": "A", "u1": "B", "u2": "B"})
    out_eq = execute(sch, eq)
    out_ne = execute(sch, ne)
    assert out_eq.n == 1 and out_eq.part_types == ("1",)
    assert out_ne.n == 1 and out_ne.part_types == ("0",)


def counted_append_schema():
    # walk the input, appending one X per non-end part, stop at type E
    return schema([
        ("bt", Binding("BIND", slot="t", literal="X")),
        ("be", Binding("BIND", slot="e", literal="E")),
        ("mf", Binding("MOVE", literal="first")),
        ("ck", Binding("COMPARE", slot="e")),
        ("ap", Binding("COPY", slot="t")),
        ("mn", Binding("MOVE", literal="next")),
    ], [
        ("bt", "be", "next"), ("be", "mf", "next"), ("mf", "ck", "next"),
        ("ck", "ap", "else"), ("ap", "mn", "next"), ("mn", "ck", "next"),
    ])


def test_counted_loop_appends_five():
    # hand trace: five N parts each append one X, the E part stops the loop
    s = path(6, {f"u{i}": ("N" if i < 5 else "E") for i in range(6)})
    out = execute(counted_append_schema(), s)
    assert morphism_number(out) - morphism_number(s) == 5


def test_out_of_fuel():
    looping = schema([
        ("m", Binding("MOVE", literal="first")),
    ], [("m", "m", "next")])
    with pytest.raises(OutOfFuel):
        execute(looping, path(2), fuel=100)


def test_move_to_neighbor_k_in_part_order():
    # hub relations listed z, y, x; neighbours come in part declaration order
    s = structure({"h": "H", "x": "X", "y": "Y", "z": "Z"},
                  [("h", "z", "L"), ("y", "h", "L"), ("h", "x", "L")])

    def type_of_neighbor(k):
        return execute(schema([
            ("mf", Binding("MOVE", literal="first")),
            ("mk", Binding("MOVE", literal=f"nbr:{k}")),
            ("st", Binding("MEM_STORE", slot="m")),
            ("cp", Binding("COPY", slot="m", fresh=True)),
        ], [("mf", "mk", "next"), ("mk", "st", "next"),
            ("st", "cp", "next")]), s).part_types

    assert [type_of_neighbor(k) for k in range(3)] == [("X",), ("Y",), ("Z",)]
    with pytest.raises(SchemaError):
        type_of_neighbor(3)


@pytest.mark.parametrize("literal", [
    "", "nbr:", "nbr:x", "nbr:1.5", "nbr:-1", "nbr:1x", "up", "First",
    "nbr:\u0661"])
def test_bad_move_operand_rejected(literal):
    # a negative index would wrap to the last neighbour, and one that is
    # no integer would fail only when the MOVE runs
    with pytest.raises(SchemaError, match="^part m: bad MOVE operand"):
        schema([("m", Binding("MOVE", literal=literal or None))])
    with pytest.raises(SchemaError, match="^part m: bad MOVE operand"):
        parse_schema(f"part m MOVE\nbind m MOVE {literal}\n")


def test_unbound_slot_errors():
    sch = schema([("c", Binding("COPY", slot="nope"))])
    with pytest.raises(SchemaError):
        execute(sch, path(2))


# --- flatten -------------------------------------------------------------------

def nested_append():
    outer = schema([
        ("b", Binding("BIND", slot="t", literal="X")),
        ("call", Binding("CALL", callee=schema([
            ("c", Binding("COPY", slot="t")),
        ]))),
        ("m", Binding("MOVE", literal="first")),
    ], [("b", "call", "next"), ("call", "m", "next")])
    return outer


def test_flatten_already_base_identity():
    assert flatten(APPEND_X) is APPEND_X


def test_flatten_preserves_behavior():
    outer = nested_append()
    base = flatten(outer)
    assert base.is_base()
    for n in range(1, 8):
        s = path(n)
        assert execute(outer, s) == execute(base, s)


def test_flatten_extensionally_equal_on_random_battery():
    import random
    from oracles import random_structure
    rng = random.Random(606)
    outer = nested_append()
    base = flatten(outer)
    for _ in range(200):
        s = random_structure(rng, max_n=6)
        assert execute(outer, s) == execute(base, s)


def test_flatten_idempotent():
    base = flatten(nested_append())
    assert flatten(base) is base


def test_two_level_nesting():
    inner = schema([("c", Binding("COPY", slot="t"))])
    mid = schema([("call", Binding("CALL", callee=inner))])
    outer = schema([
        ("b", Binding("BIND", slot="t", literal="Z")),
        ("call", Binding("CALL", callee=mid)),
    ], [("b", "call", "next")])
    base = flatten(outer)
    assert base.is_base()
    out = execute(base, path(2))
    assert out.n == 3 and "Z" in out.part_types


def test_cyclic_nesting_rejected():
    inner = schema([("c", Binding("CALL", callee=APPEND_X))])
    # forge a cycle: inner calls itself
    object.__setattr__(inner.bindings[0][1], "callee", inner)
    with pytest.raises(SchemaError):
        flatten(inner)


# --- coincidence -----------------------------------------------------------------

def test_schema_coincides_with_relabeled_copy():
    relabeled = schema([
        ("q9", Binding("BIND", slot="t", literal="X")),
        ("q2", Binding("COPY", slot="t")),
    ], [("q9", "q2", "next")])
    assert schemas_coincide(APPEND_X, relabeled)


def test_schema_coincides_modulo_slot_names():
    other_slots = schema([
        ("a", Binding("BIND", slot="zz", literal="X")),
        ("b", Binding("COPY", slot="zz")),
    ], [("a", "b", "next")])
    assert schemas_coincide(APPEND_X, other_slots)


def test_different_ops_same_shape_do_not_coincide():
    other = schema([
        ("a", Binding("BIND", slot="t", literal="X")),
        ("b", Binding("MEM_STORE", slot="t")),
    ], [("a", "b", "next")])
    assert not schemas_coincide(APPEND_X, other)


def test_slot_topology_matters():
    a = schema([
        ("p1", Binding("BIND", slot="s", literal="X")),
        ("p2", Binding("BIND", slot="r", literal="Y")),
        ("p3", Binding("COPY", slot="s")),
    ], [("p1", "p2", "next"), ("p2", "p3", "next")])
    b = schema([
        ("p1", Binding("BIND", slot="s", literal="X")),
        ("p2", Binding("BIND", slot="r", literal="Y")),
        ("p3", Binding("COPY", slot="r")),
    ], [("p1", "p2", "next"), ("p2", "p3", "next")])
    assert not schemas_coincide(a, b)


def test_differently_nested_equal_flattenings_coincide():
    assert schemas_coincide(nested_append(), schema([
        ("b", Binding("BIND", slot="t", literal="X")),
        ("c", Binding("COPY", slot="t")),
        ("m", Binding("MOVE", literal="first")),
    ], [("b", "c", "next"), ("c", "m", "next")]))


def test_operations_coincide_reflexive():
    assert operations_coincide(APPEND_X, APPEND_X)


def test_append_red_vs_blue_differ():
    red = schema([
        ("b", Binding("BIND", slot="t", literal="red")),
        ("c", Binding("COPY", slot="t")),
    ], [("b", "c", "next")])
    blue = schema([
        ("b", Binding("BIND", slot="t", literal="blue")),
        ("c", Binding("COPY", slot="t")),
    ], [("b", "c", "next")])
    assert not operations_coincide(red, blue)


def test_syntactically_different_same_effect_coincide():
    direct = APPEND_X
    with_detour = schema([
        ("m", Binding("MOVE", literal="first")),
        ("b", Binding("BIND", slot="u", literal="X")),
        ("c", Binding("COPY", slot="u")),
    ], [("m", "b", "next"), ("b", "c", "next")])
    assert operations_coincide(direct, with_detour)


def test_schemas_coincide_is_equivalence_on_population():
    pop = [APPEND_X,
           schema([("a", Binding("BIND", slot="q", literal="X")),
                   ("b", Binding("COPY", slot="q"))], [("a", "b", "next")]),
           compare_emit_schema(),
           nested_append(),
           schema([("m", Binding("MOVE", literal="first"))]),
           # APPEND_X plus an `else` edge back: a superset of its flow
           schema([("b1", Binding("BIND", slot="t", literal="X")),
                   ("c1", Binding("COPY", slot="t"))],
                  [("b1", "c1", "next"), ("c1", "b1", "else")])]
    rel = {(i, j): schemas_coincide(pop[i], pop[j])
           for i in range(len(pop)) for j in range(len(pop))}
    for i in range(len(pop)):
        assert rel[(i, i)]
        for j in range(len(pop)):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(pop)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


# --- schema text format -----------------------------------------------------------

def test_schema_text_round_trip():
    # the text of compare_emit_schema parses back to the built schema, so
    # every bind form is read: MOVE, MEM_STORE, COMPARE, BIND, COPY fresh
    text = (
        "oriented\n"
        "part m1 MOVE\npart st MEM_STORE\npart m2 MOVE\npart cp COMPARE\n"
        "part b1 BIND\npart b0 BIND\npart e1 COPY\npart e0 COPY\n"
        "rel m1 st next\nrel st m2 next\nrel m2 cp next\n"
        "rel cp b1 then\nrel cp b0 else\nrel b1 e1 next\nrel b0 e0 next\n"
        "entry m1\n"
        "bind m1 MOVE first\nbind st MEM_STORE m\nbind m2 MOVE last\n"
        "bind cp COMPARE m\nbind b1 BIND r=1\nbind b0 BIND r=0\n"
        "bind e1 COPY fresh r\nbind e0 COPY fresh r\n"
    )
    sch = compare_emit_schema()
    again = parse_schema(text)
    assert again == sch
    assert execute(again, path(3)) == execute(sch, path(3))


def test_bind_for_undeclared_part_rejected():
    # the binding would be dropped, and the schema run without it
    with pytest.raises(SchemaError,
                       match="^line 3: bind for undeclared part zz$"):
        parse_schema("part a MOVE\nbind a MOVE first\nbind zz COPY q\n")


def test_second_bind_for_a_part_rejected():
    # the second would replace the first
    with pytest.raises(SchemaError, match="^line 3: second bind for part a$"):
        parse_schema("part a MOVE\nbind a MOVE first\nbind a MOVE last\n")


@pytest.mark.parametrize("line, operands", [
    ("bind a MOVE first last", "MOVE: first last"),
    ("bind a MEM_STORE m n", "MEM_STORE: m n"),
    ("bind a BIND t=X u=Y", "BIND: t=X u=Y"),
    ("bind a COPY q r", "COPY: q r"),
    ("bind a COPY fresh r s", "COPY: fresh r s"),
])
def test_bind_operands_past_what_the_op_takes_rejected(line, operands):
    # each op takes one operand, COPY `fresh <slot>`; the rest was ignored
    op = line.split()[2]
    with pytest.raises(SchemaError,
                       match=f"^line 2: too many operands for {operands}$"):
        parse_schema(f"part a {op}\n{line}\n")
    assert parse_schema(f"part a {op}\n{line.rsplit(' ', 1)[0]}\n")


def test_parse_schema_with_registry():
    text = (
        "oriented\n"
        "part a BIND\n"
        "part b CALL\n"
        "rel a b next\n"
        "entry a\n"
        "bind a BIND t=X\n"
        "bind b CALL appender\n"
    )
    inner = schema([("c", Binding("COPY", slot="t"))])
    sch = parse_schema(text, registry={"appender": inner})
    out = execute(sch, path(2))
    assert out.n == 3


# --- NAND ----------------------------------------------------------------------

def truth_rows(k):
    return list(itertools.product((0, 1), repeat=k))


def eval_table(net, k):
    out = []
    for row in range(2 ** k):
        assignment = {f"x{j}": (row >> j) & 1 for j in range(k)}
        out.append(net.evaluate(assignment)["f"])
    return out


def test_and_gate_shape_and_rows():
    table = [0, 0, 0, 1]     # AND(x0, x1)
    net = compile_to_nand(table)
    assert eval_table(net, 2) == table
    # one NAND feeding a self-NAND inverter
    assert len(net.gates) == 2
    (g0, a0, b0), (g1, a1, b1) = net.gates
    assert {a0, b0} == {"x0", "x1"} and a1 == b1 == g0


def test_constant_one_single_input():
    net = compile_to_nand([1, 1])
    assert eval_table(net, 1) == [1, 1]
    # NAND(x, NAND(x, x))
    assert len(net.gates) == 2


def test_identity_double_inverter():
    net = compile_to_nand([0, 1])
    assert eval_table(net, 1) == [0, 1]
    assert len(net.gates) == 2
    (g0, a0, b0), (g1, a1, b1) = net.gates
    assert a0 == b0 == "x0" and a1 == b1 == g0


def test_all_two_input_functions():
    for bits in itertools.product((0, 1), repeat=4):
        net = compile_to_nand(list(bits))
        assert eval_table(net, 2) == list(bits)


def test_reject_more_than_four_inputs():
    with pytest.raises(SchemaError):
        compile_to_nand([0] * 32)


def test_nandnet_rejects_forward_references():
    with pytest.raises(SchemaError):
        NandNet(("x0",), (("g0", "g1", "x0"), ("g1", "x0", "x0")), (("f", "g0"),))
