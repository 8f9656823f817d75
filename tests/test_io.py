import pytest

from structkit.cli import parse_recognition_log
from structkit.io_struct import (
    ParseError,
    parse_sidecar,
    parse_structure,
    serialize_structure,
)
from structkit.schema import (
    Binding,
    SchemaError,
    parse_schema,
    schema,
)


SAMPLE = """\
# a little triangle
oriented
part a red
part b red
part c blue
rel a b touch w=3
rel b c touch
rel c a touch w=1 z=2
"""


def test_parse_basic():
    s = parse_structure(SAMPLE)
    assert s.oriented
    assert s.parts == ("a", "b", "c")
    assert s.types["c"] == "blue"
    assert s.relations[0].attrs == (("w", 3),)
    assert s.relations[2].attrs == (("w", 1), ("z", 2))


def test_round_trip_is_identity_on_values():
    s = parse_structure(SAMPLE)
    assert parse_structure(serialize_structure(s)) == s


def test_serialize_of_parse_matches_modulo_comments_and_space():
    text = serialize_structure(parse_structure(SAMPLE))
    stripped = [ln.split("#")[0].strip() for ln in SAMPLE.splitlines()]
    stripped = [" ".join(ln.split()) for ln in stripped if ln.strip()]
    assert text.strip().splitlines() == stripped


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_structure("part a\n")
    with pytest.raises(ParseError):
        parse_structure("part a T\npart a T\n")
    with pytest.raises(ParseError):
        parse_structure("frob a b\n")
    with pytest.raises(ParseError):
        parse_structure("part a T\npart b T\nrel a b L w=x\n")
    with pytest.raises(ParseError, match="unknown part b"):
        parse_structure("part a T\nrel a b L\n")
    # keeping either value would answer on a misread file
    for rel in ("rel a b L w=1 v=0 w=2", "rel a b L w=1 w=1"):
        with pytest.raises(ParseError,
                           match="^line 3: duplicate attribute w$"):
            parse_structure(f"part a T\npart b T\n{rel}\n")


def test_sidecar_round_trip():
    text = (
        "mask drop-attr length-bin\n"
        "mask drop-rel-attr joint-angle-bin\n"
        "mask merge-type red blue -> colored\n"
        "mask merge-label touch cross -> meets\n"
        "block a b\n"
        "block c\n"
    )
    sc = parse_sidecar(text)
    assert sc["drop_part_attrs"] == {"length-bin"}
    assert sc["drop_rel_attrs"] == {"joint-angle-bin"}
    assert sc["merge_types"] == {"red": "colored", "blue": "colored"}
    assert sc["merge_labels"] == {"touch": "meets", "cross": "meets"}
    assert sc["blocks"] == [("a", "b"), ("c",)]


def test_sidecar_conflicting_merge_rejected():
    with pytest.raises(ParseError):
        parse_sidecar("mask merge-type a b -> x\nmask merge-type a c -> y\n")


# --- the shared line tokenizer ---------------------------------------------------
# schemas and recognition logs are read with the same tokenizer as
# structures: `#` comments, blank lines and indentation carry no meaning, and
# an error names the line of the raw text, blank and comment lines counted


def decorated(text):
    """`text` with comment and blank lines, indentation and trailing
    comments added; every original line keeps its tokens."""
    out = ["# a leading comment", ""]
    for i, line in enumerate(text.splitlines()):
        out.append(" " * (i % 3) + "\t" * (i % 2) + line + f"   # note {i}")
        if i % 2:
            out.append("  \t ")
    return "\n".join(out) + "\n"


def with_bad_line(text, bad):
    """`text` with `bad` inserted mid-way, and the 1-based line it is on."""
    lines = text.splitlines()
    at = len(lines) // 2
    return "\n".join(lines[:at] + [bad] + lines[at:]) + "\n", at + 1


def test_schema_text_ignores_comments_blanks_and_indentation():
    sch = schema([
        ("m", Binding("MOVE", literal="last")),
        ("s", Binding("MEM_STORE", slot="k")),
        ("b", Binding("BIND", slot="r", literal="1")),
        ("c", Binding("COPY", slot="r", fresh=True)),
    ], [("m", "s", "next"), ("s", "b", "next"), ("b", "c", "next")])
    text = ("oriented\n"
            "part m MOVE\npart s MEM_STORE\npart b BIND\npart c COPY\n"
            "rel m s next\nrel s b next\nrel b c next\n"
            "entry m\n"
            "bind m MOVE last\nbind s MEM_STORE k\nbind b BIND r=1\n"
            "bind c COPY fresh r\n")
    assert parse_schema(decorated(text)) == parse_schema(text) == sch


def test_schema_errors_name_the_file_line():
    # the body is parsed with its lines in place, and bind lines carry theirs
    with pytest.raises(ParseError, match="^line 5: part needs"):
        parse_schema("oriented\n# body\n\npart a MOVE\npart b\n"
                     "bind a MOVE first\n")
    with pytest.raises(SchemaError, match="^line 4: BIND operand"):
        parse_schema("part a MOVE\n\n\nbind a BIND x\n")
    with pytest.raises(SchemaError, match="^line 2: bind needs"):
        parse_schema("part a MOVE\nbind a\n")


def test_recognition_log_ignores_comments_blanks_and_indentation():
    text = "".join(f"t={t} subj={s} score={v}\n" for t, s, v in [
        (0, "A", 0.9), (1, "B", 0.75), (1, "A", 0.5), (3, "C", 1.0)])
    noisy = decorated(text)
    assert parse_recognition_log(noisy) == parse_recognition_log(text)
    bad_text, lineno = with_bad_line(noisy, "\tt=2 subj=B score=high")
    assert lineno > 2
    with pytest.raises(ParseError, match=f"^log line {lineno}: "):
        parse_recognition_log(bad_text)


@pytest.mark.parametrize("line", [
    "t=3 subj=A subj=B score=1",      # the last subj= used to win
    "t=3 subj=A score=1 extra=9",     # the unknown field used to be ignored
    "t=3 t=4 subj=A score=1",
    "t=3 subj=A score=1 score=2"])
def test_recognition_log_takes_each_field_once(line):
    with pytest.raises(ParseError, match="^log line 2: .*once each"):
        parse_recognition_log(f"t=0 subj=A score=1.0\n{line}\n")
