import pytest

from structkit.io_struct import (
    ParseError,
    parse_sidecar,
    parse_structure,
    serialize_sidecar,
    serialize_structure,
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
    assert sc["merge_types"] == {"red": "colored", "blue": "colored"}
    assert sc["blocks"] == [("a", "b"), ("c",)]
    again = parse_sidecar(serialize_sidecar(
        drop_part_attrs=sc["drop_part_attrs"],
        drop_rel_attrs=sc["drop_rel_attrs"],
        merge_types=sc["merge_types"],
        merge_labels=sc["merge_labels"],
        blocks=sc["blocks"]))
    assert again == sc


def test_sidecar_conflicting_merge_rejected():
    with pytest.raises(ParseError):
        parse_sidecar("mask merge-type a b -> x\nmask merge-type a c -> y\n")
