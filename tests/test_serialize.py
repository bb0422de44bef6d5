"""JSON encoding round trips and schema conformance."""

import json
from fractions import Fraction as Q
from importlib import resources

import jsonschema
import pytest

from masures import serialize
from masures.apartment import (
    AffineWeylElement,
    HalfApartment,
    enclosure_of,
    minus_infinity,
    translation,
)
from masures.heckepath import PLPath, random_folded_path, verify_growth
from masures.kmcore import (
    apply_to_root,
    default_realization,
    simple_root,
    validate_matrix,
    weyl_word,
)
from masures.models import TreeModel, check_MA2

A2 = default_realization(validate_matrix([[2, -1], [-1, 2]]))
A1 = default_realization(validate_matrix([[2]]))


def rgs_to_json(rgs):
    """The encoding `serialize.rgs_from_json` reads: the matrix, and the
    realization when it is not the default one."""
    out = {"matrix": rgs.matrix.rows()}
    if rgs != default_realization(rgs.matrix):
        out["realization"] = {
            "coroots": [serialize.vector_to_json(c) for c in rgs.simple_coroots],
            "forms": [serialize.vector_to_json(f) for f in rgs.simple_roots],
        }
    return out


def affine_weyl_from_json(rgs, obj):
    """The inverse of `serialize.affine_weyl_to_json`."""
    return AffineWeylElement(
        weyl_word(rgs, tuple(obj["word"])), serialize.vector_from_json(obj["translation"])
    )


def load_schema(name):
    text = resources.files("masures.schemas").joinpath(name).read_text()
    return json.loads(text)


class TestPrimitives:
    def test_rational_round_trip(self):
        for x in (Q(0), Q(3), Q(-7, 2), Q(22, 7)):
            assert serialize.rational_from_json(serialize.rational_to_json(x)) == x

    def test_rational_from_plain_int(self):
        assert serialize.rational_from_json(5) == Q(5)

    def test_vector_round_trip(self):
        v = (Q(1, 2), Q(-3), Q(0))
        assert serialize.vector_from_json(serialize.vector_to_json(v)) == v

    def test_rgs_round_trip(self):
        again = serialize.rgs_from_json(rgs_to_json(A2))
        assert again.size == A2.size
        assert again.dim == A2.dim
        assert again.simple_roots == A2.simple_roots
        assert again.simple_coroots == A2.simple_coroots

    def test_root_round_trip(self):
        root = apply_to_root(weyl_word(A2, (1,)), simple_root(A2, 0))
        again = serialize.root_from_json(A2, serialize.root_to_json(root), 3)
        assert again == root

    def test_path_round_trip(self):
        path = PLPath((Q(0), Q(1, 3), Q(1)), ((Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1))))
        again = serialize.path_from_json(serialize.path_to_json(path))
        assert again.times == path.times
        assert again.points == path.points

    def test_affine_weyl_round_trip(self):
        g = translation(A2, (Q(2), Q(-1))).compose(
            AffineWeylElement(weyl_word(A2, (0, 1)), (Q(0), Q(0)))
        )
        again = affine_weyl_from_json(A2, serialize.affine_weyl_to_json(g))
        assert again == g

    def test_enclosed_set_encoding(self):
        enclosed = enclosure_of(A1, [(Q(0),), (Q(1),)], 1)
        obj = serialize.enclosed_to_json(enclosed)
        assert obj["exact"] is True
        assert len(obj["halves"]) == 2

    def test_certificate_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            serialize.certificate_to_json(object())


class TestDumps:
    def test_deterministic_sorted_and_terminated(self):
        obj = {"b": 1, "a": [Q is None, 2]}
        text = serialize.dumps({"b": 1, "a": [False, 2]})
        assert text == serialize.dumps({"a": [False, 2], "b": 1})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_parses_back(self):
        report = verify_growth(A2, random_folded_path(A2, 7, (1, 1), (-1, -1), 2), 2, 3)
        text = serialize.dumps(serialize.growth_report_to_json(report))
        assert json.loads(text)["verdict"] == report.verdict


class TestSchemas:
    def test_growth_report_schema(self):
        path = random_folded_path(A2, 11, (2, 1), (-2, -1), 2)
        report = verify_growth(A2, path, 2, 3)
        obj = serialize.growth_report_to_json(report)
        jsonschema.validate(obj, load_schema("growth_report.json"))

    def test_verification_report_schema(self):
        model = TreeModel(q=2)
        first = model.random_apartment(3, 4)
        second = model.random_apartment(4, 4)
        report = check_MA2(model, first, second, 16)
        obj = serialize.verification_report_to_json(report)
        jsonschema.validate(obj, load_schema("verification_report.json"))

    def test_path_schema(self):
        path = random_folded_path(A2, 5, (1, 2), (-1, -2), 2)
        doc = {
            "matrix": A2.matrix.rows(),
            "path": serialize.path_to_json(path),
            "seed": 5,
            "height_bound": 2,
        }
        jsonschema.validate(doc, load_schema("path.json"))

    def test_half_apartment_fields(self):
        half = HalfApartment(simple_root(A1, 0), 2)
        obj = serialize.half_to_json(half)
        assert obj["level"] == 2
        assert "strict" not in obj
        strict = HalfApartment(simple_root(A1, 0), 2, strict=True)
        assert serialize.half_to_json(strict)["strict"] is True
