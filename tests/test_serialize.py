"""Operator/vector serialization round trips and validation."""

import json

import numpy as np
import pytest

from fockqha.model import FockParams, kernel_coefficients, singular_values
from fockqha.operators import weyl
from fockqha.serialize import (
    load_operator,
    operator_to_dict,
    save_operator,
    singular_values_to_csv,
    vector_to_csv,
)

P = FockParams(1, 1.0, 8, 12)


def test_operator_round_trip(tmp_path):
    A = weyl(P, 0.3 - 0.2j)
    path = tmp_path / "op.json"
    save_operator(A, path, extra={"what": "weyl"})
    B = load_operator(path)
    assert B.params == P
    assert np.array_equal(A.matrix, B.matrix)


def test_document_is_self_describing():
    doc = operator_to_dict(weyl(P, 0.1))
    assert doc["schema"] == "1"
    assert doc["params"] == {"n": 1, "t": 1.0, "D": 8, "Q": 12}
    assert doc["basis"][0] == [0] and len(doc["basis"]) == P.dim


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError, match="operator document"):
        load_operator(path)


def test_load_rejects_scrambled_basis(tmp_path):
    doc = operator_to_dict(weyl(P, 0.1))
    doc["basis"] = doc["basis"][::-1]
    path = tmp_path / "scrambled.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="basis order"):
        load_operator(path)


def test_vector_csv(tmp_path):
    v = kernel_coefficients(P, 0.5)
    path = tmp_path / "vec.csv"
    vector_to_csv(v, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,re,im"
    assert len(lines) == P.dim + 1


def test_singular_values_csv(tmp_path):
    A = weyl(P, 0.2)
    path = tmp_path / "sv.csv"
    singular_values_to_csv(A, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == P.dim + 1
    sv = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(sv, singular_values(A))


@pytest.mark.parametrize("schema", ["99", None])
def test_load_rejects_other_schema(tmp_path, schema):
    doc = operator_to_dict(weyl(P, 0.1))
    if schema is None:
        del doc["schema"]
    else:
        doc["schema"] = schema
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        load_operator(path)
