import json
from fractions import Fraction

import pytest

from etf_forge.designs import all_pairs_design, fano_plane, round_robin_resolution
from etf_forge.errors import DesignError, DomainError, InputError
from etf_forge.frames import Frame, certify_etf
from etf_forge.hadamard import dft
from etf_forge.matrices import ExactMatrix, quad_domain
from etf_forge.qsd_bridge import flat_feasibility
from etf_forge.scalars import QuadElem
from etf_forge.serialize import (
    canonical_json,
    certificate_to_obj,
    design_from_obj,
    design_to_obj,
    feasibility_to_obj,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
)

from test_frames import FLAT_6x16


def round_trip_matrix(m: ExactMatrix) -> None:
    text = canonical_json(matrix_to_obj(m))
    loaded = matrix_from_obj(json.loads(text))
    assert loaded == m
    assert canonical_json(matrix_to_obj(loaded)) == text  # byte-identical


def test_matrix_round_trip_rational():
    round_trip_matrix(ExactMatrix.from_rows(FLAT_6x16))


def test_matrix_round_trip_cyclotomic():
    round_trip_matrix(dft(5).body)
    round_trip_matrix(dft(12).body)


def test_matrix_round_trip_quadratic():
    dom = quad_domain(6)
    m = ExactMatrix.from_rows(
        [[QuadElem(6, Fraction(1, 5), Fraction(1, 5)), QuadElem(6, 1, 0)],
         [QuadElem(6, 0, -1), QuadElem(6, Fraction(-2, 3), Fraction(7, 2))]],
        dom,
    )
    round_trip_matrix(m)


def test_matrix_round_trip_needs_a_square_free_radicand():
    doc = {"schema": "etf-forge/matrix/v1", "domain": {"kind": "quadratic", "radicand": 12},
           "rows": 1, "cols": 2, "entries": [[1, 1, 1, 1], [1, 2, -3, 5]]}
    with pytest.raises(InputError, match="square-free"):
        matrix_from_obj(doc)
    doc["domain"]["radicand"] = 3
    assert matrix_to_obj(matrix_from_obj(doc)) == doc
    round_trip_matrix(matrix_from_obj(doc))


def test_matrix_parse_reduces_any_exponent_and_sums_terms():
    # zeta_3^2 = -1 - zeta_3, zeta_3^4 = zeta_3, and 1/2 + 1/2 = 1.
    doc = {"schema": "etf-forge/matrix/v1", "domain": {"kind": "cyclotomic", "order": 3},
           "rows": 1, "cols": 3, "entries": [[[2, 1, 1]], [[4, 1, 1], [-3, 1, 2], [0, 1, 2]], [[1, 1, 2], [1, 1, 2]]]}
    m = matrix_from_obj(doc)
    z = dft(3).body.entry(1, 1)
    assert list(m.row(0)) == [z * z, z + 1, z]
    assert matrix_to_obj(m)["entries"] == [[[0, -1, 1], [1, -1, 1]], [[0, 1, 1], [1, 1, 1]], [[1, 1, 1]]]


def test_matrix_entries_shape():
    obj = matrix_to_obj(dft(3).body)
    assert obj["schema"] == "etf-forge/matrix/v1"
    assert obj["domain"] == {"kind": "cyclotomic", "order": 3}
    # zeta_3^1 in reduced coordinates is one term: [1, 1, 1].
    assert obj["entries"][4] == [[1, 1, 1]]


def test_csv_export():
    text = matrix_to_csv(ExactMatrix.from_rows([[1, -1], [0, 2]]))
    assert text == "1,-1\n0,2\n"
    with pytest.raises(DomainError, match="integer"):
        matrix_to_csv(dft(3).body)


def test_design_round_trip():
    for design in (all_pairs_design(5), fano_plane(), round_robin_resolution(6)):
        obj = design_to_obj(design)
        text = canonical_json(obj)
        loaded = design_from_obj(json.loads(text))
        assert loaded.blocks == design.blocks
        assert loaded.parallel_classes == design.parallel_classes
        assert canonical_json(design_to_obj(loaded)) == text


def test_design_vertices_are_one_based():
    obj = design_to_obj(all_pairs_design(3))
    assert obj["blocks"] == [[1, 2], [1, 3], [2, 3]]


def test_design_declared_params_must_match():
    obj = design_to_obj(all_pairs_design(4))
    obj["lambda"] = 2
    with pytest.raises(DesignError, match="disagree"):
        design_from_obj(obj)


def test_certificate_obj():
    cert = certify_etf(Frame(ExactMatrix.from_rows(FLAT_6x16)))
    obj = certificate_to_obj(cert)
    assert obj["schema"] == "etf-forge/certificate/v1"
    assert obj["beta"] == [6, 1]
    assert obj["alpha"] == [16, 1]
    assert obj["gamma_sq"] == [4, 1]
    assert obj["welch_equality"] and obj["flat"]


def test_feasibility_obj():
    obj = feasibility_to_obj(flat_feasibility(15, 36))
    assert obj["verdict"] == "fail"
    assert obj["w"] == {"integer": True, "value": 3, "odd": True}
    assert obj["n_mod_16"] == 4
    obj = feasibility_to_obj(flat_feasibility(6, 16))
    assert obj["verdict"] == "pass"


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'
