import gc
import json
import random
from fractions import Fraction

import pytest

from etf_forge import serialize
from etf_forge.constructions import (
    SteinerInputs,
    harmonic_etf,
    kirkman_etf,
    standard_kirkman_inputs,
    steiner_etf,
    verify_difference_set,
)
from etf_forge.designs import all_pairs_design, fano_plane, lift_permutation, round_robin_resolution
from etf_forge.errors import DesignError, DomainError, InputError
from etf_forge.frames import Frame, certify_etf
from etf_forge.hadamard import AbelianGroup, dft, hadamard_of_size, sylvester
from etf_forge.matrices import ExactMatrix, quad_domain
from etf_forge.qsd_bridge import etf_from_qsd, flat_feasibility, qsd_from_flat_etf
from etf_forge.scalars import QuadElem
from etf_forge.serialize import (
    _entry_planes,
    _general_entry_planes,
    canonical_json,
    certificate_to_obj,
    design_from_obj,
    design_to_obj,
    feasibility_to_obj,
    load,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
)

from test_frames import FLAT_6x16

QUAD_2x2 = [[QuadElem(6, Fraction(1, 5), Fraction(1, 5)), QuadElem(6, 1, 0)],
            [QuadElem(6, 0, -1), QuadElem(6, Fraction(-2, 3), Fraction(7, 2))]]


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
    round_trip_matrix(ExactMatrix.from_rows(QUAD_2x2, quad_domain(6)))


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


def _small_documents() -> list[dict]:
    """Matrix documents over all three domains: flat integer frames, DFT and
    harmonic frames, QSD frames over Q and Q(sqrt 6), and a quadratic matrix."""
    kirkman = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    harmonic = harmonic_etf(verify_difference_set(AbelianGroup((13,)), (0, 1, 3, 9)))
    qsd = qsd_from_flat_etf(kirkman.primary).certificate
    mats = [ExactMatrix.from_rows(FLAT_6x16), kirkman.primary.matrix, kirkman.complement.matrix,
            dft(5).body, dft(12).body, harmonic.primary.matrix, harmonic.complement.matrix,
            etf_from_qsd(qsd, "plus")[0].matrix, etf_from_qsd(qsd, "minus")[0].matrix,
            ExactMatrix.from_rows(QUAD_2x2, quad_domain(6))]
    return [matrix_to_obj(m) for m in mats]


@pytest.fixture(scope="module")
def kirkman_u12_documents() -> list[dict]:
    """The 276 x 576 primary and 300 x 576 complement of the u = 12 pair."""
    pair = kirkman_etf(standard_kirkman_inputs(12))
    return [matrix_to_obj(pair.primary.matrix), matrix_to_obj(pair.complement.matrix)]


@pytest.fixture(scope="module")
def steiner_v24_document() -> dict:
    """The 276 x 576 all-pairs(24) Steiner primary: 145,728 of its entries are zeros, written []."""
    lift = lift_permutation(all_pairs_design(24))
    return matrix_to_obj(steiner_etf(SteinerInputs(lift, sylvester(1), hadamard_of_size(24))).matrix)


def _planes_or_error(parse, entries, domain):
    """(den, planes), or the error that ``matrix_from_obj`` turns into InputError."""
    try:
        den, planes = parse(entries, domain)
        return den, [list(p) for p in planes]
    except (DomainError, TypeError, ValueError, ZeroDivisionError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _assert_paths_agree(doc) -> None:
    domain = serialize._domain_from_obj(doc["domain"])
    fast = _planes_or_error(_entry_planes, doc["entries"], domain)
    assert fast == _planes_or_error(_general_entry_planes, doc["entries"], domain)
    if isinstance(fast[0], str):
        with pytest.raises(InputError, match=fast[0]):
            matrix_from_obj(doc)


def test_integer_fast_path_agrees_with_the_general_path(kirkman_u12_documents, steiner_v24_document, monkeypatch):
    large = kirkman_u12_documents + [steiner_v24_document]
    docs = _small_documents() + large
    assert {d["domain"]["kind"] for d in docs} == {"cyclotomic", "quadratic"}
    assert {d["domain"].get("order") for d in docs} >= {1, 5, 12, 13}
    for doc in docs:
        _assert_paths_agree(doc)
        _assert_paths_agree(json.loads(canonical_json(doc)))
    # The u = 12 and all-pairs(24) documents are in the integer form, zeros
    # included, so the general path must not run.
    calls = []
    monkeypatch.setattr(serialize, "_general_entry_planes", lambda *a: calls.append(a))
    for doc in large:
        for copy in (doc, json.loads(canonical_json(doc))):
            assert matrix_from_obj(copy).rows in (276, 300)
    assert calls == []


MUTATED_ENTRIES = [True, 1.0, "1", None, [], [[0, 0, 1]], [[0, 2, 2]], [[0, 1, -1]], [[3, 1, 1]],
                   [[0, 1, 1], [0, 1, 1]], [[0, 1, 0]], [[0, 2**70, 1]], [[True, 1, 1]], [[0, True, 1]],
                   [[0, 1, True]], [[0.0, 1, 1]], [[0, 1.0, 1]], [[0, 1, 1.0]], [0, 1, 1], [[0, 1]],
                   0, False, "", {}, [[]], [[], []]]


@pytest.mark.parametrize("seed", range(3))
def test_mutated_integer_documents_take_the_same_verdict_on_both_paths(seed):
    rng = random.Random(seed)
    kirkman = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    steiner = steiner_etf(SteinerInputs(lift_permutation(all_pairs_design(4)), sylvester(1), sylvester(2)))
    for m in (ExactMatrix.from_rows(FLAT_6x16), kirkman.primary.matrix, kirkman.complement.matrix, steiner.matrix):
        doc = json.loads(canonical_json(matrix_to_obj(m)))
        for value in MUTATED_ENTRIES:
            entries = list(doc["entries"])
            entries[rng.randrange(len(entries))] = value
            _assert_paths_agree(dict(doc, entries=entries))


def test_bool_exponents_and_empty_shapes_are_input_errors():
    doc = matrix_to_obj(ExactMatrix.from_rows([[1, -1], [1, 1]]))
    for entry in ([[True, 1, 1]], [[0, True, 1]]):
        with pytest.raises(InputError, match="integer exponent, numerator and denominator"):
            matrix_from_obj(dict(doc, entries=[entry] + doc["entries"][1:]))
    for rows, cols in ((2, 0), (0, 2), (0, 0), (-1, -4)):
        with pytest.raises(InputError, match="at least 1"):
            matrix_from_obj(dict(doc, rows=rows, cols=cols, entries=[[[0, 1, 1]]] * (rows * cols)))


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_canonical_json_of_matrix_documents_equals_the_json_dumps_reference(kirkman_u12_documents):
    for shared in _small_documents():
        unshared = json.loads(_reference_json(shared))
        partly = dict(shared, entries=[list(shared["entries"][0])] + shared["entries"][1:])
        for doc in (shared, unshared, partly):
            assert canonical_json(doc) == _reference_json(doc)
    for shared in kirkman_u12_documents:
        assert canonical_json(shared) == _reference_json(shared)
    for odd in ({}, {"entries": "ab"}, {"entries": {"a": [1]}}, {"entries": []}, {"entries": [[1]] * 2, "rows": 2}):
        doc = dict(odd, schema=serialize.MATRIX_SCHEMA)
        assert canonical_json(doc) == _reference_json(doc)


def test_load_pauses_the_collector_only_inside_the_decode(tmp_path, monkeypatch):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(canonical_json(matrix_to_obj(dft(3).body)))
    bad.write_text("{not json")
    states = []
    decode = json.load
    monkeypatch.setattr(serialize.json, "load", lambda fh: states.append(gc.isenabled()) or decode(fh))
    assert gc.isenabled()
    assert matrix_from_obj(load(good)) == dft(3).body
    assert gc.isenabled()
    with pytest.raises(InputError, match="not valid JSON"):
        load(bad)
    assert gc.isenabled()
    gc.disable()
    try:
        load(good)
        assert not gc.isenabled()
        with pytest.raises(InputError):
            load(bad)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert states == [False] * 4


def test_load_matrix_keeps_the_collector_paused_through_the_parse(tmp_path, monkeypatch):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(canonical_json(matrix_to_obj(dft(3).body)))
    bad.write_text(canonical_json({"schema": serialize.MATRIX_SCHEMA, "entries": []}))
    states = []
    parse = serialize.matrix_from_obj
    monkeypatch.setattr(serialize, "matrix_from_obj", lambda obj: states.append(gc.isenabled()) or parse(obj))
    assert serialize.load_matrix(good) == dft(3).body
    assert gc.isenabled()
    with pytest.raises(InputError, match="malformed matrix document"):
        serialize.load_matrix(bad)
    assert gc.isenabled()
    assert states == [False, False]
