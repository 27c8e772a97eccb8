import gc
import io
import json
import random
import re
import tracemalloc
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
from etf_forge.designs import (
    all_pairs_design,
    design_from_obj,
    design_to_obj,
    fano_plane,
    lift_permutation,
    round_robin_resolution,
)
from etf_forge.errors import DesignError, DomainError, InputError
from etf_forge.frames import Frame, certify_etf
from etf_forge.hadamard import AbelianGroup, dft, hadamard_of_size, sylvester
from etf_forge.matrices import RATIONAL, ExactMatrix, cyclo_domain, quad_domain
from etf_forge.qsd_bridge import etf_from_qsd, flat_feasibility, qsd_from_flat_etf
from etf_forge.scalars import QuadElem
from etf_forge.recipes import recipe, replay
from etf_forge.serialize import (
    MAX_SIDE,
    canonical_json,
    certificate_to_obj,
    dump,
    feasibility_to_obj,
    json_ints,
    load,
    load_matrix,
    matrix_from_obj,
    matrix_text,
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


def test_design_documents_and_blocks_recipes_share_one_reader():
    # One reader takes v, the 1-based blocks and the 0-based parallel classes,
    # so a design document and a "blocks" recipe source give one design or
    # one error message for the same fields.
    from etf_forge.recipes import design_from_spec

    design = round_robin_resolution(6)
    doc = design_to_obj(design)
    spec = {"generator": "blocks", "v": 6, "blocks": doc["blocks"], "parallel_classes": doc["parallel_classes"]}
    bad_fields = [("blocks", "12"), ("blocks", [[1, True]] + doc["blocks"][1:]), ("blocks", [[1, 2.0]] + doc["blocks"][1:]),
                  ("blocks", [[0, 2]] + doc["blocks"][1:]), ("blocks", [[1, 1]] + doc["blocks"][1:]),
                  ("parallel_classes", "0"), ("parallel_classes", [[0, "1"]] + doc["parallel_classes"][1:])]
    messages = []
    for read, obj in ((design_from_obj, doc), (design_from_spec, spec)):
        loaded = read(obj)
        assert (loaded.blocks, loaded.parallel_classes) == (design.blocks, design.parallel_classes)
        for key, bad in bad_fields:
            with pytest.raises(InputError) as info:
                read(dict(obj, **{key: bad}))
            messages.append(str(info.value))
        for v in ("6", 6.0, True):
            with pytest.raises(InputError, match="not an integer|are not integers"):
                read(dict(obj, v=v))
    assert messages[: len(bad_fields)] == messages[len(bad_fields) :]


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


# -- the text reader against the json path ------------------------------
#
# load_matrix reads a canonical document of a {-1, 0, 1} matrix from its text
# at a fixed stride, taking exactly the texts matrix_text writes; anything
# else goes to json.loads and matrix_from_obj.  Each document below is read
# both ways, and both must give one matrix or one error message.


def _outcome(read, source):
    """(matrix, its domain, den and planes) of ``read(source)``, or (None, its error type and message)."""
    try:
        m = read(source)
    except (InputError, ValueError) as exc:
        return None, (type(exc).__name__, str(exc))
    return m, (m.domain, m.den, m.planes)


def _json_path(text):
    return matrix_from_obj(json.loads(text))


def _text_path(text):
    return serialize._decode_matrix(io.BytesIO(text.encode()))


def _is_sign_matrix(m) -> bool:
    return m.domain == RATIONAL and m.int_rows() is not None and set().union(*m.int_rows()) <= {-1, 0, 1}


def _assert_paths_agree(text) -> bool:
    """Both readers give one matrix or one error message for ``text``; returns
    whether the text reader took it without ``json``, which it must do exactly
    for the canonical documents of {-1, 0, 1} matrices."""
    m, want = _outcome(_json_path, text)
    assert _outcome(_text_path, text)[1] == want
    taken = serialize._sign_matrix([text.encode()]) is not None
    assert taken == (m is not None and _is_sign_matrix(m) and matrix_text(m) == text)
    return taken


def _entries_text(text):
    """(head, entry texts, tail) of a canonical matrix document."""
    head, sep, rest = text.partition('"entries":[')
    body, sep2, tail = rest.rpartition('],"rows":')
    return head + sep, [json.dumps(e, separators=(",", ":")) for e in json.loads(f"[{body}]")], sep2 + tail


def _with_entry(text, index, entry_text):
    head, entries, tail = _entries_text(text)
    entries[index] = entry_text
    return head + ",".join(entries) + tail


@pytest.fixture(scope="module")
def workload_documents(kirkman_u12_documents) -> dict[str, str]:
    """The canonical matrix documents the benchmark workloads write, by name."""
    lines = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(1, 16) if a < b})
    sts = {"sts15": lines, "sts15_complement": [sorted(set(range(1, 16)) - set(line)) for line in lines]}
    recipes = {
        "simplex13": recipe("simplex", hadamard={"generator": "dft", "n": 13}),
        "harmonic4x4": recipe("harmonic", group=[4, 4], subset=[1, 2, 3, 4, 8, 12]),
        "harmonic13": recipe("harmonic", group=[13], subset=[0, 1, 3, 9]),
        "harmonic31": recipe("harmonic", group=[31], subset=[1, 5, 11, 24, 25, 27]),
        "steiner8": recipe("steiner", design={"generator": "all-pairs", "v": 8}, f={"generator": "sylvester", "e": 1},
                           g={"generator": "dft", "n": 8}, column=1),
    }
    for name, blocks in sts.items():
        for branch in ("plus", "minus"):
            recipes[f"{name}_{branch}"] = recipe("qsd-to-etf", design={"generator": "blocks", "v": 15, "blocks": blocks},
                                                 branch=branch)
    kirkman4 = kirkman_etf(standard_kirkman_inputs(4))
    docs = {"kirkman12/primary": kirkman_u12_documents[0], "kirkman12/complement": kirkman_u12_documents[1]}
    for role, frame in (("primary", kirkman4.primary), ("complement", kirkman4.complement)):
        docs[f"kirkman4_{role}_qsd_minus/primary"] = etf_from_qsd(qsd_from_flat_etf(frame).certificate, "minus")[0].matrix
    for name, rec in recipes.items():
        for role, frame in replay(rec).frames().items():
            docs[f"{name}/{role}"] = frame.matrix
    return {name: matrix_text(m) if isinstance(m, ExactMatrix) else canonical_json(m) for name, m in docs.items()}


def test_every_recipe_kind_writes_orders_within_the_bound():
    # matrix_from_obj refuses a cyclotomic order above MAX_SIDE.  A frame the
    # program builds has order at most its vector count n: exp(G) <= |G| = n
    # over a group G, N for a DFT of size N, lcm(m1, m2) <= n1 n2 for a
    # tensor.  So the bound refuses no frame with at most MAX_SIDE vectors.
    lines = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(1, 16) if a < b})
    recipes = [
        recipe("simplex", hadamard={"generator": "dft", "n": 13}),
        recipe("harmonic", group=[13], subset=[0, 1, 3, 9]),
        recipe("steiner", design={"generator": "all-pairs", "v": 4}, f={"generator": "sylvester", "e": 1},
               g={"generator": "dft", "n": 4}),
        recipe("kirkman", u=2),
        recipe("tensor", left=recipe("harmonic", group=[4, 4], subset=[1, 2, 3, 4, 8, 12]), right=recipe("kirkman", u=2)),
        recipe("qsd-to-etf", design={"generator": "blocks", "v": 15, "blocks": lines}),
    ]
    orders = set()
    for rec in recipes:
        for role, frame in replay(rec).frames().items():
            doc = json.loads(matrix_text(frame.matrix))
            orders.add(doc["domain"].get("order"))
            assert doc["domain"].get("order", 1) <= doc["cols"] <= MAX_SIDE, (rec["kind"], role)
    assert orders == {None, 1, 4, 13}


def test_integer_fast_path_agrees_with_the_general_path(workload_documents, steiner_v24_document, monkeypatch):
    docs = dict(workload_documents, steiner24=canonical_json(steiner_v24_document))
    docs.update((f"small{i}", canonical_json(doc)) for i, doc in enumerate(_small_documents()))
    kinds = {json.loads(t)["domain"]["kind"] for t in docs.values()}
    orders = {json.loads(t)["domain"].get("order") for t in docs.values()}
    assert kinds == {"cyclotomic", "quadratic"} and orders >= {1, 4, 5, 8, 12, 13, 31}
    taken = {name for name, text in docs.items() if _assert_paths_agree(text)}
    # Every canonical {-1, 0, 1} document is read from its text, zeros included;
    # the rational but non-integer QSD frames are not.
    large = {"kirkman12/primary", "kirkman12/complement", "steiner24"}
    assert large <= taken and not any(name.startswith("kirkman4_") for name in taken)
    calls = []
    monkeypatch.setattr(serialize, "matrix_from_obj", lambda *a: calls.append(a))
    for name in large:
        assert _text_path(docs[name]).rows in (276, 300)
    assert calls == []


MUTATED_ENTRIES = [True, 1.0, "1", None, [], [[0, 0, 1]], [[0, 2, 2]], [[0, 1, -1]], [[3, 1, 1]],
                   [[0, 1, 1], [0, 1, 1]], [[0, 1, 0]], [[0, 2**70, 1]], [[True, 1, 1]], [[0, True, 1]],
                   [[0, 1, True]], [[0.0, 1, 1]], [[0, 1.0, 1]], [[0, 1, 1.0]], [0, 1, 1], [[0, 1]],
                   0, False, "", {}, [[]], [[], []]]
# Spellings of an entry's n that int() reads and JSON rejects or reads otherwise,
# and some that neither reads.
INT_SPELLINGS = ["+1", "1_0", " 1", "1 ", "01", "-0", "\u0661", "1.0", "true", "1e0", "0x1", "", "--1", "2**70"]


@pytest.mark.parametrize("seed", range(3))
def test_mutated_integer_documents_take_the_same_verdict_on_both_paths(seed):
    rng = random.Random(seed)
    kirkman = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    steiner = steiner_etf(SteinerInputs(lift_permutation(all_pairs_design(4)), sylvester(1), sylvester(2)))
    for m in (ExactMatrix.from_rows(FLAT_6x16), kirkman.primary.matrix, kirkman.complement.matrix, steiner.matrix):
        text = matrix_text(m)
        assert _assert_paths_agree(text)
        count = m.rows * m.cols
        for value in MUTATED_ENTRIES:
            _assert_paths_agree(_with_entry(text, rng.randrange(count), json.dumps(value, separators=(",", ":"))))
        for spelling in INT_SPELLINGS:
            _assert_paths_agree(_with_entry(text, rng.randrange(count), f"[[0,{spelling},1]]"))
        index = rng.randrange(count)  # a canonical zero is read from the text
        zeroed = _with_entry(text, index, "[]")
        assert _assert_paths_agree(zeroed)
        assert _text_path(zeroed).entry(index // m.cols, index % m.cols) == 0


def test_text_reader_takes_the_json_verdict_on_edited_documents(kirkman_u12_documents):
    text = matrix_text(kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1))).primary.matrix)
    edits = [
        text[:-1], text + "\n", text + " ", text + "x", text + "{}", text[: len(text) // 2], text[:8], "", "\ufeff" + text,
        text.replace("\n", "\r\n"), text.replace(":", ": "), text.replace(",", ", ", 1),
        text.replace('"schema":"etf-forge/matrix/v1"', '"schema":"etf-forge/matrix/v2"'),
        text.replace('"order":1', '"order":2'), text.replace('"order":1', '"order":+1'),
        text.replace('"cols":', '"cols":+', 1), text.replace('"cols":', '"cols":0', 1),
        text.replace('"rows":', '"rows":-', 1), text.replace('"rows":', '"rows":1', 1),
        text.replace('{"cols":', '{"rows":1,"cols":', 1), text.replace(',"rows":', ',"extra":0,"rows":', 1),
        text.replace("[[0,1,1]]", "[[0,1,1],[0,0,1]]", 1), text.replace("[[0,1,1]]", "[]", 1),
        text.replace("[[0,", "[[0, ", 1), text.replace("[[0,-1,1]]", "[[0,-1,1]],", 1),
        text.replace(",1]],[[0,", ",1]],[[0,1]],[[0,", 1), text.replace("[[0,1,1]],", "", 1),
        text.replace("[[0,1,1]],", "[[0,1,1]],[[0,1,1]],", 1),
    ]
    # On the 276 x 576 document, the edits whose verdict could depend on its size.
    large = canonical_json(kirkman_u12_documents[0])
    edits += [large, large[:-1], large + "x", large[: len(large) // 2], large.replace("[[0,1,1]]", "[]", 1),
              large.replace(",1]],[[0,", ",1]],[[0,+", 1)]
    for edited in edits:
        _assert_paths_agree(edited)


def _seeded_sign_matrices() -> dict[str, ExactMatrix]:
    rng = random.Random(15)

    def signs(rows, cols, values=(-1, 0, 1)):
        return ExactMatrix.from_rows([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
    return {"1x1": signs(1, 1), "1x1 zero": signs(1, 1, (0,)), "1x1 minus": signs(1, 1, (-1,)),
            "1xn": signs(1, 37), "nx1": signs(29, 1), "dense": signs(7, 11), "all zero": signs(5, 9, (0,)),
            "all -1": signs(6, 4, (-1,)), "zero rows": ExactMatrix.from_rows([[0] * 8, [1, -1] * 4, [0] * 8])}


def test_sign_reader_is_exact_on_seeded_shapes_and_single_byte_edits(kirkman_u12_documents, steiner_v24_document,
                                                                      monkeypatch):
    for name, m in _seeded_sign_matrices().items():
        text = matrix_text(m)
        assert _assert_paths_agree(text), name
        assert _text_path(text) == m, name
    # Every one-byte substitution, deletion and duplication, in head, body and tail.
    text = matrix_text(ExactMatrix.from_rows([[1, -1, 0], [0, -1, 1]]))
    assert _assert_paths_agree(text)
    for i in range(len(text)):
        for byte in "01-[], \u00e9":
            _assert_paths_agree(text[:i] + byte + text[i + 1 :])
        _assert_paths_agree(text[:i] + text[i + 1 :])
        _assert_paths_agree(text[: i + 1] + text[i:])
    large = [canonical_json(doc) for doc in kirkman_u12_documents] + [canonical_json(steiner_v24_document)]
    for text in large:
        assert _assert_paths_agree(text)
    calls = []
    loads = serialize.json.loads
    monkeypatch.setattr(serialize.json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
    assert [_text_path(text).rows for text in large] == [276, 300, 276]
    assert calls == []


def test_sign_reader_checks_the_length_before_building_entry_buffers():
    # A document that declares n = rows * cols entries but holds four: refused
    # before any buffer of n entries exists, then read by json with its verdict.
    small = matrix_text(ExactMatrix.from_rows([[1, -1], [0, 1]]))
    for side in (10**3, 10**6, 2**40):
        text = small.replace('{"cols":2', f'{{"cols":{side}', 1).replace('"rows":2', f'"rows":{side}', 1)
        tracemalloc.start()
        try:
            assert serialize._sign_matrix([text.encode()]) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (side, peak)
        assert not _assert_paths_agree(text)
        assert _outcome(_text_path, text)[1] == (
            "InputError", f"malformed matrix document: ValueError: expected {side * side} entries "
                          f"for a {side}x{side} matrix, got 4")


def test_load_matrix_of_a_sign_document_peaks_below_three_file_sizes(kirkman_u12_documents, tmp_path):
    # The reader holds the file's bytes and one more buffer of their size,
    # then slices the rows from one signed byte per entry; the peak counts the
    # matrix it returns.
    path = tmp_path / "primary.json"
    path.write_text(canonical_json(kirkman_u12_documents[0]))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        m = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.rows * m.cols >= 100_000 and m == matrix_from_obj(kirkman_u12_documents[0])
    assert peak <= 3 * size, (peak, size)


@pytest.mark.parametrize("name, bound", [("steiner24", 2.7), ("kirkman12", 1.5)])
def test_load_matrix_frees_the_document_before_it_builds_the_rows(name, bound, kirkman_u12_documents,
                                                                  steiner_v24_document, tmp_path):
    # The body is rewritten one piece at a time and the file's bytes are freed
    # before the rows are sliced, so the peak is the larger of the bytes with
    # one piece and one byte per entry, and the matrix with that byte per
    # entry.  The Steiner primary writes each of its 145,728 zeros in 3 bytes
    # and holds it in a list slot of 8.
    doc = steiner_v24_document if name == "steiner24" else kirkman_u12_documents[0]
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(doc))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        m = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == matrix_from_obj(doc)
    assert peak <= bound * size, (peak, size)


@pytest.mark.parametrize("piece", [1, 16])
def test_sign_reader_cuts_its_pieces_after_an_entry(piece, monkeypatch):
    # The body is rewritten in pieces of at least _SIGN_PIECE bytes, each cut
    # at the "]" before a "],[" comma.  With pieces this small, a short body
    # is cut after most of its entries, and every one-byte substitution,
    # deletion and duplication in it takes the json verdict.
    monkeypatch.setattr(serialize, "_SIGN_PIECE", piece)
    rng = random.Random(19)
    text = matrix_text(ExactMatrix.from_rows([[rng.choice((-1, 0, 1)) for _ in range(5)] for _ in range(3)]))
    assert _assert_paths_agree(text)
    start = text.index('"entries":[') + len('"entries":[')
    for i in range(start - 1, text.rindex('],"rows":') + 1):
        for byte in "01-[],":
            _assert_paths_agree(text[:i] + byte + text[i + 1 :])
        _assert_paths_agree(text[:i] + text[i + 1 :])
        _assert_paths_agree(text[: i + 1] + text[i:])


def test_dump_of_a_576_wide_sign_matrix_holds_no_whole_document(kirkman_u12_documents, tmp_path):
    # dump writes a matrix one row of entry texts at a time; the entry list,
    # its join and the document text were each about the file's size.
    m = matrix_from_obj(kirkman_u12_documents[0])
    path = tmp_path / "primary.json"
    tracemalloc.start()
    try:
        dump(m, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == canonical_json(kirkman_u12_documents[0]) == matrix_text(m)
    assert m.cols == 576 and peak < size / 10, (peak, size)


def test_load_matrix_of_a_file_takes_the_json_verdict(tmp_path):
    # The json route is matrix_from_obj(load(path)).  Both readers see the
    # file's bytes: a CRLF line end is not canonical, so json reads it.
    text = matrix_text(kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1))).complement.matrix)
    data = text.encode()
    cases = {
        "canonical": data, "crlf": data.replace(b"\n", b"\r\n"), "bom": b"\xef\xbb\xbf" + data,
        "truncated": data[: len(data) // 3], "trailing": data + b"\x00", "trailing-newlines": data + b"\n\n",
        "not-utf8": data[:20] + b"\xff" + data[21:], "empty": b"",
    }
    verdicts = {}
    for name, raw in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        m, want = _outcome(lambda p: matrix_from_obj(load(p)), path)
        assert _outcome(load_matrix, path)[1] == want, name
        verdicts[name] = m is not None
    assert {k for k, read in verdicts.items() if read} == {"canonical", "crlf", "trailing-newlines"}


def _entry_document(m: ExactMatrix) -> dict:
    """The v1 document built one scalar at a time from ``m.entry(i, j)``."""
    def pair(q):
        return [q.numerator, q.denominator]

    entries = []
    for i in range(m.rows):
        for j in range(m.cols):
            x = m.entry(i, j)
            if m.domain.kind == "quadratic":
                entries.append(pair(x.a) + pair(x.b))
            else:
                entries.append([[e, *pair(c)] for e, c in enumerate(x.coeffs) if c])
    domain = ({"kind": "quadratic", "radicand": m.domain.radicand} if m.domain.kind == "quadratic"
              else {"kind": "cyclotomic", "order": m.domain.order})
    return {"schema": serialize.MATRIX_SCHEMA, "domain": domain, "rows": m.rows, "cols": m.cols, "entries": entries}


def test_dump_writes_the_entry_by_entry_document(tmp_path):
    rng = random.Random(12)
    dense31 = [[[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)] for _ in range(30)]
    mats = {
        "integer": ExactMatrix.from_rows([[1, -1, 0], [0, 7, -12]]),
        "rational": ExactMatrix.from_rows([[Fraction(1, 2), -3, 0], [Fraction(-5, 6), Fraction(4, 3), 1]]),
        "order-4": harmonic_etf(verify_difference_set(AbelianGroup((4, 4)), (1, 2, 3, 4, 8, 12))).primary.matrix,
        "order-31": ExactMatrix(cyclo_domain(31), 6, dense31),
        "q-sqrt-6": ExactMatrix.from_rows(QUAD_2x2, quad_domain(6)),
        "q-sqrt-6-rational": ExactMatrix(quad_domain(6), 3, [[[1, 0, -2]]]),
    }
    for name, m in mats.items():
        dump(m, tmp_path / f"{name}.json")
        written = (tmp_path / f"{name}.json").read_text()
        assert written == matrix_text(m) == canonical_json(_entry_document(m)), name
        assert load_matrix(tmp_path / f"{name}.json") == m


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
    decode = json.loads
    monkeypatch.setattr(serialize.json, "loads", lambda text: states.append(gc.isenabled()) or decode(text))
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


@pytest.mark.parametrize("bad", [2.5, "2", True, None, 2.0])
def test_json_ints_refuses_a_non_integer_inside_a_list(bad):
    # Only an exact int is a JSON integer; int() would read each of these.
    for value in ([bad], [1, bad, 3], (bad, 1)):
        with pytest.raises(InputError, match=rf"^design blocks {re.escape(repr(value))} are not integers$"):
            json_ints(value, "design blocks")
    with pytest.raises(InputError, match=rf"^design blocks {re.escape(repr([bad]))} are not integers$"):  # the inner list
        json_ints([[1], [bad]], "design blocks", 2)
    assert json_ints([1, -2, 3], "design blocks") == (1, -2, 3)
    assert json_ints([], "design blocks") == ()
