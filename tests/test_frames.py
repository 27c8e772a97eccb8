import random
from fractions import Fraction

import pytest

from etf_forge import frames
from etf_forge.errors import FrameError
from etf_forge.frames import (
    Frame,
    certify_etf,
    certify_hadamard_etf,
    gram,
    gram_to_hadamard,
    hadamard_to_gram,
    verify_naimark_pair,
    welch_bound_sq,
)
from etf_forge.hadamard import sylvester
from etf_forge.matrices import ExactMatrix, quad_domain
from etf_forge.scalars import QuadElem

# Golden 6x16 flat synthesis matrix (optimal packing of 16 lines in R^6).
FLAT_6x16 = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1],
    [1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1],
    [1, 1, -1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1],
]

# Golden 3x4 flat regular simplex (tetrahedron).
SIMPLEX_3x4 = [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]

# Golden 6x16 synthesis matrix built from the all-pairs design on 4 vertices.
STEINER_6x16 = [
    [1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0, 1, 1, -1, -1],
    [1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1],
    [0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1, 0, 0, 0, 0],
]

# Its companion with the second nonzero block in each row negated.
STEINER_COMPLEMENT_6x16 = [
    [1, -1, 1, -1, -1, 1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, -1, 1, -1, 1],
    [1, 1, -1, -1, 0, 0, 0, 0, -1, -1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0, -1, -1, 1, 1],
    [1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 1, -1],
    [0, 0, 0, 0, 1, -1, -1, 1, -1, 1, 1, -1, 0, 0, 0, 0],
]


def flat_frame():
    return Frame(ExactMatrix.from_rows(FLAT_6x16))


def simplex_frame():
    return Frame(ExactMatrix.from_rows(SIMPLEX_3x4))


def steiner_frame():
    return Frame(ExactMatrix.from_rows(STEINER_6x16))


def steiner_complement(siblings=STEINER_COMPLEMENT_6x16):
    """The sibling rows over the tail I_4 (x) (1, 1, 1, 1) of weight 2."""
    tail = [[1 if 4 * j <= t < 4 * j + 4 else 0 for t in range(16)] for j in range(4)]
    return Frame(ExactMatrix.from_rows(list(siblings) + tail), row_weights=(1,) * 6 + (2,) * 4)


def perturbed(rows, i, j, value):
    out = [row[:] for row in rows]
    out[i][j] = value
    return out


def test_welch_bound_values():
    assert welch_bound_sq(6, 16) == Fraction(1, 9)
    assert welch_bound_sq(3, 4) == Fraction(1, 9)
    assert welch_bound_sq(4, 4) == 0
    assert welch_bound_sq(3, 7) == Fraction(2, 9)


def test_gram_of_simplex():
    g = gram(simplex_frame())
    for j in range(4):
        for j2 in range(4):
            value = g.entry(j, j2).rational_value()
            assert value == (3 if j == j2 else value)
            if j != j2:
                assert value in (1, -1)


def test_gram_single_column():
    g = gram(Frame(ExactMatrix.from_rows([[2]])))
    assert g.rows == g.cols == 1
    assert g.entry(0, 0).rational_value() == 4


def test_gram_of_flat_6x16():
    g = gram(flat_frame())
    for j in range(16):
        assert g.entry(j, j).rational_value() == 6
        for j2 in range(j + 1, 16):
            assert g.entry(j, j2).rational_value() in (2, -2)


def test_certify_flat_6x16():
    cert = certify_etf(flat_frame())
    assert (cert.beta, cert.alpha, cert.gamma_sq) == (6, 16, 4)
    assert cert.gamma_sq / cert.beta**2 == welch_bound_sq(6, 16)
    assert cert.welch_equality and cert.flat


def test_certify_simplex():
    cert = certify_etf(simplex_frame())
    assert (cert.beta, cert.alpha, cert.gamma_sq) == (3, 4, 1)
    assert cert.flat


def test_certify_steiner_6x16():
    cert = certify_etf(steiner_frame())
    assert (cert.beta, cert.alpha, cert.gamma_sq) == (3, 8, 1)
    assert not cert.flat  # zero entries


def test_certify_failure_messages():
    with pytest.raises(FrameError, match="unequal norms"):
        certify_etf(Frame(ExactMatrix.from_rows([[1, 2], [0, 0]])))
    with pytest.raises(FrameError, match="not tight"):
        certify_etf(Frame(ExactMatrix.from_rows([[1, 1], [1, 1]])))
    with pytest.raises(FrameError, match="not equiangular"):
        certify_etf(Frame(ExactMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])))
    perturbed = [row[:] for row in FLAT_6x16]
    perturbed[3][5] = -perturbed[3][5]
    with pytest.raises(FrameError, match="not (tight|equiangular)"):
        certify_etf(Frame(ExactMatrix.from_rows(perturbed)))


def test_irrational_gamma_rejected_in_quadratic_domain():
    r2 = QuadElem(2, 0, 1)
    rows = [[1, 1, r2 * Fraction(1, 2) + Fraction(1, 2)], [1, -1, 0]]
    frame = Frame(ExactMatrix.from_rows(rows, quad_domain(2)))
    with pytest.raises(FrameError):
        certify_etf(frame)


def test_verify_naimark_pair_steiner_goldens():
    primary = steiner_frame()
    pair = verify_naimark_pair(primary, steiner_complement())
    assert pair.alpha == 8
    comp_cert = certify_etf(pair.complement)
    assert comp_cert.beta == pair.alpha - certify_etf(primary).beta
    assert comp_cert.gamma_sq == 1


def test_verify_naimark_pair_is_one_product(monkeypatch):
    products = []
    real_matmul = frames.matmul

    def counting_matmul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real_matmul(a, b)

    def no_gram(frame):
        raise AssertionError("the pair check needs no Gram matrix")

    monkeypatch.setattr(frames, "matmul", counting_matmul)
    monkeypatch.setattr(frames, "gram", no_gram)
    verify_naimark_pair(steiner_frame(), steiner_complement())
    assert products == [(16, 16, 16)]


def test_verify_naimark_pair_primary_block_failures():
    complement = steiner_complement()
    unequal = Frame(ExactMatrix.from_rows(perturbed(STEINER_6x16, 0, 0, 0)))
    with pytest.raises(FrameError, match="primary is not tight: unequal row norms"):
        verify_naimark_pair(unequal, complement)
    skew = Frame(ExactMatrix.from_rows(perturbed(STEINER_6x16, 0, 0, -1)))
    with pytest.raises(FrameError, match="primary is not tight: rows not orthogonal"):
        verify_naimark_pair(skew, complement)


def test_verify_naimark_pair_complement_diagonal_failure():
    short = steiner_complement(perturbed(STEINER_COMPLEMENT_6x16, 0, 0, 0))
    with pytest.raises(FrameError, match="complement row 0 has squared norm 7, expected 8"):
        verify_naimark_pair(steiner_frame(), short)


def test_verify_naimark_pair_complement_off_diagonal_failure():
    skew = steiner_complement(perturbed(STEINER_COMPLEMENT_6x16, 0, 0, -1))
    with pytest.raises(FrameError, match="complement rows 0 and 2 are not orthogonal"):
        verify_naimark_pair(steiner_frame(), skew)


def test_verify_naimark_pair_cross_block_failure():
    # The primary's own rows pass both tightness blocks but not P C* = 0.
    copy = steiner_complement(STEINER_6x16)
    with pytest.raises(FrameError, match=r"cross block P C\* is nonzero at \(0, 0\)"):
        verify_naimark_pair(steiner_frame(), copy)


def _naimark_failure(monkeypatch, raw):
    """verify_naimark_pair's failure on a Steiner pair whose stacked row
    product S S* is ``raw`` (every row norm 8), or None if it passes."""
    monkeypatch.setattr(frames, "_row_product_diagonal", lambda frame: ([Fraction(8)] * len(raw), raw))
    try:
        verify_naimark_pair(steiner_frame(), steiner_complement())
    except FrameError as exc:
        return str(exc)
    return None


def _scanned_failure(raw, dp):
    """The same failure, found by scanning every upper-triangle entry in turn."""
    n = len(raw)

    def first(rows, cols):
        return next(((i, j) for i in rows for j in cols if j > i and raw[i][j] != 0), None)

    if first(range(dp), range(dp)):
        return "primary is not tight: rows not orthogonal"
    at = first(range(dp, n), range(dp, n))
    if at:
        return f"complement rows {at[0] - dp} and {at[1] - dp} are not orthogonal"
    at = first(range(dp), range(dp, n))
    return at and f"cross block P C* is nonzero at ({at[0]}, {at[1] - dp})"


def test_verify_naimark_pair_scans_each_block_to_its_last_entry(monkeypatch):
    # The 6 + 10 row Steiner stack: the last upper-triangle entry of P P* is
    # (4, 5), of C C* is (14, 15), and of the cross block P C* is (5, 15).
    n, dp = 16, 6
    last = {(4, 5): "primary is not tight: rows not orthogonal",
            (14, 15): "complement rows 8 and 9 are not orthogonal",
            (5, 15): "cross block P C* is nonzero at (5, 9)"}
    for (i, j), message in last.items():
        for value in (1, -3, None):  # None is an irrational entry
            raw = [[8 if r == c else 0 for c in range(n)] for r in range(n)]
            raw[i][j] = value
            assert _naimark_failure(monkeypatch, raw) == message
            raw[j][i] = value  # the lower triangle is never read
            assert _naimark_failure(monkeypatch, raw) == message
    rng = random.Random(16)
    for _ in range(200):
        raw = [[8 if r == c else 0 for c in range(n)] for r in range(n)]
        for _ in range(rng.randrange(1, 4)):
            i, j = sorted(rng.sample(range(n), 2))
            raw[i][j] = rng.choice((1, -1, 2, None))
        assert _naimark_failure(monkeypatch, raw) == _scanned_failure(raw, dp)


def test_verify_naimark_pair_simplex():
    ones = Frame(ExactMatrix.ones(1, 4))
    pair = verify_naimark_pair(ones, simplex_frame())
    assert pair.alpha == 4


def test_verify_naimark_pair_rejects_self():
    f = flat_frame()
    with pytest.raises(FrameError):
        verify_naimark_pair(f, f)


def test_certify_hadamard_etf_simplex_pair():
    ones = Frame(ExactMatrix.ones(1, 4))
    pair = verify_naimark_pair(ones, simplex_frame())
    h = certify_hadamard_etf(pair)
    assert h.n == 4 and h.kind == "real"
    assert h.body == sylvester(2).body


def test_certify_hadamard_etf_rejects_nonflat():
    primary = steiner_frame()
    pair = verify_naimark_pair(primary, steiner_complement())
    with pytest.raises(FrameError, match="not flat"):
        certify_hadamard_etf(pair)


def test_gram_to_hadamard_flat_6x16():
    h = gram_to_hadamard(flat_frame())
    assert h.n == 16
    assert h.body == h.body.adjoint()
    for j in range(16):
        assert h.body.entry(j, j) == 1


def test_gram_to_hadamard_rejects_simplex():
    with pytest.raises(FrameError, match="d ="):
        gram_to_hadamard(simplex_frame())


def test_hadamard_gram_round_trip():
    f = flat_frame()
    h = gram_to_hadamard(f)
    g, d = hadamard_to_gram(h)
    assert d == 6
    # G recovers the Gram matrix up to the rational normalizer c = 1/2.
    assert g == gram(f).scale(Fraction(1, 2))


def test_hadamard_to_gram_small():
    h = gram_to_hadamard(flat_frame())
    g, d = hadamard_to_gram(h)
    assert (g.rows, d) == (16, 6)


def test_hadamard_to_gram_4x4_unit_diagonal():
    # 2I - J is a symmetric unit-diagonal Hadamard matrix of size 4.
    from etf_forge.hadamard import verify_hadamard

    rows = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    h = verify_hadamard(ExactMatrix.from_rows(rows))
    g, d = hadamard_to_gram(h)
    assert d == 1
    assert all(x.rational_value() == 1 for i in range(g.rows) for x in g.row(i))  # G = J


def test_hadamard_to_gram_rejects_identity():
    from etf_forge.errors import HadamardError
    from etf_forge.hadamard import verify_hadamard

    with pytest.raises(HadamardError):
        verify_hadamard(ExactMatrix.identity(2))


def test_gram_to_hadamard_on_design_built_frame():
    from etf_forge.constructions import kirkman_etf, standard_kirkman_inputs

    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    h = gram_to_hadamard(pair.primary)
    assert h.n == 16 and h.body == h.body.adjoint()


def test_flatness_forces_beta_equals_d():
    for frame in (flat_frame(), simplex_frame()):
        cert = certify_etf(frame)
        if cert.flat:
            assert cert.beta == cert.d
