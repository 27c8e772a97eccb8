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


def test_a_failed_coherence_equality_is_reported_as_not_tight():
    # With equal norms beta and one squared modulus gamma^2 off the diagonal,
    # the coherence equality is the Welch equality (tr G)^2 = d ||G||_F^2,
    # which holds exactly when the frame is tight.  A frame that fails it is
    # not tight, so the row-product check raises first and the coherence
    # message never reaches a caller.
    with pytest.raises(FrameError, match=r"^not tight: rows 0 and 1 are not orthogonal$"):
        certify_etf(Frame(ExactMatrix.from_rows([[2, 1], [1, 2]])))


def test_every_equal_norm_equiangular_frame_off_the_coherence_equality_fails_as_not_tight():
    # The claim above on seeded frames: column subsets of real and complex
    # ETFs (equal norms, one squared modulus) that a per-entry oracle finds
    # not tight, and square frames a I + b J with non-orthogonal columns.
    from functools import reduce
    from operator import add

    from etf_forge.hadamard import dft

    def tight(m):  # M M* = alpha I, entry by entry
        rows = [m.row(i) for i in range(m.rows)]
        products = [[reduce(add, (x * y.conjugate() for x, y in zip(r, s))) for s in rows] for r in rows]
        return all(products[i][j] == (products[0][0] if i == j else 0) for i in range(m.rows) for j in range(m.rows))

    rng = random.Random(2026)
    etfs = [ExactMatrix.from_rows(FLAT_6x16), ExactMatrix.from_rows(SIMPLEX_3x4),
            dft(7).body.take_rows([1, 2, 4]), dft(13).body.take_rows([0, 1, 3, 9])]
    cases = []
    for _ in range(60):
        m = rng.choice(etfs)
        sub = m.transpose().take_rows(sorted(rng.sample(range(m.cols), rng.randrange(max(m.rows, 2), m.cols)))).transpose()
        if not tight(sub):
            cases.append(Frame(sub))
    for _ in range(20):
        n, a, b = rng.randrange(2, 7), rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-2, -1, 1, 2))
        if 2 * a + n * b:  # <v_i, v_j> = b (2 a + n b) off the diagonal
            cases.append(Frame(ExactMatrix.from_rows([[a * (i == j) + b for j in range(n)] for i in range(n)])))
    assert len(cases) >= 50 and {f.domain.order for f in cases} == {1, 7, 13}
    for frame in cases:
        with pytest.raises(FrameError, match=r"^not tight: "):
            certify_etf(frame)


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
    # The stacked row product S S* is the only product, taken as one
    # triangle: no Gram matrix and no full matmul.
    products = []
    real_triangle = frames.row_product_triangle

    def counting_triangle(m):
        products.append((m.rows, m.cols))
        return real_triangle(m)

    def no_product(a, b):
        raise AssertionError("the pair check takes no full product")

    def no_gram(frame):
        raise AssertionError("the pair check needs no Gram matrix")

    monkeypatch.setattr(frames, "row_product_triangle", counting_triangle)
    monkeypatch.setattr(frames, "matmul", no_product)
    monkeypatch.setattr(frames, "gram", no_gram)
    verify_naimark_pair(steiner_frame(), steiner_complement())
    assert products == [(16, 16)]


def test_verify_naimark_pair_names_the_dimensions():
    primary = Frame(ExactMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1]]))
    with pytest.raises(FrameError, match=r"^complement dimension must be 2, got 1$"):
        verify_naimark_pair(primary, Frame(ExactMatrix.from_rows([[1, -1, -1, 1]])))


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
    product S S* is ``raw`` (every row norm 8), or None if it passes; the
    check reads the upper triangle, row i from column i."""
    upper = [r[i:] for i, r in enumerate(raw)]
    monkeypatch.setattr(frames, "_row_product_diagonal", lambda m, weights: ([Fraction(8)] * len(raw), upper))
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


def test_gram_to_hadamard_names_the_needed_dimension_as_an_integer():
    # n - sqrt(n) = s (s - 1) is always even, so the needed d is an integer.
    with pytest.raises(FrameError) as exc:
        gram_to_hadamard(Frame(sylvester(4).body.drop_row(0)))  # the order-16 simplex
    assert str(exc.value) == "need d = (n - sqrt(n)) / 2 = 6, got d = 15"


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


def row_product_certify_etf(frame: Frame):
    """certify_etf as it decided tightness before it read the Gram matrix
    alone: the full row product M M* first, then every squared modulus of G.
    The differential oracle for the Welch route."""
    from etf_forge.matrices import matmul, rational_rows

    d, n, m = frame.d, frame.n, frame.matrix
    g = gram(frame)
    den, values = rational_rows(g)
    norms = set()
    for j in range(n):
        if values[j][j] is None:
            raise FrameError(f"vector {j} has an irrational squared norm")
        norms.add(Fraction(values[j][j], den))
    if len(norms) != 1:
        raise FrameError(f"unequal norms: squared norms {sorted(norms)}")
    beta = norms.pop()
    if beta <= 0:
        raise FrameError("zero vectors are not allowed")

    den, raw = rational_rows(matmul(m, m.adjoint()))
    diag = []
    for i, w in enumerate(frame.row_weights or (1,) * d):
        if raw[i][i] is None:
            raise FrameError(f"row {i} has an irrational squared norm")
        diag.append(w * Fraction(raw[i][i], den))
    alphas = set(diag)
    if len(alphas) != 1:
        raise FrameError(f"not tight: row squared norms {sorted(alphas)}")
    alpha = alphas.pop()
    for i in range(d):
        for j in range(d):
            if i != j and raw[i][j] != 0:
                raise FrameError(f"not tight: rows {i} and {j} are not orthogonal")
    if alpha != Fraction(n) * beta / d:
        raise FrameError(f"not tight: scale {alpha} differs from n beta / d")

    den, sq = rational_rows(g, squared=True)
    gamma = sq[0][1] if n > 1 else 0
    for j in range(n):
        for j2 in range(j + 1, n):
            s = sq[j][j2]
            if s is None:
                raise FrameError(f"not equiangular: |<v{j}, v{j2}>|^2 is irrational")
            if s != gamma:
                moduli = sorted({Fraction(gamma, den), Fraction(s, den)})
                raise FrameError(f"not equiangular: squared moduli {moduli} at ({j}, {j2})")
    gamma_sq = Fraction(gamma, den)
    if n > 1 and gamma_sq * d * (n - 1) != beta * beta * (n - d):
        raise FrameError(
            f"coherence equality violated: gamma^2 = {gamma_sq}, "
            f"bound requires {beta * beta * welch_bound_sq(d, n)}"
        )
    den, sq = rational_rows(m, squared=True)
    flat = all(Fraction(den) / w == x for row, w in zip(sq, frame.row_weights or (1,) * d) for x in row)
    return frames.EtfCertificate(d, n, beta, alpha, gamma_sq, True, flat, frame.domain)


def _verdicts(frame: Frame):
    """(certify_etf, oracle) outcomes, each a certificate or a failure
    message, on fresh copies of the frame, which hold no cached certificate."""
    out = []
    for certify in (certify_etf, row_product_certify_etf):
        try:
            out.append(certify(Frame(frame.matrix, frame.row_weights)))
        except FrameError as exc:
            out.append(str(exc))
    return out


@pytest.fixture(scope="module")
def workload_frames() -> dict[str, Frame]:
    """Every frame the benchmark workloads build, weighted complements included."""
    from etf_forge.constructions import kirkman_etf, standard_kirkman_inputs
    from etf_forge.qsd_bridge import etf_from_qsd, qsd_from_flat_etf
    from etf_forge.recipes import recipe, replay

    lines = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(1, 16) if a < b})
    sts = {"sts15": lines, "sts15_complement": [sorted(set(range(1, 16)) - set(line)) for line in lines]}
    recipes = {
        "simplex13": recipe("simplex", hadamard={"generator": "dft", "n": 13}),
        "harmonic4x4": recipe("harmonic", group=[4, 4], subset=[1, 2, 3, 4, 8, 12]),
        "harmonic13": recipe("harmonic", group=[13], subset=[0, 1, 3, 9]),
        "harmonic31": recipe("harmonic", group=[31], subset=[1, 5, 11, 24, 25, 27]),
        "steiner8": recipe("steiner", design={"generator": "all-pairs", "v": 8}, f={"generator": "sylvester", "e": 1},
                           g={"generator": "dft", "n": 8}, column=1),
        **{f"{name}_{branch}": recipe("qsd-to-etf", design={"generator": "blocks", "v": 15, "blocks": blocks},
                                      branch=branch)
           for name, blocks in sts.items() for branch in ("plus", "minus")},
    }
    out = {}
    for name, rec in recipes.items():
        out.update((f"{name}/{role}", frame) for role, frame in replay(rec).frames().items())
    for u in (4, 12):
        pair = kirkman_etf(standard_kirkman_inputs(u))
        out[f"kirkman{u}/primary"], out[f"kirkman{u}/complement"] = pair.primary, pair.complement
    for role in ("primary", "complement"):
        qsd = qsd_from_flat_etf(out[f"kirkman4/{role}"]).certificate
        out[f"kirkman4_{role}_qsd_minus/primary"] = etf_from_qsd(qsd, "minus")[0]
    return out


def test_welch_route_matches_the_row_product_on_the_workload_frames(workload_frames):
    assert any(f.is_weighted() for f in workload_frames.values())
    for name, frame in workload_frames.items():
        new, old = _verdicts(frame)
        assert isinstance(new, frames.EtfCertificate) and new == old, name


def _welch_cases() -> dict[str, Frame]:
    """Named frames off the success path of certify_etf, and edge shapes."""
    from etf_forge.constructions import steiner_naimark
    from etf_forge.designs import all_pairs_design, lift_permutation
    from etf_forge.constructions import SteinerInputs
    from etf_forge.hadamard import dft
    from etf_forge.matrices import cyclo_domain

    r2, q2 = QuadElem(2, 0, 1), quad_domain(2)
    h8 = [list(r) for r in sylvester(3).body.planes[0]]
    weighted = steiner_naimark(SteinerInputs(lift_permutation(all_pairs_design(4)), sylvester(1), sylvester(2))).complement
    off = [list(r) for r in weighted.matrix.planes[0]]
    off[0][0] = -off[0][0]
    return {
        # tight, not equiangular
        "sylvester_rows_1_2_3": Frame(ExactMatrix.from_rows(h8[1:4])),
        "two_orthogonal_pairs": Frame(ExactMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])),
        "dft8_rows_0_1": Frame(dft(8).body.take_rows([0, 1])),
        # equiangular, not tight
        "triangle_of_pairs": Frame(ExactMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])),
        "repeated_row": Frame(ExactMatrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])),
        # equal norms, neither
        "row_norms_4_2_2": Frame(ExactMatrix.from_rows([[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]])),
        "signs_3x5": Frame(ExactMatrix.from_rows([[1, 1, 1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, -1, -1]])),
        "perturbed_flat_6x16": Frame(ExactMatrix.from_rows(perturbed(FLAT_6x16, 3, 5, -FLAT_6x16[3][5]))),
        # weighted Steiner complements, one an ETF and the others perturbed
        "steiner4_weighted_complement": weighted,
        "steiner4_weighted_complement_flipped": Frame(ExactMatrix.from_rows(off), weighted.row_weights),
        "steiner_6x16_weighted_complement": steiner_complement(),
        "steiner_6x16_weighted_complement_skew": steiner_complement(perturbed(STEINER_COMPLEMENT_6x16, 0, 0, -1)),
        # equal rational column norms 6, off-diagonal 6, irrational row norm 2 (3 + 2 sqrt 2)
        "irrational_row_norm": Frame(ExactMatrix.from_rows([[QuadElem(2, 1, 1)] * 2, [QuadElem(2, 1, -1)] * 2], q2)),
        "irrational_gamma": Frame(ExactMatrix.from_rows([[1, 1, r2 * Fraction(1, 2) + Fraction(1, 2)], [1, -1, 0]], q2)),
        "order_8_unequal_angles": Frame(ExactMatrix.from_rows([[1, 1, 1], [1, 0, -1]]).with_domain(cyclo_domain(8))),
        # edge shapes
        "d_equals_n_orthogonal": Frame(ExactMatrix.from_rows(h8[:8])),
        "d_equals_n_not_tight": Frame(ExactMatrix.from_rows([[1, 1], [0, 1]])),
        "n_2_d_1": Frame(ExactMatrix.from_rows([[1, -1]])),
        "n_2_d_2": Frame(ExactMatrix.from_rows([[1, 1], [1, -1]])),
        "d_1": Frame(ExactMatrix.from_rows([[1, -1, 1, 1, -1]])),
        "d_1_fractions": Frame(ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)]])),
        "n_1": Frame(ExactMatrix.from_rows([[3]])),
        "zero_vector": Frame(ExactMatrix.from_rows([[0, 0], [0, 0]])),
    }


@pytest.mark.parametrize("name", sorted(_welch_cases()))
def test_welch_route_matches_the_row_product(name):
    new, old = _verdicts(_welch_cases()[name])
    assert new == old


def test_welch_route_covers_every_failure_kind():
    verdicts = [_verdicts(frame)[0] for frame in _welch_cases().values()]
    messages = " ".join(v for v in verdicts if isinstance(v, str))
    for kind in ("not tight: row squared norms", "are not orthogonal", "not equiangular: squared moduli",
                 "is irrational", "row 0 has an irrational squared norm", "zero vectors"):
        assert kind in messages, kind
    assert any(isinstance(v, frames.EtfCertificate) for v in verdicts)


def test_welch_route_matches_the_row_product_on_seeded_frames():
    # +-1 frames have equal norms d, and {-1, 0, 1} frames with one column
    # weight equal norms too, so most cases reach the angles; row subsets of
    # a Sylvester matrix are tight, and sign flips of an ETF stay one.
    rng = random.Random(13)
    h8 = [list(r) for r in sylvester(3).body.planes[0]]
    kinds = {}
    for case in range(200):
        kind = case % 4
        n = rng.randrange(2, 9)
        d = rng.randrange(1, n + 1)
        if kind == 0:
            rows = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(d)]
        elif kind == 1:
            weight = rng.randrange(1, d + 1)
            cols = [[rng.choice((-1, 1)) if i in rng.sample(range(d), weight) else 0 for i in range(d)] for _ in range(n)]
            rows = [list(r) for r in zip(*cols)]
        elif kind == 2:
            n, d = 8, rng.randrange(1, 9)
            rows = [[x * s for x, s in zip(h8[i], [rng.choice((-1, 1)) for _ in range(8)])] for i in rng.sample(range(8), d)]
        else:
            base = rng.choice((FLAT_6x16, SIMPLEX_3x4, STEINER_6x16))
            signs = [rng.choice((-1, 1)) for _ in base[0]]
            rows = [[x * s for x, s in zip(r, signs)] for r in base]
            if rng.random() < 0.5:
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
                rows[i][j] = rng.choice((-1, 0, 1))
        new, old = _verdicts(Frame(ExactMatrix.from_rows(rows)))
        assert new == old, rows
        kinds[new.split(":")[0] if isinstance(new, str) else "etf"] = 1 + kinds.get(
            new.split(":")[0] if isinstance(new, str) else "etf", 0)
    assert {"etf", "not tight", "not equiangular", "unequal norms"} <= kinds.keys(), kinds


def test_certify_etf_of_the_u12_primary_is_one_product(workload_frames, monkeypatch):
    # Tightness follows from the Gram matrix, so the row product of the
    # 276 x 576 primary is never formed: one popcount triangle, the Gram's.
    import etf_forge.matrices as matrices

    products = []
    for name in ("_int_matmul", "_row_packed_matmul"):
        kernel = getattr(matrices, name)
        monkeypatch.setattr(matrices, name, lambda *args, _k=kernel, _n=name: products.append((_n, len(args[0]))) or _k(*args))
    cert = certify_etf(Frame(workload_frames["kirkman12/primary"].matrix))
    assert (cert.d, cert.n, cert.flat) == (276, 576, True)
    assert products == [("_int_matmul", 576)]


def test_certify_etf_settles_the_angles_of_an_etf_without_the_squared_scan(monkeypatch):
    # One squared modulus over the pairs (j, j + 1) already decides every
    # angle of an ETF; the per-entry squared scan only names a failing pair.
    from etf_forge.constructions import harmonic_etf, kirkman_etf, standard_kirkman_inputs, verify_difference_set
    from etf_forge.hadamard import AbelianGroup

    harmonic = harmonic_etf(verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15))).primary
    kirkman = kirkman_etf(standard_kirkman_inputs(2)).primary
    calls = []
    rational_rows = frames.rational_rows
    monkeypatch.setattr(frames, "rational_rows", lambda m, squared=False: calls.append(squared) or rational_rows(m, squared))
    for frame in (harmonic, kirkman):
        cert = certify_etf(Frame(frame.matrix))
        assert cert.flat and (cert.d, cert.n) == (frame.d, frame.n)
    assert calls and True not in calls


def test_certified_frames_hold_no_matrix_but_their_own(workload_frames):
    # A frame caches only its certificate: the Gram matrix that certify_etf
    # reads and the stacked row product of the pair check die with the call.
    for name in ("kirkman12", "steiner8"):
        primary, complement = (Frame(workload_frames[f"{name}/{role}"].matrix, workload_frames[f"{name}/{role}"].row_weights)
                               for role in ("primary", "complement"))
        certify_etf(primary)
        verify_naimark_pair(primary, complement)
        for frame in (primary, complement):
            assert frame._certificate is not None, name
            assert [f for f, value in vars(frame).items() if isinstance(value, ExactMatrix)] == ["matrix"], name
            assert not any(isinstance(value, ExactMatrix) for value in vars(frame._certificate).values()), name
