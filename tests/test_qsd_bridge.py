import functools
import random
from fractions import Fraction

import pytest

from etf_forge.constructions import kirkman_etf, standard_kirkman_inputs
from etf_forge.designs import (
    Design,
    DesignParams,
    QsdCertificate,
    all_pairs_design,
    complement_design,
    verify_qsd,
)
from etf_forge.errors import DesignError, FrameError
from etf_forge.frames import Frame, certify_etf
from etf_forge.hadamard import AbelianGroup, char_table, dft, sylvester
from etf_forge.matrices import RATIONAL, ExactMatrix, quad_domain
from etf_forge.qsd_bridge import (
    _flat_qsd_params,
    canonical_sign,
    etf_from_qsd,
    flat_family_qsd_params,
    flat_feasibility,
    gerzon_bounds,
    qsd_frame_scalars,
    qsd_from_flat_etf,
    qsd_gives_etf,
    qsd_params_from_rbibd,
)
from etf_forge.scalars import CycloElem, QuadElem, rational_sqrt

from test_frames import SIMPLEX_3x4


def qsd_6() -> QsdCertificate:
    return verify_qsd(all_pairs_design(6))


def test_scalars_flat_branch():
    cert = qsd_6()
    w, delta, eps = qsd_frame_scalars(cert.params, cert.x, cert.y, "plus")
    assert w == 2
    assert delta == QuadElem.from_rational(1)
    assert eps == QuadElem.from_rational(-2)


def test_scalars_minus_branch():
    cert = qsd_6()
    w, delta, eps = qsd_frame_scalars(cert.params, cert.x, cert.y, "minus")
    assert (delta, eps) == (QuadElem.from_rational(Fraction(-1, 3)), QuadElem.from_rational(2))


def test_scalars_nonflat_family():
    # The triple-system parameters give irrational scalars (1 +/- sqrt(6))/5.
    params = DesignParams(15, 3, 1, 7, 35)
    w, delta, eps = qsd_frame_scalars(params, 0, 1, "plus")
    assert w == 3
    assert delta == QuadElem(6, Fraction(1, 5), Fraction(1, 5))
    assert eps == QuadElem(6, 0, -1)
    _, delta_m, eps_m = qsd_frame_scalars(params, 0, 1, "minus")
    assert delta_m == QuadElem(6, Fraction(1, 5), Fraction(-1, 5))
    assert eps_m == QuadElem(6, 0, 1)


def test_scalars_reject_tampered_y():
    cert = qsd_6()
    with pytest.raises(FrameError, match="y"):
        qsd_frame_scalars(cert.params, cert.x, cert.y + 1, "plus")


def test_etf_from_qsd_flat_case():
    cert = qsd_6()
    frame, link = etf_from_qsd(cert, "plus")
    c = certify_etf(frame)
    assert (c.d, c.n) == (6, 16)
    assert c.flat
    assert link.flat_branch
    # The frame is literally [1 | J - 2 X^T].
    x = cert.design.incidence.int_rows()
    rows = frame.matrix.int_rows()
    for i in range(6):
        assert rows[i][0] == 1
        for j in range(15):
            assert rows[i][1 + j] == 1 - 2 * x[j][i]


def test_etf_from_qsd_two_branches_same_certificate():
    cert = qsd_6()
    f_plus, _ = etf_from_qsd(cert, "plus")
    f_minus, _ = etf_from_qsd(cert, "minus")
    c_plus, c_minus = certify_etf(f_plus), certify_etf(f_minus)
    assert (c_plus.d, c_plus.n) == (c_minus.d, c_minus.n)
    assert c_plus.gamma_sq / c_plus.beta**2 == c_minus.gamma_sq / c_minus.beta**2


def test_etf_from_qsd_quadratic_domain():
    # The complement design has rational scalars too; exercise an irrational
    # case through the 10-vertex complement of a 5-vertex pair design? That
    # one is not quasi-symmetric with frame laws, so use the (16, 6, 2, ...)
    # family only at the scalar level (done above) and check the rational
    # complement here.
    comp = verify_qsd(complement_design(all_pairs_design(6)))
    frame, link = etf_from_qsd(comp, "plus")
    c = certify_etf(frame)
    assert (c.d, c.n) == (6, 16)


def test_etf_from_qsd_rejects_parameter_level():
    cert = QsdCertificate.from_params(15, 3, 1, 7, 35, 0, 1)
    with pytest.raises(FrameError, match="parameter-level"):
        etf_from_qsd(cert, "plus")


def test_canonical_sign_simplex():
    signed, row_signs, col_signs = canonical_sign(ExactMatrix.from_rows(SIMPLEX_3x4))
    assert signed == ExactMatrix.from_rows([[1, 1, -1, 1], [1, -1, 1, 1], [1, 1, 1, -1]])
    assert row_signs == (1, 1, 1)
    assert col_signs == (1, -1, -1, -1)


def test_canonical_sign_idempotent():
    signed, _, _ = canonical_sign(ExactMatrix.from_rows(SIMPLEX_3x4))
    again, row_signs, col_signs = canonical_sign(signed)
    assert again == signed
    assert set(row_signs) == {1} and set(col_signs) == {1}


def test_canonical_sign_preserves_certificate():
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    signed, _, _ = canonical_sign(pair.primary.matrix)
    cert = certify_etf(Frame(signed))
    assert (cert.d, cert.n) == (6, 16) and cert.flat


def test_qsd_from_flat_etf_kirkman_primary():
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    extraction = qsd_from_flat_etf(pair.primary)
    assert extraction.certificate.as_tuple() == (6, 2, 1, 5, 15, 0, 1)
    assert extraction.w == 2


def test_qsd_from_flat_etf_kirkman_complement():
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    extraction = qsd_from_flat_etf(pair.complement)
    assert extraction.certificate.as_tuple() == (10, 4, 2, 6, 15, 1, 2)
    assert extraction.w == 2


def test_qsd_from_flat_etf_rejects_simplex():
    with pytest.raises(FrameError, match="n = d \\+ 1"):
        qsd_from_flat_etf(Frame(ExactMatrix.from_rows(SIMPLEX_3x4)))


def test_round_trip_flat_etf():
    # flat frame -> design -> frame reproduces the canonical signing exactly.
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    extraction = qsd_from_flat_etf(pair.primary)
    rebuilt, link = etf_from_qsd(extraction.certificate, "plus")
    assert link.flat_branch
    assert rebuilt.matrix == extraction.signed_matrix


def test_round_trip_harmonic():
    from etf_forge.constructions import harmonic_etf, verify_difference_set
    from etf_forge.hadamard import AbelianGroup

    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15))
    pair = harmonic_etf(ds)
    extraction = qsd_from_flat_etf(pair.primary)
    rebuilt, _ = etf_from_qsd(extraction.certificate, "plus")
    assert rebuilt.matrix == extraction.signed_matrix


def test_flat_family_params_u2():
    a, b = flat_family_qsd_params(2)
    assert a == (6, 2, 1, 5, 15, 0, 1)
    assert b == (10, 4, 2, 6, 15, 1, 2)


def test_flat_family_params_u12():
    _, b = flat_family_qsd_params(12)
    assert b == (300, 144, 132, 276, 575, 66, 72)


def test_flat_family_params_reject_odd():
    with pytest.raises(DesignError, match="even"):
        flat_family_qsd_params(3)


def test_flat_family_params_are_consistent():
    for u in (2, 4, 6, 12):
        for tup in flat_family_qsd_params(u):
            v, k, lam, r, b, x, y = tup
            assert b * k == v * r
            assert (v - 1) * lam == r * (k - 1)
            cert = QsdCertificate.from_params(*tup)  # intersection identity
            assert qsd_gives_etf(cert)


def test_rbibd_qsd_params_small():
    tup, w = qsd_params_from_rbibd(4, 2, 3, 6)
    assert tup == (6, 2, 1, 5, 15, 0, 1)
    assert w == 2


def test_rbibd_qsd_params_rejects_nonintegral():
    with pytest.raises(DesignError, match="not an integer"):
        qsd_params_from_rbibd(7, 3, 3, 7)


def test_rbibd_qsd_params_large_instance_is_consistent():
    # The projective-space family instance; every slot integral, and the
    # result satisfies the design laws and the frame laws.
    tup, w = qsd_params_from_rbibd(97656, 6, 19531, 317886556)
    v, k, lam, r, b, x, y = tup
    assert w == 16276
    assert v == 317886556
    assert b == 1907416991
    assert (x, y) == (79459432, 79467570)
    assert b * k == v * r
    assert (v - 1) * lam == r * (k - 1)
    assert k == 2 * y  # forced by k = (v - w)/2, y = (v - w)/4
    assert k * (r - 1) * (x + y - 1) - x * y * (b - 1) == k * (k - 1) * (lam - 1)


# -- the parameter maps against their hand-expanded closed forms ---------
#
# flat_family_qsd_params and qsd_params_from_rbibd both evaluate the flat-ETF
# QSD parameters at one (d, n, w).  The oracles below are the per-family
# formulas they replaced, written out slot by slot.


def oracle_flat_family(u):
    a = (2 * u * u - u, u * u - u, u * u - u - 1, 2 * u * u - u - 1, 4 * u * u - 1, u * (u - 2) // 2, u * (u - 1) // 2)
    b = (2 * u * u + u, u * u, u * u - u, 2 * u * u - u, 4 * u * u - 1, u * (u - 1) // 2, u * u // 2)
    return a, b


def oracle_rbibd(v_hat, k_hat, r_hat, b_hat):
    """The slot formulas for a resolvable design with lam = 1, without the lam = 1 check."""
    if v_hat * r_hat != b_hat * k_hat:
        raise DesignError("need v r = b k for the input design")
    if k_hat < 2:
        raise DesignError("need k >= 2")
    slots = (
        Fraction(b_hat),
        Fraction(v_hat * (r_hat - 1), 2 * k_hat),
        Fraction(v_hat * (r_hat - 1) - 2 * k_hat, 4),
        Fraction((r_hat - 1) * (v_hat + k_hat - 1), 2),
        Fraction(r_hat * (v_hat + k_hat - 1)),
        Fraction(v_hat * (r_hat - 3), 4 * k_hat),
        Fraction(v_hat * (r_hat - 1), 4 * k_hat),
    )
    for name, value in zip("vklrbxy", slots):
        if value.denominator != 1:
            raise DesignError(f"parameter slot {name} = {value} is not an integer")
    return tuple(int(s) for s in slots), v_hat // k_hat


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DesignError as exc:
        return str(exc)


def test_flat_family_params_match_the_hand_expanded_oracle():
    for u in range(2, 201, 2):
        assert flat_family_qsd_params(u) == oracle_flat_family(u), u


def test_rbibd_params_match_the_slot_oracle_on_every_lambda_one_input():
    inputs = [(v, k, (v - 1) // (k - 1), v * (v - 1) // (k - 1) // k)
              for v in range(3, 61) for k in range(2, v)
              if (v - 1) % (k - 1) == 0 and v * ((v - 1) // (k - 1)) % k == 0]
    outcomes = [_outcome(qsd_params_from_rbibd, *args) for args in inputs]
    assert outcomes == [_outcome(oracle_rbibd, *args) for args in inputs]
    assert sum(isinstance(o, tuple) for o in outcomes) >= 10  # both tuples and messages are compared
    assert sum(isinstance(o, str) for o in outcomes) >= 10


def test_rbibd_params_refuse_designs_that_are_not_resolvable_steiner_systems():
    # K4's one-factorization taken three times (lam = 3): the slot formulas
    # return a tuple that breaks (v - 1) lam = r (k - 1), 119 against 140.
    assert oracle_rbibd(4, 2, 9, 18) == ((18, 8, 7, 20, 45, 3, 4), 2)
    for args in ((4, 2, 9, 18), (6, 3, 5, 10)):
        with pytest.raises(DesignError, match=r"^need r \(k - 1\) = v - 1 \(lam = 1\) for the input design$"):
            qsd_params_from_rbibd(*args)
    for args in ((3, 3, 1, 1), (2, 2, 1, 1)):  # lam = 1, but one block holds every point
        with pytest.raises(DesignError, match="^need k < v for the input design$"):
            qsd_params_from_rbibd(*args)


def test_feasibility_pass_cases():
    for d, n in ((6, 16), (66, 144), (78, 144), (28, 64), (276, 576)):
        report = flat_feasibility(d, n)
        assert report.verdict, (d, n)


def test_feasibility_known_values():
    r = flat_feasibility(6, 16)
    assert (r.q1.value, r.q2.value, r.w.value) == (3, 5, 2)
    r = flat_feasibility(66, 144)
    assert (r.q1.value, r.q2.value, r.w.value) == (11, 13, 6)
    r = flat_feasibility(276, 576)
    assert (r.q1.value, r.q2.value, r.w.value) == (23, 25, 12)


def test_feasibility_fail_15_36():
    report = flat_feasibility(15, 36)
    assert not report.verdict
    assert report.q1.value == 5 and report.q1.odd
    assert report.q2.value == 7 and report.q2.odd
    assert report.w.value == 3 and report.w.odd  # must be even, so this fails
    assert report.n_mod_16 == 4


def test_feasibility_range_guard():
    with pytest.raises(FrameError):
        flat_feasibility(6, 7)


def test_gerzon_complex_equality_family():
    for q in (2, 3, 4):
        d, n = q + 1, q * q + q + 1
        report = gerzon_bounds(d, n, "complex", "flat")
        assert report.passed
        assert n == report.upper_bound


def test_gerzon_real_cases():
    report = gerzon_bounds(6, 16, "real", "flat")
    assert report.passed and report.upper_bound == 16
    report = gerzon_bounds(6, 16, "real", "hadamard")
    assert report.passed
    report = gerzon_bounds(2, 10, "complex", "flat")
    assert not report.passed and report.violated == "upper"


def test_qsd_gives_etf_cases():
    assert qsd_gives_etf(qsd_6())
    assert qsd_gives_etf(verify_qsd(complement_design(all_pairs_design(6))))
    assert not qsd_gives_etf(verify_qsd(all_pairs_design(5)))
    assert qsd_gives_etf(QsdCertificate.from_params(15, 3, 1, 7, 35, 0, 1))


def test_qsd_gives_etf_agrees_with_graph_test():
    # Exercised internally by qsd_gives_etf, which raises on disagreement.
    for v in (5, 6, 7, 8):
        qsd_gives_etf(verify_qsd(all_pairs_design(v)))


def constructed_flat_frames():
    from etf_forge.constructions import harmonic_etf, tensor_etf, verify_difference_set
    from etf_forge.frames import verify_naimark_pair
    from etf_forge.hadamard import AbelianGroup
    from etf_forge.matrices import ExactMatrix as EM

    kirkman = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    harmonic = harmonic_etf(
        verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15))
    )
    base = verify_naimark_pair(Frame(EM.ones(1, 4)), Frame(EM.from_rows(SIMPLEX_3x4)))
    tensor16 = tensor_etf(base, base)
    tensor256 = tensor_etf(tensor16, tensor16)
    return [
        kirkman.primary, kirkman.complement,
        harmonic.primary, harmonic.complement,
        tensor16.primary, tensor16.complement,
        tensor256.primary,
    ]


def test_round_trip_every_constructed_flat_frame_up_to_256():
    for frame in constructed_flat_frames():
        extraction = qsd_from_flat_etf(frame)
        rebuilt, link = etf_from_qsd(extraction.certificate, "plus")
        assert link.flat_branch
        assert rebuilt.matrix == extraction.signed_matrix


def test_feasibility_sound_on_constructed_flat_frames():
    for frame in constructed_flat_frames():
        cert = certify_etf(frame)
        assert flat_feasibility(cert.d, cert.n).verdict, (cert.d, cert.n)


def test_tensor_256_extraction_parameters():
    frames = constructed_flat_frames()
    extraction = qsd_from_flat_etf(frames[-1])  # the (120, 256) frame
    assert extraction.certificate.as_tuple() == (120, 56, 55, 119, 255, 24, 28)
    assert extraction.w == 8


# The per-entry builder etf_from_qsd replaced: one scalar delta + eps x per
# entry of X^T, lowered by from_entries.  It is the oracle for the plane builder.
def oracle_etf_from_qsd(cert, branch):
    p = cert.params
    _, delta, eps = qsd_frame_scalars(p, cert.x, cert.y, branch)
    t = 1 if (delta.b == 0 and eps.b == 0) else max(delta.t, eps.t)
    domain = RATIONAL if t == 1 else quad_domain(t)
    x = cert.design.incidence.int_rows()
    entries = []
    for i in range(p.v):
        entries.append(1)
        for j in range(p.b):
            value = delta + eps * x[j][i]
            entries.append(value if t > 1 else value.rational_value())
    return Frame(ExactMatrix.from_entries(domain, p.v, p.b + 1, entries))


@functools.lru_cache(maxsize=None)
def oracle_qsds():
    """name -> QSD certificate: STS(15) = the lines of PG(3, 2), its complement,
    and the QSDs under the u = 2 and u = 4 Kirkman flat pairs."""
    points = range(1, 16)
    lines = sorted({tuple(sorted((a - 1, b - 1, (a ^ b) - 1))) for a in points for b in points if a < b})
    out = {"sts15": verify_qsd(Design(15, lines)),
           "sts15-complement": verify_qsd(Design(15, [sorted(set(range(15)) - set(line)) for line in lines]))}
    for u in (2, 4):
        pair = kirkman_etf(standard_kirkman_inputs(u))
        for role, frame in (("primary", pair.primary), ("complement", pair.complement)):
            out[f"kirkman{u}-{role}"] = qsd_from_flat_etf(frame).certificate
    return out


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("name", ["sts15", "sts15-complement", "kirkman2-primary", "kirkman2-complement",
                                  "kirkman4-primary", "kirkman4-complement"])
def test_etf_from_qsd_planes_match_the_per_entry_oracle(name, branch):
    cert = oracle_qsds()[name]
    frame, link = etf_from_qsd(cert, branch)
    oracle = oracle_etf_from_qsd(cert, branch)
    m, o = frame.matrix, oracle.matrix
    assert (m.domain, m.den, m.planes) == (o.domain, o.den, o.planes)
    assert certify_etf(frame) == certify_etf(oracle)
    if name.startswith("sts15"):
        assert m.domain == quad_domain(6)
    if (name, branch) == ("kirkman2-primary", "minus"):
        assert m.den == 3  # delta = -1/3
    if branch == "plus" and name.startswith("kirkman"):
        assert link.flat_branch and m.int_rows() is not None


def test_constructions_build_a_bounded_number_of_scalars(monkeypatch):
    # Each construction writes its planes; scalar objects appear only as its
    # parameters, so their count must not grow with the size of the output.
    # A scalar is built by its class's constructor or by scalars.element,
    # which skips __init__; both are counted, in every module that holds them.
    import sys

    from etf_forge import scalars

    cert = oracle_qsds()["kirkman4-complement"]
    counts = []
    for cls in (CycloElem, QuadElem):
        def counting_init(self, *args, _init=cls.__init__):
            counts.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)
    element = scalars.element

    def counting_element(domain, den, slots):
        counts.append(domain.kind)
        return element(domain, den, slots)

    for name, module in list(sys.modules.items()):
        if name.startswith("etf_forge") and getattr(module, "element", None) is element:
            monkeypatch.setattr(module, "element", counting_element)
    table = dft(7).body
    counts.clear()
    table.row(1)  # the counter sees the scalars matrices build: one per entry
    assert len(counts) == 7
    for build in (lambda: dft(31), lambda: char_table(AbelianGroup((4, 4))),
                  lambda: etf_from_qsd(cert, "plus"), lambda: etf_from_qsd(cert, "minus")):
        counts.clear()
        build()
        assert len(counts) <= 16


# The per-entry signing and extraction the row-level ones replaced: every
# entry is tested, multiplied and read on its own.  They are the oracles for
# canonical_sign and qsd_from_flat_etf.
def per_entry_sign(m):
    rows = m.int_rows()
    if rows is None or any(x not in (1, -1) for r in rows for x in r):
        raise FrameError("canonical signing applies to +/-1 matrices only")
    row_signs = tuple(r[0] for r in rows)
    rows = [[s * x for x in r] for s, r in zip(row_signs, rows)]
    col_signs = tuple(-1 if sum(r[j] for r in rows) < 0 else 1 for j in range(m.cols))
    return [[s * x for s, x in zip(col_signs, r)] for r in rows], row_signs, col_signs


def per_entry_extraction(frame):
    signed, _, _ = per_entry_sign(frame.matrix)
    v, b = frame.matrix.rows, frame.matrix.cols - 1
    incidence = [[(1 - signed[i][1 + j]) // 2 for i in range(v)] for j in range(b)]
    blocks = [tuple(i for i in range(v) if row[i] == 1) for row in incidence]
    return signed, blocks


def sign_verdict(sign, m):
    try:
        signed, row_signs, col_signs = sign(m)
    except FrameError as exc:
        return ("refused", str(exc))
    rows = signed if isinstance(signed, list) else signed.int_rows()
    return ("ok", rows, row_signs, col_signs)


@pytest.mark.parametrize("seed", range(4))
def test_canonical_sign_matches_the_per_entry_oracle(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(8):
        d, n = rng.randint(1, 8), rng.randint(1, 12)
        rows = [[rng.choice((1, -1)) for _ in range(n)] for _ in range(d)]
        cases.append(rows)
        i, j = rng.randrange(d), rng.randrange(n)
        for value in (0, 2, -2, Fraction(1, 2)):
            cases.append([r if h != i else r[:j] + [value] + r[j + 1:] for h, r in enumerate(rows)])
    cases.append([list(r) for r in kirkman_etf(standard_kirkman_inputs(2)).primary.matrix.int_rows()])
    verdicts = [(sign_verdict(canonical_sign, m), sign_verdict(per_entry_sign, m))
                for m in map(ExactMatrix.from_rows, cases)]
    assert all(ours == oracle for ours, oracle in verdicts)
    assert {ours[0] for ours, _ in verdicts} == {"ok", "refused"}


@functools.lru_cache(maxsize=None)
def extraction_frames():
    """Every real flat frame of the corpus: the Kirkman pairs at u = 2, 4 and
    8, the +/-1 (6, 16) harmonic pair and the (6, 16) tensor pair."""
    from etf_forge.constructions import harmonic_etf, tensor_etf, verify_difference_set
    from etf_forge.frames import verify_naimark_pair

    out = {}
    for u in (2, 4, 8):
        pair = kirkman_etf(standard_kirkman_inputs(u))
        out[f"kirkman{u}-primary"], out[f"kirkman{u}-complement"] = pair.primary, pair.complement
    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15))
    pair = harmonic_etf(ds)
    out["harmonic16-primary"], out["harmonic16-complement"] = pair.primary, pair.complement
    base = verify_naimark_pair(Frame(ExactMatrix.ones(1, 4)), Frame(ExactMatrix.from_rows(SIMPLEX_3x4)))
    pair = tensor_etf(base, base)
    out["tensor16-primary"], out["tensor16-complement"] = pair.primary, pair.complement
    return out


@pytest.mark.parametrize("name", ["kirkman2-primary", "kirkman2-complement", "kirkman4-primary",
                                  "kirkman4-complement", "harmonic16-primary"])
def test_qsd_from_flat_etf_matches_the_per_entry_oracle(name):
    frame = extraction_frames()[name]
    extraction = qsd_from_flat_etf(frame)
    signed, blocks = per_entry_extraction(frame)
    oracle = Design(frame.matrix.rows, blocks)
    assert extraction.signed_matrix.int_rows() == signed
    assert extraction.signed_matrix.planes == [signed] and extraction.signed_matrix.den == 1
    assert extraction.design.blocks == oracle.blocks
    assert extraction.design.params == oracle.params
    assert extraction.certificate.as_tuple() == verify_qsd(oracle).as_tuple()
    if name == "harmonic16-primary":
        assert set().union(*frame.matrix.int_rows()) == {1, -1}


@pytest.mark.parametrize("name", [f"{family}-{role}" for family in ("kirkman2", "kirkman4", "kirkman8", "harmonic16",
                                                                    "tensor16") for role in ("primary", "complement")])
def test_qsd_from_flat_etf_matches_verify_qsd_and_the_closed_forms(name):
    # The extraction reads w, k, x and y off the frame certificate; the
    # standalone scan of X X^T and the closed forms are its oracles.
    frame = extraction_frames()[name]
    extraction = qsd_from_flat_etf(frame)
    assert extraction.certificate.as_tuple() == verify_qsd(extraction.design).as_tuple()
    cert = certify_etf(frame)
    w = rational_sqrt(Fraction(cert.d * (cert.n - cert.d), cert.n - 1))
    v, k, lam, r, b, x, y = _flat_qsd_params(cert.d, cert.n, w)
    assert (extraction.w, extraction.k, extraction.x, extraction.y) == (w, k, x, y)
    assert extraction.certificate.as_tuple() == (v, k, lam, r, b, x, y)


def test_the_bridge_forms_only_the_products_its_identities_need(monkeypatch):
    # The extraction takes two popcount triangles, certify_etf's Gram (n rows)
    # and verify_bibd's X^T X (v rows); building the frame back takes only
    # the Gram.  No row-packed product is formed either way.
    import etf_forge.matrices as matrices

    triangles, packed = [], []
    triangle, row_packed = matrices._int_matmul, matrices._row_packed_matmul
    monkeypatch.setattr(matrices, "_int_matmul", lambda a: triangles.append(len(a)) or triangle(a))
    monkeypatch.setattr(matrices, "_row_packed_matmul", lambda a, b: packed.append(a.rows) or row_packed(a, b))
    frame = Frame(extraction_frames()["kirkman4-primary"].matrix)  # no cached certificate
    extraction = qsd_from_flat_etf(frame)
    assert (triangles, packed) == ([64, 28], [])
    triangles.clear()
    etf_from_qsd(extraction.certificate, "plus")
    assert (triangles, packed) == ([64], [])
