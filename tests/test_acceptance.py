"""Acceptance suite: every criterion is exercised at zero tolerance and
prints one PASS line (a failed assertion aborts the test, so a printed line
always means the criterion held).  Run with `pytest -s tests/test_acceptance.py`
to see the lines.
"""

import json
import time
from fractions import Fraction

import pytest

from etf_forge.constructions import (
    SteinerInputs,
    harmonic_etf,
    kirkman_etf,
    standard_kirkman_inputs,
    steiner_etf,
    steiner_naimark,
    tensor_etf,
    verify_difference_set,
)
from etf_forge.designs import (
    Design,
    QsdCertificate,
    all_pairs_design,
    design_from_obj,
    design_to_obj,
    etf_params_from_srg,
    lift_permutation,
    srg_params_from_qsd,
    verify_qsd,
    verify_srg,
)
from etf_forge.frames import (
    Frame,
    certify_etf,
    certify_hadamard_etf,
    gram,
    verify_naimark_pair,
    welch_bound_sq,
)
from etf_forge.hadamard import AbelianGroup, dft, paley_one, sylvester
from etf_forge.matrices import ExactMatrix, matmul, scaled_identity, vstack
from etf_forge.qsd_bridge import (
    etf_from_qsd,
    flat_feasibility,
    gerzon_bounds,
    qsd_from_flat_etf,
    qsd_params_from_rbibd,
)
from etf_forge.serialize import (
    canonical_json,
    matrix_from_obj,
    matrix_to_obj,
)

from test_designs import INCIDENCE_6x4, LIFT_12x12_ONE_POSITIONS
from test_frames import FLAT_6x16, SIMPLEX_3x4, STEINER_6x16, STEINER_COMPLEMENT_6x16
from test_constructions import TENSOR_6x16


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")


def golden_design() -> Design:
    return Design.from_incidence(
        ExactMatrix.from_rows(INCIDENCE_6x4), parallel_classes=[(0, 1), (2, 3), (4, 5)]
    )


def test_criterion_1_golden_matrices():
    started = time.monotonic()
    lift = lift_permutation(golden_design())
    expected = [[0] * 12 for _ in range(12)]
    for row, col in enumerate(LIFT_12x12_ONE_POSITIONS):
        expected[row][col] = 1
    assert lift.matrix() == ExactMatrix.from_rows(expected)

    inputs = SteinerInputs(lift, sylvester(1), sylvester(2), 1)
    assert steiner_etf(inputs).matrix == ExactMatrix.from_rows(STEINER_6x16)
    inputs2 = SteinerInputs(lift, sylvester(1), sylvester(2), 2)
    assert steiner_etf(inputs2).matrix == ExactMatrix.from_rows(STEINER_COMPLEMENT_6x16)

    ones = Frame(ExactMatrix.ones(1, 4))
    simplex = Frame(ExactMatrix.from_rows(SIMPLEX_3x4))
    base = verify_naimark_pair(ones, simplex)
    assert tensor_etf(base, base).primary.matrix == ExactMatrix.from_rows(TENSOR_6x16)
    report(1, "golden matrices", started, 1.0)


def test_criterion_2_welch_equality_certification():
    started = time.monotonic()
    cases = (
        (FLAT_6x16, 6, 16, Fraction(6), Fraction(4)),
        (SIMPLEX_3x4, 3, 4, Fraction(3), Fraction(1)),
        (STEINER_6x16, 6, 16, Fraction(3), Fraction(1)),
    )
    for rows, d, n, beta, gamma_sq in cases:
        cert = certify_etf(Frame(ExactMatrix.from_rows(rows)))
        assert (cert.d, cert.n, cert.beta, cert.gamma_sq) == (d, n, beta, gamma_sq)
        assert cert.welch_equality
        assert cert.gamma_sq * cert.d * (cert.n - 1) == cert.beta**2 * (cert.n - cert.d)
        assert cert.gamma_sq / cert.beta**2 == welch_bound_sq(d, n)
    assert certify_etf(Frame(ExactMatrix.from_rows(FLAT_6x16))).gamma_sq / 36 == Fraction(1, 9)
    report(2, "coherence equality certification", started, 1.0)


@pytest.mark.parametrize("u,e_builder", [(2, lambda: sylvester(1)), (4, lambda: sylvester(2)), (12, lambda: paley_one(11))])
def test_criterion_3_kirkman_hadamard_family(u, e_builder):
    started = time.monotonic()
    n = 4 * u * u
    pair = kirkman_etf(standard_kirkman_inputs(u, e=e_builder()))
    cert_p = certify_etf(pair.primary)
    cert_c = certify_etf(pair.complement)
    assert (cert_p.d, cert_p.n) == (u * (2 * u - 1), n)
    assert (cert_c.d, cert_c.n) == (u * (2 * u + 1), n)
    assert cert_p.flat and cert_c.flat
    stacked = vstack(pair.primary.matrix, pair.complement.matrix)
    assert matmul(stacked, stacked.transpose()) == scaled_identity(n, n)
    assert certify_hadamard_etf(pair).n == n
    report(3, f"flat pair family u={u} (n={n})", started, 60.0)


def test_criterion_4_qsd_round_trip():
    started = time.monotonic()
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    extraction = qsd_from_flat_etf(pair.primary)
    assert extraction.certificate.as_tuple() == (6, 2, 1, 5, 15, 0, 1)
    comp_extraction = qsd_from_flat_etf(pair.complement)
    assert comp_extraction.certificate.as_tuple() == (10, 4, 2, 6, 15, 1, 2)

    rebuilt, link = etf_from_qsd(extraction.certificate, "plus")
    assert link.delta == 1 and link.eps == -2
    assert rebuilt.matrix == extraction.signed_matrix
    report(4, "design bridge round trip", started, 1.0)


def test_criterion_5_srg_chain():
    started = time.monotonic()
    cert = verify_qsd(all_pairs_design(6))
    srg = srg_params_from_qsd(cert)
    assert srg.as_tuple() == (15, 8, 4, 4)
    assert verify_srg(cert.block_graph).as_tuple() == (15, 8, 4, 4)
    assert etf_params_from_srg(srg) == (6, 16)

    params_level = QsdCertificate.from_params(15, 3, 1, 7, 35, 0, 1)
    srg2 = srg_params_from_qsd(params_level)
    assert srg2.as_tuple() == (35, 18, 9, 9)
    assert etf_params_from_srg(srg2) == (15, 36)
    report(5, "block-graph parameter chain", started, 1.0)


def test_criterion_6_feasibility_and_bounds():
    started = time.monotonic()
    failing = flat_feasibility(15, 36)
    assert not failing.verdict
    assert failing.w.value == 3 and failing.w.odd
    assert failing.n_mod_16 != 0
    for d, n in ((6, 16), (66, 144), (78, 144), (28, 64), (276, 576)):
        assert flat_feasibility(d, n).verdict, (d, n)

    for q in (2, 3, 4):
        r = gerzon_bounds(q + 1, q * q + q + 1, "complex", "flat")
        assert r.passed and r.upper_bound == q * q + q + 1
    r = gerzon_bounds(6, 16, "real", "flat")
    assert r.passed and r.upper_bound == 16
    report(6, "integrality and dimension bounds", started, 1.0)


def test_criterion_7_harmonic_packing():
    started = time.monotonic()
    group = AbelianGroup((2, 2, 2, 2))
    ds = verify_difference_set(group, (1, 2, 3, 5, 10, 15))
    pair = harmonic_etf(ds)
    cert = certify_etf(pair.primary)
    assert (cert.d, cert.n) == (6, 16) and cert.flat

    golden = Frame(ExactMatrix.from_rows(FLAT_6x16))
    assert pair.primary.matrix == golden.matrix  # exact match in sorted order
    ds_listed = verify_difference_set(group, (1, 5, 2, 10, 3, 15))
    assert gram(harmonic_etf(ds_listed).primary) == gram(golden)

    assert pair.complement.d == 10
    assert certify_hadamard_etf(pair).n == 16
    report(7, "harmonic flat packing", started, 1.0)


def test_criterion_8_property_suites():
    started = time.monotonic()

    # Complement identity on every constructed pair.
    pairs = []
    design = golden_design()
    lift = lift_permutation(design)
    pairs.append(steiner_naimark(SteinerInputs(lift, sylvester(1), sylvester(2), 1)))
    from etf_forge.designs import fano_plane

    fano_lift = lift_permutation(fano_plane())
    pairs.append(steiner_naimark(SteinerInputs(fano_lift, dft(3), sylvester(2), 1)))
    pairs.append(kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1))))
    pairs.append(harmonic_etf(verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15))))
    ones = Frame(ExactMatrix.ones(1, 4))
    simplex = Frame(ExactMatrix.from_rows(SIMPLEX_3x4))
    pairs.append(verify_naimark_pair(ones, simplex))
    pairs.append(tensor_etf(pairs[-1], pairs[-1]))
    for pair in pairs:
        lhs = gram(pair.complement)
        rhs = scaled_identity(pair.primary.n, pair.alpha, gram(pair.primary).domain) - gram(pair.primary)
        assert lhs == rhs
        fresh = Frame(pair.complement.matrix, pair.complement.row_weights)
        assert certify_etf(pair.complement) == certify_etf(fresh)

    # Sibling row spaces are mutually orthogonal for both designs and both F's:
    # their products are blocks of S S* = alpha W^-1, with alpha = k (r + 1).
    assert (pairs[0].alpha, pairs[1].alpha) == (8, 12)

    # Exact JSON round trips.
    for matrix in (ExactMatrix.from_rows(FLAT_6x16), dft(5).body,
                   pairs[1].complement.matrix):
        text = canonical_json(matrix_to_obj(matrix))
        assert canonical_json(matrix_to_obj(matrix_from_obj(json.loads(text)))) == text
    for d in (all_pairs_design(6), design):
        text = canonical_json(design_to_obj(d))
        assert canonical_json(design_to_obj(design_from_obj(json.loads(text)))) == text

    # The resolvable-design parameter map on the projective-space instance
    # produces an internally consistent tuple.
    tup, w = qsd_params_from_rbibd(97656, 6, 19531, 317886556)
    v, k, lam, r, b, x, y = tup
    assert w == 16276
    assert b * k == v * r
    assert (v - 1) * lam == r * (k - 1)
    assert k * (r - 1) * (x + y - 1) - x * y * (b - 1) == k * (k - 1) * (lam - 1)
    assert (v, b, x, y) == (317886556, 1907416991, 79459432, 79467570)
    report(8, "property suites", started, 30.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The published 7-tuple for the (97656, 6, 19531, 317886556) instance is "
        "arithmetically inconsistent: its k and lambda slots use r instead of "
        "r - 1, so it violates bk = vr and k = 2y.  The implementation follows "
        "the stated closed forms, which reproduce every other golden tuple."
    ),
)
def test_criterion_8_published_large_tuple_verbatim():
    tup, _ = qsd_params_from_rbibd(97656, 6, 19531, 317886556)
    assert tup == (317886556, 158943278, 476829831, 953659665, 1907416991, 79459432, 79467570)
