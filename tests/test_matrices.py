import cmath
import math
import random
from fractions import Fraction

import pytest

from etf_forge.errors import DomainError
from etf_forge.frames import Frame, gram
from etf_forge.matrices import (
    RATIONAL,
    ExactMatrix,
    cyclo_domain,
    kron,
    matmul,
    quad_domain,
    scaled_identity,
    vstack,
)
from etf_forge.scalars import CycloElem, QuadElem, cyclotomic_polynomial


# -- the per-entry Fraction oracle -------------------------------------
#
# Each output entry is a sum of per-product Fraction convolutions in
# exponent space, each reduced by Fraction long division modulo Phi_m, so
# the oracle shares no arithmetic with the integer kernel behind matmul.


def fraction_reduce(acc, m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rem = list(acc)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    return tuple(rem[:deg]) + (Fraction(0),) * (deg - len(rem))


def fraction_coeffs(x, m):
    """Coefficients of a cyclotomic entry at order m (a multiple of its own)."""
    k = m // x.order
    acc = [Fraction(0)] * m
    for e, c in enumerate(x.coeffs):
        acc[e * k] += c
    return fraction_reduce(acc, m)


def fraction_mul(x, y, domain):
    if domain.kind == "quadratic":
        t = domain.radicand
        return (x[0] * y[0] + x[1] * y[1] * t, x[0] * y[1] + x[1] * y[0])
    m = domain.order
    acc = [Fraction(0)] * m
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            acc[(i + j) % m] += c * d
    return fraction_reduce(acc, m)


def oracle_entries(mat, domain):
    if domain.kind == "quadratic":
        return [(x.a, x.b) for x in mat.entries]
    return [fraction_coeffs(x, domain.order) for x in mat.entries]


def oracle_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Per-entry Fraction loop: one reduction per product, none shared with matmul."""
    domain = a.domain.unify(b.domain)
    ea, eb = oracle_entries(a, domain), oracle_entries(b, domain)
    width = 2 if domain.kind == "quadratic" else len(cyclotomic_polynomial(domain.order)) - 1
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = [Fraction(0)] * width
            for t in range(a.cols):
                prod = fraction_mul(ea[i * a.cols + t], eb[t * b.cols + j], domain)
                acc = [s + p for s, p in zip(acc, prod)]
            if domain.kind == "quadratic":
                out.append(QuadElem(domain.radicand, *acc))
            else:
                out.append(CycloElem(domain.order, tuple(acc)))
    return ExactMatrix(domain, a.rows, b.cols, out)


# -- the numeric-embedding oracle -------------------------------------


def embed(x) -> complex:
    """zeta_m -> exp(2 pi i / m), sqrt(t) -> its positive real root."""
    if isinstance(x, QuadElem):
        return float(x.a) + float(x.b) * math.sqrt(x.t)
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / x.order) for e, c in enumerate(x.coeffs))


def assert_numeric_product(a, b, p):
    for i in range(a.rows):
        for j in range(b.cols):
            want = sum(embed(a.entry(i, t)) * embed(b.entry(t, j)) for t in range(a.cols))
            assert abs(embed(p.entry(i, j)) - want) < 1e-9, (i, j)


def rand_cyclo_entry(rng, order):
    """A monomial, a dense reduced root zeta^(m-1), a rational or a short sum."""
    kind = rng.randrange(4)
    if kind == 0:
        return CycloElem.from_terms({rng.randrange(order): rng.randint(-2, 2)}, order)
    if kind == 1:
        return CycloElem.from_rational(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))), order)
    if kind == 2:
        return CycloElem.from_terms(
            [(rng.randrange(order), Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))) for _ in range(3)],
            order,
        )
    return CycloElem.root(order, order - 1) * rng.choice((1, -1, Fraction(1, 3)))


def rand_cyclo_matrix(rng, rows, cols, order):
    entries = [rand_cyclo_entry(rng, order) for _ in range(rows * cols)]
    return ExactMatrix(cyclo_domain(order), rows, cols, entries)


def rand_quad_matrix(rng, rows, cols, t):
    entries = [
        QuadElem(t, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), Fraction(rng.randint(-4, 4), rng.choice((1, 5))))
        for _ in range(rows * cols)
    ]
    return ExactMatrix(quad_domain(t), rows, cols, entries)


def test_matmul_matches_naive_oracle_over_z12():
    rng = random.Random(12)
    for _ in range(5):
        a = rand_cyclo_matrix(rng, 4, 4, 12)
        b = rand_cyclo_matrix(rng, 4, 4, 12)
        assert matmul(a, b) == oracle_matmul(a, b)


@pytest.mark.parametrize("order", [1, 3, 4, 8, 12, 13, 31])
def test_kernel_matches_fraction_oracle_at_every_order(order):
    rng = random.Random(order)
    for shape in ((3, 4, 2), (5, 5, 5), (1, 6, 1)):
        rows, inner, cols = shape
        a = rand_cyclo_matrix(rng, rows, inner, order)
        b = rand_cyclo_matrix(rng, inner, cols, order)
        p = matmul(a, b)
        assert p.domain == cyclo_domain(order)
        assert p == oracle_matmul(a, b)
        assert_numeric_product(a, b, p)


def test_kernel_on_dense_reduced_roots_at_prime_orders():
    # zeta^(m-1) is -(1 + zeta + ... + zeta^(m-2)) in the reduced basis.
    for m in (13, 31):
        dense = CycloElem.root(m, m - 1)
        assert sum(1 for c in dense.coeffs if c) == m - 1
        a = ExactMatrix(cyclo_domain(m), 2, 3, [dense, dense * 2, CycloElem.root(m, 1)] * 2)
        b = ExactMatrix(cyclo_domain(m), 3, 2, [dense, dense, dense * -1, CycloElem.root(m, 3), dense, 1 + dense])
        p = matmul(a, b)
        assert p == oracle_matmul(a, b)
        assert_numeric_product(a, b, p)


def test_kernel_slots_hold_worst_case_aligned_sums():
    # Every coefficient at its maximum with one sign: the middle slot of each
    # output entry reaches the packing bound inner x min(widths) x max|a| x max|b|.
    for domain, x in (
        (cyclo_domain(13), CycloElem.from_terms({e: 7 for e in range(12)}, 13)),
        (quad_domain(6), QuadElem(6, 7, 7)),
    ):
        for sign in (1, -1):
            a = ExactMatrix(domain, 1, 40, [x] * 40)
            b = ExactMatrix(domain, 40, 1, [x * sign] * 40)
            p = matmul(a, b)
            assert p == oracle_matmul(a, b)
            assert_numeric_product(a, b, p)


def test_kernel_lifts_mixed_orders_to_the_lcm():
    rng = random.Random(7)
    for ma, mb in ((4, 6), (3, 8), (1, 13), (12, 8)):
        a = rand_cyclo_matrix(rng, 3, 4, ma)
        b = rand_cyclo_matrix(rng, 4, 3, mb)
        p = matmul(a, b)
        assert p.domain == cyclo_domain(math.lcm(ma, mb))
        assert p == oracle_matmul(a, b)
        assert_numeric_product(a, b, p)


def test_kernel_over_q_sqrt_6_and_rationals():
    rng = random.Random(6)
    for _ in range(3):
        a = rand_quad_matrix(rng, 4, 5, 6)
        b = rand_quad_matrix(rng, 5, 3, 6)
        p = matmul(a, b)
        assert p == oracle_matmul(a, b)
        assert_numeric_product(a, b, p)
        r = rand_quad_matrix(rng, 5, 2, 1)  # rational values mix with sqrt(6)
        assert matmul(a, r) == oracle_matmul(a, r)
    q = rand_cyclo_matrix(rng, 6, 6, 1)
    assert any(x.rational_value().denominator > 1 for x in q.entries)
    assert matmul(q, q) == oracle_matmul(q, q)


def test_weighted_row_grams_match_the_oracle():
    rng = random.Random(5)
    for order in (1, 4, 13):
        m = rand_cyclo_matrix(rng, 3, 5, order)
        weights = (Fraction(1, 2), Fraction(3), Fraction(2, 7))
        g = gram(Frame(m, row_weights=weights))
        conjugates = []
        for j in range(m.cols):
            for i in range(m.rows):
                acc = [Fraction(0)] * order
                for e, c in enumerate(m.entry(i, j).coeffs):
                    acc[-e % order] += c
                conjugates.append(CycloElem(order, fraction_reduce(acc, order)))
        adjoint = ExactMatrix(m.domain, m.cols, m.rows, conjugates)
        scaled = ExactMatrix(
            m.domain, m.rows, m.cols,
            [CycloElem(order, tuple(w * c for c in x.coeffs)) for i, w in enumerate(weights) for x in m.row(i)],
        )
        assert g == oracle_matmul(adjoint, scaled)
        assert_numeric_product(adjoint, scaled, g)


def test_numeric_embedding_agrees_with_certified_identities():
    from etf_forge.constructions import harmonic_etf, verify_difference_set
    from etf_forge.frames import certify_etf
    from etf_forge.hadamard import AbelianGroup

    pair = harmonic_etf(verify_difference_set(AbelianGroup((13,)), (0, 1, 3, 9)))
    frame = pair.primary
    cert = certify_etf(frame)
    rows = [[embed(x) for x in frame.matrix.row(i)] for i in range(frame.d)]
    cols = list(zip(*rows))

    def inner(u, v):
        return sum(x.conjugate() * y for x, y in zip(u, v))

    for j, u in enumerate(cols):  # norms and equiangularity
        for j2, v in enumerate(cols):
            got = inner(u, v) if j == j2 else abs(inner(u, v)) ** 2
            assert abs(got - float(cert.beta if j == j2 else cert.gamma_sq)) < 1e-9
    for i, u in enumerate(rows):  # tightness: rows orthogonal with squared norm alpha
        for i2, v in enumerate(rows):
            assert abs(inner(v, u) - (float(cert.alpha) if i == i2 else 0)) < 1e-9


def test_int_fast_path_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(5):
        a = ExactMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(6)] for _ in range(5)]
        )
        b = ExactMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(4)] for _ in range(6)]
        )
        assert matmul(a, b) == oracle_matmul(a, b)


def test_bitmask_route_matches_loop_route():
    # Force both sides of the {-1,0,1} size threshold on the same data.
    rng = random.Random(41)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(70)] for _ in range(70)]
    a = ExactMatrix.from_rows(rows)
    small = ExactMatrix.from_rows([r[:8] for r in rows[:8]])
    big = matmul(a, a)  # above the popcount threshold
    for i in range(8):
        for j in range(8):
            acc = sum(rows[i][t] * rows[t][j] for t in range(70))
            assert big.entry(i, j).rational_value() == acc
    assert matmul(small, small) == oracle_matmul(small, small)


def test_identity_product():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert matmul(ExactMatrix.identity(2), a) == a
    assert matmul(a, ExactMatrix.identity(2)) == a


def test_simplex_row_product():
    # The 3x4 flat simplex rows are orthogonal with norm 4.
    psi = ExactMatrix.from_rows([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert matmul(psi, psi.adjoint()) == scaled_identity(3, 4)


def test_dimension_mismatch():
    a = ExactMatrix.from_rows([[1, 2]])
    with pytest.raises(DomainError):
        matmul(a, a)


def test_mixed_kind_rejected():
    a = ExactMatrix.from_rows([[CycloElem.root(4)]], cyclo_domain(4))
    b = ExactMatrix.from_rows([[QuadElem(2, 0, 1)]], quad_domain(2))
    with pytest.raises(DomainError):
        matmul(a, b)


def test_quadratic_radicand_rules():
    a = ExactMatrix.from_rows([[QuadElem(2, 1, 1)]], quad_domain(2))
    b = ExactMatrix.from_rows([[QuadElem(3, 1, 1)]], quad_domain(3))
    with pytest.raises(DomainError):
        matmul(a, b)
    r = ExactMatrix.from_rows([[2]], quad_domain(1))
    assert matmul(a, r).entry(0, 0) == QuadElem(2, 2, 2)


def test_order_lifting_in_products():
    a = ExactMatrix.from_rows([[CycloElem.root(2)]], cyclo_domain(2))
    b = ExactMatrix.from_rows([[CycloElem.root(3)]], cyclo_domain(3))
    p = matmul(a, b)
    assert p.domain == cyclo_domain(6)
    assert p.entry(0, 0) == CycloElem.root(6, 5)  # zeta_2 * zeta_3 = zeta_6^5


def test_adjoint_conjugates_and_transposes():
    i = CycloElem.root(4)
    a = ExactMatrix.from_rows([[i, 1], [0, i * i]], cyclo_domain(4))
    adj = a.adjoint()
    assert adj.entry(0, 0) == -i
    assert adj.entry(1, 0) == 1
    assert adj.entry(0, 1) == 0
    assert adj.entry(1, 1) == -1


def test_kron_block_structure():
    a = ExactMatrix.from_rows([[1, -1], [0, 2]])
    b = ExactMatrix.from_rows([[1, 1], [1, -1]])
    k = kron(a, b)
    assert k.rows == k.cols == 4
    assert k.row_lists()[0] == [v.rational_value() for v in k.row(0)] == [1, 1, -1, -1]
    assert [v.rational_value() for v in k.row(3)] == [0, 0, 2, -2]


def test_vstack_and_equality_across_kinds():
    a = ExactMatrix.from_rows([[1, 0]], RATIONAL)
    b = ExactMatrix.from_rows([[0, 1]], RATIONAL)
    s = vstack(a, b)
    assert s == ExactMatrix.identity(2)
    q = ExactMatrix.from_rows([[1, 0], [0, 1]], quad_domain(2))
    assert s == q  # both rational-valued, so comparable across kinds


def test_scale_rows():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    s = a.scale_rows([Fraction(1, 2), 2])
    assert [v.rational_value() for v in s.row(0)] == [Fraction(1, 2), 1]
    assert [v.rational_value() for v in s.row(1)] == [6, 8]


def test_int_rows_cache_detects_non_integers():
    a = ExactMatrix.from_rows([[Fraction(1, 2)]])
    assert a.int_rows() is None
    b = ExactMatrix.from_rows([[CycloElem.root(4)]], cyclo_domain(4))
    assert b.int_rows() is None
    c = ExactMatrix.from_rows([[3, -2]])
    assert c.int_rows() == [[3, -2]]
