import random
from fractions import Fraction

import pytest

from etf_forge.errors import DomainError
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
from etf_forge.scalars import CycloElem, QuadElem


def naive_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Independent triple-loop oracle, no fast paths."""
    domain = a.domain.unify(b.domain)
    a = a.with_domain(domain)
    b = b.with_domain(domain)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = domain.zero()
            for t in range(a.cols):
                acc = acc + a.entry(i, t) * b.entry(t, j)
            out.append(acc)
    return ExactMatrix(domain, a.rows, b.cols, out)


def rand_cyclo_matrix(rng, rows, cols, order):
    dom = cyclo_domain(order)
    entries = [
        CycloElem.from_terms({rng.randrange(order): rng.randint(-2, 2)}, order)
        for _ in range(rows * cols)
    ]
    return ExactMatrix(dom, rows, cols, entries)


def test_matmul_matches_naive_oracle_over_z12():
    rng = random.Random(12)
    for _ in range(5):
        a = rand_cyclo_matrix(rng, 4, 4, 12)
        b = rand_cyclo_matrix(rng, 4, 4, 12)
        assert matmul(a, b) == naive_matmul(a, b)


def test_int_fast_path_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(5):
        a = ExactMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(6)] for _ in range(5)]
        )
        b = ExactMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(4)] for _ in range(6)]
        )
        assert matmul(a, b) == naive_matmul(a, b)


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
    assert matmul(small, small) == naive_matmul(small, small)


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
