from math import lcm

import pytest

from etf_forge.errors import HadamardError
from etf_forge.hadamard import (
    AbelianGroup,
    char_table,
    dft,
    hadamard_of_size,
    kron,
    paley_one,
    sylvester,
    verify_hadamard,
)
from etf_forge.matrices import ExactMatrix, cyclo_domain, matmul, scaled_identity
from etf_forge.scalars import CycloElem

SIMPLEX_3x4 = [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]


def test_sylvester_base_cases():
    assert sylvester(0).body == ExactMatrix.from_rows([[1]])
    assert sylvester(1).body == ExactMatrix.from_rows([[1, 1], [1, -1]])


def test_sylvester_4_contains_the_flat_simplex():
    h = sylvester(2)
    assert h.body.drop_row(0) == ExactMatrix.from_rows(SIMPLEX_3x4)


def test_sylvester_16_verifies():
    h = sylvester(4)
    assert h.n == 16 and h.kind == "real"
    assert matmul(h.body, h.body.transpose()) == scaled_identity(16, 16)


def test_paley_small():
    assert paley_one(3).n == 4
    assert paley_one(11).n == 12
    assert paley_one(11).kind == "real"


def test_paley_rejects_bad_inputs():
    with pytest.raises(HadamardError):
        paley_one(5)  # 5 = 1 mod 4
    with pytest.raises(HadamardError):
        paley_one(9)  # not prime


def test_dft_small():
    assert dft(2).body == sylvester(1).body
    f3 = dft(3)
    w = CycloElem.root(3)
    assert f3.body.entry(1, 1) == w
    assert f3.body.entry(1, 2) == w * w
    assert f3.body.entry(2, 2) == w
    f4 = dft(4)
    assert matmul(f4.body, f4.body.adjoint()) == scaled_identity(4, 4, cyclo_domain(4))


def test_dft_2_classified_real():
    assert dft(2).kind == "real"
    assert dft(3).kind == "complex"


def test_kron_recovers_sylvester_recursion():
    assert kron(sylvester(1), sylvester(1)).body == sylvester(2).body


def test_kron_pairs_verify():
    assert kron(paley_one(3), sylvester(1)).n == 8
    # dft(2) is +/-1 valued, so its body is normalized to the rational domain
    # and the product lives at order 3.
    mixed = kron(dft(2), dft(3))
    assert mixed.n == 6
    assert mixed.kind == "complex"
    assert mixed.body.domain == cyclo_domain(3)
    assert kron(dft(3), dft(4)).body.domain == cyclo_domain(12)


def test_kron_preserves_hadamard_up_to_64():
    gens = [sylvester(1), sylvester(2), paley_one(3), dft(3), dft(5)]
    for a in gens:
        for b in gens:
            if a.n * b.n <= 64:
                assert kron(a, b).n == a.n * b.n  # verification is built in


def test_verify_rejects_identity_and_constant():
    # I2 has zero entries, so it already fails the flatness scan.
    with pytest.raises(HadamardError, match="unimodular"):
        verify_hadamard(ExactMatrix.identity(2))
    with pytest.raises(HadamardError, match="orthogonality"):
        verify_hadamard(ExactMatrix.ones(2, 2))
    with pytest.raises(HadamardError, match="unimodular"):
        verify_hadamard(ExactMatrix.from_rows([[1, 0], [0, 1]]).scale(2))


def test_char_table_z2_4_is_sylvester_16():
    assert char_table(AbelianGroup((2, 2, 2, 2))).body == sylvester(4).body


def test_char_table_cyclic_is_dft():
    assert char_table(AbelianGroup((3,))).body == dft(3).body
    assert char_table(AbelianGroup((2, 2))).body == sylvester(2).body


def test_char_table_rows_structure():
    h = char_table(AbelianGroup((2, 3)))
    assert all(h.body.entry(0, j) == 1 for j in range(6))
    assert matmul(h.body, h.body.adjoint()) == scaled_identity(6, 6, h.body.domain)


def test_hadamard_of_size_recipes():
    assert hadamard_of_size(12).n == 12
    assert hadamard_of_size(24).n == 24
    assert hadamard_of_size(1).n == 1
    assert hadamard_of_size(2).n == 2
    assert hadamard_of_size(16).n == 16


def test_hadamard_of_size_failures():
    with pytest.raises(HadamardError, match="no Hadamard recipe"):
        hadamard_of_size(6)
    with pytest.raises(HadamardError, match="no Hadamard recipe"):
        hadamard_of_size(92)


# The per-entry builders the plane builders replaced: one root of unity per
# entry, lowered by from_entries.  They are the oracle for dft and char_table.
def oracle_dft(n):
    return ExactMatrix.from_entries(cyclo_domain(n), n, n, [CycloElem.root(n, j * k % n) for j in range(n) for k in range(n)])


def oracle_char_table(group):
    m = lcm(*group.orders)
    weights = [m // mi for mi in group.orders]
    entries = []
    for a in range(group.size):
        for g in range(group.size):
            e = sum(x * y * w for x, y, w in zip(group.digits(a), group.digits(g), weights)) % m
            entries.append(CycloElem.root(m, e))
    return ExactMatrix.from_entries(cyclo_domain(m), group.size, group.size, entries)


def assert_same_hadamard(h, oracle):
    expected = verify_hadamard(oracle)
    assert (h.n, h.kind) == (expected.n, expected.kind)
    assert (h.body.domain, h.body.den, h.body.planes) == (expected.body.domain, expected.body.den, expected.body.planes)


@pytest.mark.parametrize("n", list(range(1, 17)) + [31])
def test_dft_planes_match_the_per_entry_oracle(n):
    assert_same_hadamard(dft(n), oracle_dft(n))


@pytest.mark.parametrize("orders", [(2, 4), (3, 3), (4, 4), (2, 3, 5), (13,), (31,)])
def test_char_table_planes_match_the_per_entry_oracle(orders):
    group = AbelianGroup(orders)
    assert_same_hadamard(char_table(group), oracle_char_table(group))
