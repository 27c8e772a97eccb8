from fractions import Fraction

import pytest

from etf_forge.constructions import (
    KirkmanInputs,
    SteinerInputs,
    flat_regular_simplex,
    harmonic_etf,
    kirkman_etf,
    standard_kirkman_inputs,
    steiner_etf,
    steiner_naimark,
    tensor_etf,
    verify_difference_set,
)
from etf_forge.designs import Design, all_pairs_design, fano_plane, lift_permutation
from etf_forge.errors import DesignError, FrameError
from etf_forge.frames import Frame, certify_etf, certify_hadamard_etf, gram, verify_naimark_pair
from etf_forge.hadamard import AbelianGroup, dft, sylvester
from etf_forge.matrices import ExactMatrix

from test_frames import FLAT_6x16, SIMPLEX_3x4, STEINER_6x16, STEINER_COMPLEMENT_6x16
from test_designs import INCIDENCE_6x4



def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


TENSOR_6x16 = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1],
    [1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1],
    [1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1],
]

Z2_4_SUBSET_SORTED = (1, 2, 3, 5, 10, 15)
Z2_4_SUBSET_LISTED = (1, 5, 2, 10, 3, 15)  # 0001, 0101, 0010, 1010, 0011, 1111


def paired_design():
    return Design.from_incidence(
        ExactMatrix.from_rows(INCIDENCE_6x4), parallel_classes=[(0, 1), (2, 3), (4, 5)]
    )


def golden_steiner_inputs(column=1):
    return SteinerInputs(lift_permutation(paired_design()), sylvester(1), sylvester(2), column)


def test_flat_regular_simplex_golden():
    frame = flat_regular_simplex(sylvester(2), drop_row=0)
    assert frame.matrix == ExactMatrix.from_rows(SIMPLEX_3x4)


def test_flat_regular_simplex_dft():
    frame = flat_regular_simplex(dft(3), drop_row=0)
    cert = certify_etf(frame)
    assert (cert.d, cert.n) == (2, 3)
    assert cert.flat


def test_flat_regular_simplex_sweep():
    for d in range(1, 13):
        for drop in (0, d):
            cert = certify_etf(flat_regular_simplex(dft(d + 1), drop_row=drop))
            assert (cert.d, cert.n) == (d, d + 1)
            assert cert.flat and cert.beta == d


def test_difference_set_z2_4():
    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), Z2_4_SUBSET_LISTED)
    assert ds.lam == 2


def test_difference_set_singer():
    ds = verify_difference_set(AbelianGroup((7,)), (1, 2, 4))
    assert ds.lam == 1


def test_difference_set_unbalanced():
    with pytest.raises(DesignError, match="not constant"):
        verify_difference_set(AbelianGroup((4,)), (0, 1))


def test_harmonic_golden_6x16():
    # In sorted index order, the selected character rows are exactly the
    # printed flat 6 x 16 packing.
    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), Z2_4_SUBSET_SORTED)
    pair = harmonic_etf(ds)
    assert pair.primary.matrix == ExactMatrix.from_rows(FLAT_6x16)
    cert = certify_etf(pair.primary)
    assert (cert.beta, cert.alpha, cert.gamma_sq) == (6, 16, 4)
    assert cert.flat


def test_harmonic_gram_is_order_independent():
    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), Z2_4_SUBSET_LISTED)
    pair = harmonic_etf(ds)
    golden = Frame(ExactMatrix.from_rows(FLAT_6x16))
    assert gram(pair.primary) == gram(golden)


def test_harmonic_complement_is_hadamard():
    from etf_forge.hadamard import char_table

    ds = verify_difference_set(AbelianGroup((2, 2, 2, 2)), Z2_4_SUBSET_SORTED)
    pair = harmonic_etf(ds)
    assert pair.complement.d == 10
    h = certify_hadamard_etf(pair)
    assert h.n == 16
    # The stack contains exactly the character table rows.
    table = char_table(ds.group).body
    stacked_rows = rows_of(pair.primary.matrix) + rows_of(pair.complement.matrix)
    table_rows = rows_of(table)
    assert sorted(map(str, stacked_rows)) == sorted(map(str, table_rows))


def test_harmonic_z7_singer():
    ds = verify_difference_set(AbelianGroup((7,)), (1, 2, 4))
    pair = harmonic_etf(ds)
    cert = certify_etf(pair.primary)
    assert (cert.d, cert.n) == (3, 7)
    assert cert.gamma_sq / cert.beta**2 == Fraction(2, 9)
    assert cert.flat


def test_harmonic_trivial_singleton():
    ds = verify_difference_set(AbelianGroup((2,)), (1,))
    pair = harmonic_etf(ds)
    assert (pair.primary.d, pair.primary.n) == (1, 2)


def test_harmonic_is_unital():
    # Every entry of a harmonic frame is a single root of unity.
    from etf_forge.scalars import CycloElem

    ds = verify_difference_set(AbelianGroup((7,)), (1, 2, 4))
    pair = harmonic_etf(ds)
    for x in (x for i in range(pair.primary.d) for x in pair.primary.matrix.row(i)):
        assert x * x.conjugate() == 1
        assert any(x == CycloElem.root(x.order, e) for e in range(x.order))


def test_steiner_golden_column_1():
    frame = steiner_etf(golden_steiner_inputs(1))
    assert frame.matrix == ExactMatrix.from_rows(STEINER_6x16)


def test_steiner_golden_column_2():
    frame = steiner_etf(golden_steiner_inputs(2))
    assert frame.matrix == ExactMatrix.from_rows(STEINER_COMPLEMENT_6x16)


def test_steiner_fano_real():
    inputs = SteinerInputs(lift_permutation(fano_plane()), dft(3), sylvester(2), 1)
    frame = steiner_etf(inputs)
    cert = certify_etf(frame)
    assert (cert.d, cert.n) == (7, 28)
    assert frame.matrix.int_rows() is not None  # first DFT column is all ones


def test_steiner_gram_block_structure():
    frame = steiner_etf(golden_steiner_inputs(1))
    g = gram(frame)
    r = 3
    for j in range(4):
        for s in range(r + 1):
            for s2 in range(r + 1):
                e = g.entry(j * (r + 1) + s, j * (r + 1) + s2)
                if s == s2:
                    assert e.rational_value() == r
                else:
                    assert e * e.conjugate() == 1


def test_steiner_naimark_golden_tail():
    pair = steiner_naimark(golden_steiner_inputs(1))
    assert pair.alpha == 8
    comp = pair.complement
    assert rows_of(comp.matrix)[:6] == rows_of(ExactMatrix.from_rows(STEINER_COMPLEMENT_6x16))
    for j in range(4):
        row = rows_of(comp.matrix)[6 + j]
        assert [x.rational_value() for x in row] == [
            1 if 4 * j <= t < 4 * j + 4 else 0 for t in range(16)
        ]
    assert comp.row_weights == (1,) * 6 + (2,) * 4


def test_steiner_sibling_orthogonality():
    # The sibling cross and self products are blocks of the pair's
    # S S* = alpha W^-1, with self products k (r + 1) I.
    fano_inputs = SteinerInputs(lift_permutation(fano_plane()), dft(3), sylvester(2), 1)
    for inputs in (golden_steiner_inputs(1), fano_inputs):
        lift = inputs.lift
        assert steiner_naimark(inputs).alpha == lift.k * (lift.r + 1)


def test_pair_constructions_derive_the_complement_certificate():
    harmonic = harmonic_etf(verify_difference_set(AbelianGroup((2, 2, 2, 2)), (1, 2, 3, 5, 10, 15)))
    pairs = (
        kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1))),
        harmonic,
        steiner_naimark(golden_steiner_inputs(1)),
        tensor_etf(harmonic, harmonic),
    )
    for pair in pairs:
        complement = pair.complement
        assert complement._certificate is not None
        fresh = Frame(complement.matrix, complement.row_weights)
        assert certify_etf(complement) == certify_etf(fresh)


def test_steiner_naimark_fano():
    inputs = SteinerInputs(lift_permutation(fano_plane()), dft(3), sylvester(2), 1)
    pair = steiner_naimark(inputs)
    assert (pair.primary.d, pair.complement.d, pair.primary.n) == (7, 21, 28)
    assert pair.alpha == 12


def test_kirkman_u2():
    pair = kirkman_etf(standard_kirkman_inputs(2, e=sylvester(1)))
    cert = certify_etf(pair.primary)
    assert (cert.d, cert.n) == (6, 16)
    assert cert.flat
    comp = certify_etf(pair.complement)
    assert (comp.d, comp.n) == (10, 16)
    assert comp.flat
    h = certify_hadamard_etf(pair)
    assert h.n == 16 and h.kind == "real"


def test_kirkman_u3_impossible():
    with pytest.raises(Exception, match="no Hadamard recipe"):
        standard_kirkman_inputs(3)


def test_kirkman_requires_resolution():
    design = all_pairs_design(4)  # lexicographic order, no classes attached
    lift = lift_permutation(design)
    with pytest.raises(FrameError):
        KirkmanInputs(SteinerInputs(lift, sylvester(1), sylvester(2), 1), sylvester(1), design)


def test_tensor_golden_6x16():
    ones = Frame(ExactMatrix.ones(1, 4))
    simplex = Frame(ExactMatrix.from_rows(SIMPLEX_3x4))
    base = verify_naimark_pair(ones, simplex)
    pair = tensor_etf(base, base)
    assert pair.primary.matrix == ExactMatrix.from_rows(TENSOR_6x16)
    cert = certify_etf(pair.primary)
    assert (cert.d, cert.n) == (6, 16)
    assert cert.flat


def test_tensor_parameter_gate():
    simplex = Frame(ExactMatrix.from_rows(SIMPLEX_3x4))
    ones = Frame(ExactMatrix.ones(1, 4))
    bad = verify_naimark_pair(simplex, ones)  # d = 3 is not (4 - 2) / 2
    with pytest.raises(FrameError, match="sqrt"):
        tensor_etf(bad, bad)


def test_tensor_closure_keeps_parameter_relation():
    ones = Frame(ExactMatrix.ones(1, 4))
    simplex = Frame(ExactMatrix.from_rows(SIMPLEX_3x4))
    base = verify_naimark_pair(ones, simplex)
    first = tensor_etf(base, base)
    n = first.primary.n
    assert first.primary.d == (n - 4) // 2  # sqrt(16) = 4
