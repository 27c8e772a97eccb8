import hashlib
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
from etf_forge.cli import main
from etf_forge.designs import Design, all_pairs_design, fano_plane, lift_permutation, round_robin_resolution
from etf_forge.errors import DesignError, FrameError
from etf_forge.frames import Frame, certify_etf, certify_hadamard_etf, gram, verify_naimark_pair
from etf_forge.hadamard import AbelianGroup, dft, hadamard_of_size, kron as kron_hadamard, sylvester
from etf_forge.matrices import ExactMatrix, kron, matmul, vstack

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


HARMONIC_CASES = {
    "z7": ((7,), (1, 2, 4)),
    "z13": ((13,), (0, 1, 3, 9)),
    "z4xz4": ((4, 4), (1, 2, 3, 4, 8, 12)),
    "z2^4": ((2, 2, 2, 2), (1, 2, 3, 5, 10, 15)),
    "z31": ((31,), (1, 5, 11, 24, 25, 27)),
}


@pytest.mark.parametrize("name", sorted(HARMONIC_CASES))
def test_harmonic_pair_is_the_verified_character_tables_rows(name):
    # The pair is built from the unverified rows and decided on its own
    # stack; it must equal the rows of char_table, certificates included (an
    # elementary 2-group's table is over the rationals).
    from etf_forge.hadamard import char_table

    orders, subset = HARMONIC_CASES[name]
    ds = verify_difference_set(AbelianGroup(orders), subset)
    table = char_table(ds.group).body
    want = (Frame(table.take_rows(subset)), Frame(table.take_rows(i for i in range(table.rows) if i not in subset)))
    pair = harmonic_etf(ds)
    for got, frame in zip((pair.primary, pair.complement), want):
        assert (got.domain, got.matrix.den, got.matrix.planes) == (frame.domain, frame.matrix.den, frame.matrix.planes)
        assert certify_etf(got) == certify_etf(frame)
    assert pair.alpha == verify_naimark_pair(*want).alpha == table.rows


def test_harmonic_pair_is_decided_on_its_stack_alone(monkeypatch):
    # The stack [P; C] is the character table with its rows permuted, so its
    # row triangle is the table's identity H H* = n I: two Hermitian
    # products, the primary's Gram and the stack's triangle, and never the
    # table's own product through verify_hadamard.
    import etf_forge.hadamard as hadamard
    import etf_forge.matrices as matrices

    def shape(m):
        return (m.rows, m.cols) if isinstance(m, ExactMatrix) else (len(m), len(m[0]))

    products = []
    for name in ("_int_matmul", "_row_packed_matmul"):
        kernel = getattr(matrices, name)
        monkeypatch.setattr(matrices, name,
                            lambda *args, _k=kernel, _n=name: products.append((_n, *map(shape, args))) or _k(*args))

    def unverified(m):
        raise AssertionError("the harmonic pair verifies no Hadamard matrix")

    monkeypatch.setattr(hadamard, "verify_hadamard", unverified)
    pair = harmonic_etf(verify_difference_set(AbelianGroup((31,)), (1, 5, 11, 24, 25, 27)))
    assert (pair.primary.d, pair.complement.d, pair.alpha) == (6, 25, 31)
    assert products == [("_row_packed_matmul", (31, 6), (6, 31)),  # G = P* P
                        ("_row_packed_matmul", (31, 31), (31, 31))]  # S S*


@pytest.mark.parametrize("turned", [(1, 2), (0, 4)], ids=["primary", "complement"])
def test_harmonic_refuses_a_pair_that_is_not_flat(turned, monkeypatch):
    # Flatness of both frames is the table's unimodular-entry check.  Turning
    # two rows of one frame by the rational rotation [[3, 4], [4, -3]] / 5
    # keeps every identity of the pair and takes their entries off modulus one.
    import etf_forge.constructions as constructions

    character_rows = constructions.character_rows

    def rows(group):
        table = [list(map(Fraction, r)) for r in character_rows(group).planes[0]]
        x, y = (table[i] for i in turned)
        table[turned[0]] = [(3 * a + 4 * b) / 5 for a, b in zip(x, y)]
        table[turned[1]] = [(4 * a - 3 * b) / 5 for a, b in zip(x, y)]
        return ExactMatrix.from_rows(table)

    monkeypatch.setattr(constructions, "character_rows", rows)
    with pytest.raises(FrameError, match="^a character table entry is not unimodular$"):
        harmonic_etf(verify_difference_set(AbelianGroup((2, 2, 2, 2)), Z2_4_SUBSET_SORTED))


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


# The product form the lifts were once assembled by, kept as their oracle:
# (I_b (x) f_l*) Pi (I_v (x) G1*) over the lift's permutation matrix, each
# run rotated by I_r (x) E, and the tails I_v (x) g2* and (E (x) F)(I_v (x) g2*).


def oracle_lift(st, column):
    lift, g_star = st.lift, st.g.body.adjoint()
    left = kron(ExactMatrix.identity(lift.b), st.f.body.adjoint().take_rows([column - 1]))
    right = kron(ExactMatrix.identity(lift.v), g_star.take_rows(range(1, g_star.rows)))
    return matmul(matmul(left, lift.matrix()), right)


def oracle_tail(st):
    return kron(ExactMatrix.identity(st.lift.v), st.g.body.adjoint().take_rows([0]))


def oracle_kirkman(inputs):
    st, e = inputs.steiner, inputs.e.body
    rotation = kron(ExactMatrix.identity(inputs.design.params.r, e.domain), e)
    lifts = [matmul(rotation, oracle_lift(st, l)) for l in range(1, st.lift.k + 1)]
    return lifts[0], vstack(*lifts[1:], matmul(kron(e, st.f.body), oracle_tail(st)))


def assert_same_planes(built, oracle):
    assert (built.domain, built.den, built.planes) == (oracle.domain, oracle.den, oracle.planes)


@pytest.mark.parametrize("u, e", [(2, None), (4, None), (8, None), (3, 3), (4, 4), (5, 5), (6, 6)])
def test_kirkman_lifts_match_the_product_oracle(u, e):
    inputs = standard_kirkman_inputs(u, e=None if e is None else dft(e))
    pair = kirkman_etf(inputs)
    primary, complement = oracle_kirkman(inputs)
    assert_same_planes(pair.primary.matrix, primary)
    assert_same_planes(pair.complement.matrix, complement)


@pytest.mark.parametrize("design, f, g", [
    (fano_plane(), dft(3), sylvester(2)),
    (fano_plane(), dft(3), dft(4)),
    (all_pairs_design(8), sylvester(1), dft(8)),
])
def test_steiner_lifts_match_the_product_oracle(design, f, g):
    lift = lift_permutation(design)
    for column in range(1, lift.k + 1):
        st = SteinerInputs(lift, f, g, column)
        assert_same_planes(steiner_etf(st).matrix, oracle_lift(st, column))
    st = SteinerInputs(lift, f, g, 1)
    siblings = [oracle_lift(st, l) for l in range(2, lift.k + 1)]
    assert_same_planes(steiner_naimark(st).complement.matrix, vstack(*siblings, oracle_tail(st)))


def test_kirkman_refuses_classes_that_are_not_consecutive_runs():
    # Round-robin v = 8 with its blocks interleaved across the classes: every
    # class is still a valid parallel class, but blocks 0..3 (the first block
    # of classes 0..3, each holding vertex 7) are not one.
    rr = round_robin_resolution(8)
    design = Design(8, [rr.blocks[c * 4 + t] for t in range(4) for c in range(7)],
                    [[t * 7 + c for t in range(4)] for c in range(7)])
    e, f = hadamard_of_size(4), sylvester(1)
    inputs = KirkmanInputs(SteinerInputs(lift_permutation(design), f, kron_hadamard(e, f)), e, design)
    with pytest.raises(FrameError, match=r"^the run of blocks 0\.\.3 covers vertex 7 twice: it is not a parallel class$"):
        kirkman_etf(inputs)


# SHA-256 of every file written by these commands, recorded before the lifts
# were gathered instead of multiplied.
LIFTED_ARTIFACT_SHA256 = {
    ("kirkman", "--u", "4"): {
        "certificate_complement.json": "5d4816b4f861bf17edd1799de3dae3cf683f88abe57edb0f3bab6e8e94908d0d",
        "certificate_primary.json": "64adf1d60eaa3670d639096da5bb1e7139020fa1b5cd1e7caa68113dca6f9377",
        "complement.json": "db5fc605fc51eaa4609551cc92ece5a2872ec5fac5e86a04cbb444e40ff43e4e",
        "pair.json": "21169c5e0a4a1a923a7f1556232d2dd97a3c4382273a0dcac57fbe281124c03c",
        "primary.json": "2a0c61deb7d9e8f850b3e9f90302b0193918162ce56ee448dfa6dc6d02efb4dd",
        "recipe.json": "60f0c8c95ec9e821d02bb8afcd3624cf85283e20b608e3a2725999c2b0c4e059",
    },
    ("steiner", "--design", "fano"): {
        "certificate_complement.json": "26f923c8295f4eb324c49faff2da345a2e44da8c40d31e565d1d1675aed54c8c",
        "certificate_primary.json": "f54687fdbce09bbc75f14d010422d50382919ad650a44ac913cf2527e9dd9a2e",
        "complement.json": "d869cdccb2f40feb9fc621659d87479eadd713e45918f3a824b4eda8ff29d972",
        "pair.json": "5c4516acc58a5e35cbbe033ae2d53c17e2cfa69259d256354e453d6e4f80a155",
        "primary.json": "4f9d64b4a39cb64a405b756e5346dd8e51c0e0bd2fe092cfb1613dc08beb5d5d",
        "recipe.json": "8c462d58db6e68c4c782bb39dfa8c3b05a7442565c8fe08056616fd7f523ec21",
    },
    ("steiner", "--design", "all-pairs", "--v", "8", "--complex-g"): {
        "certificate_complement.json": "0b9f8a16f9953aecea92519117264db4abe00e521c0e39fc7dd1af564aa1e10a",
        "certificate_primary.json": "8a620edd5cf2b64d35cba85bb1496beac3804186366335ab8eaae704c1b4d3cd",
        "complement.json": "0956fa69924a3cce3e7bb8c772903b86263f7dd259db70245670e6a71a54e0b2",
        "pair.json": "ad1e80e4292fcda8d5a41ee38faf55754ddc7a2e80c2969e0f1ac6894acd198f",
        "primary.json": "ad7760a2905adb8f10354a82d39bbdd64247c70b09acb528aa3f5d003435855e",
        "recipe.json": "746ae240c8e5897e43f5ed1f527a095ca42c40891082004c92e18546da402d6d",
    },
}


@pytest.mark.parametrize("argv", list(LIFTED_ARTIFACT_SHA256))
def test_small_lifted_artifacts_are_byte_identical_to_their_pins(argv, tmp_path):
    assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == LIFTED_ARTIFACT_SHA256[argv]


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
