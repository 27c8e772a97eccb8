import random
from fractions import Fraction
from itertools import combinations

import pytest

from etf_forge.designs import (
    Design,
    all_pairs_design,
    complement_design,
    etf_params_from_srg,
    FANO_BLOCKS,
    fano_plane,
    lift_permutation,
    round_robin_resolution,
    srg_params_from_qsd,
    verify_bibd,
    verify_qsd,
    verify_srg,
    QsdCertificate,
)
from etf_forge.errors import DesignError
from etf_forge.matrices import ExactMatrix, matmul, kron

# The 6x4 incidence matrix of the all-pairs design on 4 vertices, arranged
# into its three parallel classes, and the 12x12 permutation matrix that
# lifts it (both are fixed goldens for downstream constructions).
INCIDENCE_6x4 = [
    [1, 1, 0, 0],
    [0, 0, 1, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
]

LIFT_12x12_ONE_POSITIONS = [0, 3, 6, 9, 1, 7, 4, 10, 2, 11, 5, 8]


def paired_design():
    return Design.from_incidence(
        ExactMatrix.from_rows(INCIDENCE_6x4), parallel_classes=[(0, 1), (2, 3), (4, 5)]
    )


def test_verify_bibd_on_golden_incidence():
    params = verify_bibd(ExactMatrix.from_rows(INCIDENCE_6x4))
    assert params.as_tuple() == (4, 2, 1, 3, 6)
    assert params.fisher


def test_verify_bibd_fano():
    params = fano_plane().params
    assert params.as_tuple() == (7, 3, 1, 3, 7)


def test_design_rejects_a_repeated_vertex():
    # The incidence row of (0, 1, 2, 2) equals that of (0, 1, 2), so the
    # repeat would pass every identity unless it is refused.
    blocks = [tuple(x - 1 for x in block) for block in FANO_BLOCKS]
    with pytest.raises(DesignError, match="block 0 repeats vertex 2"):
        Design(7, [blocks[0] + (2,)] + blocks[1:])


def test_verify_bibd_rejects_all_ones():
    with pytest.raises(DesignError):
        verify_bibd(ExactMatrix.ones(3, 3))


def test_verify_bibd_rejects_nonconstant_rows():
    with pytest.raises(DesignError, match="not constant"):
        verify_bibd(ExactMatrix.from_rows([[1, 1, 0], [1, 0, 0], [0, 1, 1]]))


def test_verify_bibd_rejects_nonconstant_pair_counts():
    # The 4-cycle: constant row and column sums, but pair counts 0 and 1.
    cycle = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    with pytest.raises(DesignError, match="pair counts"):
        verify_bibd(ExactMatrix.from_rows(cycle))


def test_all_pairs_design_v4():
    d = all_pairs_design(4)
    assert d.params.as_tuple() == (4, 2, 1, 3, 6)
    assert d.blocks == tuple(combinations(range(4), 2))


def test_all_pairs_design_small_and_qsd_case():
    assert all_pairs_design(3).params.as_tuple() == (3, 2, 1, 2, 3)
    assert all_pairs_design(6).params.as_tuple() == (6, 2, 1, 5, 15)


def test_round_robin_v4_matches_circle_method():
    d = round_robin_resolution(4)
    # Classes {{4,1},{2,3}}, {{4,2},{3,1}}, {{4,3},{1,2}} in 1-based labels.
    assert d.blocks == ((0, 3), (1, 2), (1, 3), (0, 2), (2, 3), (0, 1))
    assert d.parallel_classes == ((0, 1), (2, 3), (4, 5))


def test_round_robin_partitions():
    for v in (4, 6, 8, 10):
        d = round_robin_resolution(v)
        assert d.params.as_tuple() == (v, 2, 1, v - 1, v * (v - 1) // 2)
        for cls in d.parallel_classes:
            covered = sorted(x for i in cls for x in d.blocks[i])
            assert covered == list(range(v))


def test_round_robin_rejects_odd():
    with pytest.raises(DesignError):
        round_robin_resolution(5)


def test_fano_plane_structure():
    d = fano_plane()
    x = d.incidence.int_rows()
    assert all(sum(row) == 3 for row in x)
    assert all(sum(r[j] for r in x) == 3 for j in range(7))
    for b1, b2 in combinations(d.blocks, 2):
        assert len(set(b1) & set(b2)) == 1


def test_lift_reproduces_golden_permutation():
    lift = lift_permutation(paired_design())
    pi = lift.matrix()
    expected = [[0] * 12 for _ in range(12)]
    for row, col in enumerate(LIFT_12x12_ONE_POSITIONS):
        expected[row][col] = 1
    assert pi == ExactMatrix.from_rows(expected)


def test_lift_recomposition_identity():
    # X = (I_b (x) 1_k^T) Pi (I_v (x) 1_r) must hold for any design.
    for design in (paired_design(), fano_plane(), all_pairs_design(5)):
        p = design.params
        pi = lift_permutation(design).matrix()
        left = kron(ExactMatrix.identity(p.b), ExactMatrix.ones(1, p.k))
        right = kron(ExactMatrix.identity(p.v), ExactMatrix.ones(p.r, 1))
        assert matmul(matmul(left, pi), right) == design.incidence


def test_lift_is_permutation_matrix():
    pi = lift_permutation(fano_plane()).matrix()
    assert pi.rows == pi.cols == 21
    rows = pi.int_rows()
    assert all(sum(r) == 1 for r in rows)
    assert all(sum(r[j] for r in rows) == 1 for j in range(21))


def test_verify_qsd_all_pairs_6():
    cert = verify_qsd(all_pairs_design(6))
    assert cert.as_tuple() == (6, 2, 1, 5, 15, 0, 1)


def test_qsd_block_graph_is_built_on_request(monkeypatch):
    # verify_qsd forms X X^T once; the b x b block graph costs a second
    # triangle only when cert.block_graph is read, and is then kept.
    import etf_forge.designs as designs

    design = complement_design(all_pairs_design(6))
    kernel, calls = designs.row_product_triangle, []
    monkeypatch.setattr(designs, "row_product_triangle", lambda m: calls.append(m.rows) or kernel(m))
    cert = verify_qsd(design)
    assert calls == [15]
    graph = cert.block_graph
    assert graph is cert.block_graph and calls == [15, 15]
    blocks = [set(b) for b in design.blocks]
    assert graph == ExactMatrix.from_rows([[int(i != j and len(a & b) == cert.y) for j, b in enumerate(blocks)]
                                           for i, a in enumerate(blocks)])
    assert cert == QsdCertificate(cert.params, cert.x, cert.y, design)
    assert QsdCertificate(cert.params, cert.x, cert.y).block_graph is None


def test_verify_qsd_lambda_one_always_01():
    cert = verify_qsd(all_pairs_design(5))
    assert (cert.x, cert.y) == (0, 1)


def test_verify_qsd_rejects_symmetric():
    with pytest.raises(DesignError, match="b > v"):
        verify_qsd(fano_plane())


def test_complement_design_involution():
    d = all_pairs_design(6)
    assert complement_design(complement_design(d)).blocks == d.blocks


def test_complement_design_params():
    c = complement_design(all_pairs_design(6))
    assert c.params.as_tuple() == (6, 4, 6, 10, 15)


def test_complement_qsd_intersections():
    d = all_pairs_design(6)
    cert = verify_qsd(d)
    comp = verify_qsd(complement_design(d))
    v, k = 6, 2
    assert {comp.x, comp.y} == {v - 2 * k + cert.x, v - 2 * k + cert.y}


def test_srg_params_from_qsd_block_graphs():
    cert = verify_qsd(all_pairs_design(6))
    srg = srg_params_from_qsd(cert)
    assert srg.as_tuple() == (15, 8, 4, 4)
    assert srg.theta1.rational_value() == 2
    assert srg.theta2.rational_value() == -2

    kirkman_triple = QsdCertificate.from_params(15, 3, 1, 7, 35, 0, 1)
    assert srg_params_from_qsd(kirkman_triple).as_tuple() == (35, 18, 9, 9)


def test_srg_params_agree_with_explicit_block_graph():
    cert = verify_qsd(all_pairs_design(6))
    from_params = srg_params_from_qsd(cert)
    from_graph = verify_srg(cert.block_graph)
    assert from_params.as_tuple() == from_graph.as_tuple()
    assert from_params.theta1 == from_graph.theta1
    assert from_params.theta2 == from_graph.theta2


def test_srg_chain_agreement_small_designs():
    for design in (all_pairs_design(5), all_pairs_design(6), all_pairs_design(7),
                   complement_design(all_pairs_design(6))):
        cert = verify_qsd(design)
        if cert.params.b > 40:
            continue
        assert srg_params_from_qsd(cert).as_tuple() == verify_srg(cert.block_graph).as_tuple()


def test_verify_srg_pentagon():
    ring = [[1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)]
    srg = verify_srg(ExactMatrix.from_rows(ring))
    assert srg.as_tuple() == (5, 2, 0, 1)
    assert srg.theta1.t == 5  # golden-ratio eigenvalues are irrational


def test_verify_srg_rejects_complete_graph():
    k4 = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    with pytest.raises(DesignError):
        verify_srg(ExactMatrix.from_rows(k4))


def test_verify_srg_rejects_a_regular_graph_that_is_not_strongly_regular():
    # In the hexagon, opposite vertices share no neighbour and the others at
    # distance two share one.
    ring = [[1 if (i - j) % 6 in (1, 5) else 0 for j in range(6)] for i in range(6)]
    with pytest.raises(DesignError, match="^common-neighbor counts are not constant$"):
        verify_srg(ExactMatrix.from_rows(ring))


def test_verify_qsd_rejects_a_design_with_three_intersection_sizes():
    # Every 3-subset of 6 points is a 2-(6, 3, 4) design; its blocks meet in 0, 1 or 2 points.
    with pytest.raises(DesignError, match=r"^expected exactly two intersection sizes, found \[0, 1, 2\]$"):
        verify_qsd(Design(6, combinations(range(6), 3)))


def test_etf_params_from_srg():
    cert = QsdCertificate.from_params(15, 3, 1, 7, 35, 0, 1)
    assert etf_params_from_srg(srg_params_from_qsd(cert)) == (15, 36)

    cert6 = verify_qsd(all_pairs_design(6))
    assert etf_params_from_srg(srg_params_from_qsd(cert6)) == (6, 16)


def test_etf_params_from_srg_rejects_pentagon():
    # C5 has a = 2 mu but an irrational eigenvalue gap, so no frame exists.
    ring = [[1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)]
    srg = verify_srg(ExactMatrix.from_rows(ring))
    with pytest.raises(DesignError, match="not a perfect square"):
        etf_params_from_srg(srg)


def test_etf_params_from_srg_requires_a_eq_2mu():
    # The triangular graph T(5) = SRG(10, 6, 3, 4) has a != 2 mu.
    blocks = list(combinations(range(5), 2))
    adj = [
        [1 if i != j and set(blocks[i]) & set(blocks[j]) else 0 for j in range(10)]
        for i in range(10)
    ]
    srg = verify_srg(ExactMatrix.from_rows(adj))
    assert srg.as_tuple() == (10, 6, 3, 4)
    with pytest.raises(DesignError, match="a = 2 mu"):
        etf_params_from_srg(srg)


def test_dimension_equals_vertex_count_for_qsd_chains():
    # Any frame dimension recovered from a block graph equals v.
    for design in (all_pairs_design(6), complement_design(all_pairs_design(6))):
        cert = verify_qsd(design)
        srg = srg_params_from_qsd(cert)
        if srg.a == 2 * srg.mu:
            d, _ = etf_params_from_srg(srg)
            assert d == cert.params.v


# -- per-entry oracles for the row-level checks -------------------------
#
# Each oracle scans entry by entry and forms X^T X (or A^2) by plain sums, so
# it shares no row-level idiom with the library; a verdict is the parameters
# or the DesignError's message.


def per_entry_bibd(x: ExactMatrix):
    rows = x.int_rows()
    if rows is None or any(e not in (0, 1) for r in rows for e in r):
        raise DesignError("incidence matrix must be 0/1 valued")
    b, v = len(rows), len(rows[0])
    if v < 2:
        raise DesignError("need at least two vertices")
    row_sums = {sum(r) for r in rows}
    if len(row_sums) != 1:
        raise DesignError(f"block sizes are not constant: {sorted(row_sums)}")
    (k,) = row_sums
    xtx = [[sum(rows[i][p] * rows[i][q] for i in range(b)) for q in range(v)] for p in range(v)]
    col_sums = {xtx[p][p] for p in range(v)}
    if len(col_sums) != 1:
        raise DesignError(f"vertex replication counts are not constant: {sorted(col_sums)}")
    (r,) = col_sums
    if not v > k > 0:
        raise DesignError(f"need v > k > 0, got v={v}, k={k}")
    pair_counts = {xtx[p][q] for p in range(v) for q in range(p + 1, v)}
    if len(pair_counts) != 1:
        raise DesignError(f"pair counts are not constant: {sorted(pair_counts)}")
    (lam,) = pair_counts
    if b * k != v * r or (v - 1) * lam != r * (k - 1):
        raise DesignError("parameter relations bk = vr, (v-1)lam = r(k-1) failed")
    if not 0 <= lam < r < b:
        raise DesignError(f"need 0 <= lam < r < b, got lam={lam}, r={r}, b={b}")
    return (v, k, lam, r, b)


def per_entry_srg(a: ExactMatrix):
    rows = a.int_rows()
    if a.rows != a.cols or rows is None:
        raise DesignError("adjacency matrix must be square and 0/1 valued")
    n = a.rows
    for i in range(n):
        if rows[i][i] != 0:
            raise DesignError("adjacency matrix must have a zero diagonal")
        for j in range(n):
            if rows[i][j] not in (0, 1) or rows[i][j] != rows[j][i]:
                raise DesignError("adjacency matrix must be symmetric and 0/1 valued")
    degrees = {sum(row) for row in rows}
    if len(degrees) != 1:
        raise DesignError(f"graph is not regular: degrees {sorted(degrees)}")
    (deg,) = degrees
    if deg == 0 or deg == n - 1:
        raise DesignError("complete and empty graphs are excluded")
    common = {0: set(), 1: set()}
    for i in range(n):
        for j in range(i + 1, n):
            common[rows[i][j]].add(sum(rows[i][h] * rows[h][j] for h in range(n)))
    if len(common[1]) != 1 or len(common[0]) != 1:
        raise DesignError("common-neighbor counts are not constant")
    return (n, deg, *common[1], *common[0])


def verdict(check, m):
    try:
        result = check(m)
    except DesignError as exc:
        return ("refused", str(exc))
    return ("ok", result if isinstance(result, tuple) else result.as_tuple())


def seeded_incidences(seed):
    """Incidence-like matrices from one seed: designs, their complements and
    mutations of them (one entry flipped, or set to 2, -1 or 1/2, rows cut),
    and random 0/1 matrices."""
    rng = random.Random(seed)
    base = [INCIDENCE_6x4, [list(r) for r in fano_plane().incidence.int_rows()],
            [list(r) for r in all_pairs_design(6).incidence.int_rows()],
            [list(r) for r in complement_design(all_pairs_design(7)).incidence.int_rows()]]
    out = []
    for rows in base:
        out.append(rows)
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        for value in (1 - rows[i][j], 2, -1, Fraction(1, 2)):
            out.append([r if h != i else r[:j] + [value] + r[j + 1:] for h, r in enumerate(rows)])
        out.append(rows[: rng.randrange(1, len(rows))])
    for _ in range(6):
        b, v = rng.randint(1, 8), rng.randint(1, 7)
        out.append([[int(rng.random() < 0.5) for _ in range(v)] for _ in range(b)])
    return [ExactMatrix.from_rows(rows) for rows in out]


@pytest.mark.parametrize("seed", range(4))
def test_verify_bibd_matches_the_per_entry_oracle(seed):
    verdicts = [(verdict(verify_bibd, m), verdict(per_entry_bibd, m)) for m in seeded_incidences(seed)]
    assert all(ours == oracle for ours, oracle in verdicts)
    assert {ours[0] for ours, _ in verdicts} == {"ok", "refused"}


def test_verify_bibd_matches_the_per_entry_oracle_on_every_0_1_matrix_of_at_most_12_entries():
    # verify_bibd leaves bk = vr, (v - 1) lam = r (k - 1) and 0 <= lam < r < b
    # to the identities it checks; the oracle still checks all three.
    matrices = designs = 0
    for b in range(1, 13):
        for v in range(1, 12 // b + 1):
            for bits in range(1 << b * v):
                m = ExactMatrix.from_rows([[bits >> (i * v + j) & 1 for j in range(v)] for i in range(b)])
                ours = verdict(verify_bibd, m)
                assert ours == verdict(per_entry_bibd, m), m.int_rows()
                matrices, designs = matrices + 1, designs + (ours[0] == "ok")
    assert (matrices, designs) == (35_978, 40)


@pytest.mark.parametrize("seed", range(4))
def test_from_incidence_reads_the_blocks_of_a_0_1_matrix(seed):
    for m in seeded_incidences(seed):
        if verdict(per_entry_bibd, m)[0] == "refused":
            continue
        rows = m.int_rows()
        design = Design.from_incidence(m)
        assert design.blocks == tuple(tuple(j for j, e in enumerate(r) if e == 1) for r in rows)
        assert design.incidence == m


@pytest.mark.parametrize("value", [2, -1, Fraction(1, 2)])
def test_from_incidence_refuses_entries_outside_0_1(value):
    # A 2 or a -1 used to be read as a 0, which left a certified design
    # whose incidence matrix verify_bibd refuses.
    rows = [list(r) for r in INCIDENCE_6x4]
    rows[0][2] = value
    with pytest.raises(DesignError, match=r"^incidence matrix must be 0/1 valued$"):
        verify_bibd(ExactMatrix.from_rows(rows))
    with pytest.raises(DesignError, match=r"^incidence matrix must be 0/1 valued$"):
        Design.from_incidence(ExactMatrix.from_rows(rows))


def seeded_graphs(seed):
    """Adjacency-like matrices: strongly regular graphs (the pentagon, block
    graphs of QSDs, T(5)), mutations of them (an entry flipped on one side
    only or on both, a 2, a loop), random symmetric 0/1 matrices and a
    non-square one."""
    rng = random.Random(seed)
    pentagon = [[1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)]
    blocks = list(combinations(range(5), 2))
    triangular = [[int(i != j and len(set(p) & set(q)) == 1) for j, q in enumerate(blocks)]
                  for i, p in enumerate(blocks)]
    base = [pentagon, triangular, [list(r) for r in verify_qsd(all_pairs_design(6)).block_graph.int_rows()]]
    out = []
    for rows in base:
        out.append(rows)
        n = len(rows)
        i, j = rng.sample(range(n), 2)
        flipped = [list(r) for r in rows]
        flipped[i][j] = 1 - flipped[i][j]
        out.append([list(r) for r in flipped])
        flipped[j][i] = flipped[i][j]
        out.append(flipped)
        doubled = [list(r) for r in rows]
        doubled[i][j] = doubled[j][i] = 2
        out.append(doubled)
        looped = [list(r) for r in rows]
        looped[j][j] = 1
        out.append(looped)
    for _ in range(4):
        n = rng.randint(2, 9)
        rows = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = int(rng.random() < 0.5)
        out.append(rows)
    out.append([[0, 1, 1], [1, 0, 1]])
    return [ExactMatrix.from_rows(rows) for rows in out]


@pytest.mark.parametrize("seed", range(4))
def test_verify_srg_matches_the_per_entry_oracle(seed):
    verdicts = [(verdict(verify_srg, m), verdict(per_entry_srg, m)) for m in seeded_graphs(seed)]
    assert all(ours == oracle for ours, oracle in verdicts)
    assert {ours[0] for ours, _ in verdicts} == {"ok", "refused"}


def test_lift_permutation_matches_the_per_entry_count():
    for design in (paired_design(), fano_plane(), all_pairs_design(6), complement_design(all_pairs_design(7))):
        col_count, slots = [0] * design.v, []
        for i, row in enumerate(design.incidence.int_rows()):
            row_count = 0
            for j, e in enumerate(row):
                if e:
                    slots.append((i, j, row_count, col_count[j]))
                    row_count, col_count[j] = row_count + 1, col_count[j] + 1
        assert lift_permutation(design).slots == tuple(slots)
