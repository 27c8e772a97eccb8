import cmath
import functools
import math
import random
from fractions import Fraction

import pytest

from etf_forge.errors import DomainError, EtfForgeError
from etf_forge.frames import Frame, certify_etf, gram, verify_naimark_pair, welch_bound_sq
from etf_forge.matrices import (
    RATIONAL,
    ExactMatrix,
    cyclo_domain,
    kron,
    matmul,
    quad_domain,
    rational_rows,
    row_product_triangle,
    scaled_identity,
    squared_moduli,
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


def all_entries(mat):
    """Row-major scalar entries."""
    return [x for i in range(mat.rows) for x in mat.row(i)]


def oracle_entries(mat, domain):
    if domain.kind == "quadratic":
        return [(x.a, x.b) for x in all_entries(mat)]
    return [fraction_coeffs(x, domain.order) for x in all_entries(mat)]


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
    return ExactMatrix.from_entries(domain, a.rows, b.cols, out)


# -- the per-entry verifier oracle ------------------------------------
#
# Each verifier's checks taken one boxed entry at a time: every entry of a
# kernel product is read as a scalar, its Fraction coordinates are scanned
# for rationality and zeros, and a squared modulus is the Fraction product
# of the entry with its conjugate.  Each returns the verifier's result or
# its failure message, so the plane reads in matrices.rational_rows share no
# code with it.


def entry_coords(mat):
    dom = mat.domain
    return [[(x.a, x.b) if dom.kind == "quadratic" else fraction_coeffs(x, dom.order) for x in mat.row(i)]
            for i in range(mat.rows)]


def rational_value(c):
    return c[0] if not any(c[1:]) else None


def squared_modulus(c, domain):
    if domain.kind == "quadratic":
        return fraction_mul(c, c, domain)
    m = domain.order
    conj = [Fraction(0)] * m
    for e, x in enumerate(c):
        conj[-e % m] += x
    return fraction_mul(c, fraction_reduce(conj, m), domain)


def oracle_row_diagonal(frame):
    m = frame.matrix
    raw = entry_coords(matmul(m, m.adjoint()))
    weights = frame.row_weights or (1,) * m.rows
    diag = []
    for i in range(m.rows):
        q = rational_value(raw[i][i])
        if q is None:
            return f"row {i} has an irrational squared norm", raw
        diag.append(weights[i] * q)
    return diag, raw


def oracle_certify(frame):
    """certify_etf, entry by entry: (beta, alpha, gamma_sq, flat) or the failure."""
    d, n, dom = frame.d, frame.n, frame.domain
    g = entry_coords(gram(frame))
    norms = set()
    for j in range(n):
        q = rational_value(g[j][j])
        if q is None:
            return f"vector {j} has an irrational squared norm"
        norms.add(q)
    if len(norms) != 1:
        return f"unequal norms: squared norms {sorted(norms)}"
    beta = norms.pop()
    if beta <= 0:
        return "zero vectors are not allowed"
    diag, raw = oracle_row_diagonal(frame)
    if isinstance(diag, str):
        return diag
    if len(set(diag)) != 1:
        return f"not tight: row squared norms {sorted(set(diag))}"
    alpha = diag[0]
    for i in range(d):
        for j in range(d):
            if i != j and any(raw[i][j]):
                return f"not tight: rows {i} and {j} are not orthogonal"
    if alpha != Fraction(n) * beta / d:
        return f"not tight: scale {alpha} differs from n beta / d"
    gamma_sqs = set()
    for j in range(n):
        for j2 in range(j + 1, n):
            sq = rational_value(squared_modulus(g[j][j2], dom))
            if sq is None:
                return f"not equiangular: |<v{j}, v{j2}>|^2 is irrational"
            gamma_sqs.add(sq)
            if len(gamma_sqs) > 1:
                return f"not equiangular: squared moduli {sorted(gamma_sqs)} at ({j}, {j2})"
    gamma_sq = gamma_sqs.pop() if gamma_sqs else Fraction(0)
    if n > 1 and gamma_sq * d * (n - 1) != beta * beta * (n - d):
        return f"coherence equality violated: gamma^2 = {gamma_sq}, bound requires {beta * beta * welch_bound_sq(d, n)}"

    def unimodular(w, c):
        sq = rational_value(squared_modulus(c, dom))
        return sq is not None and w * sq == 1

    weights = frame.row_weights or (1,) * d
    flat = all(unimodular(w, c) for w, row in zip(weights, entry_coords(frame.matrix)) for c in row)
    return beta, alpha, gamma_sq, flat


def oracle_naimark(primary, complement):
    """verify_naimark_pair, entry by entry: alpha or the failure."""
    dp, n = primary.d, primary.n
    weights = (primary.row_weights or (1,) * dp) + (complement.row_weights or (1,) * (n - dp))
    diag, raw = oracle_row_diagonal(Frame(vstack(primary.matrix, complement.matrix), row_weights=weights))
    if isinstance(diag, str):
        return diag

    def first_nonzero(rows, cols):
        return next(((i, j) for i in rows for j in cols if j > i and any(raw[i][j])), None)

    alpha = diag[0]
    if len(set(diag[:dp])) != 1:
        return "primary is not tight: unequal row norms"
    if first_nonzero(range(dp), range(dp)):
        return "primary is not tight: rows not orthogonal"
    for i in range(dp, n):
        if diag[i] != alpha:
            return f"complement row {i - dp} has squared norm {diag[i]}, expected {alpha}"
    at = first_nonzero(range(dp, n), range(dp, n))
    if at:
        return f"complement rows {at[0] - dp} and {at[1] - dp} are not orthogonal"
    at = first_nonzero(range(dp), range(dp, n))
    if at:
        return f"cross block P C* is nonzero at ({at[0]}, {at[1] - dp})"
    return alpha


def oracle_hadamard(mat):
    """verify_hadamard, entry by entry: the kind or the failure."""
    n, dom = mat.rows, mat.domain
    for i, row in enumerate(entry_coords(mat)):
        for j, c in enumerate(row):
            if rational_value(squared_modulus(c, dom)) != 1:
                return f"entry ({i}, {j}) is not unimodular"
    product = entry_coords(matmul(mat, mat.adjoint()))
    for i in range(n):
        for j in range(n):
            if rational_value(product[i][j]) != (n if i == j else 0):
                return f"rows {i} and {j} fail the orthogonality identity"
    return "real" if mat.int_rows() is not None else "complex"


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
    return ExactMatrix.from_entries(cyclo_domain(order), rows, cols, entries)


def rand_quad_matrix(rng, rows, cols, t):
    entries = [
        QuadElem(t, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), Fraction(rng.randint(-4, 4), rng.choice((1, 5))))
        for _ in range(rows * cols)
    ]
    return ExactMatrix.from_entries(quad_domain(t), rows, cols, entries)


def test_trailing_zero_planes_are_trimmed_in_linear_time():
    # Dropping one trailing zero plane per copy of the plane list was
    # quadratic: 1.7 s for 30,000 planes.
    import time

    planes = [[[1]]] + [[[0]]] * 29_999
    start = time.perf_counter()
    m = ExactMatrix(RATIONAL, 1, planes)
    assert time.perf_counter() - start < 0.25
    assert m.planes == [[[1]]] and len(planes) == 30_000


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
        a = ExactMatrix.from_entries(cyclo_domain(m), 2, 3, [dense, dense * 2, CycloElem.root(m, 1)] * 2)
        b = ExactMatrix.from_entries(cyclo_domain(m), 3, 2, [dense, dense, dense * -1, CycloElem.root(m, 3), dense, dense + 1])
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
            a = ExactMatrix.from_entries(domain, 1, 40, [x] * 40)
            b = ExactMatrix.from_entries(domain, 40, 1, [x * sign] * 40)
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
    assert any(x.rational_value().denominator > 1 for x in all_entries(q))
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
        adjoint = ExactMatrix.from_entries(m.domain, m.cols, m.rows, conjugates)
        scaled = ExactMatrix.from_entries(
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


def test_bitmask_route_matches_loop_route(triangles):
    # The popcount triangle has no size threshold: a 70 x 70 {-1, 0, 1}
    # matrix times its adjoint and its 8 x 8 corner times its adjoint both
    # take it, and both match the Fraction oracle.
    rng = random.Random(41)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(70)] for _ in range(70)]
    a = ExactMatrix.from_rows(rows)
    small = ExactMatrix.from_rows([r[:8] for r in rows[:8]])
    big = matmul(a, a.adjoint())
    for i in range(8):
        for j in range(8):
            acc = sum(rows[i][t] * rows[j][t] for t in range(70))
            assert big.entry(i, j).rational_value() == acc
    assert big == oracle_matmul(a, a.adjoint())
    assert matmul(small, small.adjoint()) == oracle_matmul(small, small.adjoint())
    assert triangles == [70, 8]


@pytest.fixture
def triangles(monkeypatch):
    """The row counts of the products that take only the upper triangle."""
    import etf_forge.matrices as matrices

    calls = []
    kernel = matrices._int_matmul

    def spy(a):
        rows = kernel(a)
        if rows is not None:
            calls.append(len(a))
        return rows

    monkeypatch.setattr(matrices, "_int_matmul", spy)
    return calls


@pytest.fixture
def row_packed(monkeypatch):
    """The (rows, inner, cols) shapes of the products that take the row-packed route."""
    import etf_forge.matrices as matrices

    calls = []
    kernel = matrices._row_packed_matmul

    def spy(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return kernel(a, b)

    monkeypatch.setattr(matrices, "_row_packed_matmul", spy)
    return calls


def _sign_matrix(rng, rows, cols, zeros):
    return ExactMatrix.from_rows([[rng.choice((-1, 0, 1) if zeros else (-1, 1)) for _ in range(cols)] for _ in range(rows)])


def _hermitian_cases():
    rng = random.Random(2024)
    lifted = ExactMatrix.from_entries(
        cyclo_domain(12), 3, 4, [rand_cyclo_entry(rng, rng.choice((3, 4))) for _ in range(12)]
    )
    return {
        "q_signs_and_zeros": _sign_matrix(rng, 4, 6, True),
        "q_full_support": _sign_matrix(rng, 5, 7, False),
        "q_large_integers": ExactMatrix.from_rows([[rng.randint(-40, 40) for _ in range(5)] for _ in range(3)]),
        "q_fractions": rand_cyclo_matrix(rng, 4, 3, 1),
        **{f"order_{m}": rand_cyclo_matrix(rng, 3, 4, m) for m in (3, 4, 8, 13, 31)},
        "order_12_lifted_from_3_and_4": lifted,
        "order_4_lifted_to_8": rand_cyclo_matrix(rng, 3, 3, 4).with_domain(cyclo_domain(8)),
        "q_sqrt_6": rand_quad_matrix(rng, 3, 4, 6),
    }


_TRIANGLE_CASES = {"q_signs_and_zeros", "q_full_support"}  # entries in {-1, 0, 1}


@pytest.mark.parametrize("name", sorted(_hermitian_cases()))
def test_hermitian_products_take_one_triangle_and_match_the_oracle(name, triangles, row_packed):
    # Only {-1, 0, 1} entries take the popcount triangle; every other
    # Hermitian product takes the row-packed route in full.
    a = _hermitian_cases()[name]
    star = a.adjoint()
    for x, y in ((star, a), (a, star)):
        want = oracle_matmul(x, y)
        assert matmul(x, y) == want
        assert triangles == ([x.rows] if name in _TRIANGLE_CASES else [])
        triangles.clear()
    near = [[list(r) for r in p] for p in star.planes]
    near[0][-1][0] += 1
    near = ExactMatrix(star.domain, star.den, near)  # a* except at one entry
    assert matmul(a, near) == oracle_matmul(a, near) != want
    assert triangles == []
    assert len(row_packed) == (1 if name in _TRIANGLE_CASES else 3)  # ``near`` is never a triangle


def _row_packed_cases():
    rng = random.Random(9)
    signs = [1, -1, 0, 1, 1, -1, 1, 0, -1]  # nine slots: the row takes the byte codec
    cases = {}
    for k in (8, 16, 32, 64, 72):
        top = 2 ** (k - 1) - 1 if k <= 64 else 2**70  # an outer product: every output entry is on the bound
        assert k > 64 or top.bit_length() + 1 == k
        cases[f"slot_edge_{k}"] = (ExactMatrix.from_rows([[top], [-top], [1], [0]]), ExactMatrix.from_rows([signs]))
    zero = ExactMatrix(RATIONAL, 1, [[[0] * 5 for _ in range(3)]])
    big = ExactMatrix.from_rows([[rng.randint(-10**30, 10**30) for _ in range(4)] for _ in range(5)])
    cases.update({
        "zero_left": (zero, big),
        "zero_right": (rand_cyclo_matrix(rng, 2, 3, 13), zero.with_domain(cyclo_domain(13))),
        "one_by_one": (ExactMatrix.from_rows([[7]]), ExactMatrix.from_rows([[-3]])),
        "signs_and_zeros": (_sign_matrix(rng, 6, 9, True), _sign_matrix(rng, 9, 5, True)),
        "large_integers": (big.transpose(), big),
        "fractions": (rand_cyclo_matrix(rng, 4, 5, 1), rand_cyclo_matrix(rng, 5, 3, 1)),
        **{f"order_{m}": (rand_cyclo_matrix(rng, 3, 4, m), rand_cyclo_matrix(rng, 4, 5, m)) for m in (3, 4, 8, 13, 31)},
        "orders_3_and_4_lifted_to_12": (rand_cyclo_matrix(rng, 3, 4, 3), rand_cyclo_matrix(rng, 4, 2, 4)),
        "order_4_lifted_to_8": (rand_cyclo_matrix(rng, 2, 3, 4).with_domain(cyclo_domain(8)), rand_cyclo_matrix(rng, 3, 3, 8)),
        "rational_times_order_13": (big.take_rows(range(2)), rand_cyclo_matrix(rng, 4, 3, 13)),
        "q_sqrt_6": (rand_quad_matrix(rng, 3, 4, 6), rand_quad_matrix(rng, 4, 2, 6)),
        "q_sqrt_6_times_rationals": (rand_quad_matrix(rng, 3, 4, 6), rand_quad_matrix(rng, 4, 3, 1)),
    })
    return cases


@pytest.mark.parametrize("name", sorted(_row_packed_cases()))
def test_row_packed_route_matches_the_oracle(name, triangles, row_packed):
    a, b = _row_packed_cases()[name]
    assert matmul(a, b) == oracle_matmul(a, b)
    assert row_packed == [(a.rows, a.cols, b.cols)] and triangles == []


def test_non_hermitian_products_with_a_zero_are_row_packed(triangles, row_packed):
    # The Kirkman rotation I_r (x) E times a {-1, 0, 1} block matrix, and the
    # outer product behind kron, once took a popcount per output entry; kron's
    # outer product has one row per distinct entry of a (here -1, 0 and 1).
    rng = random.Random(12)
    e = _sign_matrix(rng, 4, 4, False)
    rotation = kron(ExactMatrix.identity(3), e)
    blocks = _sign_matrix(rng, 12, 20, True)
    row_packed.clear()
    assert matmul(rotation, blocks) == oracle_matmul(rotation, blocks)
    assert kron(blocks, e) == oracle_kron(blocks, e)
    assert row_packed == [(12, 12, 20), (3, 1, 16)] and triangles == []


def _kron_cases():
    """Operand pairs beyond sign matrices; kron takes each over the unified domain."""
    rng = random.Random(27)
    zero = ExactMatrix(RATIONAL, 1, [[[0] * 3 for _ in range(2)]])
    cases = {f"order_{m}": (rand_cyclo_matrix(rng, 3, 2, m), rand_cyclo_matrix(rng, 2, 3, m)) for m in (3, 8, 13)}
    cases.update({
        "q_sqrt_6_times_rationals": (rand_quad_matrix(rng, 2, 3, 6), rand_quad_matrix(rng, 3, 2, 1)),
        "rationals_times_q_sqrt_6": (rand_quad_matrix(rng, 2, 2, 1), rand_quad_matrix(rng, 3, 2, 6)),
        "fractions": (rand_cyclo_matrix(rng, 3, 4, 1), rand_cyclo_matrix(rng, 2, 3, 1)),
        "zero_left": (zero, rand_cyclo_matrix(rng, 2, 2, 8)),
        "orders_3_and_4_lifted_to_12": (rand_cyclo_matrix(rng, 2, 3, 3), rand_cyclo_matrix(rng, 3, 2, 4)),
        "orders_4_and_3_lifted_to_12": (rand_cyclo_matrix(rng, 3, 3, 4), rand_cyclo_matrix(rng, 2, 2, 3)),
    })
    return cases


def oracle_kron(a, b):
    """One scalar product per entry, over the unified domain."""
    return ExactMatrix.from_rows([[x * y for x in a.row(i // b.rows) for y in b.row(i % b.rows)]
                                  for i in range(a.rows * b.rows)], a.domain.unify(b.domain))


def test_kron_matches_the_per_entry_oracle():
    # kron multiplies each distinct entry of a by b once and gathers the
    # blocks; the oracle multiplies every pair of entries on its own.
    rng = random.Random(26)
    for rows, cols, zeros in ((1, 1, False), (1, 5, True), (3, 4, True), (4, 4, False), (5, 2, True)):
        x, y = _sign_matrix(rng, rows, cols, zeros), _sign_matrix(rng, cols, rows + 1, zeros)
        for a, b in ((x, x), (x, y), (y, x), (y, y)):
            k = kron(a, b)
            want = oracle_kron(a, b)
            assert (k.domain, k.den, k.planes) == (want.domain, want.den, want.planes)
    cases = _kron_cases()
    for name, (a, b) in cases.items():
        k, want = kron(a, b), oracle_kron(a, b)
        assert (k.domain, k.den, k.planes) == (want.domain, want.den, want.planes), name
    assert kron(*cases["fractions"]).den != 1


def test_kron_of_a_sign_matrix_with_itself_takes_no_popcount_triangle(monkeypatch, triangles):
    # kron(x, x) multiplies the column of x's distinct entries by x flattened
    # into one row: an outer product, with inner dimension 1, which the
    # triangle and its mirror would only slow down.
    import etf_forge.matrices as matrices

    x = _sign_matrix(random.Random(27), 6, 10, True)
    assert gram(Frame(x)) == oracle_matmul(x.transpose(), x)
    assert triangles == [10]  # a {-1, 0, 1} frame's Gram still takes the triangle

    def no_triangle(a):
        raise AssertionError("kron takes no popcount triangle")

    monkeypatch.setattr(matrices, "_int_matmul", no_triangle)
    assert kron(x, x) == oracle_kron(x, x)


def test_weighted_row_grams_take_the_full_route(triangles):
    rng = random.Random(8)
    for m in (rand_cyclo_matrix(rng, 3, 4, 13), _sign_matrix(rng, 3, 4, False)):
        scaled = m.scale_rows((Fraction(1, 2), 3, Fraction(2, 7)))
        assert matmul(m.adjoint(), scaled) == oracle_matmul(m.adjoint(), scaled)
    assert triangles == []


@pytest.mark.parametrize("size", [1, 2, 8, 70])
@pytest.mark.parametrize("zeros", [False, True])
def test_popcount_route_matches_the_oracle(size, zeros, triangles):
    rng = random.Random(size)
    inner = min(size, 8)  # keeps the 70 x 70 products cheap for the oracle
    a = _sign_matrix(rng, size, inner, zeros)
    b = _sign_matrix(rng, inner, size, zeros)
    assert matmul(a, b) == oracle_matmul(a, b)
    assert matmul(b, a) == oracle_matmul(b, a)
    assert triangles == [size, inner] * (b == a.transpose())  # a Gram product only when b is a^T
    triangles.clear()
    for x, y in ((a, a.adjoint()), (b.adjoint(), b)):
        assert matmul(x, y) == oracle_matmul(x, y) == matmul(y.adjoint(), x.adjoint())
    assert triangles == [size] * 4


def test_route_follows_the_operand_values_not_their_spelling(triangles, row_packed):
    # matmul takes the popcount triangle exactly when b's plane is a's plane
    # transposed and the entries are in {-1, 0, 1}, however b was built.
    rng = random.Random(14)
    for zeros in (False, True):
        a = _sign_matrix(rng, 6, 9, zeros)
        want = oracle_matmul(a, a.adjoint())
        copied = ExactMatrix(a.domain, a.den, [[list(c) for c in zip(*p)] for p in a.planes])
        for b in (a.adjoint(), a.transpose(), copied):
            assert matmul(a, b) == want
        assert matmul(a, a.transpose().scale(Fraction(1, 3))) == want.scale(Fraction(1, 3))
        assert triangles == [6] * 4 and row_packed == []
        near = [[list(c) for c in zip(*p)] for p in a.planes]
        near[0][0][-1] = -near[0][0][-1] or 1  # a^T except in its last column, still a sign
        near = ExactMatrix(a.domain, a.den, near)
        other = _sign_matrix(rng, 9, 6, zeros)  # the Gram shape, but not a^T
        for b in (near, other):
            assert matmul(a, b) == oracle_matmul(a, b) != want
        square = _sign_matrix(rng, 6, 6, False)
        assert square != square.transpose()
        assert matmul(square, square) == oracle_matmul(square, square)
        assert triangles == [6] * 4 and row_packed == [(6, 9, 6), (6, 9, 6), (6, 6, 6)]
        triangles.clear()
        row_packed.clear()


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
    for empty in (lambda: ExactMatrix.identity(1).drop_row(0), lambda: ExactMatrix.from_entries(RATIONAL, 0, 0, [])):
        with pytest.raises(DomainError, match="dimensions must be positive"):
            empty()


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


def test_entry_is_the_canonical_form_of_the_planes():
    # A scalar holds what one entry holds: (den, ints) of the planes at (i, j),
    # divided by their gcd with den, trailing zero coordinates dropped.
    def canonical(m, i, j):
        ints = [p[i][j] for p in m.planes]
        while len(ints) > 1 and not ints[-1]:
            ints.pop()
        g = math.gcd(m.den, *ints)
        return m.den // g, tuple(c // g for c in ints)

    rational = ExactMatrix(RATIONAL, 6, [[[3, 4, 0], [6, 5, -12]]])
    cyclo = ExactMatrix(cyclo_domain(5), 10, [[[5, 0, 4]], [[2, 0, 6]], [[0, 0, 0]], [[4, 0, 0]]])
    quad = ExactMatrix(quad_domain(6), 4, [[[2, 1, 0]], [[0, 3, 4]]])
    expected = [
        (rational, [[(2, (1,)), (3, (2,)), (1, (0,))], [(1, (1,)), (6, (5,)), (1, (-2,))]]),
        (cyclo, [[(10, (5, 2, 0, 4)), (1, (0,)), (5, (2, 3))]]),
        (quad, [[(2, (1,)), (4, (1, 3)), (1, (0, 1))]]),
    ]
    for m, rows in expected:
        for i, row in enumerate(rows):
            for j, form in enumerate(row):
                x = m.entry(i, j)
                assert (x.den, x.ints) == form == canonical(m, i, j)
                assert x.domain == (quad_domain(1) if m is quad and len(form[1]) == 1 else m.domain)
    assert quad.entry(0, 0).t == 1 and quad.entry(0, 1).t == 6


def test_adjoint_conjugates_and_transposes():
    i = CycloElem.root(4)
    a = ExactMatrix.from_rows([[i, 1], [0, i * i]], cyclo_domain(4))
    adj = a.adjoint()
    assert adj.entry(0, 0) == i * -1
    assert adj.entry(1, 0) == 1
    assert adj.entry(0, 1) == 0
    assert adj.entry(1, 1) == -1


def test_kron_block_structure():
    a = ExactMatrix.from_rows([[1, -1], [0, 2]])
    b = ExactMatrix.from_rows([[1, 1], [1, -1]])
    k = kron(a, b)
    assert k.rows == k.cols == 4
    assert [v.rational_value() for v in k.row(0)] == [1, 1, -1, -1]
    assert [v.rational_value() for v in k.row(3)] == [0, 0, 2, -2]


def test_vstack_and_equality_across_kinds():
    a = ExactMatrix.from_rows([[1, 0]], RATIONAL)
    b = ExactMatrix.from_rows([[0, 1]], RATIONAL)
    s = vstack(a, b)
    assert s == ExactMatrix.identity(2)
    q = ExactMatrix.from_rows([[1, 0], [0, 1]], quad_domain(2))
    assert s == q  # both rational-valued, so comparable across kinds
    assert s != s.scale(Fraction(1, 2)) and q.scale(Fraction(1, 2)) == s.scale(Fraction(1, 2))


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


# -- the plane-based verifiers against the per-entry oracle -----------


def harmonic_pair(orders, subset):
    from etf_forge.constructions import harmonic_etf, verify_difference_set
    from etf_forge.hadamard import AbelianGroup

    pair = harmonic_etf(verify_difference_set(AbelianGroup(orders), subset))
    return pair.primary, pair.complement


def row_split(h, rows):
    """(rows of h, the other rows) as unweighted frames."""
    rest = [i for i in range(h.rows) if i not in rows]
    return Frame(h.take_rows(rows)), Frame(h.take_rows(rest))


def replace_row(frame, i, row):
    m = frame.matrix
    rows = [list(m.row(k)) for k in range(m.rows)]
    rows[i] = list(row)
    return Frame(ExactMatrix.from_rows(rows, m.domain), row_weights=frame.row_weights)


def sts15_frame():
    from etf_forge.designs import Design, verify_qsd
    from etf_forge.qsd_bridge import etf_from_qsd

    points = range(1, 16)
    lines = sorted({tuple(sorted((a, b, a ^ b))) for a in points for b in points if a < b})
    return etf_from_qsd(verify_qsd(Design(15, [[x - 1 for x in line] for line in lines])), "plus")[0]


@functools.lru_cache(maxsize=None)
def verifier_inputs():
    """VERIFIER_INPUTS name -> (frames to certify, pairs to verify, matrices to verify as Hadamard)."""
    from etf_forge.designs import all_pairs_design, complement_design, verify_qsd
    from etf_forge.hadamard import dft, sylvester
    from etf_forge.qsd_bridge import etf_from_qsd

    from test_frames import flat_frame, simplex_frame, steiner_complement, steiner_frame

    half = Fraction(1, 2)
    fractional = etf_from_qsd(verify_qsd(complement_design(all_pairs_design(6))), "plus")[0]
    h4 = dft(4).body
    o3 = row_split(dft(3).body, [1, 2])
    o4 = harmonic_pair((4, 4), (1, 2, 3, 4, 8, 12))
    o8 = row_split(dft(8).body, list(range(1, 8)))
    o13 = harmonic_pair((13,), (0, 1, 3, 9))
    o31 = harmonic_pair((31,), (1, 5, 11, 24, 25, 27))
    r2 = QuadElem(2, 0, 1)
    return {
        "rational-integer": ([flat_frame(), steiner_frame(), steiner_complement()],
                             [(steiner_frame(), steiner_complement())], [sylvester(2).body]),
        "rational-fraction": ([fractional, Frame(simplex_frame().matrix.scale(half))],
                              [(Frame(ExactMatrix.ones(1, 4).scale(half)), Frame(simplex_frame().matrix.scale(half)))],
                              [ExactMatrix.from_rows([[1, 0], [0, 1]]).scale(half)]),
        "order-3": ([o3[0]], [o3[::-1]], [dft(3).body]),
        "order-4": ([o4[0], o4[1]], [o4], [h4]),
        "order-8": ([o8[0]], [o8], [dft(8).body]),
        "order-13": ([o13[0], o13[1]], [o13], [dft(13).body]),
        "order-31": ([o31[0]], [o31], []),
        "q-sqrt-6": ([sts15_frame()], [], []),
        # One failing input per identity, each named with its index.
        "fail-unimodular": ([], [], [replace_row(Frame(h4), 1, [1, h4.entry(1, 1), 0, h4.entry(1, 3)]).matrix]),
        "fail-orthogonality": ([], [], [h4.take_rows([0, 1, 2, 1])]),
        "fail-squared-moduli": ([Frame(h4.take_rows([0, 1]))], [], []),
        "fail-irrational-modulus": ([Frame(dft(7).body.take_rows([1, 2]))], [], []),
        "fail-irrational-norm": ([Frame(ExactMatrix.from_rows([[r2 + 1, 1], [1, -1]], quad_domain(2)))], [], []),
        "fail-complement-rows": ([], [(o13[0], replace_row(o13[1], 2, o13[1].matrix.row(1)))], []),
        "fail-cross-block": ([], [(o13[0], replace_row(o13[1], 0, o13[0].matrix.row(0)))], []),
        # An irrational off-diagonal entry is nonzero, so it must fail like a rational one.
        "fail-irrational-rows": ([Frame(ExactMatrix.from_rows([[1] * 4, list(dft(8).body.row(1))[:4]], cyclo_domain(8)))],
                                 [], []),
        "fail-irrational-cross-block": ([], [(Frame(ExactMatrix.from_rows([[1, 1]], quad_domain(2))),
                                              Frame(ExactMatrix.from_rows([[r2, 0]], quad_domain(2))))], []),
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except EtfForgeError as exc:
        return str(exc)


VERIFIER_INPUTS = (
    "rational-integer", "rational-fraction", "order-3", "order-4", "order-8", "order-13", "order-31", "q-sqrt-6",
    "fail-unimodular", "fail-orthogonality", "fail-squared-moduli", "fail-irrational-modulus",
    "fail-irrational-norm", "fail-complement-rows", "fail-cross-block", "fail-irrational-rows",
    "fail-irrational-cross-block",
)


@pytest.mark.parametrize("name", VERIFIER_INPUTS)
def test_plane_verifiers_match_the_per_entry_oracle(name):
    from etf_forge.hadamard import verify_hadamard

    frames, pairs, hadamards = verifier_inputs()[name]
    for frame in frames:
        cert = outcome(certify_etf, frame)
        got = cert if isinstance(cert, str) else (cert.beta, cert.alpha, cert.gamma_sq, cert.flat)
        assert got == oracle_certify(frame)
    for primary, complement in pairs:
        pair = outcome(verify_naimark_pair, primary, complement)
        assert (pair if isinstance(pair, str) else pair.alpha) == oracle_naimark(primary, complement)
    for mat in hadamards:
        h = outcome(verify_hadamard, mat)
        assert (h if isinstance(h, str) else h.kind) == oracle_hadamard(mat)
    if name.startswith("fail-"):
        results = [outcome(certify_etf, f) for f in frames] + [outcome(verify_naimark_pair, *p) for p in pairs]
        results += [outcome(verify_hadamard, m) for m in hadamards]
        assert len(results) == 1 and isinstance(results[0], str)


def test_failing_inputs_name_their_identity_and_index():
    expected = {
        "fail-unimodular": "entry (1, 2) is not unimodular",
        "fail-orthogonality": "rows 1 and 3 fail the orthogonality identity",
        "fail-squared-moduli": "not equiangular: squared moduli [Fraction(0, 1), Fraction(2, 1)] at (0, 2)",
        "fail-irrational-modulus": "not equiangular: |<v0, v1>|^2 is irrational",
        "fail-irrational-norm": "vector 0 has an irrational squared norm",
        "fail-complement-rows": "complement rows 1 and 2 are not orthogonal",
        "fail-cross-block": "cross block P C* is nonzero at (0, 0)",
        "fail-irrational-rows": "not tight: rows 0 and 1 are not orthogonal",
        "fail-irrational-cross-block": "cross block P C* is nonzero at (0, 0)",
    }
    from etf_forge.hadamard import verify_hadamard

    inputs = verifier_inputs()
    assert tuple(inputs) == VERIFIER_INPUTS
    for name, message in expected.items():
        frames, pairs, hadamards = inputs[name]
        got = [outcome(certify_etf, f) for f in frames] + [outcome(verify_naimark_pair, *p) for p in pairs]
        got += [outcome(verify_hadamard, m) for m in hadamards]
        assert got == [message], name


def _roots_matrix(exponents, order):
    """The matrix of zeta_order ** exponents[i][j], over the rationals when order is 2."""
    if order == 2:
        return ExactMatrix.from_rows([[(-1) ** e for e in row] for row in exponents])
    n = len(exponents)
    return ExactMatrix.from_entries(cyclo_domain(order), n, n, [CycloElem.root(order, e) for row in exponents for e in row])


def _flat_exponent_cases(rng, order):
    """Flat matrices as exponent tables: Hadamard ones with their rows shuffled, the same with
    row j replaced by zeta^t times row i (i < j) or with one entry turned, and random ones."""
    if order == 2:
        from etf_forge.hadamard import paley_one, sylvester

        hadamards = [[[(1 - x) // 2 for x in r] for r in h.body.planes[0]] for h in (sylvester(2), sylvester(3), paley_one(11))]
    else:
        hadamards = [[[i * j * (8 // n) % 8 for j in range(n)] for i in range(n)] for n in (4, 8)]  # DFT(4) and DFT(8)
    for h in hadamards:
        n = len(h)
        for _ in range(6):
            e = rng.sample(h, n)
            yield e
            i, j = sorted(rng.sample(range(n), 2))
            t = rng.randrange(order)
            yield [[(x + t) % order for x in e[i]] if r == j else e[r] for r in range(n)]
            r, c = rng.randrange(n), rng.randrange(n)
            yield [[(x + 1) % order if (a, b) == (r, c) else x for b, x in enumerate(row)] for a, row in enumerate(e)]
    for n in range(4, 13):
        yield [[rng.randrange(order) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("order", (2, 8))
def test_verify_hadamard_names_the_rows_of_the_per_entry_products_first_nonzero(order):
    # A flat matrix passes the unimodular gate, so every diagonal entry of H H* is n and
    # the first failure is the first nonzero above the diagonal.  The oracle forms H H*
    # entry by entry, conjugating zeta^e as zeta^-e.
    from etf_forge.hadamard import verify_hadamard

    named = set()
    for e in _flat_exponent_cases(random.Random(order), order):
        n, h = len(e), _roots_matrix(e, order)
        product = oracle_matmul(h, _roots_matrix([[-e[j][i] % order for j in range(n)] for i in range(n)], order))
        assert all(product.entry(i, i).rational_value() == n for i in range(n))
        at = next(((i, j) for i in range(n) for j in range(i + 1, n) if any(p[i][j] for p in product.planes)), None)
        got = outcome(verify_hadamard, h)
        if at is None:
            assert got.kind == ("real" if order == 2 else "complex")
        else:
            assert got == f"rows {at[0]} and {at[1]} fail the orthogonality identity"
            named.add(at)
    assert len(named) > 10 and any(i > 0 for i, _ in named)


def test_rational_rows_reads_values_zeros_and_squared_moduli():
    i = CycloElem.root(4)
    m = ExactMatrix.from_rows([[Fraction(1, 2), i, 0], [i + 1, Fraction(-3, 4), 2]], cyclo_domain(4))
    den, values = rational_rows(m)
    assert (den, values) == (4, [[2, None, 0], [None, -3, 8]])
    den, sq = rational_rows(m, squared=True)
    assert [[Fraction(x, den) for x in row] for row in sq] == [[Fraction(1, 4), 1, 0], [2, Fraction(9, 16), 4]]


@pytest.mark.parametrize("domain", [RATIONAL, cyclo_domain(3), cyclo_domain(4), cyclo_domain(8), cyclo_domain(13),
                                    quad_domain(6)], ids=str)
def test_plane_operations_match_entrywise_scalars(domain):
    rng = random.Random(str(domain))

    def rand(rows, cols):
        if domain.kind == "quadratic":
            return rand_quad_matrix(rng, rows, cols, domain.radicand)
        return rand_cyclo_matrix(rng, rows, cols, domain.order)

    a, b, c = rand(3, 4), rand(3, 4), rand(2, 4)
    assert ExactMatrix.from_entries(domain, 3, 4, all_entries(a)) == a
    factors = [Fraction(2, 3), -5, Fraction(1, 7)]
    total, scaled, adj = a + b, a.scale_rows(factors), a.adjoint()
    for i in range(3):
        for j in range(4):
            x = a.entry(i, j)
            assert total.entry(i, j) == x + b.entry(i, j)
            assert abs(embed((a - b).entry(i, j)) - (embed(x) - embed(b.entry(i, j)))) < 1e-9
            assert scaled.entry(i, j) == x * factors[i]
            assert adj.entry(j, i) == x.conjugate()
    assert all_entries(vstack(a, c)) == all_entries(a) + all_entries(c)
    assert all_entries(a.take_rows([2, 0])) == list(a.row(2) + a.row(0))
    k = kron(a, c)
    for i, j, p, q in ((0, 0, 0, 0), (2, 3, 1, 2), (1, 2, 0, 3)):
        assert k.entry(i * 2 + p, j * 4 + q) == a.entry(i, j) * c.entry(p, q)
    if domain.kind == "cyclotomic":
        lifted = a.with_domain(cyclo_domain(2 * domain.order))
        assert all_entries(lifted) == all_entries(a) and lifted == a


# -- one table of distinct entries ------------------------------------
#
# rational_rows(squared=True), the row-packed route's packing of its left
# operand and matrix_text each do their per-entry work once per distinct
# entry, through matrices.per_entry.  Each is checked against the same code
# with that table taken out, and against the per-entry Fraction oracle, on
# structured matrices with few distinct entries and on dense random ones
# whose entries are all distinct.


def every_entry(m, fn):
    """matrices.per_entry without its table: fn sees every entry of each row."""
    return [fn(list(zip(*rs))) for rs in zip(*m.planes)]


def block(m, rows, cols):
    return m.take_rows(rows).transpose().take_rows(cols).transpose()


def distinct_entry_count(m):
    return len({c for rs in zip(*m.planes) for c in zip(*rs)})


@functools.lru_cache(maxsize=None)
def distinct_entry_inputs():
    """name -> (matrix, whether its entries are all distinct)."""
    from etf_forge.constructions import SteinerInputs, steiner_naimark
    from etf_forge.designs import all_pairs_design, lift_permutation
    from etf_forge.hadamard import dft, sylvester

    rng = random.Random(11)
    dense31 = [[[rng.randint(-3, 3) for _ in range(7)] for _ in range(9)] for _ in range(30)]
    # Entry (0, 0) is 80 / 3 times the Gauss sum g = sum_e (e / 31) zeta^e,
    # whose coordinates are 0, 1 or 2 and |g|^2 = 31: a rational squared
    # modulus whose unreduced product overflows any slot narrower than the
    # bound (entries, times the largest coordinate squared) allows.
    gauss = CycloElem.from_terms({e: 1 if pow(e, 15, 31) == 1 else -1 for e in range(1, 31)}, 31)
    for plane, c in zip(dense31, gauss.coeffs):
        plane[0][0] = 80 * int(c)
    steiner = steiner_naimark(SteinerInputs(lift_permutation(all_pairs_design(8)), sylvester(1), dft(8), 1))
    o4, o31 = harmonic_pair((4, 4), (1, 2, 3, 4, 8, 12)), harmonic_pair((31,), (1, 5, 11, 24, 25, 27))
    return {
        "dft13": (dft(13).body, False),
        "z4xz4-primary": (o4[0].matrix, False),
        "z4xz4-complement": (o4[1].matrix, False),
        "z31-primary": (o31[0].matrix, False),
        "z31-complement": (o31[1].matrix, False),
        "z31-gram": (gram(o31[0]), False),
        "steiner8-primary": (steiner.primary.matrix, False),
        "steiner8-complement": (steiner.complement.matrix, False),
        "dense-order-31": (ExactMatrix(cyclo_domain(31), 3, dense31), True),
        "dense-q-sqrt-6": (ExactMatrix(quad_domain(6), 5, [[[rng.randint(-99, 99) for _ in range(8)] for _ in range(9)]
                                                           for _ in range(2)]), True),
    }


@pytest.mark.parametrize("name", list(distinct_entry_inputs()))
def test_distinct_entry_table_matches_every_entry_and_the_oracle(name, monkeypatch):
    from etf_forge import matrices, serialize

    m, all_distinct = distinct_entry_inputs()[name]
    assert (distinct_entry_count(m) == m.rows * m.cols) is all_distinct
    products = ((m, m.adjoint()), (m.adjoint(), m))
    got = [rational_rows(m, squared=True)] + [matmul(a, b) for a, b in products]
    document = serialize.matrix_text(m)
    monkeypatch.setattr(matrices, "per_entry", every_entry)
    monkeypatch.setattr(serialize, "per_entry", every_entry)
    assert got == [rational_rows(m, squared=True)] + [matmul(a, b) for a, b in products]
    assert serialize.matrix_text(m) == document

    # The oracle at order 31 costs about 900 Fraction products an entry: its
    # squared moduli are kept by coordinates, and each product is checked on
    # a seeded 2 x 2 block.
    den, sq = got[0]
    oracle_sq = functools.lru_cache(maxsize=None)(lambda c: rational_value(squared_modulus(c, m.domain)))
    assert [[None if x is None else Fraction(x, den) for x in row] for row in sq] == [
        list(map(oracle_sq, row)) for row in entry_coords(m)]
    rng = random.Random(name)
    for (a, b), p in zip(products, got[1:]):
        rows, cols = sorted(rng.sample(range(a.rows), min(2, a.rows))), sorted(rng.sample(range(b.cols), min(2, b.cols)))
        assert block(p, rows, cols) == oracle_matmul(a.take_rows(rows), block(b, range(b.rows), cols))


def test_distinct_entries_bound_the_scalar_kernel_calls(monkeypatch):
    # The (6, 31) harmonic frames hold 31 distinct roots of unity and their
    # 31 x 31 Gram 11 distinct values, so a squared modulus or a packing per
    # entry (2,883 convolve and 8,159 pack calls here) is work per distinct
    # entry repeated.  Both are counted in every module that holds them.
    import sys

    from etf_forge import scalars
    from etf_forge.recipes import recipe, replay

    counts = dict.fromkeys(("convolve", "pack"), 0)
    for name in counts:
        original = getattr(scalars, name)

        def spy(*args, _fn=original, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("etf_forge") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    artifact = replay(recipe("harmonic", group=[31], subset=[1, 5, 11, 24, 25, 27]))
    for frame in artifact.frames().values():
        certify_etf(frame)
    assert 0 < counts["pack"] <= 800 and counts["convolve"] <= 200, counts


@pytest.mark.parametrize("name", ["z31-primary", "dense-order-31", "dense-q-sqrt-6"])
def test_adjoint_and_with_domain_reduce_once_and_match_the_oracle(name, monkeypatch):
    # The conjugate of an adjoint, and a lift to a larger order, are one
    # reduction of the whole matrix; each entry is checked against its
    # Fraction coordinates, conjugated or lifted one at a time.
    from etf_forge import scalars

    m, _ = distinct_entry_inputs()[name]
    domain = m.domain
    calls = []
    for fn in ("reduce_mod_cyclotomic", "reduce_quadratic"):
        original = getattr(scalars, fn)
        monkeypatch.setattr(scalars, fn, lambda *args, _fn=original: calls.append(1) or _fn(*args))
    adj = m.adjoint()
    wider = cyclo_domain(2 * domain.order) if domain.kind == "cyclotomic" else domain
    lifted = m.with_domain(wider)
    assert len(calls) == (2 if domain.kind == "cyclotomic" else 1)
    coords = entry_coords(m)
    if domain.kind == "cyclotomic":
        order = domain.order

        def conjugate(c):
            acc = [Fraction(0)] * order
            for e, x in enumerate(c):
                acc[-e % order] += x
            return fraction_reduce(acc, order)

        assert entry_coords(lifted) == [[fraction_coeffs(x, wider.order) for x in m.row(i)] for i in range(m.rows)]
    else:
        def conjugate(c):
            return c

        assert lifted is m
        rational = ExactMatrix(RATIONAL, m.den, m.planes[:1])
        assert entry_coords(rational.with_domain(domain)) == [[(c[0], 0) for c in row] for row in coords]
    assert (adj.rows, adj.cols) == (m.cols, m.rows)
    assert entry_coords(adj) == [[conjugate(coords[i][j]) for i in range(m.rows)] for j in range(m.cols)]


def test_from_flat_rows_are_fresh_lists():
    from etf_forge.matrices import from_flat

    flat = [1, -1, 0, 2, 3, 4]
    for plane in (flat, tuple(flat), iter(flat)):
        m = from_flat(RATIONAL, 3, 1, [plane])
        assert m.planes[0] == [[1, -1, 0], [2, 3, 4]] and {type(r) for r in m.planes[0]} == {list}
    flat[0] = 9
    assert m.planes[0][0][0] == 1


@pytest.mark.parametrize("value", [2, -2, 127, -128, 128, -129, 2**70])
def test_entries_off_the_signs_leave_the_popcount_routes(value, triangles, row_packed):
    # _sign_masks refuses an entry outside {-1, 0, 1} wherever it sits: a
    # struct.error outside the signed bytes, an unreadable digit inside them.
    rng = random.Random(value % 97)
    rows = [[rng.choice((-1, 1)) for _ in range(9)] for _ in range(4)]
    rows[-1][-1] = value
    a = ExactMatrix.from_rows(rows)
    assert matmul(a, a.adjoint()) == oracle_matmul(a, a.adjoint())
    assert matmul(a, a.transpose()) == oracle_matmul(a, a.transpose())
    assert triangles == [] and len(row_packed) == 2


def _upper_values(m: ExactMatrix) -> list[list]:
    """The upper triangle of m m* by the Fraction oracle, each entry its rational value or None."""
    p = oracle_matmul(m, m.adjoint())
    return [[p.entry(i, j).rational_value() for j in range(i, p.cols)] for i in range(p.rows)]


@pytest.mark.parametrize("name", sorted(_hermitian_cases()))
def test_row_product_triangle_and_squared_moduli_match_the_oracle(name, triangles):
    m = _hermitian_cases()[name]
    den, upper = row_product_triangle(m)
    assert [[None if x is None else Fraction(x, den) for x in r] for r in upper] == _upper_values(m)
    assert triangles == ([m.rows] if name in _TRIANGLE_CASES else [])
    for segments in ([(i, 0) for i in range(m.rows)], [(i, i + 1) for i in range(m.rows)], [(0, 1)]):
        entries = [m.entry(i, j) for i, s in segments for j in range(s, m.cols)]
        want = {(x * x.conjugate()).rational_value() for x in entries}
        den, got = squared_moduli(m, segments)
        assert {None if x is None else Fraction(x, den) for x in got} == want


# from_rows takes all-integer rows as their own plane; from_entries lowers
# the same values.  Both must reach one canonical form, and a row list that
# is not a matrix is refused the way it was when from_rows went through
# from_entries.
@pytest.mark.parametrize("seed", range(4))
def test_from_rows_of_integers_matches_from_entries(seed):
    rng = random.Random(seed)
    for _ in range(6):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        values = [[rng.randint(-3, 3) * rng.choice((1, 0, 10**20)) for _ in range(cols)] for _ in range(rows)]
        mixed = [list(r) for r in values]
        mixed[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((Fraction(1, 3), Fraction(4), True))
        for domain in (RATIONAL, cyclo_domain(5), quad_domain(6)):
            for matrix in (values, mixed):
                a = ExactMatrix.from_rows(matrix, domain)
                b = ExactMatrix.from_entries(domain, rows, cols, [x for r in matrix for x in r])
                assert (a.domain, a.rows, a.cols, a.den, a.planes) == (b.domain, b.rows, b.cols, b.den, b.planes)
            assert ExactMatrix.from_rows(values, domain).int_rows() == values


def test_from_rows_refuses_ragged_and_empty_rows():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], [Fraction(1, 2)]], [(1, 2), ()]):
        with pytest.raises(DomainError, match="^ragged rows$"):
            ExactMatrix.from_rows(rows)
    for rows in ([[]], [[], []], [()], []):
        with pytest.raises(DomainError, match="^matrix dimensions must be positive$"):
            ExactMatrix.from_rows(rows)
