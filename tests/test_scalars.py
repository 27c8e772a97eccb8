import cmath
import math
import random
from fractions import Fraction

import pytest

from etf_forge.errors import DomainError
from etf_forge.scalars import (
    CycloElem,
    QuadElem,
    convolve,
    cyclotomic_polynomial,
    euler_phi,
    pack,
    rational_sqrt,
    reduce_mod_cyclotomic,
    reduce_quadratic,
    split_square,
    unpack,
)


def naive_poly_divmod(num, den):
    """Independent long division oracle over integers (den monic)."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c:
            q[i - len(den) + 1] = c
            for j, y in enumerate(den):
                num[i - len(den) + 1 + j] -= c * y
    return q, num


def naive_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # Oracle: divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 by brute-force long division.
    den = naive_poly_mul(naive_poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, rem = naive_poly_divmod([-1, 0, 0, 0, 0, 0, 1], den)
    assert all(c == 0 for c in rem)
    assert tuple(q) == cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_polynomial_degree_is_totient():
    for m in range(1, 31):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_reduce_square_of_i_is_minus_one():
    z = CycloElem.from_terms({2: 1}, 4)
    assert z == CycloElem.from_rational(-1, 4)
    assert z.rational_value() == -1


def test_reduce_sum_of_cube_roots_is_zero():
    z = CycloElem.from_terms({0: 1, 1: 1, 2: 1}, 3)
    assert z == 0


def test_sixth_root_satisfies_its_minimal_polynomial():
    # x^2 - x + 1 from the division oracle above.
    z = CycloElem.root(6)
    assert z * z == z + (-1)


def test_root_to_the_order_is_one():
    for m in range(1, 25):
        z = CycloElem.root(m)
        acc = CycloElem.from_rational(1, m)
        for _ in range(m):
            acc = acc * z
        assert acc == CycloElem.from_rational(1, m)
        assert CycloElem.from_terms({m: 1}, m) == CycloElem.from_terms({0: 1}, m)


def test_conjugate_of_i():
    i = CycloElem.root(4)
    assert i.conjugate() == i * -1
    assert i.conjugate() == CycloElem.root(4, 3)


def test_conjugate_fixes_reals():
    minus_one = CycloElem.from_rational(-1, 8)
    assert minus_one.conjugate() == minus_one
    q = QuadElem(5, 2, 3)
    assert q.conjugate() == q


def test_conjugate_is_involution_random():
    rng = random.Random(7)
    for m in range(1, 25):
        for _ in range(5):
            z = CycloElem.from_terms(
                {rng.randrange(m): Fraction(rng.randint(-3, 3)) for _ in range(3)}, m
            )
            assert z.conjugate().conjugate() == z
            sq = z * z.conjugate()
            assert sq.conjugate() == sq


def test_squared_modulus_of_roots_of_unity():
    z = CycloElem.root(16, 5)
    assert z * z.conjugate() == 1
    for m in range(1, 25):
        for e in range(m):
            z = CycloElem.root(m, e)
            assert z * z.conjugate() == CycloElem.from_rational(1, m)


def test_squared_modulus_one_plus_i():
    # (1+i)(1-i) expanded by hand: 1 - i + i - i^2 = 2.
    z = CycloElem.from_rational(1, 4) + CycloElem.root(4)
    assert z * z.conjugate() == 2


def test_squared_modulus_quadratic():
    z = QuadElem(2, 1, -2)  # 1 - 2*sqrt(2)
    sq = z * z.conjugate()
    assert sq == QuadElem(2, 9, -4)
    assert sq.rational_value() is None


def test_lift_to_lcm_order():
    a = CycloElem.from_rational(-1, 2)
    b = CycloElem.root(3)
    la, lb = a.lift(6), b.lift(6)
    assert la.order == lb.order == 6
    assert la == a and lb == b

    c = CycloElem.root(4)
    lc = c.lift(4)
    assert lc.order == 4 and lc == c

    e = CycloElem.root(2)
    f = CycloElem.root(8)
    le, lf = e.lift(8), f.lift(8)
    assert le.order == lf.order == 8
    assert le == CycloElem.root(8, 4)
    assert lf == CycloElem.root(8)


def test_ring_axioms_random_cyclotomic():
    rng = random.Random(20240)
    for m in range(1, 25):
        for _ in range(4):
            def rand_elem():
                return CycloElem.from_terms(
                    {rng.randrange(m): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)},
                    m,
                )

            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x + y == y + x
            assert x * y == y * x


def test_ring_axioms_random_quadratic():
    rng = random.Random(99)
    for t in (1, 2, 3, 5, 6, 7):
        for _ in range(6):
            def rand_elem():
                return QuadElem(t, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))

            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


def test_quadratic_constructor_normalizes_radicand():
    assert QuadElem(8, 0, 1) == QuadElem(2, 0, 2)
    assert QuadElem(4, 0, 1) == QuadElem.from_rational(2)
    assert QuadElem(4, 0, 1).rational_value() == 2
    assert QuadElem(12, 1, Fraction(1, 2)) == QuadElem(3, 1, 1)


def test_split_square():
    assert split_square(8) == (2, 2)
    assert split_square(36) == (6, 1)
    assert split_square(1) == (1, 1)
    assert split_square(45) == (3, 5)


def test_sqrt_of_rational():
    assert QuadElem.sqrt_of_rational(4) == QuadElem.from_rational(2)
    s = QuadElem.sqrt_of_rational(Fraction(16, 4))
    assert s == QuadElem.from_rational(2)
    r = QuadElem.sqrt_of_rational(Fraction(1, 2))
    assert r * r == QuadElem.from_rational(Fraction(1, 2))
    six = QuadElem.sqrt_of_rational(6)
    assert six * six == QuadElem.from_rational(6)


def test_quadratic_radicand_mixing():
    a = QuadElem(2, 0, 1)
    b = QuadElem(3, 0, 1)
    with pytest.raises(DomainError):
        a * b
    assert a * QuadElem.from_rational(3) == QuadElem(2, 0, 3)


def test_equality_across_kinds_and_radicands_is_false():
    # No common field is no equality, not an error.
    i, r2, r3 = CycloElem.root(4), QuadElem(2, 1, 1), QuadElem(3, 1, 1)
    assert (i == r2) is False and (r2 == i) is False and i != r2
    assert (r2 == r3) is False and r2 != r3
    assert (QuadElem(2, 0, 1) == QuadElem(3, 0, 1)) is False


def test_rational_quadratic_elements_have_radicand_one():
    products = QuadElem(6, 1, 1) * QuadElem(6, 1, -1)  # 1 - 6
    for x, value in ((QuadElem.from_rational(Fraction(3, 4), 6), Fraction(3, 4)), (QuadElem(6, 2, 0), 2),
                     (QuadElem(4, 0, 1), 2), (QuadElem.sqrt_of_rational(Fraction(9, 4)), Fraction(3, 2)),
                     (products, -5)):
        assert (x.t, x.a, x.b, x.rational_value()) == (1, value, 0, value)
        assert x == QuadElem.from_rational(value, 5) == value
        for t in (2, 3, 6):  # a rational mixes with every radicand
            root = QuadElem(t, 0, 1)
            assert x * root == root * x == QuadElem(t, 0, value)
            assert x + root == QuadElem(t, value, 1)


def test_is_real_detection():
    z = CycloElem.root(8) + CycloElem.root(8, 7)  # zeta + conj(zeta) is real
    assert z == z.conjugate()
    assert CycloElem.root(8) != CycloElem.root(8).conjugate()


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(49) == 7
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(-1) is None


def fraction_cyclo_mul(x, y):
    """Fraction oracle: exponent-space convolution, then long division by Phi_m."""
    m = x.order
    acc = [Fraction(0)] * m
    for i, c in enumerate(x.coeffs):
        for j, d in enumerate(y.coeffs):
            acc[(i + j) % m] += c * d
    return fraction_cyclo_reduce(acc, m)


def fraction_cyclo_reduce(acc, m):
    """Fraction long division of sum acc[e] x^e (e < m) by Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    acc = list(acc)
    for i in range(m - 1, deg - 1, -1):
        c = acc[i]
        for j in range(deg + 1):
            acc[i - deg + j] -= c * phi[j]
    return tuple(acc[:deg])


def embed(x) -> complex:
    if isinstance(x, QuadElem):
        return float(x.a) + float(x.b) * math.sqrt(x.t)
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / x.order) for e, c in enumerate(x.coeffs))


def rand_elem(rng, m, terms):
    return CycloElem.from_terms(
        [(rng.randrange(m), Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 11)))) for _ in range(terms)],
        m,
    )


@pytest.mark.parametrize("m", [1, 3, 4, 8, 12, 13, 31])
def test_cyclo_mul_matches_fraction_and_numeric_oracles(m):
    rng = random.Random(m)
    for terms in (1, 3, m):
        for _ in range(4):
            x, y = rand_elem(rng, m, terms), rand_elem(rng, m, terms)
            p = x * y
            assert p.coeffs == fraction_cyclo_mul(x, y)
            assert abs(embed(p) - embed(x) * embed(y)) < 1e-9
            sq = x * x.conjugate()
            assert sq.coeffs == fraction_cyclo_mul(x, x.conjugate())
            assert abs(embed(sq) - abs(embed(x)) ** 2) < 1e-9


def fraction_cyclo_add(x, y):
    """Fraction oracle: both operands spread to the lcm order and reduced by long
    division, then added coordinate by coordinate."""
    m = math.lcm(x.order, y.order)
    acc = [Fraction(0)] * m
    for z in (x, y):
        for e, c in enumerate(z.coeffs):
            acc[e * (m // z.order)] += c
    return fraction_cyclo_reduce(acc, m)


@pytest.mark.parametrize("m", [1, 4, 13, 31])
def test_cyclo_add_matches_the_fraction_oracle(m):
    rng = random.Random(100 + m)
    integral = CycloElem.from_terms({e: rng.randint(-9, 9) for e in range(m)}, m)
    for other_order in (m, 1, 3, 4):  # the same order, then mixed orders
        for _ in range(4):
            x, y = rand_elem(rng, m, m), rand_elem(rng, other_order, 3)
            for u, v in ((x, y), (y, x), (integral, y), (x, integral), (x, x * -1)):
                s = u + v
                assert s.order == math.lcm(u.order, v.order)
                assert s.coeffs == fraction_cyclo_add(u, v)
                assert abs(embed(s) - embed(u) - embed(v)) < 1e-9
    assert (x + Fraction(2, 3)).coeffs == fraction_cyclo_add(x, CycloElem.from_rational(Fraction(2, 3)))


def test_dense_reduced_root_products():
    for m in (13, 31):
        dense = CycloElem.root(m, m - 1)
        assert dense * dense == CycloElem.root(m, m - 2)
        assert dense * CycloElem.root(m) == 1
        assert dense * dense.conjugate() == 1


def test_quad_mul_matches_closed_form_and_embedding():
    rng = random.Random(6)
    for _ in range(20):
        a1, b1, a2, b2 = (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in range(4))
        x, y = QuadElem(6, a1, b1), QuadElem(6, a2, b2)
        p = x * y
        assert (p.a, p.b) == (a1 * a2 + 6 * b1 * b2, a1 * b2 + a2 * b1)
        assert abs(embed(p) - embed(x) * embed(y)) < 1e-9


def test_integer_reduction_folds_then_divides_by_phi():
    def reduce(ints, m):  # one element: one-entry coefficient vectors
        return [v[0] for v in reduce_mod_cyclotomic([[c] for c in ints], m)]

    # x^13 = x^0 at m = 13, and x^12 = -(1 + ... + x^11).
    assert reduce([0] * 13 + [5], 13) == [5] + [0] * 11
    assert reduce([0] * 12 + [1], 13) == [-1] * 12
    # Phi_12 = x^4 - x^2 + 1, so x^4 = x^2 - 1 and x^6 = -1.
    assert reduce([0, 0, 0, 0, 1], 12) == [-1, 0, 1, 0]
    assert reduce([0] * 6 + [3], 12) == [-3, 0, 0, 0]
    assert reduce([2, 7, -1], 1) == [8]
    # A vector at a time: entry i of every coordinate vector is element i's.
    assert reduce_mod_cyclotomic([[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 3]], 12) == [
        [-1, 1, -3], [0, 0, 0], [1, 0, 0], [0, 0, 0]]
    # x^2 -> t, and 1 alone when t = 1.
    assert reduce_quadratic([[1, 2], [3, 4], [5, 6]], 6) == [[31, 38], [3, 4]]
    assert reduce_quadratic([[1, 2], [3, 4]], 1) == [[4, 6]]
    assert reduce_quadratic([[7]], 6) == [[7], [0]]


def test_pack_unpack_round_trip_and_overflow():
    rng = random.Random(11)
    for _ in range(50):
        ints = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 40))]
        k = 11  # 1000 < 2^(k - 1)
        assert unpack(pack(ints, k), k, len(ints)) == ints
    with pytest.raises(ArithmeticError):
        unpack(pack([3, 1], 2), 2, 2)  # 3 does not fit a signed 2-bit slot
    # The byte codec at 8, 16, 32 and 64 bits, for short and long sequences,
    # at the slot edges, and the shift loop above 64 bits.
    for k in (8, 16, 32, 64, 65, 100):
        half = 1 << (k - 1)
        for length in (2, 3, 8, 9, 40):
            ints = [rng.choice((-half, half - 1, 0, rng.randrange(-half, half))) for _ in range(length)]
            n = pack(ints, k)
            assert n == sum(c << (k * i) for i, c in enumerate(ints))
            assert unpack(n, k, length) == ints
            for top in (half, -half - 1):  # one past the edge of the last slot
                with pytest.raises(ArithmeticError):
                    unpack(pack(ints[:-1] + [top], k), k, length)
        assert pack([half] + [0] * 9, k) == half  # a value wider than its slot still packs exactly
    a, b = [rng.randint(-50, 50) for _ in range(30)], [rng.randint(-50, 50) for _ in range(25)]
    assert convolve(a, b) == naive_poly_mul(a, b)


def test_convolve_short_and_zero_operands():
    """The packed product alone serves every length, down to one coefficient."""
    rng = random.Random(12)
    assert convolve([3], [-4]) == [-12]
    assert convolve([0, 0], [5]) == [0, 0]
    assert convolve([0, 0, 0], [0, 0]) == [0, 0, 0, 0]
    for _ in range(200):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        assert convolve(a, b) == naive_poly_mul(a, b)
    # One sign at full magnitude puts the middle coefficient exactly on the slot bound.
    assert convolve([-7] * 6, [-7] * 6) == naive_poly_mul([-7] * 6, [-7] * 6)
