"""Generators and verifiers for real and complex Hadamard matrices.

A Hadamard matrix here is an n x n matrix over a cyclotomic domain whose
entries all have squared modulus one and which satisfies H H* = n I exactly.
Every generator routes its output through the verifier, so a convention slip
in a construction cannot produce an unverified object (``character_rows``
is for a construction that decides the same identity on its own output).
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul

from .errors import HadamardError
from .matrices import RATIONAL, ExactMatrix, cyclo_domain, first_nonzero, kron as kron_matrices, rational_rows, row_product_triangle, squared_moduli
from .scalars import factorize
from .value import Value


class HadamardMatrix(Value):
    """A verified Hadamard matrix; ``kind`` is "real" for +/-1 matrices."""

    n: int
    body: ExactMatrix
    kind: str


class AbelianGroup(Value):
    """A finite abelian group as a product of cyclic factors.

    Elements are indexed in big-endian mixed-radix counting order: the first
    factor is the most significant digit, so for (2, 2, 2, 2) the index is
    just the 4-bit binary reading of an element.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(m < 2 for m in self.orders):
            raise HadamardError("cyclic factor orders must all be >= 2")

    @property
    def size(self) -> int:
        return prod(self.orders)

    def digits(self, index: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.orders):
            out.append(index % m)
            index //= m
        if index:
            raise HadamardError("element index out of range")
        return tuple(reversed(out))

    def subtract(self, i: int, j: int) -> int:
        """The index of element i minus element j."""
        out = 0
        for x, y, m in zip(self.digits(i), self.digits(j), self.orders):
            out = out * m + (x - y) % m
        return out


def verify_hadamard(m: ExactMatrix) -> HadamardMatrix:
    """Certify flatness and orthogonality, classifying real vs complex."""
    if m.rows != m.cols:
        raise HadamardError(f"expected a square matrix, got {m.rows}x{m.cols}")
    if m.domain.kind != "cyclotomic":
        raise HadamardError("Hadamard matrices live over cyclotomic domains")
    n = m.rows
    den, moduli = squared_moduli(m, ((i, 0) for i in range(n)))
    if moduli != {den}:  # name the first entry off modulus one
        den, sq = rational_rows(m, squared=True)
        i, row = next((i, r) for i, r in enumerate(sq) if r.count(den) != len(r))
        raise HadamardError(f"entry ({i}, {next(j for j, x in enumerate(row) if x != den)}) is not unimodular")
    at = first_nonzero(row_product_triangle(m)[1], range(n), range(n))  # m m* is Hermitian, its diagonal n (n moduli of one)
    if at:
        raise HadamardError(f"rows {at[0]} and {at[1]} fail the orthogonality identity")
    if m.int_rows() is not None:
        return HadamardMatrix(n, m.with_domain(RATIONAL), "real")
    return HadamardMatrix(n, m, "complex")


def sylvester(e: int) -> HadamardMatrix:
    """The size 2**e doubling construction: H0 = [1], H -> [[H, H], [H, -H]]."""
    if e < 0:
        raise HadamardError("exponent must be >= 0")
    rows = [[1]]
    for _ in range(e):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return verify_hadamard(ExactMatrix.from_rows(rows, RATIONAL))


def paley_one(q: int) -> HadamardMatrix:
    """Quadratic-character construction of size q + 1 for prime q = 3 mod 4."""
    if q < 2 or factorize(q) != {q: 1}:
        raise HadamardError(f"{q} is not prime")
    if q % 4 != 3:
        raise HadamardError(f"{q} is not congruent to 3 mod 4")
    chi = [0] * q
    for x in range(1, q):
        chi[x] = 1 if pow(x, (q - 1) // 2, q) == 1 else -1
    rows = [[1] * (q + 1)]
    for i in range(q):
        row = [1]
        for j in range(q):
            row.append(-1 if i == j else chi[(i - j) % q])
        rows.append(row)
    return verify_hadamard(ExactMatrix.from_rows(rows, RATIONAL))


def _roots_of_unity(m: int, exponents: list[list[int]]) -> ExactMatrix:
    """The matrix of zeta_m ** exponents[i][j] (each in 0..m-1), read off the
    planes of the m roots, reduced once modulo Phi_m."""
    dom = cyclo_domain(m)
    roots = dom.reduce([[int(i == e) for i in range(m)] for e in range(m)])  # plane k holds coordinate k of each root
    return ExactMatrix(dom, 1, [[list(map(plane.__getitem__, row)) for row in exponents] for plane in roots])


def dft(n: int) -> HadamardMatrix:
    """The discrete Fourier matrix F(j, k) = zeta_n**(j k), 0-based."""
    if n < 1:
        raise HadamardError("size must be >= 1")
    return verify_hadamard(_roots_of_unity(n, [[j * k % n for k in range(n)] for j in range(n)]))


def kron(h1: HadamardMatrix, h2: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product, re-verified at the lifted common order."""
    return verify_hadamard(kron_matrices(h1.body, h2.body))


def character_rows(group: AbelianGroup) -> ExactMatrix:
    """The character table, unverified, for a construction that verifies its
    own output (``char_table`` is the verified table).  Rows are characters
    and columns group elements.

    Both are indexed in the group's big-endian counting order; the entry for
    character a at element g is zeta_m ** (sum_i a_i g_i (m / m_i)) with
    m = lcm of the factor orders.  A real table (an elementary 2-group) is
    over the rationals, as ``verify_hadamard`` gives it.
    """
    m = lcm(*group.orders)
    digits = [group.digits(g) for g in range(group.size)]
    weighted = [[x * (m // mi) for x, mi in zip(d, group.orders)] for d in digits]
    rows = _roots_of_unity(m, [[sum(map(mul, a, g)) % m for g in digits] for a in weighted])
    return rows if rows.int_rows() is None else rows.with_domain(RATIONAL)


def char_table(group: AbelianGroup) -> HadamardMatrix:
    """The verified ``character_rows``.  For an elementary 2-group this is
    exactly the doubling-construction matrix of the same size."""
    return verify_hadamard(character_rows(group))


def hadamard_of_size(n: int) -> HadamardMatrix:
    """Deterministic recipe search: factor n over {2} and {q + 1 : q prime, 3 mod 4}.

    Recipes are tried largest quadratic-character factor first, so results are
    reproducible.  Raises with the attempted recipe set when nothing works.
    """
    if n < 1:
        raise HadamardError("size must be >= 1")
    attempts: list[str] = []

    def search(size: int) -> HadamardMatrix | None:
        if size == 1:
            return sylvester(0)
        if size == 2:
            return sylvester(1)
        for q in sorted(
            (q for q in range(3, size) if (q + 1 <= size) and size % (q + 1) == 0
             and q % 4 == 3 and factorize(q) == {q: 1}),
            reverse=True,
        ):
            attempts.append(f"paley({q}) x size({size // (q + 1)})")
            rest = search(size // (q + 1))
            if rest is not None:
                h = paley_one(q)
                return h if rest.n == 1 else kron(h, rest)
        if size % 2 == 0:
            attempts.append(f"sylvester(1) x size({size // 2})")
            rest = search(size // 2)
            if rest is not None:
                return kron(sylvester(1), rest)
        return None

    result = search(n)
    if result is None:
        raise HadamardError(
            f"no Hadamard recipe found for size {n}; tried: {attempts or ['none']}"
        )
    return result
