"""Dense exact matrices over a cyclotomic or real quadratic scalar domain.

A matrix carries a domain (``scalars.CycloDomain`` or ``QuadDomain``,
re-exported here) whose methods hold every field rule used here: reduction,
``unify`` (cyclotomic orders lift to their lcm, quadratic radicands must
match unless one side is rational, the kinds never mix), ``lift`` and
``conjugate``.

A matrix is stored once, as integer coefficient planes over its domain's
basis -- the power basis of Q(zeta_m), or 1, sqrt(t) -- with one common
denominator: plane k holds den times each entry's k-th coordinate.  The form
is canonical (den is the lcm of the reduced denominators, trailing all-zero
planes are dropped), so a rational matrix has one plane, an integer matrix
is its own plane and equality is plane equality.  Every operation works on
the planes.  A scalar has an entry's form, so ``entry`` and ``row`` build
scalars straight from the planes (``scalars.element``); ``from_entries``
lowers a caller's scalars once.  ``rational_rows`` reads rational values,
zero masks and squared moduli off the planes for the verifiers,
``row_product_triangle`` the upper triangle of m m* and ``first_nonzero`` its
first failure of m m* = alpha I.  Work per entry is done once per distinct
entry (``per_entry``, ``squared_moduli``, ``distinct_entries``): frames repeat
few.  Blocks are laid out one way, by ``gather``: ``kron`` multiplies each
distinct entry of a by b once, then gathers the blocks from those rows.

A product takes one of two integer routes, chosen from the operands' values
alone.  A {-1, 0, 1} matrix times its own transpose computes one triangle by
popcounts (two AND popcounts per entry when an entry is zero, else one XOR
popcount indexing a table of the n + 1 possible entries, each one shared
object) and mirrors it, and ``row_product_triangle`` takes that triangle from
the rows alone; how b was built (``adjoint()``, ``transpose()`` or fresh planes) plays no part.
Every other product is row-packed: each distinct entry's planes are one integer
(Kronecker substitution), each row of b is one integer with entry j at slot
offset j * width, each output row is one big-integer multiply-accumulate
unpacked a byte buffer at a time, and the whole product is reduced in one
call (x^m = 1 then Phi_m, or x^2 -> t).  A per-entry Fraction loop in the
test suite is the differential oracle.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, compress, count, zip_longest
from math import gcd, lcm

from .errors import DomainError
from .scalars import (  # the domains and their constructors are importable from here too
    RATIONAL,
    CycloDomain,
    Domain,
    QuadDomain,
    convolve,
    cyclo_domain,
    element,
    pack,
    quad_domain,
    slot_bits,
    unpack,
)


class ExactMatrix:
    """A dense rows x cols matrix over a domain, stored as canonical planes.

    Entry (i, j) is sum_k planes[k][i][j] b_k / den over the domain's basis
    b_0 = 1, b_1, ...  The constructor takes any den > 0 and integer planes
    and brings them to canonical form; planes are shared, never mutated.
    """

    __slots__ = ("domain", "rows", "cols", "den", "planes")

    def __init__(self, domain: Domain, den: int, planes: list[list[list[int]]]):
        if not (planes and planes[0] and planes[0][0]):
            raise DomainError("matrix dimensions must be positive")
        top = len(planes)  # trailing all-zero planes are dropped by one slice
        while top > 1 and not any(map(any, planes[top - 1])):
            top -= 1
        planes = planes[:top]
        g = gcd(den, *(gcd(*r) for p in planes for r in p)) if den != 1 else 1
        if g != 1:
            den //= g
            planes = [[[x // g for x in r] for r in p] for p in planes]
        self.domain = domain
        self.rows = len(planes[0])
        self.cols = len(planes[0][0])
        self.den = den
        self.planes = planes

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_entries(domain: Domain, rows: int, cols: int, entries) -> "ExactMatrix":
        """Lower row-major scalars (ints, Fractions or domain elements) once."""
        entries = list(entries)
        if rows < 1 or cols < 1:
            raise DomainError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise DomainError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        if {int}.issuperset(map(type, entries)):  # its own plane: no coordinate tuple per entry
            return from_flat(domain, cols, 1, [entries])
        forms = [domain.lower(x) for x in entries]
        den = lcm(*{d for d, _ in forms})
        return from_flat(domain, cols, den, zip_longest(*[[c * (den // d) for c in ints] for d, ints in forms], fillvalue=0))

    @staticmethod
    def from_rows(rows, domain: Domain = RATIONAL) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nc = len(rows[0]) if rows else 0  # no rows: an empty shape, which the constructor refuses
        if any(len(r) != nc for r in rows):
            raise DomainError("ragged rows")
        if {int}.issuperset(map(type, chain.from_iterable(rows))):  # the rows are the plane
            return ExactMatrix(domain, 1, [rows])
        return ExactMatrix.from_entries(domain, len(rows), nc, chain.from_iterable(rows))

    @staticmethod
    def identity(n: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        return scaled_identity(n, 1, domain)

    @staticmethod
    def ones(rows: int, cols: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        return ExactMatrix(domain, 1, [[[1] * cols for _ in range(rows)]])

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int):
        return element(self.domain, self.den, [p[i][j] for p in self.planes])

    def row(self, i: int) -> tuple:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def int_rows(self) -> list[list[int]] | None:
        """Rows as plain ints if every entry is a rational integer, else None."""
        return self.planes[0] if self.den == 1 and len(self.planes) == 1 else None

    # -- rearrangement ------------------------------------------------

    def with_domain(self, domain: Domain) -> "ExactMatrix":
        """The same values over another domain; raises if they do not fit."""
        if domain == self.domain:
            return self
        if len(self.planes) == 1:
            return ExactMatrix(domain, self.den, self.planes)  # rational values fit anywhere
        if self.domain.unify(domain) != domain:
            raise DomainError(f"cannot place {self.domain} entries in {domain}")
        flat = [list(chain.from_iterable(p)) for p in self.planes]
        lifted = self.domain.lift(flat, [0] * len(flat[0]), domain.order)
        return from_flat(domain, self.cols, self.den, domain.reduce(lifted))  # one reduction for the whole matrix

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.domain, self.den, [[list(c) for c in zip(*p)] for p in self.planes])

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose, the conjugate reduced in one call."""
        if len(self.planes) == 1:  # rational entries are real
            return self.transpose()
        flat, domain = [list(chain.from_iterable(zip(*p))) for p in self.planes], self.domain  # the columns in turn
        return from_flat(domain, self.rows, self.den, domain.reduce(domain.conjugate(flat, [0] * len(flat[0]))))

    def take_rows(self, row_indices) -> "ExactMatrix":
        rows = list(row_indices)
        return ExactMatrix(self.domain, self.den, [[p[i] for i in rows] for p in self.planes])

    def drop_row(self, index: int) -> "ExactMatrix":
        return self.take_rows(i for i in range(self.rows) if i != index)

    # -- arithmetic ---------------------------------------------------

    def _entrywise(self, other, op, name: str):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError(f"shape mismatch in {name}")
        domain, den, (pa, pb) = _common((self, other))
        return ExactMatrix(domain, den, [[list(map(op, x, y)) for x, y in zip(a, b)] for a, b in zip(pa, pb)])

    def __add__(self, other):
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, operator.sub, "subtraction")

    def scale(self, value) -> "ExactMatrix":
        """Multiply every entry by a rational number."""
        return self.scale_rows([value] * self.rows)

    def scale_rows(self, factors) -> "ExactMatrix":
        """Multiply row i by the rational number factors[i]."""
        factors = [Fraction(f) for f in factors]
        if len(factors) != self.rows:
            raise DomainError("one factor per row required")
        den = lcm(*[f.denominator for f in factors])
        mults = [f.numerator * (den // f.denominator) for f in factors]
        planes = [[[c * x for x in r] for c, r in zip(mults, p)] for p in self.planes]
        return ExactMatrix(self.domain, self.den * den, planes)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if len(self.planes) == len(other.planes) == 1:
            return self.den == other.den and self.planes == other.planes
        if self.domain.kind != other.domain.kind:
            return NotImplemented  # only rational-valued matrices compare across domain kinds
        _, _, (pa, pb) = _common((self, other))
        return pa == pb

    __hash__ = None

    def __repr__(self):
        return f"ExactMatrix({self.domain}, {self.rows}x{self.cols})"


def from_flat(domain: Domain, cols: int, den: int, flat) -> ExactMatrix:
    """The matrix whose plane k holds the row-major integers flat[k] over den."""
    flat = [p if type(p) is list else list(p) for p in flat]  # a list's slices are fresh lists: one copy per row
    return ExactMatrix(domain, den, [[p[i : i + cols] for i in range(0, len(p), cols)] for p in flat])


def distinct_entries(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """(column, codes): m's distinct entries, told apart by their planes, as one
    column in order of first appearance, and each entry's row in it, row-major."""
    rows = {}  # an entry's planes -> its row in the column
    codes = [rows.setdefault(x, len(rows)) for x in zip(*map(chain.from_iterable, m.planes))]
    return ExactMatrix(m.domain, m.den, [[[x] for x in plane] for plane in zip(*rows)]), codes


def gather(table: ExactMatrix, index) -> ExactMatrix:
    """Row i lays the rows of ``table`` named by index[i] side by side; -1 names a zero row."""
    segments = ([*plane, [0] * table.cols] for plane in table.planes)
    planes = [[list(chain.from_iterable(map(s.__getitem__, row))) for row in index] for s in segments]
    return ExactMatrix(table.domain, table.den, planes)


def per_entry(m: ExactMatrix, fn) -> Iterator[list]:
    """Rows of fn's values at m's entries, each built when it is reached; fn maps the list of
    distinct entries (coordinate tuples) to one value each, and is called once, before any row."""
    if len(m.planes) == 1:  # the integers themselves are the keys: no tuple per entry
        distinct = list(set().union(*m.planes[0]))
        value = dict(zip(distinct, fn([(x,) for x in distinct]))).__getitem__
        return (list(map(value, r)) for r in m.planes[0])
    first, pos = {}, count()  # an entry's code is the position where it first appears: one hash per tuple
    codes = [list(map(first.setdefault, zip(*rs), pos)) for rs in zip(*m.planes)]
    value = dict(zip(first.values(), fn(list(first)))).__getitem__
    return (list(map(value, r)) for r in codes)


def _common(mats) -> tuple[Domain, int, list]:
    """(domain, den, planes): each matrix's planes over the unified domain and
    the lcm of the denominators, padded with zero planes to one count."""
    domain = mats[0].domain
    for m in mats[1:]:
        domain = domain.unify(m.domain)
    mats = [m.with_domain(domain) for m in mats]
    den = lcm(*[m.den for m in mats])
    width = max(len(m.planes) for m in mats)
    out = []
    for m in mats:
        f = den // m.den
        planes = m.planes if f == 1 else [[[f * x for x in r] for r in p] for p in m.planes]
        out.append(planes + [[[0] * m.cols for _ in range(m.rows)]] * (width - len(planes)))
    return domain, den, out


def rational_rows(m: ExactMatrix, squared: bool = False) -> tuple[int, list[list[int | None]]]:
    """(den, rows): rows[i][j] is den times entry (i, j), or when ``squared``
    times its squared modulus (found once per distinct entry), if that is
    rational, and None if not.  A zero entry reads 0, so this is also the zero mask.
    """
    if squared:
        domain, den = m.domain, m.den * m.den
        if len(m.planes) == 1:
            m = ExactMatrix(domain, den, [[[x * x for x in r] for r in m.planes[0]]])
        else:  # x times its conjugate, once per distinct entry, then one reduction
            def moduli(cs):  # the integer where the squared modulus is rational, else None
                conj = list(zip(*domain.conjugate(list(zip(*cs)), (0,) * len(cs))))
                products = [convolve(c, x) for c, x in zip(cs, conj)]
                return [c[0] if not any(c[1:]) else None for c in zip(*domain.reduce(list(zip(*products))))]

            return den, list(per_entry(m, moduli))
    if len(m.planes) == 1:
        return m.den, m.planes[0]
    return m.den, [[c[0] if not any(c[1:]) else None for c in zip(*rs)] for rs in zip(*m.planes)]


def squared_moduli(m: ExactMatrix, segments) -> tuple[int, set]:
    """(den, values): den times the squared moduli of the distinct entries in
    the row segments (i, start) of m, None where irrational, in one ``rational_rows`` call."""
    planes = m.planes
    if len(planes) == 1:  # the integers themselves are the keys: no tuple per entry
        coords = [list(set().union(*(planes[0][i][s:] for i, s in segments)))]
    else:
        coords = [list(c) for c in zip(*set().union(*(zip(*(p[i][s:] for p in planes)) for i, s in segments)))]
    if not (coords and coords[0]):
        return 1, set()
    den, (values,) = rational_rows(ExactMatrix(m.domain, m.den, [[c] for c in coords]), squared=True)
    return den, set(values)


_NONZERO, _NEGATIVE = (b"0" + one + b"2" * 253 + b"1" for one in (b"1", b"0"))  # 0, 1, -1 as signed bytes; "2" is no binary digit


def _sign_masks(vectors) -> tuple[list[int], list[int], bool] | None:
    """(support, negative) bitmasks of equal-length vectors and whether no
    entry is zero; None when an entry is outside {-1, 0, 1}."""
    pack_row = struct.Struct(f"{len(vectors[0])}b").pack
    try:
        codes = [pack_row(*v) for v in vectors]  # an entry outside the signed bytes is a struct.error
        support = [int(c.translate(_NONZERO), 2) for c in codes]  # any byte but 0, 1 and -1 reads "2"
        return support, [int(c.translate(_NEGATIVE), 2) for c in codes], not any(0 in c for c in codes)
    except (struct.error, ValueError):
        return None


def _int_matmul(a: list[list[int]]) -> list[list[int]] | None:
    """The upper triangle of a a^T by bitmask popcounts, row i holding the
    entries j >= i, or None when an entry is outside {-1, 0, 1} (two AND
    popcounts per entry when an entry is zero, one XOR popcount when none is)."""
    signs = _sign_masks(a)
    if signs is None:
        return None
    (support, negative, full), n = signs, len(a[0])
    if full:  # a product of signs is +1 unless they differ; the n + 1 possible entries are shared objects
        value = [n - 2 * c for c in range(n + 1)]
        return [[value[(x ^ y).bit_count()] for y in negative[i:]] for i, x in enumerate(negative)]
    return [[(s & t).bit_count() - 2 * (s & t & (x ^ y)).bit_count() for t, y in zip(support[i:], negative[i:])]
            for i, (s, x) in enumerate(zip(support, negative))]


def row_product_triangle(m: ExactMatrix) -> tuple[int, list[list[int | None]]]:
    """(den, rows): the upper triangle of m m*, read as ``rational_rows``
    reads a matrix (den need not be reduced), with rows[i] the entries j >= i.
    A {-1, 0, 1} plane takes the popcount triangle from m's own rows, with
    no adjoint; any other matrix is the full product, sliced."""
    rows = _int_matmul(m.planes[0]) if len(m.planes) == 1 else None
    if rows is not None:
        return m.den * m.den, rows
    den, full = rational_rows(matmul(m, m.adjoint()))
    return den, [r[i:] for i, r in enumerate(full)]


def first_nonzero(raw, rows: range, cols: range) -> tuple[int, int] | None:
    """The first (i, j > i) in a block of a Hermitian triangle (``row_product_triangle``)
    that is not 0 (an irrational entry reads None), row by row at C speed."""
    for i in rows:
        part = raw[i][max(i + 1, cols.start) - i : cols.stop - i]
        if part.count(0) != len(part):
            return i, cols.stop - len(part) + next(j for j, x in enumerate(part) if x != 0)
    return None


def _row_packed_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a b for a and b over one domain.  Each row of b is packed once, entry
    j at slot offset j * width, so row i of the integer polynomial product is
    one C-level sum of a(i, t) times row t of b over the nonzero a(i, t)."""
    la, lb = len(a.planes), len(b.planes)
    width = la + lb - 1
    bound = a.cols * min(la, lb)  # terms in one output slot, times the largest magnitudes
    for planes in (a.planes, b.planes):
        bound *= max(max(map(abs, set().union(*p))) for p in planes)
    k = slot_bits(bound.bit_length() + 1)
    if width == 1:
        b_rows = [pack(r, k) for r in b.planes[0]]
    else:  # an entry of b fills lb slots, its product with an entry of a fills width
        b_rows = []
        for rs in zip(*b.planes):
            slots = [0] * (b.cols * width)
            for e, r in enumerate(rs):  # plane e of entry j goes to slot j * width + e
                slots[e::width] = r
            b_rows.append(pack(slots, k))
    a_rows = a.planes[0] if la == 1 else per_entry(a, lambda es: [pack(e, k) for e in es])
    length = b.cols * width
    rows = [unpack(sum(map(operator.mul, filter(None, r), compress(b_rows, r))), k, length) for r in a_rows]
    if width == 1:
        return ExactMatrix(a.domain, a.den * b.den, [rows])
    flat = list(chain.from_iterable(rows))  # one reduction for every entry
    return from_flat(a.domain, b.cols, a.den * b.den, a.domain.reduce([flat[e::width] for e in range(width)]))


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product over the unified domain, by one of two routes
    chosen from the operands' values alone.

    A {-1, 0, 1} matrix times its own transpose (b's plane is a's plane
    transposed, whatever built it) computes one triangle by popcounts and
    mirrors it.  Every other product is row-packed: each entry's planes are
    one polynomial (Kronecker substitution), each row of the integer product
    is one big-integer multiply-accumulate, and each output entry is reduced
    once by the domain's modulus.  The denominator is the product of the two.
    """
    if a.cols != b.rows:
        raise DomainError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    domain = a.domain.unify(b.domain)
    a, b = a.with_domain(domain), b.with_domain(domain)
    if len(a.planes) == len(b.planes) == 1:
        pa, pb = a.planes[0], b.planes[0]  # b = a^T exactly, up to the first column of b that differs
        rows = _int_matmul(pa) if a.rows == b.cols and all(map(operator.eq, map(list, zip(*pb)), pa)) else None
        if rows:  # row i starts at column i; entry (i, j < i) is the real entry (j, i)
            for i, r in enumerate(rows):  # in place: the rows above row i are already whole
                r[:0] = [rows[j][i] for j in range(i)]
            return ExactMatrix(domain, a.den * b.den, [rows])
    return _row_packed_matmul(a, b)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; block (i, j) is a(i, j) * b.

    Each distinct entry of a multiplies the flattened b once, in one
    row-packed outer product (with inner dimension 1, the popcount triangle
    of kron(x, x) would gain nothing); row p of block row i is then gathered
    as row p of a(i, j) * b for each j in turn.
    """
    domain = a.domain.unify(b.domain)
    column, codes = distinct_entries(a)
    flat_b = from_flat(b.domain, b.rows * b.cols, b.den, map(chain.from_iterable, b.planes))
    outer = _row_packed_matmul(column.with_domain(domain), flat_b.with_domain(domain))
    table = from_flat(domain, b.cols, outer.den, map(chain.from_iterable, outer.planes))  # row s rb + p: entry s times row p of b
    ca, rb = a.cols, b.rows
    return gather(table, [[c * rb + p for c in codes[i * ca : (i + 1) * ca]] for i in range(a.rows) for p in range(rb)])


def vstack(*mats: ExactMatrix) -> ExactMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DomainError("column counts differ in vertical stack")
    domain, den, planes = _common(mats)
    return ExactMatrix(domain, den, [[r for p in ps for r in p] for ps in zip(*planes)])


def scaled_identity(n: int, value, domain: Domain = RATIONAL) -> ExactMatrix:
    """value times the n x n identity, for a rational value or a domain element."""
    den, ints = domain.lower(value)
    return ExactMatrix(domain, den, [[[c if i == j else 0 for j in range(n)] for i in range(n)] for c in ints])
