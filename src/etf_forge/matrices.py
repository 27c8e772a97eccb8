"""Dense exact matrices over a cyclotomic or real quadratic scalar domain.

A matrix carries a domain tag; all entries live in that domain.  Products of
cyclotomic matrices lift both operands to the lcm of their orders, products
of quadratic matrices require matching radicands (rational values mix with
anything), and cyclotomic/quadratic products are rejected.

All arithmetic is exact.  Products of matrices whose entries are rational
integers take an integer path (bitmask popcounts when every entry is in
{-1, 0, 1}) that returns bit-identical results to the generic elementwise
loop; a randomized oracle test in the suite pins that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DomainError
from .scalars import CycloElem, QuadElem, _cached_int_elem


@dataclass(frozen=True)
class CycloDomain:
    order: int

    kind = "cyclotomic"

    def zero(self):
        return CycloElem.zero(self.order)

    def one(self):
        return CycloElem.one(self.order)

    def from_rational(self, value):
        return CycloElem.from_rational(value, self.order)

    def from_int(self, value: int):
        return _cached_int_elem(self.order, value)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        if isinstance(value, CycloElem):
            if value.order == self.order:
                return value
            if self.order % value.order == 0:
                return value.lift(self.order)
            q = value.rational_value()
            if q is not None:
                return self.from_rational(q)
            raise DomainError(
                f"cannot place an order-{value.order} element in an order-{self.order} domain"
            )
        raise DomainError(f"not a cyclotomic value: {value!r}")

    def unify(self, other: "Domain") -> "Domain":
        if isinstance(other, CycloDomain):
            m = self.order * other.order // gcd(self.order, other.order)
            return cyclo_domain(m)
        raise DomainError("cannot mix cyclotomic and quadratic matrices")


@dataclass(frozen=True)
class QuadDomain:
    radicand: int

    kind = "quadratic"

    def zero(self):
        return QuadElem(self.radicand, 0, 0)

    def one(self):
        return QuadElem(self.radicand, 1, 0)

    def from_rational(self, value):
        return QuadElem(self.radicand, Fraction(value), 0)

    def from_int(self, value: int):
        return QuadElem(self.radicand, value, 0)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        if isinstance(value, QuadElem):
            if value.b == 0 or value.t == self.radicand:
                return value
            raise DomainError(
                f"cannot place a sqrt({value.t}) element in a sqrt({self.radicand}) domain"
            )
        raise DomainError(f"not a quadratic value: {value!r}")

    def unify(self, other: "Domain") -> "Domain":
        if isinstance(other, QuadDomain):
            if self.radicand == other.radicand:
                return self
            if self.radicand == 1:
                return other
            if other.radicand == 1:
                return self
            raise DomainError(
                f"incompatible radicands {self.radicand} and {other.radicand}"
            )
        raise DomainError("cannot mix cyclotomic and quadratic matrices")


Domain = CycloDomain | QuadDomain


@lru_cache(maxsize=None)
def cyclo_domain(order: int) -> CycloDomain:
    return CycloDomain(order)


@lru_cache(maxsize=None)
def quad_domain(radicand: int) -> QuadDomain:
    return QuadDomain(radicand)


RATIONAL = cyclo_domain(1)


class ExactMatrix:
    """A dense rows x cols matrix of domain elements, stored row-major."""

    __slots__ = ("domain", "rows", "cols", "entries", "_int_rows")

    def __init__(self, domain: Domain, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise DomainError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise DomainError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._int_rows = False  # False = not computed, None = not integral

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows, domain: Domain = RATIONAL) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0])
        if any(len(r) != nc for r in rows):
            raise DomainError("ragged rows")
        entries = [domain.coerce(x) for r in rows for x in r]
        return ExactMatrix(domain, nr, nc, entries)

    @staticmethod
    def identity(n: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        zero, one = domain.zero(), domain.one()
        entries = [one if i == j else zero for i in range(n) for j in range(n)]
        return ExactMatrix(domain, n, n, entries)

    @staticmethod
    def zeros(rows: int, cols: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        zero = domain.zero()
        return ExactMatrix(domain, rows, cols, [zero] * (rows * cols))

    @staticmethod
    def ones(rows: int, cols: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        one = domain.one()
        return ExactMatrix(domain, rows, cols, [one] * (rows * cols))

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def int_rows(self) -> list[list[int]] | None:
        """Rows as plain ints if every entry is a rational integer, else None."""
        if self._int_rows is False:
            out: list[list[int]] | None = []
            for i in range(self.rows):
                row = []
                for x in self.row(i):
                    q = x.rational_value()
                    if q is None or q.denominator != 1:
                        out = None
                        break
                    row.append(q.numerator)
                if out is None:
                    break
                out.append(row)
            self._int_rows = out
        return self._int_rows

    def is_rational_integer(self) -> bool:
        return self.int_rows() is not None

    # -- rearrangement ------------------------------------------------

    def with_domain(self, domain: Domain) -> "ExactMatrix":
        return ExactMatrix(domain, self.rows, self.cols, [domain.coerce(x) for x in self.entries])

    def transpose(self) -> "ExactMatrix":
        entries = [self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)]
        out = ExactMatrix(self.domain, self.cols, self.rows, entries)
        if isinstance(self._int_rows, list):
            out._int_rows = [list(col) for col in zip(*self._int_rows)]
        return out

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        if self.int_rows() is not None:
            return self.transpose()  # rational entries are self-conjugate
        entries = [
            self.entries[j * self.cols + i].conjugate()
            for i in range(self.cols)
            for j in range(self.rows)
        ]
        return ExactMatrix(self.domain, self.cols, self.rows, entries)

    def submatrix(self, row_indices, col_indices) -> "ExactMatrix":
        entries = [self.entry(i, j) for i in row_indices for j in col_indices]
        return ExactMatrix(self.domain, len(row_indices), len(col_indices), entries)

    def take_rows(self, row_indices) -> "ExactMatrix":
        return self.submatrix(list(row_indices), range(self.cols))

    def drop_row(self, index: int) -> "ExactMatrix":
        keep = [i for i in range(self.rows) if i != index]
        return self.take_rows(keep)

    # -- arithmetic ---------------------------------------------------

    def _unified(self, other: "ExactMatrix") -> tuple["ExactMatrix", "ExactMatrix", Domain]:
        domain = self.domain.unify(other.domain)
        a = self if self.domain == domain else self.with_domain(domain)
        b = other if other.domain == domain else other.with_domain(domain)
        return a, b, domain

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch in addition")
        a, b, domain = self._unified(other)
        ia, ib = a.int_rows(), b.int_rows()
        if ia is not None and ib is not None:
            entries = [domain.from_int(x + y) for ra, rb in zip(ia, ib) for x, y in zip(ra, rb)]
        else:
            entries = [x + y for x, y in zip(a.entries, b.entries)]
        return ExactMatrix(domain, a.rows, a.cols, entries)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch in subtraction")
        a, b, domain = self._unified(other)
        ia, ib = a.int_rows(), b.int_rows()
        if ia is not None and ib is not None:
            entries = [domain.from_int(x - y) for ra, rb in zip(ia, ib) for x, y in zip(ra, rb)]
        else:
            entries = [x - y for x, y in zip(a.entries, b.entries)]
        return ExactMatrix(domain, a.rows, a.cols, entries)

    def scale(self, value) -> "ExactMatrix":
        """Multiply every entry by a scalar from the same domain (or a rational)."""
        c = self.domain.coerce(value)
        return ExactMatrix(self.domain, self.rows, self.cols, [c * x for x in self.entries])

    def scale_rows(self, factors) -> "ExactMatrix":
        factors = list(factors)
        if len(factors) != self.rows:
            raise DomainError("one factor per row required")
        out = []
        for i in range(self.rows):
            c = self.domain.coerce(factors[i])
            out.extend(c * x for x in self.row(i))
        return ExactMatrix(self.domain, self.rows, self.cols, out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        sa, sb = self.int_rows(), other.int_rows()
        if sa is not None and sb is not None:
            return sa == sb
        if self.domain.kind != other.domain.kind:
            # Only rational-valued matrices are comparable across domain kinds.
            return NotImplemented
        a, b, _ = self._unified(other)
        return all(x == y for x, y in zip(a.entries, b.entries))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __repr__(self):
        return f"ExactMatrix({self.domain}, {self.rows}x{self.cols})"


def _int_matmul(a: list[list[int]], b: list[list[int]], rows: int, inner: int, cols: int) -> list[list[int]]:
    """Exact integer product; bitmask popcount route for {-1,0,1} matrices."""
    small = all(-1 <= x <= 1 for r in a for x in r) and all(
        -1 <= x <= 1 for r in b for x in r
    )
    if small and rows * inner * cols > 200_000:
        a_pos = [0] * rows
        a_neg = [0] * rows
        for i, row in enumerate(a):
            p = n = 0
            for t, x in enumerate(row):
                if x == 1:
                    p |= 1 << t
                elif x == -1:
                    n |= 1 << t
            a_pos[i], a_neg[i] = p, n
        b_pos = [0] * cols
        b_neg = [0] * cols
        for t, row in enumerate(b):
            bit = 1 << t
            for j, x in enumerate(row):
                if x == 1:
                    b_pos[j] |= bit
                elif x == -1:
                    b_neg[j] |= bit
        out = []
        for i in range(rows):
            p, n = a_pos[i], a_neg[i]
            out.append(
                [
                    (p & b_pos[j]).bit_count()
                    + (n & b_neg[j]).bit_count()
                    - (p & b_neg[j]).bit_count()
                    - (n & b_pos[j]).bit_count()
                    for j in range(cols)
                ]
            )
        return out
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for t in range(inner):
            x = arow[t]
            if x:
                brow = b[t]
                if x == 1:
                    for j in range(cols):
                        orow[j] += brow[j]
                elif x == -1:
                    for j in range(cols):
                        orow[j] -= brow[j]
                else:
                    for j in range(cols):
                        orow[j] += x * brow[j]
    return out


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product over the unified domain."""
    if a.cols != b.rows:
        raise DomainError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a, b, domain = a._unified(b)
    ia, ib = a.int_rows(), b.int_rows()
    if ia is not None and ib is not None:
        rows = _int_matmul(ia, ib, a.rows, a.cols, b.cols)
        entries = [domain.from_int(x) for r in rows for x in r]
        out = ExactMatrix(domain, a.rows, b.cols, entries)
        out._int_rows = rows
        return out
    zero = domain.zero()
    brows = [b.row(t) for t in range(b.rows)]
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        acc = [zero] * b.cols
        for t, x in enumerate(arow):
            if not x.is_zero():
                brow = brows[t]
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.extend(acc)
    return ExactMatrix(domain, a.rows, b.cols, out)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; block (i, j) is a(i, j) * b."""
    a, b, domain = a._unified(b)
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    entries = []
    for i in range(a.rows):
        for p in range(b.rows):
            brow = b.row(p)
            for j in range(a.cols):
                x = a.entry(i, j)
                if x.is_zero():
                    entries.extend([domain.zero()] * b.cols)
                else:
                    entries.extend(x * y for y in brow)
    return ExactMatrix(domain, rows, cols, entries)


def vstack(*mats: ExactMatrix) -> ExactMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DomainError("column counts differ in vertical stack")
    domain = mats[0].domain
    for m in mats[1:]:
        domain = domain.unify(m.domain)
    entries = []
    for m in mats:
        m = m if m.domain == domain else m.with_domain(domain)
        entries.extend(m.entries)
    return ExactMatrix(domain, sum(m.rows for m in mats), cols, entries)


def scaled_identity(n: int, value, domain: Domain = RATIONAL) -> ExactMatrix:
    c = domain.coerce(value)
    zero = domain.zero()
    entries = [c if i == j else zero for i in range(n) for j in range(n)]
    return ExactMatrix(domain, n, n, entries)
