"""Dense exact matrices over a cyclotomic or real quadratic scalar domain.

A matrix carries a domain tag; all entries live in that domain.  Products of
cyclotomic matrices lift both operands to the lcm of their orders, products
of quadratic matrices require matching radicands (rational values mix with
anything), and cyclotomic/quadratic products are rejected.

All arithmetic is exact, and every product runs on one integer kernel.  Each
operand is lowered once to integer coefficient planes over its domain's
basis -- the power basis of Q(zeta_m) (one plane for Q), or 1, sqrt(t) --
with one common denominator per matrix; an integer matrix is its own plane.
Each entry's planes are packed into one integer (Kronecker substitution), the
integer product accumulates every output entry's whole polynomial, and each
output entry is unpacked, folded by x^m = 1, reduced once by the domain's
modulus (Phi_m, or x^2 -> t) and divided by the two denominators.  When both
packed operands hold only -1, 0 and 1 (rational matrices whose scaled entries
are signs or zeros), large products take bitmask popcounts.  A per-entry
Fraction loop in the test suite is the differential oracle for the kernel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DomainError
from .scalars import (
    CycloElem,
    QuadElem,
    _cached_int_elem,
    _lower,
    cyclo_from_ints,
    pack,
    quad_from_ints,
    unpack,
)


@dataclass(frozen=True)
class CycloDomain:
    order: int

    kind = "cyclotomic"

    def from_int(self, value: int):
        return _cached_int_elem(self.order, value)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return CycloElem.from_rational(value, self.order)
        if isinstance(value, CycloElem):
            if value.order == self.order:
                return value
            if self.order % value.order == 0:
                return value.lift(self.order)
            q = value.rational_value()
            if q is not None:
                return CycloElem.from_rational(q, self.order)
            raise DomainError(
                f"cannot place an order-{value.order} element in an order-{self.order} domain"
            )
        raise DomainError(f"not a cyclotomic value: {value!r}")

    def coefficients(self, x) -> tuple[Fraction, ...]:
        """Coordinates in the power basis 1, zeta, ..., zeta^(phi(m) - 1)."""
        return (x if x.order == self.order else self.coerce(x)).coeffs

    def from_ints(self, ints: list[int], den: int):
        return cyclo_from_ints(self.order, ints, den)

    def unify(self, other: "Domain") -> "Domain":
        if isinstance(other, CycloDomain):
            m = self.order * other.order // gcd(self.order, other.order)
            return cyclo_domain(m)
        raise DomainError("cannot mix cyclotomic and quadratic matrices")


@dataclass(frozen=True)
class QuadDomain:
    radicand: int

    kind = "quadratic"

    def from_int(self, value: int):
        return QuadElem(self.radicand, value, 0)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return QuadElem(self.radicand, value, 0)
        if isinstance(value, QuadElem):
            if value.b == 0 or value.t == self.radicand:
                return value
            raise DomainError(
                f"cannot place a sqrt({value.t}) element in a sqrt({self.radicand}) domain"
            )
        raise DomainError(f"not a quadratic value: {value!r}")

    def coefficients(self, x) -> tuple[Fraction, ...]:
        """Coordinates in the basis 1, sqrt(t)."""
        x = self.coerce(x)  # rejects an entry over another radicand
        return (x.a, x.b)

    def from_ints(self, ints: list[int], den: int):
        return quad_from_ints(self.radicand, ints, den)

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

    __slots__ = ("domain", "rows", "cols", "entries", "_lowered")

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
        self._lowered = None  # (den, planes) once computed; see lowered()

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
        return scaled_identity(n, 1, domain)

    @staticmethod
    def ones(rows: int, cols: int, domain: Domain = RATIONAL) -> "ExactMatrix":
        return ExactMatrix(domain, rows, cols, [domain.from_int(1)] * (rows * cols))

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def lowered(self) -> tuple[int, list[list[list[int]]]]:
        """(den, planes), computed once: plane k holds den times each entry's
        k-th coordinate over the domain's basis as integer rows.

        den is the lcm of the coordinates' denominators, and trailing all-zero
        planes are dropped, so a rational matrix has exactly one plane.
        """
        if self._lowered is None:
            coords = [self.domain.coefficients(x) for x in self.entries]
            den, flat = _lower([c for v in coords for c in v])
            width = len(coords[0])
            planes = [flat[k::width] for k in range(width)]
            while len(planes) > 1 and not any(planes[-1]):
                planes.pop()
            cols = self.cols
            self._lowered = den, [[p[i : i + cols] for i in range(0, len(p), cols)] for p in planes]
        return self._lowered

    def int_rows(self) -> list[list[int]] | None:
        """Rows as plain ints if every entry is a rational integer, else None."""
        den, planes = self.lowered()
        return planes[0] if den == 1 and len(planes) == 1 else None

    def is_rational_integer(self) -> bool:
        return self.int_rows() is not None

    # -- rearrangement ------------------------------------------------

    def with_domain(self, domain: Domain) -> "ExactMatrix":
        return ExactMatrix(domain, self.rows, self.cols, [domain.coerce(x) for x in self.entries])

    def transpose(self) -> "ExactMatrix":
        entries = [self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)]
        out = ExactMatrix(self.domain, self.cols, self.rows, entries)
        if self._lowered is not None:
            den, planes = self._lowered
            out._lowered = den, [[list(col) for col in zip(*p)] for p in planes]
        return out

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        if len(self.lowered()[1]) == 1:
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

    def _entrywise(self, other, op, name: str):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError(f"shape mismatch in {name}")
        a, b, domain = self._unified(other)
        ia, ib = a.int_rows(), b.int_rows()
        if ia is not None and ib is not None:
            entries = [domain.from_int(op(x, y)) for ra, rb in zip(ia, ib) for x, y in zip(ra, rb)]
        else:
            entries = [op(x, y) for x, y in zip(a.entries, b.entries)]
        return ExactMatrix(domain, a.rows, a.cols, entries)

    def __add__(self, other):
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, operator.sub, "subtraction")

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


def _pack_planes(planes: list[list[list[int]]], k: int) -> list[list[int]]:
    """Each entry's plane values packed into one integer, k bits per slot."""
    if len(planes) == 1:
        return planes[0]
    return [[pack(e, k) for e in zip(*rs)] for rs in zip(*planes)]


def _sign_masks(vectors) -> tuple[list[int], list[int]]:
    """Bitmasks of the +1 and of the -1 positions of each {-1, 0, 1} vector."""
    pos, neg = [], []
    for v in vectors:
        p = n = 0
        for t, x in enumerate(v):
            if x == 1:
                p |= 1 << t
            elif x == -1:
                n |= 1 << t
        pos.append(p)
        neg.append(n)
    return pos, neg


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact integer product; bitmask popcount route for {-1,0,1} matrices."""
    columns = list(zip(*b))
    small = all(-1 <= x <= 1 for r in a for x in r) and all(-1 <= x <= 1 for r in b for x in r)
    if not (small and len(a) * len(b) * len(columns) > 200_000):
        return [[sum(map(operator.mul, r, c)) for c in columns] for r in a]
    a_pos, a_neg = _sign_masks(a)
    b_pos, b_neg = _sign_masks(columns)
    return [
        [
            (p & bp).bit_count() + (n & bn).bit_count() - (p & bn).bit_count() - (n & bp).bit_count()
            for bp, bn in zip(b_pos, b_neg)
        ]
        for p, n in zip(a_pos, a_neg)
    ]


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product over the unified domain, by one integer kernel.

    Both operands are lowered to integer coefficient planes over the
    domain's basis with one common denominator each; every entry's planes
    are packed into one integer (Kronecker substitution), so the integer
    product accumulates each output entry's whole polynomial.  Each output
    entry is then unpacked, reduced once by the domain's modulus and divided
    by the product of the two denominators.
    """
    if a.cols != b.rows:
        raise DomainError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a, b, domain = a._unified(b)
    den_a, planes_a = a.lowered()
    den_b, planes_b = b.lowered()
    width = len(planes_a) + len(planes_b) - 1
    k = 0  # one plane each: the entries are the integers themselves
    if width > 1:
        bound = a.cols * min(len(planes_a), len(planes_b))  # terms in one output slot
        bound *= max(abs(x) for p in planes_a for r in p for x in r)
        bound *= max(abs(x) for p in planes_b for r in p for x in r)
        k = bound.bit_length() + 1
    rows = _int_matmul(_pack_planes(planes_a, k), _pack_planes(planes_b, k))
    den = den_a * den_b
    if width == 1 and den == 1:
        out = ExactMatrix(domain, a.rows, b.cols, [domain.from_int(x) for r in rows for x in r])
        out._lowered = 1, [rows]
        return out
    entries = [domain.from_ints(unpack(x, k, width), den) for r in rows for x in r]
    return ExactMatrix(domain, a.rows, b.cols, entries)


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
                    entries.extend([domain.from_int(0)] * b.cols)
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
    zero = domain.from_int(0)
    entries = [c if i == j else zero for i in range(n) for j in range(n)]
    return ExactMatrix(domain, n, n, entries)
