"""Exact scalars, and the two kinds of field they and the matrices live in.

A domain is a field with a basis: ``CycloDomain(m)`` is Q(zeta_m) over the
power basis 1, zeta, ..., zeta^(phi(m) - 1), and ``QuadDomain(t)`` is the
real field Q(sqrt(t)) over 1, sqrt(t), with t square-free (t = 1 is Q).
Each domain is the one home of its field's rules -- ``reduce`` (exponent
slots to coordinates, mod Phi_m or by x^2 -> t), ``unify``, ``conjugate``
and ``lift`` -- and they act on slots, one per exponent, that hold a
matrix row's integer vectors or a scalar's integers alike.

``CycloElem`` and ``QuadElem`` hold what one matrix entry holds: a domain,
a denominator and integer coordinates, in lowest terms and without trailing
zeros, so equality in a field compares integers and every certification
test is tolerance-free.  ``element`` builds one straight from a matrix's
planes.  The integer kernels under both live here too: the reductions of
coefficient vectors and Kronecker substitution (``pack``, ``unpack``,
``convolve``).

All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import operator
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt, lcm

from .errors import DomainError
from .value import Value

def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m == 1:
        return 1
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low to high.

    For m > 1, Phi_m is the product over d | m of (1 - x^d)^mu(m/d).  Each
    factor is a multiplication or an exact power-series division by 1 - x^d,
    so working modulo x^(phi(m) + 1) loses nothing.
    """
    if m == 1:
        return (-1, 1)
    poly = [1] + [0] * euler_phi(m)
    for d in range(1, m + 1):
        if m % d:
            continue
        primes = factorize(m // d)
        if any(e > 1 for e in primes.values()):
            continue  # mu(m / d) = 0
        if len(primes) % 2 == 0:  # mu = 1: multiply by 1 - x^d
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i] -= poly[i - d]
        else:  # mu = -1: divide by 1 - x^d
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
    return tuple(poly)


def reduce_mod_cyclotomic(slots, m: int) -> list[list[int]]:
    """Integer coordinate vectors of the elements sum_e slots[e][i] zeta_m^e
    modulo Phi_m: phi(m) vectors, a vector at a time.

    Exponents at or above m first fold down by x^m = 1 (Phi_m divides
    x^m - 1), so only the degrees phi(m) .. m - 1 need a division step.
    """
    rem = [list(v) for v in slots[:m]] + [[0] * len(slots[0]) for _ in range(m - len(slots))]
    for e in range(m, len(slots)):
        rem[e % m] = list(map(operator.add, rem[e % m], slots[e]))
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in range(m - 1, deg - 1, -1):
        if any(v := rem[i]):
            for j, c in enumerate(phi[:deg]):
                if c:  # subtract c times v; most coefficients of Phi_m are +-1
                    w = v if c * c == 1 else map(abs(c).__mul__, v)
                    rem[i - deg + j] = list(map(operator.sub if c > 0 else operator.add, rem[i - deg + j], w))
    return rem[:deg]


def reduce_quadratic(slots, t: int) -> list[list[int]]:
    """Integer coordinate vectors of the elements sum_e slots[e][i] sqrt(t)^e,
    for up to three exponents, by x^2 -> t: over 1, sqrt(t), or 1 alone when t = 1."""
    a = list(map(operator.add, slots[0], map(t.__mul__, slots[2]))) if len(slots) > 2 else list(slots[0])
    b = list(slots[1]) if len(slots) > 1 else [0] * len(a)
    return [list(map(operator.add, a, b))] if t == 1 else [a, b]


def _lower(coeffs) -> tuple[int, list[int]]:
    """(den, ints) with den the lcm of the denominators and ints = den * coeffs."""
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


_SLOT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}  # signed machine integers of k bits
_CODEC_MIN = 8  # below 8 slots the shift loop is the faster one


def slot_bits(bits: int) -> int:
    """The next of the slot widths 8, 16, 32 and 64, whose slots ``pack`` and
    ``unpack`` move a byte buffer at a time; above 64, ``bits`` itself."""
    return max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else bits


def _bias(k: int, length: int) -> int:
    return int.from_bytes((bytes(k // 8 - 1) + b"\x80") * length, "little")  # 2^(k-1) in each slot


def pack(ints, k: int) -> int:
    """Kronecker substitution: the value of sum ints[i] x^i at x = 2^k.  At a
    byte width, values that fit their slots are written as one little-endian
    buffer of two's complement slots, slot 0 lowest on any host; XOR with the
    bias 2^(k-1) per slot makes each slot its value plus the bias, so
    subtracting the bias leaves the sum."""
    fmt = _SLOT_FORMATS.get(k)
    if fmt and len(ints) >= _CODEC_MIN:
        try:
            bias = _bias(k, len(ints))
            return (int.from_bytes(struct.pack(f"<{len(ints)}{fmt}", *ints), "little") ^ bias) - bias
        except struct.error:  # a value wider than its slot: the loop carries it
            pass
    n = 0
    for c in reversed(ints):
        n = (n << k) + c
    return n


def unpack(n: int, k: int, length: int) -> list[int]:
    """Inverse of ``pack`` for ``length`` signed slots of magnitude < 2^(k-1).

    Slots of k = bound.bit_length() + 1 bits hold any magnitude <= bound.  At
    a byte width, n plus the bias has every slot in [0, 2^k), and XOR with
    the bias turns it into one buffer of two's complement slots.
    """
    if length == 1:
        return [n]
    fmt = _SLOT_FORMATS.get(k)
    if fmt and length >= _CODEC_MIN:
        bias = _bias(k, length)
        try:
            return list(struct.unpack(f"<{length}{fmt}", ((n + bias) ^ bias).to_bytes(k // 8 * length, "little")))
        except OverflowError:
            raise ArithmeticError("a packed coefficient overflowed its slot") from None
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    for _ in range(length):
        c = ((n + half) & mask) - half  # the slot's value in [-half, half)
        out.append(c)
        n = (n - c) >> k
    if n:
        raise ArithmeticError("a packed coefficient overflowed its slot")
    return out


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials: one big-integer
    product of their packings, with slots wide enough for every coefficient."""
    k = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    k = slot_bits(k) if len(a) + len(b) > _CODEC_MIN else k  # short products keep the loop
    return unpack(pack(a, k) * pack(b, k), k, len(a) + len(b) - 1)




class _Field(Value):
    """What the two kinds of domain share."""

    def lower(self, x) -> tuple[int, tuple[int, ...]]:
        """(den, ints) of a rational, or of an element of a field this one
        contains, over this field's basis: its form as an element here."""
        if isinstance(x, (int, Fraction)):
            return x.denominator, (x.numerator,)
        if isinstance(x, _Scalar) and x.domain.kind == self.kind and (len(x.ints) == 1 or self.unify(x.domain) == self):
            return x._in(self)
        raise DomainError(f"cannot place {x!r} in {self}")


class CycloDomain(_Field):
    """CycloDomain(order): entries in Q(zeta_order), over the power basis."""

    order: int

    kind = "cyclotomic"

    @property
    def width(self) -> int:
        """The number of basis elements, phi(m)."""
        return euler_phi(self.order)

    def reduce(self, slots) -> list[list[int]]:
        """Coordinate vectors of the entries sum_e slots[e][i] zeta^e, reduced once modulo Phi_m."""
        return reduce_mod_cyclotomic(slots, self.order)

    def conjugate(self, slots, zero) -> list:
        """The slots of the conjugates, zeta^e -> zeta^-e: slot e moves to
        slot -e mod m, and ``zero`` fills the slots nothing moves to."""
        out = [zero] * self.order
        for e, s in enumerate(slots):
            out[-e % self.order] = s
        return out

    def lift(self, slots, zero, order: int) -> list:
        """The slots at an order M that m divides: zeta_m^e = zeta_M^(e M / m)."""
        pad = (zero,) * (order // self.order - 1)
        return [x for s in slots for x in (s, *pad)]

    def unify(self, other: "Domain") -> "Domain":
        if isinstance(other, CycloDomain):
            return cyclo_domain(lcm(self.order, other.order))
        raise DomainError("cannot mix cyclotomic and quadratic matrices")


class QuadDomain(_Field):
    """QuadDomain(radicand): entries a + b sqrt(radicand), over the basis 1, sqrt(radicand)."""

    radicand: int

    kind = "quadratic"

    @property
    def width(self) -> int:
        """The number of basis elements: 1, sqrt(t), or 1 alone when t = 1."""
        return 1 if self.radicand == 1 else 2

    def reduce(self, slots) -> list[list[int]]:
        """Coordinate vectors of the entries sum_e slots[e][i] sqrt(t)^e (up to three terms), by x^2 -> t."""
        return reduce_quadratic(slots, self.radicand)

    def conjugate(self, slots, zero):
        """The field is real: every entry is its own conjugate."""
        return slots

    def unify(self, other: "Domain") -> "Domain":
        if isinstance(other, QuadDomain):
            if other.radicand in (1, self.radicand):
                return self
            if self.radicand == 1:
                return other
            raise DomainError(f"incompatible radicands {self.radicand} and {other.radicand}")
        raise DomainError("cannot mix cyclotomic and quadratic matrices")


Domain = CycloDomain | QuadDomain
cyclo_domain = lru_cache(maxsize=None)(CycloDomain)
quad_domain = lru_cache(maxsize=None)(QuadDomain)
RATIONAL = cyclo_domain(1)


def element(domain: Domain, den: int, slots) -> "CycloElem | QuadElem":
    """The scalar (sum_k slots[k] b_k) / den over the domain's basis b_0 = 1,
    b_1, ...: a matrix entry's planes at one position, in lowest terms."""
    return object.__new__(CycloElem if domain.kind == "cyclotomic" else QuadElem)._fill(domain, den, slots)


def _reduced(domain: Domain, den: int, exps) -> "CycloElem | QuadElem":
    """The element (sum_e exps[e] x^e) / den, x the domain's generator
    (zeta_m or sqrt(t)), reduced once when exponents reach past the basis."""
    if len(exps) > domain.width:
        exps = [v[0] for v in domain.reduce([[c] for c in exps])]
    return element(domain, den, exps)


class _Scalar:
    """What both fields' elements hold: one matrix entry's form.

    ``ints`` are den times the coordinates over the domain's basis.  The form
    is canonical -- den > 0 has no factor in common with all coordinates,
    trailing zero coordinates are dropped, and a rational element of a
    quadratic field lives in Q(sqrt(1)) -- so two elements of one domain are
    equal exactly when their forms are, and one coordinate means a rational.
    """

    __slots__ = ("domain", "den", "ints")

    def _fill(self, domain: Domain, den: int, slots):
        ints = list(slots)
        while len(ints) > 1 and not ints[-1]:
            ints.pop()
        g = gcd(den, *ints) if den != 1 else 1
        if g != 1:
            den, ints = den // g, [c // g for c in ints]
        self.domain = quad_domain(1) if len(ints) == 1 and domain.kind == "quadratic" else domain
        self.den, self.ints = den, tuple(ints)
        return self

    def _in(self, domain: Domain) -> tuple[int, tuple[int, ...]]:
        """(den, ints) of this element over ``domain``, a field that contains its own."""
        if len(self.ints) == 1 or domain == self.domain:  # a rational has the same form in every field
            return self.den, self.ints
        x = _reduced(domain, self.den, self.domain.lift(self.ints, 0, domain.order))  # only Q(zeta_m) nest
        return x.den, x.ints

    def _operands(self, other):
        """(domain, (den, ints), (den, ints)): this element and ``other`` in
        their common field, or None when ``other`` is neither rational nor of this kind."""
        if isinstance(other, (int, Fraction)):
            return self.domain, (self.den, self.ints), (other.denominator, (other.numerator,))
        if type(other) is not type(self):
            return None
        if other.domain is self.domain:
            return self.domain, (self.den, self.ints), (other.den, other.ints)
        domain = self.domain.unify(other.domain)
        return domain, self._in(domain), other._in(domain)

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction if the element is rational, else None."""
        return Fraction(self.ints[0], self.den) if len(self.ints) == 1 else None

    def conjugate(self):
        """Complex conjugate: zeta -> zeta**(order-1), or the identity in a real field."""
        if len(self.ints) == 1:
            return self  # rational values are self-conjugate
        return _reduced(self.domain, self.den, self.domain.conjugate(self.ints, 0))

    def __add__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        domain, (da, a), (db, b) = ops
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return element(domain, den, [fa * x + fb * y for x, y in zip_longest(a, b, fillvalue=0)])

    def __mul__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        domain, (da, a), (db, b) = ops
        return _reduced(domain, da * db, convolve(a, b))

    def __sub__(self, other):
        return self + other * -1

    def __eq__(self, other):
        try:
            ops = self._operands(other)
        except DomainError:  # irrationals of two quadratic fields
            return False
        return NotImplemented if ops is None else ops[1] == ops[2]

    __hash__ = None  # cross-order equality makes a consistent hash impractical


class CycloElem(_Scalar):
    """An element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    ``coeffs`` has length phi(m) and gives the coordinates in the power basis
    1, zeta, ..., zeta^(phi(m)-1).  The zero element has all-zero coeffs.
    """

    __slots__ = ()

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if order < 1:
            raise DomainError("cyclotomic order must be >= 1")
        if len(coeffs) != euler_phi(order):
            raise DomainError(
                f"expected {euler_phi(order)} coefficients at order {order}, got {len(coeffs)}"
            )
        self._fill(cyclo_domain(order), *_lower(coeffs))

    @property
    def order(self) -> int:
        return self.domain.order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints) + (Fraction(0),) * (self.domain.width - len(self.ints))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(terms, order: int) -> "CycloElem":
        """Build from (exponent -> coefficient) terms; exponents reduced mod order."""
        acc = [Fraction(0)] * order
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            acc[e % order] += Fraction(c)
        return _reduced(cyclo_domain(order), *_lower(acc))

    @staticmethod
    def from_rational(value, order: int = 1) -> "CycloElem":
        return CycloElem(order, (Fraction(value),) + (0,) * (euler_phi(order) - 1))

    @staticmethod
    def root(order: int, exponent: int = 1) -> "CycloElem":
        """The root of unity zeta_order ** exponent."""
        return CycloElem.from_terms({exponent: 1}, order)

    def lift(self, order: int) -> "CycloElem":
        """Re-express at a multiple of the current order; the value is unchanged."""
        if order % self.order != 0:
            raise DomainError(f"cannot lift order {self.order} to {order}")
        domain = cyclo_domain(order)
        return element(domain, *self._in(domain))

    def __repr__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if c != 0:
                terms.append(str(c) if e == 0 else f"{c}*z{self.order}^{e}")
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def split_square(n: int) -> tuple[int, int]:
    """Return (s, t) with n = s*s*t and t square-free."""
    if n < 1:
        raise DomainError("expected a positive integer")
    s, t = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            t *= p
    return s, t


class QuadElem(_Scalar):
    """An element a + b*sqrt(t) of the real quadratic field Q(sqrt(t)).

    t is square-free and positive; a rational element has t = 1 and b = 0.
    The field is real, so conjugation is the identity here.
    """

    __slots__ = ()

    def __init__(self, t: int, a, b):
        a, b = Fraction(a), Fraction(b)
        if t < 1:
            raise DomainError("radicand must be positive")
        s, t = split_square(t)
        self._fill(quad_domain(t), *_lower((a, b * s) if t > 1 else (a + b * s,)))

    @property
    def t(self) -> int:
        return self.domain.radicand

    @property
    def a(self) -> Fraction:
        return Fraction(self.ints[0], self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.ints[1], self.den) if len(self.ints) > 1 else Fraction(0)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value, t: int = 1) -> "QuadElem":
        return QuadElem(t, Fraction(value), 0)

    @staticmethod
    def sqrt_of_rational(value) -> "QuadElem":
        """Exact square root of a nonnegative rational, as a + b*sqrt(t)."""
        q = Fraction(value)
        if q < 0:
            raise DomainError("cannot take a real square root of a negative rational")
        if q == 0:
            return QuadElem(1, 0, 0)
        s, t = split_square(q.numerator * q.denominator)
        return QuadElem(t, 0, Fraction(s, q.denominator))

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.t})"
        return f"{self.a} + {self.b}*sqrt({self.t})"


def rational_sqrt(value) -> Fraction | None:
    """Exact rational square root of a nonnegative rational, or None."""
    q = Fraction(value)
    if q < 0:
        return None
    sn = isqrt(q.numerator)
    sd = isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None
