"""Exact scalar arithmetic for the two number domains used by the library.

``CycloElem`` represents elements of the cyclotomic field Q(zeta_m) in the
canonical reduced form modulo the m-th cyclotomic polynomial, so equality is
a decidable coefficient-vector comparison and every certification test is
tolerance-free.  ``QuadElem`` represents elements a + b*sqrt(t) of a real
quadratic field Q(sqrt(t)) with t square-free (t = 1 means the element is
rational).

All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import operator
import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import DomainError

_ZERO = Fraction(0)


def _factorize(n: int) -> dict[int, int]:
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
    for p, e in _factorize(m).items():
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
        primes = _factorize(m // d)
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
    if den == 1:
        return 1, [c.numerator for c in coeffs]
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


def conjugate_exponents(ints, m: int) -> list[int]:
    """The conjugate of sum ints[e] zeta_m^e in Z[x]/(x^m - 1): zeta^e -> zeta^(m - e)
    needs no reduction there."""
    conj = [0] * m
    for e, c in enumerate(ints):
        conj[-e % m] = c
    return conj


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials: one big-integer
    product of their packings, with slots wide enough for every coefficient."""
    k = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    k = slot_bits(k) if len(a) + len(b) > _CODEC_MIN else k  # short products keep the loop
    return unpack(pack(a, k) * pack(b, k), k, len(a) + len(b) - 1)


@lru_cache(maxsize=None)
def _cached_int_elem(m: int, value: int) -> "CycloElem":
    coeffs = [Fraction(value)] + [_ZERO] * (euler_phi(m) - 1)
    return CycloElem(m, tuple(coeffs))


def cyclo_from_ints(m: int, ints: list[int], den: int = 1) -> "CycloElem":
    """The element (sum ints[e] zeta_m^e) / den, reduced once modulo Phi_m."""
    rem = [v[0] for v in reduce_mod_cyclotomic([[c] for c in ints], m)]
    if den == 1 and not any(rem[1:]):
        return _cached_int_elem(m, rem[0])
    return CycloElem(m, tuple(Fraction(c, den) if c else _ZERO for c in rem))


class CycloElem:
    """An element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    ``coeffs`` has length phi(m) and gives the coordinates in the power basis
    1, zeta, ..., zeta^(phi(m)-1).  The zero element has all-zero coeffs.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if order < 1:
            raise DomainError("cyclotomic order must be >= 1")
        if len(coeffs) != euler_phi(order):
            raise DomainError(
                f"expected {euler_phi(order)} coefficients at order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(terms, order: int) -> "CycloElem":
        """Build from (exponent -> coefficient) terms; exponents reduced mod order."""
        acc = [_ZERO] * order
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            acc[e % order] += Fraction(c)
        den, ints = _lower(acc)
        return cyclo_from_ints(order, ints, den)

    @staticmethod
    def from_rational(value, order: int = 1) -> "CycloElem":
        q = Fraction(value)
        if q.denominator == 1:
            return _cached_int_elem(order, q.numerator)
        return CycloElem.from_terms({0: q}, order)

    @staticmethod
    def root(order: int, exponent: int = 1) -> "CycloElem":
        """The root of unity zeta_order ** exponent."""
        return CycloElem.from_terms({exponent: 1}, order)

    # -- structure ----------------------------------------------------

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction if the element is rational, else None."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def lift(self, order: int) -> "CycloElem":
        """Re-express at a multiple of the current order; the value is unchanged."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise DomainError(f"cannot lift order {self.order} to {order}")
        k = order // self.order
        return CycloElem.from_terms(
            {e * k: c for e, c in enumerate(self.coeffs) if c != 0}, order
        )

    def conjugate(self) -> "CycloElem":
        """Complex conjugate: the image of zeta under zeta -> zeta**(order-1)."""
        if self.order <= 2 or not any(self.coeffs[1:]):
            return self  # rational values are self-conjugate
        den, ints = _lower(self.coeffs)
        return cyclo_from_ints(self.order, conjugate_exponents(ints, self.order), den)

    # -- arithmetic ---------------------------------------------------

    def _pair(self, other: "CycloElem") -> tuple["CycloElem", "CycloElem"]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(other, self.order)
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(other)
        (da, ia), (db, ib) = _lower(a.coeffs), _lower(b.coeffs)
        den = lcm(da, db)  # integer coordinates over one denominator; Fraction(c) beats Fraction(c, 1)
        sums = [den // da * x + den // db * y for x, y in zip(ia, ib)]
        return CycloElem(a.order, tuple((Fraction(c, den) if den > 1 else Fraction(c)) if c else _ZERO for c in sums))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElem(self.order, tuple(c * q for c in self.coeffs))
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(other)
        da, ia = _lower(a.coeffs)
        db, ib = _lower(b.coeffs)
        return cyclo_from_ints(a.order, convolve(ia, ib), da * db)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(other, self.order)
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equality makes a consistent hash impractical

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
    for p, e in _factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            t *= p
    return s, t


class QuadElem:
    """An element a + b*sqrt(t) of the real quadratic field Q(sqrt(t)).

    t is square-free and positive; t = 1 means the element is rational and
    then b = 0.  The field is real, so conjugation is the identity here.
    """

    __slots__ = ("t", "a", "b")

    def __init__(self, t: int, a, b):
        a, b = Fraction(a), Fraction(b)
        if t < 1:
            raise DomainError("radicand must be positive")
        s, t = split_square(t)
        b = b * s
        if t == 1:
            a, b = a + b, _ZERO
        self.t = t
        self.a = a
        self.b = b

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

    def rational_value(self) -> Fraction | None:
        return self.a if self.b == 0 else None

    def conjugate(self) -> "QuadElem":
        return self

    def _common_t(self, other: "QuadElem") -> int:
        if self.b == 0:
            return other.t if other.b != 0 else max(self.t, other.t, 1)
        if other.b == 0 or other.t == self.t:
            return self.t
        raise DomainError(f"incompatible radicands {self.t} and {other.t}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadElem.from_rational(other)
        if not isinstance(other, QuadElem):
            return NotImplemented
        t = self._common_t(other)
        return QuadElem(t, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return QuadElem(self.t, -self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadElem.from_rational(other)
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return QuadElem(self.t, self.a * q, self.b * q)
        if not isinstance(other, QuadElem):
            return NotImplemented
        da, ia = _lower((self.a, self.b))
        db, ib = _lower((other.a, other.b))
        return quad_from_ints(self._common_t(other), convolve(ia, ib), da * db)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadElem.from_rational(other)
        if not isinstance(other, QuadElem):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.t == other.t and self.a == other.a and self.b == other.b

    __hash__ = None

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.t})"
        return f"{self.a} + {self.b}*sqrt({self.t})"


def quad_from_ints(t: int, ints: list[int], den: int = 1) -> QuadElem:
    """The element (sum ints[e] sqrt(t)^e) / den for up to three terms, by x^2 -> t."""
    a, b = [v[0] for v in reduce_quadratic([[c] for c in ints], t)] + [0] * (t == 1)
    return QuadElem(t, Fraction(a, den), Fraction(b, den))


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
