"""The two-way bridge between real flat frames and quasi-symmetric designs,
plus the derived parameter families, integrality tests, and the sharpened
dimension-count bounds for flat and row-submatrix frames.

A real flat d x n ETF (n > d + 1) canonically signs to [1 | J - 2 X^T] with
X the incidence matrix of a QSD whose parameters are forced by (d, n); in
the other direction a QSD with matching parameters yields the frame
[1 | delta J + eps X^T] for exactly two scalar pairs (delta, eps), generally
living in a real quadratic field.  Everything here is exact: square roots
are taken symbolically and integrality is decided by integer square roots.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from math import lcm

from .designs import Design, DesignParams, QsdCertificate, srg_params_from_qsd, verify_qsd
from .errors import DesignError, FrameError
from .frames import Frame, certify_etf
from .matrices import RATIONAL, ExactMatrix, matmul, quad_domain, rational_rows
from .scalars import QuadElem, rational_sqrt
from .value import Value


class QsdEtfLink(Value):
    """The scalars tying a QSD to the frame it generates."""

    w: Fraction
    k: int
    delta: QuadElem
    eps: QuadElem
    branch: str
    params: DesignParams
    x: int
    y: int

    @property
    def flat_branch(self) -> bool:
        """Whether this branch lands on (delta, eps) = (1, -2), the flat case."""
        return self.delta == QuadElem.from_rational(1) and self.eps == QuadElem.from_rational(-2)


def qsd_frame_scalars(params: DesignParams, x: int, y: int, branch: str = "plus"):
    """(w, delta, eps) for one branch, after validating the parameter laws.

    Raises naming the first parameter (w, x, or y) that breaks the required
    relations; k in {0, v} is rejected as degenerate.
    """
    v, k, lam, r, b = params.as_tuple()
    if branch not in ("plus", "minus"):
        raise FrameError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if not 0 < k < v:
        raise FrameError(f"degenerate block size k = {k}")
    if b <= v:
        raise FrameError(f"need b > v, got b = {b}, v = {v}")
    w = rational_sqrt(Fraction(v * (b + 1 - v), b))
    if w is None:
        raise FrameError(f"w^2 = v(b + 1 - v)/b = {Fraction(v * (b + 1 - v), b)} is not a perfect square")
    span = Fraction(r - lam)
    x_expected = k - (v + w) * span / (b + 1)
    y_expected = k - (v - w) * span / (b + 1)
    if x != x_expected:
        raise FrameError(f"intersection number x = {x} violates the frame law (expected {x_expected})")
    if y != y_expected:
        raise FrameError(f"intersection number y = {y} violates the frame law (expected {y_expected})")
    s = QuadElem.sqrt_of_rational(Fraction(b + 1, r - lam))
    sign = 1 if branch == "plus" else -1
    delta = (QuadElem.from_rational(w) + s * (sign * k)) * Fraction(1, v)
    return w, delta, s * (-sign)  # eps = (w - delta v) / k, exactly


def etf_from_qsd(cert: QsdCertificate, branch: str = "plus"):
    """Build the v x (b + 1) frame [1 | delta J + eps X^T] from a QSD.

    The certificate must carry its scanned design (parameter-level
    certificates cannot produce a frame).  Returns (frame, link); the frame
    is certified before it is returned, and all first-column inner products
    equal +w.  When both scalars are rational the frame lives in the
    rational domain, otherwise in the quadratic field of their radicand.
    """
    p = cert.params
    w, delta, eps = qsd_frame_scalars(p, cert.x, cert.y, branch)
    design = cert.design
    if design is None:
        raise FrameError("this certificate is parameter-level; no incidence matrix to build from")

    t = max(delta.t, eps.t)  # a rational scalar has t = 1
    domain = RATIONAL if t == 1 else quad_domain(t)
    coords = [(delta.a, eps.a), (delta.b, eps.b)][: domain.width]  # over 1, sqrt(t)
    den = lcm(*[c.denominator for pair in coords for c in pair])
    x_t = list(zip(*design.incidence.int_rows()))  # the rows of X^T
    values = [(int(d * den), int((d + e) * den)) for d, e in coords]  # plane k at an entry x of X^T: den (d + e x)
    planes = [[[den if k == 0 else 0, *map(v.__getitem__, row)] for row in x_t] for k, v in enumerate(values)]
    frame = Frame(ExactMatrix(domain, den, planes))
    certify_etf(frame)
    den, (g,) = rational_rows(matmul(frame.matrix.adjoint().take_rows([0]), frame.matrix))  # the Gram's row 0
    for j in range(1, p.b + 1):
        if g[j] != w * den:
            raise FrameError(f"first-column inner product at {j} is not +w")
    link = QsdEtfLink(w, p.k, delta, eps, branch, p, cert.x, cert.y)
    return frame, link


def canonical_sign(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...], tuple[int, ...]]:
    """Deterministically sign a +/-1 matrix: rows first so column 0 is all
    ones, then columns so every column's inner product with column 0 is
    nonnegative (zero inner products keep their original sign).
    """
    rows = m.int_rows()
    if rows is None or not set().union(*rows) <= {1, -1}:
        raise FrameError("canonical signing applies to +/-1 matrices only")
    row_signs = tuple(r[0] for r in rows)
    rows = [r if s == 1 else list(map(operator.neg, r)) for s, r in zip(row_signs, rows)]
    col_signs = tuple(-1 if total < 0 else 1 for total in map(sum, zip(*rows)))
    rows = [list(map(operator.mul, col_signs, r)) for r in rows]
    return ExactMatrix(RATIONAL, 1, [rows]), row_signs, col_signs


class FlatEtfExtraction(Value):
    """The design and scalars read off a canonically signed real flat frame."""

    certificate: QsdCertificate
    design: Design
    signed_matrix: ExactMatrix
    w: int
    k: int
    x: int
    y: int


def qsd_from_flat_etf(frame: Frame) -> FlatEtfExtraction:
    """Extract the QSD underneath a real flat ETF with n - 1 > d > 1.

    After canonical signing the frame reads [1 | J - 2 X^T]; the incidence
    matrix X is scanned as a design and its parameters are checked against
    the closed forms w = sqrt(d(n-d)/(n-1)), k = (v-w)/2, x = (v-3w)/4,
    y = (v-w)/4 and r; lambda then meets its own, and d and w are even.
    Frames of d + 1 vectors are excluded (their extraction is a symmetric
    design, not quasi-symmetric).
    """
    cert = certify_etf(frame)
    d, n = cert.d, cert.n
    if n == d + 1:
        raise FrameError("regular simplices are excluded here (n = d + 1)")
    if d <= 1:
        raise FrameError("need d > 1")
    if not cert.flat or frame.matrix.int_rows() is None:
        raise FrameError("extraction applies to real flat frames only")
    signed, _, _ = canonical_sign(frame.matrix)
    v, b = d, n - 1
    columns = list(zip(*signed.int_rows()))[1:]  # block j: the vertices where column j + 1 is -1
    design = Design(v, [tuple(compress(range(v), map((-1).__eq__, c))) for c in columns])
    qsd = verify_qsd(design)

    root = _radical_check(Fraction(d * (n - d), n - 1))
    if not root.is_integer:
        raise FrameError(f"w^2 = {root.radicand} is not a perfect square")
    w = root.value
    expected = dict(zip("vklrbxy", _flat_qsd_params(d, n, w)))
    actual = {"k": qsd.params.k, "x": qsd.x, "y": qsd.y, "r": qsd.params.r}
    for name in actual:
        if actual[name] != expected[name]:
            raise FrameError(
                f"extracted parameter {name} = {actual[name]} differs from the "
                f"closed form {expected[name]}"
            )
    if n % 16:
        raise FrameError(f"n = {n} must be divisible by 16")
    return FlatEtfExtraction(qsd, design, signed, w, qsd.params.k, qsd.x, qsd.y)


def _flat_qsd_params(d: int, n: int, w) -> tuple:
    """(v, k, lam, r, b, x, y) of the QSD that a real flat d x n ETF signs
    to, with w = sqrt(d(n - d)/(n - 1)); slots may come out fractional."""
    v, b = d, n - 1
    k = Fraction(v - w, 2)
    r = b * k / v
    return v, k, r * (k - 1) / (v - 1), r, b, Fraction(v - 3 * w, 4), Fraction(v - w, 4)


def flat_family_qsd_params(u: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two QSD parameter families attached to flat frames on 4u^2 vectors.

    Tuple A corresponds to (d, n) = (u(2u-1), 4u^2) and tuple B to its
    complement (u(2u+1), 4u^2); both have w = u, and u must be even.
    """
    if u < 2:
        raise DesignError("need u >= 2")
    if u % 2:
        raise DesignError(f"u = {u} must be even")
    return tuple(tuple(map(int, _flat_qsd_params(d, 4 * u * u, u))) for d in (2 * u * u - u, 2 * u * u + u))


def qsd_params_from_rbibd(v_hat: int, k_hat: int, r_hat: int, b_hat: int):
    """QSD parameters promised by a resolvable design with lam = 1 whose
    rotation sizes admit Hadamard matrices; returns (7-tuple, w).  They are
    the flat-frame parameters at (d, n) = (b, v(r + 1)) with w = v/k, and
    every slot must come out an integer.
    """
    if v_hat * r_hat != b_hat * k_hat:
        raise DesignError("need v r = b k for the input design")
    if k_hat < 2:
        raise DesignError("need k >= 2")
    if k_hat >= v_hat:
        raise DesignError("need k < v for the input design")
    if r_hat * (k_hat - 1) != v_hat - 1:
        raise DesignError("need r (k - 1) = v - 1 (lam = 1) for the input design")
    w = Fraction(v_hat, k_hat)  # an integer once x and y are: y - x = w/2
    slots = _flat_qsd_params(b_hat, v_hat * (r_hat + 1), w)
    for name, value in zip("vklrbxy", slots):
        if value.denominator != 1:
            raise DesignError(f"parameter slot {name} = {value} is not an integer")
    return tuple(map(int, slots)), int(w)


class RadicalCheck(Value):
    """Exact integrality/parity data for one square root."""

    radicand: Fraction
    is_integer: bool
    value: int | None
    odd: bool | None


def _radical_check(radicand: Fraction) -> RadicalCheck:
    root = rational_sqrt(radicand)
    if root is None or root.denominator != 1:
        return RadicalCheck(radicand, False, None, None)
    value = int(root)
    return RadicalCheck(radicand, True, value, value % 2 == 1)


class FeasibilityReport(Value):
    """Necessary-condition report for a real flat frame of n vectors in R^d.

    Passing requires sqrt(d(n-1)/(n-d)) and sqrt((n-d)(n-1)/d) to be odd
    integers, sqrt(d(n-d)/(n-1)) to be an even integer, and 16 | n.
    """

    d: int
    n: int
    q1: RadicalCheck
    q2: RadicalCheck
    w: RadicalCheck
    n_mod_16: int

    @property
    def verdict(self) -> bool:
        return (
            self.q1.is_integer
            and self.q1.odd
            and self.q2.is_integer
            and self.q2.odd
            and self.w.is_integer
            and not self.w.odd
            and self.n_mod_16 == 0
        )


def flat_feasibility(d: int, n: int) -> FeasibilityReport:
    """Evaluate the integrality and parity conditions exactly."""
    if not n - 1 > d > 1:
        raise FrameError(f"need n - 1 > d > 1, got d = {d}, n = {n}")
    return FeasibilityReport(
        d,
        n,
        _radical_check(Fraction(d * (n - 1), n - d)),
        _radical_check(Fraction((n - d) * (n - 1), d)),
        _radical_check(Fraction(d * (n - d), n - 1)),
        n % 16,
    )


class GerzonReport(Value):
    """One dimension-count bound check, with the violated side named."""

    d: int
    n: int
    field: str
    kind: str
    upper_bound: Fraction
    passed: bool
    violated: str | None


def gerzon_bounds(d: int, n: int, field: str = "real", kind: str = "flat") -> GerzonReport:
    """Dimension-count bounds for flat and row-submatrix frames.

    field is "real" or "complex"; kind is "flat" or "hadamard".  Upper
    bounds are d^2 - d + 1 (complex) and d(d - 1)/2 + 1 (real); the
    "hadamard" kinds add a lower bound evaluated as an exact integer
    inequality on squared forms: (n - d - 1)^2 >= d in the complex case and
    (2n - 2d - 3)^2 >= 8d + 1 in the real case.
    """
    if not 1 < d < n - 1:
        raise FrameError(f"need 1 < d < n - 1, got d = {d}, n = {n}")
    if field not in ("real", "complex") or kind not in ("flat", "hadamard"):
        raise FrameError(f"unknown bound selector ({field!r}, {kind!r})")
    upper = Fraction(d * d - d + 1) if field == "complex" else Fraction(d * (d - 1), 2) + 1
    violated = None
    if n > upper:
        violated = "upper"
    elif kind == "hadamard":
        if field == "complex":
            lower_ok = n - d - 1 >= 0 and (n - d - 1) ** 2 >= d
        else:
            lower_ok = 2 * n - 2 * d - 3 >= 0 and (2 * n - 2 * d - 3) ** 2 >= 8 * d + 1
        if not lower_ok:
            violated = "lower"
    return GerzonReport(d, n, field, kind, upper, violated is None, violated)


def qsd_gives_etf(cert: QsdCertificate) -> bool:
    """Whether the design's parameters admit the frame construction.

    Decided by the parameter laws behind the scalars; cross-checked against
    the block graph's a = 2 mu condition, which must agree.
    """
    try:
        qsd_frame_scalars(cert.params, cert.x, cert.y, "plus")
        by_scalars = True
    except FrameError:
        by_scalars = False
    try:
        srg = srg_params_from_qsd(cert)
        by_graph = srg.a == 2 * srg.mu
    except DesignError:
        by_graph = False
    if by_scalars != by_graph:
        raise DesignError(
            f"internal inconsistency: scalar test says {by_scalars} but the "
            f"block-graph test says {by_graph} for {cert.as_tuple()}"
        )
    return by_scalars
