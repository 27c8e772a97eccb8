"""Frames, Gram matrices, and the exact certification stack.

A frame is a d x n synthesis matrix whose columns are the vectors.  A row may
carry a positive rational weight w, meaning the represented row is sqrt(w)
times the stored one; this keeps constructions whose natural scaling is an
irrational square root inside the exact scalar domain.  Certification checks
equal norms, tightness, equiangularity, the coherence equality against the
bound (n - d) / (d (n - 1)), and flatness, all with zero tolerance.  Nothing
is ever rescaled implicitly: operations verify the exact scalings they need
and raise otherwise, because the missing factors are usually irrational.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import FrameError
from .hadamard import HadamardMatrix, verify_hadamard
from .matrices import Domain, ExactMatrix, matmul, rational_rows, scaled_identity, vstack
from .value import Value


class Frame(Value):
    """A d x n synthesis matrix; column j is the j-th vector.

    ``row_weights[i]`` is the square of the scale carried by stored row i
    (all ones when absent).  Weighted rows appear only in complements whose
    closed form involves sqrt(k) blocks.

    Frames are immutable; the Gram matrix, the row product, and the
    certificate are computed once and cached.
    """

    matrix: ExactMatrix
    row_weights: tuple[Fraction, ...] | None = None
    _gram: ExactMatrix | None = None
    _row_product: tuple | None = None
    _certificate: "EtfCertificate | None" = None

    __eq__ = object.__eq__  # by identity: the matrix is unhashable and the caches are per object
    __hash__ = object.__hash__

    def __post_init__(self):
        if self.matrix.cols < self.matrix.rows:
            raise FrameError("a frame needs at least as many vectors as dimensions")
        if self.row_weights is not None:
            weights = tuple(Fraction(w) for w in self.row_weights)
            if len(weights) != self.matrix.rows:
                raise FrameError("one weight per row required")
            if any(w <= 0 for w in weights):
                raise FrameError("row weights must be positive")
            if all(w == 1 for w in weights):
                weights = None
            object.__setattr__(self, "row_weights", weights)

    @property
    def d(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def domain(self) -> Domain:
        return self.matrix.domain

    def is_weighted(self) -> bool:
        return self.row_weights is not None


def welch_bound_sq(d: int, n: int) -> Fraction:
    """The squared coherence bound (n - d) / (d (n - 1)) as a reduced rational."""
    if not (n >= d >= 1 and n > 1):
        raise FrameError(f"need n >= d >= 1 and n > 1, got d={d}, n={n}")
    return Fraction(n - d, d * (n - 1))


def gram(frame: Frame) -> ExactMatrix:
    """The n x n matrix of pairwise inner products, weights included."""
    if frame._gram is None:
        m = frame.matrix  # unweighted, a {-1, 0, 1} frame's Gram matrix takes one triangle
        g = matmul(m.adjoint(), m if frame.row_weights is None else m.scale_rows(frame.row_weights))
        object.__setattr__(frame, "_gram", g)
    return frame._gram


def _row_product_diagonal(frame: Frame) -> tuple[list[Fraction], list[list]]:
    """Weighted diagonal of the row Gram matrix, plus the raw row product
    M M* as read by ``rational_rows`` (a zero entry reads 0).

    For a weighted frame, tightness holds exactly when the raw off-diagonal
    vanishes and w_i * (M M*)(i, i) is one constant; the irrational cross
    scales sqrt(w_i w_j) never need to be formed.
    """
    if frame._row_product is None:
        m = frame.matrix
        den, raw = rational_rows(matmul(m, m.adjoint()))
        diag = []
        for i, w in enumerate(frame.row_weights or (1,) * m.rows):
            if raw[i][i] is None:
                raise FrameError(f"row {i} has an irrational squared norm")
            diag.append(w * Fraction(raw[i][i], den))
        object.__setattr__(frame, "_row_product", (diag, raw))
    return frame._row_product


def _is_flat(frame: Frame) -> bool:
    """Whether every stored entry, after weighting, has squared modulus one."""
    den, sq = rational_rows(frame.matrix, squared=True)
    for row, w in zip(sq, frame.row_weights or (1,) * frame.d):
        target = Fraction(den) / w  # w |x|^2 = 1 exactly when den |x|^2 = den / w
        if target.denominator != 1 or row.count(target.numerator) != len(row):
            return False
    return True


class EtfCertificate(Value):
    """Exact witness that a frame is an equiangular tight frame."""

    d: int
    n: int
    beta: Fraction      # common squared vector norm
    alpha: Fraction     # tightness constant, always n * beta / d
    gamma_sq: Fraction  # common squared inner-product modulus
    welch_equality: bool
    flat: bool
    domain: Domain


def certify_etf(frame: Frame) -> EtfCertificate:
    """Certify a frame as an ETF; each failure names the violated identity.

    Checks, in order: constant rational squared norms (diagonal of the Gram
    matrix), exact tightness of the rows, a single rational squared modulus
    across all off-diagonal Gram entries, and the coherence equality
    gamma^2 d (n - 1) = beta^2 (n - d).  The flat flag is set when every
    stored entry (after weighting) has squared modulus one.
    """
    if frame._certificate is not None:
        return frame._certificate
    d, n = frame.d, frame.n
    g = gram(frame)
    den, values = rational_rows(g)

    norms = set()
    for j in range(n):
        if values[j][j] is None:
            raise FrameError(f"vector {j} has an irrational squared norm")
        norms.add(Fraction(values[j][j], den))
    if len(norms) != 1:
        raise FrameError(f"unequal norms: squared norms {sorted(norms)}")
    beta = norms.pop()
    if beta <= 0:
        raise FrameError("zero vectors are not allowed")

    diag, raw = _row_product_diagonal(frame)
    alphas = set(diag)
    if len(alphas) != 1:
        raise FrameError(f"not tight: row squared norms {sorted(alphas)}")
    alpha = alphas.pop()
    for i in range(d):
        for j in range(d):
            if i != j and raw[i][j] != 0:
                raise FrameError(f"not tight: rows {i} and {j} are not orthogonal")
    if alpha != Fraction(n) * beta / d:
        raise FrameError(f"not tight: scale {alpha} differs from n beta / d")

    den, sq = rational_rows(g, squared=True)
    gamma = sq[0][1] if n > 1 else 0
    for j in range(n):
        row = sq[j][j + 1 :]
        if gamma is not None and row.count(gamma) == len(row):
            continue
        for j2, s in enumerate(row, j + 1):
            if s is None:
                raise FrameError(f"not equiangular: |<v{j}, v{j2}>|^2 is irrational")
            if s != gamma:
                moduli = sorted({Fraction(gamma, den), Fraction(s, den)})
                raise FrameError(f"not equiangular: squared moduli {moduli} at ({j}, {j2})")
    gamma_sq = Fraction(gamma, den)

    if n > 1 and gamma_sq * d * (n - 1) != beta * beta * (n - d):
        raise FrameError(
            f"coherence equality violated: gamma^2 = {gamma_sq}, "
            f"bound requires {beta * beta * welch_bound_sq(d, n)}"
        )

    cert = EtfCertificate(d, n, beta, alpha, gamma_sq, True, _is_flat(frame), frame.domain)
    object.__setattr__(frame, "_certificate", cert)
    return cert


class NaimarkPair(Value):
    """Two frames whose rows jointly fill a scaled unitary."""

    primary: Frame
    complement: Frame
    alpha: Fraction


def verify_naimark_pair(primary: Frame, complement: Frame) -> NaimarkPair:
    """Check that the weighted rows of the stack S = [P; C] form a scaled unitary.

    The dimension gate makes S square, so with W the diagonal of row weights
    the single identity S S* = alpha W^-1 is equivalent to the Gram identity
    G_P + G_C = alpha I; its diagonal blocks are the tightness of both frames.
    A failure names its block: P P*, C C*, or the cross block P C*.

    When the primary already carries a certificate, the complement's follows
    from it (beta_c = alpha - beta_p, the same gamma_sq) and is cached.
    """
    n, dp = primary.n, primary.d
    if complement.n != n:
        raise FrameError("primary and complement must have the same vector count")
    if complement.d != n - dp:
        raise FrameError(f"complement dimension must be {n - dp}, got {complement.d}")

    weights = (primary.row_weights or (1,) * dp) + (complement.row_weights or (1,) * (n - dp))
    diag, raw = _row_product_diagonal(
        Frame(vstack(primary.matrix, complement.matrix), row_weights=weights)
    )

    def first_nonzero(rows, cols):
        # S S* is Hermitian, so the upper triangle decides every block.  A row's
        # part is tested at C speed; an irrational entry reads None, not 0.
        for i in rows:
            part = raw[i][max(i + 1, cols.start) : cols.stop]
            if part.count(0) != len(part):
                return i, cols.stop - len(part) + next(j for j, x in enumerate(part) if x != 0)
        return None

    alphas = set(diag[:dp])
    if len(alphas) != 1:
        raise FrameError("primary is not tight: unequal row norms")
    alpha = alphas.pop()
    if first_nonzero(range(dp), range(dp)):
        raise FrameError("primary is not tight: rows not orthogonal")
    for i in range(dp, n):
        if diag[i] != alpha:
            raise FrameError(
                f"complement row {i - dp} has squared norm {diag[i]}, expected {alpha}"
            )
    at = first_nonzero(range(dp, n), range(dp, n))
    if at:
        raise FrameError(f"complement rows {at[0] - dp} and {at[1] - dp} are not orthogonal")
    at = first_nonzero(range(dp), range(dp, n))
    if at:
        raise FrameError(f"cross block P C* is nonzero at ({at[0]}, {at[1] - dp})")

    cert_p = primary._certificate
    if cert_p is not None and complement._certificate is None:
        cert_c = EtfCertificate(
            complement.d, n, alpha - cert_p.beta, alpha, cert_p.gamma_sq, True,
            _is_flat(complement), complement.domain,
        )
        object.__setattr__(complement, "_certificate", cert_c)
    return NaimarkPair(primary, complement, alpha)


def certify_hadamard_etf(pair: NaimarkPair) -> HadamardMatrix:
    """Stack a flat pair into an n x n matrix and verify it is Hadamard."""
    for name, frame in (("primary", pair.primary), ("complement", pair.complement)):
        if frame.is_weighted():
            raise FrameError(f"{name} carries non-unit row weights, so it is not flat")
        cert = certify_etf(frame)
        if not cert.flat:
            raise FrameError(f"{name} is not flat")
    stacked = vstack(pair.primary.matrix, pair.complement.matrix)
    return verify_hadamard(stacked)


def gram_to_hadamard(frame: Frame) -> HadamardMatrix:
    """Rescale the Gram matrix of an ETF with d = (n - sqrt(n)) / 2 into a
    self-adjoint unit-diagonal Hadamard matrix.

    Uses the rational normalizer c = (sqrt(n) - 1) / beta on the Gram matrix,
    which is the scale-invariant form of the usual unit-norm convention.
    """
    cert = certify_etf(frame)
    n = cert.n
    s = isqrt(n)
    if s * s != n:
        raise FrameError(f"sqrt({n}) is not an integer")
    if cert.d != (n - s) // 2 or (n - s) % 2:
        raise FrameError(f"need d = (n - sqrt(n)) / 2 = {(n - s) / 2}, got d = {cert.d}")
    c = Fraction(s - 1) / cert.beta
    g = gram(frame)
    h = scaled_identity(n, s, g.domain) - g.scale(c)
    if h != h.adjoint():
        raise FrameError("rescaled Gram matrix is not self-adjoint")
    den, values = rational_rows(h)
    if any(values[j][j] != den for j in range(n)):
        raise FrameError("rescaled Gram matrix does not have a unit diagonal")
    return verify_hadamard(h)


def hadamard_to_gram(h: HadamardMatrix) -> tuple[ExactMatrix, int]:
    """Read a scaled ETF Gram matrix out of a self-adjoint unit-diagonal
    Hadamard matrix; returns (G, d) with G = sqrt(n) I - H and d the rank
    (n - sqrt(n)) / 2 certified by the polynomial identity G^2 = 2 sqrt(n) G.
    """
    n = h.n
    body = h.body
    if body != body.adjoint():
        raise FrameError("matrix is not self-adjoint")
    den, values = rational_rows(body)
    if any(values[j][j] != den for j in range(n)):
        raise FrameError("diagonal entries must all be one")
    s = isqrt(n)
    if s * s != n:
        raise FrameError(f"sqrt({n}) is not an integer")
    g = scaled_identity(n, s, body.domain) - body
    if matmul(g, g.adjoint()) != g.scale(2 * s):  # g is self-adjoint
        raise FrameError("eigenvalue identity G^2 = 2 sqrt(n) G failed")
    # G / 2s is a projection whose trace n (s - 1) / 2s is fixed by the unit diagonal.
    return g, (n - s) // 2
