"""Frames, Gram matrices, and the exact certification stack.

A frame is a d x n synthesis matrix whose columns are the vectors.  A row may
carry a positive rational weight w, meaning the represented row is sqrt(w)
times the stored one; this keeps constructions whose natural scaling is an
irrational square root inside the exact scalar domain.  Certification checks
equal norms, equiangularity, the coherence equality against the bound
(n - d) / (d (n - 1)) (together, tightness: no row product is formed) and
flatness, all with zero tolerance.  Nothing is ever rescaled implicitly:
operations verify the exact scalings they need and raise otherwise, because
the missing factors are usually irrational.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import hadamard
from .errors import FrameError
from .matrices import Domain, ExactMatrix, first_nonzero, matmul, rational_rows, row_product_triangle, scaled_identity, squared_moduli, vstack
from .value import Value


class Frame(Value):
    """A d x n synthesis matrix; column j is the j-th vector.

    ``row_weights[i]`` is the square of the scale carried by stored row i
    (all ones when absent).  Weighted rows appear only in complements whose
    closed form involves sqrt(k) blocks.

    Frames are immutable; only the certificate is cached, so a frame keeps
    no matrix alive but its own (``gram`` forms the Gram matrix at each call).
    """

    matrix: ExactMatrix
    row_weights: tuple[Fraction, ...] | None = None
    _certificate: "EtfCertificate | None" = None

    __eq__ = object.__eq__  # by identity: the matrix is unhashable and the cache is per object
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
    m = frame.matrix  # unweighted, a {-1, 0, 1} frame's Gram matrix takes one triangle
    return matmul(m.adjoint(), m if frame.row_weights is None else m.scale_rows(frame.row_weights))


def _row_product_diagonal(m: ExactMatrix, weights) -> tuple[list[Fraction], list[list]]:
    """Weighted diagonal of the row Gram matrix, plus the upper triangle of
    the raw row product M M* (``row_product_triangle``).  Tightness holds
    exactly when the raw off-diagonal vanishes and w_i * (M M*)(i, i) is
    one constant; the irrational cross scales sqrt(w_i w_j) are never formed.
    """
    den, raw = row_product_triangle(m)
    diag = []
    for i, w in enumerate(weights or (1,) * m.rows):
        if raw[i][0] is None:
            raise FrameError(f"row {i} has an irrational squared norm")
        diag.append(w * Fraction(raw[i][0], den))
    return diag, raw


def _is_flat(frame: Frame) -> bool:
    """Whether every stored entry, after weighting, has squared modulus one."""
    weights = frame.row_weights or (1,) * frame.d
    for w in set(weights):
        den, values = squared_moduli(frame.matrix, ((i, 0) for i, x in enumerate(weights) if x == w))
        if values != {Fraction(den) / w}:  # w |x|^2 = 1 exactly when den |x|^2 = den / w
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
    """Certify a frame as an ETF from its Gram matrix G alone; each failure
    names the violated identity.

    Checks, in order: constant rational squared norms beta (the diagonal of
    G), one rational squared modulus gamma^2 off it, and the coherence
    equality gamma^2 d (n - 1) = beta^2 (n - d), which is tightness.  For
    the eigenvalues l_1..l_d of Phi Phi* (Phi the weighted synthesis matrix),
    tr G = sum l_i = n beta and ||G||_F^2 = sum l_i^2 = n beta^2 + n (n - 1)
    gamma^2, and (tr G)^2 <= d ||G||_F^2 (Cauchy-Schwarz) holds with
    equality, which is the coherence equality, exactly when every l_i is one
    alpha = tr G / d = n beta / d.  When the angles or the coherence
    equality fail, the row product is checked first, so a frame that is not
    tight fails as not tight.  The flat flag is set when every stored entry
    (after weighting) has squared modulus one.
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

    den, moduli = squared_moduli(g, ((j, j + 1) for j in range(n)))
    try:
        if len(moduli) > 1 or None in moduli:  # name the first pair (j, j2) off the modulus of (0, 1)
            den, sq = rational_rows(g, squared=True)
            for j, row in enumerate(sq):
                for j2, s in enumerate(row[j + 1 :], j + 1):
                    if s is None:
                        raise FrameError(f"not equiangular: |<v{j}, v{j2}>|^2 is irrational")
                    if s != sq[0][1]:
                        pair = sorted({Fraction(sq[0][1], den), Fraction(s, den)})
                        raise FrameError(f"not equiangular: squared moduli {pair} at ({j}, {j2})")
        gamma_sq = Fraction(moduli.pop(), den) if moduli else Fraction(0)
        if n > 1 and gamma_sq * d * (n - 1) != beta * beta * (n - d):
            raise FrameError  # off the equality the frame is not tight, so the fallback below names the failure
    except FrameError:
        diag, raw = _row_product_diagonal(frame.matrix, frame.row_weights)
        if len(set(diag)) != 1:
            raise FrameError(f"not tight: row squared norms {sorted(set(diag))}") from None
        at = first_nonzero(raw, range(d), range(d))
        if at:
            raise FrameError(f"not tight: rows {at[0]} and {at[1]} are not orthogonal") from None
        raise

    cert = EtfCertificate(d, n, beta, n * beta / d, gamma_sq, True, _is_flat(frame), frame.domain)
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
    diag, raw = _row_product_diagonal(vstack(primary.matrix, complement.matrix), weights)

    alphas = set(diag[:dp])
    if len(alphas) != 1:
        raise FrameError("primary is not tight: unequal row norms")
    alpha = alphas.pop()
    if first_nonzero(raw, range(dp), range(dp)):
        raise FrameError("primary is not tight: rows not orthogonal")
    for i in range(dp, n):
        if diag[i] != alpha:
            raise FrameError(
                f"complement row {i - dp} has squared norm {diag[i]}, expected {alpha}"
            )
    at = first_nonzero(raw, range(dp, n), range(dp, n))
    if at:
        raise FrameError(f"complement rows {at[0] - dp} and {at[1] - dp} are not orthogonal")
    at = first_nonzero(raw, range(dp), range(dp, n))
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


def certify_hadamard_etf(pair: NaimarkPair) -> hadamard.HadamardMatrix:
    """Stack a flat pair into an n x n matrix and verify it is Hadamard."""
    for name, frame in (("primary", pair.primary), ("complement", pair.complement)):
        if frame.is_weighted():
            raise FrameError(f"{name} carries non-unit row weights, so it is not flat")
        cert = certify_etf(frame)
        if not cert.flat:
            raise FrameError(f"{name} is not flat")
    stacked = vstack(pair.primary.matrix, pair.complement.matrix)
    return hadamard.verify_hadamard(stacked)


def gram_to_hadamard(frame: Frame) -> hadamard.HadamardMatrix:
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
    if cert.d != (n - s) // 2:  # n - s = s (s - 1) is even
        raise FrameError(f"need d = (n - sqrt(n)) / 2 = {(n - s) // 2}, got d = {cert.d}")
    c = Fraction(s - 1) / cert.beta
    g = gram(frame)
    h = scaled_identity(n, s, g.domain) - g.scale(c)
    if h != h.adjoint():
        raise FrameError("rescaled Gram matrix is not self-adjoint")
    den, values = rational_rows(h)
    if any(values[j][j] != den for j in range(n)):
        raise FrameError("rescaled Gram matrix does not have a unit diagonal")
    return hadamard.verify_hadamard(h)


def hadamard_to_gram(h: hadamard.HadamardMatrix) -> tuple[ExactMatrix, int]:
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
    # G^2 - 2 s G = (s I - H)^2 - 2 s (s I - H) = H^2 - n I, and H = H*.
    den, upper = row_product_triangle(body)
    if any(r[0] != n * den or r.count(0) != len(r) - 1 for r in upper):
        raise FrameError("eigenvalue identity G^2 = 2 sqrt(n) G failed")
    g = scaled_identity(n, s, body.domain) - body
    # G / 2s is a projection whose trace n (s - 1) / 2s is fixed by the unit diagonal.
    return g, (n - s) // 2
