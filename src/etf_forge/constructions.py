"""The frame constructions: flat regular simplices, harmonic frames from
difference sets, block-design frames with explicit complements, their
resolvable flattening, and tensor products of complementary pairs.

Conventions that fix the golden outputs bit-for-bit:

* In a size r+1 Hadamard matrix G feeding a design construction, the leading
  column seeds the complement tail and the remaining r columns carry the
  flat simplex (their conjugate transpose is the r x (r+1) simplex; for the
  standard generators the leading column is all ones, so the simplex is the
  matrix with the all-ones row removed).
* Group characters and elements are indexed in big-endian mixed-radix
  counting order, so the subset {1, 2, 3, 5, 10, 15} of the rank-4
  elementary 2-group reproduces the classical 6 x 16 flat packing verbatim.
* Resolvable designs list their blocks class by class, and the flattening
  rotation consumes them in that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import isqrt

from . import designs
from .errors import DesignError, FrameError
from .frames import Frame, NaimarkPair, certify_etf, verify_naimark_pair
from .hadamard import AbelianGroup, HadamardMatrix, char_table, hadamard_of_size, kron as kron_hadamard, sylvester
from .matrices import ExactMatrix, kron, matmul, vstack
from .value import Value


class SteinerInputs(Value):
    """Ingredients for a design-lifted frame.

    ``f`` has the size of the block size k; ``g`` has size r + 1.  ``column``
    is the 1-based column of f whose conjugate weights the lifted blocks.
    """

    lift: designs.PermutationLift
    f: HadamardMatrix
    g: HadamardMatrix
    column: int = 1

    def __post_init__(self):
        if self.f.n != self.lift.k:
            raise FrameError(f"F must have size k = {self.lift.k}, got {self.f.n}")
        if self.g.n != self.lift.r + 1:
            raise FrameError(f"G must have size r + 1 = {self.lift.r + 1}, got {self.g.n}")
        if not 1 <= self.column <= self.lift.k:
            raise FrameError(f"column must lie in 1..{self.lift.k}")


class KirkmanInputs(Value):
    """Steiner ingredients over a resolvable design, plus the size v/k rotation."""

    steiner: SteinerInputs
    e: HadamardMatrix
    design: designs.Design

    def __post_init__(self):
        if self.design.parallel_classes is None:
            raise FrameError("the design must carry parallel classes")
        p = self.design.params
        if self.e.n * p.k != p.v:
            raise FrameError(f"E must have size v / k = {p.v // p.k}, got {self.e.n}")


class DifferenceSet(Value):
    """A verified difference set: constant difference counts off the identity."""

    group: AbelianGroup
    elements: tuple[int, ...]
    lam: int


def flat_regular_simplex(h: HadamardMatrix, drop_row: int = 0) -> Frame:
    """Remove one row of a Hadamard matrix of size d + 1; certify the rest."""
    if not 0 <= drop_row < h.n:
        raise FrameError(f"row index {drop_row} out of range")
    frame = Frame(h.body.drop_row(drop_row))
    cert = certify_etf(frame)
    if not cert.flat:
        raise FrameError("simplex construction produced a non-flat frame")
    return frame


def verify_difference_set(group: AbelianGroup, subset) -> DifferenceSet:
    """Exhaustive difference count over every nonzero group element."""
    elements = tuple(subset)
    if not elements:
        raise DesignError("the subset must be nonempty")
    if len(set(elements)) != len(elements):
        raise DesignError("the subset has repeated elements")
    if len(elements) >= group.size:
        raise DesignError("the subset must be proper")
    counts = [0] * group.size
    for i in elements:
        for j in elements:
            counts[group.subtract(i, j)] += 1
    nonzero = counts[1:]
    first = nonzero[0]
    for g, c in enumerate(nonzero, start=1):
        if c != first:
            raise DesignError(
                f"difference counts are not constant: element {g} occurs {c} times, "
                f"element 1 occurs {first} times"
            )
    return DifferenceSet(group, elements, first)


def harmonic_etf(ds: DifferenceSet) -> NaimarkPair:
    """Restrict the character table to the difference set's rows.

    The primary takes the rows indexed by the subset in its listed order;
    the complement takes the remaining rows in increasing index order.  Both
    are flat, and stacking them recovers the character table.
    """
    table = char_table(ds.group)
    chosen = list(ds.elements)
    rest = [i for i in range(ds.group.size) if i not in set(chosen)]
    primary = Frame(table.body.take_rows(chosen))
    complement = Frame(table.body.take_rows(rest))
    certify_etf(primary)
    return verify_naimark_pair(primary, complement)


def _lifted_block_matrix(inputs: SteinerInputs, column: int) -> ExactMatrix:
    """(I_b (x) f_l*) Pi (I_v (x) G1*) for column l of F, assembled block by block.

    Block (i, j) of the result is conj(F(p, l)) times row q of G1*, where
    (p, q) is the lift position of the incidence one at (i, j); zero rows of
    the incidence matrix contribute zero blocks.
    """
    lift = inputs.lift
    g_star = inputs.g.body.adjoint()  # G1* is rows 1..r of G*
    f_col = inputs.f.body.adjoint().take_rows([column - 1]).transpose()
    blocks = kron(f_col, g_star.take_rows(range(1, g_star.rows)))  # row p r + q: conj(F(p, l)) G1*[q]
    zero = [0] * (lift.r + 1)
    planes = []
    for plane in blocks.planes:
        rows = [[zero] * lift.v for _ in range(lift.b)]
        for i, j, p, q in lift.slots:
            rows[i][j] = plane[p * lift.r + q]
        planes.append([[x for block in row for x in block] for row in rows])
    return ExactMatrix(blocks.domain, blocks.den, planes)


def steiner_etf(inputs: SteinerInputs) -> Frame:
    """The b x v(r+1) frame lifted from a pairwise-balanced design with lam = 1."""
    frame = Frame(_lifted_block_matrix(inputs, inputs.column))
    certify_etf(frame)
    return frame


def _siblings(inputs: SteinerInputs):
    """The sibling blocks for columns 2..k of F, each built when it is asked for."""
    return (_lifted_block_matrix(inputs, l) for l in range(2, inputs.lift.k + 1))


def _steiner_tail(inputs: SteinerInputs) -> ExactMatrix:
    """I_v (x) g2*, the unscaled tail block of the complement (g2 is column 0 of G)."""
    g2_star = inputs.g.body.adjoint().take_rows([0])
    return kron(ExactMatrix.identity(inputs.lift.v, g2_star.domain), g2_star)


def steiner_naimark(inputs: SteinerInputs) -> NaimarkPair:
    """Explicit complement: the sibling frames for columns 2..k of F, then the
    tail I_v (x) g2* carrying the rational weight k (the exact form of the
    sqrt(k) scale).
    """
    if inputs.column != 1:
        raise FrameError("the complement construction is anchored at column 1")
    lift = inputs.lift
    primary = steiner_etf(inputs)
    weights = (Fraction(1),) * (lift.b * (lift.k - 1)) + (Fraction(lift.k),) * lift.v
    complement = Frame(vstack(*_siblings(inputs), _steiner_tail(inputs)), row_weights=weights)
    return verify_naimark_pair(primary, complement)


def kirkman_etf(inputs: KirkmanInputs) -> NaimarkPair:
    """Flatten a resolvable design frame with the block rotation I_r (x) E.

    The complement stacks the rotated siblings and (E (x) F)(I_v (x) g2*);
    every entry of both frames is unimodular, so the pair stacks into a
    Hadamard matrix.
    """
    st = inputs.steiner
    if st.column != 1:
        raise FrameError("the complement construction is anchored at column 1")
    rotation = kron(ExactMatrix.identity(inputs.design.params.r, inputs.e.body.domain), inputs.e.body)
    primary = Frame(matmul(rotation, _lifted_block_matrix(st, 1)))
    cert = certify_etf(primary)
    if not cert.flat:
        raise FrameError("flattening failed: the rotated frame is not flat")
    siblings = map(partial(matmul, rotation), _siblings(st))  # rotated as built: one unrotated block alive at a time
    complement = Frame(vstack(*siblings, matmul(kron(inputs.e.body, st.f.body), _steiner_tail(st))))
    pair = verify_naimark_pair(primary, complement)
    if not certify_etf(complement).flat:
        raise FrameError("flattening failed: the complement is not flat")
    return pair


def standard_kirkman_inputs(u: int, e: HadamardMatrix | None = None) -> KirkmanInputs:
    """The canonical family instance on v = 2u vertices.

    E is a Hadamard matrix of size u (looked up by recipe when not given),
    F is the size-2 Hadamard matrix, and G = E (x) F has size 2u = r + 1.
    The round-robin schedule supplies the resolvable design.
    """
    if e is None:
        e = hadamard_of_size(u)
    if e.n != u:
        raise FrameError(f"E must have size {u}, got {e.n}")
    design = designs.round_robin_resolution(2 * u)
    f = sylvester(1)
    g = kron_hadamard(e, f)
    lift = designs.lift_permutation(design)
    return KirkmanInputs(SteinerInputs(lift, f, g, column=1), e, design)


def tensor_etf(p1: NaimarkPair, p2: NaimarkPair) -> NaimarkPair:
    """Combine two complementary pairs with d_i = (n_i - sqrt(n_i)) / 2.

    Columns are indexed lexicographically by the input column pairs.  The
    norm gates are verified, never repaired: the primaries must have squared
    norm d and the complements n - d (automatic for flat frames).
    """
    for idx, pair in enumerate((p1, p2), start=1):
        n = pair.primary.n
        s = isqrt(n)
        if s * s != n or pair.primary.d * 2 != n - s:
            raise FrameError(
                f"pair {idx}: need d = (n - sqrt(n)) / 2, got d={pair.primary.d}, n={n}"
            )
        if pair.primary.is_weighted() or pair.complement.is_weighted():
            raise FrameError(f"pair {idx}: weighted rows are not supported here")
        if certify_etf(pair.primary).beta != pair.primary.d:
            raise FrameError(f"pair {idx}: primary squared norms must equal d")
        if certify_etf(pair.complement).beta != pair.complement.d:
            raise FrameError(f"pair {idx}: complement squared norms must equal n - d")

    a, ac = p1.primary.matrix, p1.complement.matrix
    b, bc = p2.primary.matrix, p2.complement.matrix
    primary = Frame(vstack(kron(a, bc), kron(ac, b)))
    complement = Frame(vstack(kron(a, b), kron(ac, bc)))
    certify_etf(primary)
    return verify_naimark_pair(primary, complement)
