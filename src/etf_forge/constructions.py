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
* The flattening rotation E acts on runs of v/k consecutive blocks, so a
  resolvable design lists its blocks class by class; a run that covers a
  vertex twice is refused, naming the run.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import designs
from .errors import DesignError, FrameError
from .frames import Frame, NaimarkPair, certify_etf, verify_naimark_pair
from .hadamard import AbelianGroup, HadamardMatrix, character_rows, hadamard_of_size, kron as kron_hadamard, sylvester
from .matrices import ExactMatrix, distinct_entries, gather, kron, vstack
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
    the complement takes the remaining rows in increasing index order.  The
    stack S = [P; C] is the table H with its rows permuted, so the pair
    check S S* = n I is the table's identity H H* = n I, decided once, on
    the stack; with both frames flat (every entry of H unimodular) the checks
    decide what ``verify_hadamard(H)`` decides, and H H* is never formed.
    """
    table = character_rows(ds.group)
    chosen = set(ds.elements)
    primary = Frame(table.take_rows(ds.elements))
    complement = Frame(table.take_rows(i for i in range(table.rows) if i not in chosen))
    cert = certify_etf(primary)
    pair = verify_naimark_pair(primary, complement)
    if not (cert.flat and certify_etf(complement).flat):  # the complement's certificate follows from the pair check
        raise FrameError("a character table entry is not unimodular")
    return pair


def _lifts(inputs: SteinerInputs, e: ExactMatrix, columns):
    """(I (x) E)(I_b (x) f_l*) Pi (I_v (x) G1*) for each column l of F in turn.

    E (u x u, 1 x 1 for a Steiner frame) rotates runs of u consecutive
    blocks.  A run must hold each vertex j at most once, in block c u + beta at
    lift position (p, q); row c u + a is then E(a, beta) conj(F(p, l)) G1*[q]
    at j, gathered from the kron of the distinct scalars with G1*: no product.
    """
    lift = inputs.lift
    g1_star = inputs.g.body.adjoint().take_rows(range(1, inputs.g.n))  # G1* is rows 1..r of G*
    for column in columns:
        scalars, sid = distinct_entries(kron(e, inputs.f.body.adjoint().take_rows([column - 1])))  # entry (a, beta k + p)
        index = [[-1] * lift.v for _ in range(lift.b)]  # each cell's table row s r + q, or -1 for zeros
        for i, j, p, q in lift.slots:
            first, beta = i - i % e.rows, i % e.rows
            if index[first][j] != -1:
                raise FrameError(f"the run of blocks {first}..{first + e.rows - 1} covers vertex {j} twice: it is not a parallel class")
            for a in range(e.rows):
                index[first + a][j] = sid[(a * e.rows + beta) * lift.k + p] * lift.r + q
        yield gather(kron(scalars, g1_star), index)


def steiner_etf(inputs: SteinerInputs) -> Frame:
    """The b x v(r+1) frame lifted from a pairwise-balanced design with lam = 1."""
    frame = Frame(next(_lifts(inputs, ExactMatrix.identity(1), [inputs.column])))
    certify_etf(frame)
    return frame


def _lifted_pair(inputs: SteinerInputs, e: ExactMatrix, left: ExactMatrix, weights=None, flat=False) -> NaimarkPair:
    """The certified frame for column 1 of F, and its complement: the blocks for columns
    2..k over the tail left (x) g2* (g2 is column 0 of G).  With ``flat``, both must be flat."""
    if inputs.column != 1:
        raise FrameError("the complement construction is anchored at column 1")
    lifts = _lifts(inputs, e, range(1, inputs.lift.k + 1))
    primary = Frame(next(lifts))
    if not certify_etf(primary).flat and flat:
        raise FrameError("flattening failed: the rotated frame is not flat")
    complement = Frame(vstack(*lifts, kron(left, inputs.g.body.adjoint().take_rows([0]))), row_weights=weights)
    pair = verify_naimark_pair(primary, complement)
    if flat and not certify_etf(complement).flat:
        raise FrameError("flattening failed: the complement is not flat")
    return pair


def steiner_naimark(inputs: SteinerInputs) -> NaimarkPair:
    """Explicit complement: the sibling frames for columns 2..k of F, then the
    tail I_v (x) g2* carrying the rational weight k (the exact form of the
    sqrt(k) scale).
    """
    lift = inputs.lift
    weights = (Fraction(1),) * (lift.b * (lift.k - 1)) + (Fraction(lift.k),) * lift.v
    return _lifted_pair(inputs, ExactMatrix.identity(1), ExactMatrix.identity(lift.v), weights)


def kirkman_etf(inputs: KirkmanInputs) -> NaimarkPair:
    """Flatten a resolvable design frame: E rotates each parallel class of blocks.

    The complement stacks the rotated siblings over (E (x) F) (x) g2*, which
    is (E (x) F)(I_v (x) g2*); every entry of both frames is unimodular, so
    the pair stacks into a Hadamard matrix.
    """
    st, e = inputs.steiner, inputs.e.body
    return _lifted_pair(st, e, kron(e, st.f.body), flat=True)


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
    design, f = designs.round_robin_resolution(2 * u), sylvester(1)
    return KirkmanInputs(SteinerInputs(designs.lift_permutation(design), f, kron_hadamard(e, f)), e, design)


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
            raise FrameError(f"pair {idx}: need d = (n - sqrt(n)) / 2, got d={pair.primary.d}, n={n}")
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
