"""Balanced incomplete block designs, resolvability, the permutation lift of
an incidence matrix, quasi-symmetric design detection, and the block-graph /
strongly-regular-graph parameter machinery.

Vertices and blocks are 0-based internally.  A design document
(``design_to_obj``, ``design_from_obj``) holds 1-based vertex labels and
0-based indices into the block list for its parallel classes; one parser,
``design_from_fields``, reads design documents and ``"blocks"`` recipes.
Generators use fixed, documented labelings so downstream constructions are
bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from math import isqrt

from .errors import DesignError, InputError
from .matrices import RATIONAL, ExactMatrix, row_product_triangle
from .scalars import QuadElem
from .serialize import DESIGN_SCHEMA, MAX_SIDE, JsonObject, in_range, json_ints
from .value import Value


class DesignParams(Value):
    """Verified parameters (v, k, lam, r, b) of a block design."""

    v: int
    k: int
    lam: int
    r: int
    b: int

    @property
    def fisher(self) -> bool:
        """Whether b >= v (reported, never enforced)."""
        return self.b >= self.v

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.v, self.k, self.lam, self.r, self.b)


def _zero_one_rows(x: ExactMatrix) -> list[list[int]]:
    rows = x.int_rows()
    if rows is None or not set().union(*rows) <= {0, 1}:
        raise DesignError("incidence matrix must be 0/1 valued")
    return rows


def verify_bibd(x: ExactMatrix) -> DesignParams:
    """Check the three incidence identities exactly and return the parameters.

    Requires constant row sums k, constant column sums r, and
    X^T X = (r - lam) I + lam J for a single off-diagonal constant lam.
    """
    rows = _zero_one_rows(x)
    b, v = x.rows, x.cols
    if v < 2:
        raise DesignError("need at least two vertices")
    row_sums = set(map(sum, rows))
    if len(row_sums) != 1:
        raise DesignError(f"block sizes are not constant: {sorted(row_sums)}")
    k = row_sums.pop()
    _, xtx = row_product_triangle(x.transpose())  # X^T X, 0/1 entries: den 1
    col_sums = {row[0] for row in xtx}  # the diagonal: x^2 = x on 0/1 entries
    if len(col_sums) != 1:
        raise DesignError(f"vertex replication counts are not constant: {sorted(col_sums)}")
    r = col_sums.pop()
    if not v > k > 0:
        raise DesignError(f"need v > k > 0, got v={v}, k={k}")
    pair_counts = set().union(*(row[1:] for row in xtx))
    if len(pair_counts) != 1:
        raise DesignError(f"pair counts are not constant: {sorted(pair_counts)}")
    # Not tested, as counting ones proves them: bk = vr, (v - 1) lam = r (k - 1), hence 0 <= lam < r < b.
    return DesignParams(v, k, pair_counts.pop(), r, b)


class Design:
    """A verified block design: blocks over 0-based vertices plus parameters.

    ``parallel_classes``, when present, lists disjoint block-index groups,
    each of which partitions the vertex set.
    """

    def __init__(self, v: int, blocks, parallel_classes=None):
        self.v = v
        self.blocks = tuple(tuple(sorted(block)) for block in blocks)
        self.parallel_classes = (
            tuple(tuple(c) for c in parallel_classes) if parallel_classes else None
        )
        if not self.blocks:
            raise DesignError("a design needs at least one block")
        self.params = verify_bibd(self.incidence)
        if self.parallel_classes is not None:
            self._check_resolution()

    @cached_property
    def incidence(self) -> ExactMatrix:
        rows = []
        for i, block in enumerate(self.blocks):
            row = [0] * self.v
            for vertex in block:
                if not 0 <= vertex < self.v:
                    raise DesignError(f"vertex {vertex} out of range")
                if row[vertex]:
                    raise DesignError(f"block {i} repeats vertex {vertex}")
                row[vertex] = 1
            rows.append(row)
        return ExactMatrix(RATIONAL, 1, [rows])

    @staticmethod
    def from_incidence(x: ExactMatrix, parallel_classes=None) -> "Design":
        blocks = [tuple(compress(range(x.cols), row)) for row in _zero_one_rows(x)]
        return Design(x.cols, blocks, parallel_classes)

    def _check_resolution(self):
        classes = self.parallel_classes
        if len(classes) != self.params.r:
            raise DesignError(f"expected {self.params.r} parallel classes, got {len(classes)}")
        seen = [i for c in classes for i in c]
        if sorted(seen) != list(range(self.params.b)):
            raise DesignError("parallel classes must partition the block list")
        for c in classes:
            covered = sorted(vertex for i in c for vertex in self.blocks[i])
            if covered != list(range(self.v)):
                raise DesignError(f"class {c} does not partition the vertex set")

    def __repr__(self):
        p = self.params
        return f"Design(v={p.v}, k={p.k}, lam={p.lam}, r={p.r}, b={p.b})"


def design_to_obj(design: Design) -> dict:
    p = design.params
    obj = {
        "schema": DESIGN_SCHEMA,
        "v": p.v,
        "k": p.k,
        "lambda": p.lam,
        "r": p.r,
        "b": p.b,
        "blocks": [[x + 1 for x in block] for block in design.blocks],
    }
    if design.parallel_classes is not None:
        obj["parallel_classes"] = [list(c) for c in design.parallel_classes]
    return obj


def design_from_fields(obj: JsonObject) -> Design:
    """The design of an object's ``v``, 1-based ``blocks`` and optional 0-based
    ``parallel_classes``, as design documents and ``"blocks"`` recipes hold
    them.  v outside 1..MAX_SIDE (checked first), a vertex label outside 1..v
    or a repeated vertex is bad input, not a failed design identity."""
    v = in_range("design v", obj["v"], 1, MAX_SIDE)
    blocks = [tuple(x - 1 for x in block) for block in json_ints(obj["blocks"], "design blocks", 2)]
    for i, block in enumerate(blocks, 1):
        if min(block, default=0) < 0 or max(block, default=0) >= v:
            raise InputError(f"design block {i} {[x + 1 for x in block]} has a vertex label outside 1..{v}")
        if len(set(block)) != len(block):
            raise InputError(f"design block {i} {[x + 1 for x in block]} repeats a vertex")
    classes = obj.get("parallel_classes")
    return Design(v, blocks, None if classes is None else json_ints(classes, "design parallel classes", 2))


def design_from_obj(obj) -> Design:
    obj = JsonObject(obj, "a design document")
    if obj.get("schema") != DESIGN_SCHEMA:
        raise InputError(f"not a design document: schema {obj.get('schema')!r}")
    declared = json_ints([obj[key] for key in ("v", "k", "lambda", "r", "b")], "design parameters")
    design = design_from_fields(obj)
    if design.params.as_tuple() != declared:
        raise DesignError(
            f"declared parameters {declared} disagree with the block list "
            f"{design.params.as_tuple()}"
        )
    return design


def all_pairs_design(v: int) -> Design:
    """All 2-element subsets of the vertex set, in lexicographic order."""
    if v < 3:
        raise DesignError("need v >= 3")
    return Design(v, list(combinations(range(v), 2)))


def round_robin_resolution(v: int) -> Design:
    """The all-pairs design rearranged into the round-robin tournament schedule.

    For even v, class p (p = 1..v-1) pairs vertex v with p and pairs p+i with
    p-i modulo v-1 (residues written in 1..v-1).  Blocks are listed class by
    class, so the design is ready for constructions that consume one parallel
    class at a time.
    """
    if v < 4 or v % 2:
        raise DesignError("round-robin resolution needs an even v >= 4")
    n = v - 1
    blocks = []
    classes = []
    for p in range(1, v):
        start = len(blocks)
        blocks.append((v - 1, p - 1))  # 0-based {v, p}
        for i in range(1, v // 2):
            hi = (p + i - 1) % n + 1
            lo = (p - i - 1) % n + 1
            blocks.append((hi - 1, lo - 1))
        classes.append(tuple(range(start, len(blocks))))
    return Design(v, blocks, classes)


FANO_BLOCKS = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def fano_plane() -> Design:
    """The projective plane of order 2 with a fixed, documented labeling."""
    return Design(7, [tuple(x - 1 for x in block) for block in FANO_BLOCKS])


class PermutationLift(Value):
    """The permutation matrix that lifts an incidence matrix.

    ``slots`` maps each incidence one at (block i, vertex j) to its position
    pair (p, q): the one is the p-th one in row i and the q-th one in column
    j (both 1-based).  Expanded, this is the bk x vr permutation matrix whose
    (i, j) block of size k x r has a single one at (p, q) when X(i, j) = 1.
    """

    b: int
    k: int
    v: int
    r: int
    slots: tuple[tuple[int, int, int, int], ...]  # (i, j, p, q), 0-based p, q

    def matrix(self) -> ExactMatrix:
        n = self.b * self.k
        rows = [[0] * (self.v * self.r) for _ in range(n)]
        for i, j, p, q in self.slots:
            rows[i * self.k + p][j * self.r + q] = 1
        return ExactMatrix.from_rows(rows, RATIONAL)


def lift_permutation(design: Design) -> PermutationLift:
    """Lift the incidence matrix with the canonical row/column counting rule."""
    p = design.params
    rows = design.incidence.int_rows()
    col_count = [0] * p.v
    slots = []
    for i, row in enumerate(rows):
        for row_count, j in enumerate(compress(range(p.v), row)):
            slots.append((i, j, row_count, col_count[j]))
            col_count[j] += 1
    return PermutationLift(p.b, p.k, p.v, p.r, tuple(slots))


def complement_design(design: Design) -> Design:
    """The design with incidence J - X."""
    blocks = [
        tuple(sorted(set(range(design.v)) - set(block))) for block in design.blocks
    ]
    return Design(design.v, blocks)


class QsdCertificate(Value):
    """A quasi-symmetric design: exactly two block intersection sizes y > x.

    ``design`` is present when the certificate came from scanning an actual
    design; parameter-level certificates carry None there.
    """

    params: DesignParams
    x: int
    y: int
    design: "Design | None" = None

    @cached_property
    def block_graph(self) -> ExactMatrix | None:
        """The blocks' adjacency at intersection size y, built on request; None without a design."""
        if self.design is None:
            return None
        _, upper = row_product_triangle(self.design.incidence)
        marks = ExactMatrix.from_rows([[0] * (i + 1) + [int(s == self.y) for s in row[1:]] for i, row in enumerate(upper)], RATIONAL)
        return marks + marks.transpose()  # the y entries of the upper triangle, mirrored

    def __post_init__(self):
        p = self.params
        if not self.y > self.x >= 0:
            raise DesignError(f"need y > x >= 0, got x={self.x}, y={self.y}")
        lhs = p.k * (p.r - 1) * (self.x + self.y - 1) - self.x * self.y * (p.b - 1)
        rhs = p.k * (p.k - 1) * (p.lam - 1)
        if lhs != rhs:
            raise DesignError(
                f"intersection-number identity failed: {lhs} != {rhs} "
                f"for params {p.as_tuple()} with (x, y) = ({self.x}, {self.y})"
            )

    @staticmethod
    def from_params(v, k, lam, r, b, x, y) -> "QsdCertificate":
        return QsdCertificate(DesignParams(v, k, lam, r, b), x, y)

    def as_tuple(self):
        return self.params.as_tuple() + (self.x, self.y)


def verify_qsd(design: Design) -> QsdCertificate:
    """Scan all block pairs; certify exactly two intersection sizes.

    Designs with b = v (symmetric designs) are rejected outright.
    """
    p = design.params
    if p.b <= p.v:
        raise DesignError(f"quasi-symmetric designs need b > v, got b={p.b}, v={p.v}")
    # Block intersection sizes are the off-diagonal entries of X X^T.
    _, upper = row_product_triangle(design.incidence)  # an incidence matrix is 0/1: den 1
    sizes = set().union(*(row[1:] for row in upper))
    if len(sizes) != 2:
        raise DesignError(
            f"expected exactly two intersection sizes, found {sorted(sizes)}"
        )
    x, y = sorted(sizes)
    # X X^T = (k - x) I + (y - x) A + x J holds by construction: its diagonal
    # is the block size k (verify_bibd), every other entry is x or y, and the
    # block graph A marks the y entries.
    return QsdCertificate(p, x, y, design)


class SrgParams(Value):
    """Strongly regular graph parameters with exact eigenvalues.

    The eigenvalues other than the degree are roots of a quadratic with
    integer coefficients, so they are represented exactly in a real
    quadratic field (they are rational for every block graph of a QSD).
    """

    b: int
    a: int
    c: int
    mu: int
    theta1: QuadElem
    theta2: QuadElem

    def as_tuple(self):
        return (self.b, self.a, self.c, self.mu)

    def __post_init__(self):
        if self.a * (self.a - self.c - 1) != self.mu * (self.b - self.a - 1):
            raise DesignError(
                f"SRG parameter relation failed for {self.as_tuple()}"
            )


def srg_params_from_qsd(cert: QsdCertificate) -> SrgParams:
    """Parameters of the block graph, from the design parameters alone."""
    p = cert.params
    x, y = cert.x, cert.y
    span = y - x
    a = Fraction(p.k * (p.r - 1) - x * (p.b - 1), span)
    theta1 = Fraction((p.r - p.lam) - (p.k - x), span)
    theta2 = Fraction(-(p.k - x), span)
    c = a + theta1 + theta2 + theta1 * theta2
    mu = a + theta1 * theta2
    for name, value in (("a", a), ("c", c), ("mu", mu)):
        if value.denominator != 1:
            raise DesignError(f"block-graph parameter {name} = {value} is not an integer")
    return SrgParams(
        p.b,
        int(a),
        int(c),
        int(mu),
        QuadElem.from_rational(theta1),
        QuadElem.from_rational(theta2),
    )


def verify_srg(a: ExactMatrix) -> SrgParams:
    """Exact check that A 1 = a 1 and A^2 = (c - mu) A + (a - mu) I + mu J."""
    rows = a.int_rows()
    if a.rows != a.cols or rows is None:
        raise DesignError("adjacency matrix must be square and 0/1 valued")
    n = a.rows
    for i, (row, column) in enumerate(zip(rows, zip(*rows))):
        if row[i] != 0:
            raise DesignError("adjacency matrix must have a zero diagonal")
        if not set(row) <= {0, 1} or tuple(row) != column:
            raise DesignError("adjacency matrix must be symmetric and 0/1 valued")
    degrees = set(map(sum, rows))
    if len(degrees) != 1:
        raise DesignError(f"graph is not regular: degrees {sorted(degrees)}")
    deg = degrees.pop()
    if deg == 0 or deg == n - 1:
        raise DesignError("complete and empty graphs are excluded")
    _, sq = row_product_triangle(a)  # A A* = A^2: A is symmetric 0/1, so den is 1 and A^2 symmetric
    common_adj, common_non = set(), set()
    for i, (row, upper) in enumerate(zip(rows, sq)):  # upper[j - i] is entry (i, j) of A^2
        common_adj.update(compress(upper[1:], row[i + 1:]))
        common_non.update(compress(upper[1:], map((0).__eq__, row[i + 1:])))
    if len(common_adj) != 1 or len(common_non) != 1:
        raise DesignError("common-neighbor counts are not constant")
    c = common_adj.pop()
    mu = common_non.pop()
    # Eigenvalues other than the degree solve z^2 - (c - mu) z - (deg - mu) = 0.
    disc = (c - mu) ** 2 + 4 * (deg - mu)
    root = QuadElem.sqrt_of_rational(disc)
    theta1 = (QuadElem.from_rational(c - mu) + root) * Fraction(1, 2)
    theta2 = (QuadElem.from_rational(c - mu) - root) * Fraction(1, 2)
    return SrgParams(n, deg, c, mu, theta1, theta2)


def etf_params_from_srg(p: SrgParams) -> tuple[int, int]:
    """Frame dimensions (d, n) encoded by an SRG with a = 2 mu."""
    if p.a != 2 * p.mu:
        raise DesignError(f"need a = 2 mu, got a={p.a}, mu={p.mu}")
    m = p.b - 2 * p.a - 1
    disc = m * m + 4 * p.b
    s = isqrt(disc)
    if s * s != disc:
        raise DesignError(f"{disc} is not a perfect square")
    d = Fraction((p.b + 1) * (s + m), 2 * s)
    if d.denominator != 1:
        raise DesignError(f"derived dimension {d} is not an integer")
    return int(d), p.b + 1
