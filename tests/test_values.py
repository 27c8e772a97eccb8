"""The package's value classes, pinned class by class: equality, hashing,
repr, docstring, immutability, defaults and construction-time validation."""

from fractions import Fraction

import pytest

from etf_forge.catalog import CatalogRecord
from etf_forge.constructions import DifferenceSet, KirkmanInputs, SteinerInputs, standard_kirkman_inputs
from etf_forge.designs import (
    DesignParams,
    PermutationLift,
    QsdCertificate,
    SrgParams,
    all_pairs_design,
    lift_permutation,
    round_robin_resolution,
)
from etf_forge.errors import DesignError, FrameError, HadamardError
from etf_forge.frames import EtfCertificate, Frame, NaimarkPair, certify_etf
from etf_forge.hadamard import AbelianGroup, HadamardMatrix, sylvester
from etf_forge.matrices import CycloDomain, ExactMatrix, QuadDomain, cyclo_domain
from etf_forge.qsd_bridge import FeasibilityReport, FlatEtfExtraction, GerzonReport, QsdEtfLink, RadicalCheck
from etf_forge.recipes import Artifact
from etf_forge.scalars import QuadElem

H2 = sylvester(1)
H4 = sylvester(2)
M2x4 = ExactMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1]])
P = DesignParams(6, 2, 1, 5, 15)
Q = QuadElem.from_rational
LIFT = lift_permutation(all_pairs_design(4))
KIRKMAN = standard_kirkman_inputs(2, e=H2)
STEINER = KIRKMAN.steiner
DESIGN = KIRKMAN.design
PRIMARY, COMPLEMENT = Frame(M2x4), Frame(ExactMatrix.from_rows([[1, 1, -1, -1], [1, -1, -1, 1]]))
RC9 = RadicalCheck(Fraction(9), True, 3, True)
RECORD_FIELDS = ("ab12", "kirkman", {"d": 6, "n": 16}, {"primary": {"flat": True}}, "2026-01-01T00:00:00+00:00", "payloads/ab12")

H2_REPR = "HadamardMatrix(n=2, body=ExactMatrix(CycloDomain(order=1), 2x2), kind='real')"
LIFT_SLOTS = ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 2, 1, 0), (2, 0, 0, 2), (2, 3, 1, 0),
              (3, 1, 0, 1), (3, 2, 1, 1), (4, 1, 0, 2), (4, 3, 1, 1), (5, 2, 0, 2), (5, 3, 1, 2))
LIFT_REPR = f"PermutationLift(b=6, k=2, v=4, r=3, slots={LIFT_SLOTS})"
P_REPR = "DesignParams(v=6, k=2, lam=1, r=5, b=15)"
FRAME_REPR = "Frame(matrix=ExactMatrix(CycloDomain(order=1), 2x4), row_weights=None)"
RC9_REPR = "RadicalCheck(radicand=Fraction(9, 1), is_integer=True, value=3, odd=True)"

# class: (fields of an instance, the same fields with one changed, its repr, whether it hashes)
CASES = {
    CycloDomain: ((4,), (5,), "CycloDomain(order=4)", True),
    QuadDomain: ((6,), (2,), "QuadDomain(radicand=6)", True),
    HadamardMatrix: ((2, H2.body, "real"), (2, H2.body, "complex"), H2_REPR, False),
    AbelianGroup: (((2, 4),), ((4, 2),), "AbelianGroup(orders=(2, 4))", True),
    DesignParams: ((6, 2, 1, 5, 15), (6, 2, 1, 5, 16), P_REPR, True),
    PermutationLift: ((6, 2, 4, 3, LIFT_SLOTS), (6, 2, 4, 3, LIFT_SLOTS[:-1]), LIFT_REPR, True),
    QsdCertificate: ((P, 0, 1, None), (P, 0, 1, DESIGN),
                     f"QsdCertificate(params={P_REPR}, x=0, y=1, design=None)", True),
    SrgParams: ((15, 8, 4, 4, Q(2), Q(-2)), (15, 8, 4, 4, Q(-2), Q(2)),
                "SrgParams(b=15, a=8, c=4, mu=4, theta1=2, theta2=-2)", False),
    EtfCertificate: ((6, 16, Fraction(6), Fraction(16), Fraction(4), True, True, cyclo_domain(1)),
                     (6, 16, Fraction(6), Fraction(16), Fraction(4), True, False, cyclo_domain(1)),
                     "EtfCertificate(d=6, n=16, beta=Fraction(6, 1), alpha=Fraction(16, 1), gamma_sq=Fraction(4, 1), "
                     "welch_equality=True, flat=True, domain=CycloDomain(order=1))", True),
    NaimarkPair: ((PRIMARY, COMPLEMENT, Fraction(4)), (PRIMARY, COMPLEMENT, Fraction(2)),
                  f"NaimarkPair(primary={FRAME_REPR}, complement=Frame(matrix=ExactMatrix(CycloDomain(order=1), 2x4), "
                  "row_weights=None), alpha=Fraction(4, 1))", True),
    SteinerInputs: ((LIFT, H2, H4, 1), (LIFT, H2, H4, 2),
                    f"SteinerInputs(lift={LIFT_REPR}, f={H2_REPR}, g=HadamardMatrix(n=4, body=ExactMatrix(CycloDomain(order=1), "
                    "4x4), kind='real'), column=1)", False),
    KirkmanInputs: ((STEINER, H2, DESIGN), (STEINER, H2, round_robin_resolution(4)),
                    f"KirkmanInputs(steiner={STEINER!r}, e={H2_REPR}, design=Design(v=4, k=2, lam=1, r=3, b=6))", False),
    DifferenceSet: ((AbelianGroup((13,)), (0, 1, 3, 9), 1), (AbelianGroup((13,)), (0, 1, 3, 9), 2),
                    "DifferenceSet(group=AbelianGroup(orders=(13,)), elements=(0, 1, 3, 9), lam=1)", True),
    QsdEtfLink: ((Fraction(2), 2, Q(1), Q(-2), "plus", P, 0, 1), (Fraction(2), 2, Q(1), Q(-2), "minus", P, 0, 1),
                 f"QsdEtfLink(w=Fraction(2, 1), k=2, delta=1, eps=-2, branch='plus', params={P_REPR}, x=0, y=1)", False),
    FlatEtfExtraction: ((QsdCertificate(P, 0, 1), DESIGN, M2x4, 2, 2, 0, 1),
                        (QsdCertificate(P, 0, 1), DESIGN, M2x4, 3, 2, 0, 1),
                        f"FlatEtfExtraction(certificate=QsdCertificate(params={P_REPR}, x=0, y=1, design=None), "
                        "design=Design(v=4, k=2, lam=1, r=3, b=6), "
                        "signed_matrix=ExactMatrix(CycloDomain(order=1), 2x4), w=2, k=2, x=0, y=1)", False),
    RadicalCheck: ((Fraction(9), True, 3, True), (Fraction(8), False, None, None), RC9_REPR, True),
    FeasibilityReport: ((6, 16, RC9, RC9, RC9, 0), (6, 16, RC9, RC9, RC9, 4),
                        f"FeasibilityReport(d=6, n=16, q1={RC9_REPR}, q2={RC9_REPR}, w={RC9_REPR}, n_mod_16=0)", True),
    GerzonReport: ((6, 16, "real", "flat", Fraction(16), True, None), (6, 16, "real", "flat", Fraction(16), False, "upper"),
                   "GerzonReport(d=6, n=16, field='real', kind='flat', upper_bound=Fraction(16, 1), passed=True, "
                   "violated=None)", True),
    Artifact: (("kirkman", {"kind": "kirkman"}, PRIMARY, None, None), ("simplex", {"kind": "kirkman"}, PRIMARY, None, None),
               f"Artifact(kind='kirkman', recipe={{'kind': 'kirkman'}}, primary={FRAME_REPR}, pair=None, link=None)", False),
    CatalogRecord: (RECORD_FIELDS, RECORD_FIELDS[:-1] + ("payloads/cd34",),
                    "CatalogRecord(id='ab12', kind='kirkman', params={'d': 6, 'n': 16}, certificates={'primary': "
                    "{'flat': True}}, created_at='2026-01-01T00:00:00+00:00', payload='payloads/ab12')", False),
}
FIELDS = {cls: names.split() for cls, names in {
    CycloDomain: "order", QuadDomain: "radicand", HadamardMatrix: "n body kind", AbelianGroup: "orders",
    DesignParams: "v k lam r b", PermutationLift: "b k v r slots", QsdCertificate: "params x y design",
    SrgParams: "b a c mu theta1 theta2", EtfCertificate: "d n beta alpha gamma_sq welch_equality flat domain",
    NaimarkPair: "primary complement alpha", SteinerInputs: "lift f g column", KirkmanInputs: "steiner e design",
    DifferenceSet: "group elements lam", QsdEtfLink: "w k delta eps branch params x y",
    FlatEtfExtraction: "certificate design signed_matrix w k x y", RadicalCheck: "radicand is_integer value odd",
    FeasibilityReport: "d n q1 q2 w n_mod_16", GerzonReport: "d n field kind upper_bound passed violated",
    Artifact: "kind recipe primary pair link", CatalogRecord: "id kind params certificates created_at payload",
}.items()}
DOCS = {
    HadamardMatrix: 'A verified Hadamard matrix; ``kind`` is "real" for +/-1 matrices.',
    DesignParams: "Verified parameters (v, k, lam, r, b) of a block design.",
    EtfCertificate: "Exact witness that a frame is an equiangular tight frame.",
    NaimarkPair: "Two frames whose rows jointly fill a scaled unitary.",
    KirkmanInputs: "Steiner ingredients over a resolvable design, plus the size v/k rotation.",
    DifferenceSet: "A verified difference set: constant difference counts off the identity.",
    QsdEtfLink: "The scalars tying a QSD to the frame it generates.",
    FlatEtfExtraction: "The design and scalars read off a canonically signed real flat frame.",
    RadicalCheck: "Exact integrality/parity data for one square root.",
    GerzonReport: "One dimension-count bound check, with the violated side named.",
    Artifact: "The result of replaying a recipe: a frame or a complementary pair.",
}
DOC_OPENINGS = {
    AbelianGroup: "A finite abelian group as a product of cyclic factors.\n\n",
    PermutationLift: "The permutation matrix that lifts an incidence matrix.\n\n",
    QsdCertificate: "A quasi-symmetric design: exactly two block intersection sizes y > x.\n\n",
    SrgParams: "Strongly regular graph parameters with exact eigenvalues.\n\n",
    Frame: "A d x n synthesis matrix; column j is the j-th vector.\n\n",
    SteinerInputs: "Ingredients for a design-lifted frame.\n\n",
    FeasibilityReport: "Necessary-condition report for a real flat frame of n vectors in R^d.\n\n",
}
FROZEN = [cls for cls in CASES if cls not in (Artifact, CatalogRecord)]
OTHER = DesignParams(6, 2, 1, 5, 15)


def test_every_value_class_is_pinned():
    assert len(CASES) == 20 and len(FIELDS) == 20  # Frame, the 21st, compares by identity
    assert set(DOCS) | set(DOC_OPENINGS) | {CycloDomain, QuadDomain, CatalogRecord} == set(CASES) | {Frame}


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_value_class_semantics(cls):
    fields, changed, expected_repr, hashable = CASES[cls]
    a, b, c = cls(*fields), cls(*fields), cls(*changed)
    names = FIELDS[cls]
    assert [getattr(a, n) for n in names] == list(fields)
    assert cls(**dict(zip(names, fields))) == a
    assert a == b and not a != b and a is not b
    assert a != c and not a == c
    other = OTHER if cls is not DesignParams else QsdCertificate(OTHER, 0, 1)
    assert a != other and a.__eq__(other) is NotImplemented
    assert a != fields and a.__eq__(fields) is NotImplemented
    if hashable:
        assert hash(a) == hash(b) == hash(fields)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == expected_repr
    if cls in DOCS:
        assert cls.__doc__ == DOCS[cls]
    elif cls in DOC_OPENINGS:
        assert cls.__doc__.startswith(DOC_OPENINGS[cls])
    else:  # these three have no prose of their own; their docstring names the fields
        assert cls.__doc__.startswith(cls.__name__) and all(n in cls.__doc__ for n in names)
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields[:-1], bogus=1)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_value_class_fields_cannot_be_assigned_or_deleted(cls):
    a = cls(*CASES[cls][0])
    name = FIELDS[cls][0]
    for target in (name, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{target}'"):
            setattr(a, target, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    assert getattr(a, name) == CASES[cls][0][0] and not hasattr(a, "extra")


@pytest.mark.parametrize("cls", [Artifact, CatalogRecord], ids=lambda c: c.__name__)
def test_artifact_and_catalog_record_are_immutable_too(cls):
    a = cls(*CASES[cls][0])
    with pytest.raises(AttributeError, match=f"cannot assign to field '{FIELDS[cls][0]}'"):
        setattr(a, FIELDS[cls][0], "x")
    assert getattr(a, FIELDS[cls][0]) == CASES[cls][0][0]


def test_defaults():
    assert SteinerInputs(LIFT, H2, H4) == SteinerInputs(LIFT, H2, H4, 1)
    cert = QsdCertificate(P, 0, 1)
    assert (cert.block_graph, cert.design) == (None, None)
    assert Frame(M2x4).row_weights is None
    art = Artifact("kirkman", {}, PRIMARY)
    assert (art.pair, art.link) == (None, None)
    with pytest.raises(TypeError):
        SteinerInputs(LIFT, H2)
    with pytest.raises(TypeError):
        CatalogRecord(*RECORD_FIELDS[:-1])


def test_construction_time_checks_name_the_failure():
    with pytest.raises(HadamardError, match=r"^cyclic factor orders must all be >= 2$"):
        AbelianGroup((2, 1))
    with pytest.raises(HadamardError, match=r"^cyclic factor orders must all be >= 2$"):
        AbelianGroup(())
    with pytest.raises(FrameError, match=r"^F must have size k = 2, got 4$"):
        SteinerInputs(LIFT, H4, H4)
    with pytest.raises(FrameError, match=r"^G must have size r \+ 1 = 4, got 2$"):
        SteinerInputs(LIFT, H2, H2)
    with pytest.raises(FrameError, match=r"^column must lie in 1\.\.2$"):
        SteinerInputs(LIFT, H2, H4, column=3)
    with pytest.raises(FrameError, match=r"^the design must carry parallel classes$"):
        KirkmanInputs(STEINER, H2, all_pairs_design(4))
    with pytest.raises(FrameError, match=r"^E must have size v / k = 2, got 4$"):
        KirkmanInputs(STEINER, H4, DESIGN)
    with pytest.raises(DesignError, match=r"^need y > x >= 0, got x=1, y=1$"):
        QsdCertificate(P, 1, 1)
    with pytest.raises(DesignError, match=r"^intersection-number identity failed: 8 != 0 "
                                          r"for params \(6, 2, 1, 5, 15\) with \(x, y\) = \(0, 2\)$"):
        QsdCertificate(P, 0, 2)
    with pytest.raises(DesignError, match=r"^SRG parameter relation failed for \(15, 8, 4, 5\)$"):
        SrgParams(15, 8, 4, 5, Q(2), Q(-2))


def test_frame_weights_are_checked_and_normalised():
    with pytest.raises(FrameError, match=r"^a frame needs at least as many vectors as dimensions$"):
        Frame(ExactMatrix.from_rows([[1], [1]]))
    with pytest.raises(FrameError, match=r"^one weight per row required$"):
        Frame(M2x4, (1,))
    with pytest.raises(FrameError, match=r"^row weights must be positive$"):
        Frame(M2x4, (1, 0))
    assert Frame(M2x4, (1, Fraction(2, 2))).row_weights is None
    weighted = Frame(M2x4, row_weights=(1, 2))
    assert weighted.row_weights == (Fraction(1), Fraction(2))
    assert all(type(w) is Fraction for w in weighted.row_weights)
    assert repr(weighted) == "Frame(matrix=ExactMatrix(CycloDomain(order=1), 2x4), row_weights=(Fraction(1, 1), Fraction(2, 1)))"


def test_frame_compares_by_identity_and_hides_its_caches():
    a, b = Frame(M2x4), Frame(M2x4)
    assert a == a and a != b and a.__eq__(b) is NotImplemented
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2
    simplex = Frame(ExactMatrix.from_rows([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]))
    assert certify_etf(simplex) is certify_etf(simplex) is simplex._certificate  # the cache fills once, past the frozen fields
    assert repr(a) == FRAME_REPR
    with pytest.raises(AttributeError, match="cannot assign to field 'matrix'"):
        a.matrix = M2x4
    with pytest.raises(AttributeError, match="cannot assign to field '_certificate'"):
        a._certificate = None


def test_catalog_record_to_obj():
    record = CatalogRecord(*RECORD_FIELDS)
    assert record.to_obj() == {
        "id": "ab12",
        "kind": "kirkman",
        "params": {"d": 6, "n": 16},
        "certificates": {"primary": {"flat": True}},
        "created_at": "2026-01-01T00:00:00+00:00",
        "payload": "payloads/ab12",
    }
    assert list(record.to_obj()) == FIELDS[CatalogRecord]
    assert CatalogRecord.from_obj(record.to_obj()) == record
