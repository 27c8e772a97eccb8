"""The document layer: bit-exact JSON interchange for matrices, certificates
and feasibility reports, the strict readers of JSON values from outside the
program, and CSV export for integer matrices.  Its only package imports are
``errors``, ``matrices`` and ``scalars``: design documents are read and
written in ``designs``, and an artifact directory in ``recipes``.

All writers emit canonical JSON (sorted keys, no insignificant whitespace,
one trailing newline), so export -> import -> export is byte-identical and
content hashes are stable.  A cyclotomic entry is a list of
[exponent, numerator, denominator] terms over the reduced power basis; a
quadratic entry is [a_num, a_den, b_num, b_den].

A matrix document is written as text from the planes, one row of entry
texts at a time (``dump``; ``matrix_text`` joins the same pieces).
``load_matrix`` reads the canonical text of a {-1, 0, 1} matrix at a fixed
stride, in pieces of the body, and any other document through ``json``, with
one verdict either way; every document is read by ``load`` and written by
``dump``.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from collections.abc import Iterator
from math import gcd, lcm

from .errors import DomainError, InputError
from .matrices import RATIONAL, ExactMatrix, cyclo_domain, from_flat, per_entry, quad_domain
from .scalars import split_square

MATRIX_SCHEMA = "etf-forge/matrix/v1"
DESIGN_SCHEMA = "etf-forge/design/v1"
CERTIFICATE_SCHEMA = "etf-forge/certificate/v1"
FEASIBILITY_SCHEMA = "etf-forge/feasibility/v1"
MAX_SIDE = 1 << 13  # the longest matrix side a recipe or design document may ask for; the largest cyclotomic order
MAX_RADICAND = 1 << 40  # trial division factors any radicand below it in well under a second
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_SIGN_HEAD = b'{"cols":%d,"domain":{"kind":"cyclotomic","order":1},"entries":['  # of a {-1, 0, 1} matrix document
_SIGN_TAIL = b'],"rows":%d,"schema":"' + MATRIX_SCHEMA.encode() + b'"}\n'
_SIGN_COLUMNS = (b"[", b"[", b"0", b",", b"1\xfe\xff", b",", b"1", b"]", b"]", b",")  # what byte k of an entry (and its comma) may be
_SIGN_VALUES = bytes.maketrans(b"1\xfe", b"\1\0")  # an entry's code as its value, 0xff being -1 as a signed byte
_SIGN_PIECE = 1 << 16  # bytes of the body rewritten at a time, up to the end of an entry


def canonical_json(obj) -> str:
    """Sorted keys, no spaces, one trailing newline."""
    return _encode(obj) + "\n"


def frac_pair(q: Fraction) -> list[int]:
    """A rational as its [numerator, denominator] document."""
    q = Fraction(q)
    return [q.numerator, q.denominator]


def _domain_obj(domain) -> dict:
    if domain.kind == "cyclotomic":
        return {"kind": "cyclotomic", "order": domain.order}
    return {"kind": "quadratic", "radicand": domain.radicand}


def _domain_from_obj(obj):
    kind = obj["kind"]
    key = {"cyclotomic": "order", "quadratic": "radicand"}.get(kind)
    if key is None:
        raise InputError(f"unknown domain kind {kind!r}")
    value = obj[key]
    if type(value) is not int or value < 1:
        raise InputError(f"domain {key} must be a positive integer, got {value!r}")
    if kind == "cyclotomic" and value > MAX_SIDE:  # conjugation and reduction cost scale with it
        raise InputError(f"domain order must be at most {MAX_SIDE}, got {value}")
    if kind == "quadratic" and value >= MAX_RADICAND:
        raise InputError(f"domain radicand must be below 2**40, got {value}")
    if kind == "quadratic" and split_square(value)[0] != 1:
        raise InputError(f"domain radicand must be square-free, got {value}")
    return cyclo_domain(value) if kind == "cyclotomic" else quad_domain(value)


def _matrix_pieces(m: ExactMatrix) -> Iterator[str]:
    """The canonical v1 document in pieces, written straight from the planes:
    the head, then one row of entry texts at a time (each distinct entry is
    encoded once, and each row looks up its entries' texts), then the tail."""
    def frac(x):
        g = gcd(x, m.den)
        return [x // g, m.den // g]

    def texts(cs):
        if m.domain.kind == "quadratic":
            return [_encode(frac(c[0]) + frac(c[1] if len(c) > 1 else 0)) for c in cs]
        return [_encode([[e, *frac(x)] for e, x in enumerate(c) if x]) for c in cs]
    yield f'{{"cols":{m.cols},"domain":{_encode(_domain_obj(m.domain))},"entries":['
    separator = ""
    for row in per_entry(m, texts):
        yield separator + ",".join(row)
        separator = ","
    yield f'],"rows":{m.rows},"schema":"{MATRIX_SCHEMA}"}}\n'


def matrix_text(m: ExactMatrix) -> str:
    """The canonical v1 document: the join of the pieces ``dump`` writes."""
    return "".join(_matrix_pieces(m))


def matrix_to_obj(m: ExactMatrix) -> dict:
    """The v1 document as JSON values."""
    return json.loads(matrix_text(m))


def _entry_planes(entries, domain) -> tuple[int, list[list[int]]]:
    """(den, flat planes) of v1 entries: den the lcm of the term denominators
    and plane k the row-major k-th integer coordinates over the domain's
    basis.  Terms may come in any order, with any integer exponent (reduced
    mod Phi_m) and unreduced fractions; a zero entry has no terms."""
    if domain.kind == "cyclotomic":
        size = domain.order
    else:  # a + b sqrt(t) as the terms a sqrt(t)^0 and b sqrt(t)^1
        size = 2
        entries = [((0, a_num, a_den), (1, b_num, b_den)) for a_num, a_den, b_num, b_den in entries]
    dens, exps = set(), set()  # planes reach the largest exponent present, not the order
    for entry in entries:
        for e, num, d in entry:
            if type(e) is not int or type(num) is not int or type(d) is not int:
                raise TypeError(f"a term needs an integer exponent, numerator and denominator, got {[e, num, d]!r}")
            dens.add(d)
            exps.add(e)
    if 0 in dens:
        raise ZeroDivisionError("a term has denominator 0")
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    flat = [[0] * len(entries) for _ in range(1 + max((e % size for e in exps), default=0))]  # flat[e][i]: entry i's term in zeta^e
    for i, entry in enumerate(entries):
        for e, num, d in entry:
            flat[e % size][i] += num * scale[d]
    return den, domain.reduce(flat) if any(map(any, flat[domain.width :])) else flat


def matrix_from_obj(obj) -> ExactMatrix:
    """Parse a matrix document straight to planes; a malformed one raises
    ``InputError``."""
    if not isinstance(obj, dict):
        raise InputError(f"not a matrix document: a JSON {type(obj).__name__}")
    if obj.get("schema") != MATRIX_SCHEMA:
        raise InputError(f"not a matrix document: schema {obj.get('schema')!r}")
    try:
        domain = _domain_from_obj(obj["domain"])
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        if type(rows) is not int or type(cols) is not int:
            raise TypeError(f"rows and cols must be integers, got {rows!r} and {cols!r}")
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be at least 1, got {rows} and {cols}")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}")
        den, flat = _entry_planes(entries, domain)
        return from_flat(domain, cols, den, flat)
    except (DomainError, TypeError, ValueError, ZeroDivisionError, KeyError) as exc:
        raise InputError(f"malformed matrix document: {type(exc).__name__}: {exc}") from None


def matrix_to_csv(m: ExactMatrix) -> str:
    """Rows of plain integers; only rational-integer matrices qualify."""
    ints = m.int_rows()
    if ints is None:
        raise DomainError("CSV export requires rational integer entries")
    return "\n".join(",".join(str(x) for x in row) for row in ints) + "\n"


class JsonObject(dict):
    """A JSON object read from outside the program, named by ``what`` in its
    errors: a value that is not an object, or a missing key, is bad input."""

    def __init__(self, value, what: str):
        if not isinstance(value, dict):
            raise InputError(f"{what} is not a JSON object: {value!r}")
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise InputError(f"{self.what} has no {key!r}")


def json_ints(value, what: str, depth: int = 1):
    """``value`` as JSON integers: one at depth 0, a list of them at depth 1, a list of such
    lists at depth 2.  An integer's type is exactly int (``int()`` reads 2.5, "2" and true);
    a list is a list or, in a recipe built in-process, a tuple.  Else it is bad input."""
    if depth == 0:
        if type(value) is not int:
            raise InputError(f"{what} {value!r} is not an integer")
        return value
    if type(value) not in (list, tuple) or depth == 1 and not {int}.issuperset(map(type, value)):
        raise InputError(f"{what} {value!r} are not integers")
    return tuple(value) if depth == 1 else tuple(json_ints(x, what, depth - 1) for x in value)


def in_range(what: str, value, low: int, high: int) -> int:
    """``value`` if it is an integer in low..high, else bad input.  Sizes are
    checked before anything of that size is built."""
    if not low <= json_ints(value, what, 0) <= high:
        raise InputError(f"{what} must lie in {low}..{high}, got {value}")
    return value


def certificate_to_obj(cert) -> dict:
    """The document of a ``frames.EtfCertificate``."""
    return {
        "schema": CERTIFICATE_SCHEMA,
        "d": cert.d,
        "n": cert.n,
        "beta": frac_pair(cert.beta),
        "alpha": frac_pair(cert.alpha),
        "gamma_sq": frac_pair(cert.gamma_sq),
        "welch_equality": cert.welch_equality,
        "flat": cert.flat,
        "domain": _domain_obj(cert.domain),
    }


def feasibility_to_obj(report) -> dict:
    """The document of a ``qsd_bridge.FeasibilityReport``."""
    def radical(check):
        return {"integer": check.is_integer, "value": check.value, "odd": check.odd}

    return {
        "schema": FEASIBILITY_SCHEMA,
        "d": report.d,
        "n": report.n,
        "q1": radical(report.q1),
        "q2": radical(report.q2),
        "w": radical(report.w),
        "n_mod_16": report.n_mod_16,
        "verdict": "pass" if report.verdict else "fail",
    }


def dump(obj, path) -> None:
    """Write ``obj`` as canonical JSON; an ``ExactMatrix`` as its matrix
    document, one row of entry texts at a time, so no whole text is held."""
    pieces = _matrix_pieces(obj) if isinstance(obj, ExactMatrix) else [canonical_json(obj)]
    with open(path, "w") as fh:
        fh.writelines(pieces)


def load(path, decode=None):
    """The JSON value of the file at ``path``, or ``decode`` of the file opened
    in binary; a ``ValueError`` or ``RecursionError`` is bad input."""
    with open(path, "rb") as fh:
        enabled = gc.isenabled()
        gc.disable()  # a decoded document is acyclic: a collection while it is alive walks it and frees nothing
        try:
            return json.loads(fh.read().decode()) if decode is None else decode(fh)  # strict UTF-8: loads(bytes) skips a BOM
        except (ValueError, RecursionError) as exc:  # malformed JSON, bytes that are not UTF-8, or nested too deeply
            raise InputError(f"{path} is not valid JSON: {exc}") from None
        finally:
            if enabled:
                gc.enable()


def _sign_matrix(doc: list[bytes]) -> ExactMatrix | None:
    """The {-1, 0, 1} matrix whose canonical document is the one item of ``doc``, else None.  With ``-1`` written
    c = 0xff and ``[]`` as ``[[0,c,1]]`` for c = 0xfe (bytes ASCII never holds), every entry must be ``[[0,c,1]]``
    with c in {1, 0xfe, 0xff}, so exactly what ``matrix_text`` writes is taken.  The body is rewritten and checked
    one piece of about ``_SIGN_PIECE`` bytes at a time, each cut between two entries.  A document that is taken is
    removed from ``doc``, so its bytes are freed before the rows are sliced from one signed byte per entry."""
    data = doc[0]
    try:
        cols = int(data[:64].partition(b',"domain":')[0].removeprefix(b'{"cols":'))
        rows = int(data[-64:].rpartition(b'],"rows":')[2].partition(b",")[0])
    except ValueError:
        return None
    head, tail, n = _SIGN_HEAD % cols, _SIGN_TAIL % rows, rows * cols
    start, stop = len(head), len(data) - len(tail)  # n entries of 2 to 10 bytes and n - 1 commas
    if (not data.isascii() or min(rows, cols) < 1 or not (data.startswith(head) and data.endswith(tail))
            or not 3 * n - 1 <= stop - start <= 11 * n - 1):
        return None
    signs = bytearray()
    while start < stop:  # a piece ends at the "]" before a "],[" comma, so no -1 or [] straddles a cut
        end = data.find(b"],[", start + _SIGN_PIECE, stop) + 1 or stop
        piece = data[start:end].replace(b"-1", b"\xff").replace(b"[]", b"[[0,\xfe,1]]")
        if len(piece) % 10 != 9 or any(piece[k::10].translate(None, ok) for k, ok in enumerate(_SIGN_COLUMNS)):
            return None  # column k of a piece holds byte k of each of its entries
        signs += piece[4::10].translate(_SIGN_VALUES)
        start = end + 1
    if len(signs) != n:
        return None
    doc.clear()
    del data, piece  # a rewritten piece of zeros is about three times its text
    signs = memoryview(signs).cast("b")
    return ExactMatrix(RATIONAL, 1, [[signs[i : i + cols].tolist() for i in range(0, n, cols)]])


def _decode_matrix(fh, designs: bool = False):
    """The matrix of a matrix document (see ``_sign_matrix``, else ``json``);
    with ``designs``, the JSON value of a design document instead."""
    doc = [fh.read()]
    if (m := _sign_matrix(doc)) is not None:
        return m
    obj = json.loads(doc[0].decode())
    return obj if designs and isinstance(obj, dict) and obj.get("schema") == DESIGN_SCHEMA else matrix_from_obj(obj)


def load_matrix(path) -> ExactMatrix:
    """The matrix document at ``path``, read once by ``load``, so the
    collector stays paused until a decoded tree is dropped."""
    return load(path, _decode_matrix)


def load_design_or_matrix(path) -> dict | ExactMatrix:
    """The JSON value of the design document at ``path``, or its matrix,
    read once by ``load`` as ``load_matrix`` reads a matrix."""
    return load(path, lambda fh: _decode_matrix(fh, designs=True))
