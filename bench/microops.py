"""Scalar micro-ops on elements taken from the workloads' own matrices.

    PYTHONPATH=src python3 bench/microops.py --inputs .bench_work/inputs

Prints one JSON object of nanoseconds per operation.  The operands of each
measurement are the two densest distinct elements among the entries of a
workload frame and the off-diagonal entries of its first Gram row:

* ``o4``, ``o13``, ``o31``: the harmonic frames of the cyclotomic workload
  (character rows over the difference sets in Z4 x Z4, Z13 and Z31); at
  order 31 that is a 30-term entry and a 25-term Gram entry;
* ``o8``: the flat simplex of the Fourier matrix of size 8, the G of the
  cyclotomic workload's Steiner pair;
* ``t6``: the Q(sqrt 6) frame built from the 15-point Steiner triple system;
* ``rational``: the non-integer rational frame of the fractional workload
  (the minus branch on the u = 4 Kirkman primary QSD).

Sparse toy operands would invert the dependence on phi(m) that the
workloads see, which is why dense operands are used.  At orders 4 and 8
every entry and Gram entry of those frames is a single root of unity or a
rational, so the operands there are monomials.  The QSD frames are
built from their closed form [1 | delta J + eps X^T] with
w = sqrt(v (b + 1 - v) / b), s = sqrt((b + 1) / (r - lambda)),
delta = (w +- s k) / v and eps = -+ s.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter_ns

from etf_forge.scalars import CycloElem, QuadElem

BATCH_NS = 20_000_000
BATCHES = 7


def harmonic_columns(orders, subset):
    """Columns (group elements) of the character rows indexed by ``subset``."""
    m = lcm(*orders)
    weights = [m // k for k in orders]

    def digits(index):
        out = []
        for k in reversed(orders):
            out.append(index % k)
            index //= k
        return out[::-1]

    size = 1
    for k in orders:
        size *= k
    rows = [digits(a) for a in subset]
    return [[CycloElem.root(m, sum(x * y * w for x, y, w in zip(ad, digits(g), weights)) % m)
             for ad in rows] for g in range(size)]


def qsd_columns(design: dict, branch: str, make):
    """Columns of [1 | delta J + eps X^T] for a design document."""
    v, k, lam, r, b = (design[key] for key in ("v", "k", "lambda", "r", "b"))
    w = QuadElem.sqrt_of_rational(Fraction(v * (b + 1 - v), b))
    s = QuadElem.sqrt_of_rational(Fraction(b + 1, r - lam))
    sign = 1 if branch == "plus" else -1
    delta = (w + s * (sign * k)) * Fraction(1, v)
    eps = s * (-sign)
    cols = [[make(QuadElem.from_rational(1))] * v]
    for block in design["blocks"]:
        members = set(block)
        cols.append([make(delta + eps if i + 1 in members else delta) for i in range(v)])
    return cols


def as_rational(x: QuadElem) -> CycloElem:
    if x.b != 0:
        raise ValueError(f"{x} is not rational")
    return CycloElem.from_rational(x.a)


def _size(x) -> tuple[int, int, str]:
    coeffs = x.coeffs if isinstance(x, CycloElem) else (x.a, x.b)
    terms = sum(1 for c in coeffs if c != 0)
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
    return terms, bits, repr(x)


def operands(columns):
    """The two densest distinct entries and first-row Gram entries."""
    gram_row = []
    first = columns[0]
    for col in columns[1:]:
        acc = first[0].conjugate() * col[0]
        for x, y in zip(first[1:], col[1:]):
            acc = acc + x.conjugate() * y
        gram_row.append(acc)
    pool = {repr(x): x for col in columns for x in col}
    pool.update((repr(x), x) for x in gram_row)
    a, b = sorted(pool.values(), key=_size, reverse=True)[:2]
    return a, b


def ns_per_op(fn, a, b) -> float:
    """Median over batches of the time of one ``fn(a, b)``."""
    reps = 1
    while True:
        start = perf_counter_ns()
        for _ in range(reps):
            fn(a, b)
        if perf_counter_ns() - start >= BATCH_NS // 4:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        start = perf_counter_ns()
        for _ in range(reps):
            fn(a, b)
        samples.append((perf_counter_ns() - start) / reps)
    return statistics.median(samples)


def measure(inputs: Path) -> dict[str, float]:
    sets = json.loads((inputs / "difference_sets.json").read_text())
    sts = json.loads((inputs / "sts15.json").read_text())
    k4 = json.loads((inputs / "kirkman4_primary_qsd.json").read_text())
    harmonic = {key: harmonic_columns(tuple(s["group"]), s["subset"]) for key, s in sets.items()}
    fourier8 = [[CycloElem.root(8, i * j % 8) for i in range(1, 8)] for j in range(8)]
    pairs = {
        "o4": operands(harmonic["harmonic4x4"]),
        "o8": operands(fourier8),
        "o13": operands(harmonic["harmonic13"]),
        "o31": operands(harmonic["harmonic31"]),
        "t6": operands(qsd_columns(sts, "plus", lambda x: x)),
        "rational": operands(qsd_columns(k4, "minus", as_rational)),
    }
    out = {f"scalars.cyclo_mul_ns.{key}": ns_per_op(operator.mul, *pairs[key])
           for key in ("o4", "o8", "o13", "o31")}
    out["scalars.cyclo_add_ns.o31"] = ns_per_op(operator.add, *pairs["o31"])
    out["scalars.quad_mul_ns.t6"] = ns_per_op(operator.mul, *pairs["t6"])
    out["scalars.rational_mul_ns"] = ns_per_op(operator.mul, *pairs["rational"])
    out["operand_terms"] = {key: [_size(x)[0] for x in pair] for key, pair in pairs.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scalar micro-ops")
    parser.add_argument("--inputs", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.inputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
