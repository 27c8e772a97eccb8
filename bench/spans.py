"""Timing spans around etf-forge's layer boundaries, recorded from outside.

The program has no trace hooks of its own, so ``install`` wraps each
layer's public functions and rebinds the wrapper in *every* ``etf_forge``
module that holds the original by name (``frames`` does ``from .matrices
import matmul``, so patching ``etf_forge.matrices.matmul`` alone would miss
every Gram product).

A span is ``[name, start_ns, end_ns, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or None), ``op`` the id of the CLI invocation
it belongs to, and ``attrs`` a dict of counts measured at the boundary.
Spans stay in memory until the op ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter_ns


def _domain_tag(*mats) -> str:
    kinds = [m.domain for m in mats]
    if any(d.kind == "quadratic" for d in kinds):
        return "quadratic"
    if any(d.order > 1 for d in kinds):
        return "cyclotomic"
    return "rational"


def _matmul_attrs(args, kwargs, result):
    a, b = args[:2]
    # Computed multiply-adds of the dense product, not a measured count.
    return {"tag": _domain_tag(a, b), "madds": a.rows * a.cols * b.cols}


def _bytes_arg(index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return attrs


# (module, attribute, span name, attrs hook).  The attribute may name a
# method as "Class.method".
LAYERS = (
    ("matrices", "matmul", "matrices.matmul", _matmul_attrs),
    ("matrices", "kron", "matrices.kron", None),
    ("serialize", "load", "serialize.load", _bytes_arg(0)),
    ("serialize", "dump", "serialize.dump", _bytes_arg(1)),
    ("serialize", "matrix_from_obj", "serialize.matrix_from_obj", None),
    ("serialize", "matrix_to_obj", "serialize.matrix_to_obj", None),
    ("serialize", "canonical_json", "serialize.canonical_json", None),
    ("frames", "certify_etf", "frames.certify_etf", None),
    ("frames", "gram", "frames.gram", None),
    ("frames", "verify_naimark_pair", "frames.verify_naimark_pair", None),
    ("hadamard", "verify_hadamard", "hadamard.verify_hadamard", None),
    ("hadamard", "dft", "hadamard.dft", None),
    ("hadamard", "char_table", "hadamard.char_table", None),
    ("hadamard", "hadamard_of_size", "hadamard.hadamard_of_size", None),
    ("constructions", "kirkman_etf", "constructions.kirkman_etf", None),
    ("constructions", "harmonic_etf", "constructions.harmonic_etf", None),
    ("constructions", "steiner_naimark", "constructions.steiner_naimark", None),
    ("constructions", "flat_regular_simplex", "constructions.flat_regular_simplex", None),
    ("recipes", "replay", "recipes.replay", None),
    ("designs", "verify_qsd", "designs.verify_qsd", None),
    ("designs", "lift_permutation", "designs.lift_permutation", None),
    ("qsd_bridge", "etf_from_qsd", "qsd_bridge.etf_from_qsd", None),
    ("catalog", "Catalog.add", "catalog.add", None),
    ("catalog", "Catalog.audit", "catalog.audit", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans for one process; single-threaded like the CLI."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[5] = attrs(args, kwargs, result)
                return result
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever it is imported."""
        import etf_forge.cli  # noqa: F401  (imports every module below)

        modules = [m for k, m in list(sys.modules.items())
                   if k == "etf_forge" or k.startswith("etf_forge.")]
        for module_name, attr, name, attrs in LAYERS:
            owner = sys.modules[f"etf_forge.{module_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self.wrap(name, original, attrs)
            setattr(owner, fn_name, wrapper)
            if cls_path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _inside(spans, span, name: str) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans) -> dict[str, float]:
    """Per-layer totals from one op's spans.

    Keys: ``<name>.self_s`` (matmul also split by domain tag),
    ``<name>.calls``, ``matrices.matmul.madds``, ``serialize.bytes_read``,
    ``serialize.bytes_written`` and ``recipes.replay.total_s`` (outermost
    replays only, children included).
    """
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, attrs = span[0], span[5] or {}
        out[f"{name}.self_s"] += own / 1e9
        out[f"{name}.calls"] += 1
        if name == "matrices.matmul":
            out[f"{name}.self_s.{attrs.get('tag', 'failed')}"] += own / 1e9
            out[f"{name}.madds"] += attrs.get("madds", 0)
        elif name == "serialize.load":
            out["serialize.bytes_read"] += attrs.get("bytes", 0)
        elif name == "serialize.dump":
            out["serialize.bytes_written"] += attrs.get("bytes", 0)
        elif name == "recipes.replay" and not _inside(spans, span, name):
            out["recipes.replay.total_s"] += (span[2] - span[1]) / 1e9
    return dict(out)
