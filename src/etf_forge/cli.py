"""Command-line front end.

Exit codes: 0 success, 1 domain failure (a verification or construction
identity failed), 2 usage, input or output failure.  All outputs are
canonical JSON documents; matrices with rational integer entries can
additionally be exported as CSV.

``COMMANDS`` is the command line: each group and subcommand is one entry of
its help, its options and its handler.  ``main`` builds the subcommand
parsers of the group it runs only, and writes what the handler returns.

The process entry is ``run()``, for ``python -m etf_forge.cli`` and the
``etf-forge`` script alike: it freezes the heap that start-up built (``site``,
``argparse`` and this module), so the collections at interpreter exit skip
it, then exits with ``main()``'s code.  The other layers are deferred
modules (see the package docstring) that load inside ``main()`` when the
subcommand first reaches them, after the freeze, so the freeze does not
cover them.  ``main()`` freezes nothing, so tests and library callers keep
their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import catalog, designs, frames, hadamard, qsd_bridge, recipes, serialize
from .errors import EtfForgeError, InputError


def _int_list(option: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"{option} must be comma-separated integers, got {text!r}") from None


class _OutputError(Exception):
    """A write of the command's own output failed: exit 2 with an ``output error:`` line."""


def _construct(args, rec: dict) -> tuple[int, list]:
    artifact = recipes.replay(rec)
    out_dir = Path(args.out)
    try:
        recipes.write_artifact(artifact, out_dir)
        if args.format == "csv":
            for role, frame in artifact.frames().items():
                if frame.matrix.int_rows() is None:
                    raise EtfForgeError(f"{role} matrix has non-integer entries; no CSV written")
                (out_dir / f"{role}.csv").write_text(serialize.matrix_to_csv(frame.matrix))
    except OSError as exc:
        raise _OutputError(exc) from None
    summary = {"kind": artifact.kind, "d": artifact.primary.d, "n": artifact.primary.n, "out": str(args.out)}
    if artifact.pair is not None:
        summary["complement_d"] = artifact.pair.complement.d
    return 0, [summary]


def _simplex(args) -> tuple[int, list]:
    source = {"generator": "dft" if args.dft else "size", "n": args.size}
    return _construct(args, recipes.recipe("simplex", hadamard=source, drop_row=args.drop_row))


def _harmonic(args) -> tuple[int, list]:
    group, subset = _int_list("--group", args.group), _int_list("--subset", args.subset)
    return _construct(args, recipes.recipe("harmonic", group=group, subset=subset))


def _steiner(args) -> tuple[int, list]:
    if args.design == "fano":
        design, k, r = {"generator": "fano"}, 3, 3
    elif args.v is None:
        raise InputError("--v is required for pair designs")
    else:
        design, k, r = {"generator": args.design, "v": args.v}, 2, args.v - 1
    f = {"generator": "sylvester", "e": 1} if k == 2 else {"generator": "dft", "n": k}
    g = {"generator": "dft" if args.complex_g else "size", "n": r + 1}
    return _construct(args, recipes.recipe("steiner", design=design, f=f, g=g, column=args.column))


def _kirkman(args) -> tuple[int, list]:
    return _construct(args, recipes.recipe("kirkman", u=args.u))


def _tensor(args) -> tuple[int, list]:
    left, right = serialize.load(Path(args.left) / "recipe.json"), serialize.load(Path(args.right) / "recipe.json")
    return _construct(args, recipes.recipe("tensor", left=left, right=right))


def _qsd_to_etf(args) -> tuple[int, list]:
    design = designs.design_to_obj(designs.design_from_obj(serialize.load(args.design)))
    design = {"generator": "blocks", "v": design["v"], "blocks": design["blocks"]}
    return _construct(args, recipes.recipe("qsd-to-etf", design=design, branch=args.branch))


def _verify_etf(args) -> tuple[int, list]:
    return 0, [serialize.certificate_to_obj(frames.certify_etf(frames.Frame(serialize.load_matrix(args.path))))]


def _verify_hadamard(args) -> tuple[int, list]:
    h = hadamard.verify_hadamard(serialize.load_matrix(args.path))
    return 0, [{"n": h.n, "kind": h.kind, "verified": True}]


def _verify_bibd(args) -> tuple[int, list]:
    source = serialize.load_design_or_matrix(args.path)
    p = designs.design_from_obj(source).params if isinstance(source, dict) else designs.verify_bibd(source)
    return 0, [{"v": p.v, "k": p.k, "lambda": p.lam, "r": p.r, "b": p.b, "fisher": p.fisher}]


def _verify_qsd(args) -> tuple[int, list]:
    cert = designs.verify_qsd(designs.design_from_obj(serialize.load(args.path)))
    p = cert.params
    return 0, [{"v": p.v, "k": p.k, "lambda": p.lam, "r": p.r, "b": p.b, "x": cert.x, "y": cert.y}]


def _verify_srg(args) -> tuple[int, list]:
    srg = designs.verify_srg(serialize.load_matrix(args.path))
    return 0, [{"b": srg.b, "a": srg.a, "c": srg.c, "mu": srg.mu}]


def _verify_naimark_pair(args) -> tuple[int, list]:
    pair = recipes.load_pair(args.path, frames.Frame(serialize.load_matrix(Path(args.path) / "primary.json")))
    return 0, [{"alpha": [pair.alpha.numerator, pair.alpha.denominator],
                "d": pair.primary.d, "n": pair.primary.n, "verified": True}]


def _feasibility(args) -> tuple[int, list]:
    if not args.n - 1 > args.d > 1:
        raise InputError("need n - 1 > d > 1: dimensions outside the quasi-symmetric regime "
                         "(d + 1 vector frames are plain simplices)")
    report = qsd_bridge.flat_feasibility(args.d, args.n)
    bounds = [qsd_bridge.gerzon_bounds(args.d, args.n, field, kind)
              for field in ("real", "complex") for kind in ("flat", "hadamard")]
    checks = [{"field": g.field, "kind": g.kind, "passed": g.passed, "violated": g.violated,
               "upper_bound": [g.upper_bound.numerator, g.upper_bound.denominator]} for g in bounds]
    code = 0 if report.verdict and all(g.passed for g in bounds if g.field == "real") else 1
    gerzon = {"schema": "etf-forge/gerzon/v1", "d": args.d, "n": args.n, "checks": checks}
    return code, [serialize.feasibility_to_obj(report), gerzon]


def _catalog_add(args) -> tuple[int, list]:
    record = catalog.Catalog(args.catalog).add(serialize.load(args.recipe))
    return 0, [{"id": record.id, "kind": record.kind, "params": record.params}]


def _catalog_list(args) -> tuple[int, list]:
    records = sorted(catalog.Catalog(args.catalog).records(), key=lambda r: r.id)
    return 0, [{"id": r.id, "kind": r.kind, "params": r.params, "created_at": r.created_at} for r in records]


def _catalog_show(args) -> tuple[int, list]:
    store = catalog.Catalog(args.catalog)
    record = store.find(args.id)
    return 0, [{"record": record.to_obj(), "recipe": serialize.load(store.root / record.payload / "recipe.json")}]


def _catalog_audit(args) -> tuple[int, list]:
    store = catalog.Catalog(args.catalog)
    failures = store.audit()
    return 1 if failures else 0, [{"audited": len(store.records()), "failures": failures}]


_OUT = (("--out", dict(default=".", help="output directory")),
        ("--format", dict(choices=("json", "csv"), default="json", help="also export CSV (integer matrices only)")))
_PATH = (("path", {}),)

# name -> (help, options, handler), or (help, options, {subcommand name -> entry}) for a group.  An
# option is (flag, add_argument keywords); a handler returns its exit code and the documents to print.
COMMANDS = {
    "construct": ("build a certified artifact", (), {
        "simplex": ("flat regular simplex from a Hadamard matrix", (
            ("--size", dict(type=int, required=True, help="Hadamard size d + 1")),
            ("--dft", dict(action="store_true", help="use the Fourier matrix")),
            ("--drop-row", dict(type=int, default=0)), *_OUT), _simplex),
        "harmonic": ("character rows over a difference set", (
            ("--group", dict(required=True, help="cyclic factor orders, e.g. 2,2,2,2")),
            ("--subset", dict(required=True, help="0-based element indices in big-endian counting order")),
            *_OUT), _harmonic),
        "steiner": ("design-lifted frame with explicit complement", (
            ("--design", dict(choices=("all-pairs", "round-robin", "fano"), required=True)),
            ("--v", dict(type=int, help="vertex count for pair designs")),
            ("--column", dict(type=int, default=1)),
            ("--complex-g", dict(action="store_true", help="force a Fourier G")), *_OUT), _steiner),
        "kirkman": ("flat pair on 4u^2 vectors", (("--u", dict(type=int, required=True)), *_OUT), _kirkman),
        "tensor": ("tensor two previously constructed pairs", (
            ("--left", dict(required=True, help="directory of the left pair")),
            ("--right", dict(required=True, help="directory of the right pair")), *_OUT), _tensor),
        "qsd-to-etf": ("frame from a quasi-symmetric design file", (
            ("--design", dict(required=True, help="design JSON path")),
            ("--branch", dict(choices=("plus", "minus"), default="plus")), *_OUT), _qsd_to_etf),
    }),
    "verify": ("verify an artifact file", (), {
        "etf": ("certify a matrix JSON as an ETF", _PATH, _verify_etf),
        "hadamard": ("verify flatness and orthogonality", _PATH, _verify_hadamard),
        "bibd": ("verify a design file or 0/1 matrix", _PATH, _verify_bibd),
        "qsd": ("verify two-intersection structure", _PATH, _verify_qsd),
        "srg": ("verify strong regularity of an adjacency matrix", _PATH, _verify_srg),
        "naimark-pair": ("verify a pair directory", _PATH, _verify_naimark_pair),
    }),
    "feasibility": ("integrality and dimension-count checks", (("d", dict(type=int)), ("n", dict(type=int))),
                    _feasibility),
    "catalog": ("persist and audit certified artifacts", (
        ("--catalog", dict(default=None, help="catalog directory (or ETF_FORGE_CATALOG)")),), {
        "add": ("replay a recipe file and store the result", (("recipe", {}),), _catalog_add),
        "list": ("list records", (), _catalog_list),
        "show": ("show one record", (("id", {}),), _catalog_show),
        "audit": ("re-verify every payload", (), _catalog_audit),
    }),
}


def _add_commands(parser, dest: str, table: dict, group=None) -> None:
    """Add the table's parsers to ``parser``, and the subcommands of ``group`` only."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, options, run) in table.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if not isinstance(run, dict):
            p.set_defaults(run=run)
        elif name == group:
            _add_commands(p, f"{name}_cmd", run)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="etf-forge",
        description="Construct and certify equiangular tight frames with exact arithmetic.",
    )
    _add_commands(parser, "cmd", COMMANDS, next((word for word in argv if not word.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        code, documents = args.run(args)
    except _OutputError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return 2
    except (InputError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except EtfForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:  # not 1: running out of memory says nothing about an identity
        sys.stderr.write("resource error: out of memory\n")
        return 2
    except RecursionError:  # a recipe that reads, then nests too deeply to replay
        sys.stderr.write("input error: a document is nested too deeply\n")
        return 2
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 130
    text = "".join(map(serialize.canonical_json, documents))
    try:
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()  # here, so that a failing flush is an output error too, not a traceback at exit
    except OSError as exc:
        if sys.stdout is sys.__stdout__ is not None:  # drop what stdout refused, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"output error: {exc}\n")
        return 2
    return code


def run() -> None:
    """The process entry: freeze the start-up heap, then exit with ``main()``'s code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
