"""Command-line front end.

Exit codes: 0 success, 1 domain failure (a verification or construction
identity failed), 2 usage or parse failure.  All outputs are canonical JSON
documents; matrices with rational integer entries can additionally be
exported as CSV.

The process entry is ``run()``, for ``python -m etf_forge.cli`` and the
``etf-forge`` script alike: it freezes the heap that start-up built (the
imported modules and ``site``), so the collections at interpreter exit skip
it, then exits with ``main()``'s code.  ``main()`` freezes nothing, so tests
and library callers keep their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .catalog import Catalog
from .designs import design_from_obj, design_to_obj, verify_bibd, verify_qsd, verify_srg
from .errors import EtfForgeError, InputError
from .frames import Frame, certify_etf
from .hadamard import verify_hadamard
from .qsd_bridge import flat_feasibility, gerzon_bounds
from .recipes import load_pair, recipe, replay, write_artifact
from .serialize import (
    canonical_json,
    certificate_to_obj,
    feasibility_to_obj,
    load,
    load_design_or_matrix,
    load_matrix,
    matrix_to_csv,
)


def _print(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _int_list(option: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"{option} must be comma-separated integers, got {text!r}") from None


def _construct_recipe(args) -> dict:
    if args.construct_cmd == "simplex":
        source = {"generator": "dft" if args.dft else "size", "n": args.size}
        return recipe("simplex", hadamard=source, drop_row=args.drop_row)
    if args.construct_cmd == "harmonic":
        return recipe("harmonic", group=_int_list("--group", args.group), subset=_int_list("--subset", args.subset))
    if args.construct_cmd == "steiner":
        design = {"generator": args.design, "v": args.v} if args.design != "fano" else {"generator": "fano"}
        if args.design == "fano":
            k, r = 3, 3
        elif args.design in ("all-pairs", "round-robin"):
            if args.v is None:
                raise InputError("--v is required for pair designs")
            k, r = 2, args.v - 1
        f = {"generator": "sylvester", "e": 1} if k == 2 else {"generator": "dft", "n": k}
        g = {"generator": "dft" if args.complex_g else "size", "n": r + 1}
        return recipe("steiner", design=design, f=f, g=g, column=args.column)
    if args.construct_cmd == "kirkman":
        return recipe("kirkman", u=args.u)
    if args.construct_cmd == "tensor":
        left = load(Path(args.left) / "recipe.json")
        right = load(Path(args.right) / "recipe.json")
        return recipe("tensor", left=left, right=right)
    design = design_to_obj(design_from_obj(load(args.design)))  # qsd-to-etf
    return recipe("qsd-to-etf", design={"generator": "blocks", "v": design["v"], "blocks": design["blocks"]},
                  branch=args.branch)


def cmd_construct(args) -> int:
    rec = _construct_recipe(args)
    artifact = replay(rec)
    out_dir = Path(args.out)
    write_artifact(artifact, out_dir)
    if args.format == "csv":
        for role, frame in artifact.frames().items():
            if frame.matrix.int_rows() is None:
                raise EtfForgeError(f"{role} matrix has non-integer entries; no CSV written")
            (out_dir / f"{role}.csv").write_text(matrix_to_csv(frame.matrix))
    summary = {"kind": artifact.kind, "d": artifact.primary.d, "n": artifact.primary.n, "out": str(args.out)}
    if artifact.pair is not None:
        summary["complement_d"] = artifact.pair.complement.d
    _print(summary)
    return 0


def cmd_verify(args) -> int:
    what = args.verify_cmd
    if what == "etf":
        frame = Frame(load_matrix(args.path))
        _print(certificate_to_obj(certify_etf(frame)))
        return 0
    if what == "hadamard":
        h = verify_hadamard(load_matrix(args.path))
        _print({"n": h.n, "kind": h.kind, "verified": True})
        return 0
    if what == "bibd":
        source = load_design_or_matrix(args.path)
        params = design_from_obj(source).params if isinstance(source, dict) else verify_bibd(source)
        _print({"v": params.v, "k": params.k, "lambda": params.lam, "r": params.r,
                "b": params.b, "fisher": params.fisher})
        return 0
    if what == "qsd":
        cert = verify_qsd(design_from_obj(load(args.path)))
        p = cert.params
        _print({"v": p.v, "k": p.k, "lambda": p.lam, "r": p.r, "b": p.b, "x": cert.x, "y": cert.y})
        return 0
    if what == "srg":
        srg = verify_srg(load_matrix(args.path))
        _print({"b": srg.b, "a": srg.a, "c": srg.c, "mu": srg.mu})
        return 0
    pair_dir = Path(args.path)  # naimark-pair
    pair = load_pair(pair_dir, Frame(load_matrix(pair_dir / "primary.json")))
    _print({"alpha": [pair.alpha.numerator, pair.alpha.denominator],
            "d": pair.primary.d, "n": pair.primary.n, "verified": True})
    return 0


def cmd_feasibility(args) -> int:
    if not args.n - 1 > args.d > 1:
        raise InputError(
            "need n - 1 > d > 1: dimensions outside the quasi-symmetric regime "
            "(d + 1 vector frames are plain simplices)"
        )
    report = flat_feasibility(args.d, args.n)
    _print(feasibility_to_obj(report))
    checks = []
    gerzon_ok = True
    for field in ("real", "complex"):
        for kind in ("flat", "hadamard"):
            g = gerzon_bounds(args.d, args.n, field, kind)
            checks.append({
                "field": field, "kind": kind, "passed": g.passed,
                "violated": g.violated,
                "upper_bound": [g.upper_bound.numerator, g.upper_bound.denominator],
            })
            if field == "real" and not g.passed:
                gerzon_ok = False
    _print({"schema": "etf-forge/gerzon/v1", "d": args.d, "n": args.n, "checks": checks})
    return 0 if report.verdict and gerzon_ok else 1


def cmd_catalog(args) -> int:
    catalog = Catalog(args.catalog)
    if args.catalog_cmd == "add":
        rec = load(args.recipe)
        record = catalog.add(rec)
        _print({"id": record.id, "kind": record.kind, "params": record.params})
        return 0
    if args.catalog_cmd == "list":
        for record in sorted(catalog.records(), key=lambda r: r.id):
            _print({"id": record.id, "kind": record.kind, "params": record.params,
                    "created_at": record.created_at})
        return 0
    if args.catalog_cmd == "show":
        record = catalog.find(args.id)
        payload = catalog.root / record.payload
        _print({"record": record.to_obj(), "recipe": load(payload / "recipe.json")})
        return 0
    failures = catalog.audit()  # audit
    _print({"audited": len(catalog.records()), "failures": failures})
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etf-forge",
        description="Construct and certify equiangular tight frames with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    construct = sub.add_parser("construct", help="build a certified artifact")
    csub = construct.add_subparsers(dest="construct_cmd", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="also export CSV (integer matrices only)")

    p = csub.add_parser("simplex", help="flat regular simplex from a Hadamard matrix")
    p.add_argument("--size", type=int, required=True, help="Hadamard size d + 1")
    p.add_argument("--dft", action="store_true", help="use the Fourier matrix")
    p.add_argument("--drop-row", type=int, default=0)
    add_common(p)

    p = csub.add_parser("harmonic", help="character rows over a difference set")
    p.add_argument("--group", required=True, help="cyclic factor orders, e.g. 2,2,2,2")
    p.add_argument("--subset", required=True,
                   help="0-based element indices in big-endian counting order")
    add_common(p)

    p = csub.add_parser("steiner", help="design-lifted frame with explicit complement")
    p.add_argument("--design", choices=("all-pairs", "round-robin", "fano"), required=True)
    p.add_argument("--v", type=int, help="vertex count for pair designs")
    p.add_argument("--column", type=int, default=1)
    p.add_argument("--complex-g", action="store_true", help="force a Fourier G")
    add_common(p)

    p = csub.add_parser("kirkman", help="flat pair on 4u^2 vectors")
    p.add_argument("--u", type=int, required=True)
    add_common(p)

    p = csub.add_parser("tensor", help="tensor two previously constructed pairs")
    p.add_argument("--left", required=True, help="directory of the left pair")
    p.add_argument("--right", required=True, help="directory of the right pair")
    add_common(p)

    p = csub.add_parser("qsd-to-etf", help="frame from a quasi-symmetric design file")
    p.add_argument("--design", required=True, help="design JSON path")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    add_common(p)

    verify = sub.add_parser("verify", help="verify an artifact file")
    vsub = verify.add_subparsers(dest="verify_cmd", required=True)
    for name, help_text in (
        ("etf", "certify a matrix JSON as an ETF"),
        ("hadamard", "verify flatness and orthogonality"),
        ("bibd", "verify a design file or 0/1 matrix"),
        ("qsd", "verify two-intersection structure"),
        ("srg", "verify strong regularity of an adjacency matrix"),
        ("naimark-pair", "verify a pair directory"),
    ):
        p = vsub.add_parser(name, help=help_text)
        p.add_argument("path")

    p = sub.add_parser("feasibility", help="integrality and dimension-count checks")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)

    cat = sub.add_parser("catalog", help="persist and audit certified artifacts")
    cat.add_argument("--catalog", default=None, help="catalog directory (or ETF_FORGE_CATALOG)")
    catsub = cat.add_subparsers(dest="catalog_cmd", required=True)
    p = catsub.add_parser("add", help="replay a recipe file and store the result")
    p.add_argument("recipe")
    catsub.add_parser("list", help="list records")
    p = catsub.add_parser("show", help="show one record")
    p.add_argument("id")
    catsub.add_parser("audit", help="re-verify every payload")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "construct":
            return cmd_construct(args)
        if args.cmd == "verify":
            return cmd_verify(args)
        if args.cmd == "feasibility":
            return cmd_feasibility(args)
        return cmd_catalog(args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except EtfForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    """The process entry: freeze the start-up heap, then exit with ``main()``'s code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
