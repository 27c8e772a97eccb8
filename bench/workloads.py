"""The three benchmark workloads and the correctness gate for their ops.

A workload is a fixed, ordered list of CLI invocations (ops).  Each op
carries what a correct run must print and write:

* construct ops: the summary document, and both certificates on disk;
* ``verify etf``: the certificate document;
* ``verify naimark-pair``: the tightness constant alpha;
* ``verify qsd``: the design parameters and intersection numbers;
* ``catalog add``: the record id (SHA-256 of the recipe bytes), kind, params;
* ``catalog audit``: one record audited and ``failures == []``.

Expected certificates are given by (d, n, beta, domain, flat); alpha and
gamma_sq follow from the closed forms alpha = n beta / d and the Welch
equality gamma^2 d (n - 1) = beta^2 (n - d), so every expected value is
derived, not copied from a program run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("flat-integer", "cyclotomic", "fractional")
KINDS = ("construct", "verify", "catalog")
CATALOG_DIR = "catalog"
# Where the inputs sit, seen from the pass directory the ops run in.
INPUTS_REL = "../inputs"


def cyclo(order: int) -> dict:
    return {"kind": "cyclotomic", "order": order}


QUAD6 = {"kind": "quadratic", "radicand": 6}


def certificate(d: int, n: int, beta: int, domain: dict, flat: bool) -> dict:
    """The certificate document an ETF with these invariants must carry."""
    beta_q = Fraction(beta)
    alpha = n * beta_q / d
    gamma_sq = beta_q * beta_q * (n - d) / (d * (n - 1))
    pair = lambda q: [q.numerator, q.denominator]  # noqa: E731
    return {"schema": "etf-forge/certificate/v1", "d": d, "n": n, "beta": pair(beta_q),
            "alpha": pair(alpha), "gamma_sq": pair(gamma_sq), "welch_equality": True,
            "flat": flat, "domain": domain}


@dataclass
class Op:
    """One CLI invocation and what a correct run prints and writes."""

    kind: str                      # construct | verify | catalog
    argv: list[str]                # arguments after ``etf-forge``
    stdout: dict | None = None     # exact expected document (None: see checks)
    out: str | None = None         # directory a construct op writes
    certs: dict = field(default_factory=dict)  # role -> expected certificate
    recipe: str | None = None      # catalog add: recipe path, for the id check
    params: dict | None = None     # catalog add: expected record params

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def construct(kind: str, args: list[str], out: str, primary: dict,
              complement: dict | None = None) -> Op:
    summary = {"kind": kind, "d": primary["d"], "n": primary["n"], "out": out}
    certs = {"primary": primary}
    if complement is not None:
        summary["complement_d"] = complement["d"]
        certs["complement"] = complement
    return Op("construct", ["construct", *args, "--out", out], summary, out, certs)


def verify_etf(path: str, cert: dict) -> Op:
    return Op("verify", ["verify", "etf", path], cert)


def verify_pair(directory: str, primary: dict) -> Op:
    doc = {"alpha": primary["alpha"], "d": primary["d"], "n": primary["n"], "verified": True}
    return Op("verify", ["verify", "naimark-pair", directory], doc)


def catalog_add(recipe: str, kind: str, params: dict) -> Op:
    return Op("catalog", ["catalog", "--catalog", CATALOG_DIR, "add", recipe],
              recipe=recipe, params={"kind": kind, "params": params})


def catalog_audit() -> Op:
    return Op("catalog", ["catalog", "--catalog", CATALOG_DIR, "audit"],
              {"audited": 1, "failures": []})


def workload_ops(name: str, inputs: Path) -> list[Op]:
    """The ordered ops of one pass; paths are relative to the pass directory.

    ``inputs`` is the seeded input directory, which the ops reach as
    ``INPUTS_REL``.
    """
    if name == "flat-integer":
        p = certificate(276, 576, 276, cyclo(1), True)
        c = certificate(300, 576, 300, cyclo(1), True)
        return [
            construct("kirkman", ["kirkman", "--u", "12"], "kirkman12", p, c),
            verify_pair("kirkman12", p),
            verify_etf("kirkman12/primary.json", p),
            catalog_add("kirkman12/recipe.json", "kirkman", {"d": 276, "n": 576}),
            catalog_audit(),
        ]
    if name == "cyclotomic":
        sets = json.loads((inputs / "difference_sets.json").read_text())

        def harmonic(key, d, n, order):
            group = ",".join(str(m) for m in sets[key]["group"])
            subset = ",".join(str(i) for i in sets[key]["subset"])
            return construct("harmonic", ["harmonic", "--group", group, "--subset", subset], key,
                             certificate(d, n, d, cyclo(order), True),
                             certificate(n - d, n, n - d, cyclo(order), True))

        h31 = harmonic("harmonic31", 6, 31, 31)
        steiner_p = certificate(28, 64, 7, cyclo(8), False)
        return [
            construct("simplex", ["simplex", "--size", "13", "--dft"], "simplex13",
                      certificate(12, 13, 12, cyclo(13), True)),
            harmonic("harmonic4x4", 6, 16, 4),
            harmonic("harmonic13", 4, 13, 13),
            h31,
            construct("steiner", ["steiner", "--design", "all-pairs", "--v", "8", "--complex-g"],
                      "steiner8", steiner_p, certificate(36, 64, 9, cyclo(8), False)),
            verify_pair("steiner8", steiner_p),
            verify_etf("harmonic31/primary.json", h31.certs["primary"]),
            catalog_add("harmonic13/recipe.json", "harmonic", {"d": 4, "n": 13}),
            catalog_audit(),
        ]
    if name == "fractional":
        sts = certificate(15, 36, 15, QUAD6, False)
        k4p = certificate(28, 64, 28, cyclo(1), False)
        k4c = certificate(36, 64, 36, cyclo(1), False)

        def qsd_to_etf(design, branch, cert):
            out = f"{design}_{branch}"
            return construct("qsd-to-etf", ["qsd-to-etf", "--design", f"{INPUTS_REL}/{design}.json",
                                            "--branch", branch], out, cert)

        return [
            qsd_to_etf("sts15", "plus", sts),
            qsd_to_etf("sts15", "minus", sts),
            qsd_to_etf("sts15_complement", "plus", sts),
            qsd_to_etf("sts15_complement", "minus", sts),
            qsd_to_etf("kirkman4_primary_qsd", "minus", k4p),
            qsd_to_etf("kirkman4_complement_qsd", "minus", k4c),
            verify_etf("sts15_plus/primary.json", sts),
            verify_etf("kirkman4_primary_qsd_minus/primary.json", k4p),
            Op("verify", ["verify", "qsd", f"{INPUTS_REL}/kirkman8_complement_qsd.json"],
               {"v": 136, "k": 64, "lambda": 56, "r": 120, "b": 255, "x": 28, "y": 32}),
            catalog_add("kirkman4_primary_qsd_minus/recipe.json", "qsd-to-etf",
                        {"d": 28, "n": 64, "qsd": [28, 12, 11, 27, 63, 4, 6]}),
            catalog_audit(),
        ]
    raise ValueError(f"unknown workload {name!r}")


def check_op(op: Op, exit_code: int, stdout: str, pass_dir: Path) -> list[str]:
    """Everything wrong with one op's result; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"stdout is not one JSON document: {stdout[:120]!r}"]
    problems = []
    if op.stdout is not None and doc != op.stdout:
        problems.append(f"printed {doc}, expected {op.stdout}")
    for role, cert in op.certs.items():
        path = pass_dir / op.out / f"certificate_{role}.json"
        try:
            got = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{role} certificate unreadable: {exc}")
            continue
        if got != cert:
            problems.append(f"{role} certificate {got}, expected {cert}")
    if op.recipe is not None:
        try:
            rid = hashlib.sha256((pass_dir / op.recipe).read_bytes()).hexdigest()
        except OSError as exc:
            return problems + [f"recipe unreadable: {exc}"]
        want = {"id": rid, **op.params}
        if doc != want:
            problems.append(f"catalog record {doc}, expected {want}")
    return problems


def written_files(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every canonical JSON file a pass wrote.

    The catalog's ``records.jsonl`` (it carries timestamps) and its lock
    file are not canonical outputs and are left out.
    """
    out = {}
    for path in sorted(pass_dir.rglob("*")):
        if path.is_file() and path.name not in ("records.jsonl", "catalog.lock"):
            rel = path.relative_to(pass_dir).as_posix()
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def owner(ops: list[Op], rel: str) -> int:
    """Index of the op that writes the file at this pass-relative path."""
    for i, op in enumerate(ops):
        if op.out is not None and rel.startswith(op.out + "/"):
            return i
        if op.recipe is not None and rel.startswith(CATALOG_DIR + "/"):
            return i
    return len(ops) - 1


def pin_failures(ops: list[Op], written: dict[str, str], pins: dict[str, str]) -> dict[int, list[str]]:
    """Ops whose written files differ from the pinned hashes, with reasons."""
    bad: dict[int, list[str]] = {}
    for rel in sorted(set(written) | set(pins)):
        if written.get(rel) != pins.get(rel):
            what = "missing" if rel not in written else "unpinned" if rel not in pins else "differs"
            bad.setdefault(owner(ops, rel), []).append(f"{rel}: {what}")
    return bad
