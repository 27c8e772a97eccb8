"""A persistent, append-only catalog of certified artifacts.

Layout: one directory holding ``records.jsonl`` (one canonical JSON record
per line) and a ``payloads/`` tree with one subdirectory per record: the
artifact directory that ``recipes.write_artifact`` writes (the recipe, the
matrices and the certificates) and whose pair ``recipes.load_pair`` reads.
Record ids are the SHA-256 of the canonical recipe JSON, so identical recipes
always produce identical ids; the hash comes from the interpreter's built-in
``_sha256`` module (``_sha2`` from CPython 3.12 on), and from ``hashlib``
(which maps OpenSSL into the process) only where neither is present.  Appends
take an exclusive lock on ``catalog.lock``; readers need no lock.  A payload
is written to a temporary directory under ``payloads/`` and moved into place
under the lock, together with its record line, so a crash never leaves a
recorded payload half written and a recorded payload is never rewritten.  A
staging directory carries its writer's pid and is removed under the lock once
that process is gone.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import tempfile
from pathlib import Path

from .errors import CatalogError, EtfForgeError, InputError, RecordLookupError
from .frames import Frame, certify_etf
from .recipes import Artifact, load_pair, replay, write_artifact
from .serialize import canonical_json, certificate_to_obj, load, load_matrix
from .value import Value

ENV_VAR = "ETF_FORGE_CATALOG"
DEFAULT_DIR = "etf-catalog"


def catalog_path(override=None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(ENV_VAR, DEFAULT_DIR))


def recipe_id(rec: dict) -> str:
    try:  # imported here: only the catalog commands hash a recipe
        from _sha256 import sha256  # the interpreter's own; hashlib would map OpenSSL into the process
    except ImportError:
        try:
            from _sha2 import sha256  # its name from CPython 3.12 on
        except ImportError:  # an interpreter built without either
            from hashlib import sha256
    return sha256(canonical_json(rec).encode()).hexdigest()


def _params_summary(artifact: Artifact) -> dict:
    summary = {"d": artifact.primary.d, "n": artifact.primary.n}
    if artifact.link is not None:
        p = artifact.link.params
        summary["qsd"] = list(p.as_tuple()) + [artifact.link.x, artifact.link.y]
    return summary


class CatalogRecord(Value):
    """CatalogRecord(id, kind, params, certificates, created_at, payload):
    one line of ``records.jsonl``, the recipe's id and the path of its payload."""

    id: str
    kind: str
    params: dict
    certificates: dict
    created_at: str
    payload: str

    def to_obj(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}

    @staticmethod
    def from_obj(obj) -> "CatalogRecord":
        """A field missing is a KeyError; one not of its JSON type (objects, else strings) a TypeError;
        an id that is not ASCII letters and digits, or a payload other than ``payloads/<id>`` (where
        ``add`` puts it), a ValueError, so no record names a path outside its catalog."""
        record = CatalogRecord(*(obj[f] for f in CatalogRecord._fields))
        types = {"params": dict, "certificates": dict}
        wrong = [f for f in record._fields if type(getattr(record, f)) is not types.get(f, str)]
        if wrong:
            raise TypeError(f"fields {wrong} are not of their JSON types")
        if not (record.id.isascii() and record.id.isalnum()):
            raise ValueError(f"id {record.id!r} is not ASCII letters and digits")
        if record.payload != f"payloads/{record.id}":
            raise ValueError(f"payload {record.payload!r} is not 'payloads/{record.id}'")
        return record


class Catalog:
    def __init__(self, root: Path | str | None = None):
        self.root = catalog_path(root)
        self.records_file = self.root / "records.jsonl"
        self.payloads = self.root / "payloads"
        self.lock_file = self.root / "catalog.lock"

    def records(self) -> list[CatalogRecord]:
        if not self.records_file.exists():
            return []
        out = []
        with open(self.records_file) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    try:  # not JSON (or nested too deeply), not an object, or one that lacks a key or holds a wrong type
                        out.append(CatalogRecord.from_obj(json.loads(line)))
                    except (ValueError, RecursionError, TypeError, KeyError) as exc:
                        raise InputError(f"{self.records_file} line {number} is not a catalog record: {exc!r}") from None
        return out

    def find(self, record_id: str) -> CatalogRecord:
        """The one record whose id starts with ``record_id`` (a nonempty prefix)."""
        if not record_id:
            raise RecordLookupError("an empty id prefix matches every record")
        matches = [r for r in self.records() if r.id.startswith(record_id)]
        if not matches:
            raise RecordLookupError(f"no record with id {record_id}")
        if len(matches) > 1:
            raise RecordLookupError(f"id prefix {record_id} matches {len(matches)} records")
        return matches[0]

    def _recorded(self, rid: str) -> CatalogRecord | None:
        return next((r for r in self.records() if r.id == rid), None)

    def add(self, rec: dict) -> CatalogRecord:
        """Replay the recipe and re-certify; unless its id is already recorded,
        persist the payload and append the record.  Returns the record."""
        import datetime  # imported here, like the hash in recipe_id

        artifact = replay(rec)
        rid = recipe_id(rec)
        recorded = self._recorded(rid)
        if recorded is not None:
            return recorded
        self.payloads.mkdir(parents=True, exist_ok=True)
        # The staging directory is gone once moved into place, hence the ignore.
        with tempfile.TemporaryDirectory(prefix=f".staging-{os.getpid()}-", dir=self.payloads, ignore_cleanup_errors=True) as staging:
            record = CatalogRecord(
                id=rid,
                kind=artifact.kind,
                params=_params_summary(artifact),
                certificates=write_artifact(artifact, Path(staging)),
                created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
                payload=f"payloads/{rid}",
            )
            with open(self.lock_file, "w") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                try:
                    recorded = self._recorded(rid)
                    if recorded is not None:
                        return recorded
                    for path in self.payloads.glob(".staging-*-*"):  # left by a killed add?
                        try:
                            os.kill(int(path.name.split("-")[1]), 0)
                        except ProcessLookupError:
                            shutil.rmtree(path, ignore_errors=True)
                        except (PermissionError, ValueError, OverflowError):
                            pass  # another user's process, or no pid in the name
                    # A payload directory without a record is left by a crash
                    # between the move and the append; no record points to it.
                    shutil.rmtree(self.payloads / rid, ignore_errors=True)
                    os.replace(staging, self.payloads / rid)
                    with open(self.records_file, "a") as fh:
                        fh.write(canonical_json(record.to_obj()).rstrip("\n") + "\n")
                finally:
                    fcntl.flock(lock, fcntl.LOCK_UN)
        return record

    def audit(self) -> list[str]:
        """Re-verify every payload; returns the ids that fail, unreadable files included."""
        failures = []
        for record in self.records():
            try:
                self._audit_one(record)
            except (EtfForgeError, OSError):
                failures.append(record.id)
        return failures

    def _audit_one(self, record: CatalogRecord) -> None:
        payload_dir = self.root / record.payload
        rec = load(payload_dir / "recipe.json")
        if recipe_id(rec) != record.id:
            raise CatalogError(f"recipe hash mismatch for {record.id}")
        primary = Frame(load_matrix(payload_dir / "primary.json"))
        if certificate_to_obj(certify_etf(primary)) != record.certificates.get("primary"):
            raise CatalogError(f"primary certificate drifted for {record.id}")
        if "complement" in record.certificates:
            pair = load_pair(payload_dir, primary)
            if certificate_to_obj(certify_etf(pair.complement)) != record.certificates["complement"]:
                raise CatalogError(f"complement certificate drifted for {record.id}")
