import json

import pytest

from etf_forge.catalog import Catalog, recipe_id
from etf_forge.errors import CatalogError, InputError
from etf_forge.recipes import recipe, replay
from etf_forge.serialize import load


def kirkman_recipe(u=2):
    return recipe("kirkman", u=u)


def test_replay_kirkman():
    artifact = replay(kirkman_recipe())
    assert (artifact.primary.d, artifact.primary.n) == (6, 16)
    assert artifact.pair.complement.d == 10


def test_replay_rejects_unknown_kind():
    from etf_forge.errors import EtfForgeError

    with pytest.raises(EtfForgeError, match="unknown recipe kind"):
        replay({"schema": "etf-forge/recipe/v1", "kind": "nope", "inputs": {}})


def test_recipe_ids_are_stable():
    assert recipe_id(kirkman_recipe()) == recipe_id(kirkman_recipe())
    assert recipe_id(kirkman_recipe(2)) != recipe_id(kirkman_recipe(4))


def test_recipe_id_is_the_sha256_of_the_canonical_recipe():
    # recipe_id hashes with the interpreter's own SHA-256 module; hashlib is
    # the oracle and is imported here only.
    import hashlib

    from etf_forge.serialize import canonical_json
    from test_cli import _strict_field_cases

    bases = {name: base for name, base, _ in _strict_field_cases()}
    assert len(bases) == 6
    for name, rec in bases.items():
        assert recipe_id(rec) == hashlib.sha256(canonical_json(rec).encode()).hexdigest(), name


def test_recipe_id_takes_the_builtin_module_of_cpython_312(monkeypatch):
    # CPython 3.12 renamed _sha256 to _sha2.  With _sha256 and hashlib both
    # unimportable, recipe_id must hash with a module named _sha2; the stub
    # delegates to hashlib's sha256, taken before hashlib is blocked.
    import hashlib
    import sys
    import types

    from etf_forge.serialize import canonical_json

    calls = []
    stub = types.ModuleType("_sha2")
    stub.sha256 = lambda data, _sha256=hashlib.sha256: calls.append(data) or _sha256(data)
    rec = kirkman_recipe()
    oracle = hashlib.sha256(canonical_json(rec).encode()).hexdigest()
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "hashlib", None)
    monkeypatch.setitem(sys.modules, "_sha2", stub)
    assert recipe_id(rec) == oracle
    assert calls == [canonical_json(rec).encode()]


def test_catalog_add_list_show(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    record = catalog.add(kirkman_recipe())
    assert record.kind == "kirkman"
    assert record.params["d"] == 6 and record.params["n"] == 16

    records = catalog.records()
    assert len(records) == 1
    assert records[0].id == record.id

    found = catalog.find(record.id[:12])
    assert found.id == record.id

    payload = catalog.root / record.payload
    assert (payload / "primary.json").exists()
    assert (payload / "complement.json").exists()
    assert load(payload / "recipe.json") == kirkman_recipe()


def test_catalog_add_is_idempotent(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    catalog.add(kirkman_recipe())
    catalog.add(kirkman_recipe())
    assert len(catalog.records()) == 1


def test_catalog_three_adds_stable_order(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    ids = {
        catalog.add(recipe("harmonic", group=[2, 2, 2, 2], subset=[1, 2, 3, 5, 10, 15])).id,
        catalog.add(kirkman_recipe()).id,
        catalog.add(recipe("simplex", hadamard={"generator": "sylvester", "e": 2}, drop_row=0)).id,
    }
    assert len(ids) == 3
    listed = [r.id for r in catalog.records()]
    assert set(listed) == ids


def test_catalog_audit_clean(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    catalog.add(kirkman_recipe())
    assert catalog.audit() == []


def test_catalog_audit_detects_corruption(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    record = catalog.add(kirkman_recipe())
    target = catalog.root / record.payload / "primary.json"
    obj = json.loads(target.read_text())
    obj["entries"][5] = [[0, -1, 1]] if obj["entries"][5] == [[0, 1, 1]] else [[0, 1, 1]]
    target.write_text(json.dumps(obj))
    failures = catalog.audit()
    assert failures == [record.id]


def test_catalog_audit_checks_declared_pair_metadata(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    record = catalog.add(kirkman_recipe())
    target = catalog.root / record.payload / "pair.json"
    obj = json.loads(target.read_text())
    obj["alpha"], obj["d"] = [17, 1], 7
    target.write_text(json.dumps(obj))
    assert catalog.audit() == [record.id]


def test_catalog_audit_lists_malformed_pair_weights_and_audits_the_rest(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    bad = catalog.add(kirkman_recipe())
    good = catalog.add(recipe("simplex", hadamard={"generator": "sylvester", "e": 2}, drop_row=0))
    target = catalog.root / bad.payload / "pair.json"
    obj = json.loads(target.read_text())
    obj["complement_row_weights"] = 5
    target.write_text(json.dumps(obj))
    assert catalog.audit() == [bad.id]
    target.write_text(json.dumps(dict(obj, complement_row_weights=[[1, 0]] * 10)))
    assert catalog.audit() == [bad.id]
    assert [r.id for r in catalog.records()] == [bad.id, good.id]


def test_catalog_find_rejects_empty_and_ambiguous_prefixes(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    catalog.root.mkdir()
    lines = [
        json.dumps({"id": rid, "kind": "simplex", "params": {}, "certificates": {},
                    "created_at": "", "payload": f"payloads/{rid}"})
        for rid in ("ab12", "ab34")
    ]
    catalog.records_file.write_text("\n".join(lines) + "\n")
    assert catalog.find("ab3").id == "ab34"
    with pytest.raises(CatalogError, match="empty id prefix"):
        catalog.find("")
    with pytest.raises(CatalogError, match="matches 2 records"):
        catalog.find("ab")
    with pytest.raises(CatalogError, match="no record"):
        catalog.find("cd")


def test_re_adding_a_recorded_recipe_leaves_the_payload_untouched(tmp_path):
    catalog = Catalog(tmp_path / "cat")
    record = catalog.add(kirkman_recipe())
    target = catalog.root / record.payload / "primary.json"
    target.write_text("marker")
    before = target.stat().st_mtime_ns
    again = catalog.add(kirkman_recipe())
    assert again == record
    assert target.read_text() == "marker" and target.stat().st_mtime_ns == before
    assert sorted(p.name for p in (catalog.root / "payloads").iterdir()) == [record.id]


def test_concurrent_adds_of_one_recipe_record_it_once(tmp_path):
    import os
    import subprocess
    import sys

    from etf_forge.serialize import dump

    dump(kirkman_recipe(), tmp_path / "recipe.json")
    cat = tmp_path / "cat"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "etf_forge.cli", "catalog", "--catalog", str(cat),
            "add", str(tmp_path / "recipe.json")]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(4)]
    outputs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, outputs
    assert len({out for out, _ in outputs}) == 1
    lines = (cat / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == [recipe_id(kirkman_recipe())]
    assert [p.name for p in (cat / "payloads").iterdir()] == [recipe_id(kirkman_recipe())]
    assert Catalog(cat).audit() == []


@pytest.mark.parametrize("damage", ["invalid_json", "missing", "nested_too_deeply"])
def test_catalog_audit_lists_unreadable_payload_files_and_audits_the_rest(tmp_path, damage):
    catalog = Catalog(tmp_path / "cat")
    bad = catalog.add(kirkman_recipe())
    good = catalog.add(recipe("simplex", hadamard={"generator": "sylvester", "e": 2}, drop_row=0))
    target = catalog.root / bad.payload / "primary.json"
    if damage == "missing":
        target.unlink()
    else:  # a document nested too deeply raises RecursionError in the json decoder
        target.write_text('{"schema": ' if damage == "invalid_json" else "[" * 100_000)
        with pytest.raises(InputError, match="primary.json is not valid JSON"):
            load(target)
    assert catalog.audit() == [bad.id]
    assert [r.id for r in catalog.records()] == [bad.id, good.id]


def test_add_removes_only_staging_directories_of_exited_processes(tmp_path):
    import os
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0  # reaped: its pid names no process now
    payloads = tmp_path / "cat" / "payloads"
    names = {
        "exited": f".staging-{child.pid}-a1b2",
        "live": f".staging-{os.getpid()}-c3d4",
        "no_pid": ".staging-e5f6",
        "unparsed": ".staging-g7-h8",
    }
    for name in names.values():
        (payloads / name).mkdir(parents=True)
        (payloads / name / "primary.json").write_text("partial")
    record = Catalog(tmp_path / "cat").add(kirkman_recipe())
    left = sorted(p.name for p in payloads.iterdir())
    assert left == sorted([record.id, names["live"], names["no_pid"], names["unparsed"]])
