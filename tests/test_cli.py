import json
import math
import random
import sys
from pathlib import Path

import pytest

from etf_forge.cli import COMMANDS, main
from etf_forge.constructions import SteinerInputs, steiner_etf
from etf_forge.designs import all_pairs_design, design_to_obj, lift_permutation
from etf_forge.errors import InputError
from etf_forge.frames import Frame, certify_etf
from etf_forge.hadamard import sylvester
from etf_forge.matrices import ExactMatrix
from etf_forge.serialize import (
    MAX_SIDE,
    canonical_json,
    certificate_to_obj,
    load,
    matrix_from_obj,
    matrix_text,
)

from test_frames import FLAT_6x16


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_kirkman_pair(tmp_path, capsys):
    out = tmp_path / "pair"
    code, stdout, _ = run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    assert code == 0
    assert (out / "primary.json").exists()
    assert (out / "complement.json").exists()
    cert = load(out / "certificate_primary.json")
    assert (cert["d"], cert["n"]) == (6, 16)
    cert_c = load(out / "certificate_complement.json")
    assert cert_c["d"] == 10
    summary = json.loads(stdout)
    assert summary["d"] == 6 and summary["complement_d"] == 10


def test_construct_harmonic(tmp_path, capsys):
    out = tmp_path / "harmonic"
    code, stdout, _ = run(
        capsys, "construct", "harmonic",
        "--group", "2,2,2,2", "--subset", "1,5,2,10,3,15", "--out", str(out),
    )
    assert code == 0
    cert = load(out / "certificate_primary.json")
    assert (cert["d"], cert["n"], cert["flat"]) == (6, 16, True)


def test_construct_csv_export(tmp_path, capsys):
    out = tmp_path / "simplex"
    code, _, _ = run(
        capsys, "construct", "simplex", "--size", "4", "--out", str(out), "--format", "csv",
    )
    assert code == 0
    assert (out / "primary.csv").read_text().splitlines()[0].count(",") == 3


def test_construct_tensor_from_dirs(tmp_path, capsys):
    left = tmp_path / "left"
    code, _, _ = run(capsys, "construct", "simplex", "--size", "4", "--out", str(left))
    assert code == 0
    # A simplex alone has no complement, so tensor must reject it.
    code, _, err = run(
        capsys, "construct", "tensor", "--left", str(left), "--right", str(left),
        "--out", str(tmp_path / "t"),
    )
    assert code == 1
    assert "pair" in err

    pair_dir = tmp_path / "pair16"
    code, _, _ = run(capsys, "construct", "kirkman", "--u", "2", "--out", str(pair_dir))
    assert code == 0
    code, stdout, _ = run(
        capsys, "construct", "tensor", "--left", str(pair_dir), "--right", str(pair_dir),
        "--out", str(tmp_path / "t2"),
    )
    assert code == 0
    assert json.loads(stdout)["n"] == 256


def test_construct_steiner_weighted_complement(tmp_path, capsys):
    out = tmp_path / "steiner"
    code, _, _ = run(
        capsys, "construct", "steiner", "--design", "all-pairs", "--v", "4", "--out", str(out),
    )
    assert code == 0
    pair_obj = load(out / "pair.json")
    assert pair_obj["complement_row_weights"] == [[1, 1]] * 6 + [[2, 1]] * 4
    code, stdout, _ = run(capsys, "verify", "naimark-pair", str(out))
    assert code == 0
    assert json.loads(stdout)["alpha"] == [8, 1]


def test_construct_steiner_fano(tmp_path, capsys):
    out = tmp_path / "fano"
    code, stdout, _ = run(capsys, "construct", "steiner", "--design", "fano", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert (summary["d"], summary["n"]) == (7, 28)
    code, _, _ = run(capsys, "verify", "naimark-pair", str(out))
    assert code == 0


def test_verify_etf_roundtrip(tmp_path, capsys):
    out = tmp_path / "pair"
    run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "etf", str(out / "primary.json"))
    assert code == 0
    cert = json.loads(stdout)
    assert cert["beta"] == [6, 1] and cert["flat"]


def test_verify_etf_detects_sign_flip(tmp_path, capsys):
    out = tmp_path / "pair"
    run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    obj = load(out / "primary.json")
    obj["entries"][7] = [[0, 1, 1]] if obj["entries"][7] == [[0, -1, 1]] else [[0, -1, 1]]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(obj))
    code, _, err = run(capsys, "verify", "etf", str(bad))
    assert code == 1
    assert "tight" in err or "equiangular" in err


def test_verify_naimark_pair_dir(tmp_path, capsys):
    out = tmp_path / "pair"
    run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "naimark-pair", str(out))
    assert code == 0
    assert json.loads(stdout)["alpha"] == [16, 1]


def test_verify_naimark_pair_checks_declared_metadata(tmp_path, capsys):
    out = tmp_path / "pair"
    run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    obj = load(out / "pair.json")
    obj["alpha"], obj["d"] = [17, 1], 7
    (out / "pair.json").write_text(canonical_json(obj))
    code, stdout, err = run(capsys, "verify", "naimark-pair", str(out))
    assert code == 1 and stdout == ""
    assert "pair.json declares d 7" in err


def test_pair_json_that_is_not_a_pair_document_is_exit_2(tmp_path, capsys):
    out = tmp_path / "pair"
    run(capsys, "construct", "kirkman", "--u", "2", "--out", str(out))
    obj = load(out / "pair.json")
    for doc in ([obj], dict(obj, schema="etf-forge/design/v1")):
        (out / "pair.json").write_text(canonical_json(doc))
        code, stdout, err = run(capsys, "verify", "naimark-pair", str(out))
        _assert_input_error(code, err)
        assert stdout == "" and "not a pair document" in err


def test_verify_qsd_design_file(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(canonical_json(design_to_obj(all_pairs_design(6))))
    code, stdout, _ = run(capsys, "verify", "qsd", str(path))
    assert code == 0
    result = json.loads(stdout)
    assert (result["x"], result["y"]) == (0, 1)


def test_qsd_to_etf_command(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(canonical_json(design_to_obj(all_pairs_design(6))))
    out = tmp_path / "frame"
    code, stdout, _ = run(
        capsys, "construct", "qsd-to-etf", "--design", str(path),
        "--branch", "plus", "--out", str(out),
    )
    assert code == 0
    cert = load(out / "certificate_primary.json")
    assert (cert["d"], cert["n"], cert["flat"]) == (6, 16, True)


def test_feasibility_command(capsys):
    code, stdout, _ = run(capsys, "feasibility", "15", "36")
    assert code == 1
    lines = stdout.splitlines()
    assert json.loads(lines[0])["verdict"] == "fail"
    code, stdout, _ = run(capsys, "feasibility", "78", "144")
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["verdict"] == "pass"


def test_feasibility_simplex_regime_is_usage_error(capsys):
    code, stdout, err = run(capsys, "feasibility", "6", "7")
    _assert_input_error(code, err)
    assert "simplices" in err and stdout == ""


def test_catalog_commands(tmp_path, capsys):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(canonical_json(
        {"schema": "etf-forge/recipe/v1", "kind": "kirkman", "inputs": {"u": 2}}
    ))
    cat = str(tmp_path / "cat")
    code, stdout, _ = run(capsys, "catalog", "--catalog", cat, "add", str(recipe_path))
    assert code == 0
    record_id = json.loads(stdout)["id"]

    code, stdout, _ = run(capsys, "catalog", "--catalog", cat, "list")
    assert code == 0
    assert record_id in stdout

    code, stdout, _ = run(capsys, "catalog", "--catalog", cat, "show", record_id[:10])
    assert code == 0
    assert json.loads(stdout)["recipe"]["kind"] == "kirkman"

    code, stdout, _ = run(capsys, "catalog", "--catalog", cat, "audit")
    assert code == 0
    assert json.loads(stdout)["failures"] == []


def test_catalog_audit_failure_names_id(tmp_path, capsys):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(canonical_json(
        {"schema": "etf-forge/recipe/v1", "kind": "kirkman", "inputs": {"u": 2}}
    ))
    cat = tmp_path / "cat"
    code, stdout, _ = run(capsys, "catalog", "--catalog", str(cat), "add", str(recipe_path))
    record_id = json.loads(stdout)["id"]
    target = cat / "payloads" / record_id / "primary.json"
    obj = json.loads(target.read_text())
    obj["entries"][3] = [[0, 1, 1]] if obj["entries"][3] == [[0, -1, 1]] else [[0, -1, 1]]
    target.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "catalog", "--catalog", str(cat), "audit")
    assert code == 1
    assert record_id in json.loads(stdout)["failures"]


def test_env_var_overrides_catalog(tmp_path, capsys, monkeypatch):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(canonical_json(
        {"schema": "etf-forge/recipe/v1", "kind": "simplex",
         "inputs": {"hadamard": {"generator": "sylvester", "e": 2}, "drop_row": 0}}
    ))
    monkeypatch.setenv("ETF_FORGE_CATALOG", str(tmp_path / "envcat"))
    code, _, _ = run(capsys, "catalog", "add", str(recipe_path))
    assert code == 0
    assert (tmp_path / "envcat" / "records.jsonl").exists()


def test_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "etf", str(bad))
    assert code == 2


def test_missing_file_is_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "etf", "/nonexistent/path.json")
    assert code == 2


# Every level's --help and a usage error at each: argparse ends each one with
# SystemExit before any handler runs.
USAGE_CASES = [
    [], ["--help"], ["bogus"],
    *([group, "--help"] for group in ("construct", "verify", "feasibility", "catalog")),
    *([group] for group in ("construct", "verify", "catalog")),
    ["catalog", "--catalog", "c", "--help"],
    *(["construct", name, "--help"] for name in ("simplex", "harmonic", "steiner", "kirkman", "tensor", "qsd-to-etf")),
    ["construct", "simplex"], ["construct", "harmonic", "--group", "2"], ["construct", "steiner", "--design", "pairs"],
    ["construct", "kirkman", "--u", "two"], ["construct", "tensor", "--left", "a"],
    ["construct", "qsd-to-etf", "--design", "d", "--branch", "up"],
    *(["verify", name, "--help"] for name in ("etf", "hadamard", "bibd", "qsd", "srg", "naimark-pair")),
    ["verify", "etf"], ["verify", "hadamard", "a", "b"], ["verify", "bibd"], ["verify", "qsd", "--strict", "a"],
    ["verify", "srg"], ["verify", "naimark-pair"],
    ["feasibility", "15", "x"],
    *(["catalog", name, "--help"] for name in ("add", "list", "show", "audit")),
    ["catalog", "add"], ["catalog", "list", "extra"], ["catalog", "show"], ["catalog", "audit", "--fix"],
]


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    # cli_usage.json holds stdout, stderr and the exit code of each case, as
    # the front end printed them when its parser was built whole.
    expected = json.loads((Path(__file__).parent / "cli_usage.json").read_text())
    if list(sys.version_info[:2]) != expected["python"]:
        pytest.skip(f"argparse's wording is pinned for Python {expected['python']}")
    monkeypatch.setenv("COLUMNS", "80")  # the help formatter's width
    got = {}
    for argv in USAGE_CASES:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out = capsys.readouterr()
        got[" ".join(argv)] = [exit_.value.code, out.out, out.err]
    assert got == expected["cases"]


def _malformed_matrix_files(tmp_path, capsys):
    run(capsys, "construct", "simplex", "--size", "4", "--out", str(tmp_path / "s"))
    obj = load(tmp_path / "s" / "primary.json")
    cases = {
        "zero_denominator": dict(obj, entries=[[[0, 1, 0]]] + obj["entries"][1:]),
        "non_list_entry": dict(obj, entries=[5] + obj["entries"][1:]),
        "top_level_array": [obj],
        # rows and cols must be JSON integers: int() would accept these.
        "float_rows": dict(obj, rows=obj["rows"] + 0.5),
        "string_rows": dict(obj, rows=str(obj["rows"])),
        "bool_rows": dict(obj, rows=True, cols=obj["rows"] * obj["cols"]),
    }
    for name, doc in cases.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return cases


def _assert_input_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_zero_denominator_is_exit_2(tmp_path, capsys):
    _malformed_matrix_files(tmp_path, capsys)
    code, stdout, err = run(capsys, "verify", "etf", str(tmp_path / "zero_denominator.json"))
    _assert_input_error(code, err)
    assert stdout == ""


def test_non_list_entry_is_exit_2(tmp_path, capsys):
    _malformed_matrix_files(tmp_path, capsys)
    code, stdout, err = run(capsys, "verify", "etf", str(tmp_path / "non_list_entry.json"))
    _assert_input_error(code, err)
    assert stdout == ""


def test_top_level_array_is_exit_2(tmp_path, capsys):
    _malformed_matrix_files(tmp_path, capsys)
    for cmd in ("etf", "hadamard", "bibd", "srg"):
        code, stdout, err = run(capsys, "verify", cmd, str(tmp_path / "top_level_array.json"))
        _assert_input_error(code, err)
        assert stdout == ""


def test_malformed_design_documents_exit_2(tmp_path, capsys):
    good = design_to_obj(all_pairs_design(6))
    # int() would read each of 1.9, "1" and true as vertex 1 and certify the
    # original design; a document must hold JSON integers.
    assert good["blocks"][0] == [1, 2]
    rest = good["blocks"][1:]
    for name, doc in (("array", [good]), ("blocks", dict(good, blocks=5)),
                      ("classes", dict(good, parallel_classes=4)),
                      ("schema", dict(good, schema="etf-forge/matrix/v1")),
                      ("float_vertex", dict(good, blocks=[[1.9, 2]] + rest)),
                      ("string_vertex", dict(good, blocks=[["1", 2]] + rest)),
                      ("bool_vertex", dict(good, blocks=[[True, 2]] + rest)),
                      ("float_class", dict(good, parallel_classes=[[0.0]])),
                      ("string_param", dict(good, v="6")),
                      ("bool_param", dict(good, **{"lambda": True})),
                      # A repeated vertex once collapsed into one incidence entry.
                      ("repeated_vertex", dict(good, blocks=[[1, 1]] + rest)),
                      ("zero_vertex", dict(good, blocks=[[0, 2]] + rest)),
                      ("vertex_above_v", dict(good, blocks=[[1, 7]] + rest))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "verify", "qsd", str(path))
        _assert_input_error(code, err)
        assert stdout == ""


def test_malformed_matrix_documents_exit_2_in_a_child_process(tmp_path, capsys):
    import os
    import subprocess
    import sys

    _malformed_matrix_files(tmp_path, capsys)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name in ("zero_denominator", "non_list_entry", "top_level_array", "float_rows", "string_rows", "bool_rows"):
        proc = subprocess.run(
            [sys.executable, "-m", "etf_forge.cli", "verify", "etf", str(tmp_path / f"{name}.json")],
            capture_output=True, text=True, env=env,
        )
        _assert_input_error(proc.returncode, proc.stderr)


def test_cli_import_loads_no_catalog_or_introspection_stdlib():
    # Every CLI child pays for what `import etf_forge.cli` loads.  `dataclasses`
    # (with `inspect`, `ast`, `dis` and `tokenize`) is not used at all, and
    # `hashlib` and `datetime` are imported only by the catalog calls that need them.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                              capture_output=True, text=True, env=env, check=True)
        return set(proc.stdout.split())

    added = loaded("import etf_forge.cli") - loaded("pass")
    assert "etf_forge.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib", "datetime"} == set()


def test_a_child_executes_only_the_layers_its_subcommand_reaches(tmp_path, capsys):
    # Every submodule is registered at `import etf_forge`, but a deferred one
    # is a plain module only once its body has run, and every child compiles
    # each module it runs.
    import os
    import subprocess

    assert run(capsys, "construct", "harmonic", "--group", "7", "--subset", "1,2,4", "--out", str(tmp_path / "h"))[0] == 0
    assert run(capsys, "catalog", "--catalog", str(tmp_path / "cat"), "add", str(tmp_path / "h" / "recipe.json"))[0] == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = ("import sys, types\nfrom etf_forge.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, *sorted(name for name, module in sys.modules.items()\n"
             "                    if name.startswith('etf_forge.') and type(module) is types.ModuleType), file=sys.stderr)")
    base = {"cli", "errors", "value", "scalars", "matrices", "serialize"}
    for argv, layers in (
        (["verify", "etf", str(tmp_path / "h" / "primary.json")], {"frames"}),
        (["verify", "naimark-pair", str(tmp_path / "h")], {"frames", "recipes"}),
        (["construct", "harmonic", "--group", "2,2,2,2", "--subset", "1,5,2,10,3,15", "--out", str(tmp_path / "h16")],
         {"frames", "recipes", "hadamard", "constructions"}),
        (["construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k")],
         {"frames", "recipes", "hadamard", "constructions", "designs"}),
        (["feasibility", "15", "36"], {"frames", "designs", "qsd_bridge"}),
        (["catalog", "--catalog", str(tmp_path / "cat"), "list"], {"frames", "recipes", "catalog"}),
    ):
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, check=True)
        code, *executed = proc.stderr.split()
        assert code in ("0", "1") and set(executed) == {f"etf_forge.{m}" for m in base | layers}, argv


# What `etf_forge` re-exported when its entry imported every module eagerly.
PACKAGE_EXPORTS = {
    "errors": "CatalogError DesignError DomainError EtfForgeError FrameError HadamardError InputError",
    "scalars": "CycloElem QuadElem rational_sqrt",
    "matrices": "RATIONAL ExactMatrix cyclo_domain kron matmul quad_domain scaled_identity vstack",
    "designs": "Design DesignParams PermutationLift QsdCertificate SrgParams all_pairs_design complement_design "
               "etf_params_from_srg fano_plane lift_permutation round_robin_resolution srg_params_from_qsd "
               "verify_bibd verify_qsd verify_srg",
    "hadamard": "AbelianGroup HadamardMatrix char_table dft hadamard_of_size paley_one sylvester verify_hadamard",
    "frames": "EtfCertificate Frame NaimarkPair certify_etf certify_hadamard_etf gram gram_to_hadamard "
              "hadamard_to_gram verify_naimark_pair welch_bound_sq",
    "constructions": "DifferenceSet KirkmanInputs SteinerInputs flat_regular_simplex harmonic_etf kirkman_etf "
                     "standard_kirkman_inputs steiner_etf steiner_naimark tensor_etf verify_difference_set",
    "qsd_bridge": "FeasibilityReport FlatEtfExtraction GerzonReport QsdEtfLink canonical_sign etf_from_qsd "
                  "flat_family_qsd_params flat_feasibility gerzon_bounds qsd_frame_scalars qsd_from_flat_etf "
                  "qsd_gives_etf qsd_params_from_rbibd",
    "catalog": "Catalog",
    "recipes": "Artifact recipe replay",
}


def test_the_package_re_exports_every_name_of_its_modules():
    import importlib

    import etf_forge

    assert etf_forge.__version__ == "0.1.0"
    star = {}
    exec("from etf_forge import *", star)
    for module, names in PACKAGE_EXPORTS.items():
        home = importlib.import_module(f"etf_forge.{module}")
        assert getattr(etf_forge, module) is home
        for name in names.split():
            assert getattr(etf_forge, name) is getattr(home, name) is star[name], f"{module}.{name}"
            assert name in dir(etf_forge)
    with pytest.raises(AttributeError):
        etf_forge.no_such_name


def test_threads_that_first_touch_a_deferred_module_together_all_see_it(tmp_path):
    # A module whose body is still running must make a thread that finds a
    # name missing wait for it, not raise AttributeError.  Each round is a
    # fresh interpreter, where qsd_bridge's body has not run.
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    names = PACKAGE_EXPORTS["qsd_bridge"].split()[:8]
    child = f"""
import sys, threading
import etf_forge
sys.setswitchinterval(1e-6)
names, errors = {names!r}, []
barrier = threading.Barrier(len(names))

def touch(name):
    barrier.wait(30)
    try:
        getattr(sys.modules["etf_forge.qsd_bridge"], name)
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=touch, args=(name,)) for name in names]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(len(errors), sum(t.is_alive() for t in threads), *errors)
"""
    for _ in range(10):
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True,
                              timeout=120)
        assert proc.stdout == "0 0\n"  # no thread failed, none is still waiting


def test_catalog_children_leave_openssl_unloaded(tmp_path):
    # hashlib maps OpenSSL into the process (3-4 MB of a child's peak);
    # recipe_id hashes with the interpreter's built-in _sha256 module (_sha2
    # from CPython 3.12 on).
    import importlib.util
    import os
    import subprocess
    import sys

    if not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        pytest.skip("the interpreter has no built-in SHA-256 module")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert main(["construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k")]) == 0
    cat = str(tmp_path / "cat")
    for argv in (["add", str(tmp_path / "k" / "recipe.json")], ["audit"]):
        code = (f"import sys\nfrom etf_forge.cli import main\ncode = main(['catalog', '--catalog', {cat!r}, *{argv!r}])\n"
                "print(code, '_hashlib' in sys.modules, 'hashlib' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stderr.split() == ["0", "False", "False"], (argv, proc.stderr)


def test_matrix_documents_are_read_from_a_pipe(tmp_path):
    # A document piped to /dev/stdin can be read only once: both readers
    # (the {-1, 0, 1} text and json) work from that one read.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert main(["construct", "harmonic", "--group", "13", "--subset", "0,1,3,9", "--out", str(tmp_path / "h")]) == 0
    assert main(["construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k")]) == 0
    for path in (tmp_path / "h" / "primary.json", tmp_path / "k" / "complement.json"):
        proc = subprocess.run([sys.executable, "-m", "etf_forge.cli", "verify", "etf", "/dev/stdin"],
                              input=path.read_text(), capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), path
        assert json.loads(proc.stdout) == certificate_to_obj(certify_etf(Frame(matrix_from_obj(load(path)))))


def test_a_subcommand_builds_only_its_own_group(tmp_path, capsys, monkeypatch):
    # The top level lists every group, so each group has a parser; only the
    # group that runs gets its subcommands' parsers.
    import argparse

    assert run(capsys, "construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k"))[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: init(self, *a, **k) or built.append(self.prog))
    assert run(capsys, "verify", "etf", str(tmp_path / "k" / "primary.json"))[0] == 0
    assert sorted(built) == sorted(["etf-forge", *(f"etf-forge {group}" for group in COMMANDS),
                                    *(f"etf-forge verify {name}" for name in COMMANDS["verify"][2])])


def test_readme_command_lines_name_table_entries():
    # Each `etf-forge <group> [group options] <subcommand>` line of the
    # README's command-line block names an entry of cli.COMMANDS.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("etf-forge ")]
    assert lines
    for words in lines:
        assert words[1] in COMMANDS, " ".join(words)
        _, options, table = COMMANDS[words[1]]
        rest = words[2:]
        while rest and rest[0] in [flag for flag, _ in options]:
            rest = rest[2:]  # a group option and its value
        assert not isinstance(table, dict) or rest and rest[0] in table, " ".join(words)


def test_a_closed_or_failing_stdout_is_an_output_error(tmp_path):
    # Exit 2 with one `output error:` line: never a traceback, never exit 1
    # (a failed identity) and never `input error:`.  Without PYTHONUNBUFFERED
    # the document waits in stdout's buffer until main flushes it, and the
    # flush at interpreter exit must not fail again (exit 120).
    import os
    import subprocess

    assert main(["construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k")]) == 0
    argv = [sys.executable, "-m", "etf_forge.cli", "verify", "etf", str(tmp_path / "k" / "primary.json")]
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    buffered["PYTHONPATH"] = os.pathsep.join(sys.path)
    read, broken = os.pipe()
    os.close(read)  # a reader that has gone: every write fails with EPIPE
    full = os.open("/dev/full", os.O_WRONLY)  # every write fails with ENOSPC
    unbuffered = dict(buffered, PYTHONUNBUFFERED="1")
    try:
        for stdout, env, preexec, reason in (
            (None, buffered, lambda: os.close(1), "stdout is closed"),
            (full, buffered, None, "[Errno 28] No space left on device"),
            (full, unbuffered, None, "[Errno 28] No space left on device"),
            (broken, buffered, None, "[Errno 32] Broken pipe"),
        ):
            proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=preexec)
            assert (proc.returncode, proc.stderr) == (2, f"output error: {reason}\n"), (reason, env is unbuffered)
    finally:
        os.close(broken)
        os.close(full)


def test_a_failing_artifact_write_is_an_output_error(tmp_path, capsys):
    # The construction succeeded; what failed is writing its files.
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    code, stdout, err = run(capsys, "construct", "simplex", "--size", "4", "--out", str(out))
    assert (code, stdout, err) == (2, "", f"output error: [Errno 20] Not a directory: {str(out)!r}\n")


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    # Only the process entry freezes the start-up heap; in-process callers of
    # main keep their collector as it was.
    import gc

    before = gc.get_freeze_count()
    assert run(capsys, "construct", "kirkman", "--u", "2", "--out", str(tmp_path / "k"))[0] == 0
    assert run(capsys, "feasibility", "15", "36")[0] == 1
    assert gc.get_freeze_count() == before


def test_run_freezes_once_then_exits_with_the_code_of_main(monkeypatch):
    import etf_forge.cli as cli

    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(cli.sys, "exit", lambda code: calls.append(("exit", code)))
    cli.run()
    assert calls == ["freeze", "main", ("exit", 7)]


def test_catalog_show_lookup_failures_are_exit_2(tmp_path, capsys):
    cat = tmp_path / "cat"
    cat.mkdir()
    lines = [
        json.dumps({"id": rid, "kind": "simplex", "params": {}, "certificates": {},
                    "created_at": "", "payload": f"payloads/{rid}"})
        for rid in ("ab12", "ab34")
    ]
    (cat / "records.jsonl").write_text("\n".join(lines) + "\n")
    for prefix, reason in (("", "empty id prefix"), ("ab", "matches 2 records"), ("cd", "no record")):
        code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), "show", prefix)
        _assert_input_error(code, err)
        assert reason in err and stdout == ""


def test_non_square_free_radicand_is_exit_2(tmp_path, capsys):
    # 1 + sqrt(12) cannot be held over the basis 1, sqrt(12) of a square-free field.
    doc = {"schema": "etf-forge/matrix/v1", "domain": {"kind": "quadratic", "radicand": 12},
           "rows": 1, "cols": 2, "entries": [[1, 1, 1, 1], [1, 1, 0, 1]]}
    path = tmp_path / "r12.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "verify", "etf", str(path))
    _assert_input_error(code, err)
    assert "square-free" in err and stdout == ""


def test_malformed_harmonic_input_is_exit_2(tmp_path, capsys):
    # An index outside the group or a cyclic factor of order below 2 is bad
    # input, from the command line and from a replayed recipe alike.
    import pytest

    from etf_forge.errors import InputError
    from etf_forge.recipes import recipe, replay

    for group, subset, reason in (("4,4", "1,2,3,99", "0..15"), ("4,4", "1,2,-1", "0..15"),
                                  ("4,1", "1,2", ">= 2"), ("", "1", ">= 2")):
        code, stdout, err = run(capsys, "construct", "harmonic", "--group", group, "--subset", subset,
                                "--out", str(tmp_path / "h"))
        _assert_input_error(code, err)
        assert reason in err and stdout == ""
        rec = recipe("harmonic", group=[int(x) for x in group.split(",") if x], subset=[int(x) for x in subset.split(",")])
        with pytest.raises(InputError, match=reason.replace(".", r"\.")):
            replay(rec)


KIRKMAN_8 = {"schema": "etf-forge/recipe/v1", "kind": "kirkman", "inputs": {"u": 8}}  # a pair of 256 vectors

# Recipe values of the right type but outside their range, each refused by
# recipes.replay as InputError with the message fragment given.  The size
# bounds are met before anything of that size is built.
OUT_OF_RANGE_RECIPES = {
    "drop_row_range": ("simplex", {"hadamard": {"generator": "sylvester", "e": 2}, "drop_row": 9},
                       "drop_row must lie in 0..3, got 9"),
    "column_range": ("steiner", {"design": {"generator": "fano"}, "f": {"generator": "dft", "n": 3},
                                 "g": {"generator": "size", "n": 4}, "column": 9}, "column must lie in 1..3, got 9"),
    "branch_value": ("qsd-to-etf", {"design": {"generator": "fano"}, "branch": "sideways"},
                     "branch must be 'plus' or 'minus'"),
    "subset_text": ("harmonic", {"group": [7], "subset": [1, 2, "abc"]}, "are not integers"),
    "subset_missing": ("harmonic", {"group": [7]}, "has no 'subset'"),
    "generator_key_missing": ("simplex", {"hadamard": {"generator": "sylvester"}}, "has no 'e'"),
    "group_order": ("harmonic", {"group": [10 ** 30], "subset": [0, 1]}, "group order"),
    "kirkman_u": ("kirkman", {"u": 10 ** 6}, "Kirkman u"),
    "hadamard_size": ("simplex", {"hadamard": {"generator": "dft", "n": 10 ** 9}}, "Hadamard size"),
    "sylvester_exponent": ("simplex", {"hadamard": {"generator": "sylvester", "e": 10 ** 30}}, "Sylvester exponent"),
    "kronecker_size": ("simplex", {"hadamard": {"generator": "kron", "left": {"generator": "sylvester", "e": 7},
                                                "right": {"generator": "sylvester", "e": 7}}}, "Kronecker size"),
    "paley_prime": ("simplex", {"hadamard": {"generator": "paley", "q": 10 ** 30 + 3}}, "Paley prime"),
    "blocks_v": ("qsd-to-etf", {"design": {"generator": "blocks", "v": 10 ** 30, "blocks": [[1, 2]]}}, "design v"),
    "design_v": ("steiner", {"design": {"generator": "all-pairs", "v": 10 ** 5}, "f": {"generator": "sylvester", "e": 1},
                             "g": {"generator": "size", "n": 4}}, "design v"),
    # 65,536 vectors: this tensor was once built until memory ran out.
    "tensor_vector_count": ("tensor", {"left": KIRKMAN_8, "right": KIRKMAN_8},
                            "tensor vector count must lie in 1..8192, got 65536"),
}


def test_out_of_range_recipe_values_are_input_errors(tmp_path, capsys):
    # Refused at the recipes boundary, so a replayed recipe and the CLI flags
    # that write one both exit 2, never 1 (a failed identity) or a traceback.
    import pytest

    from etf_forge.errors import InputError
    from etf_forge.recipes import recipe, replay

    for name, (kind, inputs, reason) in OUT_OF_RANGE_RECIPES.items():
        with pytest.raises(InputError, match=reason.replace(".", r"\.")):
            replay(recipe(kind, **inputs))
    for argv, reason in (
        (["simplex", "--size", "4", "--drop-row", "9"], "drop_row must lie in 0..3"),
        (["simplex", "--size", "4", "--drop-row", "-1"], "drop_row must lie in 0..3"),
        (["steiner", "--design", "fano", "--column", "9"], "column must lie in 1..3"),
        (["harmonic", "--group", str(10 ** 30), "--subset", "0,1"], "group order"),
        (["harmonic", "--group", "1000,1000", "--subset", "0,1"], "group order"),
        (["simplex", "--size", str(10 ** 9)], "Hadamard size"),
        (["simplex", "--size", str(10 ** 9), "--dft"], "Hadamard size"),
        (["kirkman", "--u", str(10 ** 6)], "Kirkman u"),
        (["steiner", "--design", "round-robin", "--v", str(10 ** 5)], "design v"),
    ):
        code, stdout, err = run(capsys, "construct", *argv, "--out", str(tmp_path / "o"))
        _assert_input_error(code, err)
        assert reason in err and stdout == ""
    assert not (tmp_path / "o").exists()


def _malformed_recipe_files(tmp_path):
    schema = "etf-forge/recipe/v1"
    blocks = {"generator": "blocks", "v": 4, "blocks": [[1, 2], [3, 4], [1, 3], [2, 4], [1, 4], [2, 3]]}
    cases = {
        "array": [1, 2],
        "inputs_array": {"schema": schema, "kind": "kirkman", "inputs": []},
        "u_array": {"schema": schema, "kind": "kirkman", "inputs": {"u": [1]}},
        "subset_number": {"schema": schema, "kind": "harmonic", "inputs": {"group": [7], "subset": 5}},
        "schema": {"schema": "etf-forge/matrix/v1", "kind": "kirkman", "inputs": {"u": 2}},
        "kind": {"schema": schema, "kind": "nope", "inputs": {}},
        "hadamard_generator": {"schema": schema, "kind": "simplex", "inputs": {"hadamard": {"generator": "nope"}}},
        "hadamard_number": {"schema": schema, "kind": "simplex", "inputs": {"hadamard": 4}},
        "design_generator": {"schema": schema, "kind": "qsd-to-etf", "inputs": {"design": {"generator": "nope"}}},
        "zero_vertex": {"schema": schema, "kind": "qsd-to-etf",
                        "inputs": {"design": dict(blocks, blocks=[[0, 2]] + blocks["blocks"][1:])}},
        "repeated_vertex": {"schema": schema, "kind": "qsd-to-etf",
                            "inputs": {"design": dict(blocks, blocks=[[1, 1]] + blocks["blocks"][1:])}},
        "blocks_number": {"schema": schema, "kind": "qsd-to-etf", "inputs": {"design": dict(blocks, blocks=5)}},
        "classes_number": {"schema": schema, "kind": "steiner", "inputs": {
            "design": dict(blocks, parallel_classes=4), "f": {"generator": "sylvester", "e": 1},
            "g": {"generator": "size", "n": 4}}},
        **{name: {"schema": schema, "kind": kind, "inputs": inputs}
           for name, (kind, inputs, _) in OUT_OF_RANGE_RECIPES.items()},
    }
    for name, doc in cases.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return cases


def test_malformed_recipes_exit_2(tmp_path, capsys):
    # Malformed recipe documents are bad input, whether catalog add reads them
    # or construct tensor does; a recipe that is not a pair stays exit 1.
    cat = tmp_path / "cat"
    for name in _malformed_recipe_files(tmp_path):
        code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), "add", str(tmp_path / f"{name}.json"))
        _assert_input_error(code, err)
        assert stdout == ""
    left = tmp_path / "left"
    left.mkdir()
    (left / "recipe.json").write_text("[]")
    code, stdout, err = run(capsys, "construct", "tensor", "--left", str(left), "--right", str(left),
                            "--out", str(tmp_path / "t"))
    _assert_input_error(code, err)
    assert stdout == "" and not (tmp_path / "t").exists()


def test_malformed_recipes_exit_2_in_a_child_process(tmp_path):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    _malformed_recipe_files(tmp_path)
    for name in ("array", "inputs_array", "u_array", "hadamard_number", "classes_number"):
        proc = subprocess.run(
            [sys.executable, "-m", "etf_forge.cli", "catalog", "--catalog", str(tmp_path / "cat"), "add",
             str(tmp_path / f"{name}.json")],
            capture_output=True, text=True, env=env,
        )
        _assert_input_error(proc.returncode, proc.stderr)


def test_pair_design_without_v_is_exit_2(tmp_path, capsys):
    for design in ("all-pairs", "round-robin"):
        code, stdout, err = run(capsys, "construct", "steiner", "--design", design, "--out", str(tmp_path / "s"))
        _assert_input_error(code, err)
        assert "--v is required" in err and stdout == ""


def _verify_bibd_by_json(path):
    """``verify bibd`` as it read its input before it read through ``load``
    with a decoder: the JSON value first, then a design or a matrix from it."""
    from etf_forge.designs import design_from_obj, verify_bibd
    from etf_forge.errors import EtfForgeError, InputError
    from etf_forge.serialize import matrix_from_obj

    try:
        obj = load(path)
        if isinstance(obj, dict) and obj.get("schema") == "etf-forge/design/v1":
            params = design_from_obj(obj).params
        else:
            params = verify_bibd(matrix_from_obj(obj))
    except InputError as exc:
        return 2, "", f"input error: {exc}\n"
    except EtfForgeError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, canonical_json({"v": params.v, "k": params.k, "lambda": params.lam, "r": params.r,
                              "b": params.b, "fisher": params.fisher}), ""


def test_verify_bibd_reads_designs_and_matrices_through_load(tmp_path, capsys, monkeypatch):
    from etf_forge import serialize
    from etf_forge.designs import fano_plane
    from etf_forge.serialize import dump, matrix_to_obj

    design = all_pairs_design(6)
    incidence = design.incidence
    not_a_design = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]  # unequal block sizes: exit 1
    files = {
        "design": canonical_json(design_to_obj(design)),
        "fano_design": canonical_json(design_to_obj(fano_plane())),
        "canonical_incidence": None,
        "spaced_incidence": json.dumps(matrix_to_obj(incidence), indent=1),
        "failing_incidence": json.dumps(dict(matrix_to_obj(incidence), entries=[
            [[0, x, 1]] if x else [] for r in not_a_design for x in r], rows=4, cols=3)),
        "malformed_design": canonical_json(dict(design_to_obj(design), blocks=5)),
        "malformed_matrix": json.dumps(dict(matrix_to_obj(incidence), rows="15")),
        "not_json": "{not json",
    }
    for name, text in files.items():
        if text is None:
            dump(incidence, tmp_path / f"{name}.json")
        else:
            (tmp_path / f"{name}.json").write_text(text)
    general = []
    real = serialize.matrix_from_obj
    monkeypatch.setattr(serialize, "matrix_from_obj", lambda obj: general.append(1) or real(obj))
    for name in files:
        path = tmp_path / f"{name}.json"
        general.clear()
        got = run(capsys, "verify", "bibd", str(path))
        # A canonical integer incidence document is read from its text.
        assert general == ([1] if name in ("spaced_incidence", "failing_incidence", "malformed_matrix") else []), name
        assert got == _verify_bibd_by_json(path), name
        assert got[0] == {"design": 0, "fano_design": 0, "canonical_incidence": 0, "spaced_incidence": 0,
                          "failing_incidence": 1}.get(name, 2), name


def test_design_documents_bound_their_vertex_count(tmp_path, capsys):
    # A design document's v is checked before its incidence matrix is built:
    # 10**30 once overflowed an index and 10**8 allocated for minutes.
    good = design_to_obj(all_pairs_design(6))
    for v in (10 ** 30, 10 ** 8):
        path = tmp_path / f"v{v}.json"
        path.write_text(json.dumps(dict(good, v=v, blocks=[[1, 2]])))
        for argv in (["verify", "qsd", str(path)], ["verify", "bibd", str(path)],
                     ["construct", "qsd-to-etf", "--design", str(path), "--out", str(tmp_path / "o")]):
            code, stdout, err = run(capsys, *argv)
            _assert_input_error(code, err)
            assert f"design v must lie in 1..8192, got {v}" in err and stdout == ""
    assert not (tmp_path / "o").exists()


def test_matrix_documents_bound_their_quadratic_radicand(tmp_path, capsys):
    # A radicand is factored by trial division, so it is bounded before it is
    # factored: the 31-digit one below once kept verify etf busy past 5 s.
    import time

    path = tmp_path / "m.json"
    for radicand in (10 ** 30 + 57, 1 << 40):
        path.write_text(json.dumps({"schema": "etf-forge/matrix/v1", "rows": 1, "cols": 1, "entries": [[1, 1, 0, 1]],
                                    "domain": {"kind": "quadratic", "radicand": radicand}}))
        started = time.monotonic()
        code, stdout, err = run(capsys, "verify", "etf", str(path))
        assert time.monotonic() - started < 1
        _assert_input_error(code, err)
        assert f"domain radicand must be below 2**40, got {radicand}" in err and stdout == ""


def test_matrix_documents_bound_their_cyclotomic_order(tmp_path, capsys):
    # Conjugation and reduction scale with the declared order, not with the
    # document: one entry at order 100,003 once took 0.61 s through verify etf.
    # So an order above MAX_SIDE is refused before anything is allocated; up
    # to it, the planes reach the largest exponent mod the order only.
    import time

    path = tmp_path / "m.json"
    for order, exponents in ((MAX_SIDE + 1, (0,)), (10**9 + 7, (0, 1)), (MAX_SIDE, (0, MAX_SIDE, -3 * MAX_SIDE))):
        for exponent in exponents:
            path.write_text(json.dumps({"schema": "etf-forge/matrix/v1", "rows": 1, "cols": 1,
                                        "entries": [[[exponent, 1, 1]]], "domain": {"kind": "cyclotomic", "order": order}}))
            started = time.monotonic()
            code, stdout, err = run(capsys, "verify", "etf", str(path))
            assert time.monotonic() - started < 1
            if order > MAX_SIDE:
                _assert_input_error(code, err)
                assert f"domain order must be at most {MAX_SIDE}, got {order}" in err and stdout == ""
            else:
                assert (code, err) == (0, "") and json.loads(stdout)["domain"] == {"kind": "cyclotomic", "order": order}


def test_a_design_document_without_blocks_fails_its_identity(tmp_path, capsys):
    # An empty block list is a failed design identity (exit 1); it once raised
    # IndexError while the incidence matrix was built.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(design_to_obj(all_pairs_design(6)), blocks=[])))
    for argv in (["verify", "qsd", str(path)], ["verify", "bibd", str(path)],
                 ["construct", "qsd-to-etf", "--design", str(path), "--out", str(tmp_path / "o")]):
        assert run(capsys, *argv) == (1, "", "error: a design needs at least one block\n")
    assert not (tmp_path / "o").exists()


def test_a_broken_resolution_fails_its_identity(tmp_path, capsys):
    # A design document's parallel classes come from outside the program;
    # each of the three resolution checks is a failed design identity.
    from etf_forge.designs import round_robin_resolution

    good = design_to_obj(round_robin_resolution(4))
    assert good["parallel_classes"] == [[0, 1], [2, 3], [4, 5]]
    path = tmp_path / "design.json"
    for classes, message in (([[0, 1], [2, 3]], "expected 3 parallel classes, got 2"),
                             ([[0, 1], [2, 3], [4, 0]], "parallel classes must partition the block list"),
                             ([[0, 2], [1, 3], [4, 5]], "class (0, 2) does not partition the vertex set")):
        path.write_text(json.dumps(dict(good, parallel_classes=classes)))
        for command in ("qsd", "bibd"):
            assert run(capsys, "verify", command, str(path)) == (1, "", f"error: {message}\n")


def test_verify_hadamard_refuses_a_matrix_that_is_not_square_or_cyclotomic(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix_text(ExactMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1]])))
    assert run(capsys, "verify", "hadamard", str(path)) == (1, "", "error: expected a square matrix, got 2x4\n")
    path.write_text(json.dumps({"schema": "etf-forge/matrix/v1", "rows": 1, "cols": 1, "entries": [[1, 1, 0, 1]],
                                "domain": {"kind": "quadratic", "radicand": 2}}))
    assert run(capsys, "verify", "hadamard", str(path)) == (
        1, "", "error: Hadamard matrices live over cyclotomic domains\n")


def test_harmonic_subsets_repeated_empty_or_full(tmp_path, capsys):
    # A repeated element is bad input, as a repeated vertex in a block is;
    # an empty or full subset is a failed difference-set identity.
    out = str(tmp_path / "h")
    code, stdout, err = run(capsys, "construct", "harmonic", "--group", "2,2,2,2", "--subset", "1,1,2,10,3,15",
                            "--out", out)
    _assert_input_error(code, err)
    assert err == "input error: subset indices must be distinct, got [1, 1, 2, 10, 3, 15]\n" and stdout == ""
    for subset, message in (("", "the subset must be nonempty"), ("0,1,2,3", "the subset must be proper")):
        assert run(capsys, "construct", "harmonic", "--group", "2,2", "--subset", subset, "--out", out) == (
            1, "", f"error: {message}\n")
    assert not (tmp_path / "h").exists()


def test_tensor_refuses_a_weighted_pair(tmp_path, capsys):
    # The Steiner complement carries sqrt(k) row weights.
    steiner, kirkman = str(tmp_path / "st"), str(tmp_path / "k")
    assert run(capsys, "construct", "steiner", "--design", "all-pairs", "--v", "4", "--out", steiner)[0] == 0
    assert run(capsys, "construct", "kirkman", "--u", "2", "--out", kirkman)[0] == 0
    assert run(capsys, "construct", "tensor", "--left", steiner, "--right", kirkman, "--out", str(tmp_path / "t")) == (
        1, "", "error: pair 1: weighted rows are not supported here\n")


def test_bad_input_outside_the_recipes_is_exit_2(tmp_path, capsys):
    # cli.main maps only InputError and OSError (and a replay nested too
    # deeply) to input errors, so every bad input is turned into an
    # InputError where it is read, named by its place.
    code, stdout, err = run(capsys, "construct", "harmonic", "--group", "2,x", "--subset", "0",
                            "--out", str(tmp_path / "h"))
    _assert_input_error(code, err)
    assert "--group must be comma-separated integers, got '2,x'" in err and stdout == ""
    good = {"id": "ab12", "kind": "simplex", "params": {}, "certificates": {}, "created_at": "", "payload": "payloads/ab12"}
    cat = tmp_path / "cat"
    cat.mkdir()
    for line, reason in ((json.dumps({k: v for k, v in good.items() if k != "kind"}), "KeyError('kind')"),
                         ("{not json", "JSONDecodeError("), (json.dumps(list(good)), "TypeError("),
                         ("[" * 100_000, "RecursionError(")):
        (cat / "records.jsonl").write_text(json.dumps(good) + "\n\n" + line + "\n")
        for argv in (["list"], ["show", "ab"], ["audit"]):
            code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), *argv)
            _assert_input_error(code, err)
            assert f"records.jsonl line 3 is not a catalog record: {reason}" in err and stdout == ""


def test_a_value_error_inside_a_verifier_is_not_blamed_on_the_input(tmp_path, capsys, monkeypatch):
    # A fault in the mathematics must surface as a traceback, not as exit 2.
    import pytest

    import etf_forge.frames as frames

    run(capsys, "construct", "simplex", "--size", "4", "--out", str(tmp_path / "s"))

    def broken(frame):
        raise ValueError("a fault inside certify_etf")

    monkeypatch.setattr(frames, "certify_etf", broken)
    with pytest.raises(ValueError, match="a fault inside certify_etf"):
        main(["verify", "etf", str(tmp_path / "s" / "primary.json")])


@pytest.mark.parametrize("raised, code, line", [(MemoryError, 2, "resource error: out of memory\n"),
                                                 (KeyboardInterrupt, 130, "interrupted\n")])
def test_exhausted_memory_and_an_interrupt_exit_with_one_line(raised, code, line, tmp_path, capsys, monkeypatch):
    # Neither says that an identity failed, so neither exits 1, and neither
    # is a traceback.
    import etf_forge.frames as frames

    run(capsys, "construct", "simplex", "--size", "4", "--out", str(tmp_path / "s"))

    def stopped(frame):
        raise raised

    monkeypatch.setattr(frames, "certify_etf", stopped)
    assert run(capsys, "verify", "etf", str(tmp_path / "s" / "primary.json")) == (code, "", line)


def test_documents_nested_too_deeply_exit_2_with_one_line(tmp_path, capsys):
    # The json decoder raises RecursionError, not ValueError, past the
    # recursion limit; each of these once exited 1 with a traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "recipe.json").write_text("[" * 100_000)
    for argv in (["verify", "etf", str(deep)], ["verify", "qsd", str(deep)],
                 ["catalog", "--catalog", str(tmp_path / "cat"), "add", str(deep)],
                 ["construct", "tensor", "--left", str(tmp_path / "d"), "--right", str(tmp_path / "d"),
                  "--out", str(tmp_path / "t")]):
        code, stdout, err = run(capsys, *argv)
        _assert_input_error(code, err)
        assert "is not valid JSON: maximum recursion depth exceeded" in err and stdout == ""
    assert not (tmp_path / "cat").exists() and not (tmp_path / "t").exists()


def test_a_recipe_that_reads_but_nests_too_deeply_to_replay_exits_2_in_a_child_process(tmp_path):
    # 985 nested kron sources parse in a fresh process (the decoder's limit is
    # about 1000 levels), then overflow the stack in hadamard_from_spec.
    import os
    import subprocess
    import sys

    source = '{"generator": "sylvester", "e": 1}'  # as text: json.dumps would overflow here first
    for _ in range(985):
        source = f'{{"generator": "kron", "left": {source}, "right": {{"generator": "sylvester", "e": 0}}}}'
    (tmp_path / "steiner.json").write_text('{"schema": "etf-forge/recipe/v1", "kind": "steiner", "inputs": {'
                                           f'"design": {{"generator": "fano"}}, "f": {source}, '
                                           '"g": {"generator": "size", "n": 4}}}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "etf_forge.cli", "catalog", "--catalog", str(tmp_path / "cat"), "add",
                           str(tmp_path / "steiner.json")], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "input error: a document is nested too deeply\n")


# Entry texts a mutation may put in place of a canonical entry: canonical
# signs and zeros, other integers, non-canonical spellings and non-entries.
FUZZ_ENTRIES = ["[[0,1,1]]", "[[0,-1,1]]", "[]", "[[0,0,1]]", "[[0,2,1]]", "[[0,1,2]]", "[[0,2,2]]", "[[1,1,1]]",
                "[[0,1,0]]", "[[0,-1,1],[0,2,1]]", "[[0,+1,1]]", "[[0,01,1]]", "[[0,1.0,1]]", "[0,1,1]", "1", "null",
                '"1"', "[[]]"]
FUZZ_SHAPES = ["0", "-1", "1", "2", "5", "7", "15", "17", "96", "1000000", "1099511627776", "1.0", '"6"', "true",
               "null", "06", "+6", "[]"]


def _mutated_document(text: str, rows: int, cols: int, rng: random.Random) -> str:
    """``text`` with one seeded edit: an entry, a sign, a separator, rows or cols, a truncation or a duplication."""
    head, _, rest = text.partition('"entries":[')
    body, _, tail = rest.rpartition('],"rows":')
    entries = [json.dumps(e, separators=(",", ":")) for e in json.loads(f"[{body}]")]
    i = rng.randrange(len(entries))
    kind = rng.choice(["entry", "sign", "separator", "shape", "truncate", "duplicate"])
    if kind == "entry":
        entries[i] = rng.choice(FUZZ_ENTRIES)
    elif kind == "sign":
        entries[i] = "[[0,1,1]]" if entries[i] == "[[0,-1,1]]" else "[[0,-1,1]]"
    elif kind == "duplicate" and rng.random() < 0.5:
        entries.insert(i, entries[i])
    text = f'{head}"entries":[{",".join(entries)}],"rows":{tail}'
    if kind == "separator":
        at = rng.choice([j for j, c in enumerate(text) if c in ",:[]{}"])
        return text[:at] + rng.choice(["", ",", ",,", " ", ";", "[", "]", ":"]) + text[at + 1 :]
    if kind == "shape":
        key, value = rng.choice([("cols", cols), ("rows", rows)])
        return text.replace(f'"{key}":{value}', f'"{key}":{rng.choice(FUZZ_SHAPES)}', 1)
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    if kind == "duplicate":
        at = rng.randrange(len(text))
        return text[: at + 1] + text[at - rng.randrange(20) : at + 1] + text[at + 1 :]
    return text


def test_mutated_sign_documents_exit_cleanly_through_verify_etf(tmp_path, capsys):
    # Seeded edits of a +-1 and a {-1, 0, 1} ETF document: every exit code is
    # 0, 1 or 2 with no traceback, and exit 0 only when json and
    # matrix_from_obj read the edited file to a matrix with that certificate.
    steiner = steiner_etf(SteinerInputs(lift_permutation(all_pairs_design(4)), sylvester(1), sylvester(2))).matrix
    rng = random.Random(1515)
    path = tmp_path / "m.json"
    codes = []
    for m in (ExactMatrix.from_rows(FLAT_6x16), steiner):
        text = matrix_text(m)
        for _ in range(100):
            edited = _mutated_document(text, m.rows, m.cols, rng)
            path.write_text(edited)
            code, stdout, err = run(capsys, "verify", "etf", str(path))
            assert code in (0, 1, 2) and "Traceback" not in err, edited
            try:
                parsed = matrix_from_obj(json.loads(edited))
            except (InputError, ValueError):
                parsed = None
            if code == 0:
                assert parsed is not None and json.loads(stdout) == certificate_to_obj(certify_etf(Frame(parsed)))
            else:
                assert stdout == "" and err.count("\n") == 1, edited
            assert (code == 2) == (parsed is None), edited
            codes.append(code)
    assert set(codes) == {0, 1, 2}


def _strict_field_cases():
    """(base recipe, edits) pairs: each edit puts a bad value at one integer field of a recipe that replays.
    A path ends at a scalar field or at one element of a list field; each list field is also edited whole."""
    from etf_forge.designs import round_robin_resolution
    from etf_forge.recipes import recipe

    rr4 = design_to_obj(round_robin_resolution(4))
    blocks = {"generator": "blocks", "v": 4, "blocks": rr4["blocks"], "parallel_classes": rr4["parallel_classes"]}
    sylvester_1, size_4 = {"generator": "sylvester", "e": 1}, {"generator": "size", "n": 4}
    bases = {
        "kirkman": (recipe("kirkman", u=2, e=sylvester_1), [("u",), ("e", "e")]),
        "paley": (recipe("simplex", hadamard={"generator": "paley", "q": 3}, drop_row=1), [("hadamard", "q"), ("drop_row",)]),
        "dft": (recipe("simplex", hadamard={"generator": "dft", "n": 3}), [("hadamard", "n")]),
        "steiner": (recipe("steiner", design={"generator": "all-pairs", "v": 4}, f=sylvester_1, g=size_4, column=1),
                    [("design", "v"), ("g", "n"), ("column",)]),
        "harmonic": (recipe("harmonic", group=[13], subset=[0, 1, 3, 9]), [("group", 0), ("subset", 2)]),
        "blocks": (recipe("steiner", design=blocks, f=sylvester_1, g=size_4),
                   [("design", "v"), ("design", "blocks", 1, 0), ("design", "parallel_classes", 0, 1)]),
    }
    lists = {"harmonic": [("group",), ("subset",)],
             "blocks": [("design", "blocks"), ("design", "blocks", 1), ("design", "parallel_classes"),
                        ("design", "parallel_classes", 0)]}
    for name, (base, paths) in bases.items():
        edits = [(path, bad) for path in paths for bad in (2.5, "2", True)]
        edits += [(path, "123") for path in lists.get(name, [])]
        yield name, base, edits


def test_every_integer_recipe_field_is_strict(tmp_path, capsys):
    # A recipe value is an integer only when its JSON type is: 2.5, "2" and
    # true were once read by int(), and a string of digits as a list of them.
    import copy

    good, cat = tmp_path / "good", tmp_path / "cat"
    for name, base, edits in _strict_field_cases():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(base))
        code, _, err = run(capsys, "catalog", "--catalog", str(good), "add", str(path))
        assert code == 0, (name, err)
        for keys, bad in edits:
            doc = copy.deepcopy(base)
            parent = doc["inputs"]
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = bad
            path.write_text(json.dumps(doc))
            code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), "add", str(path))
            _assert_input_error(code, err)
            assert stdout == "" and ("not an integer" in err or "are not integers" in err), (name, keys, bad, err)
    assert not (cat / "records.jsonl").exists()


def test_malformed_pair_documents_are_exit_2(tmp_path, capsys):
    # pair.json is read whole, by type, before the pair is verified: these
    # once exited 1 as failed identities, or 0 for weights written [true, 1].
    out = tmp_path / "pair"
    run(capsys, "construct", "steiner", "--design", "all-pairs", "--v", "4", "--out", str(out))
    good = load(out / "pair.json")
    weights = good["complement_row_weights"]
    cases = {
        "n_missing": ({k: v for k, v in good.items() if k != "n"}, "pair.json has no 'n'"),
        "alpha_text": (dict(good, alpha="abc"), "pair.json alpha 'abc' are not integers"),
        "alpha_den": (dict(good, alpha=[8, 0]), "den > 0"),
        "d_float": (dict(good, d=1.5), "pair.json d and n [1.5, 16] are not integers"),
        "weights_short": (dict(good, complement_row_weights=weights[1:]), "has 9 complement_row_weights for 10"),
        "weight_negative": (dict(good, complement_row_weights=[[-1, 1]] + weights[1:]), "num > 0 and den > 0"),
        "weight_true": (dict(good, complement_row_weights=[[True, 1]] * len(weights)), "are not integers"),
        "weight_triple": (dict(good, complement_row_weights=[[1, 1, 1]] + weights[1:]), "[num, den] pairs"),
    }
    for name, (doc, reason) in cases.items():
        (out / "pair.json").write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "verify", "naimark-pair", str(out))
        _assert_input_error(code, err)
        assert reason in err and stdout == "", (name, err)
    (out / "pair.json").write_text(json.dumps(good))
    assert run(capsys, "verify", "naimark-pair", str(out))[0] == 0


def test_catalog_records_of_the_wrong_type_are_exit_2(tmp_path, capsys):
    # Every records.jsonl field has its JSON type; a payload of 5 once raised
    # TypeError in audit, and an id of 7 AttributeError in show.
    cat = tmp_path / "cat"
    recipe_path = tmp_path / "kirkman.json"
    recipe_path.write_text(json.dumps({"schema": "etf-forge/recipe/v1", "kind": "kirkman", "inputs": {"u": 2}}))
    assert run(capsys, "catalog", "--catalog", str(cat), "add", str(recipe_path))[0] == 0
    good = json.loads((cat / "records.jsonl").read_text())
    for field, bad in (("payload", 5), ("id", 7), ("kind", None), ("created_at", []), ("params", []),
                       ("certificates", "primary")):
        (cat / "records.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: bad})) + "\n")
        for argv in (["list"], ["show", good["id"][:8]], ["audit"]):
            code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), *argv)
            _assert_input_error(code, err)
            assert f"records.jsonl line 2 is not a catalog record: TypeError(\"fields ['{field}']" in err, err
            assert stdout == ""
    # A payload is payloads/<id>, where add puts it: a NUL once raised ValueError
    # from open, and an absolute or ../ path was followed out of the catalog.
    rid = good["id"]
    for field, bad in (("payload", {"payload": "a\0b"}), ("payload", {"payload": "/etc"}),
                       ("payload", {"payload": f"../{rid}"}), ("payload", {"payload": f"payloads/../{rid}"}),
                       ("id", {"id": "../x", "payload": "payloads/../x"}), ("id", {"id": "a\0b", "payload": "payloads/a\0b"})):
        (cat / "records.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **bad)) + "\n")
        reason = repr(ValueError(f"{field} {bad[field]!r} is not"))[:-2]
        for argv in (["list"], ["show", rid[:8]], ["audit"]):
            code, stdout, err = run(capsys, "catalog", "--catalog", str(cat), *argv)
            _assert_input_error(code, err)
            assert f"records.jsonl line 2 is not a catalog record: {reason}" in err, err
            assert stdout == ""


# Values a mutation may put at a node of a recipe, pair or record document:
# JSON values of every type, small integers that keep the replays cheap, and
# strings a lenient reader would take for numbers.
FUZZ_VALUES = [2.5, "2", "12", True, None, -1, 0, 1, 2, 3, 4, 10 ** 30, [], [2], [[1, 1]], {}, "plus"]


def _mutated(doc, rng: random.Random, top: bool = False):
    """A copy of a JSON document with one seeded edit at a random node (with ``top``, a child of the
    root): the node replaced, deleted or duplicated in its list, a key added to it, or the whole
    document replaced."""
    doc = json.loads(json.dumps(doc))
    nodes = []  # (container, key) of every value below the root

    def walk(x):
        for key, value in x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ():
            nodes.append((x, key))
            if not top:
                walk(value)
    walk(doc)
    if rng.random() < 0.03:
        return rng.choice(FUZZ_VALUES)
    container, key = rng.choice(nodes)
    edit = rng.choice(["replace", "replace", "replace", "delete", "duplicate", "add"])
    if edit == "replace":
        container[key] = rng.choice(FUZZ_VALUES)
    elif edit == "delete":
        del container[key]
    elif edit == "duplicate" and isinstance(container, list):
        container.insert(key, container[key])
    elif isinstance(container[key], dict):
        container[key]["extra"] = rng.choice(FUZZ_VALUES)
    return doc


def _is_int(x, low=float("-inf"), high=float("inf")):
    return type(x) is int and low <= x <= high


def _is_ints(x):
    return type(x) is list and all(type(i) is int for i in x)


def _hadamard_source_is_malformed(spec) -> bool:
    if not isinstance(spec, dict):
        return True
    if spec.get("generator") == "sylvester":
        return not _is_int(spec.get("e"), 0, 13)
    return spec.get("generator") != "size" or not _is_int(spec.get("n"), 1, 8192)


def _recipe_is_malformed(doc) -> bool:
    """The recipe rules, restated for the fuzzed kirkman, harmonic and all-pairs steiner recipes: a
    type, a missing key or a value out of its range.  Failed identities are not malformed."""
    if not isinstance(doc, dict) or doc.get("schema") != "etf-forge/recipe/v1":
        return True
    inputs, kind = doc.get("inputs", {}), doc.get("kind")
    if not isinstance(inputs, dict):
        return True
    if kind == "kirkman":
        return not _is_int(inputs.get("u"), 2, 45)
    if kind == "harmonic":
        group, subset = inputs.get("group"), inputs.get("subset")
        if not (_is_ints(group) and _is_ints(subset) and group and min(group) >= 2):
            return True
        size = math.prod(group)
        return not (size <= 8192 and all(0 <= i < size for i in subset) and len(set(subset)) == len(subset))
    if kind == "steiner":
        design = inputs.get("design")
        if not isinstance(design, dict) or design.get("generator") != "all-pairs" or not _is_int(design.get("v"), 3, 90):
            return True
        return (_hadamard_source_is_malformed(inputs.get("f")) or _hadamard_source_is_malformed(inputs.get("g"))
                or not _is_int(inputs.get("column", 1), 1, 2))
    return True


def _pair_is_malformed(doc, rows: int) -> bool:
    """The pair document rules: integer d and n, alpha [num, den] with den > 0, and one positive
    [num, den] weight per complement row if weights are given."""
    def fraction(p, positive=False):
        return _is_ints(p) and len(p) == 2 and p[1] > 0 and (p[0] > 0 or not positive)

    if not isinstance(doc, dict) or doc.get("schema") != "etf-forge/pair/v1":
        return True
    if not (_is_int(doc.get("d")) and _is_int(doc.get("n")) and fraction(doc.get("alpha"))):
        return True
    weights = doc.get("complement_row_weights", [[1, 1]] * rows)
    return not (type(weights) is list and len(weights) == rows and all(fraction(w, True) for w in weights))


def _record_is_malformed(line: str) -> bool:
    """The records.jsonl rules: a JSON object with string id, kind, created_at and payload, and
    object params and certificates; the id ASCII letters and digits, the payload payloads/<id>.
    A blank line is skipped."""
    if not line.strip():
        return False
    try:
        obj = json.loads(line)
    except ValueError:
        return True
    types = {"id": str, "kind": str, "params": dict, "certificates": dict, "created_at": str, "payload": str}
    if not isinstance(obj, dict) or any(type(obj.get(key)) is not kind for key, kind in types.items()):
        return True
    return not (obj["id"].isascii() and obj["id"].isalnum()) or obj["payload"] != f"payloads/{obj['id']}"


def _clean_run(capsys, doc, *argv):
    """(code, stdout, stderr) of one CLI run: an exception out of main fails the test, naming the document."""
    try:
        code, stdout, err = run(capsys, *argv)
    except Exception as exc:  # a traceback
        pytest.fail(f"{argv} raised {exc!r} on {doc!r}")
    assert code in (0, 1, 2) and "Traceback" not in err and err.count("\n") <= 1, (doc, err)
    if code == 2:
        assert stdout == "" and err.startswith("input error: "), (doc, stdout, err)
    return code, stdout, err


@pytest.fixture(scope="module")
def fuzzed_artifacts(tmp_path_factory):
    """The Z13 harmonic, Steiner v=4 and Kirkman u=2 artifact directories."""
    root = tmp_path_factory.mktemp("artifacts")
    for name, argv in (("harmonic", ["harmonic", "--group", "13", "--subset", "0,1,3,9"]),
                       ("steiner", ["steiner", "--design", "all-pairs", "--v", "4"]),
                       ("kirkman", ["kirkman", "--u", "2"])):
        assert main(["construct", *argv, "--out", str(root / name)]) == 0
    return root


def test_mutated_recipes_exit_cleanly_through_catalog_add(fuzzed_artifacts, tmp_path, capsys):
    # Exit 2 exactly when the recipe rules refuse the edited recipe, and then
    # no record is written; exit 0 records the edited recipe under its id.
    from etf_forge.catalog import recipe_id

    rng = random.Random(1601)
    cat, path = tmp_path / "cat", tmp_path / "recipe.json"
    records = cat / "records.jsonl"
    codes = []
    for name in ("harmonic", "steiner", "kirkman"):
        base = load(fuzzed_artifacts / name / "recipe.json")
        for _ in range(80):
            doc = _mutated(base, rng)
            path.write_text(json.dumps(doc))
            before = records.read_text() if records.exists() else ""
            code, stdout, err = _clean_run(capsys, doc, "catalog", "--catalog", str(cat), "add", str(path))
            assert (code == 2) == _recipe_is_malformed(doc), (doc, err)
            if code == 0:
                assert json.loads(stdout)["id"] == recipe_id(doc)
            elif code == 2:
                assert (records.read_text() if records.exists() else "") == before, doc
            codes.append(code)
    assert set(codes) == {0, 1, 2}


def test_mutated_pair_documents_exit_cleanly_through_verify_naimark_pair(fuzzed_artifacts, tmp_path, capsys):
    # Exit 2 exactly when the pair document rules refuse the edited pair.json;
    # exit 0 only when it declares the verified d, n and alpha.
    import shutil

    rng = random.Random(1602)
    codes = []
    for name in ("harmonic", "steiner", "kirkman"):
        out = tmp_path / name
        shutil.copytree(fuzzed_artifacts / name, out)
        base = load(out / "pair.json")
        rows = load(out / "complement.json")["rows"]
        for _ in range(60):
            doc = _mutated(base, rng)
            (out / "pair.json").write_text(json.dumps(doc))
            code, stdout, err = _clean_run(capsys, doc, "verify", "naimark-pair", str(out))
            assert (code == 2) == _pair_is_malformed(doc, rows), (doc, err)
            if code == 0:
                assert json.loads(stdout) == {"alpha": doc["alpha"], "d": doc["d"], "n": doc["n"], "verified": True}
            codes.append(code)
    assert set(codes) == {0, 1, 2}


def test_mutated_catalog_records_exit_cleanly_through_list_show_and_audit(fuzzed_artifacts, tmp_path, capsys):
    # One records.jsonl line edited (or truncated): list, show and audit exit 2
    # exactly when the line is not a record, show also when its id prefix
    # finds no single record or that record's recipe file is missing;
    # otherwise audit exits 0 or 1.
    rng = random.Random(1603)
    cat = tmp_path / "cat"
    for name in ("harmonic", "steiner", "kirkman"):
        assert run(capsys, "catalog", "--catalog", str(cat), "add", str(fuzzed_artifacts / name / "recipe.json"))[0] == 0
    lines = (cat / "records.jsonl").read_text().splitlines()
    codes = []
    for _ in range(60):
        i = rng.randrange(len(lines))
        if rng.random() < 0.15:
            edited = lines[i][: rng.randrange(1, len(lines[i]))]
        else:
            edited = json.dumps(_mutated(json.loads(lines[i]), rng, top=rng.random() < 0.5))
        (cat / "records.jsonl").write_text("\n".join(lines[:i] + [edited] + lines[i + 1 :]) + "\n")
        malformed = _record_is_malformed(edited)
        prefix = json.loads(lines[i])["id"][:12]
        found = [] if malformed else [r for x in lines[:i] + [edited] + lines[i + 1 :] if x.strip()
                                      for r in [json.loads(x)] if r["id"].startswith(prefix)]
        shown = len(found) == 1 and (cat / found[0]["payload"] / "recipe.json").is_file()
        for argv in (["list"], ["show", prefix], ["audit"]):
            code, _, err = _clean_run(capsys, edited, "catalog", "--catalog", str(cat), *argv)
            refused = malformed or argv[0] == "show" and not shown
            assert (code == 2) == refused, (argv, edited, err)
            assert code != 1 or argv == ["audit"]
            codes.append(code)
    assert set(codes) == {0, 1, 2}


def _design_is_malformed(doc) -> bool:
    """The design document rules of ``design_from_obj`` and ``design_from_fields``: the schema; integer
    v, k, lambda, r and b, with v in 1..8192; blocks a list of integer lists whose labels lie in 1..v
    without a repeat; parallel classes, unless absent or null, a list of integer lists.  Failed design
    identities are not malformed."""
    if not isinstance(doc, dict) or doc.get("schema") != "etf-forge/design/v1":
        return True
    if not all(_is_int(doc.get(key)) for key in ("v", "k", "lambda", "r", "b")) or not _is_int(doc["v"], 1, 8192):
        return True
    blocks, classes = doc.get("blocks"), doc.get("parallel_classes")
    if type(blocks) is not list or not all(_is_ints(block) and len(set(block)) == len(block)
                                           and all(1 <= x <= doc["v"] for x in block) for block in blocks):
        return True
    return classes is not None and not (type(classes) is list and all(_is_ints(c) for c in classes))


def test_mutated_design_documents_exit_cleanly_through_verify_and_qsd_to_etf(tmp_path, capsys):
    # The Steiner triple system of PG(3, 2) and the QSD of the Kirkman u=2
    # primary (given its round-robin resolution), each edited once: verify qsd,
    # verify bibd and construct qsd-to-etf exit 2 exactly when the design
    # document rules refuse the edited document.
    from etf_forge.constructions import kirkman_etf, standard_kirkman_inputs
    from etf_forge.designs import Design, round_robin_resolution
    from etf_forge.qsd_bridge import qsd_from_flat_etf

    lines = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(1, 16) if a < b})
    kirkman = qsd_from_flat_etf(kirkman_etf(standard_kirkman_inputs(2)).primary).certificate.design
    index = {frozenset(block): i for i, block in enumerate(kirkman.blocks)}
    rr = round_robin_resolution(6)
    classes = [[index[frozenset(rr.blocks[i])] for i in c] for c in rr.parallel_classes]
    bases = [design_to_obj(Design(15, [[x - 1 for x in line] for line in lines])),
             design_to_obj(Design(6, kirkman.blocks, classes))]
    rng = random.Random(1701)
    path, codes = tmp_path / "design.json", []
    for base in bases:
        for _ in range(100):
            doc = _mutated(base, rng)
            path.write_text(json.dumps(doc))
            for argv in (["verify", "qsd", str(path)], ["verify", "bibd", str(path)],
                         ["construct", "qsd-to-etf", "--design", str(path), "--branch", rng.choice(["plus", "minus"]),
                          "--out", str(tmp_path / "out")]):
                code, _, err = _clean_run(capsys, doc, *argv)
                assert (code == 2) == _design_is_malformed(doc), (argv, doc, err)
                codes.append(code)
    assert set(codes) == {0, 1, 2}
