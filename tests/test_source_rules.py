"""Rules the package source keeps, checked by reading it."""

import ast
from pathlib import Path

import etf_forge

PACKAGE = Path(etf_forge.__file__).parent


def test_no_assert_guards_mathematics():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verifiers_and_io_stay_on_the_planes():
    # The verifiers and the JSON reader and writer read matrices through their
    # integer planes; per-entry scalar scans and scalar parsing stay out.
    found = []
    for name in ("frames.py", "hadamard.py", "serialize.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "squared_modulus", "from_terms"):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in ("squared_modulus", "from_terms"):
                found.append(f"{name}:{node.lineno} {node.id}")
    assert found == []


def test_constructions_write_planes():
    # The Hadamard and QSD constructions write their integer planes directly;
    # building one root of unity or one scalar per entry and lowering it
    # again is the per-entry path they replaced.  from_rows of plain ints stays.
    found = []
    for name in ("hadamard.py", "qsd_bridge.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if called in ("root", "from_entries"):
                    found.append(f"{name}:{node.lineno} {called}(")
    assert found == []


def test_matrices_carry_no_provenance():
    # matmul chooses its route from the operands' values alone; a slot that
    # records how a matrix was built would let two equal matrices multiply
    # by different routes.
    path = PACKAGE / "matrices.py"
    slots = [ast.literal_eval(node.value) for cls in ast.parse(path.read_text(), str(path)).body
             if isinstance(cls, ast.ClassDef) and cls.name == "ExactMatrix" for node in cls.body
             if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__slots__"]]
    assert [set(s) for s in slots] == [{"domain", "rows", "cols", "den", "planes"}]


def test_row_products_go_through_the_triangle():
    # m m* is Hermitian, so row_product_triangle reads it as one triangle,
    # from m's own rows when they are {-1, 0, 1}; a verifier that spells it
    # matmul(m, m.adjoint()) builds the adjoint and mirrors a triangle it
    # reads only half of.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and len(node.args) == 2):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            x, y = node.args
            if (name == "matmul" and isinstance(y, ast.Call) and not y.args and isinstance(y.func, ast.Attribute)
                    and y.func.attr == "adjoint" and ast.dump(y.func.value) == ast.dump(x)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_verify_hadamard_makes_a_hadamard_matrix():
    # Every HadamardMatrix has passed H H* = n I; a construction that built
    # one from rows it had not verified (the character table's, say) would not.
    def called(node):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    found, inside = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if path.name == "hadamard.py" and isinstance(node, ast.FunctionDef) and node.name == "verify_hadamard":
                inside = sum(isinstance(n, ast.Call) and called(n) == "HadamardMatrix" for n in ast.walk(node))
                node.body = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called(node) == "HadamardMatrix":
                found.append(f"{path.name}:{node.lineno}")
    assert found == [] and inside == 2


def test_only_matrices_builds_a_distinct_entry_table():
    # A table of distinct entries (a dict filled by setdefault) is built by
    # matrices.distinct_entries and per_entry; a construction that kept its
    # own would lay entries out a second way.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "setdefault":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_dataclasses_import():
    # Loading `dataclasses` and generating each class's methods cost every CLI
    # child tens of milliseconds; value classes derive from `value.Value`.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_matrix_documents_are_read_with_load_matrix():
    # load_matrix keeps the collector paused until the decoded tree is freed;
    # matrix_from_obj(load(...)) re-enables it while the tree is still alive,
    # and the next collection walks every list of it for nothing.
    def called(node):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "load_matrix":
                node.body = []  # the one place that spells it
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and called(node) == "matrix_from_obj" and node.args
                    and isinstance(node.args[0], ast.Call) and called(node.args[0]) == "load"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_matrices_build_scalars_only_through_element():
    # A scalar holds one matrix entry's form, so matrices builds scalars from
    # the planes with scalars.element alone; a scalar class imported there
    # would be a second way to build or lower an entry.
    path = PACKAGE / "matrices.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
        names += [node.id] if isinstance(node, ast.Name) else [node.attr] if isinstance(node, ast.Attribute) else []
        found += [f"matrices.py:{node.lineno} {n}" for n in names if n in ("CycloElem", "QuadElem")]
    assert found == []


def test_function_local_imports_defer_a_module():
    # An import inside a function defers loading a module until it is needed;
    # one of a module the file already imports at the top defers nothing.
    def modules(node):
        if isinstance(node, ast.ImportFrom):
            return [("." * node.level) + (node.module or "")]
        return [a.name for a in node.names] if isinstance(node, ast.Import) else []

    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = {m for node in tree.body for m in modules(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno} {m}" for inner in ast.walk(node) for m in modules(inner) if m in top]
    assert found == []


def test_serialize_opens_files_only_in_load_and_dump():
    # Every document is read by load and written by dump, the two functions
    # whose path argument the benchmark's byte counts read; a reader that
    # opened a file itself would read bytes no count sees.
    path = PACKAGE / "serialize.py"
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("load", "dump"):
            node.body = []
    found = [f"serialize.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    assert found == []


def test_recipes_read_json_values_through_serialize():
    # serialize.json_ints is the one reader of JSON integers.  A recipe value
    # read by int() took 2.5, "2" and true as integers and "2222" as a list;
    # a dict subclass here would be a second rule for a missing key.
    path = PACKAGE / "recipes.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int":
            found.append(f"recipes.py:{node.lineno} int(")
        elif isinstance(node, ast.ClassDef) and "dict" in [ast.unparse(b) for b in node.bases]:
            found.append(f"recipes.py:{node.lineno} class {node.name}(dict)")
    assert found == []


def test_only_the_process_entry_freezes_the_heap():
    # gc.freeze takes every live object out of the collector's reach for the
    # rest of the process, so only cli.run, the process entry, may call it;
    # main and the library leave an in-process caller's collector alone.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(inner): node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "freeze" and ast.unparse(node.value) == "gc"
                    or isinstance(node, ast.ImportFrom) and node.module == "gc" and "freeze" in [a.name for a in node.names]):
                found.append(f"{path.name}:{owner.get(id(node))}")
    assert found == ["cli.py:run"]


def test_both_ways_to_start_the_program_call_cli_run():
    # `python -m etf_forge.cli` and the etf-forge console script start the
    # same way, so both freeze the start-up heap.
    path = PACKAGE / "cli.py"
    blocks = [ast.unparse(node.body) for node in ast.parse(path.read_text(), str(path)).body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert blocks == ["run()"]
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["etf-forge", "=", '"etf_forge.cli:run"']


def test_frames_cache_only_their_certificate():
    # A cached Gram matrix outlived every certificate read from it, through
    # the pair check and the writes after it; a frame keeps its matrix, its
    # row weights and its certificate.
    path = PACKAGE / "frames.py"
    fields = [node.target.id for cls in ast.parse(path.read_text(), str(path)).body
              if isinstance(cls, ast.ClassDef) and cls.name == "Frame" for node in cls.body
              if isinstance(node, ast.AnnAssign)]
    assert fields == ["matrix", "row_weights", "_certificate"]


def test_the_matrix_reader_never_encodes_the_document():
    # load_matrix reads a file's bytes once; decoding them to text and
    # encoding the text back held two more copies of the document.
    path = PACKAGE / "serialize.py"
    readers = [node for node in ast.parse(path.read_text(), str(path)).body
               if isinstance(node, ast.FunctionDef) and node.name in ("_sign_matrix", "_decode_matrix")]
    found = [f"serialize.py:{node.lineno} {reader.name}" for reader in readers for node in ast.walk(reader)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "encode"]
    assert len(readers) == 2 and found == []


def test_serialize_imports_only_the_layers_below_documents():
    # serialize is the document layer: the objects its documents describe
    # (designs, frames, pairs, feasibility reports) import it, not the other
    # way, so loading it loads no verifier or construction.
    path = PACKAGE / "serialize.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found |= {n for n in names if n.split(".")[0] == "etf_forge"}
    assert found == {"errors", "matrices", "scalars"}


def test_the_cli_dispatches_only_through_its_table():
    # Each subcommand's handler is its COMMANDS entry, handed back by argparse
    # as args.run; a test of args.cmd or args.<group>_cmd is a second dispatch
    # that a new subcommand would have to be added to.
    path = PACKAGE / "cli.py"
    found = [f"cli.py:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Compare) for side in (node.left, *node.comparators)
             if isinstance(side, ast.Attribute) and ast.unparse(side.value) == "args"
             and (side.attr == "cmd" or side.attr.endswith("_cmd"))]
    assert found == []


def test_the_qsd_path_checks_and_builds_a_row_at_a_time():
    # The 0/1 and +/-1 checks, the row sums, the signing and the block
    # extraction on the flat-frame <-> QSD path work on whole rows: set unions,
    # map, zip and compress.  A comprehension whose second `for` walks the row
    # its first one bound is the per-entry scan they replaced.
    functions = {"matrices.py": ("from_rows", "from_entries"), "serialize.py": ("json_ints",),
                 "designs.py": ("verify_bibd", "from_incidence", "lift_permutation", "verify_srg"),
                 "qsd_bridge.py": ("canonical_sign", "qsd_from_flat_etf")}
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found, seen = [], set()
    for name, wanted in functions.items():
        path = PACKAGE / name
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(func, ast.FunctionDef) and func.name in wanted):
                continue
            seen.add(func.name)
            for node in ast.walk(func):
                if not isinstance(node, comprehensions):
                    continue
                bound = set()
                for gen in node.generators:
                    if {n.id for n in ast.walk(gen.iter) if isinstance(n, ast.Name)} & bound:
                        found.append(f"{name}:{node.lineno} {func.name}")
                    bound |= {n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
    assert seen == {f for names in functions.values() for f in names}
    assert found == []
