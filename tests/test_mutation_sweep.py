from pathlib import Path

from mutation_sweep import MODULES, guard, guards, mutant, run_tests, suite

TESTS = Path(__file__).resolve().parent


def test_every_guard_is_found_and_made_false():
    found = [g for module in MODULES for g in guards(module)]
    assert len(found) > 100 and len(set(found)) == len(found)
    square = guard("hadamard", "verify_hadamard", "m.rows != m.cols")
    source = (TESTS.parent / "src" / "etf_forge" / "hadamard.py").read_text()
    changed = [line for line in mutant(source, square).splitlines() if line not in source.splitlines()]
    assert changed == ["    if False:"]
    files = suite("hadamard")
    assert files[0].name == "test_hadamard.py" and sorted(files) == sorted(TESTS.glob("test_*.py"))


def test_the_sweep_kills_a_pinned_guard_and_spares_an_equivalent_one():
    # The square guard is pinned by a CLI test.  The Gram G is Hermitian, so
    # s I - c G is self-adjoint and gram_to_hadamard's check cannot fire.
    square = guard("hadamard", "verify_hadamard", "m.rows != m.cols")
    self_adjoint = guard("frames", "gram_to_hadamard", "h != h.adjoint()")
    named = TESTS / "test_cli.py::test_verify_hadamard_refuses_a_matrix_that_is_not_square_or_cyclotomic"
    assert run_tests(square, [named])[0]
    assert not run_tests(self_adjoint, [TESTS / "test_frames.py::test_gram_to_hadamard_flat_6x16"])[0]
