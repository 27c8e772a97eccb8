"""Self-tests of the benchmark harness: statistics, gate, inputs, tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_harness.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import self_times, summarize  # noqa: E402
from workloads import Op, certificate, construct, cyclo, pin_failures, verify_etf  # noqa: E402

HARMONIC16 = ["harmonic", "--group", "2,2,2,2", "--subset", "1,5,2,10,3,15"]
CERT16 = certificate(6, 16, 6, cyclo(1), True)


def harmonic16(primary=CERT16):
    return construct("harmonic", HARMONIC16, "h", primary, certificate(10, 16, 10, cyclo(1), True))


def test_median_and_tail_on_known_samples():
    values = list(range(21, 0, -1))
    assert run.median(values) == 11
    percentile, value = run.tail(values)
    assert value == 11  # exactly ten samples (12..21) lie beyond it
    assert percentile == pytest.approx(100 * 11 / 21)
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (pytest.approx(100 / 11), 0)
    assert run.median([5.0, 1.0, 3.0, 2.0]) == 2.5


def test_expected_certificates_follow_the_closed_forms():
    cert = certificate(276, 576, 276, cyclo(1), True)
    assert cert["alpha"] == [576, 1] and cert["gamma_sq"] == [144, 1]
    assert certificate(28, 64, 7, cyclo(8), False)["gamma_sq"] == [1, 1]
    assert certificate(15, 36, 15, {"kind": "quadratic", "radicand": 6}, False)["gamma_sq"] == [9, 1]


def test_benchmark_json_registers_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_seeded_transforms_keep_the_structures():
    orders, subset = inputs.DIFFERENCE_SETS["harmonic4x4"]
    rng = random.Random(7)
    moved = inputs.translate(orders, subset, rng)

    def diffs(elements):
        counts = {}
        for a in elements:
            for b in elements:
                if a != b:
                    da = [a // 4, a % 4]
                    db = [b // 4, b % 4]
                    key = tuple((x - y) % 4 for x, y in zip(da, db))
                    counts[key] = counts.get(key, 0) + 1
        return sorted(counts.values())

    assert diffs(moved) == diffs(subset) == [2] * 15
    design = inputs.design_obj(15, inputs.pg32_lines())
    relabelled = inputs.relabel(design, rng)
    assert {k: relabelled[k] for k in ("v", "k", "lambda", "r", "b")} == \
        {"v": 15, "k": 3, "lambda": 1, "r": 7, "b": 35}
    assert relabelled["blocks"] != design["blocks"]


def test_pin_mismatch_fails_the_writing_op():
    ops = [harmonic16(),
           Op("catalog", ["catalog", "add", "h/recipe.json"], recipe="h/recipe.json", params={})]
    pins = {"h/primary.json": "a", "catalog/payloads/x/recipe.json": "b"}
    written = {"h/primary.json": "z", "catalog/payloads/x/recipe.json": "b", "h/extra.json": "c"}
    bad = pin_failures(ops, written, pins)
    assert sorted(bad) == [0]
    assert bad[0] == ["h/extra.json: unpinned", "h/primary.json: differs"]


def _flip_one_entry(path: Path, out: Path) -> None:
    doc = json.loads(path.read_text())
    doc["entries"][1] = [[e, -num, den] for e, num, den in doc["entries"][1]]
    out.write_text(json.dumps(doc))


@pytest.mark.parametrize("mode", ["cli", "traced"])
def test_sign_flipped_matrix_is_a_failed_op(tmp_path, mode):
    made = run.run_pass([harmonic16()], "cli", tmp_path / "make", 1, "self-test", {})
    assert [op.problems for op in made.ops] == [[]]
    work = tmp_path / "work"
    (work / "inputs").mkdir(parents=True)
    shutil.copy(tmp_path / "make" / "pass" / "h" / "primary.json", work / "inputs" / "good.json")
    _flip_one_entry(work / "inputs" / "good.json", work / "inputs" / "flipped.json")

    ops = [verify_etf("../inputs/good.json", CERT16), verify_etf("../inputs/flipped.json", CERT16)]
    result = run.run_pass(ops, mode, work, 1, "self-test", {})
    assert run.report_failures([result]) == (2, 1)
    assert result.ops[0].problems == []
    assert result.ops[1].problems


def test_wrong_certificate_with_exit_zero_is_a_failed_op(tmp_path):
    wrong = certificate(6, 16, 6, cyclo(4), True)
    result = run.run_pass([harmonic16(wrong)], "cli", tmp_path, 1, "self-test", {})
    assert result.ops[0].exit == 0
    assert run.report_failures([result]) == (1, 1)


def test_traced_op_rebinds_imported_names(tmp_path):
    """``frames`` imports matmul by name; its Gram products must be spans."""
    subprocess.run([sys.executable, "-m", "etf_forge.cli", "construct", *HARMONIC16,
                    "--out", str(tmp_path / "h")], check=True, capture_output=True,
                   env=run.child_env())
    result = tmp_path / "r.json"
    subprocess.run([sys.executable, str(BENCH / "inproc.py"), "--result", str(result), "--trace",
                    "--", "verify", "etf", str(tmp_path / "h" / "primary.json")],
                   check=True, env=run.child_env())
    doc = json.loads(result.read_text())
    spans = doc["spans"]
    names = [s[0] for s in spans]
    assert doc["exit"] == 0 and names[0] == "cli.main"
    assert any(s[0] == "matrices.matmul" and names[s[3]] == "frames.gram" for s in spans)
    assert all(own >= 0 for own in self_times(spans))
    totals = summarize(spans)
    assert totals["serialize.bytes_read"] == (tmp_path / "h" / "primary.json").stat().st_size
    assert totals["matrices.matmul.madds"] > 0
