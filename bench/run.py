#!/usr/bin/env python3
"""etf-forge benchmark: real CLI invocations on three seeded workloads.

    python3 bench/run.py --workload flat-integer --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is not installed, so every op
is ``python -m etf_forge.cli`` with ``PYTHONPATH=src``, the same code path as
the ``etf-forge`` console script.  Everything the run writes goes under
``.bench_work/`` in the checkout.

Load model: one client in a closed loop.  A pass runs the workload's ops one
child process at a time, in a fixed order, against a fresh pass directory
and a fresh, empty catalog.  Passes repeat until the next one would end
after ``--seconds``; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one pass twice -- in-process untraced, then in-process
traced -- plus the scalar micro-ops, and reports the per-layer metrics.  Every op of every pass goes through the correctness gate
in ``workloads.py``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import summarize  # noqa: E402
from workloads import KINDS, WORKLOADS, check_op, pin_failures, workload_ops, written_files  # noqa: E402

WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"
PINNED_SEED = 0
SETUP_REPEATS = 3

# The machine this benchmark was built on changes speed by 10-25% over
# seconds to minutes (a fixed pure-Python loop shows it too), which swamps
# the differences a change should show.  A fixed child doing the program's
# kind of work -- Fraction products and object churn, no etf_forge code --
# runs before every op and after the last; each op's time is scaled by how
# fast the reference ran around it, relative to NOMINAL_REFERENCE_S.  The
# raw timings are printed too.
REFERENCE = """
from fractions import Fraction
n = 24
a = [[Fraction(7 * i + j, j + 3) for j in range(n)] for i in range(n)]
c = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
"""
NOMINAL_REFERENCE_S = 0.1

# name -> unit; the order is the order of the result's metrics.
END_TO_END = {
    "pass_s": "s", "construct_s": "s", "verify_s": "s", "catalog_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "matrices.matmul.self_s.rational": "s",
    "matrices.matmul.self_s.cyclotomic": "s",
    "matrices.matmul.self_s.quadratic": "s",
    "matrices.matmul.calls": "count",
    "matrices.matmul.madds": "count",
    "matrices.kron.self_s": "s",
    "scalars.cyclo_mul_ns.o4": "ns",
    "scalars.cyclo_mul_ns.o8": "ns",
    "scalars.cyclo_mul_ns.o13": "ns",
    "scalars.cyclo_mul_ns.o31": "ns",
    "scalars.cyclo_add_ns.o31": "ns",
    "scalars.quad_mul_ns.t6": "ns",
    "scalars.rational_mul_ns": "ns",
    "serialize.matrix_from_obj.self_s": "s",
    "serialize.load.self_s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.matrix_to_obj.self_s": "s",
    "serialize.canonical_json.self_s": "s",
    "serialize.bytes_written": "bytes",
    "frames.certify_etf.self_s": "s",
    "frames.gram.self_s": "s",
    "frames.verify_naimark_pair.self_s": "s",
    "hadamard.verify_hadamard.self_s": "s",
    "hadamard.dft.self_s": "s",
    "hadamard.char_table.self_s": "s",
    "hadamard.hadamard_of_size.self_s": "s",
    "constructions.kirkman_etf.self_s": "s",
    "constructions.harmonic_etf.self_s": "s",
    "constructions.steiner_naimark.self_s": "s",
    "constructions.flat_regular_simplex.self_s": "s",
    "recipes.replay.total_s": "s",
    "designs.verify_qsd.self_s": "s",
    "designs.lift_permutation.self_s": "s",
    "qsd_bridge.etf_from_qsd.self_s": "s",
    "catalog.add.self_s": "s",
    "catalog.audit.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- statistics -----------------------------------------------------------

def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value): the sample with exactly ten larger ones
    when sorted, at percentile 100 (n - 10) / n; None for fewer than 11
    samples, where no such percentile exists.
    """
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values, unit: str) -> str:
    t = tail(values)
    tail_text = f"p{t[0]:.1f} {t[1]:.4f}" if t else "tail n/a (< 11 samples)"
    return f"{name:<16} median {median(values):.4f} {unit}  {tail_text}  n={len(values)}"


# -- running ops ----------------------------------------------------------

@dataclass
class OpRun:
    kind: str
    label: str
    exit: int
    wall_s: float          # spawn to exit, as a user pays it
    maxrss_kb: int         # this child's own peak RSS
    stdout: str
    main_s: float | None = None   # in-process cli.main time
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)


@dataclass
class PassRun:
    ops: list[OpRun]
    refs: list[float]      # reference child wall times, before each op and after the last
    elapsed_s: float       # loop wall time, reference children included

    def total(self, kind: str | None = None, scaled: bool = True, attr: str = "wall_s") -> float:
        """Summed op time (of one command kind, or all), at nominal speed if scaled."""
        factors = speeds(self.refs) if scaled else [1.0] * len(self.ops)
        return sum((getattr(op, attr) or 0.0) * f for op, f in zip(self.ops, factors)
                   if kind in (None, op.kind))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ETF_FORGE_CATALOG", None)
    return env


def spawn(argv, cwd: Path, log: Path) -> tuple[int, float, int, str]:
    """Run one child to completion: (exit code, wall s, peak RSS KiB, stdout).

    The child is reaped with ``os.wait4`` so its own rusage is read;
    RUSAGE_CHILDREN would give the running maximum over all children.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out, "w") as fo, open(err, "w") as fe:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, out.read_text()


def reference(work: Path) -> float:
    """Wall time of one run of the reference child."""
    code, wall, _, _ = spawn([sys.executable, "-c", REFERENCE], work, work / "reference")
    if code != 0:
        raise RuntimeError(f"reference child failed (exit {code}); see {work / 'reference.err'}")
    return wall


def speeds(refs) -> list[float]:
    """Speed relative to nominal around each timed child, from the reference
    runs just before and just after it (n + 1 refs give n factors)."""
    return [2 * NOMINAL_REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]


def run_pass(ops, mode: str, work: Path, seed: int, workload: str, pins: dict) -> PassRun:
    """One pass in ``mode`` (cli | inproc | traced), then the gate.

    A reference child runs before each op and after the last one, so the
    pass's metrics can be scaled to nominal machine speed.
    """
    pass_dir = work / "pass"
    logs = work / "logs"
    for d in (pass_dir, logs):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    runs, refs = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        refs.append(reference(logs))
        log = logs / f"{i:02d}"
        if mode == "cli":
            argv = [sys.executable, "-m", "etf_forge.cli", *op.argv]
        else:
            argv = [sys.executable, str(BENCH / "inproc.py"), "--result", str(log.with_suffix(".json")),
                    "--op", str(i), *(["--trace"] if mode == "traced" else []), "--", *op.argv]
        code, wall, rss, stdout = spawn(argv, pass_dir, log)
        run = OpRun(op.kind, op.label, code, wall, rss, stdout)
        if mode != "cli" and code == 0:
            result = json.loads(log.with_suffix(".json").read_text())
            run.exit, run.stdout, run.main_s, run.spans = (
                result["exit"], result["stdout"], result["main_s"], result["spans"])
        runs.append(run)
    refs.append(reference(logs))
    elapsed = perf_counter() - start
    for op, run in zip(ops, runs):
        run.problems = check_op(op, run.exit, run.stdout, pass_dir)
    if seed == PINNED_SEED and workload in pins:
        for i, reasons in pin_failures(ops, written_files(pass_dir), pins[workload]).items():
            runs[i].problems.extend(reasons)
    return PassRun(runs, refs, elapsed)


def setup(seed: int, work: Path) -> float:
    """Write this seed's inputs; returns the wall time of the set-up child."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    code, wall, _, _ = spawn([sys.executable, str(BENCH / "inputs.py"), "--seed", str(seed),
                              "--out", str(inputs)], work, work / "setup")
    if code != 0:
        raise RuntimeError(f"input generation failed (exit {code}); see {work / 'setup.err'}")
    return wall


# -- reporting ------------------------------------------------------------

def report_failures(passes) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for op in p.ops:
            attempted += 1
            if op.problems:
                failed += 1
                print(f"FAILED {op.label}: {'; '.join(op.problems)}", file=sys.stderr)
    return attempted, failed


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def end_to_end(workload: str, seed: int, seconds: float, work: Path, pins: dict) -> int:
    work.mkdir(parents=True, exist_ok=True)
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference(work))
        setups.append(setup(seed, work))
    setup_refs.append(reference(work))
    ops = workload_ops(workload, work / "inputs")
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, "cli", work, seed, workload, pins))
        if perf_counter() - start + passes[-1].elapsed_s > seconds:
            break
    attempted, failed = report_failures(passes)

    def timings(scaled: bool) -> dict:
        factors = speeds(setup_refs) if scaled else [1.0] * len(setups)
        return {
            "pass_s": [p.total(scaled=scaled) for p in passes],
            **{f"{kind}_s": [p.total(kind, scaled) for p in passes] for kind in KINDS},
            "setup_s": [t * f for t, f in zip(setups, factors)],
        }

    raw = timings(scaled=False)
    series = timings(scaled=True)
    series["peak_rss_mb"] = [max(op.maxrss_kb for op in p.ops) / 1024 for p in passes]

    print(f"workload {workload}  seed {seed}  passes {len(passes)}  ops/pass {len(ops)}")
    print("mean machine speed vs nominal: passes "
          f"{[round(statistics.fmean(speeds(p.refs)), 3) for p in passes]}, "
          f"set-up {round(statistics.fmean(speeds(setup_refs)), 3)}")
    for name, values in series.items():
        print(describe(name, values, END_TO_END[name]))
    for name, values in raw.items():
        print(describe(f"raw {name}", values, "s"))
    print(f"error_rate   {failed}/{attempted} = {failed / attempted:.4f}")
    (work / "timings.json").write_text(json.dumps({
        "setup_s": setups, "setup_refs": setup_refs,
        "passes": [{"refs": p.refs, "ops": [[op.label, op.kind, op.wall_s] for op in p.ops]}
                   for p in passes],
    }))
    metrics = {name: median(values) for name, values in series.items()}
    print(result_line(attempted, failed, metrics, END_TO_END))
    return 0


def per_layer(workload: str, seed: int, work: Path, pins: dict) -> int:
    setup(seed, work)
    ops = workload_ops(workload, work / "inputs")
    plain = run_pass(ops, "inproc", work, seed, workload, pins)
    traced = run_pass(ops, "traced", work, seed, workload, pins)
    attempted, failed = report_failures([plain, traced])

    metrics = {name: 0.0 for name in PER_LAYER}
    spans = [s for op in traced.ops for s in op.spans]
    for op in traced.ops:
        for key, value in summarize(op.spans).items():
            if key in metrics:
                metrics[key] += value
    code, _, _, stdout = spawn([sys.executable, str(BENCH / "microops.py"), "--inputs",
                                str(work / "inputs")], work, work / "microops")
    if code != 0:
        raise RuntimeError(f"scalar micro-ops failed (exit {code}); see {work / 'microops.err'}")
    micro = json.loads(stdout)
    metrics.update({k: v for k, v in micro.items() if k in metrics})
    # Start-up is read inside one child (its wall time minus its cli.main
    # time), so machine drift between two processes does not enter it.
    startup = [op.wall_s - op.main_s for op in plain.ops if op.main_s is not None]
    metrics["cli.startup_s"] = median(startup) if startup else 0.0
    plain_s = plain.total(attr="main_s")
    traced_s = traced.total(attr="main_s")
    metrics["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0

    with open(work / f"spans-{workload}.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"workload {workload}  seed {seed}  traced pass of {len(ops)} ops, {len(spans)} spans")
    print(f"micro-op operand terms {micro['operand_terms']}")
    for op, traced_op in zip(plain.ops, traced.ops):
        print(f"  child {op.wall_s:7.3f} s  cli.main {op.main_s or 0:7.3f} s  "
              f"traced {traced_op.main_s or 0:7.3f} s  {op.label}")
    print(result_line(attempted, failed, metrics, PER_LAYER))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etf_forge" / "cli.py").is_file():
        print(f"error: no etf-forge sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    work = WORK / args.workload
    if args.trace:
        return per_layer(args.workload, args.seed, work, pins)
    return end_to_end(args.workload, args.seed, args.seconds, work, pins)


if __name__ == "__main__":
    sys.exit(main())
