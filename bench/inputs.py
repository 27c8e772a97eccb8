"""Seeded input generation for the etf-forge benchmark.

Every file the benchmarked program reads is written here, and nothing else
reaches it except command-line arguments.  The seed drives two transforms,
both of which leave every certificate unchanged:

* every design file gets a random vertex relabelling and block shuffle;
* every difference set D is replaced by a translate g + D.

Inputs with no free choice (``kirkman --u 12``, ``simplex --size 13``,
``steiner --design all-pairs --v 8``) are fixed by the workload itself.

The base designs come from the program's own library: the Steiner triple
system on the 15 points of PG(3, 2) and its complement, and the
quasi-symmetric designs read off the Kirkman flat pairs at u = 4 and u = 8.

Run as a script it writes one seed's inputs (this is the timed set-up step):

    PYTHONPATH=src python3 bench/inputs.py --seed 0 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

DESIGN_SCHEMA = "etf-forge/design/v1"

# (group orders, difference set) for each harmonic frame of the cyclotomic
# workload; the Singer set in Z31 and the planar set in Z13 are classical.
DIFFERENCE_SETS = {
    "harmonic4x4": ((4, 4), (1, 2, 3, 4, 8, 12)),
    "harmonic13": ((13,), (0, 1, 3, 9)),
    "harmonic31": ((31,), (1, 5, 11, 24, 25, 27)),
}

# Design files written for the fractional workload.
DESIGN_FILES = (
    "sts15",
    "sts15_complement",
    "kirkman4_primary_qsd",
    "kirkman4_complement_qsd",
    "kirkman8_complement_qsd",
)


def design_obj(v: int, blocks) -> dict:
    """A design document with parameters computed from a 1-based block list."""
    b = len(blocks)
    k = len(blocks[0])
    r = b * k // v
    lam = r * (k - 1) // (v - 1)
    return {"schema": DESIGN_SCHEMA, "v": v, "k": k, "lambda": lam, "r": r, "b": b,
            "blocks": [list(block) for block in blocks]}


def pg32_lines() -> list[list[int]]:
    """The 35 lines of PG(3, 2): points are the nonzero vectors of F_2^4."""
    points = range(1, 16)
    return sorted({tuple(sorted((a, b, a ^ b))) for a in points for b in points if a < b})


def kirkman_qsd_blocks(u: int, roles) -> dict[str, list[list[int]]]:
    """Blocks (1-based) of the QSDs under the Kirkman flat pair at this u."""
    from etf_forge import kirkman_etf, qsd_from_flat_etf, standard_kirkman_inputs

    pair = kirkman_etf(standard_kirkman_inputs(u))
    frames = {"primary": pair.primary, "complement": pair.complement}
    out = {}
    for role in roles:
        design = qsd_from_flat_etf(frames[role]).design
        out[role] = [[x + 1 for x in block] for block in design.blocks]
    return out


def base_designs() -> dict[str, dict]:
    lines = pg32_lines()
    k4 = kirkman_qsd_blocks(4, ("primary", "complement"))
    k8 = kirkman_qsd_blocks(8, ("complement",))
    return {
        "sts15": design_obj(15, lines),
        "sts15_complement": design_obj(15, [sorted(set(range(1, 16)) - set(l)) for l in lines]),
        "kirkman4_primary_qsd": design_obj(28, k4["primary"]),
        "kirkman4_complement_qsd": design_obj(36, k4["complement"]),
        "kirkman8_complement_qsd": design_obj(136, k8["complement"]),
    }


def relabel(obj: dict, rng: random.Random) -> dict:
    """Apply a random vertex permutation and shuffle the block order."""
    v = obj["v"]
    perm = list(range(1, v + 1))
    rng.shuffle(perm)
    blocks = [sorted(perm[x - 1] for x in block) for block in obj["blocks"]]
    rng.shuffle(blocks)
    return design_obj(v, blocks)


def translate(orders, subset, rng: random.Random) -> list[int]:
    """g + D for a random group element g, in big-endian mixed-radix indices."""
    g = [rng.randrange(m) for m in orders]

    def digits(index):
        out = []
        for m in reversed(orders):
            out.append(index % m)
            index //= m
        return out[::-1]

    moved = []
    for d in subset:
        i = 0
        for x, y, m in zip(digits(d), g, orders):
            i = i * m + (x + y) % m
        moved.append(i)
    return moved


def write_inputs(seed: int, out: Path) -> None:
    """Write every workload's inputs for this seed into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, obj in base_designs().items():
        rng = random.Random(f"{seed}:{name}")
        (out / f"{name}.json").write_text(json.dumps(relabel(obj, rng), sort_keys=True))
    subsets = {}
    for name, (orders, subset) in DIFFERENCE_SETS.items():
        rng = random.Random(f"{seed}:{name}")
        subsets[name] = {"group": list(orders), "subset": translate(orders, subset, rng)}
    (out / "difference_sets.json").write_text(json.dumps(subsets, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
