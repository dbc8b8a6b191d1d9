"""Compute the reference digests of the ``paper_sweep`` workload.

For every seed in ``--seeds`` this runs the workload's 60-cell grid once
and stores one digest per cell (see ``workloads.cell_digest``).  A
``paper_sweep`` run whose seed is stored checks every cell against it;
for other seeds the first pass of the run is the reference.

    python3 perfbench/make_digests.py --seeds 0-63 --jobs 2 --out new.json

The output file must not exist yet: committed references are replaced
only by hand, after review.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def seed_digests(seed: int) -> tuple[int, list[str]]:
    from repro import experiments
    from workloads import PaperSweep, cell_digest, sweep_settings

    settings = sweep_settings(PaperSweep.DEFAULTS, seed)
    return seed, [cell_digest(r) for r in experiments.run_sweep(settings).records]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    from workloads import PaperSweep, sweep_grid

    grid = sweep_grid(PaperSweep.DEFAULTS)
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        results = dict(pool.map(seed_digests, seeds))
    lines = [f'"{s}": {json.dumps(results[s])}' for s in seeds]
    with open(args.out, "x", encoding="utf-8") as fp:
        fp.write('{"grid": ' + json.dumps(grid, sort_keys=True) + ',\n"seeds": {\n')
        fp.write(",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
