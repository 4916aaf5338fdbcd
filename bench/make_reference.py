"""Write bench/reference.json: digests of each workload's first unit of outputs.

Run from the repository root, on the package whose answers are the reference:

    python3 bench/make_reference.py

The digest of ``act`` depends on the seed, so it is stored for seeds
0..ACT_SEEDS-1; the other workloads only reorder a fixed input set by seed,
and their digest, taken in key order, holds for every seed.
"""

from __future__ import annotations

import json
import os
import sys

import run

ACT_SEEDS = 16


def unit_digest(name, seed):
    workload = run.WORKLOADS[name](run.load_package(), seed)
    ops = workload.unit(0)
    texts = [workload.output_text(op, workload.run(op)) for op in ops]
    return run.digest([op.key for op in ops], texts)


def main():
    os.environ.pop("CACTUS_BUDGET_BITS", None)
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name in run.WORKLOADS:
        if name == "act":
            reference[name] = {str(seed): unit_digest(name, seed) for seed in range(ACT_SEEDS)}
        else:
            reference[name] = {"any": unit_digest(name, 0)}
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
