"""Record the reference output digests that bench/run.py compares against.

    python3 bench/record_digests.py --seeds 0-31

For each workload and seed it builds the round, runs every call once,
checks its invariants and writes the call's digest to bench/expected.json.
Run it from the repository root, only at a commit whose outputs are the
reference: a later change that alters any recorded output must say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from collect import parse_seeds
from run import EXPECTED_PATH, OUT_DIR, import_package
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args()
    ps = import_package()
    if ps is None:
        raise SystemExit("run from the repository root")
    os.makedirs(OUT_DIR, exist_ok=True)
    expected: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
                built = workload.build(ps, seed, workdir)
                for call in built.calls:
                    result = call.run()
                    problems = call.check(result)
                    if problems:
                        raise SystemExit(f"{name} seed {seed} {call.kind}: {problems}")
                    expected.setdefault(name, {}).setdefault(str(seed), {})[call.kind] = (
                        call.digest(result))
            print(name, seed, expected[name][str(seed)], flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
