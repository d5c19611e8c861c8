"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/collect.py --seeds 1-10 --out bench/results/NAME.json \
        [--against bench/results/OTHER.json]

Runs bench/run.py once per (workload, seed) untraced for every workload in
BENCHMARK.json, one after another, then twice traced per workload on the
first seed; the exact counts of the two traced runs must agree.  For each
end-to-end metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  With --against it also compares each
median with the same median of an earlier result set.  With --out it writes
the environment, the per-seed values, the summaries, the comparison and the
traced per-layer metrics as one JSON result set.  Exits 1 when a run fails
its checks, a spread reaches its bound, or a median is worse than the
earlier set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return {"result": result, "env": env}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--against", help="earlier result set to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    report = {"run_seconds": seconds, "seeds": seeds, "env": None, "workloads": {},
              "against": args.against and os.path.relpath(args.against, ROOT)}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            out = run_once(spec["command"], workload, seed, seconds, 0)
            report["env"] = report["env"] or out["env"]
            runs.append(out["result"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in out["result"]["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        ok = ok and entry["failed"] == 0 and all(r["correct"] for r in runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            flag = ""
            if spread >= metric["bound"]:
                ok, flag = False, "  OVER BOUND"
            elif spread >= metric["bound"] / 3:
                flag = "  over a third of the bound"
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                # > 0: this set's median is worse than the earlier set's
                worse = (median - before if metric["better"] == "lower"
                         else before - median) / before
                entry["end_to_end"][name]["worse_than_against"] = worse
                if worse > metric["bound"]:
                    ok, flag = False, flag + "  WORSE THAN EARLIER SET BY MORE THAN THE BOUND"
                flag += f"  (earlier median {before:.6g}, worse by {worse:+.4f})"
            print(f"  {workload} {name}: median {median:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']}){flag}", flush=True)
        # two traced runs with the same seed: their exact counts must agree
        traced = [run_once(spec["command"], workload, seeds[0], seconds, 1)["result"]
                  for _ in range(2)]
        ok = ok and all(t["correct"] for t in traced)
        differ = [k for k in EXACT_COUNTS
                  if traced[0]["metrics"][k]["value"] != traced[1]["metrics"][k]["value"]]
        if differ:
            ok = False
            print(f"  {workload} exact counts differ between traced runs: {differ}")
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = traced[0]["metrics"]
        entry["traced_attempted"] = sum(t["attempted"] for t in traced)
        entry["traced_failed"] = sum(t["failed"] for t in traced)
        entry["exact_counts_repeat"] = not differ
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
