"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:
    python3 perfbench/steady.py [--json FILE]

Runs the benchmark command of BENCHMARK.json for every workload on seeds
1 to 10, one run at a time, and prints for each end-to-end metric the
median, the quartiles as statistics.quantiles(values, n=4) gives them,
and the spread: the distance between the quartiles as a share of the
median. A spread above a third of the metric's bound is flagged. Then it
runs seed 1 once more, whose outcome the benchmark compares with that of
the first run; a difference makes that run incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with code %d"
                         % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="also write the runs and spreads here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, elapsed = run_once(spec, workload, seed)
            runs.append({"seed": seed, "elapsed_s": elapsed,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v
                                     in result["metrics"].items()}})
            print("%s seed %d: %.1f s, correct=%s" % (
                workload, seed, elapsed, result["correct"]), flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs], bound)
                   for name, bound in bounds.items()}
        repeat, _ = run_once(spec, workload, SEEDS[0])
        report[workload] = {"runs": runs, "summary": summary,
                            "repeat_seed_correct": repeat["correct"]}
        print("  seed %d again: correct=%s" % (SEEDS[0], repeat["correct"]))
        for name, s in summary.items():
            print("  %-24s median %-12.6g spread %.3f  bound %.2f %s" % (
                name, s["median"], s["spread"], s["bound"],
                "" if s["steady"] else "<- above a third of the bound"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
