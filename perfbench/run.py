"""The attex benchmark: one command per workload run.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and units are declared in BENCHMARK.json. The workload
runs in a child process (perfbench/workload.py) with BLAS and OpenMP
pinned to one thread; peak_rss_mb is that child's maximum resident set
size. With --trace 0 the result holds every end-to-end metric, with
--trace 1 every per-layer metric. The last line of standard output is the
result as one JSON object; the lines before it record the environment,
the generated inputs and the failed checks.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return ({m["name"]: m["unit"] for m in spec[key]},
            [w["name"] for w in spec["workloads"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in (os.path.join("src", "attex", "__init__.py"),
                   os.path.join("tests", "synth.py")):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.stderr.write("perfbench: %s not found; run from the root of "
                             "an attex checkout\n" % needed)
            return 2
    units, workloads = _declared_metrics(root, args.trace)
    if args.workload not in workloads:
        sys.stderr.write("perfbench: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads)))
        return 2
    if args.seconds < 1:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2

    out_dir = os.path.join(root, ".perfbench_out", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, **PINNED_ENV)
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    # The child's stdout goes to our stderr so that the result stays the
    # last line of our stdout.
    child = subprocess.Popen(command, env=env, cwd=root, stdout=sys.stderr)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload exceeded %d s\n"
                         % CHILD_TIMEOUT_S)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        sys.stderr.write("perfbench: workload exited with code %d\n" % code)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    values = result["metrics"]
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb
    if set(values) != set(units):
        sys.stderr.write("perfbench: metrics %s differ from BENCHMARK.json\n"
                         % sorted(set(values) ^ set(units)))
        return 1

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print("run " + json.dumps(result["run"], sort_keys=True))
    for failure in result["failures"]:
        print("failed-check " + failure)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
