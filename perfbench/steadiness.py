"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--workload <name>]

Runs ``run.py`` once per seed (1, 2, ...) on each workload of
``BENCHMARK.json`` (or on one), each for the file's ``run_seconds``, and
prints per metric the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median, with the
metric's bound beside it.  The summary is also written to
``.perfbench/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", choices=[w["name"]
                                               for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited with "
                                 f"{proc.returncode}:\n{proc.stderr}")
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"values": vals, "median": median,
                                       "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bounds[name]}
            print(f"{workload:28s} {name:12s} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"bound {bounds[name]}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steadiness.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
