"""quadelast benchmark: the convergence, locking and diagnostics studies,
timed end to end or traced per layer, with every output checked.

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

Run it from the root of a checkout; it uses the package under ``src/``.
Every set-up and every study run happens in a fresh worker process
(``worker.py``), with the library's default BLAS threading.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object.
Spans and run metadata go to ``.perfbench/`` in the checkout.  Exit codes:
0 when every output matches the reference, 1 when one does not, 2 when
the benchmark could not run (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check, load_reference
from tracing import layer_metrics
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Set-up-only processes per run, besides the set-up of each study process.
SETUP_SAMPLES = 5
#: Every worker is stopped once a run has lasted this long.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "solver.residual_max":
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker stopped at the {RUN_LIMIT_S:.0f} s "
                         "run limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}:"
                         f"\n{proc.stderr[-3000:]}")
    report = json.loads(lines[-1])
    report["mode"] = mode
    return report


def span_time(report: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in report["spans"]
               if s["name"] == name)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set-up samples and study runs of one workload for ``seconds``.

    A further round of study runs starts only while the last round fits
    in the time left; at least one round runs.  A traced round is a traced
    study run followed by an untraced one, for the tracing overhead.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    # byte-compiles the sources and fills the page cache; not counted
    spawn(workload, seed, "setup", deadline)
    start = time.monotonic()
    setups = [spawn(workload, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    rounds = ("traced", "plain") if trace else ("plain",)
    studies = []
    while True:
        began = time.monotonic()
        studies += [spawn(workload, seed, mode, deadline) for mode in rounds]
        now = time.monotonic()
        if now + (now - began) - start > seconds:
            return setups, studies


def metadata(seed: int) -> dict:
    """Host, library and source versions, to tell a host change from a
    code change."""
    import ctypes

    import numpy
    import scipy

    def blas(module, libs_dir):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        threads = None
        for lib in (Path(module.__file__).parent.parent / libs_dir).glob(
                "*openblas*.so*"):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = getattr(handle, symbol)()
                    break
        return {"name": info.get("name"), "version": info.get("version"),
                "threads": threads}

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy, "numpy.libs"),
        "scipy_blas": blas(scipy, "scipy.libs"),
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, reference):
    setups, studies = measure(workload, seed, seconds, trace)
    ok = [flag for r in studies for flag in check(reference[workload], r)]
    attempted, failed = len(ok), ok.count(False)
    for r in studies:
        if "error" in r:
            print(f"{workload}: study raised\n{r['error']}", file=sys.stderr)
    plain = [r for r in studies if r["mode"] == "plain"]
    wall_s = statistics.median(span_time(r, "cli.run") for r in plain)
    if trace:
        traced = [r for r in studies if r["mode"] == "traced"]
        per_run = []
        for r in traced:
            m = layer_metrics(r["spans"])
            m["reference_elements.build_s"] = span_time(
                r, "reference_elements.build")
            m["trace.overhead_s"] = span_time(r, "cli.run") - wall_s
            per_run.append(m)
        values = {k: statistics.median(m[k] for m in per_run)
                  for k in per_run[0]}
    else:
        values = {
            "setup_s": statistics.median(span_time(r, "setup")
                                         for r in setups + studies),
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    print(f"{workload}: " + " | ".join(
        f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
        + f" | ops_failed_frac {failed / attempted:g} ({failed}/{attempted})"
        f" | {len(studies)} study run(s), {len(setups)} set-up run(s)")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": attempted, "failed": failed,
            "ops_failed_frac": failed / attempted, "metrics": metrics,
            "spans": [s for r in setups + studies for s in r["spans"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "quadelast").is_dir():
            raise BenchError(f"no quadelast package under {ROOT / 'src'}")
        meta = metadata(args.seed)
        print("meta " + json.dumps(meta))
        reference = load_reference()
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                                reference) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    for rec in records:
        rec["meta"] = meta
        name = f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json"
        (OUT_DIR / name).write_text(json.dumps(rec, indent=1))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
