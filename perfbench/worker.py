"""One fresh process of the quadelast benchmark: set up, run one study, report.

    python3 perfbench/worker.py <workload> <seed> <mode>

``mode`` is ``setup`` (import ``quadelast`` and build the workload's
reference elements, nothing more), ``plain`` (also run the study) or
``traced`` (run the study with a span around every layer call).  Run it
from the checkout root with ``src`` on ``PYTHONPATH``; ``run.py`` does
both.  The last line of standard output is one JSON object.
"""

import json
import os
import sys
import traceback

from tracing import Tracer, instrument, max_rss_kb

#: workload -> (study runner in quadelast.cli, RunConfig fields).
WORKLOADS = {
    "conv-rt2-trapezoid-to32": (
        "run_convergence",
        {"element": "rt2", "mesh_family": "trapezoid",
         "levels": (2, 4, 8, 16, 32)}),
    "locking-bdm1-trapezoid": (
        "run_locking",
        {"element": "bdm1", "mesh_family": "trapezoid",
         "levels": (2, 4, 8, 16, 32)}),
    "diagnostics-bdm1-trapezoid": (
        "run_diagnostics",
        {"element": "bdm1", "mesh_family": "trapezoid", "levels": (16,)}),
}


def set_up(tracer: Tracer, element: str):
    """Import the study runners and build the lru-cached reference elements
    of ``element``, as every command line invocation does."""
    with tracer.span("setup"):
        with tracer.span("import"):
            import quadelast.cli as cli
        src = os.path.join(os.getcwd(), "src", "")
        if not cli.__file__.startswith(src):
            raise ImportError(f"quadelast was imported from {cli.__file__}, "
                              f"not from {src}")
        with tracer.span("reference_elements.build"):
            from quadelast.fe_space import family_order, stress_element
            from quadelast.reference_elements import p_element, q_element
            r = family_order(element)
            stress_element(element)
            q_element(r - 1)
            p_element(r - 1)
    return cli


def study_outputs(runner: str, result) -> list:
    """The values the correctness gate compares, one entry per operation."""
    if runner == "run_convergence":
        return [{"e_sigma": r.e_sigma, "e_div": r.e_div, "e_u": r.e_u,
                 "e_p": r.e_p} for r in result.rows]
    if runner == "run_locking":
        return [{"nu": r.nu, "n": r.n, "total_dofs": r.total_dofs,
                 "e_sigma": r.e_sigma, "e_u": r.e_u} for r in result]
    return [{"name": d.name, "value": d.value, "threshold": d.threshold,
             "passed": bool(d.passed)} for d in result]


def run(workload: str, seed: int, mode: str) -> dict:
    runner, fields = WORKLOADS[workload]
    tracer = Tracer(f"{workload}/seed{seed}/{mode}/{os.getpid()}")
    cli = set_up(tracer, fields["element"])
    out = {"spans": tracer.spans}
    if mode == "setup":
        return out

    infsup = []
    estimate = cli.infsup_estimate

    def capture_infsup(system, gram):
        # the diagnostic record prints the estimate to 7 digits only; the
        # gate compares the full value
        infsup.append(estimate(system, gram))
        return infsup[-1]

    cli.infsup_estimate = capture_infsup
    if mode == "traced":
        import quadelast.assembly as assembly
        instrument(tracer, cli, assembly)
    config = cli.RunConfig(seed=seed, **fields)
    try:
        with tracer.span("cli.run"):
            result = getattr(cli, runner)(config)
        out["outputs"] = study_outputs(runner, result)
    except Exception:  # the study failed: report it, the gate counts it
        out["error"] = traceback.format_exc()
    out["infsup"] = infsup
    out["peak_rss_mb"] = max_rss_kb() / 1024.0
    return out


if __name__ == "__main__":
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if workload not in WORKLOADS or mode not in ("setup", "plain", "traced"):
        sys.exit(f"usage: worker.py {{{','.join(WORKLOADS)}}} <seed> "
                 "{setup,plain,traced}")
    print(json.dumps(run(workload, seed, mode)))
