"""Golden numbers of the studies, computed in process.

The records are the convergence rows (e_sigma, e_div, e_u, e_p) of rt2,
rt3 and bdm1 on squares and trapezoids at levels 2-16, the default
locking rows at levels 2, 4 and 8, and the diagnostics' inf-sup estimates
of the three families on trapezoids at levels 2, 4 and 8.
``tests/test_golden.py`` compares them with ``golden.json``.  The
diagnostics' round-off-only values (the inf-sup variation, the commuting
residual, the jump and the identity-field error) are returned apart, to
be held to their thresholds rather than to recorded bits.

Run as a script to write ``golden.json`` afresh:

    PYTHONPATH=src python tests/golden.py

A change that moves a number beyond the test's tolerance re-records the
file and lists every number it moved.
"""

import json
from pathlib import Path

from quadelast import cli

PATH = Path(__file__).resolve().parent / "golden.json"
FAMILIES = ("rt2", "rt3", "bdm1")


def records():
    """The recorded values as a JSON-ready dict, and the diagnostics whose
    values are pure round-off."""
    out = {"convergence": {}, "locking": [], "infsup": {}}
    for element in FAMILIES:
        for mesh in ("square", "trapezoid"):
            table = cli.run_convergence(cli.RunConfig(
                element=element, mesh_family=mesh, levels=(2, 4, 8, 16)))
            out["convergence"][f"{element}-{mesh}"] = [
                [r.e_sigma, r.e_div, r.e_u, r.e_p] for r in table.rows]
    lock = cli.build_parser().parse_args(["locking", "--levels", "2,4,8"])
    out["locking"] = [[r.nu, r.n, r.total_dofs, r.e_sigma, r.e_u]
                      for r in cli.run_locking(cli._config_from_args(lock))]

    roundoff = []
    estimate = cli.infsup_estimate
    for element in FAMILIES:
        values = out["infsup"][f"{element}-trapezoid"] = []

        def capture(system, gram):
            values.append(estimate(system, gram))
            return values[-1]

        cli.infsup_estimate = capture
        try:
            roundoff += cli.run_diagnostics(cli.RunConfig(
                element=element, mesh_family="trapezoid", levels=(2, 4, 8)))
        finally:
            cli.infsup_estimate = estimate
    return out, roundoff


if __name__ == "__main__":
    PATH.write_text(json.dumps(records()[0], indent=1) + "\n")
    print(f"wrote {PATH}")
