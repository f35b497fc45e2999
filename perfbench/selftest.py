"""Self-test of the correctness gate.

    python3 perfbench/selftest.py

Checks that outputs equal to the reference pass, that a deviation far
below the tolerance passes, and that each perturbed reference entry, each
diagnostic over its threshold and a study that raised are reported as
failed operations.  Finally it runs the locking workload end to end
against a perturbed reference and requires ``correct: false`` and a
non-zero exit code.  Exits non-zero on the first broken expectation.
"""

import contextlib
import copy
import io
import json

import run
from gate import EXACT_KEYS, check, load_reference


def expect(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"gate self-test failed: {what}")


def reproduced(ref: dict) -> dict:
    """A worker report whose outputs reproduce ``ref`` exactly."""
    if "infsup" not in ref:
        return {"outputs": copy.deepcopy(ref["outputs"])}
    return {"outputs": [dict(r, value=0.0, passed=True)
                        for r in ref["outputs"]],
            "infsup": list(ref["infsup"])}


def scaled(ref: dict, op: int, factor: float) -> dict:
    """``ref`` with the first compared value of operation ``op`` scaled."""
    out = copy.deepcopy(ref)
    if "infsup" in ref:
        out["infsup"] = [v * factor for v in ref["infsup"]]
        return out
    row = out["outputs"][op]
    key = next(k for k in row if k not in EXACT_KEYS)
    row[key] *= factor
    return out


def main():
    reference = load_reference()
    for workload, ref in reference.items():
        good = reproduced(ref)
        n_ops = len(ref["outputs"])
        expect(all(check(ref, good)), f"{workload}: exact outputs fail")
        expect(check(ref, {"error": "raised"}) == [False] * n_ops,
               f"{workload}: a study that raised passes")
        ops = [n_ops - 1] if "infsup" in ref else range(n_ops)
        for op in ops:
            want = [i != op for i in range(n_ops)]
            expect(check(scaled(ref, op, 1 + 1e-8), good) == want,
                   f"{workload}: perturbed operation {op} passes")
            expect(all(check(scaled(ref, op, 1 + 1e-12), good)),
                   f"{workload}: round-off deviation in {op} fails")
        if "infsup" in ref:
            for op in range(n_ops - 1):
                bad = copy.deepcopy(good)
                bad["outputs"][op]["value"] = 2 * ref["outputs"][op][
                    "threshold"]
                expect(check(ref, bad) == [i != op for i in range(n_ops)],
                       f"{workload}: record {op} over threshold passes")

    workload = "locking-bdm1-trapezoid"
    run.load_reference = lambda: {**reference,
                                  workload: scaled(reference[workload], 3,
                                                   1 + 1e-8)}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "0"])
    result = json.loads(stdout.getvalue().splitlines()[-1])
    expect(code == 1 and result["correct"] is False
           and result["failed"] >= 1,
           f"end-to-end run against a perturbed reference reported "
           f"{result} with exit code {code}")
    print("gate self-test passed")


if __name__ == "__main__":
    main()
