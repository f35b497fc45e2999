"""Correctness gate: compare one study run's outputs with the reference
values recorded from the seed commit (``reference.json``).

One operation is one convergence level, one locking (nu, n) row or one
diagnostic record.  Error-table entries must match to ``REL_TOL`` relative;
sizes and parameters must match exactly; the commuting, jump and identity
diagnostics must pass their own thresholds, and the inf-sup estimate must
match its reference to ``REL_TOL``.  A run that raised fails every
operation.
"""

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-10

EXACT_KEYS = ("nu", "n", "total_dofs")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(value, ref) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def _row_ok(row: dict, ref: dict) -> bool:
    return row.keys() == ref.keys() and all(
        row[key] == want if key in EXACT_KEYS else _close(row[key], want)
        for key, want in ref.items())


def check(reference: dict, result: dict) -> list:
    """One bool per reference operation: did ``result`` reproduce it?

    ``reference`` is one workload's entry of ``reference.json``;
    ``result`` is a worker report with ``outputs`` (absent if the study
    raised) and, for diagnostics, the captured ``infsup`` estimates.
    """
    expected = reference["outputs"]
    outputs = result.get("outputs")
    if outputs is None or len(outputs) != len(expected):
        return [False] * len(expected)
    if "infsup" not in reference:
        return [_row_ok(row, ref) for row, ref in zip(outputs, expected)]
    # diagnostics: each record passes its own threshold, and the inf-sup
    # record also needs the estimates themselves to match
    estimates = result.get("infsup", [])
    infsup_ok = len(estimates) == len(reference["infsup"]) and all(
        _close(v, r) for v, r in zip(estimates, reference["infsup"]))
    return [row["name"] == ref["name"] and row["threshold"] == ref["threshold"]
            and row["passed"] and row["value"] <= row["threshold"]
            and (infsup_ok or not ref["name"].startswith("inf-sup"))
            for row, ref in zip(outputs, expected)]
