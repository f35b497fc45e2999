"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs each workload's study once, untraced, and writes ``reference.json``
next to this file.  The committed file was recorded from the seed commit;
re-record only when a change is meant to alter the study outputs.  The
diagnostics reference keeps record names, thresholds and the inf-sup
estimates: the other diagnostic values are round-off sized and are checked
against their thresholds instead.
"""

import json
import time

from gate import REFERENCE
from run import spawn
from worker import WORKLOADS


def main():
    reference = {}
    for workload, (runner, _) in WORKLOADS.items():
        report = spawn(workload, 0, "plain", time.monotonic() + 600.0)
        if "error" in report:
            raise SystemExit(f"{workload} raised:\n{report['error']}")
        entry = {"outputs": report["outputs"]}
        if runner == "run_diagnostics":
            entry = {"outputs": [{"name": r["name"],
                                  "threshold": r["threshold"]}
                                 for r in report["outputs"]],
                     "infsup": report["infsup"]}
        reference[workload] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
