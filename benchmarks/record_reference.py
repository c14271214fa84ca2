"""Record the reference outputs the checker compares against.

    python3 benchmarks/record_reference.py

Runs the first ops of every workload for the default seed (more than one
run reaches) without a time budget and writes ``reference.json``, keyed by
each op's canonical text.  Ops that fail the other checks are reported and
left out.  Re-record only when a change is meant to alter the numbers.
"""

from __future__ import annotations

import itertools
import json
import sys

import checker
import run
import workloads

COUNTS = {"bound-mix": 48, "crossover-sweep": 40, "large-n": 240, "oracle": 96}


def main() -> int:
    validator = checker.load_validator(run.SCHEMA)
    refs = {}
    for name, count in COUNTS.items():
        ops = list(itertools.islice(workloads.generate(name, workloads.DEFAULT_SEED), count))
        ops, results, _, _ = run.run_ops(ops, None, False)
        for op, res in zip(ops, results):
            reason, detail = checker.classify(op, res, validator)
            if reason:
                print(f"not recorded [{reason}] {workloads.op_key(op)}: {detail}", file=sys.stderr)
            elif res["exit"] == 0:
                records = checker.parse_records(op, res, validator)
                refs[workloads.op_key(op)] = checker.summarize(op, records)
        print(f"{name}: {len(ops)} ops", file=sys.stderr)
    out = {"seed": workloads.DEFAULT_SEED, "rel_tol": checker.REFERENCE_REL_TOL, "ops": refs}
    run.REFERENCE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
