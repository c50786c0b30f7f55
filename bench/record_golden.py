"""Record the output of every op the workloads can draw, as SHA-256 digests.

Usage (from the root of a source checkout):

    python3 bench/record_golden.py

Writes bench/golden.json afresh, from every op of every workload.  It is
recorded once from a commit whose outputs are trusted; every later benchmark
run requires byte-identical output.  A recorded output that breaks a paper
fact (see check.py) aborts the recording.
"""

from __future__ import annotations

import json
import sys

from run import load_concordia, run_op
import check
import workloads


def record():
    cli = load_concordia()
    golden = {}
    for name in workloads.WORKLOADS:
        for op in workloads.all_ops(name):
            elapsed, code, out, err = run_op(cli, op.argv)
            golden[op.golden] = check.digest(out)
            found = check.problems(op, code, out, golden)
            print(f"{elapsed:8.3f} s  {op.golden[:120]}")
            if found:
                raise SystemExit(f"{op.golden}: {'; '.join(found)}\n{err}")
    return golden


def main() -> int:
    golden = record()
    with open(check.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
